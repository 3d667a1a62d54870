"""uavex benchmark: Monte-Carlo throughput per workload, checked against pinned CSVs.

    python3 perfbench/run.py --workload compare-ref20 --seed 3 --seconds 10 --trace 0

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics of BENCHMARK.json: ``runs_per_s`` (median over timed
passes), ``setup_s`` (median over fresh interpreters) and ``peak_rss_mb``.
Both times are scaled to the reference host speed (see calibrate.py); the
wall-clock figures are printed next to them. ``--trace 1``
alternates untraced passes with passes that carry boundary spans (see
spans.py) and reports the per-layer metrics.

Every pass's CSV is compared with the pin at the run's seed; at a seed with no
pin that check is "not run", and the passes are compared with the run's first
pass instead. Every run also repeats the workload at each pinned seed and
compares it byte for byte with the pin. A pass that raises, and every run in a
CSV row that differs, counts as failed; ``failed_frac`` is failed over
attempted runs. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the same figures with sample counts and quartiles. Exit code 2 means the
benchmark could not run at all (no uavex source, an unknown workload).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_PASSES = 5


class Tally:
    """Runs attempted and failed across every pass of one benchmark run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, expected: str | None) -> tuple[str | None, float | None]:
        """Run and time one pass; return its CSV and seconds, or (None, None) if it raised.

        Rows that differ from ``expected`` fail their runs; with no expected
        text only a raise can fail the pass.
        """
        from workloads import failed_runs

        runs = self.workload.runs_per_pass()
        self.attempted += runs
        t0 = time.perf_counter()
        try:
            csv_text = fn()
        except Exception as exc:  # a failing pass is a measured outcome, not a crash
            self.failed += runs
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - t0
        if expected is not None:
            self.failed += failed_runs(csv_text, expected, self.workload.runs)
        return csv_text, elapsed


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def measure_setup(name: str, seed: int, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Set-up seconds of the workload in ``repeats`` fresh interpreters, one after another.

    Each sample pairs the set-up time with the time of the host-speed
    reference run the same interpreter made right after it.
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=20, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if not report["fresh"] or report["pid"] == os.getpid():
            raise RuntimeError("setup probe did not run in a fresh interpreter")
        samples.append((report["setup_s"], report["host_s"]))
    return samples


def start_pass_at_seed(name: str, seed: int, tally: Tally) -> tuple[str | None, str]:
    """Untimed first pass at the run's seed: returns the CSV later passes must equal."""
    from workloads import WORKLOADS, load_pin, run_pass

    pin = load_pin(name, seed)
    first, _ = tally.run(lambda: run_pass(WORKLOADS[name], seed), pin)
    if pin is None:
        return first, "not run (no pin at this seed)"
    return pin, "match"


def check_pinned_seeds(name: str, tally: Tally, run) -> list[str]:
    """Repeat the workload at every pinned seed and compare with its pin."""
    from workloads import PIN_SEEDS, load_pin

    problems = []
    for pin_seed in PIN_SEEDS:
        pin = load_pin(name, pin_seed)
        if pin is None:
            problems.append(f"pin for seed {pin_seed} is missing")
            continue
        before = tally.failed
        tally.run(lambda: run(pin_seed), pin)
        if tally.failed != before:
            problems.append(f"CSV at pinned seed {pin_seed} differs from its pin or raised")
    return problems


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    from calibrate import REFERENCE_S, reference
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[name]
    tally = Tally(workload)
    problems = []
    try:
        setup = measure_setup(name, seed)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        setup = []
        problems.append(f"set-up probe failed: {exc}")
    expected, pin_note = start_pass_at_seed(name, seed, tally)

    # Each pass sits between two reference runs; its rate is scaled by their mean.
    rates, hosts, scaled = [], [reference()], []
    start = time.perf_counter()
    for repeat in itertools.count(1):
        _, elapsed = tally.run(lambda: run_pass(workload, seed), expected)
        hosts.append(reference())
        if elapsed is not None:
            rates.append(workload.runs_per_pass() / elapsed)
            scaled.append(rates[-1] * (hosts[-2] + hosts[-1]) / 2 / REFERENCE_S)
        if repeat >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    timed_s = time.perf_counter() - start
    if tally.failed and pin_note == "match":
        pin_note = "MISMATCH"
    problems += check_pinned_seeds(name, tally, lambda s: run_pass(workload, s))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {name} seed {seed}: {len(rates)} timed passes of "
          f"{workload.runs_per_pass()} runs in {timed_s:.1f} s")
    print(f"pin check at seed {seed}: {pin_note}")
    metrics = {"peak_rss_mb": peak_mb}
    if rates:
        metrics["runs_per_s"] = statistics.median(scaled)
        print(f"runs_per_s   {metrics['runs_per_s']:.6g} 1/s at reference host speed "
              f"({_summary(scaled)})")
        print(f"  wall-clock {_summary(rates)} 1/s; host speed vs reference: "
              f"{_summary([REFERENCE_S / h for h in hosts])}")
    if setup:
        scaled_setup = [wall * REFERENCE_S / host for wall, host in setup]
        metrics["setup_s"] = statistics.median(scaled_setup)
        print(f"setup_s      {metrics['setup_s']:.6g} s at reference host speed, in fresh "
              f"interpreters ({_summary(scaled_setup)})")
        print(f"  wall-clock {_summary([wall for wall, _ in setup])} s")
    print(f"peak_rss_mb  {peak_mb:.6g} MB")
    return tally, metrics, problems


def per_layer(name: str, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    from spans import CountDistances, Spans, layer_metrics, repeat_signature
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[name]
    tally = Tally(workload)
    expected, pin_note = start_pass_at_seed(name, seed, tally)
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    for repeat in itertools.count(1):
        _, elapsed = tally.run(lambda: run_pass(workload, seed), expected)
        if elapsed is not None:
            plain.append(elapsed)
        with Spans() as spans:
            _, elapsed = tally.run(lambda: run_pass(workload, seed), expected)
        if elapsed is not None:
            traced.append(elapsed)
            passes.append(spans)
        if repeat >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    if tally.failed and pin_note == "match":
        pin_note = "MISMATCH"

    problems = []
    with Spans() as counted, CountDistances() as distances:
        tally.run(lambda: run_pass(workload, seed), expected)
    closed_form = counted.counts["clustering.distance_evals"]
    if not distances.available:
        distance_note = "not run (clustering.hamming_distance no longer exists)"
    elif distances.calls == closed_form:
        distance_note = f"match ({closed_form} calls)"
    else:
        distance_note = f"MISMATCH: {distances.calls} calls, closed form {closed_form}"
        problems.append(f"hamming_distance count check: {distance_note}")
    if len({repeat_signature(p) for p in passes + [counted]}) != 1:
        problems.append("layer counts differ between repetitions of the same pass")

    def traced_pass(pin_seed: int) -> str:
        with Spans():
            return run_pass(workload, pin_seed)

    problems += check_pinned_seeds(name, tally, traced_pass)
    metrics = layer_metrics(passes) if passes else {}
    if plain and traced:
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1

    print(f"workload {name} seed {seed}: {len(traced)} traced and {len(plain)} untraced "
          f"passes of {workload.runs_per_pass()} runs")
    print(f"pin check at seed {seed} (traced and untraced passes): {pin_note}")
    print(f"hamming_distance count check: {distance_note}")
    if counted.missing:
        print(f"absent layers (a wrapped name no longer exists): {sorted(counted.missing)}")
    for key, value in metrics.items():
        print(f"{key:36s} {value:.6g}")
    return tally, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy  # loaded with uavex already

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, nproc {os.cpu_count()}")

    measure = per_layer if args.trace else end_to_end
    tally, values, problems = measure(args.workload, args.seed, args.seconds)
    for error in tally.errors[:5]:
        print(f"pass raised: {error}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"failed_frac  {tally.failed / tally.attempted:.6g}  "
          f"({tally.failed} of {tally.attempted} runs)")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte-Carlo sweeps over scenario parameters, CSV reporting, and the CLI.

A sweep loops over run indices once. A run's receipts depend only on (seed,
run index) and the fleet, never on the scheme or cluster count, so each run's
receipts are sampled once and handed to every sweep point: run k of every
scheme, and of every cluster count, starts from the very same holdings.

A sweep seeds the streams its runs read one block of run indices at a time
(``core.StreamBlock``); every stream is the one ``core.stream`` derives alone,
so any run still replays from its seed and run index.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import InfeasibleClusterCount, cluster_network, reads_tie_break
from .core import IndicatorVector, ScenarioConfig, Scheme
from .mac import TimingConfig
from .protocol import trace_line
from .simulator import clusters_for_scheme, run_scenario, sample_initial_receipts

# Run indices whose streams one StreamBlock seeds.
_BLOCK_RUNS = 256

CSV_COLUMNS = (
    "param",
    "scheme",
    "mean_exchanges",
    "sd_exchanges",
    "mean_delay_us",
    "sd_delay_us",
    "full_set_rate",
    "completion_rate",
    "runs",
    "seed",
)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base scenario, the parameter swept, and the values to visit."""

    base: ScenarioConfig
    parameter: str  # "num_clusters" | "scheme"
    values: tuple
    runs: int = 500

    def __post_init__(self) -> None:
        if self.parameter not in ("num_clusters", "scheme"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.runs < 1:
            raise ValueError("runs must be positive")


@dataclass(frozen=True)
class AggregateRow:
    """One aggregated sweep point; None marks a column that does not apply."""

    param: str
    scheme: str
    mean_exchanges: float | None
    sd_exchanges: float | None
    mean_delay_us: float | None
    sd_delay_us: float | None
    full_set_rate: float | None
    completion_rate: float | None
    runs: int
    seed: int

    def se_exchanges(self) -> float:
        assert self.sd_exchanges is not None
        return self.sd_exchanges / math.sqrt(self.runs)

    def as_csv_row(self) -> list[str]:
        def cell(value: float | int | str | None) -> str:
            if value is None or (isinstance(value, float) and math.isnan(value)):
                return ""
            return str(value)

        return [cell(getattr(self, column)) for column in CSV_COLUMNS]


def _sd(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    return float(np.std(values, ddof=1))


def _param_tag(config: ScenarioConfig) -> str:
    # Semicolon, not comma, so CSV cells never need quoting.
    return f"rho={config.delivery_rate:g};N={config.num_clusters}"


def _blocks(
    seed: int, runs: int, labels: Sequence[str]
) -> Iterator[tuple[int, core.StreamBlock]]:
    """Each run index below ``runs`` with the StreamBlock that seeds its ``labels``."""
    for start in range(0, runs, _BLOCK_RUNS):
        block = core.StreamBlock(seed, range(start, min(start + _BLOCK_RUNS, runs)), labels)
        for k in block.run_indices:
            yield k, block


def _run_receipts(
    config: ScenarioConfig, run_index: int, block: core.StreamBlock
) -> list[IndicatorVector]:
    """The receipts of one run, shared by every scheme and cluster count swept at it."""
    return sample_initial_receipts(
        config.num_uavs, config.num_packets, config.delivery_rate,
        core.stream(config.seed, run_index, "bs-delivery", block=block),
    )


def _full_set_fractions(
    config: ScenarioConfig, counts: Sequence[int | ValueError], runs: int
) -> list[np.ndarray | ValueError]:
    """Per-run full-cluster fraction of ``config``'s fleet at each cluster count.

    A count given as an error is passed through. A count that clustering
    finds infeasible gives its ``InfeasibleClusterCount`` and is not
    clustered again.

    A run's tie-break stream is derived at its first count that reads one,
    and every further such count reads it again from the start, as a fresh
    derivation would give it. Counts that read none leave it untouched.
    """
    outcomes: list = [n if isinstance(n, ValueError) else np.empty(runs) for n in counts]
    live = [i for i, n in enumerate(counts) if not isinstance(n, ValueError)]
    labels = ["bs-delivery"]
    if any(reads_tie_break(counts[i]) for i in live):
        labels.append("tie-break")
    for k, block in _blocks(config.seed, runs, labels):
        if not live:
            break
        receipts = _run_receipts(config, k, block)
        tie_break = None
        for i in list(live):
            if reads_tie_break(counts[i]):
                if tie_break is None:
                    tie_break = core.stream(config.seed, k, "tie-break", block=block)
                    start = tie_break.bit_generator.state
                else:
                    tie_break.bit_generator.state = start
            try:
                assignment = cluster_network(receipts, counts[i], tie_break)
            except InfeasibleClusterCount as exc:
                outcomes[i] = exc
                live.remove(i)
                continue
            outcomes[i][k] = assignment.full_cluster_count() / assignment.num_clusters
    return outcomes


def full_set_rate_samples(config: ScenarioConfig, runs: int) -> np.ndarray:
    """Per-run fraction of clusters whose combined holdings are complete.

    Runs the clustering stage only; no exchange is simulated.
    """
    (fractions,) = _full_set_fractions(config, [config.num_clusters], runs)
    if isinstance(fractions, InfeasibleClusterCount):
        raise fractions
    return fractions


def _scheme_samples(
    config: ScenarioConfig, schemes: Sequence[Scheme], runs: int, timing: TimingConfig | None
) -> list[dict[str, np.ndarray]]:
    """Per-run samples of ``config`` under each scheme, all from each run's receipts."""
    configs = [replace(config, scheme=scheme) for scheme in schemes]
    samples = [
        {
            "exchanges": np.empty(runs),
            "delay_us": np.empty(runs),
            "completed": np.empty(runs, dtype=bool),
            "full_fraction": np.empty(runs),
        }
        for _ in configs
    ]
    counts = [clusters_for_scheme(c) for c in configs]
    labels = ["bs-delivery", *(f"backoff/{i}" for i in range(max(counts)))]
    if any(reads_tie_break(n) for n in counts):
        labels.append("tie-break")
    for k, block in _blocks(config.seed, runs, labels):
        receipts = _run_receipts(config, k, block)
        for scheme_config, sample in zip(configs, samples):
            result = run_scenario(
                scheme_config, k, timing=timing, receipts=receipts, block=block
            )
            sample["exchanges"][k] = result.reported_exchanges
            sample["delay_us"][k] = result.reported_delay_us
            sample["completed"][k] = result.all_completed
            sample["full_fraction"][k] = result.full_cluster_fraction
    return samples


def scheme_metric_samples(
    config: ScenarioConfig, runs: int, timing: TimingConfig | None = None
) -> dict[str, np.ndarray]:
    """Per-run reported exchanges, delay, and completion for one scheme."""
    return _scheme_samples(config, [config.scheme], runs, timing)[0]


def sweep_full_set_rate(spec: SweepSpec) -> list[AggregateRow]:
    """Full-set rate for each swept cluster count (clustering only, no exchange).

    Infeasible cluster counts produce a metric-less warning row instead of
    aborting the sweep.
    """
    if spec.parameter != "num_clusters":
        raise ValueError("full-set-rate sweeps vary num_clusters")

    def skipped(tag: str, exc: ValueError) -> AggregateRow:
        print(f"warning: skipping {tag}: {exc}", file=sys.stderr)
        return AggregateRow(tag, spec.base.scheme.value, None, None, None, None,
                            None, None, 0, spec.base.seed)

    counts: list[int | ValueError] = []
    for value in spec.values:
        try:
            counts.append(replace(spec.base, num_clusters=int(value)).num_clusters)  # N > U fails
        except ValueError as exc:
            counts.append(exc)
    rows = []
    for value, fractions in zip(spec.values, _full_set_fractions(spec.base, counts, spec.runs)):
        tag = f"rho={spec.base.delivery_rate:g};N={int(value)}"
        if isinstance(fractions, ValueError):
            rows.append(skipped(tag, fractions))
            continue
        rows.append(
            AggregateRow(
                param=tag,
                scheme=spec.base.scheme.value,
                mean_exchanges=None,
                sd_exchanges=None,
                mean_delay_us=None,
                sd_delay_us=None,
                full_set_rate=float(fractions.mean()),
                completion_rate=float((fractions == 1.0).mean()),
                runs=spec.runs,
                seed=spec.base.seed,
            )
        )
    return rows


def compare_schemes(spec: SweepSpec, timing: TimingConfig | None = None) -> list[AggregateRow]:
    """Mean exchanges and delay per scheme on matched receipt samples.

    Runs whose cluster unions lack packets cannot finish completely; they
    count toward the completion and full-set rates but are left out of the
    delay means, since their delay is dominated by the give-up timeout.
    """
    if spec.parameter != "scheme":
        raise ValueError("compare sweeps vary the scheme")
    schemes = [value if isinstance(value, Scheme) else Scheme(value) for value in spec.values]
    rows = []
    for scheme, samples in zip(schemes, _scheme_samples(spec.base, schemes, spec.runs, timing)):
        finished = samples["completed"]
        delays = samples["delay_us"][finished]
        rows.append(
            AggregateRow(
                param=_param_tag(spec.base),
                scheme=scheme.value,
                mean_exchanges=float(samples["exchanges"].mean()),
                sd_exchanges=_sd(samples["exchanges"]),
                mean_delay_us=float(delays.mean()) if delays.size else None,
                sd_delay_us=_sd(delays),
                full_set_rate=float(samples["full_fraction"].mean()),
                completion_rate=float(finished.mean()),
                runs=spec.runs,
                seed=spec.base.seed,
            )
        )
    return rows


def rows_to_csv(rows: Sequence[AggregateRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())
    return buffer.getvalue()


# -- command line -----------------------------------------------------------

FIG1_HOLDINGS = ((1, 1, 0, 1, 0, 0), (0, 1, 1, 1, 1, 1), (0, 0, 1, 0, 1, 0), (1, 1, 1, 1, 0, 1))


def _fig1_trace(timing: TimingConfig, seed: int) -> tuple[list, object]:
    """Run the built-in four-UAV walkthrough as a single cluster and trace it."""
    from .simulator import run_cluster_exchange

    holdings = {u: IndicatorVector(bits) for u, bits in enumerate(FIG1_HOLDINGS)}
    trace: list = []
    result = run_cluster_exchange(
        members=range(len(FIG1_HOLDINGS)),
        holdings=holdings,
        timing=timing,
        scheme=Scheme.MECHANISM_ONLY,
        rng=core.stream(seed, 0, "backoff/0"),
        trace=trace,
    )
    return trace, result


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; infeasible scenarios exit 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_cluster_values(text: str) -> list[int]:
    """Accept '3', '1,2,5', or an ascending range '1..10'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValueError(
            f"--clusters takes N, N,M,... or a range LO..HI with LO <= HI; got {text!r}"
        )
    return values


def _parse_rho_values(text: str) -> list[float]:
    """Accept a comma list of delivery rates, '0.5,0.7'."""
    rhos = []
    for item in text.split(","):
        try:
            rhos.append(float(item))
        except ValueError:
            raise ValueError(
                f"--rhos takes a comma list of delivery rates; {item!r} in {text!r} is not a number"
            ) from None
    return rhos


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


_SCENARIO_KEYS = ("num_uavs", "num_packets", "delivery_rate", "num_clusters",
                  "scheme", "seed", "runs")
_TIMING_KEYS = ("difs_us", "cw_total_us", "preamble_us", "payload_us_per_packet")


def _setting(key: str, value: object, kind: type) -> Any:
    """Setting ``key`` as ``kind`` (int, float or Scheme); a ValueError naming the key otherwise.

    JSON nulls, booleans, lists and objects are refused, and so is a fraction
    for an integer setting; strings convert as ``kind`` parses them.
    """
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if value is None or isinstance(value, (bool, list, dict)) or fraction:
        raise ValueError(f"setting {key} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"setting {key} must be {kind.__name__}, got {value!r}") from None


def _gather_settings(args: argparse.Namespace) -> tuple[dict, TimingConfig]:
    """Merge defaults, config file, and explicit flags (flags win)."""
    settings: dict = {"seed": 0, "runs": 500, "scheme": "proposed"}
    if getattr(args, "config", None):
        file_settings = _load_config_file(args.config)
        unknown = set(file_settings) - set(_SCENARIO_KEYS) - set(_TIMING_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_settings)
    flag_map = {
        "num_uavs": "uavs",
        "num_packets": "packets",
        "delivery_rate": "rho",
        "seed": "seed",
        "runs": "runs",
    }
    for key, flag in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    timing_kwargs = {}
    for key in _TIMING_KEYS:
        if key in settings:
            timing_kwargs[key] = _setting(key, settings.pop(key), int)
        override = getattr(args, key, None)
        if override is not None:
            timing_kwargs[key] = override
    return settings, TimingConfig(**timing_kwargs)


def _cluster_count(flag: int | None, settings: dict) -> int:
    """``--clusters`` if given, else the config file's ``num_clusters``."""
    if flag is not None:
        return flag
    if "num_clusters" not in settings:
        raise ValueError("cluster count required: pass --clusters or set num_clusters in --config")
    return _setting("num_clusters", settings["num_clusters"], int)


def _scenario_from(settings: dict, num_clusters: int) -> ScenarioConfig:
    missing = [k for k in ("num_uavs", "num_packets", "delivery_rate") if k not in settings]
    if missing:
        raise ValueError(f"missing scenario settings: {missing} (flags or config file)")
    return ScenarioConfig(
        num_uavs=_setting("num_uavs", settings["num_uavs"], int),
        num_packets=_setting("num_packets", settings["num_packets"], int),
        delivery_rate=_setting("delivery_rate", settings["delivery_rate"], float),
        num_clusters=num_clusters,
        scheme=_setting("scheme", settings.get("scheme", "proposed"), Scheme),
        seed=_setting("seed", settings.get("seed", 0), int),
        runs=_setting("runs", settings.get("runs", 500), int),
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(parser: argparse.ArgumentParser, output: str = "CSV") -> None:
    parser.add_argument("--uavs", type=int, help="fleet size")
    parser.add_argument("--packets", type=int, help="number of common packets")
    parser.add_argument("--rho", type=float, help="per-packet delivery probability")
    parser.add_argument("--runs", type=int, help="Monte-Carlo runs per point (default 500)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--config", help="JSON file with scenario and timing settings")
    parser.add_argument("--out", help=f"write {output} here instead of stdout")
    parser.add_argument("--difs-us", dest="difs_us", type=int, help="DIFS override")
    parser.add_argument("--cw-total-us", dest="cw_total_us", type=int,
                        help="contention window override")
    parser.add_argument("--preamble-us", dest="preamble_us", type=int,
                        help="frame preamble override")
    parser.add_argument("--payload-us", dest="payload_us_per_packet", type=int,
                        help="per-packet payload time override")


def _build_parser() -> _Parser:
    parser = _Parser(prog="uavex", description="UAV cluster data-exchange experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("full-set-rate", parents=[], help="cluster-count sweep")
    _add_common_flags(p_rate)
    p_rate.add_argument("--clusters",
                        help="cluster counts: '3', '1,3,5', or '1..10' "
                             "(default: num_clusters from --config)")
    p_rate.add_argument("--rhos", help="optional comma list of delivery rates to cross")

    p_cmp = sub.add_parser("compare", help="scheme comparison at one scenario")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--clusters", type=int,
                       help="cluster count for the proposed scheme "
                            "(default: num_clusters from --config)")
    p_cmp.add_argument("--schemes", default="proposed,mechanism_only,baseline_csma",
                       help="comma list of schemes to compare")

    p_trace = sub.add_parser("trace", help="single run with the full event trace")
    _add_common_flags(p_trace, output="the trace text")
    p_trace.add_argument("--clusters", type=int,
                         help="cluster count (default: num_clusters from --config)")
    p_trace.add_argument("--scheme", help="scheme for the traced run")
    p_trace.add_argument("--run-index", type=int, default=0, help="which run to replay")
    p_trace.add_argument("--fig1", action="store_true",
                         help="trace the built-in four-UAV walkthrough")

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_full_set_rate(args: argparse.Namespace) -> int:
    settings, _ = _gather_settings(args)
    if args.clusters is not None:
        cluster_values = _parse_cluster_values(args.clusters)
    else:
        cluster_values = [_cluster_count(None, settings)]
    if args.rhos:
        rhos = _parse_rho_values(args.rhos)
    elif "delivery_rate" in settings:
        rhos = [_setting("delivery_rate", settings["delivery_rate"], float)]
    else:
        raise ValueError("delivery rate required (--rho, --rhos, or config file)")
    rows = []
    for rho in rhos:
        # One cluster fits every fleet; the sweep checks each count itself.
        base = _scenario_from(dict(settings, delivery_rate=rho), num_clusters=1)
        spec = SweepSpec(base, "num_clusters", tuple(cluster_values), runs=base.runs)
        rows.extend(sweep_full_set_rate(spec))
    if all(row.runs == 0 for row in rows):
        print("error: every requested cluster count was infeasible", file=sys.stderr)
        return 2
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    settings, timing = _gather_settings(args)
    base = _scenario_from(settings, num_clusters=_cluster_count(args.clusters, settings))
    schemes = tuple(Scheme(s) for s in args.schemes.split(","))
    spec = SweepSpec(base, "scheme", schemes, runs=base.runs)
    rows = compare_schemes(spec, timing=timing)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    settings, timing = _gather_settings(args)
    seed = _setting("seed", settings.get("seed", 0), int)
    if args.fig1:
        trace, result = _fig1_trace(timing, seed)
        results = [result]
        exchanges, delay = result.exchange_count, result.delay_us
        completed = result.completed
    else:
        clusters = _cluster_count(args.clusters, settings)
        if args.scheme is not None:
            settings["scheme"] = args.scheme
        config = _scenario_from(settings, num_clusters=clusters)
        trace = []
        run = run_scenario(config, args.run_index, timing=timing, trace=trace)
        results = list(run.cluster_results)
        exchanges, delay = run.reported_exchanges, run.reported_delay_us
        completed = run.all_completed
    lines = [trace_line(rec) for rec in trace]
    summary = (
        f"# exchanges={exchanges} delay_us={delay} completed={completed} "
        f"clusters={len(results)}\n"
    )
    _emit("\n".join(lines) + ("\n" if lines else "") + summary, args.out)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    failures = selftest.run_all(seed=args.seed)
    return 0 if failures == 0 else 1


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "full-set-rate": _cmd_full_set_rate,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "selftest": _cmd_selftest,
    }
    try:
        return commands[args.command](args)
    except InfeasibleClusterCount as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

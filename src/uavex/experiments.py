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
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Sequence

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import InfeasibleClusterCount, _check_feasible, cluster_network, reads_tie_break
from .core import IndicatorVector, ScenarioConfig, Scheme
from .mac import Pcg64Draws, TimingConfig
from .protocol import TraceRecord, trace_line
from .simulator import (
    ClusterResult,
    RunResult,
    clusters_for_scheme,
    run_cluster_exchange,
    run_scenario,
    sample_initial_receipts,
)

# Run indices whose streams one StreamBlock seeds.
_BLOCK_RUNS = 256

# Every config key, each also the dest of the flag that sets it, with its type.
_SETTINGS = {
    "num_uavs": int, "num_packets": int, "delivery_rate": float, "num_clusters": int,
    "scheme": Scheme, "seed": int, "runs": int,
    "difs_us": int, "cw_total_us": int, "preamble_us": int, "payload_us_per_packet": int,
}


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


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base scenario, the parameter swept, and the values to visit.

    Each value is typed as the config setting of that name is (``_setting``):
    an ``int`` cluster count or a ``Scheme``. A fraction, a boolean or a string
    that does not parse raises ``ValueError`` naming the parameter and value.
    """

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
        kind = _SETTINGS[self.parameter]
        typed = tuple(_setting(self.parameter, value, kind) for value in self.values)
        object.__setattr__(self, "values", typed)


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


CSV_COLUMNS = tuple(field.name for field in fields(AggregateRow))


def _mean(values: np.ndarray | None) -> float | None:
    return float(values.mean()) if values is not None and values.size else None


def _sd(values: np.ndarray | None) -> float | None:
    if values is None or values.size < 2:
        return None
    return float(np.std(values, ddof=1))


def _param_tag(delivery_rate: float, num_clusters: int) -> str:
    # Semicolon, not comma, so CSV cells never need quoting.
    return f"rho={delivery_rate:g};N={num_clusters}"


def _row(
    base: ScenarioConfig, num_clusters: int, scheme: Scheme, fractions: np.ndarray,
    exchanges: np.ndarray | None = None, delays: np.ndarray | None = None,
) -> AggregateRow:
    """The row of a sweep point from its per-run full-cluster fractions, exchanges and delays.

    A run completed when its fraction is 1. Delay statistics count completed
    runs only, since the give-up timeout dominates the others' delay. A cell
    with no sample is blank: the exchange cells of a clustering-only point and
    every metric of a point with no runs, such as a count that cannot be formed.
    """
    completed = fractions == 1.0
    if delays is not None:
        delays = delays[completed]
    return AggregateRow(
        _param_tag(base.delivery_rate, num_clusters), scheme.value,
        _mean(exchanges), _sd(exchanges), _mean(delays), _sd(delays),
        _mean(fractions), _mean(completed), fractions.size, base.seed,
    )


def _runs(
    config: ScenarioConfig, runs: int, counts: Sequence[int], backoffs: int = 0
) -> Iterator[tuple[int, core.StreamBlock, list[IndicatorVector]]]:
    """Each run index below ``runs``, the StreamBlock that seeds its streams, and its receipts.

    The sweep's points cluster at ``counts`` and read ``backoffs`` backoff
    streams per run. With no counts there is no point, and nothing is sampled.
    """
    if not counts:
        return
    labels = ["bs-delivery", *(f"backoff/{i}" for i in range(backoffs))]
    if any(reads_tie_break(n) for n in counts):
        labels.append("tie-break")
    for start in range(0, runs, _BLOCK_RUNS):
        block = core.StreamBlock(config.seed, range(start, min(start + _BLOCK_RUNS, runs)), labels)
        for k in block.run_indices:
            yield k, block, sample_initial_receipts(
                config.num_uavs, config.num_packets, config.delivery_rate,
                core.stream(config.seed, k, "bs-delivery", block=block),
            )


def _full_set_fractions(
    config: ScenarioConfig, counts: Sequence[int], runs: int
) -> list[np.ndarray]:
    """Per-run full-cluster fraction of ``config``'s fleet at each feasible cluster count.

    Each count that reads a tie-break stream derives the run's stream just
    before clustering, as ``run_scenario`` does, so every such count starts
    from the same stream.
    """
    fractions = [np.empty(runs) for _ in counts]
    for k, block, receipts in _runs(config, runs, counts):
        for num_clusters, fraction in zip(counts, fractions):
            tie_break = (
                core.stream(config.seed, k, "tie-break", block=block)
                if reads_tie_break(num_clusters) else None
            )
            assignment = cluster_network(receipts, num_clusters, tie_break)
            fraction[k] = assignment.full_cluster_count() / assignment.num_clusters
    return fractions


def full_set_rate_samples(config: ScenarioConfig, runs: int) -> np.ndarray:
    """Per-run fraction of clusters whose combined holdings are complete.

    Runs the clustering stage only; no exchange is simulated. A count that
    ``cluster_network`` cannot form raises ``InfeasibleClusterCount`` before any run.
    """
    _check_feasible(config.num_uavs, config.num_clusters)
    return _full_set_fractions(config, [config.num_clusters], runs)[0]


def _scheme_samples(
    config: ScenarioConfig, schemes: Sequence[Scheme], runs: int, timing: TimingConfig | None
) -> list[dict[str, np.ndarray]]:
    """Per-run exchanges, delay and full-cluster fraction of ``config`` under each scheme."""
    configs = [replace(config, scheme=scheme) for scheme in schemes]
    samples = [
        {"exchanges": np.empty(runs), "delay_us": np.empty(runs), "full_fraction": np.empty(runs)}
        for _ in configs
    ]
    counts = [clusters_for_scheme(c) for c in configs]
    for k, block, receipts in _runs(config, runs, counts, backoffs=max(counts)):
        for scheme_config, sample in zip(configs, samples):
            result = run_scenario(
                scheme_config, k, timing=timing, receipts=receipts, block=block
            )
            sample["exchanges"][k] = result.reported_exchanges
            sample["delay_us"][k] = result.reported_delay_us
            sample["full_fraction"][k] = result.full_cluster_fraction
    return samples


def scheme_metric_samples(
    config: ScenarioConfig, runs: int, timing: TimingConfig | None = None
) -> dict[str, np.ndarray]:
    """Per-run reported exchanges, delay, full-cluster fraction and completion for one scheme."""
    samples = _scheme_samples(config, [config.scheme], runs, timing)[0]
    samples["completed"] = samples["full_fraction"] == 1.0
    return samples


def sweep_full_set_rate(spec: SweepSpec) -> list[AggregateRow]:
    """Full-set rate for each swept cluster count (clustering only, no exchange).

    A count ``cluster_network`` cannot form prints a warning and gets a row
    with no runs instead of aborting the sweep; every other error propagates.
    The counts it can form share one pass over the runs.
    """
    if spec.parameter != "num_clusters":
        raise ValueError("full-set-rate sweeps vary num_clusters")
    base = spec.base
    feasible = []
    for num_clusters in spec.values:
        try:
            _check_feasible(base.num_uavs, num_clusters)
        except InfeasibleClusterCount as exc:
            tag = _param_tag(base.delivery_rate, num_clusters)
            print(f"warning: skipping {tag}: {exc}", file=sys.stderr)
        else:
            feasible.append(num_clusters)
    fractions = dict(zip(feasible, _full_set_fractions(base, feasible, spec.runs)))
    return [_row(base, n, base.scheme, fractions.get(n, np.empty(0))) for n in spec.values]


def compare_schemes(spec: SweepSpec, timing: TimingConfig | None = None) -> list[AggregateRow]:
    """Mean exchanges and delay per scheme on matched receipts; delay counts completed runs."""
    if spec.parameter != "scheme":
        raise ValueError("compare sweeps vary the scheme")
    base = spec.base
    return [
        _row(base, base.num_clusters, scheme, s["full_fraction"], s["exchanges"], s["delay_us"])
        for scheme, s in zip(spec.values, _scheme_samples(base, spec.values, spec.runs, timing))
    ]


def rows_to_csv(rows: Sequence[AggregateRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())
    return buffer.getvalue()


# -- command line -----------------------------------------------------------

FIG1_HOLDINGS = ((1, 1, 0, 1, 0, 0), (0, 1, 1, 1, 1, 1), (0, 0, 1, 0, 1, 0), (1, 1, 1, 1, 0, 1))


def _fig1_exchange(timing: TimingConfig, seed: int, trace: list[TraceRecord]) -> ClusterResult:
    """Run the built-in four-UAV walkthrough as a single cluster, tracing into ``trace``."""
    holdings = {u: IndicatorVector(bits) for u, bits in enumerate(FIG1_HOLDINGS)}
    return run_cluster_exchange(
        members=range(len(FIG1_HOLDINGS)),
        holdings=holdings,
        timing=timing,
        scheme=Scheme.MECHANISM_ONLY,
        rng=Pcg64Draws(core.stream(seed, 0, "backoff/0").bit_generator),
        trace=trace,
    )


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
    except (OverflowError, MemoryError):
        raise ValueError(f"--clusters range {text!r} is too large to hold") from None
    if not values:
        raise ValueError(
            f"--clusters takes N, N,M,... or a range LO..HI with LO <= HI; got {text!r}"
        )
    return values


def _parse_list(text: str, flag: str, kind: type, what: str, problem: str) -> list:
    """A comma list of ``kind`` values; otherwise a ValueError naming ``flag`` and the item."""
    values = []
    for item in text.split(","):
        try:
            values.append(kind(item))
        except ValueError:
            raise ValueError(
                f"{flag} takes a comma list of {what}; {item!r} in {text!r} {problem}"
            ) from None
    return values


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


_TIMING_KEYS = tuple(field.name for field in fields(TimingConfig))


def _gather_settings(args: argparse.Namespace) -> tuple[dict, TimingConfig]:
    """Merge the config file and explicit flags (flags win), typing each value given.

    Settings given nowhere are left out, so ``ScenarioConfig`` and
    ``TimingConfig`` supply their defaults.
    """
    given = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(given) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: getattr(args, key) for key in _SETTINGS if getattr(args, key, None) is not None}
    settings: dict = {}
    for key, value in [*given.items(), *flags.items()]:
        settings[key] = _setting(key, value, _SETTINGS[key])
    timing = TimingConfig(**{key: settings.pop(key) for key in _TIMING_KEYS if key in settings})
    return settings, timing


_NO_CLUSTER_COUNT = "cluster count required: pass --clusters or set num_clusters in --config"


def _scenario_from(settings: dict) -> ScenarioConfig:
    """The scenario ``settings`` describe."""
    if "num_clusters" not in settings:
        raise ValueError(_NO_CLUSTER_COUNT)
    missing = [k for k in ("num_uavs", "num_packets", "delivery_rate") if k not in settings]
    if missing:
        raise ValueError(f"missing scenario settings: {missing} (flags or config file)")
    return ScenarioConfig(**settings)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(parser: argparse.ArgumentParser, output: str = "CSV") -> None:
    parser.add_argument("--uavs", dest="num_uavs", type=int, help="fleet size")
    parser.add_argument("--packets", dest="num_packets", type=int,
                        help="number of common packets")
    parser.add_argument("--rho", dest="delivery_rate", type=float,
                        help="per-packet delivery probability")
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
    p_cmp.add_argument("--clusters", dest="num_clusters", type=int,
                       help="cluster count for the proposed scheme "
                            "(default: num_clusters from --config)")
    p_cmp.add_argument("--schemes", default="proposed,mechanism_only,baseline_csma",
                       help="comma list of schemes to compare")

    p_trace = sub.add_parser("trace", help="single run with the full event trace")
    _add_common_flags(p_trace, output="the trace text")
    p_trace.add_argument("--clusters", dest="num_clusters", type=int,
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
    elif "num_clusters" in settings:
        cluster_values = [settings["num_clusters"]]
    else:
        raise ValueError(_NO_CLUSTER_COUNT)
    if args.rhos:
        rhos = _parse_list(args.rhos, "--rhos", float, "delivery rates", "is not a number")
    elif "delivery_rate" in settings:
        rhos = [settings["delivery_rate"]]
    else:
        raise ValueError("delivery rate required (--rho, --rhos, or config file)")
    rows = []
    for rho in rhos:
        # One cluster fits every fleet; the sweep checks each count itself.
        base = _scenario_from(dict(settings, delivery_rate=rho, num_clusters=1))
        spec = SweepSpec(base, "num_clusters", tuple(cluster_values), runs=base.runs)
        rows.extend(sweep_full_set_rate(spec))
    if all(row.runs == 0 for row in rows):
        print("error: every requested cluster count was infeasible", file=sys.stderr)
        return 2
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    settings, timing = _gather_settings(args)
    base = _scenario_from(settings)
    choices = ", ".join(scheme.value for scheme in Scheme)
    schemes = _parse_list(args.schemes, "--schemes", Scheme, "scheme names",
                          f"is not one of {choices}")
    spec = SweepSpec(base, "scheme", tuple(schemes), runs=base.runs)
    rows = compare_schemes(spec, timing=timing)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    settings, timing = _gather_settings(args)
    trace: list[TraceRecord] = []
    if args.fig1:
        run = RunResult.from_clusters([_fig1_exchange(timing, settings.get("seed", 0), trace)])
    else:
        run = run_scenario(_scenario_from(settings), args.run_index, timing=timing, trace=trace)
    lines = "".join(trace_line(rec) + "\n" for rec in trace)
    summary = (
        f"# exchanges={run.reported_exchanges} delay_us={run.reported_delay_us} "
        f"completed={run.all_completed} clusters={len(run.cluster_results)}\n"
    )
    _emit(lines + summary, args.out)
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
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

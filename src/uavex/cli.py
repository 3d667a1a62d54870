"""The ``uavex`` command line: flags, config files and the four commands.

``experiments.cli_main`` imports this module on its first call, so ``import
uavex`` loads the library alone, without ``argparse``, ``json`` or this file.
Config keys and their types come from ``experiments._SETTINGS``, the table
that also types sweep values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Sequence

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import InfeasibleClusterCount
from .core import IndicatorVector, ScenarioConfig, Scheme
from .experiments import (_SETTINGS, SweepSpec, _setting, compare_schemes, rows_to_csv,
                          sweep_full_set_rate)
from .mac import Pcg64Draws, TimingConfig
from .protocol import TraceRecord, trace_line
from .simulator import ClusterResult, RunResult, run_cluster_exchange, run_scenario

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
    if out_path is not None:
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
    p_cmp.add_argument("--schemes", default=",".join(scheme.value for scheme in Scheme),
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
    if args.rhos is not None:
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
        run = RunResult((_fig1_exchange(timing, settings.get("seed", 0), trace),))
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


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run its command; return the exit code (0, 1 or 2)."""
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
        if getattr(args, "out", None) == "":  # refused before any run starts
            raise ValueError("--out takes a file path; got ''")
        return commands[args.command](args)
    except InfeasibleClusterCount as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

"""Monte-Carlo sweeps over scenario parameters and CSV reporting.

A sweep loops over run indices once. A run's receipts depend only on (seed,
run index) and the fleet, never on the scheme or cluster count, so each run's
receipts are sampled once and handed to every sweep point: run k of every
scheme, and of every cluster count, starts from the very same holdings.

A sweep seeds the streams its runs read one block of run indices at a time
(``core.StreamBlock``); every stream is the one ``core.stream`` derives alone,
so any run still replays from its seed and run index.

The command line lives in ``uavex.cli``; ``cli_main`` imports it on its first
call, so the library loads without it.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Sequence, get_type_hints

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import InfeasibleClusterCount, _check_feasible, cluster_network, reads_tie_break
from .core import IndicatorVector, ScenarioConfig, Scheme
from .mac import TimingConfig
from .simulator import clusters_for_scheme, run_scenario, sample_initial_receipts

# Run indices whose streams one StreamBlock seeds.
_BLOCK_RUNS = 256

# Every config key, each also the dest of the CLI flag that sets it, with its type:
# the fields of the two config dataclasses.
_SETTINGS = {**get_type_hints(ScenarioConfig), **get_type_hints(TimingConfig)}


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
    """One sweep: a base scenario, the parameter swept, the values to visit and the run count.

    Each value is typed as the config setting of that name is (``_setting``):
    an ``int`` cluster count or a ``Scheme``. A fraction, a boolean or a string
    that does not parse raises ``ValueError`` naming the parameter and value.
    ``runs`` defaults to ``base.runs``.
    """

    base: ScenarioConfig
    parameter: str  # "num_clusters" | "scheme"
    values: tuple
    runs: int | None = None

    def __post_init__(self) -> None:
        if self.runs is None:
            object.__setattr__(self, "runs", self.base.runs)
        if self.parameter not in ("num_clusters", "scheme"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if type(self.runs) is not int or self.runs < 1:  # type, not isinstance: True is refused
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")
        kind = _SETTINGS[self.parameter]
        # From a list, not a generator: see clustering.cluster_network's result.
        typed = tuple([_setting(self.parameter, value, kind) for value in self.values])
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
    # A comprehension, not dict(): the type call allocates outside the dict free
    # list, yet the dict is freed onto it, which grows pass by pass up to 80.
    fractions = {n: f for n, f in zip(feasible, _full_set_fractions(base, feasible, spec.runs))}
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


def cli_main(argv: Sequence[str] | None = None) -> int:
    """The ``uavex`` command line (see ``uavex.cli``), imported on the first call."""
    from . import cli

    return cli.main(argv)

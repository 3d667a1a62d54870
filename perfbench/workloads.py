"""The benchmark's workloads: one pass of a workload is one CLI command's path.

A pass calls ``compare_schemes`` or ``sweep_full_set_rate`` through the public
API and renders the rows with ``rows_to_csv``, exactly as ``uavex compare`` and
``uavex full-set-rate`` do. The uavex package is always imported from the
``src/`` directory of the checkout this file sits in, never from an installed
copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins"

if not (SRC / "uavex" / "__init__.py").is_file():
    raise ImportError(f"no uavex source under {SRC}")
sys.path.insert(0, str(SRC))

import uavex  # noqa: E402
from uavex import (  # noqa: E402
    ScenarioConfig,
    SweepSpec,
    TimingConfig,
    compare_schemes,
    rows_to_csv,
    sweep_full_set_rate,
)

if Path(uavex.__file__).resolve().parent != (SRC / "uavex").resolve():
    raise ImportError(f"uavex was imported from {uavex.__file__}, not from {SRC}")

# The default seed and one held-out seed; pins exist for exactly these.
PIN_SEEDS = (0, 914)
SCHEMES = ("proposed", "mechanism_only", "baseline_csma")


@dataclass(frozen=True)
class Workload:
    """One CLI command at one scenario, with the run count of one pass."""

    command: str  # "compare" | "full-set-rate"
    uavs: int
    packets: int
    rho: float
    clusters: tuple[int, ...]
    runs: int
    timing: dict = field(default_factory=dict)

    def points(self) -> int:
        """Rows of the CSV: one per scheme, or one per cluster count."""
        return len(SCHEMES) if self.command == "compare" else len(self.clusters)

    def runs_per_pass(self) -> int:
        """Monte-Carlo runs in one pass; a full-set-rate run is one (run index, N) point."""
        return self.runs * self.points()


WORKLOADS = {
    "compare-ref20": Workload("compare", 20, 10, 0.6, (6,), runs=40),
    "compare-contended": Workload("compare", 10, 6, 0.7, (3,), runs=100,
                                  timing={"cw_total_us": 24}),
    "fsr-ref20": Workload("full-set-rate", 20, 10, 0.6, tuple(range(1, 11)), runs=20),
}


def run_pass(workload: Workload, seed: int, runs: int | None = None) -> str:
    """Run one pass of the workload at a master seed and return its CSV text."""
    runs = workload.runs if runs is None else runs
    base = ScenarioConfig(
        num_uavs=workload.uavs,
        num_packets=workload.packets,
        delivery_rate=workload.rho,
        num_clusters=max(workload.clusters),
        seed=seed,
        runs=runs,
    )
    if workload.command == "compare":
        spec = SweepSpec(base, "scheme", SCHEMES, runs=runs)
        rows = compare_schemes(spec, timing=TimingConfig(**workload.timing))
    else:
        spec = SweepSpec(base, "num_clusters", workload.clusters, runs=runs)
        rows = sweep_full_set_rate(spec)
    return rows_to_csv(rows)


def pin_path(name: str, seed: int) -> Path:
    return PINS / f"{name}.seed{seed}.csv"


def load_pin(name: str, seed: int) -> str | None:
    """The pinned CSV of a workload at a seed, or None when that seed has no pin."""
    path = pin_path(name, seed)
    return path.read_text(encoding="utf-8") if path.is_file() else None


def failed_runs(csv_text: str, expected: str, runs_per_row: int) -> int:
    """Runs in CSV rows that differ from the expected text.

    A header or row-count mismatch fails every expected row.
    """
    got, want = csv_text.splitlines(), expected.splitlines()
    rows = len(want) - 1
    if len(got) != len(want) or got[0] != want[0]:
        return rows * runs_per_row
    return runs_per_row * sum(g != w for g, w in zip(got[1:], want[1:]))

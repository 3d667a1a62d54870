"""Cluster-based cooperative packet recovery for UAV swarms.

A fleet that receives a common packet set over a lossy broadcast link can
repair itself peer-to-peer: UAVs are grouped so that cluster mates hold
complementary packets, and a priority backoff lets the neediest requester and
the best-stocked replier win the channel first. This package provides the
clustering, the contention-window model, a deterministic contention-round
simulator of the exchange, and a Monte-Carlo experiment harness.

The names below are the library's public surface; everything else, such as
the clustering stages, the backoff draws and the stake-draw rule, is
imported from its own module. The command line (``uavex.cli``) is not imported
with the package; ``experiments.cli_main`` loads it on its first call.
"""

from .clustering import InfeasibleClusterCount, cluster_network
from .core import IndicatorVector, ScenarioConfig, Scheme, packet_label, stream
from .experiments import (
    SweepSpec,
    compare_schemes,
    full_set_rate_samples,
    rows_to_csv,
    sweep_full_set_rate,
)
from .mac import TimingConfig
from .protocol import trace_line
from .simulator import run_cluster_exchange, run_scenario, sample_initial_receipts

__version__ = "0.1.0"

__all__ = [
    "IndicatorVector",
    "InfeasibleClusterCount",
    "ScenarioConfig",
    "Scheme",
    "SweepSpec",
    "TimingConfig",
    "cluster_network",
    "compare_schemes",
    "full_set_rate_samples",
    "packet_label",
    "rows_to_csv",
    "run_cluster_exchange",
    "run_scenario",
    "sample_initial_receipts",
    "stream",
    "sweep_full_set_rate",
    "trace_line",
]

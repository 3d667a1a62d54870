"""Cluster-based cooperative packet recovery for UAV swarms.

A fleet that receives a common packet set over a lossy broadcast link can
repair itself peer-to-peer: UAVs are grouped so that cluster mates hold
complementary packets, and a priority backoff lets the neediest requester and
the best-stocked replier win the channel first. This package provides the
clustering, the contention-window model, a deterministic contention-round
simulator of the exchange, and a Monte-Carlo experiment harness.
"""

from .clustering import (
    ClusterAssignment,
    InfeasibleClusterCount,
    cluster_network,
    hamming_distance,
    initialize_clusters,
    merge_iteration,
)
from .core import (
    IndicatorVector,
    RunStreams,
    ScenarioConfig,
    Scheme,
    packet_label,
    stream,
)
from .experiments import (
    AggregateRow,
    SweepSpec,
    compare_schemes,
    full_set_rate_samples,
    rows_to_csv,
    scheme_metric_samples,
    sweep_full_set_rate,
)
from .mac import (
    FrameKind,
    TimingConfig,
    draw_backoff,
    draw_baseline_backoff,
    frame_duration,
    subwindow_bounds,
    subwindow_for_count,
)
from .protocol import (
    Frame,
    TraceRecord,
    UavProtocolState,
    absorb_reply,
    build_reply,
    build_request,
    draw_requests,
    mark_unobtainable,
    open_transaction,
    redraw_colliders,
    trace_line,
)
from .simulator import (
    ClusterResult,
    RunResult,
    run_cluster_exchange,
    run_scenario,
    sample_initial_receipts,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "ClusterAssignment",
    "ClusterResult",
    "Frame",
    "FrameKind",
    "IndicatorVector",
    "InfeasibleClusterCount",
    "RunResult",
    "RunStreams",
    "ScenarioConfig",
    "Scheme",
    "SweepSpec",
    "TimingConfig",
    "TraceRecord",
    "UavProtocolState",
    "absorb_reply",
    "build_reply",
    "build_request",
    "cluster_network",
    "compare_schemes",
    "draw_backoff",
    "draw_baseline_backoff",
    "draw_requests",
    "frame_duration",
    "full_set_rate_samples",
    "hamming_distance",
    "initialize_clusters",
    "mark_unobtainable",
    "merge_iteration",
    "open_transaction",
    "packet_label",
    "redraw_colliders",
    "rows_to_csv",
    "run_cluster_exchange",
    "run_scenario",
    "sample_initial_receipts",
    "scheme_metric_samples",
    "stream",
    "subwindow_bounds",
    "subwindow_for_count",
    "sweep_full_set_rate",
    "trace_line",
]

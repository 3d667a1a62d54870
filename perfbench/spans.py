"""Boundary spans for the traced run.

The traced run rebinds, from outside the package, the names one uavex module
calls in another, so that every call across a module boundary opens a span.
Spans nest; a layer's self time is its spans' duration minus the part their
child spans cover. Spans are aggregated per layer as they close rather than
stored one by one, which keeps a pass of tens of thousands of calls small.

Layer keys are ``stream``, ``receipts``, ``clustering``, ``scenario``,
``engine.<scheme>``, ``protocol.<scheme>``, ``mac.<scheme>`` and ``harness``
(the root span: the experiments module's own loop, aggregation and CSV).
Protocol and mac calls take the scheme of the engine span they run in.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from math import comb

from workloads import SCHEMES

# (module, name, layer) for each call site between modules that gets a span.
# The protocol functions are found at install time: every function the
# simulator module imports from the protocol module.
SITES = (
    ("uavex.core", "stream", "stream"),
    ("uavex.experiments", "sample_initial_receipts", "receipts"),
    ("uavex.simulator", "sample_initial_receipts", "receipts"),
    ("uavex.experiments", "cluster_network", "clustering"),
    ("uavex.simulator", "cluster_network", "clustering"),
    ("uavex.experiments", "run_scenario", "scenario"),
    ("uavex.simulator", "run_cluster_exchange", "engine"),
    ("uavex.protocol", "draw_backoff", "mac"),
    ("uavex.protocol", "draw_baseline_backoff", "mac"),
    ("uavex.simulator", "frame_duration", "mac"),
)
MAC_DRAWS = ("draw_backoff", "draw_baseline_backoff")

# Trace record events that end one contention round.
_CLEAN_EVENTS = ("request", "reply")
_ROUND_EVENTS = ("request", "reply", "collision", "unobtainable")


def distance_evals(num_uavs: int, num_clusters: int) -> int:
    """Hamming distances ``cluster_network`` evaluates for (U, N), in closed form.

    Each seed-pair extraction compares every pair of the pool, C(p, 2); an odd
    N extracts one pair more than it keeps. Each merge pick then compares every
    open cluster with every pool UAV, and a pick closes one of each.
    """
    if num_clusters == 1:
        return 0
    need = num_clusters + num_clusters % 2
    evals = sum(comb(num_uavs - 2 * i, 2) for i in range(need // 2))
    pool = num_uavs - num_clusters
    while pool:
        picks = min(num_clusters, pool)
        evals += sum((num_clusters - j) * (pool - j) for j in range(picks))
        pool -= picks
    return evals


def _sites():
    """Resolve SITES plus the simulator's protocol imports to (module, name, layer)."""
    sites = list(SITES)
    sim = importlib.import_module("uavex.simulator")
    proto_names = sorted(
        name for name, value in vars(sim).items()
        if inspect.isfunction(value) and value.__module__ == "uavex.protocol"
    )
    sites += [("uavex.simulator", name, "protocol") for name in proto_names]
    return sites, bool(proto_names)


class Spans:
    """Per-layer self time, call counts and engine counts for traced passes.

    Use as a context manager around one pass; the wrappers are removed on exit.
    ``missing`` lists the layers with a wrapped name that no longer exists;
    their metrics are reported as absent.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        self._stack: list[float] = []   # child time of each open span
        self._schemes: list[str] = []   # scheme of each open engine span
        self._saved: list[tuple[object, str, object]] = []

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> Spans:
        sites, found_protocol = _sites()
        if not found_protocol:
            self.missing.add("protocol")
        for module_name, name, layer in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                self.missing.add(layer)
                continue
            if layer == "engine":
                wrapper = self._engine(original)
            elif layer == "clustering":
                wrapper = self._timed(original, lambda: "clustering", self._note_clustering(original))
            elif layer in ("protocol", "mac"):
                note = self._note_draw if name in MAC_DRAWS else None
                wrapper = self._timed(original, self._in_scheme(layer + "."), note)
            else:
                wrapper = self._timed(original, lambda layer=layer: layer)
            self._saved.append((module, name, original))
            setattr(module, name, wrapper)
        self._stack.append(0.0)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        self.self_s["harness"] += elapsed - self._stack.pop()
        self.calls["harness"] += 1
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _in_scheme(self, prefix: str):
        schemes = self._schemes
        return lambda: prefix + (schemes[-1] if schemes else "none")

    def _close(self, key: str, elapsed: float) -> None:
        self.self_s[key] += elapsed - self._stack.pop()
        self.total_s[key] += elapsed
        self.calls[key] += 1
        self._stack[-1] += elapsed

    def _untimed(self, note, *args) -> None:
        # Bookkeeping after a span closes is hidden from the parent's self time.
        t0 = time.perf_counter()
        note(*args)
        self._stack[-1] += time.perf_counter() - t0

    def _timed(self, fn, key_of, note=None):
        stack, perf = self._stack, time.perf_counter

        def timed(*args, **kwargs):
            key = key_of()
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key, perf() - t0)
                if note is not None:
                    self._untimed(note, key, args, kwargs)

        return timed

    def _note_draw(self, key, args, kwargs) -> None:
        self.counts[key + ".draws"] += 1

    def _note_clustering(self, fn):
        signature = inspect.signature(fn)

        def note(key, args, kwargs) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            self.counts["clustering.distance_evals"] += distance_evals(
                len(bound["vectors"]), bound["num_clusters"]
            )

        return note

    def _engine(self, fn):
        """Span around one cluster exchange, counting rounds from its trace records.

        A caller that passes no trace list gets one supplied here, so the
        records exist to be counted; the caller's own list is left as it was
        filled.
        """
        signature = inspect.signature(fn)
        stack, schemes, perf = self._stack, self._schemes, time.perf_counter

        def timed(*args, **kwargs):
            t_in = perf()
            bound = signature.bind(*args, **kwargs)
            scheme = getattr(bound.arguments["scheme"], "value", bound.arguments["scheme"])
            records = bound.arguments.get("trace")
            if records is None:
                records = bound.arguments["trace"] = []
            first = len(records)
            key = "engine." + scheme
            schemes.append(scheme)
            stack[-1] += perf() - t_in  # binding is tracer overhead, not the caller's work
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(key, perf() - t0)
                schemes.pop()
            self._untimed(self._note_engine, key, records[first:], result)
            return result

        return timed

    def _note_engine(self, key, records, result) -> None:
        events = Counter(rec.event for rec in records)
        self.counts[key + ".rounds"] += sum(events[e] for e in _ROUND_EVENTS)
        self.counts[key + ".clean"] += sum(events[e] for e in _CLEAN_EVENTS)
        self.counts[key + ".collisions"] += events["collision"]
        self.counts[key + ".timeouts"] += events["unobtainable"]
        self.counts[key + ".sim_us"] += result.delay_us


class CountDistances:
    """Counts calls of ``clustering.hamming_distance`` while installed.

    ``available`` is False once that function no longer exists, and the
    closed-form check is then skipped.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._module = importlib.import_module("uavex.clustering")
        self._original = getattr(self._module, "hamming_distance", None)
        self.available = self._original is not None

    def __enter__(self) -> CountDistances:
        if self.available:
            original = self._original

            def counted(*args, **kwargs):
                self.calls += 1
                return original(*args, **kwargs)

            self._module.hamming_distance = counted
        return self

    def __exit__(self, *exc) -> None:
        if self.available:
            self._module.hamming_distance = self._original


def repeat_signature(spans: Spans) -> tuple:
    """Every count of a traced pass; identical inputs must give identical signatures."""
    return tuple(sorted(spans.calls.items())) + tuple(sorted(spans.counts.items()))


def layer_metrics(passes: list[Spans]) -> dict[str, float]:
    """Per-layer metrics of repeated traced passes: median times, exact counts.

    Layers that are never entered on a workload report zero. Layers in
    ``missing`` are left out.
    """
    first = passes[0]
    calls, counts = first.calls, first.counts

    def ms(key: str, table: str = "self_s") -> float:
        return statistics.median(getattr(p, table)[key] for p in passes) * 1e3

    metrics: dict[str, float] = {}
    for layer in ("stream", "receipts", "clustering"):
        metrics[layer + ".calls"] = calls[layer]
        metrics[layer + ".self_ms"] = ms(layer)
    evals = counts["clustering.distance_evals"]
    metrics["clustering.distance_evals"] = evals
    metrics["clustering.ns_per_distance"] = ms("clustering") * 1e6 / evals if evals else 0.0
    metrics["scenario.self_ms"] = ms("scenario")
    for scheme in SCHEMES:
        engine = "engine." + scheme
        rounds = counts[engine + ".rounds"]
        metrics[engine + ".calls"] = calls[engine]
        metrics[engine + ".rounds"] = rounds
        metrics[engine + ".collisions"] = counts[engine + ".collisions"]
        metrics[engine + ".timeouts"] = counts[engine + ".timeouts"]
        metrics[engine + ".clean_ratio"] = counts[engine + ".clean"] / rounds if rounds else 0.0
        metrics[engine + ".self_ms"] = ms(engine)
        metrics[engine + ".us_per_round"] = ms(engine, "total_s") * 1e3 / rounds if rounds else 0.0
        metrics[engine + ".sim_us"] = counts[engine + ".sim_us"]
        metrics[f"protocol.{scheme}.calls"] = calls["protocol." + scheme]
        metrics[f"protocol.{scheme}.self_ms"] = ms("protocol." + scheme)
        metrics[f"mac.{scheme}.draws"] = counts[f"mac.{scheme}.draws"]
        metrics[f"mac.{scheme}.self_ms"] = ms("mac." + scheme)
    metrics["harness.self_ms"] = ms("harness")
    return {
        name: value for name, value in metrics.items()
        if name.split(".", 1)[0] not in first.missing
    }

"""Every metric the benchmark prints: name, unit, direction and bound.

``BENCHMARK.json`` at the repository root declares the same lists; the
tests check that the two agree and that every name is valid and used
once.  The arrow in each per-layer comment names the end-to-end metric
(and workload) a change to that layer should move.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@dataclass(frozen=True)
class Metric:
    """One printed metric."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression (``None``: per-layer).
    bound: float | None = None


END_TO_END = (
    # All workloads.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("ops_ok_frac", "ratio", "higher", 0.05),
    # Throughput and map quality; primary on offline_map.
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("map_err_mm", "mm", "lower", 0.05),
    Metric("map_points", "count", "higher", 0.1),
    # Staleness of the map; primary on live_stream.
    Metric("event_to_map_p50_ms", "ms", "lower", 0.25),
    Metric("event_to_map_p90_ms", "ms", "lower", 0.25),
    # Request service; primary on serve_windows.
    Metric("jobs_per_s", "1/s", "higher", 0.25),
    Metric("job_p50_ms", "ms", "lower", 0.25),
    Metric("job_p90_ms", "ms", "lower", 0.25),
)

PER_LAYER = (
    # -> setup_s, all workloads.
    Metric("events.simulate_s", "s", "lower"),
    Metric("events.render_s", "s", "lower"),
    Metric("events.render_calls", "count", "lower"),
    # -> events_per_s on offline_map (hot stage), event_to_map_* on live_stream (D).
    *(Metric(f"core.engine.stage_{s}_s", "s", "lower") for s in ("A", "P_Z0", "P_Zi_R", "D", "M")),
    Metric("core.engine.hot_stage_s", "s", "lower"),
    Metric("core.detection.detect_s", "s", "lower"),
    Metric("core.detection.detect_calls", "count", "lower"),
    Metric("native.kernel_s", "s", "lower"),
    Metric("native.kernel_calls", "count", "lower"),
    # -> events_per_s on offline_map, job_p50_ms on serve_windows.
    Metric("core.mapping.plan_s", "s", "lower"),
    Metric("core.mapping.run_segment_s", "s", "lower"),
    Metric("core.mapping.run_segment_calls", "count", "lower"),
    Metric("core.mapping.merge_s", "s", "lower"),
    Metric("core.mapping.fuse_s", "s", "lower"),
    Metric("core.mapping.voxels", "count", "higher"),
    # -> job_p50_ms / job_p90_ms on serve_windows.
    Metric("serve.service.submit_s", "s", "lower"),
    Metric("serve.service.queue_wait_s", "s", "lower"),
    Metric("serve.service.segments_dispatched", "count", "lower"),
    # -> job_p50_ms on serve_windows (0 on the other workloads).
    Metric("serve.cache.segment_hit_ratio", "ratio", "higher"),
    Metric("serve.cache.get_s", "s", "lower"),
    Metric("serve.cache.put_s", "s", "lower"),
    # -> jobs_per_s / job_p50_ms on serve_windows.
    Metric("serve.gateway.submit_s", "s", "lower"),
    Metric("serve.gateway.polls_per_job", "count", "lower"),
    Metric("serve.gateway.refusals", "count", "lower"),
    # -> event_to_map_* on live_stream.
    Metric("serve.stream.feed_s", "s", "lower"),
    Metric("serve.stream.poll_updates_s", "s", "lower"),
    Metric("serve.stream.updates", "count", "higher"),
    Metric("loadgen.late_max_ms", "ms", "lower"),
    # The trace itself, every workload.
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.untraced_wall_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.unattributed_frac", "ratio", "lower"),
)


def problems(metrics) -> list[str]:
    """Invalid names or units and repeated names in a metric list."""
    found, seen = [], set()
    for metric in metrics:
        if not NAME_RE.fullmatch(metric.name):
            found.append(f"invalid metric name {metric.name!r}")
        if not UNIT_RE.fullmatch(metric.unit):
            found.append(f"invalid unit {metric.unit!r} of {metric.name}")
        if metric.better not in ("higher", "lower"):
            found.append(f"{metric.name}: better must be 'higher' or 'lower'")
        if metric.name in seen:
            found.append(f"metric name {metric.name!r} used twice")
        seen.add(metric.name)
    return found


def render(values: dict[str, float], metrics) -> dict[str, dict]:
    """The ``metrics`` object of the result line, in catalog order.

    Raises when ``values`` names a metric outside ``metrics`` or misses one.
    """
    names = [metric.name for metric in metrics]
    extra, missing = set(values) - set(names), set(names) - set(values)
    if extra or missing:
        raise ValueError(f"metric set mismatch: extra {sorted(extra)}, missing {sorted(missing)}")
    return {
        metric.name: {"value": float(values[metric.name]), "unit": metric.unit}
        for metric in metrics
    }

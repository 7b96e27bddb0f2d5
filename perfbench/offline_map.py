"""``offline_map``: the paper's workload, batch jobs in a closed loop.

One client maps one long slider sweep (the ``slider_long`` shape: about
2.5M events, 7 key frames at 0.15 x depth, 100 depth planes) through a
1-worker ``MappingOrchestrator``, and starts the next job when the
previous one returns.  The hot stage (``P_Z0`` + ``P_Zi_R``) is about 55%
of stage time and detection about 35%.  No service, gateway or cache is
involved, so a change to the serving layer should leave this workload
unchanged.

One worker, so a job keeps one core busy: the orchestrator then runs the
segments in order in this process, without a pool.  With two process
workers on a host of two shared cores, the job wall moved between about
1.1 and 2.5 s from one run of the same code to the next, and a second
busy program beside the benchmark made jobs 43% slower (one worker: 9%).

A job's events are all there when it is submitted, so its latency is
both its ``job_*`` and its ``event_to_map_*`` sample.  A run holds only
a handful of jobs, too few to support a p90 (see README.md); the
workload is here for ``events_per_s`` and the map metrics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.inputs import BACKEND, SLIDER_DEPTH, slider_sweep
from perfbench.trace import JOB, NO_TRACE
from repro.core import MappingOrchestrator

HALF_SPAN = 0.45
DURATION = 3.2
DEPTH_PLANES = 100
KEYFRAME_DISTANCE = 0.15 * SLIDER_DEPTH
WORKERS = 1


@dataclass
class Pass:
    """One measured pass: a wall time and a result summary per job."""

    walls: list[float] = field(default_factory=list)
    clouds: list[np.ndarray] = field(default_factory=list)
    counters: list[dict] = field(default_factory=list)
    complete: list[bool] = field(default_factory=list)
    first: object = None


class OfflineMap:
    """Set-up (simulate, build the orchestrator, warm up) and measurement."""

    def __init__(self, seed: int):
        self.sweep = slider_sweep(seed, HALF_SPAN, DURATION)
        spec = self.sweep.spec(DEPTH_PLANES, KEYFRAME_DISTANCE)
        self.orchestrator = MappingOrchestrator(
            spec.camera,
            spec.trajectory,
            spec.config,
            depth_range=spec.depth_range,
            backend=BACKEND,
            workers=WORKERS,
        )
        # A quarter of the sweep spans two segments: every kernel runs
        # once before anything is timed.
        self.orchestrator.run(self.sweep.events[: len(self.sweep.events) // 4])

    def measure(self, seconds: float, trace=NO_TRACE) -> Pass:
        """Run whole-sweep jobs back to back until ``seconds`` have passed."""
        run = Pass()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            with trace.span(JOB):
                result = self.orchestrator.run(self.sweep.events)
            run.walls.append(time.perf_counter() - t0)
            run.clouds.append(result.cloud.points)
            run.counters.append(result.profile.counters())
            run.complete.append(result.complete and len(result.cloud) > 0)
            if run.first is None:
                run.first = result
        return run

    def check(self, run: Pass) -> list[str]:
        """Every fused map is non-empty and identical to the first one."""
        problems = []
        if not all(run.complete):
            problems.append("offline_map: a job returned an incomplete or empty map")
        for i, (cloud, counters) in enumerate(zip(run.clouds, run.counters)):
            if not np.array_equal(cloud, run.clouds[0]) or counters != run.counters[0]:
                problems.append(f"offline_map: job {i} differs from job 0")
        return problems

    def end_to_end(self, run: Pass) -> tuple[dict, int, int]:
        """End-to-end values, jobs attempted, jobs failed."""
        # One client, one job at a time: its rates are those of the
        # median job, which a slow outlier job on a shared host moves less
        # than it moves the mean.
        wall = statistics.median(run.walls)
        p90 = 1000.0 * np.percentile(run.walls, 90)
        ok = sum(run.complete)
        values = {
            "ops_ok_frac": ok / len(run.walls),
            "events_per_s": len(self.sweep.events) / wall,
            "map_err_mm": self.sweep.map_error_mm(run.first.cloud),
            "map_points": len(run.first.cloud),
            "event_to_map_p50_ms": 1000.0 * wall,
            "event_to_map_p90_ms": p90,
            "jobs_per_s": 1.0 / wall,
            "job_p50_ms": 1000.0 * wall,
            "job_p90_ms": p90,
        }
        return values, len(run.walls), len(run.walls) - ok

    def samples(self, run: Pass) -> dict[str, int]:
        """Sample count behind each percentile metric."""
        return {"job": len(run.walls), "event_to_map": len(run.walls)}

    def units(self, run: Pass) -> int:
        """Units of client work (jobs) the per-layer numbers are divided by."""
        return len(run.walls)

    def unit_wall(self, run: Pass) -> float:
        """Mean wall time of one job."""
        return sum(run.walls) / len(run.walls)

    def layers(self, run: Pass, totals: dict) -> dict:
        """Workload-specific per-layer values, per job."""
        return {"core.mapping.voxels": run.first.global_map.n_voxels}

    def close(self) -> None:
        """Nothing outlives a job: one worker runs without a pool."""

"""``live_stream``: an open-loop replay into a streaming session.

A seeded sweep of the ``slider_long`` shape is cut into chunks of equal
event time and fed into ``ReconstructionService.open_stream`` (1 process
worker) at a fixed 10 chunks per second, whatever the service does;
the whole sweep plays over the run's ``--seconds``, about 0.2x real
time, which the host sustains with headroom.  Key frames are 3 cm apart,
several times denser than in ``offline_map``, which makes detection the
largest stage.  Only this workload runs ``StreamSegmentPlanner``, the
emit cursor and incremental fusion.

``event_to_map_*`` times each chunk from its due time to the first poll
that returns the update of the segment holding its last event;
``job_*`` times the same from the moment ``feed`` was called, so the two
differ by how late the generator ran.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import stats
from perfbench.inputs import slider_sweep
from perfbench.loadgen import Replay, replay
from perfbench.trace import JOB, NO_TRACE
from repro.core import MappingOrchestrator
from repro.serve import CacheConfig, ReconstructionService
from repro.serve.service import StreamBacklogFull
from repro.serve.session import JobState

HALF_SPAN = 0.45
DURATION = 3.2
DEPTH_PLANES = 100
KEYFRAME_DISTANCE = 0.03
WORKERS = 1
#: Chunks fed per second of wall time.
CHUNK_RATE = 10


@dataclass
class Pass:
    """One replay and the chunk layout it fed."""

    replay: Replay
    bounds: np.ndarray
    state: JobState
    chunks_dropped: int
    session: str


class LiveStream:
    """Set-up (simulate, start the service pool, warm up) and measurement."""

    def __init__(self, seed: int):
        self.sweep = slider_sweep(seed, HALF_SPAN, DURATION)
        self.spec = self.sweep.spec(DEPTH_PLANES, KEYFRAME_DISTANCE)
        self.service = ReconstructionService(
            workers=WORKERS,
            executor="process",
            cache=CacheConfig(job_entries=0, mem_mb=0, disk_mb=0, cache_dir=""),
        )
        # An eighth of the sweep is several segments: the pool worker
        # forks and runs the kernels before anything is timed.
        events = self.sweep.events
        self.service.result(
            self.service.submit(events[: len(events) // 8], self.spec, session="warmup")
        )
        self._streams = 0
        self._plans = None
        self._reference = None

    def _chunk_bounds(self, n_chunks: int) -> np.ndarray:
        """Event index bounds of ``n_chunks`` chunks of equal event time."""
        traj = self.sweep.trajectory
        edges = np.linspace(traj.t_start, traj.t_end, n_chunks + 1)
        bounds = np.searchsorted(self.sweep.events.t, edges, side="left")
        bounds[-1] = len(self.sweep.events)
        return bounds

    def measure(self, seconds: float, trace=NO_TRACE) -> Pass:
        """Play the whole sweep over ``seconds`` into a fresh stream."""
        n_chunks = max(1, round(seconds * CHUNK_RATE))
        bounds = self._chunk_bounds(n_chunks)
        events = self.sweep.events
        chunks = [events[bounds[i] : bounds[i + 1]] for i in range(n_chunks)]
        self._streams += 1
        session = f"live-{self._streams}"
        stream = self.service.open_stream(self.spec, session=session)
        with trace.span(JOB):
            record = replay(
                stream,
                chunks,
                1.0 / CHUNK_RATE,
                time.perf_counter,
                time.sleep,
                trace,
                refusals=(StreamBacklogFull,),
            )
        return Pass(record, bounds, stream.status().state, stream.chunks_dropped, session)

    def _segments(self):
        """The stream's segment plan (the incremental planner cuts the same)."""
        if self._plans is None:
            self._plans, _ = self.spec.plan(self.sweep.events)
        return self._plans

    def _latencies(self, run: Pass) -> tuple[list[float], list[float], int]:
        """(due-time latencies, feed-time latencies, chunks mapped)."""
        ends = [plan.end_event for plan in self._segments()]
        segment = stats.chunk_segments([int(b) - 1 for b in run.bounds[1:]], ends)
        rec = run.replay
        mapped = [i for i, s in enumerate(segment) if s in rec.seen and i not in rec.refused]
        segment = [segment[i] for i in mapped]
        due = stats.latencies([rec.due[i] for i in mapped], segment, rec.seen)
        fed = stats.latencies([rec.fed[i] for i in mapped], segment, rec.seen)
        return due, fed, len(mapped)

    def check(self, run: Pass) -> list[str]:
        """The closed stream is DONE and bit-identical to a one-shot run."""
        problems = []
        rec = run.replay
        if rec.refused or run.chunks_dropped:
            problems.append(
                f"live_stream: {len(rec.refused)} chunks refused, "
                f"{run.chunks_dropped} dropped"
            )
        if run.state is not JobState.DONE:
            problems.append(f"live_stream: stream ended {run.state.value}")
        if rec.updates != len(rec.result.keyframes):
            problems.append(
                f"live_stream: {rec.updates} updates for "
                f"{len(rec.result.keyframes)} key frames"
            )
        if self._reference is None:
            # Off the clock, on every core: the fused map is the same for
            # any worker count, and the check ends sooner.
            spec = self.spec
            self._reference = MappingOrchestrator(
                spec.camera,
                spec.trajectory,
                spec.config,
                depth_range=spec.depth_range,
                backend=spec.backend,
            ).run(self.sweep.events)
        ref = self._reference
        if not (
            np.array_equal(rec.result.cloud.points, ref.cloud.points)
            and rec.result.profile.counters() == ref.profile.counters()
            and len(rec.result.keyframes) == len(ref.keyframes)
        ):
            problems.append("live_stream: stream result differs from a one-shot run")
        return problems

    def end_to_end(self, run: Pass) -> tuple[dict, int, int]:
        """End-to-end values, chunks attempted, chunks not mapped."""
        rec = run.replay
        due, fed, mapped = self._latencies(run)
        wall = rec.end - rec.start
        attempted = len(rec.due)
        values = {
            "ops_ok_frac": mapped / attempted,
            "events_per_s": int(run.bounds[-1] - run.bounds[0]) / wall,
            "map_err_mm": self.sweep.map_error_mm(rec.result.cloud),
            "map_points": len(rec.result.cloud),
            "event_to_map_p50_ms": 1000.0 * statistics.median(due),
            "event_to_map_p90_ms": 1000.0 * np.percentile(due, 90),
            "jobs_per_s": mapped / wall,
            "job_p50_ms": 1000.0 * statistics.median(fed),
            "job_p90_ms": 1000.0 * np.percentile(fed, 90),
        }
        return values, attempted, attempted - mapped

    def samples(self, run: Pass) -> dict[str, int]:
        """Sample count behind each percentile metric."""
        mapped = self._latencies(run)[2]
        return {"job": mapped, "event_to_map": mapped}

    def units(self, run: Pass) -> int:
        """The per-layer numbers are per stream: one replay."""
        return 1

    def unit_wall(self, run: Pass) -> float:
        """Replay wall: first chunk period to the final result in hand."""
        return run.replay.end - run.replay.start

    def layers(self, run: Pass, totals: dict) -> dict:
        """Workload-specific per-layer values for the stream."""
        rec = run.replay
        plans = self._segments()
        # A segment is cut once the chunk holding the next segment's
        # first event is fed (the last one at close); its queue wait is
        # the time to its update beyond the compute it took.
        fed_bounds = [int(b) for b in run.bounds[1:]]
        waited = 0.0
        for plan in plans:
            chunk = bisect.bisect_right(fed_bounds, plan.end_event)
            cut = rec.fed[min(chunk, len(rec.fed) - 1)]
            waited += rec.seen.get(plan.index, cut) - cut
        dispatched = self.service.stats().segments_dispatched.get(run.session, 0)
        return {
            "core.mapping.voxels": rec.result.global_map.n_voxels,
            "serve.service.queue_wait_s": waited - totals["core.mapping.run_segment"][0],
            "serve.service.segments_dispatched": dispatched,
            "serve.stream.updates": rec.updates,
            "loadgen.late_max_ms": 1000.0 * max(rec.late),
        }

    def close(self) -> None:
        """Shut the service and join its pool workers."""
        self.service.shutdown(wait=True)

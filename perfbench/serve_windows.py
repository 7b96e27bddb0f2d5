"""``serve_windows``: two tenants submitting sliding windows through a gateway.

Each tenant runs one client coroutine (all on one asyncio loop) in a
closed loop: it submits a window of two key-frame segments through a
2-shard ``Gateway``, awaits the result, and submits the next window, one
segment further on (50% overlap).  Windows are cut on segment
boundaries, so the shared segment repeats bit-exactly and is served by
the segment cache's memory tier.  Each shard has 1 inline worker, the
memory tier on, the disk tier and the job cache off.  Inline, both
shards compute on their threads of this one process, which keeps the
workload to about 1.5 busy cores of the host's two: with a process
worker per shard it needed about 2.3, and a second program running
beside it cut its jobs/s by 44% (inline: 24%).

Jobs are short, so per-job fixed costs are a large share of their
latency: gateway admission and its 2 ms poll loop, service planning and
scheduling, cache digest/probe/put, merge and fuse.  The windows run over
blocks of 8 consecutive segments, 7 windows a block: the first window of
a block computes both its segments (the client moved on to a new part of
the sweep), every later one finds its first segment in the cache, so 6
of a block's 14 segment lookups hit (0.43).  That makes 1 job in 7 a
cold one, about twice as slow, and puts the p90 among the cold jobs; with
1 cold job in 11 or 23 the p90 sat on the edge between the two kinds or
in the sparse tail of the warm ones, and moved by up to 27% between
identical runs.  Blocks share no segment, and each lap over the sweep
re-plans it one event frame later, so laps share none either: every
block repeats the same ratio, however large the cache.

Tenant names are chosen with ``Gateway.shard_index`` so each tenant owns
a shard; the obvious names ``tenant0``/``tenant1`` hash to the same
shard and would serialize the workload on one thread.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.inputs import slider_sweep
from perfbench.trace import JOB, NO_TRACE
from repro.core import MappingOrchestrator
from repro.serve import CacheConfig, JobFailed
from repro.serve.gateway import Gateway, GatewayRefused
from repro.serve.options import GatewayConfig, ServiceConfig

HALF_SPAN = 0.2
DURATION = 1.4
DEPTH_PLANES = 48
#: 24 segments over the sweep: three blocks.
KEYFRAME_DISTANCE = 2 * HALF_SPAN / 24
WINDOW_SEGMENTS = 2
#: Consecutive segments the windows slide over before moving on.
BLOCK_SEGMENTS = 8
TENANTS = 2
#: Pool width of each shard.
WORKERS = 1
#: Laps of windows prepared; the client starts over after the last one.
LAPS = 6
#: Segment memory tier, MiB: a few segments' outcomes, far fewer than a
#: lap holds, so starting over cannot hit the cache either.
CACHE_MB = 4.0
#: Finished job records (and their maps) a shard keeps.  The default 256
#: would make peak memory grow with the number of jobs a run completes.
RETAIN_JOBS = 16


@dataclass
class Pass:
    """One measured pass over both tenants."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    events: int = 0
    voxels: int = 0
    attempted: int = 0
    failed: int = 0
    refusals: int = 0
    #: (tenant, window) -> result of the window kept for the checks.
    kept: dict = field(default_factory=dict)
    #: Lap-0 window index -> result of tenant 0 (map metrics).
    lap0: dict = field(default_factory=dict)
    hits: int = 0
    lookups: int = 0
    dispatched: int = 0


class _ContextLoop(asyncio.SelectorEventLoop):
    """Event loop whose executor calls run in a copy of the caller's context.

    Used for the traced pass only: the gateway runs every service call
    on a shard thread, and the copied context lets those calls' spans
    nest under the gateway span that issued them.
    """

    def run_in_executor(self, executor, func, *args):
        return super().run_in_executor(
            executor, contextvars.copy_context().run, func, *args
        )


def _tenant_names(gateway: Gateway) -> list[str]:
    """The first ``tenant-<k>`` names that land on pairwise distinct shards."""
    names, shards = [], set()
    for k in itertools.count():
        name = f"tenant-{k}"
        shard = gateway.shard_index(name)
        if shard not in shards:
            names.append(name)
            shards.add(shard)
        if len(names) == TENANTS:
            return names


class ServeWindows:
    """Set-up (simulate, cut windows, start the gateway, warm up) and measurement."""

    def __init__(self, seed: int):
        self.sweep = slider_sweep(seed, HALF_SPAN, DURATION)
        self.spec = self.sweep.spec(DEPTH_PLANES, KEYFRAME_DISTANCE)
        frame = self.spec.config.frame_size
        # One lap per start offset; the last lap is only for warm-up.
        self.laps = [self._windows(lap * frame) for lap in range(LAPS + 1)]
        self.keep = {t: (seed + t) % len(self.laps[0]) for t in range(TENANTS)}
        service = ServiceConfig(
            workers=WORKERS,
            executor="inline",
            retain_jobs=RETAIN_JOBS,
            cache=CacheConfig(job_entries=0, mem_mb=CACHE_MB, disk_mb=0, cache_dir=""),
        )
        self.gateway = Gateway(GatewayConfig(shards=TENANTS, service=service))
        self.tenants = _tenant_names(self.gateway)
        asyncio.run(self._start())

    def _windows(self, offset: int) -> list:
        """Two-segment windows, one segment apart, over the blocks of the
        sweep planned from event ``offset``."""
        events = self.sweep.events[offset:]
        plans, _ = self.spec.plan(events)
        bounds = [plan.start_event for plan in plans] + [plans[-1].end_event]
        return [
            events[bounds[lo] : bounds[lo + WINDOW_SEGMENTS]]
            for block in range(0, len(plans) - BLOCK_SEGMENTS + 1, BLOCK_SEGMENTS)
            for lo in range(block, block + BLOCK_SEGMENTS - WINDOW_SEGMENTS + 1)
        ]

    async def _start(self) -> None:
        await self.gateway.start()
        warmup = self.laps[-1]
        for k, tenant in enumerate(self.tenants):
            job = await self.gateway.submit(warmup[k], self.spec, session=tenant)
            await self.gateway.result(job)

    async def _cache_totals(self) -> tuple[int, int, int]:
        """(segment hits, segment lookups, segments dispatched) over all shards."""
        hits = lookups = dispatched = 0
        for snapshot in (await self.gateway.stats()).values():
            hits += snapshot.cache.segment_hits
            lookups += snapshot.cache.segment_hits + snapshot.cache.segment_misses
            dispatched += sum(snapshot.segments_dispatched.values())
        return hits, lookups, dispatched

    async def _tenant(self, t: int, name: str, deadline: float, run: Pass, trace) -> None:
        schedule = [
            (lap, index, window)
            for lap, windows in enumerate(self.laps[:-1])
            for index, window in enumerate(windows)
        ]
        for step in itertools.count():
            if time.perf_counter() >= deadline:
                return
            lap, index, window = schedule[step % len(schedule)]
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                with trace.span(JOB):
                    job = await self.gateway.submit(window, self.spec, session=name)
                    result = await self.gateway.result(job)
            except GatewayRefused:
                run.refusals += 1
                run.failed += 1
                continue
            except JobFailed:
                run.failed += 1
                continue
            run.latencies.append(time.perf_counter() - t0)
            if not result.complete:
                run.failed += 1
            run.events += len(window)
            run.voxels += result.global_map.n_voxels
            if lap == 0:
                if index == self.keep[t]:
                    run.kept[t, index] = result
                if t == 0:
                    run.lap0[index] = result

    async def _measure(self, seconds: float, trace) -> Pass:
        run = Pass()
        hits, lookups, dispatched = await self._cache_totals()
        start = time.perf_counter()
        await asyncio.gather(
            *(
                self._tenant(t, name, start + seconds, run, trace)
                for t, name in enumerate(self.tenants)
            )
        )
        run.wall = time.perf_counter() - start
        after = await self._cache_totals()
        run.hits, run.lookups = after[0] - hits, after[1] - lookups
        run.dispatched = after[2] - dispatched
        return run

    def measure(self, seconds: float, trace=NO_TRACE) -> Pass:
        """Both tenants submit windows until ``seconds`` have passed."""
        if trace is NO_TRACE:
            return asyncio.run(self._measure(seconds, trace))
        with asyncio.Runner(loop_factory=_ContextLoop) as runner:
            return runner.run(self._measure(seconds, trace))

    def check(self, run: Pass) -> list[str]:
        """Every job DONE; one window per tenant equals a direct orchestrator run."""
        problems = []
        if run.failed:
            problems.append(f"serve_windows: {run.failed} of {run.attempted} jobs failed")
        spec = self.spec
        direct = MappingOrchestrator(
            spec.camera,
            spec.trajectory,
            spec.config,
            depth_range=spec.depth_range,
            backend=spec.backend,
            workers=1,
        )
        for t, index in self.keep.items():
            served = run.kept.get((t, index))
            if served is None:
                problems.append(f"serve_windows: tenant {t} never served window {index}")
                continue
            ref = direct.run(self.laps[0][index])
            if not (
                np.array_equal(served.cloud.points, ref.cloud.points)
                and served.profile.counters() == ref.profile.counters()
            ):
                problems.append(f"serve_windows: tenant {t} window {index} differs")
        return problems

    def end_to_end(self, run: Pass) -> tuple[dict, int, int]:
        """End-to-end values, jobs attempted, jobs failed."""
        done = len(run.latencies)
        p50 = 1000.0 * statistics.median(run.latencies)
        p90 = 1000.0 * np.percentile(run.latencies, 90)
        lap0 = list(run.lap0.values())
        values = {
            "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
            "events_per_s": run.events / run.wall,
            "map_err_mm": float(
                np.mean([self.sweep.map_error_mm(r.cloud) for r in lap0])
            ),
            "map_points": float(np.mean([len(r.cloud) for r in lap0])),
            "event_to_map_p50_ms": p50,
            "event_to_map_p90_ms": p90,
            "jobs_per_s": done / run.wall,
            "job_p50_ms": p50,
            "job_p90_ms": p90,
        }
        return values, run.attempted, run.failed

    def samples(self, run: Pass) -> dict[str, int]:
        """Sample count behind each percentile metric."""
        return {"job": len(run.latencies), "event_to_map": len(run.latencies)}

    def units(self, run: Pass) -> int:
        """Units of client work (window jobs) the per-layer numbers are divided by."""
        return len(run.latencies)

    def unit_wall(self, run: Pass) -> float:
        """Mean latency of one window job."""
        return sum(run.latencies) / len(run.latencies)

    def layers(self, run: Pass, totals: dict) -> dict:
        """Workload-specific per-layer values, per job."""
        jobs = len(run.latencies)
        compute = totals["core.mapping.run_segment"][0]
        return {
            "core.mapping.voxels": run.voxels / jobs,
            "serve.service.queue_wait_s": (sum(run.latencies) - compute) / jobs,
            "serve.service.segments_dispatched": run.dispatched / jobs,
            "serve.cache.segment_hit_ratio": run.hits / run.lookups if run.lookups else 0.0,
            "serve.gateway.polls_per_job": totals["serve.service.poll"][1] / jobs,
            "serve.gateway.refusals": run.refusals,
        }

    def close(self) -> None:
        """Stop the gateway: every shard shut down, every shard thread joined."""
        asyncio.run(self.gateway.stop())


"""Span tracing for the traced run, recorded from the benchmark's own files.

The traced run replaces public functions and methods of each layer of
``repro`` (module and class attributes, plus the native kernel object's
methods) with wrappers that open a span around the call, and puts the
originals back afterwards.  Nothing under ``src/`` knows about it.

Spans form a tree through a context variable, so they nest per thread
and per asyncio task; a layer calling itself (``fuse_keyframes`` ->
``GlobalMap.insert_keyframe``) is one span.  A span's *self* time is its
duration minus the part its children cover.  Every span of a pass hangs
under a ``bench.job`` span that the workload opens around one unit of
client work, so the self times of all spans add up to the traced wall,
and the ``bench.job`` self time is the unattributed remainder.

Process workers.  Segments of process-pool jobs run in forked workers:
the pools use the platform default start method, ``fork`` on Linux, and
inherit the wrappers installed before the pool forked.  A worker cannot
add spans to the parent's tree, so every wrapper also adds its seconds
and call count to a shared-memory array created before the fork; that
carries worker-side time (segments, detection, native kernels) back to
the parent.  The engine stages are read from the ``PipelineProfile`` each
executed segment returns, in the worker, into the same array.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import multiprocessing
import os
import time
from dataclasses import dataclass, field

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Engine stages every segment's ``PipelineProfile`` times.
STAGES = ("A", "P_Z0", "P_Zi_R", "D", "M")

#: The span that wraps one unit of client work (see module docstring).
JOB = "bench.job"

#: Every name the tracer accumulates totals for.
LAYERS = (
    "events.simulate",
    "events.render",
    "core.detection.detect",
    "native.kernel",
    "core.mapping.plan",
    "core.mapping.run_segment",
    "core.mapping.merge",
    "core.mapping.fuse",
    "serve.service.submit",
    "serve.service.poll",
    "serve.service.result",
    "serve.cache.get",
    "serve.cache.put",
    "serve.gateway.submit",
    "serve.gateway.result",
    "serve.stream.feed",
    "serve.stream.poll_updates",
    "serve.stream.close",
    "serve.stream.result",
    "loadgen.idle",
    JOB,
) + tuple(f"core.engine.stage_{stage}" for stage in STAGES)


@dataclass(eq=False)
class Span:
    """One timed call."""

    name: str
    start: float
    parent: "Span | None" = None
    end: float = 0.0
    #: ``(start, end)`` of the direct children recorded in this process.
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Duration."""
        return self.end - self.start

    def self_seconds(self) -> float:
        """Duration minus the time the children cover."""
        return self.seconds - covered(self.children, self.start, self.end)

    def root(self) -> "Span":
        """The outermost enclosing span."""
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children of one span overlap when it awaits several tasks at once,
    so their durations cannot simply be added.
    """
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class NoTrace:
    """The untraced stand-in: spans cost one ``nullcontext``."""

    def span(self, name: str):
        """A no-op context manager."""
        return contextlib.nullcontext()


NO_TRACE = NoTrace()


class Tracer:
    """Records spans in this process and per-layer totals across its workers.

    Create it, then :meth:`install`, *before* any pool the traced pass
    uses forks; :meth:`uninstall` restores every patched attribute.
    """

    def __init__(self):
        if multiprocessing.get_start_method() != "fork":
            # Workers started any other way would not inherit the wrappers
            # or the shared totals, and worker-side layers would read 0.
            raise RuntimeError(
                "the traced run needs the 'fork' start method for process "
                f"pools, this platform uses {multiprocessing.get_start_method()!r}"
            )
        self._slot = {name: i for i, name in enumerate(LAYERS)}
        self._totals = multiprocessing.get_context("fork").Array("d", 2 * len(LAYERS))
        self._pid = os.getpid()
        self.spans: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _begin(self, name: str):
        parent = _CURRENT.get()
        if parent is not None and parent.name == name:
            return None, None
        span = Span(name, time.perf_counter(), parent)
        return span, _CURRENT.set(span)

    def _end(self, span: Span | None, token) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.add(span.name, span.seconds)
        if os.getpid() == self._pid:
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span of layer ``name``."""
        span, token = self._begin(name)
        try:
            yield
        finally:
            self._end(span, token)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Add to a layer's totals (safe from forked workers)."""
        slot = 2 * self._slot[name]
        with self._totals.get_lock():
            self._totals[slot] += seconds
            self._totals[slot + 1] += calls

    def totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (seconds, calls), summed over this process and workers."""
        with self._totals.get_lock():
            flat = list(self._totals)
        return {
            name: (flat[2 * i], int(flat[2 * i + 1]))
            for name, i in self._slot.items()
        }

    def reset(self) -> None:
        """Forget every span and total (start of a new phase)."""
        with self._totals.get_lock():
            self._totals[:] = [0.0] * len(self._totals)
        self.spans.clear()

    def attribution(self) -> tuple[float, dict[str, float]]:
        """``(wall, self seconds per layer)`` of the spans under ``bench.job``.

        ``wall`` sums the ``bench.job`` durations; the per-layer self times
        add up to it, with ``bench.job`` itself as the unattributed rest.
        """
        wall, selfs = 0.0, {}
        for span in self.spans:
            if span.root().name != JOB:
                continue
            if span.name == JOB:
                wall += span.seconds
            selfs[span.name] = selfs.get(span.name, 0.0) + span.self_seconds()
        return wall, selfs

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str):
        """``fn`` timed as layer ``name`` (coroutine functions stay coroutines)."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = self._begin(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._end(span, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span, token)

        return traced

    def _wrap_segment(self, fn):
        """``run_segment_task`` timed, plus its profile's engine stages."""

        @functools.wraps(fn)
        def traced(task):
            span, token = self._begin("core.mapping.run_segment")
            try:
                outcome = fn(task)
            finally:
                self._end(span, token)
            for stage, seconds in outcome[2].stage_seconds.items():
                if stage in STAGES:
                    self.add(f"core.engine.stage_{stage}", seconds)
            return outcome

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module, class or instance attribute)."""
        self._set(owner, attr, self.wrap(getattr(owner, attr), name))

    def install(self) -> None:
        """Wrap every traced layer's entry points (see README.md)."""
        import repro.core.engine as engine
        import repro.core.mapping as mapping
        import repro.serve.faults as faults
        import repro.serve.service as service
        from repro.events.scenes import PlanarScene
        from repro.events.simulator import EventCameraSimulator
        from repro.native.provider import get_kernels
        from repro.serve.cache import SegmentCache
        from repro.serve.gateway import Gateway
        from repro.serve.stream import StreamingSession

        layers = [
            (EventCameraSimulator, "run", "events.simulate"),
            (PlanarScene, "render", "events.render"),
            (engine, "detect_structure", "core.detection.detect"),
            (mapping, "plan_segments", "core.mapping.plan"),
            (mapping, "segment_tasks", "core.mapping.plan"),
            (engine.EngineSpec, "plan", "core.mapping.plan"),
            (engine.StreamSegmentPlanner, "push", "core.mapping.plan"),
            (engine.StreamSegmentPlanner, "finish", "core.mapping.plan"),
            (mapping, "merge_outcomes", "core.mapping.merge"),
            (service, "merge_outcomes", "core.mapping.merge"),
            (mapping, "fuse_keyframes", "core.mapping.fuse"),
            (service, "fuse_keyframes", "core.mapping.fuse"),
            (mapping.GlobalMap, "insert_keyframe", "core.mapping.fuse"),
            (mapping.GlobalMap, "fused_cloud", "core.mapping.fuse"),
            (service.ReconstructionService, "submit", "serve.service.submit"),
            (service.ReconstructionService, "poll", "serve.service.poll"),
            (service.ReconstructionService, "result", "serve.service.result"),
            (SegmentCache, "get", "serve.cache.get"),
            (SegmentCache, "put", "serve.cache.put"),
            (Gateway, "submit", "serve.gateway.submit"),
            (Gateway, "result", "serve.gateway.result"),
            (StreamingSession, "feed", "serve.stream.feed"),
            (StreamingSession, "poll_updates", "serve.stream.poll_updates"),
            (StreamingSession, "close", "serve.stream.close"),
            (StreamingSession, "result", "serve.stream.result"),
        ]
        for owner, attr, name in layers:
            self.patch(owner, attr, name)
        kernels = get_kernels()
        for attr in ("phi_batch", "canonical_batch", "vote_nearest_batch", "vote_bilinear_batch"):
            self.patch(kernels, attr, "native.kernel")
        # The orchestrator pickles run_segment_task by its qualified name;
        # the wrapper keeps that name, and forked workers resolve it to
        # the wrapper they inherited.
        self._set(mapping, "run_segment_task", self._wrap_segment(mapping.run_segment_task))
        self._set(faults, "run_segment_task", self._wrap_segment(faults.run_segment_task))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

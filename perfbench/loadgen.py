"""Open-loop chunk replay: feed a stream on a fixed schedule, whatever it does.

The generator never waits for the system: chunk ``i`` is due at
``start + (i + 1) * period`` (a chunk of live input exists once its
last event has happened), and between due times the generator only
polls for map updates.  A slow ``feed`` or ``poll`` makes later chunks
late; the lateness is recorded, and latency is charged from the due
time (see :func:`perfbench.stats.latencies`).

Clock and sleep are injected so the schedule logic runs on a fake clock
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.trace import NO_TRACE

#: Longest sleep between update polls while waiting for a due time, seconds.
POLL_INTERVAL_S = 0.002


@dataclass
class Replay:
    """What one replay observed, on the injected clock."""

    #: Due time of each chunk.
    due: list[float] = field(default_factory=list)
    #: When ``feed`` was called for each chunk.
    fed: list[float] = field(default_factory=list)
    #: Segment index -> when the last update of that segment was first seen.
    seen: dict[int, float] = field(default_factory=dict)
    #: Indices of the chunks the stream refused.
    refused: list[int] = field(default_factory=list)
    #: Updates observed.
    updates: int = 0
    #: When the closed stream's final result was in hand.
    end: float = 0.0
    #: When the first chunk's period started.
    start: float = 0.0
    #: The closed stream's result.
    result: object = None

    @property
    def late(self) -> list[float]:
        """How late the generator fed each chunk, seconds (never negative)."""
        return [max(0.0, f - d) for f, d in zip(self.fed, self.due)]


def replay(
    stream, chunks, period: float, clock, sleep, trace=NO_TRACE, refusals=()
) -> Replay:
    """Feed ``chunks`` into ``stream`` every ``period`` seconds; return what was seen.

    ``stream`` is a :class:`repro.serve.StreamingSession`-shaped object
    (``feed``/``poll_updates``/``close``/``status``/``result``).  After
    the last chunk the stream is closed and polled until its job is
    done, so every update is observed by a poll, never inside the final
    blocking ``result`` call.  A chunk whose ``feed`` raises one of
    ``refusals`` is recorded as refused and the replay goes on.
    """
    record = Replay()

    def poll() -> None:
        updates = stream.poll_updates()
        if updates:
            now = clock()
            record.updates += len(updates)
            for update in updates:
                record.seen[update.segment_index] = now

    def idle(seconds: float) -> None:
        with trace.span("loadgen.idle"):
            sleep(seconds)

    record.start = clock()
    record.due = [record.start + (i + 1) * period for i in range(len(chunks))]
    for i, (due, chunk) in enumerate(zip(record.due, chunks)):
        while clock() < due:
            poll()
            wait = min(POLL_INTERVAL_S, due - clock())
            if wait > 0:
                idle(wait)
        record.fed.append(clock())
        try:
            stream.feed(chunk)
        except refusals:
            record.refused.append(i)
        poll()
    stream.close()
    while not stream.status().done:
        poll()
        idle(POLL_INTERVAL_S)
    poll()
    record.result = stream.result()
    record.end = clock()
    return record

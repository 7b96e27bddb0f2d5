"""Percentiles with a sample-support rule, and open-loop latency accounting."""

from __future__ import annotations

import bisect

#: Samples that must lie beyond a percentile before the run may report it.
MIN_TAIL_SAMPLES = 10


def tail_samples(n: int, pct: int) -> int:
    """Samples beyond the ``pct``-th percentile of ``n`` samples.

    Integer arithmetic on purpose: ``100 * (1 - 0.9)`` is 9.999..., which
    would wrongly deny a p90 over exactly 100 samples.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return n * (100 - pct) // 100


def percentile_supported(n: int, pct: int) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_TAIL_SAMPLES` beyond ``pct``."""
    return tail_samples(n, pct) >= MIN_TAIL_SAMPLES


def chunk_segments(chunk_last_events: list[int], segment_ends: list[int]) -> list[int]:
    """Index of the segment holding each chunk's last event.

    ``segment_ends`` are the segments' one-past-last event indices in
    stream order.  Events past the last segment (the trailing partial
    frame, which no segment maps) are attributed to the last segment,
    whose update is the moment the stream's tail is settled.
    """
    last = len(segment_ends) - 1
    return [min(bisect.bisect_right(segment_ends, e), last) for e in chunk_last_events]


def latencies(
    times: list[float], chunk_segment: list[int], seen: dict[int, float]
) -> list[float]:
    """Per chunk: from its time in ``times`` to its segment's map update.

    With the chunks' *due* times this is the open-loop latency: a stalled
    generator's lateness is charged to every chunk behind the stall, as
    an open-loop client would experience it.
    """
    return [seen[segment] - t for t, segment in zip(times, chunk_segment)]

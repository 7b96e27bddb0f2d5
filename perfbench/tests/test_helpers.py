"""Tests of the benchmark's own helpers (no workload is run).

    python3 -m pytest perfbench/tests
"""

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from perfbench import catalog, stats
from perfbench.loadgen import replay
from perfbench.trace import Tracer, covered

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Percentile support
# ----------------------------------------------------------------------
def test_p90_needs_one_hundred_samples():
    assert stats.tail_samples(100, 90) == 10
    assert stats.percentile_supported(100, 90)
    assert not stats.percentile_supported(99, 90)


def test_median_needs_twenty_samples():
    assert stats.percentile_supported(20, 50)
    assert not stats.percentile_supported(19, 50)


def test_percentile_bounds_are_checked():
    with pytest.raises(ValueError):
        stats.tail_samples(100, 100)


# ----------------------------------------------------------------------
# Open-loop latency accounting on a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@dataclass
class FakeUpdate:
    segment_index: int


@dataclass
class FakeStatus:
    done: bool


class Refused(Exception):
    pass


class FakeStream:
    """Segment ``k`` is cut when chunk ``closes[k]`` is fed; its update
    appears ``compute`` seconds later.  Feeding chunk ``stall`` blocks the
    caller for ``stall_s``; feeding chunk ``refuse`` raises."""

    def __init__(self, clock, closes, compute, stall=None, stall_s=0.0, refuse=None):
        self.clock, self.closes, self.compute = clock, closes, compute
        self.stall, self.stall_s, self.refuse = stall, stall_s, refuse
        self.fed = 0
        self.pending = []
        self.closed = False

    def feed(self, chunk):
        index = self.fed
        self.fed += 1
        if index == self.refuse:
            raise Refused
        if index == self.stall:
            self.clock.now += self.stall_s
        for segment, closing in enumerate(self.closes):
            if closing == index:
                self.pending.append((self.clock.now + self.compute, segment))

    def poll_updates(self):
        ready = [p for p in self.pending if p[0] <= self.clock.now]
        self.pending = [p for p in self.pending if p[0] > self.clock.now]
        return [FakeUpdate(segment) for _, segment in ready]

    def close(self):
        self.closed = True

    def status(self):
        return FakeStatus(self.closed and not self.pending)

    def result(self):
        return "result"


def test_replay_charges_a_stall_to_the_chunks_behind_it():
    clock = FakeClock()
    # Chunk 1 closes segment 0, chunk 3 closes segment 1; feeding chunk 1
    # stalls the generator for 0.25 s.
    stream = FakeStream(clock, closes=[1, 3], compute=0.05, stall=1, stall_s=0.25)
    rec = replay(stream, ["c0", "c1", "c2", "c3"], 0.1, clock, clock.sleep)

    assert rec.due == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert rec.fed == pytest.approx([0.1, 0.2, 0.45, 0.45])
    assert rec.late == pytest.approx([0.0, 0.0, 0.15, 0.05])
    assert rec.seen[0] == pytest.approx(0.5, abs=0.003)
    assert rec.seen[1] == pytest.approx(0.5, abs=0.003)
    assert rec.updates == 2 and rec.result == "result"

    segment = stats.chunk_segments([9, 19, 29, 39], segment_ends=[20, 40])
    assert segment == [0, 0, 1, 1]
    latency = stats.latencies(rec.due, segment, rec.seen)
    # From the due time: chunk 2 waited out the stall (0.2 s), although
    # it was only 0.05 s from its late feed to its update.
    assert latency == pytest.approx([0.4, 0.3, 0.2, 0.1], abs=0.003)


def test_replay_keeps_going_past_a_refused_chunk():
    clock = FakeClock()
    stream = FakeStream(clock, closes=[2], compute=0.01, refuse=1)
    rec = replay(stream, ["c0", "c1", "c2"], 0.1, clock, clock.sleep, refusals=(Refused,))
    assert rec.refused == [1]
    assert len(rec.fed) == 3
    assert rec.seen[0] == pytest.approx(0.31, abs=0.003)


def test_chunks_past_the_last_segment_map_to_it():
    # Events 40.. are the trailing partial frame no segment maps.
    assert stats.chunk_segments([5, 39, 40, 45], segment_ends=[20, 40]) == [0, 1, 1, 1]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_catalog_names_are_valid_and_unique():
    assert catalog.problems(catalog.END_TO_END + catalog.PER_LAYER) == []


def test_problems_flags_bad_and_repeated_names():
    bad = [
        catalog.Metric("_leading", "s", "lower"),
        catalog.Metric("x" * 65, "s", "lower"),
        catalog.Metric("ok", "bad unit!", "lower"),
        catalog.Metric("ok", "s", "sideways"),
    ]
    found = catalog.problems(bad)
    assert len(found) == 5
    assert any("used twice" in p for p in found)


def test_render_demands_exactly_the_catalog():
    metrics = (catalog.Metric("a_s", "s", "lower"), catalog.Metric("b", "count", "higher"))
    assert catalog.render({"a_s": 1, "b": 2}, metrics) == {
        "a_s": {"value": 1.0, "unit": "s"},
        "b": {"value": 2.0, "unit": "count"},
    }
    with pytest.raises(ValueError):
        catalog.render({"a_s": 1}, metrics)
    with pytest.raises(ValueError):
        catalog.render({"a_s": 1, "b": 2, "c": 3}, metrics)


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END}
    assert {(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == e2e
    layers = {(m.name, m.unit, m.better) for m in catalog.PER_LAYER}
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == layers
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def test_covered_merges_overlapping_children():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(1, 3), (1.5, 2)], 0, 10) == 2
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_tracer_self_times_add_up_to_the_job():
    tracer = Tracer()

    def inner():
        pass

    def outer():
        inner()
        nested()

    nested = tracer.wrap(lambda: None, "core.mapping.plan")
    inner = tracer.wrap(inner, "core.mapping.plan")
    outer = tracer.wrap(outer, "core.mapping.plan")
    with tracer.span("bench.job"):
        outer()
        tracer.wrap(lambda: None, "core.mapping.fuse")()
    # A layer calling itself is one span.
    assert tracer.totals()["core.mapping.plan"][1] == 1
    wall, selfs = tracer.attribution()
    assert set(selfs) == {"bench.job", "core.mapping.plan", "core.mapping.fuse"}
    assert sum(selfs.values()) == pytest.approx(wall)
    tracer.reset()
    assert tracer.spans == [] and tracer.totals()["core.mapping.plan"] == (0.0, 0)

"""Fig. 7a — end-to-end accuracy: original EMVS vs. fully reformulated.

The headline accuracy experiment: the original pipeline (bilinear voting,
full precision, per-frame distortion correction) against Eventor's
complete reformulation (rescheduled, nearest voting, Table 1 quantization)
on all four sequences.  The paper reports a maximum gap of ~1.78 % on the
simulated sequences and a *better* reformulated result on the slider
sequences; the reproduction targets that two-sided shape.
"""

import pytest

from benchmarks.conftest import (
    ACCURACY_CONFIG,
    eval_events,
    write_result,
)
from repro.core import ORIGINAL_POLICY, REFORMULATED_POLICY, ReconstructionEngine
from repro.eval.metrics import evaluate_reconstruction
from repro.eval.reporting import Table, bar_chart
from repro.events.datasets import SEQUENCE_NAMES, SHORT_NAMES

PAPER_MAX_GAP = 0.0178
ALLOWED_GAP = 0.030


_CACHE: dict = {}


def _compute(sequences):
    out = {}
    for name in SEQUENCE_NAMES:
        seq = sequences[name]
        events = eval_events(seq)
        out[name] = {
            label: evaluate_reconstruction(
                ReconstructionEngine(
                    seq.camera, seq.trajectory, ACCURACY_CONFIG,
                    seq.depth_range, policy=policy,
                ).run(events),
                seq,
            )
            for label, policy in (
                ("original", ORIGINAL_POLICY),
                ("reformulated", REFORMULATED_POLICY),
            )
        }
    return out


@pytest.fixture
def results(sequences):
    if "results" not in _CACHE:
        _CACHE["results"] = _compute(sequences)
    return _CACHE["results"]


@pytest.mark.benchmark(group="fig7a")
def test_fig7a_reproduction(benchmark, sequences):
    results = benchmark.pedantic(
        lambda: _compute(sequences), rounds=1, iterations=1
    )
    _CACHE["results"] = results
    table = Table(
        "Fig. 7a — AbsRel: original vs. reformulated (nearest+quantized+rescheduled)",
        ["dataset", "original", "reformulated", "gap (pp)"],
    )
    labels, orig_vals, ref_vals = [], [], []
    max_gap = 0.0
    for name in SEQUENCE_NAMES:
        o = results[name]["original"]
        r = results[name]["reformulated"]
        gap = r.absrel - o.absrel
        max_gap = max(max_gap, abs(gap))
        table.add_row(
            SHORT_NAMES[name], f"{o.absrel:.2%}", f"{r.absrel:.2%}",
            f"{gap * 100:+.2f}",
        )
        labels.append(SHORT_NAMES[name])
        orig_vals.append(o.absrel * 100)
        ref_vals.append(r.absrel * 100)
    table.add_note(
        f"max |gap| = {max_gap:.2%} (paper: {PAPER_MAX_GAP:.2%}; paper also "
        "sees the reformulated pipeline win on the slider sequences)"
    )
    chart = bar_chart(
        "Fig. 7a (reproduced)", labels,
        {"Original": orig_vals, "Reformulated": ref_vals},
    )
    write_result("fig7a_end2end_accuracy", table.render() + "\n\n" + chart)
    assert max_gap < ALLOWED_GAP


def test_fig7a_absolute_band(results):
    """Absolute errors stay in the single-digit-percent band of the figure."""
    for name in SEQUENCE_NAMES:
        assert results[name]["original"].absrel < 0.10
        assert results[name]["reformulated"].absrel < 0.12


def test_fig7a_slider_reformulated_competitive(results):
    """On the slider (real-scene) replicas the reformulated pipeline is
    at least competitive — the paper even sees it win there."""
    for name in ("slider_close", "slider_far"):
        o = results[name]["original"]
        r = results[name]["reformulated"]
        assert r.absrel <= o.absrel + 0.012


@pytest.mark.benchmark(group="fig7a")
def test_bench_reformulated_pipeline(benchmark, sequences):
    """Wall-clock of the full reformulated pipeline on a 100-frame slice."""
    seq = sequences["simulation_3planes"]
    events = seq.events.time_slice(0.95, 1.08)

    def run():
        return ReconstructionEngine(
            seq.camera, seq.trajectory, ACCURACY_CONFIG, seq.depth_range,
            policy=REFORMULATED_POLICY,
        ).run(events)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.n_points > 0

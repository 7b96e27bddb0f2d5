"""Extension ablation — sub-voxel depth refinement (a negative result).

The DSI quantizes depth to ``Nz`` planes, so one might expect parabolic
sub-plane refinement along the score column
(:func:`repro.core.detection.refine_subvoxel`) to buy accuracy.  Measured:
it does **not** pay on these workloads — the ray-density column around the
maximum is skewed by event-edge fattening rather than shaped by the plane
quantization, so the parabola vertex adds a small bias (~0.1-0.4 pp
AbsRel) instead of removing quantization error.  Equivalently: at Nz >= 32
the depth-plane spacing is already *not* the binding error source; edge
localization is.

The bench pins that finding quantitatively (refinement changes results
only marginally, never catastrophically, and plain Nz=64 beats refined
Nz=32) so future changes to the detection stage are measured against it.
"""

import pytest

from benchmarks.conftest import eval_events, write_result
from repro.core import EMVSConfig, REFORMULATED_POLICY, ReconstructionEngine
from repro.core.config import DetectionConfig
from repro.eval.metrics import evaluate_reconstruction
from repro.eval.reporting import Table


def _run(seq, events, n_planes, subvoxel):
    config = EMVSConfig(
        n_depth_planes=n_planes,
        frame_size=1024,
        detection=DetectionConfig(subvoxel=subvoxel),
    )
    engine = ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range,
        policy=REFORMULATED_POLICY,
    )
    return evaluate_reconstruction(engine.run(events), seq)


def _sweep(sequences):
    seq = sequences["slider_close"]  # cleanest sequence: isolates the floor
    events = eval_events(seq)
    rows = []
    for n_planes in (32, 64, 100):
        plain = _run(seq, events, n_planes, subvoxel=False)
        refined = _run(seq, events, n_planes, subvoxel=True)
        rows.append((n_planes, plain, refined))
    return rows


@pytest.mark.benchmark(group="subvoxel")
def test_subvoxel_ablation(benchmark, sequences):
    rows = benchmark.pedantic(lambda: _sweep(sequences), rounds=1, iterations=1)
    table = Table(
        "Extension — sub-voxel refinement vs. plane count (slider_close)",
        ["Nz", "AbsRel (plain)", "AbsRel (refined)", "delta (pp)"],
    )
    for n_planes, plain, refined in rows:
        table.add_row(
            n_planes,
            f"{plain.absrel:.2%}",
            f"{refined.absrel:.2%}",
            f"{(refined.absrel - plain.absrel) * 100:+.2f}",
        )
    table.add_note(
        "negative result: the column shape is fattening-skewed, not "
        "quantization-limited, so parabolic refinement adds a small bias; "
        "adding planes is the effective lever at this operating point"
    )
    write_result("ablation_subvoxel", table.render())

    for n_planes, plain, refined in rows:
        # Refinement is never catastrophic (bounded small delta)...
        assert abs(refined.absrel - plain.absrel) < 0.006
    # ...but plane count is the real lever: plain Nz=64 beats refined Nz=32.
    assert rows[1][1].absrel < rows[0][2].absrel
    # And the measured deltas document the negative result.
    deltas = [refined.absrel - plain.absrel for _, plain, refined in rows]
    assert all(d > -0.002 for d in deltas)


def test_more_planes_reduce_error(sequences):
    """The positive control for the negative result above: increasing the
    plane count *does* reduce AbsRel monotonically on this sequence."""
    seq = sequences["slider_close"]
    events = eval_events(seq)
    coarse = _run(seq, events, 32, subvoxel=False)
    fine = _run(seq, events, 100, subvoxel=False)
    assert fine.absrel < coarse.absrel

#!/usr/bin/env python
"""Sweep the quantization word lengths (the Table 1 design space).

Section 2.3 of the paper states that 21 decimal bits for the homography
and proportional coefficients are enough — "continuing to increase the
decimal bit width will not bring significant improvement" — and that
coordinate quantization to Q9.7 is nearly free.  This example sweeps the
fractional bit width of the parameter and coordinate formats and prints
AbsRel per setting, reproducing that design decision.

Run:  python examples/quantization_sweep.py
"""

import os
from dataclasses import replace

from repro.core import EMVSConfig, ORIGINAL_POLICY, ReconstructionEngine
from repro.core.voting import VotingMethod
from repro.eval.metrics import evaluate_reconstruction
from repro.events.datasets import load_sequence
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import EVENTOR_SCHEMA, FLOAT_SCHEMA


#: Smoke-test knob (set by tests/integration/test_examples.py): fewer
#: sweep points and a shorter slice so the example finishes in seconds.
FAST = bool(os.environ.get("REPRO_EXAMPLES_FAST"))


def run(seq, events, schema):
    config = EMVSConfig(n_depth_planes=64, frame_size=1024)
    policy = replace(ORIGINAL_POLICY, voting=VotingMethod.NEAREST, schema=schema)
    engine = ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range, policy=policy
    )
    return evaluate_reconstruction(engine.run(events), seq)


def main():
    seq = load_sequence("simulation_3planes", quality="fast")
    events = seq.events.time_slice(0.9, 1.1) if FAST else seq.events.time_slice(0.8, 1.2)

    baseline = run(seq, events, FLOAT_SCHEMA)
    print(f"float reference: AbsRel = {baseline.absrel:.3%}\n")

    print("Sweep: parameter (H_Z0, phi) fractional bits (paper uses 21)")
    for frac in (6, 21) if FAST else (6, 9, 12, 15, 18, 21, 24):
        fmt = QFormat(frac + 11, frac, signed=True)
        schema = replace(EVENTOR_SCHEMA, homography=fmt, phi=fmt)
        m = run(seq, events, schema)
        delta = (m.absrel - baseline.absrel) * 100
        print(f"  Q11.{frac:<2} ({frac + 11:>2} bits): "
              f"AbsRel = {m.absrel:.3%}  (delta {delta:+.2f} pp)")

    print("\nSweep: coordinate fractional bits (paper uses 7)")
    for frac in (1, 7) if FAST else (1, 3, 5, 7, 9):
        fmt = QFormat(frac + 9, frac, signed=False)
        schema = replace(EVENTOR_SCHEMA, event_coord=fmt, canonical_coord=fmt)
        m = run(seq, events, schema)
        delta = (m.absrel - baseline.absrel) * 100
        print(f"  uQ9.{frac:<2} ({frac + 9:>2} bits): "
              f"AbsRel = {m.absrel:.3%}  (delta {delta:+.2f} pp)")

    print("\nTakeaway: accuracy saturates at the paper's Q11.21 / uQ9.7 "
          "choices; wider words only cost memory bandwidth.")


if __name__ == "__main__":
    main()

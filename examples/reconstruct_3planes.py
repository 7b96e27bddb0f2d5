#!/usr/bin/env python
"""Full 3-planes reconstruction with key-framing and map merging.

Reproduces the scenario behind Fig. 7b: reconstruct the three-plane scene
across multiple key reference views, merge the per-keyframe clouds into a
global map, verify that the recovered structure is three parallel planes
(plane-fit residuals per depth band), and write the cloud as an ``.xyz``
file for external viewers.

Run:  python examples/reconstruct_3planes.py [output.xyz]
"""

import os
import sys

import numpy as np

from repro.core import (
    EMVSConfig,
    ORIGINAL_POLICY,
    REFORMULATED_POLICY,
    ReconstructionEngine,
)
from repro.eval.metrics import evaluate_reconstruction
from repro.events.datasets import load_sequence


#: Smoke-test knob (set by tests/integration/test_examples.py): shorter
#: slice so the example finishes in seconds.
FAST = bool(os.environ.get("REPRO_EXAMPLES_FAST"))


def analyze_planes(cloud):
    """Split the cloud into the three scene depth bands and fit planes."""
    edges = np.array([0.7, 1.35, 2.1, 3.0])
    names = ["near (z=1.0)", "mid (z=1.7)", "far (z=2.5)"]
    print("  plane-structure analysis:")
    for name, mask in zip(names, cloud.cluster_by_depth(edges)):
        n = int(mask.sum())
        if n < 10:
            print(f"    {name:<14} {n:>6} points (too few to fit)")
            continue
        residual = cloud.plane_fit_residual(mask)
        z_mean = cloud.points[mask, 2].mean()
        print(
            f"    {name:<14} {n:>6} points, mean z = {z_mean:.3f} m, "
            f"plane-fit RMS = {residual * 1000:.1f} mm"
        )


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "reconstruction_3planes.xyz"
    seq = load_sequence("simulation_3planes", quality="fast")
    events = seq.events.time_slice(0.7, 1.3) if FAST else seq.events.time_slice(0.3, 1.7)
    print(f"simulation_3planes: {len(events)} events, "
          f"trajectory sweep {seq.trajectory.path_length():.2f} m")

    config = EMVSConfig(
        n_depth_planes=100,
        frame_size=1024,
        keyframe_distance=0.12,  # re-key every ~12 cm of travel
    )

    for policy in (ORIGINAL_POLICY, REFORMULATED_POLICY):
        result = ReconstructionEngine(
            seq.camera, seq.trajectory, config, seq.depth_range, policy=policy
        ).run(events)
        metrics = evaluate_reconstruction(result, seq)
        print(f"\n[{policy.name}]")
        print(f"  key frames: {len(result.keyframes)}, "
              f"points: {result.n_points}, AbsRel: {metrics.absrel:.2%}")
        analyze_planes(result.cloud)
        if policy is REFORMULATED_POLICY:
            cloud = result.cloud.radius_filter(radius=0.05, min_neighbors=2)
            with open(out_path, "w") as f:
                for p in cloud.points:
                    f.write(f"{p[0]:.4f} {p[1]:.4f} {p[2]:.4f}\n")
            print(f"  filtered cloud ({len(cloud)} points) -> {out_path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: reconstruct semi-dense depth from an event stream.

Loads the ``simulation_3planes`` replica, runs Eventor's reformulated EMVS
pipeline (nearest voting + Table 1 quantization) over a half-second slice
of events, and reports accuracy against the analytic ground truth.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import EMVSConfig, REFORMULATED_POLICY, ReconstructionEngine
from repro.eval.metrics import evaluate_reconstruction
from repro.events.datasets import load_sequence


def ascii_depth_map(depth_map, width=60, height=24):
    """Render a coarse ASCII view of the semi-dense depth map."""
    chars = " .:-=+*#%@"
    h, w = depth_map.depth.shape
    ys = np.linspace(0, h - 1, height).astype(int)
    xs = np.linspace(0, w - 1, width).astype(int)
    block = depth_map.depth[np.ix_(ys, xs)]
    finite = np.isfinite(block)
    lines = []
    if finite.any():
        lo, hi = np.nanmin(block), np.nanmax(block)
        span = max(hi - lo, 1e-9)
        for row in block:
            line = ""
            for val in row:
                if np.isfinite(val):
                    # Near = dense glyph, far = sparse glyph.
                    idx = int((1.0 - (val - lo) / span) * (len(chars) - 1))
                    line += chars[idx]
                else:
                    line += " "
            lines.append(line)
    return "\n".join(lines)


def main():
    print("Loading simulation_3planes (procedural replica)...")
    seq = load_sequence("simulation_3planes", quality="fast")
    events = seq.events.time_slice(0.8, 1.3)
    print(f"  {len(events)} events over {events.duration:.2f} s "
          f"({events.event_rate() / 1e6:.2f} Mev/s)")

    config = EMVSConfig(n_depth_planes=100, frame_size=1024)
    engine = ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range,
        policy=REFORMULATED_POLICY,
    )
    print("Running the reformulated (hardware-friendly) EMVS pipeline...")
    result = engine.run(events)

    kf = result.keyframes[0]
    print(f"  key frames:       {len(result.keyframes)}")
    print(f"  frames processed: {result.profile.n_frames}")
    print(f"  DSI votes cast:   {result.profile.votes_cast:,}")
    print(f"  dropped events:   {result.profile.dropped_events:,} "
          "(projection misses + trailing partial frame)")
    print(f"  3D points:        {result.n_points} "
          f"({kf.depth_map.density:.1%} of pixels)")

    metrics = evaluate_reconstruction(result, seq)
    print(f"  AbsRel:           {metrics.absrel:.2%}")
    print(f"  RMSE:             {metrics.rmse:.3f} m")

    print("\nSemi-dense depth map (dense glyph = near, sparse = far):\n")
    print(ascii_depth_map(kf.depth_map))


if __name__ == "__main__":
    main()

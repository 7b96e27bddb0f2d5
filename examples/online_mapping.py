#!/usr/bin/env python
"""Streaming (SLAM-style) mapping with the incremental engine interface.

Feeds the ``slider_far`` replica to a
:class:`repro.core.ReconstructionEngine` (``push``/``finish``) in small
chunks, as a live system would, prints a line per finished key
frame as its reconstruction pops out of the callback, and exports the
final map as PLY plus the last key frame's depth map as PGM/PFM.

Run:  python examples/online_mapping.py [output_dir]
"""

import os
import sys

import numpy as np

from repro.core import EMVSConfig, REFORMULATED_POLICY, ReconstructionEngine
from repro.events.datasets import load_sequence
from repro.io.pgm import depth_to_image, save_pfm, save_pgm
from repro.io.ply import save_ply


#: Smoke-test knob (set by tests/integration/test_examples.py): streams
#: half the recording so the example finishes in seconds.
FAST = bool(os.environ.get("REPRO_EXAMPLES_FAST"))


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    seq = load_sequence("slider_far", quality="fast")
    events = seq.events
    if FAST:
        mid = 0.5 * (events.t_start + events.t_end)
        events = events.time_slice(events.t_start, mid)
    print(f"slider_far: {len(events)} events, streaming in 20 ms chunks")

    def on_keyframe(reconstruction):
        dm = reconstruction.depth_map
        x = reconstruction.T_w_ref.translation[0]
        print(
            f"  key frame at x={x:+.3f} m: {dm.n_points} points, "
            f"mean depth {dm.mean_depth():.2f} m "
            f"({reconstruction.n_frames} frames, "
            f"{reconstruction.n_events} events)"
        )

    mapper = ReconstructionEngine(
        seq.camera,
        seq.trajectory,
        EMVSConfig(n_depth_planes=100, frame_size=1024, keyframe_distance=0.08),
        seq.depth_range,
        policy=REFORMULATED_POLICY,
        on_keyframe=on_keyframe,
    )

    # Stream the recording in 20 ms slices (a realistic driver cadence).
    edges = np.arange(events.t_start, events.t_end, 0.02)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        mapper.push(events.time_slice(t0, t1))

    cloud = mapper.finish().cloud
    print(f"final map: {len(cloud)} points from {len(mapper.keyframes)} key frames")

    ply_path = os.path.join(out_dir, "online_map.ply")
    save_ply(ply_path, cloud.radius_filter(0.05, min_neighbors=2))
    print(f"wrote {ply_path}")

    if mapper.keyframes:
        dm = mapper.keyframes[-1].depth_map
        pgm_path = os.path.join(out_dir, "online_depth.pgm")
        save_pgm(pgm_path, depth_to_image(dm.depth, seq.depth_range))
        save_pfm(os.path.join(out_dir, "online_depth.pfm"), dm.depth)
        print(f"wrote {pgm_path} (+ lossless .pfm)")


if __name__ == "__main__":
    main()

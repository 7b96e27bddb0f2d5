#!/usr/bin/env python
"""One dataflow, several substrates: the engine's backend registry.

Runs the same reformulated EMVS dataflow through every registered
execution backend — ``numpy-reference`` (per-frame scatter votes),
``numpy-batch`` (segment-batched fused passes over buffered frame
batches), ``native-batch`` (the same passes in compiled C, when the C
kernels load) and ``hardware-model`` (the cycle-accurate accelerator
datapath) — and shows that the point clouds
are identical while the costs differ: wall-clock for the NumPy backends,
modelled cycles/energy for the hardware.

Run:  python examples/engine_backends.py
"""

import time

import numpy as np

from repro.core import BACKENDS, EMVSConfig, ReconstructionEngine
from repro.events.datasets import load_sequence
from repro.hardware.backend import HardwareBackend


def main():
    seq = load_sequence("simulation_3planes", quality="fast")
    events = seq.events.time_slice(0.9, 1.15)
    # The hardware model sizes its BRAM buffers from Nz, so use a
    # hardware-legal configuration for the apples-to-apples run.
    config = EMVSConfig(n_depth_planes=64, frame_size=1024)
    print(f"{len(events)} events, Nz={config.n_depth_planes}, "
          f"backends: {sorted(BACKENDS)}\n")

    results = {}
    for backend in sorted(BACKENDS):
        engine = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend=backend,
        )
        t0 = time.perf_counter()
        result = engine.run(events)
        host_seconds = time.perf_counter() - t0
        results[backend] = result
        line = (f"  {backend:<16} {result.n_points:>6} points  "
                f"{result.profile.votes_cast:>10,} votes  "
                f"host {host_seconds * 1e3:7.1f} ms")
        if isinstance(engine.backend, HardwareBackend):
            report = engine.backend.report()
            line += (f"  | modelled: {report.total_seconds * 1e3:.1f} ms "
                     f"@ {report.event_rate / 1e6:.2f} Mev/s, "
                     f"{report.energy_joules * 1e3:.1f} mJ")
        print(line)

    reference = results["numpy-reference"]
    for backend, result in results.items():
        np.testing.assert_allclose(
            result.cloud.points, reference.cloud.points, atol=1e-12
        )
    print("\nAll backends produced identical point clouds "
          "(bit-exact dataflow, enforced structurally by the engine).")


if __name__ == "__main__":
    main()

"""The ``native-batch`` execution backend: compiled hot-stage kernels.

Same segment-batched dataflow as ``numpy-batch`` — the engine buffers
``DataflowPolicy.batch_frames`` event frames and the backend executes
each batch in fused passes — but the φ parameter stack and the fused
proportional + vote scatter run in compiled code (see
:mod:`repro.native.provider` for kernel loading and
``docs/NATIVE.md`` for the kernel ABI).

The bit-exactness contract mirrors the other software backends: every
DSI count, vote total and miss total is identical to
``numpy-reference`` under all voting × correction policy corners.  The
``H_Z0`` stack and the canonical projection stay on numpy — their
LAPACK/BLAS kernels are the reference's own arithmetic, and re-running
the matmul in C would re-associate the accumulation (the one declared
epsilon in the native package, exercised only by the standalone
``canonical_batch`` kernel).

Importing this module registers the backend *iff* the kernels load;
:mod:`repro.core.engine` imports it under ``try/except`` so the registry
simply omits ``native-batch`` on hosts without a C toolchain.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backprojection import BatchFrameParameters
from repro.core.engine import BACKENDS, _NumpyBackendBase
from repro.core.voting import VotingMethod
from repro.events.packetizer import EventFrame
from repro.geometry.homography import (
    canonical_plane_homography_batch,
    event_camera_centers_in_virtual,
)
from repro.geometry.se3 import SE3, stack_poses
from repro.native.cext import BilinearScratch
from repro.native.provider import get_kernels


class NativeBatchBackend(_NumpyBackendBase):
    """Segment-batched execution through the compiled kernel layer.

    Stage split per batch (timing mirrors ``numpy-batch``):

    1. ``P_Z0`` — stacked poses, numpy ``H_Z0`` batch (LAPACK inverse,
       bit-identical to the reference by construction), native
       ``phi_batch``, numpy batched canonical projection;
    2. ``P_Zi_R`` — one native fused proportional + vote call over the
       whole batch: ``vote_nearest_batch`` accumulates into a
       segment-lifetime int32 count buffer (materialized into the DSI
       per key frame), ``vote_bilinear_batch`` scatters straight into
       the DSI flat buffer in reference corner order, dispatching on the
       policy's score dtype.

    All mutable buffers (counts, bilinear scratch) are owned per
    instance; the shared kernel object is stateless, so concurrent
    engines — thread pools, process pools — never share state.
    """

    name = "native-batch"
    buffers_frames = True

    def __init__(self, engine):
        super().__init__(engine)
        kernels = get_kernels()
        if kernels is None:
            raise RuntimeError(
                "native-batch backend constructed with no kernel provider "
                "available; check repro.native.provider_status()"
            )
        self._kernels = kernels
        self._counts: np.ndarray | None = None
        self._scratch: BilinearScratch | None = None

    def start_reference(self, T_w_ref: SE3) -> None:
        """Seat the DSI and reset the segment-lifetime vote buffers."""
        super().start_reference(T_w_ref)
        self._dirty = False
        if self.engine.policy.voting is VotingMethod.NEAREST:
            nz, h, w = self._dsi.shape
            if self._counts is None or self._counts.shape[0] != nz * h * w:
                self._counts = np.zeros(nz * h * w, dtype=np.int32)
            else:
                self._counts[...] = 0
        else:
            self._counts = None

    def _frame_parameters_batch(
        self, rotations: np.ndarray, translations: np.ndarray
    ) -> BatchFrameParameters:
        """Stacked per-frame parameters with the φ table computed natively.

        ``H_Z0`` follows
        :meth:`~repro.core.backprojection.BackProjector.frame_parameters_batch`
        verbatim (same LAPACK inverse, same normalization); the φ stack
        comes from the provider's ``phi_batch`` kernel, which is
        bit-exact with
        :func:`~repro.geometry.homography.proportional_coefficients_batch`.
        """
        p = self._projector
        H = canonical_plane_homography_batch(
            p.T_w_ref, rotations, translations, p.camera, p.z0
        )
        H = H / np.abs(H).max(axis=(1, 2), keepdims=True)
        c = event_camera_centers_in_virtual(p.T_w_ref, translations)
        phi = self._kernels.phi_batch(
            c, p.z0, p.depths, p.camera.fx, p.camera.fy, p.camera.cx, p.camera.cy
        )
        return BatchFrameParameters(
            H_Z0=p.schema.quantize_homography(H),
            phi=p.schema.quantize_phi(phi),
        )

    def process_frame(self, frame: EventFrame) -> tuple[int, int]:
        """Single-frame fallback: a batch of one."""
        return self.process_batch([frame])

    def process_batch(self, frames: list[EventFrame]) -> tuple[int, int]:
        """Execute one buffered frame batch through the native kernels."""
        if self._projector is None:
            raise RuntimeError("start_reference() must be called before frames")
        sizes = {len(frame) for frame in frames}
        if len(sizes) > 1:
            # Mixed frame sizes cannot stack; fall back to singleton
            # batches (the engine's packetizer only emits fixed sizes, so
            # this path serves direct backend users).
            return super().process_batch(frames)

        t0 = time.perf_counter()
        rotations, translations = stack_poses([frame.T_wc for frame in frames])
        xy = np.stack([frame.events.xy for frame in frames])
        params = self._frame_parameters_batch(rotations, translations)
        uv0, valid = self._projector.canonical_batch(params, xy)
        self.engine.profile.add_time("P_Z0", time.perf_counter() - t0)

        t0 = time.perf_counter()
        phi = np.ascontiguousarray(params.phi)
        uv0 = np.ascontiguousarray(uv0)
        misses = int(np.count_nonzero(~valid))
        if self._counts is not None:
            votes = self._kernels.vote_nearest_batch(
                phi, uv0, valid, self._counts, self._dsi.shape
            )
            self._dirty = True
        else:
            n, nz = uv0.shape[1], self._dsi.shape[0]
            if self._scratch is None or (self._scratch.n, self._scratch.nz) != (n, nz):
                self._scratch = BilinearScratch(n, nz)
            votes = self._kernels.vote_bilinear_batch(
                phi, uv0, valid, self._dsi.flat_scores, self._dsi.shape, self._scratch
            )
        self.engine.profile.add_time("P_Zi_R", time.perf_counter() - t0)
        return votes, misses

    def read_dsi(self):
        """Materialize pending nearest-vote counts, then return the DSI."""
        if self._dirty:
            t0 = time.perf_counter()
            super().read_dsi().flat_scores[...] = self._counts
            self.engine.profile.add_time("P_Zi_R", time.perf_counter() - t0)
            self._dirty = False
        return super().read_dsi()


def register_native_backend(registry: dict | None = None) -> str | None:
    """(Re-)register ``native-batch`` according to provider availability.

    When a kernel provider loads, ``native-batch`` is installed in the
    backend registry and the provider name is returned; otherwise the
    entry is removed (the registry "stays clean") and ``None`` is
    returned.  Called once at import; tests re-invoke it around
    :func:`repro.native.provider.reset` to exercise the fallback matrix.
    """
    if registry is None:
        registry = BACKENDS
    kernels = get_kernels()
    if kernels is None:
        registry.pop(NativeBatchBackend.name, None)
        return None
    registry[NativeBatchBackend.name] = NativeBatchBackend
    return kernels.name


register_native_backend()

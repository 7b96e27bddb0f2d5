"""Unit tests for the compiled kernel layer (``repro.native``).

Three concerns, matching the package's three layers:

* **kernel exactness** — each native kernel against its numpy reference:
  bit-exact for φ and both voting kernels, epsilon-bounded (with the
  declared ``CANONICAL_RTOL``/``CANONICAL_ATOL``) for the standalone
  canonical projection;
* **kernel loading** — the status line of a loaded library and the
  unavailable path;
* **registry consistency** — ``native-batch`` registers iff the kernels
  load, and the CLI surfaces the provider status.
"""

import numpy as np
import pytest

from repro.core.engine import BACKENDS
from repro.core.voting import vote_bilinear_into, vote_nearest_into
from repro.geometry.camera import PinholeCamera
from repro.geometry.homography import (
    apply_homography_with_scale_batch,
    apply_proportional,
    proportional_coefficients_batch,
)
from repro.native import (
    CANONICAL_ATOL,
    CANONICAL_RTOL,
    get_kernels,
    provider_status,
)
from repro.native import provider as provider_module
from repro.native.backend import register_native_backend
from repro.native.cext import BilinearScratch

HAVE_KERNELS = get_kernels() is not None

needs_kernels = pytest.mark.skipif(
    not HAVE_KERNELS, reason="no native kernel provider on this host"
)


@pytest.fixture
def restore_provider(monkeypatch):
    """Reset the provider cache after a test that perturbs it.

    Undoes the test's monkeypatches *first* — fixture finalizers run
    before the monkeypatch fixture's own teardown, and re-probing with a
    patched loader or environment still active would poison the cached
    state for every later test.
    """
    yield
    monkeypatch.undo()
    provider_module.reset()
    register_native_backend()


# ----------------------------------------------------------------------
# Shared random workload
# ----------------------------------------------------------------------
SHAPE = (12, 40, 56)  # (Nz, H, W)
B, N = 5, 400
Z0 = 0.7


def _workload(seed=7):
    """A ``(phi, uv0, valid)`` block with misses and out-of-bounds rows."""
    nz, h, w = SHAPE
    rng = np.random.default_rng(seed)
    camera = PinholeCamera.ideal(w, h, fov_deg=60.0)
    depths = np.linspace(Z0, 2.5 * Z0, nz)
    centers = rng.uniform(-0.05, 0.05, size=(B, 3))
    phi = proportional_coefficients_batch(centers, Z0, depths, camera)
    # Canonical coordinates spanning past the borders, plus miss rows.
    uv0 = np.stack(
        [
            rng.uniform(-6.0, w + 6.0, size=(B, N)),
            rng.uniform(-6.0, h + 6.0, size=(B, N)),
        ],
        axis=2,
    )
    valid = rng.random((B, N)) > 0.1
    uv0 = np.where(valid[..., None], uv0, 0.0)  # canonical stage zeroes misses
    return camera, depths, centers, phi, uv0, valid


def _reference_vote(phi, uv0, valid, flat, method):
    """The per-frame numpy reference path the fused kernels must match."""
    total = 0
    for b in range(uv0.shape[0]):
        u, v = apply_proportional(phi[b], uv0[b])
        u[~valid[b]] = np.nan
        v[~valid[b]] = np.nan
        total += method(flat, u, v, SHAPE)
    return total


# ----------------------------------------------------------------------
# Kernel exactness
# ----------------------------------------------------------------------
@needs_kernels
class TestKernelExactness:
    def test_phi_batch_bit_exact(self):
        camera, depths, centers, phi_ref, _, _ = _workload()
        kernels = get_kernels()
        phi = kernels.phi_batch(
            centers, Z0, depths, camera.fx, camera.fy, camera.cx, camera.cy
        )
        np.testing.assert_array_equal(phi, phi_ref)

    def test_phi_batch_degenerate_raises(self):
        camera, depths, centers, _, _, _ = _workload()
        centers = centers.copy()
        centers[2, 2] = Z0  # centre on the canonical plane
        kernels = get_kernels()
        with pytest.raises(ValueError, match="degenerate geometry"):
            kernels.phi_batch(
                centers, Z0, depths, camera.fx, camera.fy, camera.cx, camera.cy
            )

    def test_canonical_batch_within_declared_tolerance(self):
        rng = np.random.default_rng(11)
        H = np.eye(3) + rng.uniform(-0.08, 0.08, size=(B, 3, 3))
        H = H / np.abs(H).max(axis=(1, 2), keepdims=True)
        xy = rng.uniform(0.0, 50.0, size=(B, N, 2))
        uv_ref, w_ref = apply_homography_with_scale_batch(H, xy)
        kernels = get_kernels()
        uv, w = kernels.canonical_batch(H, xy)
        np.testing.assert_allclose(
            uv, uv_ref, rtol=CANONICAL_RTOL, atol=CANONICAL_ATOL
        )
        np.testing.assert_allclose(
            w, w_ref, rtol=CANONICAL_RTOL, atol=CANONICAL_ATOL
        )

    def test_vote_nearest_bit_exact(self):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        ref_flat = np.zeros(nz * h * w, dtype=np.int64)
        ref_votes = _reference_vote(phi, uv0, valid, ref_flat, vote_nearest_into)
        counts = np.zeros(nz * h * w, dtype=np.int32)
        kernels = get_kernels()
        votes = kernels.vote_nearest_batch(phi, uv0, valid, counts, SHAPE)
        np.testing.assert_array_equal(counts.astype(np.int64), ref_flat)
        assert votes == ref_votes

    @pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["f64", "i64"])
    def test_vote_bilinear_bit_exact(self, dtype):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        ref_flat = np.zeros(nz * h * w, dtype=dtype)

        def masked_bilinear(flat, u, v, shape):
            # The engine's bilinear path drops miss rows before voting
            # (NaN coordinates produce no terms), matching the kernel.
            return vote_bilinear_into(flat, u, v, shape)

        ref_votes = _reference_vote(phi, uv0, valid, ref_flat, masked_bilinear)
        flat = np.zeros(nz * h * w, dtype=dtype)
        kernels = get_kernels()
        scratch = BilinearScratch(N, nz)
        votes = kernels.vote_bilinear_batch(phi, uv0, valid, flat, SHAPE, scratch)
        np.testing.assert_array_equal(flat, ref_flat)
        assert votes == ref_votes

    def test_vote_nearest_rejects_wrong_counts_dtype(self):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        counts = np.zeros(nz * h * w, dtype=np.int64)
        kernels = get_kernels()
        with pytest.raises(ValueError, match="int32"):
            kernels.vote_nearest_batch(phi, uv0, valid, counts, SHAPE)

    def test_bilinear_scratch_shape_check(self):
        scratch = BilinearScratch(N, SHAPE[0])
        with pytest.raises(ValueError):
            scratch.check(N + 1, SHAPE[0])


# ----------------------------------------------------------------------
# Provider selection
# ----------------------------------------------------------------------
class TestProviderSelection:
    @needs_kernels
    def test_status_names_the_loaded_library(self):
        kernels = get_kernels()
        assert kernels.name == "cext"
        assert provider_status() == f"cext ({kernels.origin})"

    def test_unavailable_status_names_every_provider(
        self, monkeypatch, restore_provider
    ):
        # REPRO_NATIVE_LIB is authoritative: a missing library is the
        # only candidate, so nothing loads.
        monkeypatch.setenv("REPRO_NATIVE_LIB", "/nonexistent/libkernels.so")
        provider_module.reset()
        assert get_kernels() is None
        status = provider_status()
        assert status.startswith("unavailable (cext: ")
        assert "/nonexistent/libkernels.so" in status


# ----------------------------------------------------------------------
# Registry consistency
# ----------------------------------------------------------------------
class TestRegistryConsistency:
    def test_registry_matches_provider_availability(self):
        assert ("native-batch" in BACKENDS) == (get_kernels() is not None)

    def test_registry_drops_backend_when_no_provider(
        self, monkeypatch, restore_provider
    ):
        monkeypatch.setenv("REPRO_NATIVE_LIB", "/nonexistent/libkernels.so")
        provider_module.reset()
        assert register_native_backend() is None
        assert "native-batch" not in BACKENDS

    @needs_kernels
    def test_register_returns_provider_name(self):
        assert register_native_backend() == get_kernels().name
        assert "native-batch" in BACKENDS

    def test_backend_construction_requires_provider(
        self, monkeypatch, restore_provider
    ):
        import repro.native.backend as backend_module

        monkeypatch.setattr(backend_module, "get_kernels", lambda: None)
        with pytest.raises(RuntimeError, match="no kernel provider"):
            backend_module.NativeBatchBackend(engine=None)

    def test_cli_info_reports_provider(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "native kernel provider:" in out
        assert "registered backends:" in out
        if HAVE_KERNELS:
            assert "native-batch" in out

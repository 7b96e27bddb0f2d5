"""Unit tests for the compiled kernel layer (``repro.native``).

Three concerns, matching the package's three layers:

* **kernel exactness** — each native kernel against its numpy reference:
  bit-exact for φ and both voting kernels, epsilon-bounded (with the
  declared ``CANONICAL_RTOL``/``CANONICAL_ATOL``) for the standalone
  canonical projection; the nearest kernel also on its chunking,
  rounding-border and non-finite edge cases, at every ISA dispatch level
  the host supports;
* **kernel loading** — the status line of a loaded library and the
  unavailable path;
* **registry consistency** — ``native-batch`` registers iff the kernels
  load, and the CLI surfaces the provider status.
"""

import os
import platform
import subprocess
from pathlib import Path

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
from repro.native import cext
from repro.native import provider as provider_module
from repro.native.backend import register_native_backend
from repro.native.cext import BilinearScratch, CExtensionKernels

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


def _workload(seed=7, b=B, n=N):
    """A ``(phi, uv0, valid)`` block with misses and out-of-bounds rows."""
    nz, h, w = SHAPE
    rng = np.random.default_rng(seed)
    camera = PinholeCamera.ideal(w, h, fov_deg=60.0)
    depths = np.linspace(Z0, 2.5 * Z0, nz)
    centers = rng.uniform(-0.05, 0.05, size=(b, 3))
    phi = proportional_coefficients_batch(centers, Z0, depths, camera)
    # Canonical coordinates spanning past the borders, plus miss rows.
    uv0 = np.stack(
        [
            rng.uniform(-6.0, w + 6.0, size=(b, n)),
            rng.uniform(-6.0, h + 6.0, size=(b, n)),
        ],
        axis=2,
    )
    valid = rng.random((b, n)) > 0.1
    uv0 = np.where(valid[..., None], uv0, 0.0)  # canonical stage zeroes misses
    return camera, depths, centers, phi, uv0, valid


def _reference_vote(phi, uv0, valid, flat, method, shape=SHAPE):
    """The per-frame numpy reference path the fused kernels must match."""
    total = 0
    for b in range(uv0.shape[0]):
        u, v = apply_proportional(phi[b], uv0[b])
        u[~valid[b]] = np.nan
        v[~valid[b]] = np.nan
        total += method(flat, u, v, shape)
    return total


def _random_nearest_case(n, seed):
    """One frame of ``n`` events (``B = 1``) over the shared geometry."""
    _, _, _, phi, uv0, valid = _workload(seed, b=1, n=n)
    return phi, uv0, valid, SHAPE


def _identity_case(coords):
    """Events whose canonical pixels land on every plane unchanged.

    φ = (1, 0, 0) makes ``u = u0*1 + 0`` exact, so the kernel sees the
    given coordinates bit for bit before its ``+ 0.5`` rounding step.
    """
    nz, h, w = 3, 5, 7
    uv0 = np.asarray(coords, dtype=float).reshape(1, -1, 2)
    phi = np.zeros((1, nz, 3))
    phi[..., 0] = 1.0
    return phi, uv0, np.ones(uv0.shape[:2], dtype=bool), (nz, h, w)


def _border_case():
    """Coordinates exactly on, and one ULP off, the rounding borders."""
    h, w = 5, 7
    below_w = np.nextafter(w - 0.5, -np.inf)  # u + 0.5 == largest double < w
    below_h = np.nextafter(h - 0.5, -np.inf)
    just_neg = np.nextafter(-0.5, -np.inf)  # u + 0.5 < 0 by one ULP
    coords = [
        (-0.5, 2.0),  # u + 0.5 == 0: column 0
        (2.0, -0.5),  # v + 0.5 == 0: row 0
        (w - 0.5, 2.0),  # u + 0.5 == w: out of bounds
        (2.0, h - 0.5),  # v + 0.5 == h: out of bounds
        (below_w, 2.0),  # column w - 1
        (2.0, below_h),  # row h - 1
        (below_w, below_h),
        (just_neg, 2.0),
        (2.0, just_neg),
        (2.5, 1.5),  # halves round up
        (-0.5, -0.5),
    ]
    return _identity_case(coords)


def _non_finite_case():
    """NaN and ±inf coordinates on rows flagged valid."""
    nan, inf = np.nan, np.inf
    coords = [
        (nan, 1.0),
        (1.0, nan),
        (inf, 1.0),
        (-inf, 1.0),
        (1.0, inf),
        (1.0, -inf),
        (nan, nan),
        (3.0, 2.0),  # one ordinary hit among them
    ]
    return _identity_case(coords)


def _all_invalid_case():
    phi, uv0, valid, shape = _random_nearest_case(300, seed=5)
    return phi, uv0, np.zeros_like(valid), shape


#: Edge cases of the nearest kernel: one event, exactly one 1024-event
#: chunk, and a chunk tail; rounding borders; non-finite coordinates; an
#: all-invalid batch.
NEAREST_CASES = {
    "n1": lambda: _random_nearest_case(1, seed=1),
    "n1024": lambda: _random_nearest_case(1024, seed=2),
    "n2500": lambda: _random_nearest_case(2500, seed=3),
    "borders": _border_case,
    "non_finite": _non_finite_case,
    "all_invalid": _all_invalid_case,
}


def _check_nearest_exact(kernels, case):
    """The kernel's counts and vote total equal the numpy reference's.

    Counts start non-zero, so a kernel that clears or overwrites them
    instead of accumulating fails too.
    """
    phi, uv0, valid, shape = case
    nz, h, w = shape
    start = np.arange(nz * h * w, dtype=np.int64) % 3
    ref_flat = start.copy()
    ref_votes = _reference_vote(phi, uv0, valid, ref_flat, vote_nearest_into, shape)
    counts = start.astype(np.int32)
    votes = kernels.vote_nearest_batch(phi, uv0, valid, counts, shape)
    np.testing.assert_array_equal(counts.astype(np.int64), ref_flat)
    assert votes == ref_votes
    return votes


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

    @pytest.mark.parametrize("case", sorted(NEAREST_CASES))
    def test_vote_nearest_edge_cases(self, case):
        votes = _check_nearest_exact(get_kernels(), NEAREST_CASES[case]())
        expected = {"borders": 7 * 3, "non_finite": 3, "all_invalid": 0}
        if case in expected:
            assert votes == expected[case]

    def test_vote_nearest_rejects_plane_beyond_int32_index(self):
        _, _, _, phi, uv0, valid = _workload()
        counts = np.zeros(1, dtype=np.int32)
        with pytest.raises(ValueError, match="int32 index"):
            get_kernels().vote_nearest_batch(
                phi, uv0, valid, counts, (SHAPE[0], 2**16, 2**15)
            )

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
# ISA dispatch levels
# ----------------------------------------------------------------------
_V3_FLAGS = {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe", "xsave"}
#: CPU flags each x86-64 micro-architecture level (the psABI levels the
#: kernel's target clones are built for) needs.
LEVEL_FLAGS = {
    "x86-64": set(),
    "x86-64-v3": _V3_FLAGS,
    "x86-64-v4": _V3_FLAGS | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _host_supports(level):
    on_x86 = platform.machine() in ("x86_64", "AMD64")
    return on_x86 and LEVEL_FLAGS[level] <= _cpu_flags()


def _compiler_knows(compiler, level):
    """Whether ``compiler`` accepts ``-march=<level>`` (GCC < 11 and
    clang < 12 do not know the x86-64-vN names)."""
    probe = subprocess.run(
        [compiler, f"-march={level}", "-x", "c", "-c", "-o", os.devnull, "-"],
        input="int probe;\n",
        capture_output=True,
        text=True,
    )
    return probe.returncode == 0


@pytest.mark.parametrize("level", list(LEVEL_FLAGS))
def test_every_dispatch_level_bit_exact(level, tmp_path):
    """Each ISA level the load-time dispatch can pick votes bit-exactly.

    ``-DEVENTOR_CLONES=`` turns the target clones off and ``-march`` pins
    one level, so this covers the clones the host's dispatch does not
    select.  A compiler that does not know the level skips it; any other
    build error fails.
    """
    compiler = cext._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    if not _host_supports(level):
        pytest.skip(f"host CPU lacks {level}")
    if not _compiler_knows(compiler, level):
        pytest.skip(f"{compiler} does not know -march={level}")
    out = tmp_path / f"kernels_{level}.so"
    flags = [*cext.BUILD_FLAGS, "-DEVENTOR_CLONES=", f"-march={level}"]
    proc = subprocess.run(
        [compiler, *flags, "-o", str(out), str(cext.SOURCE), "-lm"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    kernels = CExtensionKernels(out)
    _, _, _, phi, uv0, valid = _workload()
    _check_nearest_exact(kernels, (phi, uv0, valid, SHAPE))
    for make in NEAREST_CASES.values():
        _check_nearest_exact(kernels, make())


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

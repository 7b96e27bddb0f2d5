"""The ``cext`` kernel provider: ctypes bindings over the C hot-stage kernels.

The shared library is located in this order:

1. ``REPRO_NATIVE_LIB`` — an explicit library path (test seam / exotic
   deployments).  When set it is authoritative: no further candidates
   are tried.
2. A ``_ckernels*`` artifact next to this module — what ``pip install``
   leaves behind when the optional setuptools extension built (the
   extension is loaded through ctypes, never imported).
3. An on-demand build of ``_kernels.c`` into the user cache directory,
   keyed by a hash of the source and flags so rebuilds only happen when
   the kernels change.  Disabled with ``REPRO_NATIVE_BUILD=0``.

All kernels are compiled with ``-ffp-contract=off`` — fused multiply-adds
would break the bit-exactness contract with the numpy reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

#: The single C source file of the kernel library.
SOURCE = Path(__file__).with_name("_kernels.c")

#: Flags of the on-demand build.  ``-ffp-contract=off`` is load-bearing
#: (see module docstring); ``-fno-math-errno`` lets the compiler inline
#: ``floor``.
BUILD_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

_LIB_SUFFIXES = {".so", ".dylib", ".pyd", ".dll"}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro-native"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return shutil.which(candidate)
    return None


def build_shared_library() -> Path:
    """Compile ``_kernels.c`` into the user cache and return the path.

    The output name carries a hash of (flags, source), so the cached
    artifact is reused across processes and sessions until the kernels
    change.  Raises ``RuntimeError`` when no compiler is on PATH or the
    build fails (with the compiler's stderr tail).
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler on PATH (set CC or install gcc/clang)"
        )
    source = SOURCE.read_text()
    tag = hashlib.sha256(
        ("\x00".join(BUILD_FLAGS) + "\x00" + source).encode()
    ).hexdigest()[:16]
    out = _cache_dir() / f"repro_kernels_{tag}.so"
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *BUILD_FLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel build failed ({compiler}): {proc.stderr.strip()[-500:]}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders race safely
        tmp = ""
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _candidate_libraries() -> list[Path]:
    explicit = os.environ.get("REPRO_NATIVE_LIB")
    if explicit:
        return [Path(explicit)]
    candidates = [
        path
        for path in sorted(Path(__file__).parent.glob("_ckernels*"))
        if path.suffix in _LIB_SUFFIXES
    ]
    if os.environ.get("REPRO_NATIVE_BUILD", "1") != "0":
        candidates.append(build_shared_library())
    return candidates


def load_cext_kernels() -> "CExtensionKernels":
    """Locate (or build) the kernel library and return live bindings.

    Raises when no candidate loads — :mod:`repro.native.provider` turns
    that into an ``unavailable`` status instead of an import error.
    """
    errors: list[str] = []
    for path in _candidate_libraries():
        try:
            return CExtensionKernels(path)
        except OSError as exc:
            errors.append(f"{path}: {exc}")
    raise RuntimeError(
        "no loadable kernel library: "
        + ("; ".join(errors) if errors else "no candidates (REPRO_NATIVE_BUILD=0?)")
    )


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _c_contiguous(array: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=dtype)


class CExtensionKernels:
    """Stateless ctypes bindings over one loaded kernel library.

    One instance is shared by every ``native-batch`` backend in the
    process; all mutable buffers (DSI, counts, scratch) are owned by the
    callers, so concurrent engines (thread pools) are safe.  ctypes
    releases the GIL for the duration of each kernel call.
    """

    #: Provider registry name.
    name = "cext"

    def __init__(self, library_path: Path):
        self.origin = str(library_path)
        lib = ctypes.CDLL(str(library_path))
        ll, dbl, ptr = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
        lib.eventor_phi_batch.argtypes = [ptr, ptr, ll, ll, dbl, dbl, dbl, dbl, dbl, ptr]
        lib.eventor_phi_batch.restype = ctypes.c_int
        lib.eventor_canonical_batch.argtypes = [ptr, ptr, ll, ll, ptr, ptr]
        lib.eventor_canonical_batch.restype = None
        lib.eventor_vote_nearest_batch.argtypes = [ptr, ptr, ptr, ll, ll, ll, ll, ll, ptr]
        lib.eventor_vote_nearest_batch.restype = ll
        for fn in (
            lib.eventor_vote_bilinear_batch_f64,
            lib.eventor_vote_bilinear_batch_i64,
        ):
            fn.argtypes = [ptr, ptr, ptr, ll, ll, ll, ll, ll, ptr, ptr, ptr, ptr, ptr, ptr]
            fn.restype = ll
        self._lib = lib

    # ------------------------------------------------------------------
    def phi_batch(
        self,
        centers: np.ndarray,
        z0: float,
        depths: np.ndarray,
        fx: float,
        fy: float,
        cx: float,
        cy: float,
    ) -> np.ndarray:
        """``(B, Nz, 3)`` proportional coefficient tables φ.

        Bit-exact with
        :func:`repro.geometry.homography.proportional_coefficients_batch`,
        including the degenerate-geometry ``ValueError``.
        """
        centers = _c_contiguous(centers, np.float64).reshape(-1, 3)
        depths = _c_contiguous(depths, np.float64)
        b, nz = centers.shape[0], depths.shape[0]
        phi = np.empty((b, nz, 3))
        degenerate = self._lib.eventor_phi_batch(
            _ptr(centers),
            _ptr(depths),
            b,
            nz,
            float(z0),
            float(fx),
            float(fy),
            float(cx),
            float(cy),
            _ptr(phi),
        )
        if degenerate:
            raise ValueError(
                "degenerate geometry: camera centre lies on the canonical plane"
            )
        return phi

    def canonical_batch(
        self, H: np.ndarray, xy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(uv, w)`` of the batched canonical projection.

        Epsilon-bounded against
        :func:`repro.geometry.homography.apply_homography_with_scale_batch`
        (numpy's BLAS matmul accumulates in a different order); see
        ``repro.native.CANONICAL_RTOL`` for the declared tolerance.
        """
        H = _c_contiguous(H, np.float64)
        xy = _c_contiguous(xy, np.float64)
        b, n = xy.shape[0], xy.shape[1]
        uv = np.empty((b, n, 2))
        w = np.empty((b, n))
        self._lib.eventor_canonical_batch(_ptr(H), _ptr(xy), b, n, _ptr(uv), _ptr(w))
        return uv, w

    def vote_nearest_batch(
        self,
        phi: np.ndarray,
        uv0: np.ndarray,
        valid: np.ndarray,
        counts: np.ndarray,
        shape: tuple[int, int, int],
    ) -> int:
        """Fused proportional + nearest voting into ``counts``; returns votes.

        ``counts`` must be a C-contiguous int32 ``(Nz*H*W,)`` buffer owned
        by the caller; votes accumulate in place (int32 halves the scatter
        footprint; a cell's count is bounded by the events of one
        reference segment, and the caller widens on materialization).
        """
        nz, h, w = shape
        if counts.dtype != np.int32 or not counts.flags.c_contiguous:
            raise ValueError("counts must be a C-contiguous int32 buffer")
        phi = _c_contiguous(phi, np.float64)
        uv0 = _c_contiguous(uv0, np.float64)
        valid8 = _as_uint8(valid)
        b, n = uv0.shape[0], uv0.shape[1]
        return int(
            self._lib.eventor_vote_nearest_batch(
                _ptr(phi), _ptr(uv0), _ptr(valid8), b, n, nz, h, w, _ptr(counts)
            )
        )

    def vote_bilinear_batch(
        self,
        phi: np.ndarray,
        uv0: np.ndarray,
        valid: np.ndarray,
        flat: np.ndarray,
        shape: tuple[int, int, int],
        scratch: "BilinearScratch",
    ) -> int:
        """Fused proportional + bilinear voting into ``flat``; returns points.

        Dispatches on ``flat.dtype``: float64 accumulates exact corner
        weights in reference order; int64 truncates each weight toward
        zero per addition (the ``np.add.at`` integer-buffer semantics).
        """
        nz, h, w = shape
        if not flat.flags.c_contiguous:
            raise ValueError("flat DSI buffer must be C-contiguous")
        if flat.dtype == np.float64:
            fn = self._lib.eventor_vote_bilinear_batch_f64
        elif flat.dtype == np.int64:
            fn = self._lib.eventor_vote_bilinear_batch_i64
        else:
            raise ValueError(f"unsupported DSI dtype {flat.dtype}")
        phi = _c_contiguous(phi, np.float64)
        uv0 = _c_contiguous(uv0, np.float64)
        valid8 = _as_uint8(valid)
        b, n = uv0.shape[0], uv0.shape[1]
        scratch.check(n, nz)
        return int(
            fn(
                _ptr(phi),
                _ptr(uv0),
                _ptr(valid8),
                b,
                n,
                nz,
                h,
                w,
                _ptr(flat),
                _ptr(scratch.u0),
                _ptr(scratch.v0),
                _ptr(scratch.fu),
                _ptr(scratch.fv),
                _ptr(scratch.voted),
            )
        )


def _as_uint8(valid: np.ndarray) -> np.ndarray:
    if valid.dtype == np.bool_ and valid.flags.c_contiguous:
        return valid.view(np.uint8)
    return np.ascontiguousarray(valid, dtype=np.uint8)


class BilinearScratch:
    """Caller-owned scratch block of the bilinear kernels.

    Holds the floor/fraction decomposition (``u0``/``v0``/``fu``/``fv``,
    float64) and the per-(event, plane) ``voted`` flags (uint8), each of
    shape ``(N, Nz)``.  One instance per engine keeps concurrent engines
    from sharing mutable state.
    """

    def __init__(self, n: int, nz: int):
        self.n, self.nz = n, nz
        self.u0 = np.empty((n, nz))
        self.v0 = np.empty((n, nz))
        self.fu = np.empty((n, nz))
        self.fv = np.empty((n, nz))
        self.voted = np.empty((n, nz), dtype=np.uint8)

    def check(self, n: int, nz: int) -> None:
        """Validate the scratch matches the kernel call's geometry."""
        if (n, nz) != (self.n, self.nz):
            raise ValueError(
                f"scratch sized for (N={self.n}, Nz={self.nz}), "
                f"call needs (N={n}, Nz={nz})"
            )

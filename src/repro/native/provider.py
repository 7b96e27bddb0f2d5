"""Kernel loading for the ``native-batch`` backend.

The kernels are ctypes bindings over the compiled C library (installed
extension artifact or an on-demand ``cc`` build, see
:mod:`repro.native.cext`), exposing the kernel ABI of docs/NATIVE.md as a
Python object (``phi_batch`` / ``canonical_batch`` / ``vote_nearest_batch``
/ ``vote_bilinear_batch`` plus ``name`` / ``origin``).

The first :func:`get_kernels` call loads them and caches the result.
When the library does not load the probe records *why* — surfaced by
``repro info`` — and the backend registry simply omits ``native-batch``.
"""

from __future__ import annotations

#: Declared relative tolerance of the ``canonical_batch`` kernel against
#: the numpy reference: numpy routes the homography matmul through BLAS,
#: whose accumulation order differs from the C loop by a few ULP (the
#: measured error is ~1e-13 relative; the declared bound leaves margin).
#: Every other kernel is bit-exact.  Pinned by tests/unit/test_native.py.
CANONICAL_RTOL = 1e-9

#: Matching absolute floor for canonical coordinates near zero.
CANONICAL_ATOL = 1e-9

_state: dict = {"probed": False, "kernels": None, "status": "unprobed"}


def _probe() -> None:
    from repro.native.cext import load_cext_kernels

    try:
        kernels = load_cext_kernels()
    except Exception as exc:
        _state.update(probed=True, kernels=None, status=f"unavailable (cext: {exc})")
        return
    _state.update(probed=True, kernels=kernels, status=f"{kernels.name} ({kernels.origin})")


def get_kernels():
    """The loaded kernels, or ``None`` when the C library does not load.

    The first call probes and the result is cached for the process;
    :func:`reset` clears the cache (test seam).
    """
    if not _state["probed"]:
        _probe()
    return _state["kernels"]


def provider_status() -> str:
    """Human-readable provider line for ``repro info`` and error messages."""
    get_kernels()
    return _state["status"]


def reset() -> None:
    """Forget the probe result so the next :func:`get_kernels` re-probes."""
    _state.update(probed=False, kernels=None, status="unprobed")

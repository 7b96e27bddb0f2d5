"""Setuptools shim.

Metadata lives in pyproject.toml; this file adds the one thing the
declarative config cannot express: the *optional* native kernel
extension.  ``repro.native._ckernels`` is a plain C shared library (no
Python.h) loaded through ctypes, so ``optional=True`` keeps source
installs working on hosts without a toolchain — the native package then
falls back to an on-demand ``cc`` build at import time (and, without
any compiler, the ``native-batch`` backend is simply not registered).  Set ``REPRO_SKIP_CEXT=1`` to skip the build entirely (CI's
no-toolchain job uses it to prove the pure-python path).
"""

import os

from setuptools import setup

if os.environ.get("REPRO_SKIP_CEXT") == "1":
    ext_modules = []
else:
    from setuptools import Extension

    ext_modules = [
        Extension(
            "repro.native._ckernels",
            sources=["src/repro/native/_kernels.c"],
            optional=True,
            # -ffp-contract=off is load-bearing: fused multiply-adds
            # would break bit-exactness with the numpy reference.
            extra_compile_args=(
                []
                if os.name == "nt"
                else ["-O3", "-ffp-contract=off", "-fno-math-errno"]
            ),
        )
    ]

setup(ext_modules=ext_modules)

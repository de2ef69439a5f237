"""Thread count and version of the OpenBLAS that numpy loads, for provenance.

numpy wheels bundle OpenBLAS under ``numpy.libs``; its thread-count entry
point is reached through ctypes.  Other builds report ``None``.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# Symbol stems: scipy-openblas wheels prefix and suffix them, plain builds do not.
_STEMS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def _function(name: str):
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for stem in _STEMS:
            symbol = stem.format(name)
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def threads() -> int | None:
    getter = _function("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        return None

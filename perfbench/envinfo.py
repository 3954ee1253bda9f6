"""Print, as one JSON object, the numeric stack a lexmap process sees.

    python3 perfbench/envinfo.py

The benchmark runs this with the environment it gives every lexmap process,
so the recorded BLAS thread count is the one those processes use.
"""

from __future__ import annotations

import ctypes
import json
import platform
from importlib import metadata

import numpy as np


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked of the library itself."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()

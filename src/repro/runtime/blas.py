"""Read and set the thread count of the OpenBLAS that NumPy loaded.

B-Par runs every cell as a *sequential* task; the parallelism comes from
running many tasks at once, not from threading inside one GEMM.  A
worker process pinned to one core that still runs OpenBLAS's default
pool of host-sized threads oversubscribes that core, so the process
executor gives each worker a thread budget through :func:`set_blas_threads`
before its first BLAS call (docs/EXECUTORS.md, "BLAS thread budget").

The library is found through ``ctypes``: first in the ``numpy.libs``
directory a NumPy wheel bundles, then among the shared objects mapped
into this process (``/proc/self/maps``, for a NumPy linked against a
system OpenBLAS).  The scipy-openblas ILP64 symbols
(``scipy_openblas_{get,set}_num_threads64_``) are tried before the plain
``openblas_*`` names.  Where no OpenBLAS is found (another BLAS vendor,
a platform without ``/proc`` and no bundled library) every function here
returns ``None`` and changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Callable, List, NamedTuple, Optional

import numpy as np

#: (setter, getter) symbol pairs, most specific first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _candidate_paths() -> List[str]:
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "*openblas*.so*")))
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.rstrip("\n").split(" ")[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


class _OpenBLAS(NamedTuple):
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]
    #: ``blas_thread_shutdown_``, or None where the library lacks it
    shutdown: Optional[Callable[[], int]]


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBLAS]:
    """The loaded OpenBLAS's thread-control functions, or None."""
    for path in _candidate_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return _OpenBLAS(setter, getter, shutdown)
    return None


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS uses for one call, or None if none found."""
    lib = _openblas()
    return None if lib is None else int(lib.get_threads())


def set_blas_threads(n: int) -> Optional[int]:
    """Set the OpenBLAS thread count to ``n``; return the previous count.

    Process-global: it affects every thread of the calling process.  A
    no-op returning None when no OpenBLAS is found.
    """
    if n < 1:
        raise ValueError("BLAS thread count must be >= 1")
    lib = _openblas()
    if lib is None:
        return None
    previous = int(lib.get_threads())
    lib.set_threads(int(n))
    return previous


def stop_blas_pool() -> None:
    """Stop OpenBLAS's pool threads; the next call that needs more than
    one thread starts them again.

    For a freshly forked process only.  After a fork, OpenBLAS restarts
    its pool inside ``set_num_threads``, and the new idle threads spin on
    the caller's cores for a while even when the count just became 1.
    Must not run while another thread of this process is inside a BLAS
    call.  A no-op without OpenBLAS or without the (unprefixed)
    ``blas_thread_shutdown_`` symbol.
    """
    lib = _openblas()
    if lib is not None and lib.shutdown is not None:
        lib.shutdown()

"""Statistics, host facts and resource checks shared by every workload."""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

#: percentiles a tail is chosen from, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: env variables that set BLAS/OpenMP threads; recorded, never set
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SHM_DIR = "/dev/shm"


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    With fewer than ``2 * TAIL_MIN_BEYOND`` samples no percentile at or
    above the median qualifies; the tail is then the median, and the
    record says so through the percentile it names.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def smooth_percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` as the mean of the samples ranked within n/40 of it.

    Served batches come in a few shapes whose times form separate
    clusters.  Where a percentile falls between two clusters, the plain
    order statistic jumps from one to the other when the shape mix moves
    by a percent; the mean of a window of ranks around it moves smoothly.
    The window reaches at most half-way to the largest sample, so a tail
    stays a tail.  Below 40 samples this is the plain percentile.
    """
    xs = sorted(values)
    n = len(xs)
    k = round(p / 100.0 * (n - 1))
    half = min(n // 40, (n - 1 - k) // 2)
    if half == 0:
        return percentile(xs, p)
    return float(statistics.fmean(xs[k - half: k + half + 1]))


def p50(values: Sequence[float]) -> float:
    return smooth_percentile(values, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """``(value, label)`` of the tail percentile, label like ``"p95 of n=640"``."""
    p = tail_percentile(len(values))
    return smooth_percentile(values, p), f"p{p:g} of n={len(values)}"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def shm_segments() -> Set[str]:
    """This process's shared-memory segments now present.

    The process executor names each segment ``repro_mp_<manager pid>_<n>``;
    segments of other processes on the host are not this run's to count.
    """
    pattern = os.path.join(SHM_DIR, f"repro_mp_{os.getpid()}_*")
    return {os.path.basename(p) for p in glob.glob(pattern)}


def live_children() -> int:
    return len(multiprocessing.active_children())


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process that shared memory started.

    ``multiprocessing.shared_memory`` starts one tracker process per
    interpreter.  Left alone it outlives this process: it ends only after
    reading EOF from a pipe that closes at interpreter exit.  Closing that
    pipe here and waiting for the tracker means the benchmark leaves no
    process behind.  A no-op if no tracker was started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _openblas_threads() -> int:
    """Threads the BLAS that NumPy loaded will use, or -1 if not found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def host_facts() -> Dict[str, object]:
    """What the host and this process look like; stamped into every record."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pinning": "none: the benchmark sets no thread count and pins no core",
    }


def loadavg() -> List[float]:
    return list(os.getloadavg())


def matmul_gflops(m: int, k: int, n: int, budget_s: float = 2.0) -> float:
    """``np.matmul`` rate at ``(m, k) @ (k, n)`` float32, best of repeats.

    A roofline is the rate this host can reach, so the fastest repeat
    counts; a repeat slowed by another tenant of the host does not.  The
    budget outlasts the ~0.9 s after a process's first multi-threaded
    OpenBLAS call during which such calls ran ~100x slow on a 2-vCPU host.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    np.matmul(a, b)
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / min(times) / 1e9

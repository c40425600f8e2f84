"""Machine-readable benchmark records (``BENCH_*.json``).

Every wall-clock bench emits one JSON report so the perf trajectory of the
repo is recorded, diffable, and machine-checkable (``tools/check_bench_report.py``)
rather than scrolling by in pytest output.  Shape:

    {
      "bench": "<name>",            # selects the checker schema
      "schema_version": 1,
      "config": { ... },            # everything needed to re-run
      "results": { ... },           # medians/percentiles/speedups
      "host": { ... }               # host facts (:func:`host_facts`)
    }

Timing samples are summarised with the same percentile definition the
serving latency collectors use (:func:`repro.runtime.trace.percentile`).
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List, Sequence

import numpy as np

from repro.runtime.blas import blas_threads
from repro.runtime.mpexec import host_cores
from repro.runtime.trace import percentile

SCHEMA_VERSION = 1

#: Default directory for recorded baselines (override with REPRO_BENCH_DIR).
DEFAULT_BENCH_DIR = "benchmarks/baselines"


def summarize_times(samples: Sequence[float]) -> Dict[str, float]:
    """Median/p95/mean/min of a wall-clock sample set, in seconds."""
    xs = list(samples)
    return {
        "median_s": percentile(xs, 50),
        "p95_s": percentile(xs, 95),
        "mean_s": sum(xs) / len(xs),
        "min_s": min(xs),
        "n": len(xs),
    }


def bench_output_dir() -> str:
    """Where ``BENCH_*.json`` files land (``REPRO_BENCH_DIR`` overrides)."""
    return os.environ.get("REPRO_BENCH_DIR", DEFAULT_BENCH_DIR)


def host_facts() -> Dict:
    """The recording host as a record sees it.

    ``nproc`` counts the machine's cores, ``affinity_cores`` those this
    process may run on, and ``blas_threads`` is this process's OpenBLAS
    thread count (``None`` without OpenBLAS); ``numpy`` and ``python``
    are the NumPy and interpreter versions.  Recorded only; no gate
    requires the block yet.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count() or 1,
        "affinity_cores": len(host_cores()),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def write_bench_json(path: str, bench: str, config: Dict, results: Dict) -> Dict:
    """Assemble the report, stamp the host facts, write it to ``path``,
    and return it."""
    report = {
        "bench": bench,
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "results": results,
        "host": host_facts(),
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def bench_json_path(bench: str) -> str:
    """Canonical location of a bench's recorded baseline."""
    return os.path.join(bench_output_dir(), f"BENCH_{bench}.json")


def load_bench_json(path: str) -> Dict:
    """Load a ``BENCH_*.json`` report, validating its envelope.

    Raises ``ValueError`` on a missing/unsupported ``schema_version`` or a
    report that lacks the ``bench``/``config``/``results`` keys — the same
    contract the ``tools/check_*.py`` gates enforce, importable by tests
    and tools alike.
    """
    with open(path) as fh:
        report = json.load(fh)
    validate_schema_version(report, path)
    return report


def validate_schema_version(report: Dict, origin: str = "<report>") -> None:
    """Check the report envelope (bench/schema_version/config/results)."""
    if not isinstance(report, dict):
        raise ValueError(f"{origin}: report must be a JSON object")
    missing = [k for k in ("bench", "schema_version", "config", "results") if k not in report]
    if missing:
        raise ValueError(f"{origin}: missing top-level keys: {', '.join(missing)}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{origin}: schema_version {report['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )

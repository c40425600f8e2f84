"""The BLAS thread budget of process-executor workers.

Each forked worker is pinned to its share of the usable cores and sets
the loaded OpenBLAS to ``max(1, usable_cores // n_workers)`` threads
before its first BLAS call; the manager's own count never changes.
Placement and the budget both count cores from the affinity mask.
"""

import json
import os
import platform

import numpy as np
import pytest

from repro.harness.bench_json import write_bench_json
from repro.obs.publish import publish_mp_workers
from repro.obs.registry import MetricsRegistry
from repro.runtime.blas import blas_threads, set_blas_threads, stop_blas_pool
from repro.runtime.mpexec import (
    MultiprocessExecutor,
    blas_budget,
    plan_placement,
    worker_cores,
)
from tests.conftest import build_functional

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS loaded by NumPy: the budget is a no-op"
)

GAUGE = "repro_exec_mp_blas_threads"


def _usable_cores():
    return len(os.sched_getaffinity(0))


def _worker_gauges(registry):
    return {k: v for k, v in registry.flat().items() if k.startswith(GAUGE)}


@pytest.fixture
def manager_threads():
    """Hold the manager at a count no worker budget equals, so a budget
    leaking into the manager cannot go unnoticed on any host."""
    target = _usable_cores() + 1
    previous = set_blas_threads(target)
    yield target
    set_blas_threads(previous)


def _in_forked_child(check) -> bool:
    """Run ``check()`` in a forked child; True if it returned True."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        ok = False
        try:
            ok = bool(check())
        finally:
            os.write(w, b"1" if ok else b"0")
            os._exit(0)
    os.close(w)
    result = os.read(r, 1)
    os.close(r)
    os.waitpid(pid, 0)
    return result == b"1"


@needs_openblas
def test_set_and_get_round_trip_in_a_forked_child():
    def check():
        before = blas_threads()
        previous = set_blas_threads(1)
        mid = blas_threads()
        restored = set_blas_threads(before)
        return (previous, mid, restored, blas_threads()) == (before, 1, 1, before)

    assert _in_forked_child(check)


@needs_openblas
def test_stopping_the_pool_leaves_no_blas_thread_in_a_forked_child():
    """The pool that ``set_num_threads`` restarts after a fork is gone
    again, so no idle BLAS thread spins on a one-thread worker's core."""

    def check():
        set_blas_threads(1)
        stop_blas_pool()
        return len(os.listdir("/proc/self/task")) == 1

    assert _in_forked_child(check)


def test_set_rejects_a_zero_budget():
    with pytest.raises(ValueError):
        set_blas_threads(0)


@needs_openblas
@pytest.mark.parametrize("n_workers", [1, 2])
def test_workers_report_their_budget(n_workers, manager_threads):
    registry = MetricsRegistry()
    MultiprocessExecutor(n_workers, metrics=registry).run(build_functional().graph)
    expected = max(1, _usable_cores() // n_workers)
    assert _worker_gauges(registry) == {
        f'{GAUGE}{{worker="{w}"}}': float(expected) for w in range(n_workers)
    }


@needs_openblas
def test_manager_threads_unchanged_after_success_and_failure(manager_threads):
    MultiprocessExecutor(2).run(build_functional().graph)
    assert blas_threads() == manager_threads

    build = build_functional()
    victim = next(t for t in build.graph.tasks if t.fn is not None)

    def explode():
        raise ValueError("injected payload failure")

    victim.fn = explode
    with pytest.raises(ValueError, match="injected payload failure"):
        MultiprocessExecutor(2).run(build.graph)
    assert blas_threads() == manager_threads


def test_placement_and_budget_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2})
    assert plan_placement(3) == [0, 2, 0]
    assert [blas_budget(n) for n in (1, 2, 3)] == [2, 1, 1]
    assert worker_cores(1) == [(0, 2)]  # a two-thread budget owns two cores
    assert worker_cores(3) == [(0,), (2,), (0,)]


def test_explicit_topology_keeps_its_numbering(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2})
    assert plan_placement(3, (1, 2)) == [0, 1, 0]
    assert plan_placement(5, (2, 2)) == [0, 1, 2, 3, 0]
    assert worker_cores(1, (2, 2)) == [(0, 1)]


def test_publish_skips_the_gauge_without_openblas():
    registry = MetricsRegistry()
    publish_mp_workers(registry, {0: {"tasks": 3, "blas_threads": None},
                                  1: {"tasks": 2, "blas_threads": 1}})
    assert _worker_gauges(registry) == {f'{GAUGE}{{worker="1"}}': 1.0}


def test_bench_records_carry_host_facts(tmp_path):
    path = tmp_path / "BENCH_x.json"
    write_bench_json(str(path), "x", {"a": 1}, {"b": 2})
    host = json.loads(path.read_text())["host"]
    assert host["nproc"] == os.cpu_count()
    assert host["affinity_cores"] == _usable_cores()
    assert host["blas_threads"] == blas_threads()
    assert isinstance(host["blas_name"], str) and isinstance(host["blas_version"], str)
    assert host["numpy"] == np.__version__
    assert host["python"] == platform.python_version()

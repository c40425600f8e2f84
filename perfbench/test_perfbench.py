"""Self-tests of the benchmark at tiny shapes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_program()

from repro import BRNNSpec  # noqa: E402

import measure  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, covered, self_time_by_name, self_times  # noqa: E402

TINY = BRNNSpec(cell="lstm", input_size=8, hidden_size=4, num_layers=2,
                head="many_to_one", num_classes=3)


def tiny(name: str):
    """The named workload at a shape that runs in well under a second."""
    w = wl.WORKLOADS[name]
    if isinstance(w, wl.OpenLoop):
        return dataclasses.replace(w, spec=TINY, seq_range=(3, 10), setup_reps=2)
    return dataclasses.replace(w, spec=TINY, seq_len=6, batch=4, setup_reps=2)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES + run.MANUAL_WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end(name, trace):
    out, tracer = wl.run_workload(name, seed=3, seconds=0.3, trace=trace,
                                  workload=tiny(name))
    assert out.failures == []
    assert out.attempted >= 3
    for metric, _, _ in wl.END_TO_END:
        assert math.isfinite(out.metrics[metric]) and out.metrics[metric] > 0, metric
    if trace:
        assert [m for m, _, _ in wl.PER_LAYER] == list(out.layers)
        assert out.layers["runtime.run_ms"] > 0
        assert out.layers["kernels.cell.tasks"] > 0
        assert out.layers["shm.leaked_segments"] == 0
        assert {s.name for s in tracer.spans} >= {"graph_builder.build", "runtime.run"}
    assert not tracer.active  # wrappers are removed after the run


def test_warmup_span_times_only_the_explicit_warmup():
    # FleetServer.run re-warms the warm pool as a no-op; that call must not
    # be among the compile.warmup spans, or their median halves
    w = tiny("serve-poisson")
    out, tracer = wl.run_workload("serve-poisson", seed=3, seconds=0.3, trace=True,
                                  workload=w)
    warmups = tracer.select("compile.warmup", phase=None)
    assert len(warmups) == w.setup_reps
    assert all(s.parent is None for s in warmups)
    assert out.layers["compile.warmup_s"] > 0


def test_seed_fixes_closed_loop_inputs():
    w = tiny("infer-small")
    a, b, c = w.inputs(5), w.inputs(5), w.inputs(6)
    for (xa, la), (xb, lb) in zip(a, b):
        assert np.array_equal(xa, xb) and np.array_equal(la, lb)
    assert not np.array_equal(a[0][0], c[0][0])


def test_seed_fixes_open_loop_requests():
    w = tiny("serve-poisson")
    a, b, c = w.requests(5, 2.0), w.requests(5, 2.0), w.requests(6, 2.0)
    assert [(r.arrival_time, r.seq_len) for r in a] == [(r.arrival_time, r.seq_len) for r in b]
    assert all(np.array_equal(r.x, s.x) for r, s in zip(a, b))
    assert [r.arrival_time for r in a] != [r.arrival_time for r in c]


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None, "timed")


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),   # overlaps its sibling
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(4, 2.5, 4.0, parent=2),   # a grandchild: only its parent loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[1] == pytest.approx(2.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_tracer_nests_and_skips_untraced_roots():
    ns = types.SimpleNamespace()
    ns.inner = lambda: 7
    ns.outer = lambda: ns.inner() + 1
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer", root=True)
    tracer.phase = "timed"
    for i in range(4):
        tracer.begin_op(f"op{i}", i)
        assert ns.outer() == 8
    tracer.uninstall()
    assert ns.outer() == 8 and len(tracer.spans) == 6  # unwrapped: no new span
    outer = tracer.select("outer")
    inner = tracer.select("inner")
    assert len(outer) == 4 and len(inner) == 2  # inner spans on even ops only
    assert {s.parent for s in inner} == {outer[0].sid, outer[2].sid}
    totals = self_time_by_name(tracer.spans)
    assert set(totals) == {"outer", "inner"}
    assert totals["outer"] <= sum(s.duration for s in outer if s.traced)


def test_tail_percentile_leaves_ten_beyond():
    ladder = sorted(measure.TAIL_LADDER)
    for n in range(1, 3000):
        p = measure.tail_percentile(n)
        if n < 2 * measure.TAIL_MIN_BEYOND:
            assert p == 50.0
            continue
        assert n * (100 - p) / 100 >= measure.TAIL_MIN_BEYOND
        higher = [q for q in ladder if q > p]
        if higher:
            assert n * (100 - higher[0]) / 100 < measure.TAIL_MIN_BEYOND
    value, label = measure.tail(list(range(1000)))
    assert label == "p99 of n=1000" and value == pytest.approx(989.0)


def test_smooth_percentile_moves_smoothly_between_clusters():
    # two clusters whose boundary sits at the median: the plain median
    # jumps 1 -> 10 when one sample moves across; the windowed one does not
    lo = [1.0] * 399 + [10.0] * 401
    hi = [1.0] * 401 + [10.0] * 399
    assert measure.median(lo) - measure.median(hi) == 9.0
    assert abs(measure.p50(lo) - measure.p50(hi)) < 1.0
    assert measure.p50(list(range(5))) == 2
    # a tail's window stops half-way to the largest sample
    xs = list(range(1000))
    assert measure.smooth_percentile(xs, 99.0) == pytest.approx(989.0)
    assert measure.smooth_percentile(xs, 50.0) == pytest.approx(499.5, abs=0.5)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES + run.MANUAL_WORKLOADS) == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == wl.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == wl.PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "infer-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_process_workload_leaves_no_process_behind():
    """After ``main`` returns, the run has no child left, not even a zombie.

    Shared memory starts a resource tracker process that outlives the
    interpreter unless stopped; it is not a ``multiprocessing`` child, so
    only ``waitpid`` on every child sees it.
    """
    script = "\n".join([
        "import os, sys",
        f"sys.path.insert(0, {str(HERE)!r})",
        "import test_perfbench as t",
        "t.wl.WORKLOADS['infer-paper-process'] = t.tiny('infer-paper-process')",
        "rc = t.run.main(['--workload', 'infer-paper-process', '--seed', '1',",
        "                 '--seconds', '0.3', '--trace', '0'])",
        "try:",
        "    os.waitpid(-1, os.WNOHANG)",
        "    print('CHILD LEFT')",
        "except ChildProcessError:",
        "    print('NO CHILD')",
        "sys.exit(rc)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "NO CHILD"

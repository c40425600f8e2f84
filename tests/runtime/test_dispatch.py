"""The dispatch core every executor drives: one contract, four substrates.

:class:`~repro.runtime.executor.Dispatch` owns dependence release, plan
replay, hooks, trace records and the starvation check, so each property
here is asserted once per substrate — serial, threaded, simulated and
multiprocess — rather than trusted to four hand-kept copies.
"""

import sys
import threading

import pytest

import repro.runtime.executor as executor_mod
from repro.compile.compiler import compile_graph
from repro.obs.hooks import CallbackHooks
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.scheduler import FIFOScheduler, ReplayScheduler, ScheduleRecord
from repro.runtime.task import RegionSpace
from tests.conftest import build_functional, make_executor

SUBSTRATES = ["serial", "threaded", "sim", "process"]

#: seconds a starving run may take before the test calls it a hang
HANG_TIMEOUT_S = 30.0


def chain_ab() -> TaskGraph:
    """Two payload-free tasks, ``a -> b``, ordered by one inout region."""
    g = TaskGraph()
    token = RegionSpace().get("token", 8)
    g.add_task("a", None, inouts=[token])
    g.add_task("b", None, inouts=[token])
    return g


class DropB(FIFOScheduler):
    """A FIFO that loses task ``b`` when it is pushed."""

    def push(self, task, hint=None):
        if task.name != "b":
            super().push(task, hint)


def executor_with(substrate, scheduler, monkeypatch):
    """``substrate`` with ``scheduler`` injected (serial: in place of its FIFO)."""
    if substrate == "serial":
        monkeypatch.setattr(executor_mod, "FIFOScheduler", lambda n: scheduler)
    return make_executor(substrate, n_workers=2, scheduler=scheduler)


def run_bounded(fn):
    """Run ``fn`` in a daemon thread; fail instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # reported to the test below
            outcome["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(HANG_TIMEOUT_S)
    assert not t.is_alive(), f"run still going after {HANG_TIMEOUT_S} s: it hangs"
    return outcome


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize(
    "scheduler,remaining",
    [
        # b released before a: not a topological order of a -> b
        (lambda: ReplayScheduler(ScheduleRecord(order=[1, 0], names=["b", "a"])), 2),
        (lambda: DropB(), 1),
    ],
    ids=["replay-not-topological", "scheduler-drops-task"],
)
def test_starvation_raises_on_every_substrate(substrate, scheduler, remaining, monkeypatch):
    executor = executor_with(substrate, scheduler(), monkeypatch)
    outcome = run_bounded(lambda: executor.run(chain_ab()))
    err = outcome.get("error")
    assert isinstance(err, RuntimeError), outcome
    assert str(err) == f"scheduler starved with {remaining} tasks remaining"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_plan_replay_order_on_every_substrate(substrate):
    graph = build_functional(cell="lstm", head="many_to_one", training=False, mbs=1).graph
    plan = compile_graph(graph, n_workers=1)
    trace = make_executor(substrate, n_workers=1).run(graph, plan=plan)
    assert trace.execution_order() == plan.order
    assert trace.scheduler == "replay"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_substrate_contract(substrate):
    graph = build_functional(cell="gru", head="many_to_one", training=True, mbs=2).graph
    starts, ends = [], []
    executor = make_executor(substrate, n_workers=2)
    executor.hooks = CallbackHooks(
        on_task_start=lambda task, core, t: starts.append((task.tid, core)),
        on_task_end=lambda task, core, t: ends.append((task.tid, core)),
    )
    executor.metrics = registry = MetricsRegistry()
    trace = executor.run(graph)

    # one record per task, carrying the task's cost attributes
    assert sorted(r.tid for r in trace.records) == list(range(len(graph)))
    for r in trace.records:
        task = graph.tasks[r.tid]
        assert (r.flops, r.wss_bytes) == (task.flops, task.working_set_bytes())
    # start and end hooks fire once per task, on the core the record names
    placed = sorted((r.tid, r.core) for r in trace.records)
    assert sorted(starts) == placed
    assert sorted(ends) == placed
    # scheduler counters land on the trace and in the registry
    counters = trace.scheduler_counters
    assert counters.pops == len(graph)
    pops = registry.counter("repro_sched_pops_total", policy=trace.scheduler)
    assert pops.value == len(graph)


def test_threaded_release_under_contention():
    """Eight workers racing through fan-in joins, with thread switches
    forced often: every task runs exactly once, and no worker takes a
    momentarily empty queue, with work still in flight, for starvation."""
    g = TaskGraph()
    rs = RegionSpace()
    ran = []
    width, depth = 12, 8
    prev = []
    for level in range(depth):
        cur = [rs.get(("r", level, i), 8) for i in range(width)]
        for i, region in enumerate(cur):
            g.add_task(f"t{level}.{i}", (lambda n=(level, i): ran.append(n)),
                       ins=prev, outs=[region])
        prev = cur
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = run_bounded(lambda: make_executor("threaded", n_workers=8).run(g))
    finally:
        sys.setswitchinterval(old)
    assert "error" not in outcome, outcome
    assert sorted(ran) == [(lv, i) for lv in range(depth) for i in range(width)]
    assert outcome["result"].scheduler_counters.pops == len(g)

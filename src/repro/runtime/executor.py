"""The dispatch core and the executors that run task payloads for real.

:class:`Dispatch` is everything about one ``run(graph, plan)`` that does
not depend on where tasks execute: plan validation and the
replay-vs-dynamic scheduler choice, the root push, indegree release with
locality hints, hook calls, :class:`TaskRecord` creation, the starvation
check and the epilogue.  Every executor — these two,
:class:`~repro.runtime.simexec.SimulatedExecutor` and
:class:`~repro.runtime.mpexec.MultiprocessExecutor` — drives one
``Dispatch`` per run and keeps only its substrate: where and when a popped
task runs.

:class:`SerialExecutor` runs one worker inline: tasks one by one on core 0
in FIFO release order — the reference schedule used in correctness tests.

:class:`ThreadedExecutor` is the real-concurrency engine: ``n_workers``
threads pull from a shared scheduler under a lock.  RNN-cell payloads are
GEMM-dominated NumPy calls that release the GIL, so tasks overlap for real
on a multi-core host.  Dataflow determinism holds regardless of
interleaving: a task only ever reads regions whose writers completed, so
results are bitwise identical to the serial schedule.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.obs.hooks import ProfilingHooks
from repro.obs.publish import publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.scheduler import (
    FIFOScheduler,
    LocalityAwareScheduler,
    ReplayScheduler,
    Scheduler,
    resolve_scheduler,
)
from repro.runtime.task import Task
from repro.runtime.trace import ExecutionTrace, TaskRecord

SchedulerFactory = Callable[[int], Scheduler]


#: minimum fraction of the successor's working set that must overlap the
#: completed task's data for an affinity hint to be worth issuing — pinning
#: a multi-megabyte cell task to a core because it consumes one small
#: activation would collapse independent chains onto one core.
HINT_MIN_SHARED_FRACTION = 0.25


def locality_hint(completed: Task, successor: Task, core: int) -> Optional[int]:
    """Core hint for a successor that became ready when ``completed`` finished.

    Implements the paper's locality mechanism: run the successor on the
    same core as its predecessor when a *substantial* part of the
    successor's working set (e.g. the layer's weights, not just one small
    activation) was touched by the predecessor.
    """
    if not successor.shares_data_with(completed):
        return None
    ws = min(successor.working_set_bytes(), completed.working_set_bytes())
    if ws <= 0:
        return core
    completed_ids = completed.region_ids()
    shared = sum(r.nbytes for r in successor.regions() if id(r) in completed_ids)
    return core if shared >= HINT_MIN_SHARED_FRACTION * ws else None


class Dispatch:
    """Dependence state, scheduler and trace of one graph execution.

    The manager half of a manager/worker runtime (Bosch et al.,
    arXiv:2009.03066).  A substrate asks :meth:`pop` for a task for an
    idle core, reports its run through :meth:`started`, :meth:`record` and
    :meth:`done`, and ends with :meth:`finish`.  Not thread-safe: the
    threaded executor calls it under its one lock.

    With ``plan`` (a compiled :class:`~repro.compile.plan.CompiledPlan`
    for this graph) the run replays the plan's static release order over
    its transitive-reduced edges: fewer indegree decrements per completion
    and no locality hints.  Otherwise ``scheduler`` (anything
    :func:`resolve_scheduler` accepts) orders the ready tasks, and each
    released successor is hinted toward its predecessor's core.
    """

    def __init__(
        self,
        graph: TaskGraph,
        n_workers: int,
        scheduler,
        plan=None,
        hooks: Optional[ProfilingHooks] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if plan is not None:
            plan.validate(graph)
            self.scheduler = ReplayScheduler(plan.to_schedule_record(), n_workers)
            self._successors = plan.successors
            self._indegree = plan.indegree()
        else:
            self.scheduler = resolve_scheduler(scheduler, n_workers)
            self._successors = graph.successors
            self._indegree = list(graph.indegree)
        self.scheduler.hooks = hooks
        self._replay = plan is not None
        self._tasks = graph.tasks
        self._hooks = hooks
        self._metrics = metrics
        self.trace = ExecutionTrace(
            n_cores=n_workers, scheduler=getattr(self.scheduler, "name", "?")
        )
        self.remaining = len(graph.tasks)
        self.inflight = 0
        # Roots are identical under transitive reduction (a redundant edge
        # into t implies another retained path into t).
        for tid, deg in enumerate(self._indegree):
            if deg == 0:
                self.scheduler.push(graph.tasks[tid])

    def pop(self, core: int) -> Optional[Task]:
        """The next task for ``core``, or ``None`` to wait for a completion.

        Raises :class:`RuntimeError` when tasks remain, none is in flight
        and the scheduler yields nothing: no completion could ever release
        more work (a replay order that is not topological, a scheduler
        that lost a task).
        """
        task = self.scheduler.pop(core)
        if task is not None:
            self.inflight += 1
        elif not self.inflight and self.remaining:
            raise self._starved()
        return task

    def started(self, task: Task, core: int, t: float) -> None:
        if self._hooks is not None:
            self._hooks.on_task_start(task, core, t)

    def record(self, task: Task, core: int, start: float, end: float, **cost) -> None:
        """Append ``task``'s :class:`TaskRecord`; ``cost`` adds simulated extras."""
        self.trace.records.append(TaskRecord(
            tid=task.tid, name=task.name, kind=task.kind, core=core, start=start, end=end,
            flops=task.flops, wss_bytes=task.working_set_bytes(), **cost,
        ))

    def done(self, task: Task, core: int, t: float) -> int:
        """Retire ``task``, finished on ``core`` at ``t``, and push every
        successor it made ready; returns how many it released."""
        if self._hooks is not None:
            self._hooks.on_task_end(task, core, t)
        self.inflight -= 1
        self.remaining -= 1
        indegree, tasks, push = self._indegree, self._tasks, self.scheduler.push
        woke = 0
        for succ_tid in self._successors[task.tid]:
            indegree[succ_tid] -= 1
            if indegree[succ_tid] == 0:
                succ = tasks[succ_tid]
                push(succ, hint=None if self._replay else locality_hint(task, succ, core))
                woke += 1
        return woke

    def finish(self) -> ExecutionTrace:
        """Check every task ran, then attach and publish the scheduler counters."""
        if self.remaining:
            raise self._starved()
        trace = self.trace
        trace.scheduler_counters = counters = self.scheduler.counters
        publish_run(self._metrics, trace, counters, trace.scheduler)
        return trace

    def _starved(self) -> RuntimeError:
        return RuntimeError(f"scheduler starved with {self.remaining} tasks remaining")


class SerialExecutor:
    """Run tasks one by one on core 0 in FIFO release order, or replay a plan."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
    ) -> None:
        self.n_workers = 1
        self.metrics = metrics
        self.hooks = hooks

    def run(self, graph: TaskGraph, plan=None) -> ExecutionTrace:
        d = Dispatch(graph, 1, FIFOScheduler, plan, self.hooks, self.metrics)
        epoch = time.perf_counter()
        while d.remaining:
            task = d.pop(0)  # never None: with nothing in flight, pop raises
            start = time.perf_counter() - epoch
            d.started(task, 0, start)
            task.run()
            end = time.perf_counter() - epoch
            d.record(task, 0, start, end)
            d.done(task, 0, end)
        return d.finish()


class ThreadedExecutor:
    """Pool of worker threads draining a dependence-aware ready queue.

    ``scheduler_factory`` may be a factory callable, a policy name
    (``"fifo"``/``"fuzz:7"``/…), or a ready :class:`Scheduler` instance —
    the latter lets the race-checking harness inject a primed
    ``RecordingScheduler``/``ReplayScheduler`` (single-use: pass a fresh
    instance per ``run``).
    """

    def __init__(
        self,
        n_workers: int,
        scheduler_factory: SchedulerFactory = LocalityAwareScheduler,
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._scheduler_factory = scheduler_factory
        self.metrics = metrics
        self.hooks = hooks

    def run(self, graph: TaskGraph, plan=None) -> ExecutionTrace:
        """Execute ``graph``, replaying ``plan`` if given (see :class:`Dispatch`)."""
        d = Dispatch(
            graph, self.n_workers, self._scheduler_factory, plan, self.hooks, self.metrics
        )
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        errors: list = []
        epoch = time.perf_counter()

        def worker(core: int) -> None:
            while True:
                with lock:
                    while True:
                        if not d.remaining or errors:
                            work_available.notify_all()
                            return
                        try:
                            task = d.pop(core)
                        except BaseException as exc:  # replay mismatch, starvation
                            errors.append(exc)
                            work_available.notify_all()
                            return
                        if task is not None:
                            break
                        work_available.wait()
                start = time.perf_counter() - epoch
                d.started(task, core, start)
                try:
                    task.run()
                except BaseException as exc:  # surface payload failures
                    with lock:
                        errors.append(exc)
                        work_available.notify_all()
                    return
                end = time.perf_counter() - epoch
                with lock:
                    d.record(task, core, start, end)
                    if d.done(task, core, end) or not d.remaining:
                        work_available.notify_all()

        threads = [
            threading.Thread(target=worker, args=(c,), daemon=True)
            for c in range(self.n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return d.finish()

"""The executor protocol: what every execution substrate implements.

The engines (:class:`~repro.core.bpar.BParEngine`,
:class:`~repro.core.bseq.BSeqEngine`,
:class:`~repro.serve.engine.InferenceEngine`) are substrate-agnostic: they
hold "an executor" and call :meth:`Executor.run`.  This module names that
contract — extracted from the original thread-only implementation so the
multiprocess substrate (:mod:`repro.runtime.mpexec`) could be added with
zero engine changes — and the error vocabulary shared across substrates.

Implementations: :class:`~repro.runtime.executor.SerialExecutor`,
:class:`~repro.runtime.executor.ThreadedExecutor`,
:class:`~repro.runtime.simexec.SimulatedExecutor`,
:class:`~repro.runtime.mpexec.MultiprocessExecutor`.  See
``docs/EXECUTORS.md`` for the substrate comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # typing only — no runtime import cycle
    from repro.compile.plan import CompiledPlan
    from repro.runtime.depgraph import TaskGraph
    from repro.runtime.trace import ExecutionTrace


@runtime_checkable
class Executor(Protocol):
    """A thing that executes task graphs.

    ``n_workers`` is the concurrency width (threads, processes, or
    simulated cores); :meth:`run` executes every task of ``graph``
    respecting its dependences and returns the
    :class:`~repro.runtime.trace.ExecutionTrace`.  ``plan`` — a
    :class:`~repro.compile.plan.CompiledPlan` for this exact graph —
    replays a compiled release order instead of resolving dependences
    dynamically; every substrate honours it through the shared
    :class:`~repro.runtime.executor.Dispatch` core.
    """

    n_workers: int

    def run(
        self, graph: "TaskGraph", plan: Optional["CompiledPlan"] = None
    ) -> "ExecutionTrace":  # pragma: no cover - protocol signature
        ...


class ExecutorError(RuntimeError):
    """Base class for substrate-level execution failures (as opposed to
    payload exceptions, which every substrate re-raises unchanged)."""


class WorkerCrashError(ExecutorError):
    """A worker process died without reporting a result.

    Raised by :class:`~repro.runtime.mpexec.MultiprocessExecutor` when a
    worker's process sentinel fires mid-run (SIGKILL, OOM-kill, hard
    crash).  Names the worker and the in-flight task so the failure is
    attributable; the executor guarantees the remaining workers are torn
    down and every shared-memory segment is unlinked before this
    propagates.
    """

    def __init__(self, worker: int, pid: Optional[int], task_name: Optional[str]) -> None:
        self.worker = worker
        self.pid = pid
        self.task_name = task_name
        doing = f"while running task {task_name!r}" if task_name else "while idle"
        super().__init__(f"worker {worker} (pid {pid}) died {doing}")

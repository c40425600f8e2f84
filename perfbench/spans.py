"""In-memory spans around the public entry points of each layer.

The benchmark traces the program from outside: :class:`Tracer` replaces a
few module and class attributes with wrappers that record a span (name,
start, end, parent, tag) around each call, and restores them on
:meth:`Tracer.uninstall`.  Spans stay in memory and are written out once
the run ends.  Nothing inside ``src/`` changes.

Each operation (one batch) always gets its root span.  The spans inside
it are switched per operation (:meth:`Tracer.begin_op`): in the timed
phase only even-numbered operations record them, so one traced run also
times untraced operations and can report its own overhead.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Any
    phase: str
    #: what the wrapped call returned, kept only where a layer metric
    #: needs it (the ExecutionTrace of an executor run)
    result: Any = field(default=None, repr=False)
    #: worker count of the executor that ran, for ``runtime.run`` spans
    workers: int = 0
    #: inner spans were recorded during this span's operation
    traced: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "tag": self.tag,
            "phase": self.phase, "traced": self.traced,
        }


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time (s) per span name, over traced operations only.

    The root span of an untraced operation has no children recorded, so
    its whole duration would read as self time; it is left out.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        if s.traced:
            out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return dict(sorted(out.items()))


class Tracer:
    """Records spans from wrappers it installs; inactive until installed.

    One tracer per run, used from the thread that drives the engine: the
    wrapped entry points are all called from that thread (executor
    workers only run task payloads).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.enabled = False
        self.phase = "setup"
        self.tag: Any = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- switching -------------------------------------------------------------

    def begin_op(self, op: Any, index: int) -> bool:
        """Start operation ``op``; returns whether its spans are recorded.

        Set-up operations are always traced; timed ones on even ``index``.
        """
        self.tag = op
        self.enabled = self.active and (self.phase == "setup" or index % 2 == 0)
        return self.enabled

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, root=False, keep_result=False,
             workers=0, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``.

        A ``root`` span (one whole operation) is recorded whenever the
        tracer is installed; any other span only while :attr:`enabled`.
        """
        if not (self.enabled or (root and self.active)):
            return fn(*args, **kwargs)
        sid = len(self.spans)
        span = Span(
            sid, name, time.perf_counter(), 0.0,
            self._stack[-1] if self._stack else None, self.tag, self.phase,
            workers=workers, traced=self.enabled,
        )
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if keep_result:
            span.result = result
        return result

    def wrap(self, owner: Any, attr: str, name: str, *,
             before: Optional[Callable] = None, root: bool = False,
             executor: bool = False) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`uninstall`.

        ``before(args)`` runs ahead of the span (it may call
        :meth:`begin_op`).  ``executor=True`` marks an ``Executor.run``
        method: its span keeps the returned trace and the worker count.
        """
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if executor:
                return self.call(name, orig, *args, keep_result=True,
                                 workers=args[0].n_workers, **kwargs)
            return self.call(name, orig, *args, root=root, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.active = self.enabled = False

    # -- queries ---------------------------------------------------------------

    def select(self, name: str, phase: Optional[str] = "timed",
               traced_only: bool = False) -> List[Span]:
        return [s for s in self.spans
                if s.name == name and (phase is None or s.phase == phase)
                and (s.traced or not traced_only)]

    def durations(self, name: str, phase: Optional[str] = "timed",
                  traced_only: bool = False) -> List[float]:
        return [s.duration for s in self.select(name, phase, traced_only)]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_json() for s in self.spans], fh)

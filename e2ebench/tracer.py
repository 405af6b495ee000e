"""Outside-in span tracer for the traced benchmark run.

The tracer wraps named public functions at the attribute their caller
looks up (a class attribute such as ``SchedulerState.claim_run`` or a
module attribute such as ``repro.runtime.mp.engine.encode``) and puts
every original back on :meth:`Tracer.uninstall`.  Nothing in the program
is edited: the spans sit at layer boundaries, recorded from outside.

Each span records its id, its parent span id (0 for a root), name, start,
end, the recording thread, and an optional integer tag (the phase, when
the arguments or the result carry one).  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "union_length"]

_MISSING = object()

# A tag function sees the call's positional arguments and its result and
# returns an int to store on the span, or None.
TagFn = Callable[[Tuple[Any, ...], Any], Optional[int]]


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    tag: Optional[int]


class Tracer:
    """Wraps functions in place and records one :class:`Span` per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        # (owner, attribute, original or _MISSING when inherited)
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(
        self, name: str, func: Callable[..., Any], tag: Optional[TagFn] = None
    ) -> Callable[..., Any]:
        """*func* wrapped so that every call records a span *name*."""
        spans = self.spans
        clock = self.clock
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        sid,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        tag(args, result) if tag is not None else None,
                    )
                )

        return wrapper

    def wrap(
        self, owner: Any, attr: str, name: str, tag: Optional[TagFn] = None
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until uninstall."""
        original = vars(owner).get(attr, _MISSING)
        func = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, func, tag))

    def install(self, targets: Iterable[Tuple[Any, str, str, Optional[TagFn]]]) -> None:
        """Wrap every ``(owner, attr, name, tag)`` target."""
        try:
            for owner, attr, name, tag in targets:
                self.wrap(owner, attr, name, tag)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        del self.spans[: len(taken)]
        return taken


def union_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start)
        - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }

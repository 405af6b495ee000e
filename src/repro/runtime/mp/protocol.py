"""The coordinator <-> worker wire protocol.

Everything that crosses a process boundary is one of the message types
below, pickled into a bytes frame by :func:`encode` and restored by
:func:`decode`:

* :class:`RunMsg` — coordinator -> worker: a claimed run (v, [p..p+k])
  from :meth:`~repro.core.state.SchedulerState.claim_run`; a single
  pair is a run of length 1.  The vertex id, name and successor tuple
  ride the frame once; the per-member payload of the *prepared*
  snapshot (phase, latched inputs, changed set, external input) rides
  as four column tuples indexed by member, never as live engine
  objects, so a frame is self-contained and replayable.  Values
  repeated across members (latched inputs that did not change) are
  pickled once and back-referenced — see :class:`Interner`.
* :class:`ResultBatch` — worker -> coordinator: the run's results as
  column tuples (phase, outputs, records, suppressed successors), one
  entry per committed member in phase order.  When a member fails,
  ``error`` names its phase and the columns hold only the members
  before it; ``skipped`` lists the phases that were never executed, so
  the coordinator can commit the survivors and requeue the tail before
  surfacing the error.
* :class:`ShutdownMsg` — coordinator -> worker: drain and exit; with
  ``collect_state=True`` the worker answers with a :class:`FinalStateMsg`
  carrying a :meth:`~repro.core.vertex.Vertex.snapshot_delta` per cached
  behaviour (relative to its spawn-time state), so the coordinator can
  re-synchronise its own program state by paying only for what changed,
  and the count of members it executed, which the coordinator checks
  against the members it committed for that worker.
* :class:`WorkerCrashMsg` — worker -> coordinator: the worker loop itself
  failed (bad frame, unpicklable state, ...).  Distinct from a vertex
  failure so the engine can report the right root cause.

Framing is explicit (we pickle to bytes ourselves, then put the bytes on
a ``multiprocessing`` queue) so both directions can be metered: the
engine reports ``serialization_bytes`` per traffic class and
``ipc_round_trips`` in :attr:`RunResult.stats`.  :class:`WireStats`
accumulates those counters coordinator-side; :func:`traffic_class_of`
maps a decoded worker message to its class, so every received frame is
attributed to exactly one class and the per-class byte counts sum to the
actual pipe traffic.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "RunMsg",
    "ResultBatch",
    "ShutdownMsg",
    "FinalStateMsg",
    "WorkerCrashMsg",
    "encode",
    "decode",
    "traffic_class_of",
    "Interner",
    "WireStats",
]


@dataclass(frozen=True, slots=True)
class RunMsg:
    """A claimed run (v, [p..p+k]): members execute back-to-back
    worker-side, in the order given (ascending phase).

    The last four fields are columns indexed by member: member *i* is
    phase ``phases[i]`` with latched ``inputs[i]`` (predecessor name ->
    value), the predecessor names in ``changed[i]`` whose value changed
    at that phase, and the source's external ``phase_inputs[i]`` (``None``
    for non-sources).  A zero-member run is legal on the wire (the worker
    answers with an empty :class:`ResultBatch`); the engine never sends
    one.
    """

    vertex: int
    name: str
    successors: Tuple[str, ...]
    phases: Tuple[int, ...] = ()
    inputs: Tuple[Dict[str, Any], ...] = ()
    changed: Tuple[Tuple[str, ...], ...] = ()
    phase_inputs: Tuple[Any, ...] = ()


@dataclass(frozen=True, slots=True)
class ResultBatch:
    """The results of one :class:`RunMsg`, as columns in member order.

    Member *i* executed phase ``phases[i]`` and produced ``outputs[i]``
    (successor name -> value) and ``records[i]``; ``suppressed[i]`` names
    the successors whose outputs the worker elided under change
    suppression — the values never ride the wire; the coordinator uses
    the names for latch-consistent accounting and to mark the
    downstream pairs as elision candidates.  ``busy_s`` is the
    worker-measured ``on_execute`` time of the whole run.

    ``error`` is ``None`` on success, else ``(phase, message)`` of the
    first member that failed (its execution raised, or its result did
    not pickle); the columns then hold only the members before it — the
    run's survivors, which the coordinator commits before re-raising the
    error as :class:`~repro.errors.VertexExecutionError`.  ``skipped``
    lists the phases of members that were *not* executed because an
    earlier member failed; the coordinator requeues them.
    """

    worker_id: int
    vertex: int
    phases: Tuple[int, ...] = ()
    outputs: Tuple[Dict[str, Any], ...] = ()
    records: Tuple[Tuple[Any, ...], ...] = ()
    suppressed: Tuple[Tuple[str, ...], ...] = ()
    busy_s: float = 0.0
    error: Optional[Tuple[int, str]] = None
    skipped: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class ShutdownMsg:
    """Drain and exit; optionally report final vertex state."""

    collect_state: bool = True


@dataclass(frozen=True, slots=True)
class FinalStateMsg:
    """The worker's parting report: per-vertex state deltas (when
    requested), cumulative busy seconds, and executed-member count.

    ``deltas`` maps vertex name to a
    :meth:`~repro.core.vertex.Vertex.snapshot_delta` payload taken
    against the behaviour's spawn-time state — which is exactly the state
    the coordinator's own copy still holds, because the compute step only
    ever runs worker-side.  ``executed`` counts every member the worker
    ran; on a graceful drain it must equal the members the coordinator
    committed for this worker (the cross-process exactly-once check).
    """

    worker_id: int
    deltas: Dict[str, Any] = field(default_factory=dict)
    busy_s: float = 0.0
    executed: int = 0


@dataclass(frozen=True, slots=True)
class WorkerCrashMsg:
    """The worker loop itself failed (not a vertex computation)."""

    worker_id: int
    message: str


def encode(msg: object) -> bytes:
    """Pickle *msg* into a self-contained frame."""
    return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)


def decode(frame: bytes) -> object:
    """Restore a frame produced by :func:`encode`.

    Frames are whole pickle blobs: a truncated ("partially read") frame
    raises ``pickle.UnpicklingError`` / ``EOFError`` rather than yielding
    a corrupt message, which the worker loop reports as a
    :class:`WorkerCrashMsg`.
    """
    return pickle.loads(frame)


_MISSING = object()  # interner miss sentinel (a stored value may be None)


class Interner:
    """Canonicalise repeated equal values so one frame pickles them once.

    ``pickle`` memoizes by object *identity*: two equal-but-distinct
    floats cost full payload twice, the same float object twice costs a
    2-byte back-reference.  The interner maps hashable values to one
    canonical instance (keyed by ``(type, value)`` so ``1`` and ``1.0``
    never alias), so repeated message values — latched inputs that did
    not change between phases, successor tuples, recurring outputs —
    become identical objects and collapse to memo references inside a
    :class:`RunMsg` / :class:`ResultBatch` frame.

    Unhashable values pass through untouched.  The table is bounded in
    *both* dimensions — entry count and retained bytes — because a long
    serve run can hit the entry cap never (few distinct keys) while each
    retained value is large, or vice versa.  On overflow of either bound
    the table is cleared and ``resets`` is incremented (the memoization
    is an encoding optimisation, never a correctness requirement, so a
    reset only costs re-misses).  Retained bytes are metered with
    ``sys.getsizeof`` of the canonical value at insert time: a shallow
    measure, but the dominant payloads (floats, strings, tuples of
    interned scalars) are flat, and the point of the bound is that the
    memo can no longer grow without limit across a long run.
    """

    __slots__ = (
        "_table",
        "max_entries",
        "max_bytes",
        "hits",
        "misses",
        "resets",
        "_approx_bytes",
    )

    def __init__(
        self, max_entries: int = 4096, max_bytes: int = 1 << 22
    ) -> None:
        self._table: Dict[Any, Any] = {}
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.resets = 0
        self._approx_bytes = 0

    def intern(self, value: Any) -> Any:
        try:
            key = (type(value), value)
            canonical = self._table.get(key, _MISSING)
        except TypeError:  # unhashable: pass through
            return value
        if canonical is not _MISSING:
            self.hits += 1
            return canonical
        size = sys.getsizeof(value)
        if (
            len(self._table) >= self.max_entries
            or self._approx_bytes + size > self.max_bytes
        ):
            self._table.clear()
            self._approx_bytes = 0
            self.resets += 1
        self._table[key] = value
        self._approx_bytes += size
        self.misses += 1
        return value

    @property
    def approx_bytes(self) -> int:
        """Shallow byte estimate of the retained canonical values."""
        return self._approx_bytes

    def summary(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._table),
            "resets": self.resets,
            "approx_bytes": self._approx_bytes,
        }


def traffic_class_of(msg: object) -> str:
    """The :class:`WireStats` class of a decoded worker->coordinator
    message (the coordinator->worker classes are chosen at the send
    site, where the type is statically known)."""
    if isinstance(msg, FinalStateMsg):
        return "final_state"
    # ResultBatch and WorkerCrashMsg share the result class.
    return "results"


class WireStats:
    """Byte and message counters per traffic class (coordinator side).

    Classes: ``warmup`` (behaviour blobs shipped at spawn), ``tasks``
    (:class:`RunMsg` frames), ``results`` (:class:`ResultBatch` frames,
    incl. crash reports), ``final_state`` (shutdown replies),
    ``shutdown`` (the drain requests).  Every frame that crosses a queue
    is counted under exactly one class, so ``total_bytes`` equals the
    actual pipe traffic plus the spawn-time warmup blobs.
    """

    CLASSES = ("warmup", "tasks", "results", "final_state", "shutdown")

    def __init__(self) -> None:
        self.bytes: Dict[str, int] = {c: 0 for c in self.CLASSES}
        self.messages: Dict[str, int] = {c: 0 for c in self.CLASSES}

    def count(self, traffic_class: str, frame: bytes) -> None:
        self.bytes[traffic_class] += len(frame)
        self.messages[traffic_class] += 1

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            c: {"messages": self.messages[c], "bytes": self.bytes[c]}
            for c in self.CLASSES
        }
        out["total_bytes"] = sum(self.bytes.values())
        return out

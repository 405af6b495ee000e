"""The worker-process main loop.

Each worker owns a **warm cache** of the vertex behaviours assigned to it
(sticky assignment: a vertex's every phase executes on the same worker),
unpickled once at startup from the blob the coordinator shipped.  Because
the scheduler serialises a vertex's phases — ``(v, p+1)`` becomes ready
only after ``(v, p)`` completed — the cached behaviour's state evolves
exactly as it would in the serial oracle, with no state round-tripping
per task.

The loop mirrors the computation thread of Listing 1 with the critical
sections removed: dequeue a :class:`~.protocol.RunMsg`, execute its
members in phase order against the shipped column snapshots, and answer
with one column :class:`~.protocol.ResultBatch` of outputs + records;
output values recurring across the run are interned so the reply frame
pickles them once.  All scheduling-set bookkeeping stays
coordinator-side, under the coordinator's lock.

At startup the worker snapshots each behaviour's spawn-time state; the
shutdown reply carries :meth:`~repro.core.vertex.Vertex.snapshot_delta`
payloads against those baselines, so re-synchronising the coordinator
costs bytes proportional to what actually changed.

A vertex exception stops the run: the reply carries the members before
it, ``error`` for it, and the remaining phases as skipped (the
coordinator commits the survivors, requeues the tail, then re-raises the
error as :class:`~repro.errors.VertexExecutionError`); a failure of the
loop itself becomes a :class:`~.protocol.WorkerCrashMsg`.  When a reply
fails to pickle, the worker cuts it at the first member whose result
does not pickle: the members before it ship and commit, the poisoned
member becomes the error.  Either way the worker keeps draining its
task queue until told to shut down, so the coordinator never blocks on
a dead letter.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ...core.ports import stable_equal
from ...core.vertex import Vertex, VertexContext
from .protocol import (
    FinalStateMsg,
    Interner,
    ResultBatch,
    RunMsg,
    ShutdownMsg,
    WorkerCrashMsg,
    decode,
    encode,
)

__all__ = ["worker_main"]

_MISSING = object()


class _SuppressFilter:
    """Worker-side change suppression: elide value-equal outputs before
    they are ever serialized.

    Vertices are sticky to one worker and execute their phases in order,
    so this cache of the last value shipped per ``(vertex, successor)``
    edge mirrors the coordinator's edge latch exactly — the filter and
    the coordinator's commit-time check agree by construction (the
    coordinator's check remains as an idempotent backstop).

    *elidable* maps a vertex name to the successor names whose pairs the
    coordinator proved elidable (:meth:`PairRuntime._compute_elide_ok`);
    outputs to any other successor always ship.
    """

    __slots__ = ("_elidable", "_last")

    def __init__(self, elidable: Dict[str, FrozenSet[str]]) -> None:
        self._elidable = elidable
        self._last: Dict[Tuple[str, str], Any] = {}

    def filter(
        self, name: str, outputs: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
        eligible = self._elidable.get(name)
        if not outputs or not eligible:
            return outputs, ()
        kept: Dict[str, Any] = {}
        suppressed: List[str] = []
        for succ, value in outputs.items():
            if succ in eligible:
                key = (name, succ)
                prev = self._last.get(key, _MISSING)
                if prev is not _MISSING and stable_equal(prev, value):
                    suppressed.append(succ)
                    continue
                self._last[key] = value
            kept[succ] = value
        return kept, tuple(suppressed)


def _execute_run(
    worker_id: int,
    behaviors: Dict[str, Vertex],
    run: RunMsg,
    interner: Interner,
    suppress_filter: "_SuppressFilter | None" = None,
) -> ResultBatch:
    """Execute *run*'s members in phase order.

    The first failing member stops the run: its phase becomes the
    reply's ``error`` and the later members are reported in ``skipped``
    (for coordinator requeue) without advancing this worker's state, so
    the failure is attributed to its exact phase.
    """
    name = run.name
    intern = interner.intern
    phases: List[int] = []
    outputs: List[Dict[str, Any]] = []
    records: List[Tuple[Any, ...]] = []
    suppressed: List[Tuple[str, ...]] = []
    error: Optional[Tuple[int, str]] = None
    busy_s = 0.0
    for p, inputs, changed, phase_input in zip(
        run.phases, run.inputs, run.changed, run.phase_inputs
    ):
        ctx = VertexContext(
            name=name,
            phase=p,
            inputs=inputs,
            changed=changed,
            successors=run.successors,
            phase_input=phase_input,
        )
        started = time.perf_counter()
        try:
            ctx.finish(behaviors[name].on_execute(ctx))
        except Exception as exc:  # noqa: BLE001 - becomes VertexExecutionError
            error = (p, str(exc))
            break
        finally:
            busy_s += time.perf_counter() - started
        outs = ctx.outputs
        supp: Tuple[str, ...] = ()
        if suppress_filter is not None:
            outs, supp = suppress_filter.filter(name, outs)
        phases.append(p)
        outputs.append({k: intern(v) for k, v in outs.items()})
        records.append(tuple(intern(r) for r in ctx.records))
        suppressed.append(supp)
    return ResultBatch(
        worker_id=worker_id,
        vertex=run.vertex,
        phases=tuple(phases),
        outputs=tuple(outputs),
        records=tuple(records),
        suppressed=tuple(suppressed),
        busy_s=busy_s,
        error=error,
        skipped=run.phases[len(phases) + 1 :] if error is not None else (),
    )


def _describe_pickle_failure(exc: BaseException) -> str:
    """Render *exc* with its explicit cause chain, oldest last.

    The downgraded error entry is all the coordinator ever sees of the
    poison result, so the original exception (and whatever it was raised
    from) must survive the trip in string form.
    """
    parts: List[str] = []
    seen: set[int] = set()
    cur: BaseException | None = exc
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        parts.append(f"{type(cur).__name__}: {cur}")
        cur = cur.__cause__ or cur.__context__
    return " <- ".join(parts)


def _encode_result_batch(batch: ResultBatch) -> bytes:
    """Encode a run's reply, salvaging its prefix if pickling fails.

    A member whose outputs or records do not pickle would poison the
    whole frame; instead the reply is cut at the first such member,
    which becomes the ``error`` (carrying the original pickling
    exception — the coordinator raises a
    :class:`~repro.errors.VertexExecutionError` for it), and the members
    before it ship intact.  Members executed after the poisoned one are
    dropped, never moved into ``skipped``: the coordinator re-dispatches
    skipped phases, and a member that already ran on this worker must
    not run a second time (the warm-cached behaviour state has already
    advanced).  ``skipped`` therefore passes through exactly as the run
    loop built it — phases that were genuinely never executed.
    """
    try:
        return encode(batch)
    except Exception:  # noqa: BLE001 - salvage the prefix
        for i, p in enumerate(batch.phases):
            try:
                encode((batch.outputs[i], batch.records[i]))
            except Exception as exc:  # noqa: BLE001 - the poisoned member
                return encode(
                    replace(
                        batch,
                        phases=batch.phases[:i],
                        outputs=batch.outputs[:i],
                        records=batch.records[:i],
                        suppressed=batch.suppressed[:i],
                        error=(
                            p,
                            "result not picklable: "
                            + _describe_pickle_failure(exc),
                        ),
                    )
                )
        raise


def worker_main(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    behaviors_blob: bytes,
    config_blob: Optional[bytes] = None,
) -> None:
    """Entry point of one worker process.

    *behaviors_blob* is the pickled ``{vertex name: Vertex}`` mapping for
    this worker's assigned vertices — the warm cache.  *config_blob*, if
    present, pickles the run configuration dict; currently the change-
    suppression setting (``{"suppress": bool, "elidable_succs": {vertex
    name: frozenset of successor names}}``).  Queue elements are protocol
    frames (bytes); see :mod:`~repro.runtime.mp.protocol`.
    """
    try:
        behaviors: Dict[str, Vertex] = decode(behaviors_blob)
        baselines: Dict[str, Any] = {
            name: beh.snapshot_state() for name, beh in behaviors.items()
        }
        suppress_filter: Optional[_SuppressFilter] = None
        if config_blob is not None:
            config = decode(config_blob)
            if config.get("suppress"):
                suppress_filter = _SuppressFilter(
                    dict(config.get("elidable_succs") or {})
                )
        interner = Interner()
        busy_s = 0.0
        executed = 0
        while True:
            msg = decode(task_queue.get())
            if isinstance(msg, ShutdownMsg):
                deltas: Dict[str, Any] = {}
                if msg.collect_state:
                    deltas = {
                        name: beh.snapshot_delta(baselines[name])
                        for name, beh in behaviors.items()
                    }
                result_queue.put(
                    encode(
                        FinalStateMsg(
                            worker_id=worker_id,
                            deltas=deltas,
                            busy_s=busy_s,
                            executed=executed,
                        )
                    )
                )
                return
            batch = _execute_run(
                worker_id, behaviors, msg, interner, suppress_filter
            )
            busy_s += batch.busy_s
            executed += len(batch.phases) + (batch.error is not None)
            result_queue.put(_encode_result_batch(batch))
    except (KeyboardInterrupt, SystemExit):  # terminate() / Ctrl-C paths
        raise
    except BaseException as exc:  # noqa: BLE001 - reported to coordinator
        try:
            result_queue.put(
                encode(
                    WorkerCrashMsg(
                        worker_id=worker_id,
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
            )
        except Exception:  # pragma: no cover - queue already unusable
            pass

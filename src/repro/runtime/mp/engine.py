"""The process-parallel engine: coordinator loop + worker processes.

:class:`ProcessEngine` is the paper's algorithm with the compute step
remoted.  One **coordinator** (this process) owns every shared data
structure — the :class:`~repro.core.state.SchedulerState`, the edge
store, the records — and runs both of the paper's loops inline:

* Listing 2 (environment): start the next phase whenever pacing and flow
  control allow;
* Listing 1 (computation), split at the prepare/compute/commit seam of
  :class:`~repro.core.program.PairRuntime`: *prepare* ready runs under
  the lock, ship the snapshots to each vertex's sticky worker
  (:class:`~repro.runtime.mp.lifecycle.ProcessWorkerPool`), and *commit*
  the returned outputs under the lock.

Every dispatch is a claimed run: each ready pair is extended into a
run of claimable phases
(:meth:`~repro.core.state.SchedulerState.claim_run`; a single pair under
the global frontier or ``run_length=1``), its members are snapshotted in
one critical section
(:meth:`~repro.core.program.PairRuntime.prepare_run`) and shipped as one
column-oriented :class:`~.protocol.RunMsg` frame, and the worker answers
with one column :class:`~.protocol.ResultBatch` that is committed whole
(:meth:`~repro.core.program.PairRuntime.commit_run`) — one frame each
way and one :meth:`~repro.core.state.SchedulerState.complete_executions`
call per run, and no per-member object built coordinator-side.
Repeated values inside a frame (latched inputs that did not change,
recurring outputs) are interned so pickle emits them once.

The ready backlog is kept pre-partitioned by sticky worker
(:class:`~repro.core.state.ReadyFrontier`), and each worker has an
adaptive in-flight **credit window**: it starts at one pair, doubles
(up to 16) while the backlog leaves the worker starved for credit, and
narrows when commits lag behind dispatch (a poll quantum passes with
every credit spent and no result).  A deep window keeps workers fed; a
shallow one bounds how far dispatch runs ahead of commit: the members
queued on a worker's pipe and the edge entries their snapshots pin
(the coordinator keeps only the ``(vertex, phase)`` keys of in-flight
members, not their snapshots).

The coordinator is single-threaded, so its
:class:`~repro.runtime.locks.InstrumentedLock` is never contended — it
is kept so the stats schema (acquisitions, hold times,
``commits_per_acquisition``) stays comparable with the threaded engine,
and so invariant checkers see the same locking discipline: the
coordinator's single lock remains the only commit point.

Correctness relies on the same argument as the serial oracle: the
scheduler never holds two phases of one vertex ready at once, vertices
are sticky to one worker, and each worker's task queue is FIFO — so
every behaviour's state evolves in strict phase order, exactly as
serially.  Credit windows only change *when* ready pairs are shipped,
never which pairs are ready, so the serializability argument is
untouched.  Final worker states are shipped back at shutdown
as :meth:`~repro.core.vertex.Vertex.snapshot_delta` payloads and applied
to the coordinator's program (whose behaviours still hold the spawn-time
baseline — compute only ever runs worker-side), keeping post-run state
consistent for ``--check``-style oracle comparisons.  Each worker's
count of executed members must equal the members the coordinator
committed for it, else the drain raises
:class:`~repro.errors.EngineError` (a cross-process exactly-once check).

Failure handling prefers the root cause, mirroring the threaded engine:
a vertex error (re-raised as
:class:`~repro.errors.VertexExecutionError`) beats a worker crash
(:class:`~repro.errors.EngineError`), which beats the wedge watchdog.
Results that arrive before the failure — including a failing run's
surviving prefix — are committed first.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ...core.invariants import InvariantChecker
from ...core.plan import ExecutionPlan, as_plan
from ...core.program import PairRuntime, Program, RunResult
from ...core.state import ReadyFrontier, SchedulerState
from ...core.tracer import ExecutionTracer
from ...errors import EngineError, VertexExecutionError
from ...events import PhaseInput
from ..commit import CommitTail
from ..environment import EnvironmentConfig
from ..feed import PhaseFeed
from ..locks import InstrumentedLock
from .lifecycle import ProcessWorkerPool
from .protocol import (
    FinalStateMsg,
    Interner,
    ResultBatch,
    RunMsg,
    WorkerCrashMsg,
    encode,
)

__all__ = ["ProcessEngine"]

_POLL_S = 0.05  # result-queue poll quantum while work is in flight
_WINDOW_CAP = 16  # adaptive credit window bound (pairs per worker)


class ProcessEngine:
    """The paper's parallel algorithm on worker *processes*.

    Parameters
    ----------
    program:
        The program to execute.  Behaviours must be picklable (see
        ``tests/models/test_pickling.py``); :meth:`run` raises
        :class:`~repro.errors.EngineError` at spawn time if not.
    num_workers:
        Number of worker processes (the paper's k computation
        processors).  The coordinator rides this process, like the
        paper's environment process.
    checker:
        Optional :class:`InvariantChecker`, invoked at every state
        mutation (inside the lock).
    tracer:
        Optional :class:`ExecutionTracer`; ``execute_begin``/``end`` are
        coordinator-side timestamps (dispatch and commit), so intervals
        include queue + wire time, not just on-CPU compute.
    env:
        Environment pacing / flow control (:class:`EnvironmentConfig`).
    join_timeout:
        Watchdog: seconds without any worker progress (and at shutdown)
        before the run is declared wedged.
    start_method:
        ``multiprocessing`` start method; default is ``fork`` where
        available, else ``spawn``.
    frontier:
        ``"cone"`` (default) schedules with per-dependency frontiers;
        ``"global"`` reproduces the published single-``x_p`` schedule
        exactly.  See :class:`~repro.core.state.SchedulerState`.
    suppress:
        Change suppression (Δ-elision); ``None`` (default) resolves by
        frontier mode — on under ``"cone"``, off under ``"global"`` —
        exactly as on the threaded engine.  On this engine suppression is
        applied *worker-side* (suppressed outputs are never serialized);
        the coordinator keeps its commit-time latch check as an
        idempotent backstop.
    run_length:
        Cap on the run claimed per dispatched ready pair
        (:meth:`~repro.core.state.SchedulerState.claim_run`).  ``None``
        (default) is adaptive under the cone frontier and pinned to 1
        under ``"global"``; ``1`` disables coalescing (one pair per
        frame).
    """

    def __init__(
        self,
        program: Union[Program, ExecutionPlan],
        num_workers: int = 2,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        env: EnvironmentConfig = EnvironmentConfig(),
        join_timeout: float = 120.0,
        start_method: Optional[str] = None,
        frontier: str = "cone",
        suppress: Optional[bool] = None,
        run_length: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise EngineError(f"num_workers must be >= 1, got {num_workers}")
        if run_length is not None and run_length < 1:
            raise EngineError(
                f"run_length must be >= 1 or None, got {run_length}"
            )
        self.plan = as_plan(program)
        self.program = self.plan.program
        self.num_workers = num_workers
        self.frontier = frontier
        # Coalescing needs the cone frontier's per-phase determination
        # certificates; under "global" the cap pins to 1 (no-op).
        self.run_length = 1 if frontier != "cone" else run_length
        self.suppress = (frontier == "cone") if suppress is None else suppress
        self.checker = checker
        self.tracer = tracer
        self.env = env
        self.join_timeout = join_timeout
        self.start_method = start_method

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        With *stop_event* (any ``is_set()`` object) the coordinator stops
        admitting new phases once the event is set, drains in-flight
        work, and shuts the workers down gracefully — the result covers
        exactly the started phases.

        Raises the first vertex exception as
        :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` on worker crash, unpicklable program, or a
        wedged run.
        """
        return self._execute(
            phase_inputs=phase_inputs, feed=None, stop_event=stop_event
        )

    def run_feed(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        """Execute phases as a :class:`~repro.runtime.feed.PhaseFeed`
        delivers them; same contract as
        :meth:`repro.runtime.engine.ParallelEngine.run_feed` (incremental
        admission, optional per-phase retirement through *sink*, graceful
        *stop_event*)."""
        return self._execute(
            phase_inputs=None,
            feed=feed,
            sink=sink,
            retire=retire,
            stop_event=stop_event,
        )

    def _execute(
        self,
        phase_inputs: Optional[Sequence[PhaseInput]],
        feed: Optional[PhaseFeed],
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        if retire and self.tracer is not None:
            raise EngineError(
                "retirement discards the per-phase data a tracer needs; "
                "run with tracer=None or retire=False"
            )
        if feed is None:
            phase_inputs = self.plan.localize_phase_inputs(phase_inputs or [])
        else:
            phase_inputs = []
        self.program.reset()
        runtime = PairRuntime(
            self.program,
            phase_inputs,
            stream_records=retire,
            suppress=self.suppress,
        )
        state = SchedulerState(
            self.program.numbering,
            checker=self.checker,
            frontier=self.frontier,
        )
        lock = InstrumentedLock()
        tracer = self.tracer
        pool = ProcessWorkerPool(
            self.program,
            self.num_workers,
            start_method=self.start_method,
            worker_config=(
                {
                    "suppress": True,
                    "elidable_succs": runtime.elidable_successor_names(),
                }
                if self.suppress
                else None
            ),
        )

        # Ready-but-unshipped pairs, indexed by sticky worker so each
        # dispatch drain is O(pairs shipped), not O(backlog).
        pending = ReadyFrontier(pool.worker_of)
        in_flight: Set[Tuple[int, int]] = set()
        tail = CommitTail(
            self.plan, runtime, state, tracer, self.num_workers, retire, sink
        )
        held: List[PhaseInput] = []  # at most one prefetched feed phase
        last_phase_start = -float("inf")
        finals: Dict[int, FinalStateMsg] = {}
        run_cap = self.run_length
        # Members of one run share latched inputs phase over phase, so
        # interning collapses them to pickle memo references.
        interner = Interner()
        intern = interner.intern

        def stopping() -> bool:
            return stop_event is not None and stop_event.is_set()

        # Per-worker adaptive credit windows, in pairs.
        windows: Dict[int, int] = {w: 1 for w in range(self.num_workers)}
        worker_load: Dict[int, int] = {w: 0 for w in range(self.num_workers)}
        window_events = {"widenings": 0, "narrowings": 0}
        window_peak = 1

        def can_start_phase() -> bool:
            if stopping():
                return False
            if feed is None and state.next_phase > runtime.num_phases:
                return False
            if self.env.max_in_flight_phases is not None:
                in_flight_phases = state.pmax - state.complete_phase_count
                if in_flight_phases >= self.env.max_in_flight_phases:
                    return False
            return time.monotonic() - last_phase_start >= self.env.pacing

        def dispatch() -> bool:
            # Drain the ready backlog within each worker's credit window;
            # claim each pair's run and prepare its members in one
            # critical section, then ship the run as one frame.
            nonlocal window_peak
            if not pending:
                return False
            taken, starved = pending.drain(
                lambda w: windows[w] - worker_load[w]
            )
            for w, pairs in taken:
                for v, p in pairs:
                    with lock:
                        phases = tuple(state.claim_run(v, p, run_cap))
                        name, succs, inputs, changed, phase_inputs = (
                            runtime.prepare_run(v, phases, intern)
                        )
                        for q in phases:
                            if tracer is not None:
                                tracer.execute_begin((v, q), w)
                            in_flight.add((v, q))
                    run = RunMsg(
                        v, name, succs, phases, inputs, changed, phase_inputs
                    )
                    worker_load[w] += len(phases)
                    pool.submit_to_worker(w, encode(run), "tasks")
            # Backlog left a worker starved for credit: widen.
            for w in starved:
                if windows[w] < _WINDOW_CAP:
                    windows[w] = min(_WINDOW_CAP, windows[w] * 2)
                    window_events["widenings"] += 1
                    window_peak = max(window_peak, windows[w])
            return bool(taken)

        def narrow_windows() -> None:
            # A poll quantum elapsed with no result while every credit
            # of a worker is spent: commits lag dispatch, so shrink its
            # window (bounding in-flight context memory) rather than
            # keep speculating deeper.
            for w in range(self.num_workers):
                if worker_load[w] >= windows[w] > 1:
                    windows[w] -= 1
                    window_events["narrowings"] += 1

        def commit_batch(batch: ResultBatch) -> None:
            # One result frame's executed members, committed in one
            # critical section with one complete_executions call.
            if not batch.phases:
                return
            v = batch.vertex
            with lock:
                for p in batch.phases:
                    in_flight.remove((v, p))
                completed = runtime.commit_run(
                    v,
                    batch.phases,
                    batch.outputs,
                    batch.records,
                    batch.suppressed,
                )
                newly_ready, _ = tail.apply(completed, batch.worker_id)
            worker_load[batch.worker_id] -= len(batch.phases)
            pending.push(newly_ready)

        def requeue_skipped(batch: ResultBatch) -> None:
            # Members a worker declined to execute (an earlier member of
            # the run failed) are still claimed in the coordinator's
            # state: put them back at the head of the worker's bucket,
            # oldest first, so a surviving run would re-dispatch them in
            # order.
            skipped = [(batch.vertex, p) for p in batch.skipped]
            in_flight.difference_update(skipped)
            worker_load[batch.worker_id] -= len(skipped)
            pending.push_front(batch.worker_id, skipped)

        started = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            pool.start()
            last_progress = time.monotonic()
            while True:
                progressed = False
                # Listing 2, inlined: start phases as pacing and flow
                # control allow.  In feed mode each phase is registered
                # the moment the feed hands it over (incremental
                # admission); ``held`` carries at most one prefetched
                # phase from the idle wait below.
                while can_start_phase():
                    if feed is not None:
                        if not held:
                            pi = feed.get(timeout=0)
                            if pi is None:
                                break
                            held.append(pi)
                        local = self.plan.localize_phase_inputs(
                            [held.pop()]
                        )
                        next_input = local[0]
                    else:
                        next_input = None
                    with lock:
                        if next_input is not None:
                            runtime.register_phase(next_input)
                        newly_ready = state.start_phase()
                        if tracer is not None:
                            tracer.phase_started(state.pmax)
                            for pair in newly_ready:
                                tracer.enqueued(pair)
                    pending.push(newly_ready)
                    last_phase_start = time.monotonic()
                    progressed = True
                if dispatch():
                    progressed = True
                if not in_flight:
                    stream_done = (
                        state.next_phase > runtime.num_phases
                        if feed is None
                        else (feed.drained and not held)
                    )
                    if (
                        stream_done or stopping()
                    ) and state.all_started_complete():
                        break  # quiescent: every started phase committed
                    if progressed:
                        continue
                    if feed is not None:
                        # Idle: nothing in flight, nothing startable —
                        # park on the feed until a phase arrives or the
                        # producer closes it.  (With a phase already
                        # held, idling means flow control or pacing is
                        # gating it: sleep a tick and re-check.)
                        if not held:
                            pi = feed.get(timeout=_POLL_S)
                            if pi is not None:
                                held.append(pi)
                        else:
                            time.sleep(_POLL_S)
                        continue
                    if self.env.pacing and state.next_phase <= runtime.num_phases:
                        # Idle only because the environment is pacing.
                        time.sleep(
                            min(
                                self.env.pacing,
                                max(
                                    0.0,
                                    last_phase_start
                                    + self.env.pacing
                                    - time.monotonic(),
                                )
                                + 1e-4,
                            )
                        )
                        continue
                    raise EngineError(
                        f"engine stalled before quiescence: in-flight "
                        f"phases {state.in_flight_phases()!r}"
                    )
                # Collect one result frame (bounded poll) and commit it.
                msg = pool.collect(timeout=_POLL_S)
                if msg is None:
                    dead = pool.dead_workers()
                    if dead:
                        # Give a queued crash report precedence over the
                        # bare exit code.
                        crash = pool.collect_nowait()
                        if isinstance(crash, WorkerCrashMsg):
                            raise EngineError(
                                f"worker {crash.worker_id} crashed: "
                                f"{crash.message}"
                            )
                        wid, code = dead[0]
                        raise EngineError(
                            f"worker {wid} died (exit code {code}) with "
                            f"{len(in_flight)} pairs in flight"
                        )
                    narrow_windows()
                    if time.monotonic() - last_progress > self.join_timeout:
                        raise EngineError(
                            f"run wedged: no worker result within "
                            f"{self.join_timeout}s "
                            f"({len(in_flight)} pairs in flight)"
                        )
                    continue
                last_progress = time.monotonic()
                if isinstance(msg, WorkerCrashMsg):
                    raise EngineError(
                        f"worker {msg.worker_id} crashed: {msg.message}"
                    )
                if msg.skipped:
                    requeue_skipped(msg)
                # On a failed run the columns hold its surviving prefix:
                # commit it, then surface the failure as the root cause.
                commit_batch(msg)
                if msg.error is not None:
                    phase, message = msg.error
                    raise VertexExecutionError(
                        self.program.numbering.name_of(msg.vertex),
                        phase,
                        message,
                    )
            # Graceful drain: check that every member a worker executed
            # was committed exactly once, then apply the final vertex
            # state deltas coordinator-side (the coordinator's behaviours
            # still hold the spawn-time baseline), so program state
            # after the run matches a serial execution.
            finals = pool.shutdown(self.join_timeout, collect_state=True)
            for wid, final in sorted(finals.items()):
                if final.executed != tail.per_worker[wid]:
                    raise EngineError(
                        f"worker {wid} executed {final.executed} members "
                        f"but the coordinator committed "
                        f"{tail.per_worker[wid]} for it"
                    )
            for final in finals.values():
                for name, delta in final.deltas.items():
                    self.program.behaviors[name].apply_delta(delta)
        except BaseException as exc:
            error = exc
            # Crash path: never mask the root cause with shutdown issues.
            pool.terminate()
            raise
        finally:
            if error is None and not finals:
                pool.terminate()  # pragma: no cover - defensive
        elapsed = time.perf_counter() - started

        wire = pool.wire.summary()
        task_frames = wire["tasks"]["messages"]
        executed = sum(tail.per_worker.values())
        stats: Dict[str, Any] = {
            "num_workers": self.num_workers,
            "start_method": pool.start_method,
            **tail.stats(lock.stats(), run_cap),
            "per_worker_utilization": {
                wid: (final.busy_s / elapsed if elapsed > 0 else 0.0)
                for wid, final in sorted(finals.items())
            },
            "ipc_round_trips": task_frames,
            "serialization_bytes": wire,
            "ipc": {
                "window_final": dict(sorted(windows.items())),
                "window_peak": window_peak,
                "window_widenings": window_events["widenings"],
                "window_narrowings": window_events["narrowings"],
                "task_frames": task_frames,
                "mean_tasks_per_frame": (
                    executed / task_frames if task_frames else 0.0
                ),
                "interning": interner.summary(),
            },
        }
        return tail.result(f"process[w={self.num_workers}]", elapsed, stats)

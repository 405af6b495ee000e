"""Timed sections: set-up, batch engine runs and the two serve loops.

Each section drives a public entry point exactly as ``repro run`` and
``repro serve`` do with their default flags and returns what it measured
together with every output, which the caller hands to the oracle gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.core.plan as plan_module
from repro.core.program import Program, RunResult
from repro.core.serial import SerialExecutor
from repro.errors import BackpressureError
from repro.events import PhaseInput
from repro.ingest import ArrivingEvent
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp.engine import ProcessEngine
from repro.serve.session import ServeConfig, ServeSession

from tracer import Tracer

__all__ = [
    "ENGINES",
    "BatchRun",
    "ServeRun",
    "Setup",
    "run_batch",
    "serve_closed",
    "serve_open",
    "set_up",
]

ENGINES = ("serial", "thread", "process")
WORKERS = 2  # threads or worker processes per engine; the box has 2 cores
OPEN_LOOP_LEAD_S = 0.02  # head start between session start and first due time


@dataclass
class Setup:
    program: Program
    plan: Any
    engines: Dict[str, Any]


def set_up(build_program, seed: int) -> Tuple[float, Setup]:
    """Build program and plan, construct the three engines, then construct
    and start a serve session; timed until the session accepts input."""
    started = time.perf_counter()
    program = build_program(seed)
    plan = plan_module.compile_plan(program)
    engines = {
        "serial": SerialExecutor(plan),
        "thread": ParallelEngine(plan, num_threads=WORKERS),
        "process": ProcessEngine(plan, num_workers=WORKERS),
    }
    session = ServeSession(program, ServeConfig()).start()
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed, Setup(program, plan, engines)


@dataclass
class BatchRun:
    wall_s: float
    result: RunResult


def run_batch(engine: Any, phases: Sequence[PhaseInput]) -> BatchRun:
    started = time.perf_counter()
    result = engine.run(phases)
    return BatchRun(time.perf_counter() - started, result)


@dataclass
class ServeRun:
    wall_s: float
    offers: int
    refused: int
    retired: Dict[int, Tuple[float, List[Tuple[str, Any]]]]
    stats: Dict[str, Any]
    # Open loop only: per-phase due time (phases sealed by an offer),
    # retire time, and per arrival how late offer was called and how much
    # of that the generator added itself.
    due: List[float] = field(default_factory=list)
    retired_at: Dict[int, float] = field(default_factory=dict)
    lags: List[float] = field(default_factory=list)
    own_lags: List[float] = field(default_factory=list)

    def latencies(self) -> List[float]:
        """Due time of the sealing arrival -> retirement, in seconds."""
        return [
            self.retired_at[p] - due
            for p, due in enumerate(self.due, start=1)
            if p in self.retired_at
        ]


def _session(program: Program, on_retired, tracer: Optional[Tracer]) -> ServeSession:
    if tracer is not None:
        on_retired = tracer.traced("serve.on_retired", on_retired)
    return ServeSession(program, ServeConfig(), on_retired=on_retired).start()


def serve_closed(
    program: Program,
    arrivals: Sequence[ArrivingEvent],
    tracer: Optional[Tracer] = None,
) -> ServeRun:
    """Offer every arrival as fast as ``offer`` returns, then drain.

    A refused offer (``BackpressureError``) is a failed operation; it is
    not retried.
    """
    retired: Dict[int, Tuple[float, List[Tuple[str, Any]]]] = {}

    def on_retired(phase: int, ts: float, entries: List[Tuple[str, Any]]) -> None:
        retired[phase] = (ts, entries)

    session = _session(program, on_retired, tracer)
    refused = 0
    started = time.perf_counter()
    for arriving in arrivals:
        try:
            session.offer(arriving)
        except BackpressureError:
            refused += 1
    stats = session.close()
    wall = time.perf_counter() - started
    return ServeRun(wall, len(arrivals), refused, retired, stats)


def serve_open(
    program: Program,
    arrivals: Sequence[ArrivingEvent],
    rate: float,
    tracer: Optional[Tracer] = None,
) -> ServeRun:
    """Send each arrival when it is due, ``t0 + arrival / rate``.

    Latency is timed from the due time, never from the actual send, so a
    stall also counts against the arrivals queued behind it.
    """
    retired: Dict[int, Tuple[float, List[Tuple[str, Any]]]] = {}
    retired_at: Dict[int, float] = {}
    clock = time.perf_counter

    def on_retired(phase: int, ts: float, entries: List[Tuple[str, Any]]) -> None:
        retired_at[phase] = clock()
        retired[phase] = (ts, entries)

    session = _session(program, on_retired, tracer)
    base = arrivals[0].arrival if arrivals else 0.0
    due_of_phase: List[float] = []
    lags: List[float] = []
    own_lags: List[float] = []
    refused = 0
    t0 = clock() + OPEN_LOOP_LEAD_S
    started = returned = clock()
    for arriving in arrivals:
        due = t0 + (arriving.arrival - base) / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        lags.append(sent - due)
        # Lateness the generator added itself: a previous offer that
        # returned after this arrival was due is the system's delay.
        own_lags.append(sent - max(due, returned))
        try:
            sealed = session.offer(arriving)["sealed"]
        except BackpressureError:
            refused += 1
            continue
        finally:
            returned = clock()
        due_of_phase.extend([due] * sealed)
    stats = session.close()
    wall = clock() - started
    return ServeRun(
        wall, len(arrivals), refused, retired, stats, due_of_phase, retired_at,
        lags, own_lags,
    )

"""The benchmark's workloads: a program plus the arrival stream it serves.

Every workload is driven through every public entry point: the sealed
phases of its stream run as a batch through the serial, threaded and
process engines, and the raw arrivals are served through
:class:`repro.serve.ServeSession`.  The seed reaches only the generated
inputs (vertex random walks, account traffic); the program sees nothing
else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.core.program import Program
from repro.events import Event
from repro.ingest import ArrivingEvent
from repro.models.domains.keyed import build_keyed_program, keyed_arrival_stream
from repro.streams.workloads import cpu_heavy_workload, pipeline_workload

__all__ = ["Workload", "WORKLOADS", "tick_arrivals"]


def tick_arrivals(ticks: int, source: str) -> List[ArrivingEvent]:
    """One on-time event per tick for *source*: a phase signal as an
    arrival, for programs whose sources generate their own values."""
    return [
        ArrivingEvent(Event(float(t), source, None), arrival=float(t))
        for t in range(ticks)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Open-loop send rate in arrival-time units (ticks) per second, about
    # half the serve capacity measured when the benchmark was defined.
    rate: float
    params: Dict[str, Any]
    program: Callable[[int], Program]
    arrivals: Callable[[int], List[ArrivingEvent]] = field(repr=False)


def _pipeline_program(seed: int) -> Program:
    return pipeline_workload(depth=8, phases=0, seed=seed)[0]


def _cpu_grid_program(seed: int) -> Program:
    return cpu_heavy_workload(width=4, depth=4, grain=20000, phases=0, seed=seed)[0]


_KEYS = tuple(f"a{i:02d}" for i in range(16))


def _keyed_program(seed: int) -> Program:
    return build_keyed_program(_KEYS)[0]


def _keyed_arrivals(seed: int, ticks: int) -> List[ArrivingEvent]:
    return list(keyed_arrival_stream(_KEYS, ticks=ticks, seed=seed))


PIPELINE_TICKS = 4000
CPU_GRID_TICKS = 16
KEYED_TICKS = 800

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pipeline",
            why=(
                "depth-8 chain of cheap vertices fused 8->1: bookkeeping-bound, "
                "so scheduler, commit, coalescing and wire costs dominate"
            ),
            rate=2000.0,
            params={"program": "pipeline_workload", "depth": 8,
                    "ticks": PIPELINE_TICKS, "source": "v1"},
            program=_pipeline_program,
            arrivals=lambda seed: tick_arrivals(PIPELINE_TICKS, "v1"),
        ),
        Workload(
            name="cpu-grid",
            why=(
                "4x4 grid of pure-Python spinning vertices: compute-bound, the "
                "regime where the paper predicts parallel speedup"
            ),
            rate=10.0,
            params={"program": "cpu_heavy_workload", "width": 4, "depth": 4,
                    "grain": 20000, "ticks": CPU_GRID_TICKS, "source": "L0_0"},
            program=_cpu_grid_program,
            arrivals=lambda seed: tick_arrivals(CPU_GRID_TICKS, "L0_0"),
        ),
        Workload(
            name="serve-keyed",
            why=(
                "16 keyed account chains fed out of order with a mostly silent "
                "detector: wide, sparse serve traffic that reorders many events "
                "per phase"
            ),
            rate=700.0,
            params={"program": "build_keyed_program", "accounts": len(_KEYS),
                    "stream": "keyed_arrival_stream", "ticks": KEYED_TICKS},
            program=_keyed_program,
            arrivals=lambda seed: _keyed_arrivals(seed, KEYED_TICKS),
        ),
    )
}

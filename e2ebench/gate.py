"""The oracle gate: every measured output is compared with the serial oracle.

The oracle is the unfused :class:`repro.core.serial.SerialExecutor` run
once per invocation over the sealed phases of the workload's stream (the
arrivals replayed through a :class:`repro.ingest.ReorderBuffer` built
like the serve session's).  Outputs are compared phase by phase: a phase
whose records differ, or that never came back, is one failed operation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.events import PhaseInput
from repro.ingest import ArrivingEvent, ReorderBuffer
from repro.serve.session import ServeConfig

__all__ = ["OracleGate", "seal"]

Entries = List[Tuple[str, Any]]


def seal(arrivals: Iterable[ArrivingEvent], config: ServeConfig) -> List[PhaseInput]:
    """The phases a serve session with *config* seals from *arrivals*."""
    buffer = ReorderBuffer(
        wait=config.wait,
        quantum=config.quantum,
        max_buffered=config.max_buffered,
        max_late_kept=config.max_late_kept,
    )
    phases: List[PhaseInput] = []
    for arriving in arrivals:
        phases.extend(buffer.offer(arriving))
    phases.extend(buffer.flush())
    return phases


class OracleGate:
    """Counts attempted and failed operations against the oracle."""

    def __init__(self, program: Program, phases: Sequence[PhaseInput]) -> None:
        self._order = program.numbering.index_of
        self.timestamps = {pi.phase: pi.timestamp for pi in phases}
        self.expected = self.by_phase(SerialExecutor(program).run(phases).records)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def by_phase(self, records: Dict[str, List[Tuple[int, Any]]]) -> Dict[int, Entries]:
        """Per-vertex record logs regrouped per phase, in vertex index
        order (per-vertex record order preserved)."""
        out: Dict[int, Entries] = {p: [] for p in self.timestamps}
        for vertex in sorted(records, key=self._order.__getitem__):
            for p, value in records[vertex]:
                out.setdefault(p, []).append((vertex, value))
        return out

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(why)

    def check_batch(self, label: str, records: Dict[str, List[Tuple[int, Any]]]) -> int:
        """Compare a batch run's records; one operation per phase."""
        got = self.by_phase(records)
        self.attempted += len(self.expected)
        bad = [p for p in self.expected if got.get(p, []) != self.expected[p]]
        extra = [p for p in got if p not in self.expected and got[p]]
        if bad or extra:
            self._fail(
                len(bad) + len(extra),
                f"{label}: {len(bad)} phases differ from the oracle "
                f"(first {(bad or extra)[0]})",
            )
        return len(bad) + len(extra)

    def check_serve(
        self, label: str, retired: Dict[int, Tuple[float, Entries]]
    ) -> int:
        """Compare a serve run's retired phases; one operation per sealed
        phase (a phase never retired fails)."""
        self.attempted += len(self.expected)
        bad = 0
        for p, want in self.expected.items():
            item = retired.get(p)
            if item is None:
                bad += 1
                continue
            ts, entries = item
            got = sorted(entries, key=lambda e: self._order[e[0]])
            if ts != self.timestamps[p] or got != want:
                bad += 1
        extra = len([p for p in retired if p not in self.expected])
        if bad or extra:
            self._fail(
                bad + extra,
                f"{label}: {bad} phases differ or never retired, "
                f"{extra} unexpected",
            )
        return bad + extra

    def refused(self, label: str, attempted: int, refused: int) -> None:
        """Count offers; a refused offer is a failed operation."""
        self.attempted += attempted
        if refused:
            self._fail(refused, f"{label}: {refused} offers refused")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

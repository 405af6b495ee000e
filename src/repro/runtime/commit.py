"""The commit-section tail shared by the threaded and process engines.

Every dispatch is a claimed run
(:meth:`~repro.core.state.SchedulerState.claim_run`; a single pair is a
run of length 1), so each commit section applies one batch of member
completions.  After the engine has delivered the members' outputs
(:meth:`~repro.core.program.PairRuntime.commit` or ``commit_run``),
:meth:`CommitTail.apply` does the rest, in this order and under the
caller's lock:

1. one :meth:`~repro.core.state.SchedulerState.complete_executions`
   call for the whole batch;
2. the execution log, per-worker counts, the commit-size histogram and
   the tracer's execute-end / enqueued events;
3. the completion-log cursor
   (:meth:`~repro.core.state.SchedulerState.completed_since`) and the
   tracer's phase-completed events;
4. with ``retire=True``, retirement of the extended contiguous complete
   prefix — each phase's translated records go to *sink*, then every
   per-phase structure is garbage-collected — and a trim of the
   completion log.

:meth:`CommitTail.stats` assembles the stats sections both engines
report; :meth:`CommitTail.result` builds the translated
:class:`~repro.core.program.RunResult`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.plan import ExecutionPlan
from ..core.program import PairRuntime, RunResult
from ..core.state import Pair, SchedulerState
from ..core.tracer import ExecutionTracer, max_concurrent_pairs, max_concurrent_phases

__all__ = ["CommitTail"]


class CommitTail:
    """Post-delivery bookkeeping of one engine run (not thread-safe:
    every call happens under the engine's commit lock)."""

    def __init__(
        self,
        plan: ExecutionPlan,
        runtime: PairRuntime,
        state: SchedulerState,
        tracer: Optional[ExecutionTracer],
        num_workers: int,
        retire: bool = False,
        sink: Any = None,
    ) -> None:
        self.plan = plan
        self.runtime = runtime
        self.state = state
        self.tracer = tracer
        self.retire = retire
        self.sink = sink
        self.executions: List[Pair] = []
        self.per_worker: Dict[int, int] = {i: 0 for i in range(num_workers)}
        self.commit_sizes: Dict[int, int] = {}  # members per commit section
        self.seen_complete = 0  # absolute completion-log cursor
        self.retire_next = 1  # next phase to retire
        self.phases_retired = 0
        self.internal_messages = 0  # fused-chain messages of retired phases

    def apply(
        self, completed: List[Tuple[int, int, Iterable[int]]], worker_id: int
    ) -> Tuple[List[Pair], int]:
        """Apply one commit section's completions ``(v, p, targets)``;
        returns ``(newly_ready, phases newly complete)``."""
        state = self.state
        tracer = self.tracer
        newly_ready = state.complete_executions(completed)
        if not self.retire:
            self.executions.extend((v, p) for v, p, _ in completed)
        self.per_worker[worker_id] += len(completed)
        size = len(completed)
        self.commit_sizes[size] = self.commit_sizes.get(size, 0) + 1
        if tracer is not None:
            for v, p, _ in completed:
                tracer.execute_end((v, p), worker_id)
            for pair in newly_ready:
                tracer.enqueued(pair)
        # Completion labels come from the state's log via the absolute
        # cursor: in global mode it is the prefix order; in cone mode
        # phases may complete out of order.
        new_complete = state.completed_since(self.seen_complete)
        if tracer is not None:
            for q in new_complete:
                tracer.phase_completed(q)
        self.seen_complete += len(new_complete)
        if self.retire and new_complete:
            self._retire_prefix()
        return newly_ready, len(new_complete)

    def _retire_prefix(self) -> None:
        state = self.state
        rn = self.retire_next
        while state.phase_started(rn) and state.phase_complete(rn):
            ts, entries = self.runtime.retire_phase(rn)
            entries, internal = self.plan.translate_entries(entries)
            self.internal_messages += internal
            if self.sink is not None:
                self.sink(rn, ts, entries)
            rn += 1
        if rn > self.retire_next:
            state.retire_phases_upto(rn - 1)
            self.phases_retired += rn - self.retire_next
            self.retire_next = rn
        state.trim_completed_log(self.seen_complete)

    def stats(
        self, lock_stats: Dict[str, Any], run_length: Optional[int]
    ) -> Dict[str, Any]:
        """The stats sections both engines share."""
        state = self.state
        runtime = self.runtime
        commits = sum(self.commit_sizes.values())
        members = sum(n * c for n, c in self.commit_sizes.items())
        stats: Dict[str, Any] = {
            "frontier": state.frontier_stats(),
            "suppression": runtime.suppression_stats(),
            "coalescing": dict(
                enabled=run_length != 1,
                run_length_cap=run_length,
                **state.coalescing_stats(),
            ),
            "lock": lock_stats,
            "per_worker_executions": dict(self.per_worker),
            "edge_entries_peak": runtime.edges.peak_entries,
            "edge_entries_final": runtime.edges.total_pending_entries(),
            "batching": {
                "batches": commits,
                "sizes": dict(sorted(self.commit_sizes.items())),
                "mean_size": members / commits if commits else 0.0,
                "commits_per_acquisition": (
                    members / lock_stats["acquisitions"]
                    if lock_stats["acquisitions"]
                    else 0.0
                ),
            },
        }
        if self.tracer is not None:
            intervals = self.tracer.intervals()
            stats["max_concurrent_phases"] = max_concurrent_phases(intervals)
            stats["max_concurrent_pairs"] = max_concurrent_pairs(intervals)
        if self.retire:
            stats["retirement"] = {
                "phases_retired": self.phases_retired,
                "internal_messages": self.internal_messages,
                "executed_pairs": state.executed_pairs,
            }
        return stats

    def result(
        self, label: str, elapsed: float, stats: Dict[str, Any]
    ) -> RunResult:
        """The run's :class:`RunResult`, translated back to the original
        (unfused) vertices."""
        return self.plan.translate(
            self.runtime.build_result(
                label,
                self.executions,
                elapsed,
                stats,
                phases_run=self.state.pmax,
            )
        )

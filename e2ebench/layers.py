"""The per-layer ledger of a traced round.

:func:`targets` names the public functions wrapped at each layer
boundary, at the attribute their caller looks up.  :func:`round_ledger`
turns one traced round's spans (grouped by section) and the public
``RunResult.stats`` / ``ServeSession.stats()`` counts into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from tracer import Span, self_times, union_length

__all__ = ["LAYER_METRICS", "round_ledger", "targets", "unattributed"]

SCHED_FNS = ("start_phase", "claim_run", "complete_executions", "retire_phases_upto")
PAIR_FNS = ("prepare", "compute", "commit", "retire_phase")


def _arg(i: int):
    return lambda args, result: args[i]


def targets() -> List[Tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, tag)`` for every wrapped function."""
    import repro.runtime.mp.engine as mp_engine
    import repro.runtime.mp.lifecycle as mp_lifecycle
    import repro.serve.session as serve_session
    from repro.core.program import PairRuntime
    from repro.core.state import SchedulerState
    from repro.ingest import ReorderBuffer
    from repro.runtime.blocking_queue import BlockingQueue
    from repro.runtime.feed import PhaseFeed
    from repro.runtime.mp.lifecycle import ProcessWorkerPool
    from repro.serve.session import ServeSession
    from repro.serve.sse import MessageAnnouncer

    return [
        (ReorderBuffer, "offer", "ingest", None),
        (ReorderBuffer, "advance_watermark", "ingest", None),
        (ReorderBuffer, "flush", "ingest", None),
        (PhaseFeed, "put", "feed.put", lambda a, r: a[1].phase),
        (PhaseFeed, "get", "feed.get", lambda a, r: r.phase if r is not None else None),
        (SchedulerState, "start_phase", "sched.start_phase", None),
        (SchedulerState, "claim_run", "sched.claim_run",
         lambda a, r: len(r) if r is not None else None),
        (SchedulerState, "complete_executions", "sched.complete_executions", None),
        (SchedulerState, "retire_phases_upto", "sched.retire_phases_upto", None),
        (PairRuntime, "prepare", "pair.prepare", _arg(2)),
        (PairRuntime, "compute", "pair.compute", None),
        (PairRuntime, "commit", "pair.commit", _arg(2)),
        (PairRuntime, "retire_phase", "pair.retire_phase", _arg(1)),
        (BlockingQueue, "get_many", "thread.get_many", None),
        (mp_engine, "encode", "wire.encode", None),
        (mp_lifecycle, "decode", "wire.decode", None),
        (ProcessWorkerPool, "start", "wire.spawn", None),
        (ProcessWorkerPool, "collect", "wire.collect", None),
        (ProcessWorkerPool, "collect_nowait", "wire.collect", None),
        (serve_session, "compile_plan", "plan.compile", None),
        (ServeSession, "offer", "serve.offer", None),
        (MessageAnnouncer, "announce", "serve.announce", None),
    ]


# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS: Dict[str, str] = {
    "ingest.calls": "count",
    "ingest.busy_s": "s",
    "ingest.phases_sealed": "count",
    "ingest.late_events": "count",
    "ingest.pending_high_water": "count",
    "feed.put_wait_s": "s",
    "feed.get_wait_s": "s",
    "feed.put_stalls": "count",
    "feed.high_water": "count",
    **{f"sched.{fn}.{m}": u for fn in SCHED_FNS for m, u in (("calls", "count"), ("busy_s", "s"))},
    "sched.pairs_per_claim": "ratio",
    **{f"pair.{fn}.{m}": u for fn in PAIR_FNS for m, u in (("calls", "count"), ("busy_s", "s"))},
    "pair.executions": "count",
    "thread.queue_wait_s": "s",
    "lock.acquisitions": "count",
    "lock.wait_s": "s",
    "lock.hold_s": "s",
    "lock.contention_ratio": "ratio",
    "wire.encode.busy_s": "s",
    "wire.decode.busy_s": "s",
    "wire.collect_wait_s": "s",
    "wire.spawn_s": "s",
    "wire.round_trips": "count",
    "wire.bytes": "bytes",
    "worker.utilization_mean": "ratio",
    "worker.utilization_min": "ratio",
    "plan.compile_s": "s",
    "plan.stages": "count",
    "plan.vertices_eliminated": "count",
    "coalesce.runs": "count",
    "coalesce.mean_run_length": "count",
    "suppress.elided_executions": "count",
    "suppress.suppressed_messages": "count",
    "serve.offer_busy_s": "s",
    "serve.emit_busy_s": "s",
    "serve.sse_dropped": "count",
    "thread.wall_s": "s",
    "process.wall_s": "s",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.latency_samples": "count",
    "serve.capacity_phases_per_s": "1/s",
    "serve.gen_lag_p99_ms": "ms",
    "serve.gen_own_lag_p50_ms": "ms",
    "serve.latency_valid": "bool",
    **{f"phase.{part}_ms.{q}": "ms" for part in ("ingest", "queue", "engine") for q in ("p50", "p99")},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def quantile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


class _Sums:
    """Per-name call counts, durations and self times over spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        own = self_times(spans)
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.tags: Dict[str, int] = {}
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total[s.name] = self.total.get(s.name, 0.0) + (s.end - s.start)
            self.own[s.name] = self.own.get(s.name, 0.0) + own[s.id]
            if s.tag is not None:
                self.tags[s.name] = self.tags.get(s.name, 0) + s.tag


def unattributed(sections: Dict[str, List[Span]]) -> Tuple[float, float]:
    """``(uncovered, observed)`` thread-seconds over the given sections.

    For each section and each thread that recorded a layer span in it,
    the section's wall interval is *observed* and the part no top-level
    layer span of that thread covers is *uncovered*.
    """
    uncovered = observed = 0.0
    for spans in sections.values():
        section = [s for s in spans if s.name.startswith("section.")]
        if not section:
            continue
        lo, hi = section[0].start, section[0].end
        section_ids = {s.id for s in section}
        per_thread: Dict[int, List[Tuple[float, float]]] = {}
        for s in spans:
            if s.id in section_ids:
                continue
            if s.parent == 0 or s.parent in section_ids:
                per_thread.setdefault(s.thread, []).append((s.start, s.end))
        for intervals in per_thread.values():
            covered = union_length(intervals, lo, hi)
            observed += hi - lo
            uncovered += (hi - lo) - covered
    return uncovered, observed


def round_ledger(
    sections: Dict[str, List[Span]],
    batch_stats: Dict[str, Dict[str, Any]],
    batch_executions: int,
    serve_stats: Sequence[Dict[str, Any]],
    plan_vertices: Tuple[int, int],
    open_loop: Any,
) -> Dict[str, float]:
    """Per-layer metrics of one traced round; *open_loop* is its
    ``measure.ServeRun`` of the open-loop pass."""
    all_spans = [s for spans in sections.values() for s in spans]
    sums = _Sums(all_spans)
    calls, total, own = sums.calls, sums.total, sums.own
    out: Dict[str, float] = {}

    serve = [s["serve"] for s in serve_stats]
    out["ingest.calls"] = calls.get("ingest", 0)
    out["ingest.busy_s"] = own.get("ingest", 0.0)
    out["ingest.phases_sealed"] = sum(s["phases_ingested"] for s in serve)
    out["ingest.late_events"] = sum(s["late_events"] for s in serve)
    out["ingest.pending_high_water"] = max((s["buffer_high_water"] for s in serve), default=0)
    out["feed.put_wait_s"] = total.get("feed.put", 0.0)
    out["feed.get_wait_s"] = total.get("feed.get", 0.0)
    out["feed.put_stalls"] = sum(s["feed_stalls"] for s in serve)
    out["feed.high_water"] = max((s["feed_high_water"] for s in serve), default=0)
    for fn in SCHED_FNS:
        out[f"sched.{fn}.calls"] = calls.get(f"sched.{fn}", 0)
        out[f"sched.{fn}.busy_s"] = own.get(f"sched.{fn}", 0.0)
    claims = calls.get("sched.claim_run", 0)
    out["sched.pairs_per_claim"] = (
        sums.tags.get("sched.claim_run", 0) / claims if claims else 0.0
    )
    for fn in PAIR_FNS:
        out[f"pair.{fn}.calls"] = calls.get(f"pair.{fn}", 0)
        out[f"pair.{fn}.busy_s"] = own.get(f"pair.{fn}", 0.0)
    out["pair.executions"] = batch_executions + sum(
        s.get("engine", {}).get("stats", {}).get("retirement", {}).get("executed_pairs", 0)
        for s in serve_stats
    )
    out["thread.queue_wait_s"] = total.get("thread.get_many", 0.0)

    thread = batch_stats["thread"]
    lock = thread["lock"]
    out["lock.acquisitions"] = lock["acquisitions"]
    out["lock.wait_s"] = lock["total_wait_time"]
    out["lock.hold_s"] = lock["total_hold_time"]
    out["lock.contention_ratio"] = lock["contention_ratio"]

    proc = batch_stats["process"]
    out["wire.encode.busy_s"] = own.get("wire.encode", 0.0)
    out["wire.decode.busy_s"] = own.get("wire.decode", 0.0)
    out["wire.collect_wait_s"] = own.get("wire.collect", 0.0)
    out["wire.spawn_s"] = total.get("wire.spawn", 0.0)
    out["wire.round_trips"] = proc["ipc_round_trips"]
    out["wire.bytes"] = proc["serialization_bytes"]["total_bytes"]
    util = list(proc["per_worker_utilization"].values())
    out["worker.utilization_mean"] = statistics.fmean(util) if util else 0.0
    out["worker.utilization_min"] = min(util) if util else 0.0

    compiles = calls.get("plan.compile", 0)
    out["plan.compile_s"] = total.get("plan.compile", 0.0) / compiles if compiles else 0.0
    original, stages = plan_vertices
    out["plan.stages"] = stages
    out["plan.vertices_eliminated"] = original - stages

    out["coalesce.runs"] = thread["coalescing"]["runs_scheduled"]
    out["coalesce.mean_run_length"] = thread["coalescing"]["mean_run_length"]
    out["suppress.elided_executions"] = thread["suppression"]["elided_executions"]
    out["suppress.suppressed_messages"] = thread["suppression"]["suppressed_messages"]

    out["serve.offer_busy_s"] = own.get("serve.offer", 0.0)
    out["serve.emit_busy_s"] = total.get("serve.on_retired", 0.0) + total.get(
        "serve.announce", 0.0
    )
    out["serve.sse_dropped"] = sum(s["sse_dropped"] for s in serve)
    out.update(_phase_split(sections.get("serve-open", []), open_loop))

    uncovered, observed = unattributed(
        {k: v for k, v in sections.items() if k != "serve-open"}
    )
    out["trace.unattributed_share"] = uncovered / observed if observed else 0.0
    return out


def _phase_split(spans: Sequence[Span], open_loop: Any) -> Dict[str, float]:
    """Open-loop phase latency split: due -> ``PhaseFeed.put`` returned
    (ingest), -> ``PhaseFeed.get`` returned (queue), -> retired (engine)."""
    put_end: Dict[int, float] = {}
    get_end: Dict[int, float] = {}
    for s in spans:
        if s.tag is None:
            continue
        if s.name == "feed.put":
            put_end[s.tag] = s.end
        elif s.name == "feed.get":
            get_end[s.tag] = s.end
    parts: Dict[str, List[float]] = {"ingest": [], "queue": [], "engine": []}
    for p, due in enumerate(open_loop.due, start=1):
        if p in put_end and p in get_end and p in open_loop.retired_at:
            parts["ingest"].append((put_end[p] - due) * 1e3)
            parts["queue"].append((get_end[p] - put_end[p]) * 1e3)
            parts["engine"].append((open_loop.retired_at[p] - get_end[p]) * 1e3)
    out: Dict[str, float] = {}
    for part, values in parts.items():
        out[f"phase.{part}_ms.p50"] = quantile(values, 50)
        out[f"phase.{part}_ms.p99"] = quantile(values, 99)
    return out

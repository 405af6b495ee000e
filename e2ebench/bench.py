"""One benchmark invocation: inputs, oracle, set-up, rounds, report."""

from __future__ import annotations

import gc
import gzip
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import measure
from gate import OracleGate, seal
from layers import quantile
from repro.serve.session import ServeConfig
from tracer import Tracer
from workloads import Workload

# Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = 25
# Each round runs the three batch engines this many times: the bounded
# metrics come from them, and the process engine's wall time is bimodal
# (worker placement on the two vCPUs), so they need more samples than
# the serve loops.
BATCH_REPEATS = 2
# A run keeps starting rounds until its time is spent, and runs at least
# this many (untraced, and as many traced with --trace 1).
MIN_ROUNDS = 3
# Latency numbers are invalid when the lateness the generator added
# itself (its median) exceeds this share of the median measured latency.
MAX_LAG_SHARE = 0.25
# The end-to-end metrics BENCHMARK.json bounds, in its order.  The others
# that end_to_end() returns are printed and stored with every run but are
# not bounded: on a shared host their run-to-run spread exceeds any
# usable bound (see README.md).
BOUNDED = ("setup_s", "serial.wall_s", "thread.speedup", "process.speedup",
           "rss_peak_mb")


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(workload: Workload, seed: int, seconds: float, trace: int,
               root: Path) -> Dict[str, Any]:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
        "open_loop_rate_ticks_per_s": workload.rate,
        "nproc": len(affinity),
        "sched_getaffinity": affinity,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def peak_rss_mib() -> float:
    """This process's peak resident set (VmHWM); worker processes excluded."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` CPU time of the whole machine from /proc/stat:
    steal is time the hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


class Round:
    """Serial, threaded and process batch runs (``BATCH_REPEATS`` times),
    then a closed-loop drain and an open-loop pass through a serve session.  Every output is gated
    after its timed section and then dropped, so outputs kept for the
    gate do not pile up across rounds."""

    def __init__(self, setup, arrivals, phases, rate: float, gate: OracleGate,
                 tracer: Optional[Tracer] = None) -> None:
        self.sections: Dict[str, Any] = {}
        self._tracer = tracer
        self.wall: Dict[str, List[float]] = {name: [] for name in measure.ENGINES}
        self.stats: Dict[str, Dict[str, Any]] = {}
        self.executions = 0
        steal0, total0 = cpu_jiffies()
        for rep in range(BATCH_REPEATS):
            for name in measure.ENGINES:
                run = self._section(f"{name}-{rep}", measure.run_batch,
                                    setup.engines[name], phases)
                gate.check_batch(name, run.result.records)
                self.wall[name].append(run.wall_s)
                self.stats[name] = run.result.stats
                # Executions in plan terms (one per fused stage run), like serve's.
                fusion = run.result.stats.get("fusion", {})
                self.executions += fusion.get("scheduled_pairs", run.result.execution_count)
        self.closed = self._section(
            "serve-closed", measure.serve_closed, setup.program, arrivals, tracer)
        self.open = self._section(
            "serve-open", measure.serve_open, setup.program, arrivals, rate, tracer)
        steal1, total1 = cpu_jiffies()
        self.steal_share = (steal1 - steal0) / max(1, total1 - total0)
        for label, run in (("serve-closed", self.closed), ("serve-open", self.open)):
            gate.refused(label, run.offers, run.refused)
            gate.check_serve(label, run.retired)
            run.retired.clear()

    def _section(self, name: str, fn, *args):
        gc.collect()
        if self._tracer is None:
            return fn(*args)
        out = self._tracer.traced(f"section.{name}", fn)(*args)
        self.sections[name] = self._tracer.take()
        return out

    @property
    def work_wall(self) -> float:
        """Unpaced time: the batch runs plus the closed-loop drain."""
        return sum(map(sum, self.wall.values())) + self.closed.wall_s

    @property
    def capacity(self) -> float:
        return self.closed.stats["serve"]["phases_retired"] / self.closed.wall_s


def end_to_end(rounds: List[Round], setup_times: List[float],
               rss_mib: float) -> Dict[str, Dict[str, Any]]:
    med = statistics.median
    wall = {name: [w for r in rounds for w in r.wall[name]] for name in measure.ENGINES}
    # Latency percentiles per open-loop pass, then the median over passes.
    latencies = [[x * 1e3 for x in r.open.latencies()] for r in rounds]
    values = {
        "setup_s": (med(setup_times), "s"),
        "serial.wall_s": (med(wall["serial"]), "s"),
        "thread.wall_s": (med(wall["thread"]), "s"),
        "process.wall_s": (med(wall["process"]), "s"),
        "thread.speedup": (
            med([s / t for s, t in zip(wall["serial"], wall["thread"])]), "x"),
        "process.speedup": (
            med([s / p for s, p in zip(wall["serial"], wall["process"])]), "x"),
        "serve.latency_p50_ms": (med(quantile(x, 50) for x in latencies), "ms"),
        "serve.capacity_phases_per_s": (med(r.capacity for r in rounds), "1/s"),
        "rss_peak_mb": (rss_mib, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def open_loop_report(rounds: List[Round]) -> Dict[str, float]:
    """Pooled tail latency, how late the generator ran, and whether the
    latencies stand."""
    latencies = [x * 1e3 for r in rounds for x in r.open.latencies()]
    lags = [x * 1e3 for r in rounds for x in r.open.lags]
    own = quantile([x * 1e3 for r in rounds for x in r.open.own_lags], 50)
    return {
        "serve.latency_p99_ms": quantile(latencies, 99),
        "serve.latency_samples": len(latencies),
        "serve.gen_lag_p99_ms": quantile(lags, 99),
        "serve.gen_own_lag_p50_ms": own,
        "serve.latency_valid": float(own <= MAX_LAG_SHARE * quantile(latencies, 50)),
    }


def per_layer(traced: List[Round], untraced: List[Round], setup,
              unbounded: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    ledgers = [
        layers.round_ledger(
            r.sections,
            r.stats,
            r.executions,
            [r.closed.stats, r.open.stats],
            (setup.program.n, setup.plan.program.n),
            r.open,
        )
        for r in traced
    ]
    # End-to-end values, latency and generator lag come from the untraced
    # rounds.
    extra = dict(unbounded)
    extra["trace.overhead_ratio"] = (
        statistics.median(r.work_wall for r in traced)
        / statistics.median(r.work_wall for r in untraced)
    )
    out = {}
    for name, unit in layers.LAYER_METRICS.items():
        value = extra[name] if name in extra else statistics.median(
            ledger[name] for ledger in ledgers)
        out[name] = {"value": value, "unit": unit}
    return out


def run(workload: Workload, seed: int, seconds: float, trace: int,
        out_dir: Path, root: Path) -> int:
    prov = provenance(workload, seed, seconds, trace, root)

    # Inputs and the oracle, outside every timed section.
    arrivals = workload.arrivals(seed)
    phases = seal(arrivals, ServeConfig())
    gate = OracleGate(workload.program(seed), phases)
    setup_times: List[float] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        elapsed, setup = measure.set_up(workload.program, seed)
        setup_times.append(elapsed)

    # Warm-up pass through every entry point, neither timed nor gated.
    warm = phases[: min(len(phases), 32)]
    for engine in setup.engines.values():
        engine.run(warm)
    measure.serve_closed(setup.program, arrivals[: max(1, len(arrivals) // 50)])

    tracer = Tracer() if trace else None
    untraced: List[Round] = []
    traced: List[Round] = []
    steal0, total0 = cpu_jiffies()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = len(untraced) + len(traced)
        if done >= MIN_ROUNDS * (2 if trace else 1) and (
            elapsed + 0.5 * elapsed / done >= seconds
        ):
            break
        if trace and done % 2 == 1:
            tracer.install(layers.targets())
            try:
                traced.append(Round(setup, arrivals, phases, workload.rate, gate, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(Round(setup, arrivals, phases, workload.rate, gate))
    measured_s = time.perf_counter() - started
    rss = peak_rss_mib()
    steal1, total1 = cpu_jiffies()
    steal_share = (steal1 - steal0) / max(1, total1 - total0)

    e2e = end_to_end(untraced, setup_times, rss)
    lag = open_loop_report(untraced)
    unbounded = {k: m for k, m in e2e.items() if k not in BOUNDED}
    if trace:
        metrics = per_layer(traced, untraced, setup, {
            **{k: m["value"] for k, m in unbounded.items()}, **lag})
        shown = dict(metrics)
    else:
        metrics = {k: e2e[k] for k in BOUNDED}
        shown = {**metrics, **unbounded,
                 **{k: {"value": v, "unit": layers.LAYER_METRICS[k]}
                    for k, v in lag.items()}}

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    summary = {
        "provenance": prov,
        "rounds": len(untraced) + len(traced),
        "measured_s": measured_s,
        "host_steal_share": steal_share,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "error_rate": gate.error_rate,
        "failures": gate.failures,
        "metrics": shown,
        "per_round": [
            {"traced": r in traced, "steal_share": r.steal_share, **r.wall,
             "capacity": r.capacity,
             "latency_p50_ms": quantile([x * 1e3 for x in r.open.latencies()], 50)}
            for r in untraced + traced
        ],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if tracer is not None:
        # The last traced round's spans, one JSON array per line:
        # section, id, parent, name, start, end, thread, tag.
        with gzip.open(out_dir / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for section, spans in traced[-1].sections.items():
                for s in spans:
                    fh.write(json.dumps([section, *s]) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in shown.items():
        flag = "" if name in metrics else "  (unbounded)"
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}{flag}")
    print(f"{'host.steal_share':36s} {steal_share:>14.6g} ratio "
          "(CPU time the hypervisor took during the rounds)")
    print(f"{'error_rate':36s} {gate.error_rate:>14.6g} ratio "
          f"({gate.failed} failed / {gate.attempted} attempted)")
    if not lag["serve.latency_valid"]:
        print("serve latency INVALID: the generator's own median lateness "
              f"exceeds {MAX_LAG_SHARE:.0%} of the median latency")
    for why in gate.failures:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0

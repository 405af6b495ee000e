"""Lock contention: the global lock across thread counts and grains.

The paper (Section 4) attributes the sub-linear two-thread speedup to
"the number of threads contending for the data structures", and warns
that speedup stays near-linear only "as long as the computations
performed by the vertices take significantly more time than the
computations performed to maintain the data structures".  This benchmark
measures exactly that wall: it runs the same layered workload across

* thread counts (the contention axis),
* compute grains (how much work a vertex does per execution — 0 means
  the pure scheduler-overhead regime the paper warns about),

with the engine's default dispatch (each dequeued pair extended into a
claimed run, committed in one critical section), and reports wall-clock, the global lock's ``contention_ratio``
(contended / total acquisitions), and ``commits_per_acquisition`` (how
many pair commits each lock acquisition amortises).  It records
measurements only; it has no pass/fail criterion.

Unlike the pytest-benchmark suites next door this is a standalone
script, so CI can smoke it cheaply::

    PYTHONPATH=src python benchmarks/bench_lock_contention.py --quick

and the full run commits its results as ``BENCH_lock_contention.json``::

    PYTHONPATH=src python benchmarks/bench_lock_contention.py \
        --out BENCH_lock_contention.json

Interpretation: pure-Python vertex work is serialised by the GIL, so
adding threads to a fine-grained workload *increases* wall-clock (every
run pays two lock round-trips plus a queue wake-up).
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

if __package__ in (None, ""):
    from _runner import bootstrap_src, finish, parse_args
else:
    from ._runner import bootstrap_src, finish, parse_args

bootstrap_src()

from repro.runtime.engine import ParallelEngine  # noqa: E402
from repro.streams.workloads import grid_workload  # noqa: E402

FULL = {
    "width": 6,
    "depth": 4,
    "phases": 80,
    "threads": [1, 2, 4, 8],
    "grains_us": [0, 20, 100],
    "reps": 3,
}
QUICK = {
    "width": 4,
    "depth": 3,
    "phases": 20,
    "threads": [2, 4],
    "grains_us": [0],
    "reps": 1,
}


def build_program(width: int, depth: int, phases: int, grain_us: float):
    prog, phase_inputs = grid_workload(width, depth, phases=phases, seed=7)
    if grain_us:
        spin = grain_us / 1e6
        for beh in prog.behaviors.values():
            orig = beh.on_execute

            def grained(ctx, orig=orig):
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < spin:
                    pass
                return orig(ctx)

            beh.on_execute = grained  # type: ignore[method-assign]
    return prog, phase_inputs


def measure(cfg: Dict[str, Any], threads: int,
            grain_us: float) -> Dict[str, Any]:
    prog, phases = build_program(
        cfg["width"], cfg["depth"], cfg["phases"], grain_us
    )
    walls: List[float] = []
    contention: List[float] = []
    commits_per_acq: List[float] = []
    executions = 0
    for _ in range(cfg["reps"]):
        res = ParallelEngine(prog, num_threads=threads).run(phases)
        executions = res.execution_count
        walls.append(res.wall_time)
        contention.append(res.stats["lock"]["contention_ratio"])
        commits_per_acq.append(
            res.stats["batching"]["commits_per_acquisition"]
        )
    return {
        "threads": threads,
        "grain_us": grain_us,
        "executions": executions,
        "wall_time_s": statistics.median(walls),
        "contention_ratio": statistics.median(contention),
        "commits_per_acquisition": statistics.median(commits_per_acq),
    }


def main(argv: List[str] | None = None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    cfg = QUICK if args.quick else FULL
    rows: List[Dict[str, Any]] = []
    for grain in cfg["grains_us"]:
        for threads in cfg["threads"]:
            row = measure(cfg, threads, grain)
            rows.append(row)
            print(
                f"grain={grain:>4}us k={threads} "
                f"wall={row['wall_time_s'] * 1000:8.1f}ms "
                f"contention={row['contention_ratio']:.4f} "
                f"commits/acq={row['commits_per_acquisition']:.2f}"
            )
    return finish(args, "lock_contention", cfg, rows, None)


if __name__ == "__main__":
    raise SystemExit(main())

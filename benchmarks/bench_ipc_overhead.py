"""Process-engine IPC overhead: wire cost per workload at default flags.

Every dispatch ships one claimed run as one ``RunMsg`` frame, answered by
one ``ResultBatch``; repeated payload values are interned so a frame
pickles them once, and an adaptive per-worker credit window bounds the
in-flight contexts.  This benchmark reports what that wire path costs on
two workloads:

* ``cpu_heavy`` — the wide grid of ``cpu_heavy_workload`` at a small
  spin grain, the IPC-bound regime;
* ``laundering`` — the stateful anomaly-detection program of
  :mod:`repro.models.domains.laundering`, whose repetitive transaction
  payloads are where interning and delta state sync pay off.

Each row records task frames (``ipc_round_trips``) against executions,
serialization bytes per traffic class, the credit windows and the
interner counters.  Criterion: every row matches the serial oracle — a
wire path that loses or reorders results is not an optimisation.

CI smoke::

    python benchmarks/bench_ipc_overhead.py --quick

Full run::

    python benchmarks/bench_ipc_overhead.py --out BENCH_ipc_overhead.json
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    from _runner import bootstrap_src, finish, parse_args
else:
    from ._runner import bootstrap_src, finish, parse_args

bootstrap_src()

from repro.analysis import check_serializable  # noqa: E402
from repro.core.serial import SerialExecutor  # noqa: E402
from repro.models.domains.laundering import (  # noqa: E402
    build_laundering_workload,
)
from repro.runtime.mp import ProcessEngine  # noqa: E402
from repro.streams.workloads import cpu_heavy_workload  # noqa: E402

FULL = {
    "workers": 2,
    "cpu_heavy": {"width": 8, "depth": 2, "phases": 40, "grain": 200},
    "laundering": {"phases": 300, "branches": 8},
}
QUICK = {
    "workers": 2,
    "cpu_heavy": {"width": 4, "depth": 2, "phases": 8, "grain": 100},
    "laundering": {"phases": 30, "branches": 4},
}


def _workloads(cfg: Dict[str, Any]):
    ch = cfg["cpu_heavy"]
    la = cfg["laundering"]
    return {
        "cpu_heavy": lambda: cpu_heavy_workload(
            width=ch["width"],
            depth=ch["depth"],
            phases=ch["phases"],
            grain=ch["grain"],
            seed=13,
        ),
        "laundering": lambda: build_laundering_workload(
            phases=la["phases"], branches=la["branches"], seed=11
        ),
    }


def _measure(
    make_workload, workload_name: str, cfg: Dict[str, Any]
) -> Dict[str, Any]:
    prog, phases = make_workload()
    serial = SerialExecutor(prog).run(phases)
    prog, phases = make_workload()
    result = ProcessEngine(prog, num_workers=cfg["workers"]).run(phases)
    wire = result.stats["serialization_bytes"]
    return {
        "workload": workload_name,
        "engine": result.engine,
        "executions": result.execution_count,
        "wall_time_s": result.wall_time,
        "ipc_round_trips": result.stats["ipc_round_trips"],
        "serialization_bytes": wire,
        "total_bytes": wire["total_bytes"],
        "task_bytes": wire["tasks"]["bytes"],
        "result_bytes": wire["results"]["bytes"],
        "mean_tasks_per_frame": result.stats["ipc"]["mean_tasks_per_frame"],
        "window": result.stats["ipc"]["window_final"],
        "interning": result.stats["ipc"]["interning"],
        "oracle_equal": bool(check_serializable(serial, result)),
    }


def check_criterion(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    checks = [
        {"check": "oracle_equal", "row": row["workload"],
         "passed": row["oracle_equal"]}
        for row in rows
    ]
    return {
        "evaluated": True,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    cfg = QUICK if args.quick else FULL

    rows: List[Dict[str, Any]] = []
    for workload_name, make_workload in _workloads(cfg).items():
        row = _measure(make_workload, workload_name, cfg)
        rows.append(row)
        print(
            f"{workload_name:<10} "
            f"round_trips={row['ipc_round_trips']:>5} "
            f"(executions={row['executions']}) "
            f"bytes={row['total_bytes']:>9} "
            f"wall={row['wall_time_s'] * 1000:8.1f}ms "
            f"oracle={'ok' if row['oracle_equal'] else 'DIVERGED'}"
        )

    criterion = check_criterion(rows)
    print("criterion[oracle_equal]:",
          "PASS" if criterion["passed"] else "FAIL")

    hardware = {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    return finish(
        args,
        "ipc_overhead",
        cfg,
        rows,
        criterion,
        extra={"hardware": hardware},
    )


if __name__ == "__main__":
    raise SystemExit(main())

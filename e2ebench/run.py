"""End-to-end benchmark: every workload through every public entry point,
gated against the serial oracle.

Usage, from the repository root::

    python3 e2ebench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer ledger.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark vs the serial oracle")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path[:0] = [str(HERE), str(SRC)]
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return bench.run(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, HERE / "results", ROOT)


if __name__ == "__main__":
    sys.exit(main())

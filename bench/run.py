#!/usr/bin/env python3
"""Benchmark of the brookscolor engine on one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload holes-sparse --seed 1 --seconds 20 --trace 0

The instances come from --seed alone. With --trace 0 the last stdout line
holds the end-to-end metrics, with --trace 1 the per-layer metrics (see
bench/LAYERS.md). The line before it holds the run context: git sha, Python
version, CPU count, src/ line count, generator parameters, sample counts and
percentiles. Exits 2 without a result when the checkout has no src/brookscolor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "brookscolor" / "__init__.py").is_file():
        print(f"no brookscolor sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # The spawner starts first, while this process is small (see spawner.py).
    with Spawner(str(ROOT / "src")) as spawner:
        sys.path.insert(0, str(ROOT / "src"))
        import harness
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r};"
                         f" choose from {', '.join(workloads.WORKLOADS)}")
        result, context = harness.measure(workloads.WORKLOADS[args.workload], args.seed,
                                          args.seconds, bool(args.trace), ROOT, spawner)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

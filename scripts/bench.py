#!/usr/bin/env python3
"""Run the benchmark on every workload and write one JSON file of results.

For each workload of bench/workloads.py, bench/run.py runs twice with a fixed
seed: with --trace 0 (end-to-end metrics) and with --trace 1 (per-layer
metrics). Each run's context and metrics are kept as it printed them.

The children get an explicit environment: PYTHONDONTWRITEBYTECODE and
PYTHONUNBUFFERED are removed, since the first makes every CLI child compile
the package and the second switches output to the unbuffered write path, and
PYTHONPYCACHEPREFIX names a bytecode cache under the checkout that is filled
before any timing, so compile time stays out of every metric.

Example, from the root of a checkout:
    python scripts/bench.py --seconds 25 --out BENCH_<pr>.json
"""

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402

PYCACHE = ROOT / ".bench-pycache"
SEED = 1


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def warm_cache() -> None:
    """Compile src/ and bench/ into the children's bytecode cache."""
    saved, sys.pycache_prefix = sys.pycache_prefix, str(PYCACHE)
    try:
        if not all([compileall.compile_dir(ROOT / d, quiet=1) for d in ("src", "bench")]):
            raise SystemExit("compiling src/ or bench/ failed")
    finally:
        sys.pycache_prefix = saved


def run_one(workload: str, seconds: float, trace: int, env: dict[str, str]) -> dict:
    """One bench/run.py run: its context line and its result line."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"bench/run.py --workload {workload} --trace {trace} exited"
                         f" {done.returncode}:\n{done.stderr}")
    return {"context": json.loads(lines[-2])["context"], "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="seconds per bench/run.py run (default 25)")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default all)")
    args = parser.parse_args()
    env = child_env()
    warm_cache()
    runs = {name: {f"trace{trace}": run_one(name, args.seconds, trace, env)
                   for trace in (0, 1)}
            for name in args.workload or WORKLOADS}
    first = next(iter(runs.values()))["trace0"]["context"]
    report = {
        "context": {
            "command": ["python", "scripts/bench.py", *sys.argv[1:]],
            "git_sha": first["git_sha"],
            "python": first["python"],
            "nproc": first["nproc"],
            "seed": SEED,
            "seconds": args.seconds,
            "env": {"PYTHONDONTWRITEBYTECODE": None, "PYTHONUNBUFFERED": None,
                    "PYTHONPYCACHEPREFIX": "warmed, under the checkout"},
        },
        "src_lines": first["src_lines"],
        "workloads": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

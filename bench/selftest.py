#!/usr/bin/env python3
"""Self-test of the benchmark: planted defects and a smoke run per workload.

Run from the root of a checkout:

    python3 bench/selftest.py

Every planted defect (a monochromatic edge, a colour outside its list, a
"hole" with a chord, an order that is not a perfect elimination ordering,
wrong exit codes) must be reported by the checker and counted as a failed
operation. The smoke run measures each workload, shrunk to a few small
instances, untraced and traced, and needs zero failures and every metric
that BENCHMARK.json names.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

# C4 = 1-2-3-4-1 plus a pendant 5 on 1; lists of two colours.
C4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5)]
C4_LISTS = {v: frozenset({1, 2}) for v in range(1, 6)}
# K4 minus the edge 2-4: the cycle 1-2-3-4 has the chord 1-3.
CHORD_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
GOOD = {1: 1, 2: 2, 3: 1, 4: 2, 5: 2}


def planted_defects() -> list[str]:
    """Run each planted defect through the checker; return what was missed."""
    c4 = checker.Truth(5, C4_EDGES, C4_LISTS)
    chorded = checker.Truth(4, CHORD_EDGES, {v: frozenset({1, 2, 3}) for v in range(1, 5)})

    def text(phi: dict[int, int]) -> str:
        return "".join(f"v {v} {c}\n" for v, c in sorted(phi.items()))

    cases = [
        ("monochromatic edge", "monochromatic",
         checker.color_run_defect(c4, 0, text({**GOOD, 2: 1}))),
        ("colour outside its list", "outside-list",
         checker.color_run_defect(c4, 0, text({**GOOD, 5: 7}))),
        ("hole with a chord", "chord",
         checker.chordal_run_defect(chorded, 1, "hole 1 2 3 4\n")),
        ("order that is not a PEO", "not-peo",
         checker.chordal_run_defect(c4, 0, "chordal 1 3 2 4 5\n")),
        ("color exit code 2", "exited", checker.color_run_defect(c4, 2, text(GOOD))),
        ("hole reported with exit 0", "exited",
         checker.chordal_run_defect(c4, 0, "hole 1 2 3 4\n")),
        ("uncoloured vertex", "cover", checker.color_run_defect(c4, 0, text({1: 1, 2: 2}))),
    ]
    missed = [name for name, _, defect in cases if defect is None]
    missed += [f"{name} (got {defect!r})" for name, kind, defect in cases
               if defect is not None and kind not in defect]
    if checker.color_run_defect(c4, 0, text(GOOD)) is not None:
        missed.append("a correct colouring was rejected")
    if checker.chordal_run_defect(c4, 1, "hole 1 2 3 4\n") is not None:
        missed.append("a correct hole was rejected")
    return missed


def planted_solver_failures(spawner: Spawner) -> list[str]:
    """A solver that returns a defective colouring, or raises, must show up
    as failed operations of an untraced run."""
    workload = small(workloads.WORKLOADS["holes-sparse"])
    missed = []
    for name, solve in (("monochromatic solver", _monochromatic_solve),
                        ("off-list solver", _off_list_solve),
                        ("raising solver", _raising_solve)):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
            child = harness.Child(spawner, Path(tmp))
            # zero seconds: exactly one pass
            _, tally, _ = harness.measure_untraced(workload, 1, 0.0, child, Path(tmp), solve=solve)
        # every solve fails; the CLI runs use the real solver and pass
        solves = tally.attempted - 2 * workload.cli_count
        if tally.failed != solves or solves < workload.count:
            missed.append(f"{name}: {tally.failed} of {tally.attempted} failed")
    return missed


def _monochromatic_solve(g, lists):
    from brookscolor import brooks_list_color

    phi = brooks_list_color(g, lists)
    u, v = next(iter(g.edges()))
    phi[v] = phi[u]
    return phi


def _off_list_solve(g, lists):
    from brookscolor import brooks_list_color

    phi = brooks_list_color(g, lists)
    phi[g.vertices[0]] = max(max(c) for c in lists.values()) + 1
    return phi


def _raising_solve(g, lists):
    raise RuntimeError("planted")


def small(workload: workloads.Workload) -> workloads.Workload:
    """The workload with a few small instances of the same families."""
    families = tuple(
        dataclasses.replace(fam, n=tuple(min(n, 40) for n in fam.n[:8]))
        for fam in workload.families
    )
    count = min(workload.count, 2 * len(families))
    return dataclasses.replace(workload, families=families, count=count,
                               cli_count=min(workload.cli_count, 2))


def smoke(spawner: Spawner) -> list[str]:
    """Each shrunk workload, untraced and traced, must pass and report every
    metric named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        shrunk = small(workload)
        for trace_on, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = harness.measure(shrunk, 1, 0.5, trace_on, ROOT, spawner)
            want = {m["name"] for m in spec[key]}
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace_on}: {result['failed']} failures")
            if set(result["metrics"]) != want:
                problems.append(f"{name} trace={trace_on}: metrics differ from BENCHMARK.json")
            if trace_on:
                rounds = result["metrics"]["solver.hole_rounds"]["value"]
                if (rounds == 0) != (name == "chordal-wide"):
                    problems.append(f"{name}: solver.hole_rounds = {rounds}")
        print(f"smoke {name}: ok" if not problems else f"smoke {name}: {problems}")
    return problems


def main() -> int:
    problems = planted_defects()
    print("planted defects:", "all reported" if not problems else problems)
    with Spawner(str(ROOT / "src")) as spawner:
        print("planted solver failures (their FAIL lines go to stderr):")
        solver = planted_solver_failures(spawner)
        print("  ", "all counted" if not solver else solver)
        problems += solver + smoke(spawner)
    print("selftest:", "PASS" if not problems else "FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

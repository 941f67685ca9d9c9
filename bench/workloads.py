"""Seeded workloads: instance specs, a Δ-regular builder and set-up.

Every instance of a workload is derived from the workload seed alone, so the
same seed always yields the same instance files. The library's generators
make the tree-plus-edges, chordal-simplicial and gnp-capped graphs; the
Δ-regular graphs come from :func:`regular_edges` below, because the library
has no regular model. The library writes the instance files.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from brookscolor.generate import GeneratorConfig, SplitMix64, random_lists
from brookscolor.graph import build_graph
from brookscolor.instance_io import emit_instance
from brookscolor.solver import check_hypotheses

# The package re-exports the function `generate` under the module's name.
gen_mod = importlib.import_module("brookscolor.generate")

REGULAR = "regular"
# Retry bounds of the pairing model in regular_edges.
MAX_RESTARTS = 200
MAX_REJECTS = 200


class RegularBuildFailed(Exception):
    """The pairing model hit its retry bound without a simple regular graph."""


def regular_edges(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """A simple connected delta-regular graph on 1..n from the pairing model.

    Each vertex owns `delta` points. Points are paired one at a time: the
    last unpaired point is matched with a uniformly drawn other unpaired
    point, and a draw that would make a loop or a repeated edge is rejected
    and redrawn. After MAX_REJECTS rejections in a row, or when the result
    is disconnected, the whole pairing restarts; after MAX_RESTARTS
    restarts the build fails with :class:`RegularBuildFailed`.
    """
    if n <= delta or (n * delta) % 2:
        raise RegularBuildFailed(f"no simple {delta}-regular graph on {n} vertices")
    for _ in range(MAX_RESTARTS):
        points = [v for v in range(1, n + 1) for _ in range(delta)]
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        while points:
            u = points.pop()
            for _ in range(MAX_REJECTS):
                j = rng.below(len(points))
                w = points[j]
                key = (u, w) if u < w else (w, u)
                if w != u and key not in seen:
                    break
            else:
                break
            points[j] = points[-1]
            points.pop()
            seen.add(key)
            edges.append(key)
        if not points and len(edges) * 2 == n * delta and _connected(n, edges):
            return sorted(edges)
    raise RegularBuildFailed(
        f"pairing model gave no simple connected {delta}-regular graph on {n}"
        f" vertices in {MAX_RESTARTS} restarts"
    )


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@dataclass(frozen=True)
class Spec:
    """Generator parameters of one instance."""

    model: str
    n: int
    delta: int
    palette: int
    list_size: int
    seed: int


@dataclass
class Instance:
    """One generated instance: its spec, the ground truth and its file."""

    ident: int
    spec: Spec
    edges: list[tuple[int, int]]
    lists: dict[int, frozenset[int]]
    path: str
    truth: object = None  # checker.Truth


@dataclass(frozen=True)
class Family:
    """A generator model with the sizes and degree caps it cycles through.

    Every instance gets lists of Δ colours drawn from a palette of 2Δ.
    """

    model: str
    n: tuple[int, ...]
    delta: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    """A named mix of instance families; the CLI runs the first `cli_count`."""

    name: str
    families: tuple[Family, ...]
    count: int
    cli_count: int


# Why each workload exists is recorded in BENCHMARK.json and bench/LAYERS.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("holes-sparse", (Family("tree-plus-edges", (500,), (6,)),),
                 count=12, cli_count=12),
        Workload("regular-tight", (Family(REGULAR, (400,), (3, 4)),),
                 count=12, cli_count=12),
        Workload("chordal-wide", (Family("chordal-simplicial", (5000,), (6,)),),
                 count=4, cli_count=4),
        Workload(
            "batch-small",
            tuple(Family(model, tuple(range(5, 121)), (3, 4, 5, 6))
                  for model in ("tree-plus-edges", "chordal-simplicial", "gnp-capped", REGULAR)),
            count=400,
            cli_count=24,
        ),
    )
}


def specs(workload: Workload, seed: int) -> list[Spec]:
    """The instance specs of a workload for one seed (before screening).

    Families take turns; within a family, degree caps and sizes cycle
    deterministically, so every seed gets the same mix of them and the seed
    picks only the graphs and lists.
    """
    rng = SplitMix64(seed)
    out = []
    fams = workload.families
    for i in range(2 * workload.count + 100):
        fam = fams[i % len(fams)]
        k = i // len(fams)
        delta = fam.delta[k % len(fam.delta)]
        n = fam.n[(k * 7919) % len(fam.n)]  # a prime stride spreads the sizes
        if fam.model == REGULAR:
            n = max(n, delta + 2)
            n += (n * delta) % 2
        out.append(Spec(fam.model, n, delta, palette=2 * delta, list_size=delta,
                        seed=rng.next_u64()))
    return out


def make_instance(ident: int, spec: Spec, workdir: Path) -> tuple[Instance | None, float]:
    """Generate one instance and write its file; None when it fails the
    solver's hypotheses (then no file is written).

    Also returns the seconds spent in the library generating, screening and
    writing it. The benchmark's own regular builder runs before that clock
    starts, so the time is the program's alone. The library generator is
    looked up at call time, so a traced run's wrapper on
    ``brookscolor.generate.generate`` sees the call.
    """
    rng = SplitMix64(spec.seed)
    regular = regular_edges(spec.n, spec.delta, rng) if spec.model == REGULAR else None
    t0 = perf_counter()
    if regular is None:
        g, lists = gen_mod.generate(GeneratorConfig(
            n=spec.n, delta=spec.delta, model=spec.model, seed=spec.seed,
            palette=spec.palette, list_size=spec.list_size,
        ))
    else:
        g = build_graph(spec.n, regular)
        lists = random_lists(g.vertices, spec.palette, spec.list_size, rng)
    if not check_hypotheses(g, lists).ok:
        return None, perf_counter() - t0
    path = workdir / f"i{ident}.col"
    path.write_text(emit_instance(g, lists), encoding="utf-8")
    elapsed = perf_counter() - t0
    return Instance(ident, spec, list(g.edges()), dict(lists), str(path)), elapsed


def build(workload: Workload, seed: int, workdir: Path) -> list[Instance]:
    """The workload's instances for a seed, screened and written to `workdir`."""
    out: list[Instance] = []
    for spec in specs(workload, seed):
        inst, _ = make_instance(len(out), spec, workdir)
        if inst is not None:
            out.append(inst)
            if len(out) == workload.count:
                return out
    raise RuntimeError(f"{workload.name}: too few instances pass the hypotheses")


def describe(workload: Workload) -> dict:
    """Generator parameters of a workload, for the run context."""
    return {
        "families": [{"model": f.model, "n": [min(f.n), max(f.n)], "delta": list(f.delta),
                      "list_size": "delta", "palette": "2*delta"} for f in workload.families],
        "count": workload.count,
        "cli_count": workload.cli_count,
    }

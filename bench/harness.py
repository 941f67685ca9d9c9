"""One benchmark run: set up a workload, measure it, check every output.

An untraced run (trace 0) measures what users see: the ``brookscolor color``
and ``brookscolor chordal`` commands as child processes, one at a time, and
the library call ``brooks_list_color`` in-process. A traced run (trace 1)
measures the layers instead, with :class:`tracing.Tracer` wrappers installed,
by driving ``brookscolor.cli.main`` in-process.

A run makes full passes over the workload's instances until its seconds
are spent, at least one. Every child run and library call is checked
by :mod:`checker` and counted in a :class:`Tally`. The untraced run's
times are scaled to a machine of constant speed by a :class:`Gauge`.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checker
import tracing
import workloads
from brookscolor import brooks_list_color, build_graph, cli

CHILD_TIMEOUT_S = 60.0


class Tally:
    """Operations attempted and failed; the first few defects go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, defect: str | None) -> None:
        self.attempted += 1
        if defect is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {what}: {defect}", file=sys.stderr)


def _passes(items, budget_s: float, one) -> int:
    """Call `one` on every item, in order, pass after pass; returns the
    number of passes.

    Only full passes are made, so every item is visited equally often. The
    last one is the pass that ends nearest to `budget_s` seconds, judged by
    the length of the pass before it; there is at least one.
    """
    started = perf_counter()
    passes = 0
    while True:
        t0 = perf_counter()
        for item in items:
            one(item)
        passes += 1
        now = perf_counter()
        if now - started + (now - t0) / 2 > budget_s:
            return passes


# Size of the reference work (see Gauge) and its time on the faster speed
# level of the baseline machine in bench/LAYERS.md.
REFERENCE_LOOPS = 8000
REFERENCE_VERTICES = 3000
REFERENCE_S = 0.0035


class Gauge:
    """Scales times to a machine of constant speed.

    A shared virtual machine runs the same Python code up to twice as fast
    at one moment as at another, and the share of slow moments differs from
    run to run. :meth:`around` times a fixed piece of reference work right
    before and right after an operation; the operation's time times
    ``REFERENCE_S`` ÷ the mean of the two reference times is its time on a
    machine where the reference work takes ``REFERENCE_S`` seconds. A change
    to the program moves the scaled time as much as the raw one. Operations
    follow each other directly, so one operation's reference after is the
    next one's reference before.

    The reference work is pure Python like the library's: a loop of small
    set and dict updates, which tracks the processor's speed, and a
    breadth-first search over a fixed graph of ``REFERENCE_VERTICES``
    vertices, which also tracks its caches. Together they tracked the
    library's speed at least as well as either alone (bench/LAYERS.md).
    """

    def __init__(self) -> None:
        n = REFERENCE_VERTICES
        self.adj = [{(v * 3 + 1) % n, (v * 7 + 2) % n, (v * 31 + 5) % n} for v in range(n)]
        for v, ws in enumerate(self.adj):
            for w in list(ws):
                self.adj[w].add(v)
        self.references = [self._reference()]

    def _reference(self) -> float:
        t0 = perf_counter()
        seen = set()
        counts: dict[int, int] = {}
        for i in range(REFERENCE_LOOPS):
            k = i * 7 % 1021
            seen.add(k)
            counts[k & 255] = counts.get(k & 255, 0) + 1
        order = {0: 0}
        queue = [0]
        for u in queue:
            for w in self.adj[u]:
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
        return perf_counter() - t0

    def around(self, op):
        """Returns ``op()`` and the factor that scales its times."""
        before = self.references[-1]
        out = op()
        after = self._reference()
        self.references.append(after)
        return out, 2 * REFERENCE_S / (before + after)


def _mean_of_medians(per_instance: list[list[float]]) -> float:
    """The mean over instances of each instance's median sample.

    The median of an instance's repeats drops single stalls. The mean over
    instances, unlike their median, does not jump between the clusters of a
    workload that mixes instance sizes (regular-tight alternates Δ = 3 and
    Δ = 4).
    """
    return statistics.fmean(statistics.median(s) for s in per_instance if s)


def setup(workload: workloads.Workload, seed: int, workdir: Path) -> list:
    """Generate the workload's instances and write their files; returns the
    instances, with their checker ground truth."""
    insts = workloads.build(workload, seed, workdir)
    for inst in insts:
        inst.truth = checker.Truth(inst.spec.n, inst.edges, inst.lists)
    return insts


class Child:
    """Runs ``python -m brookscolor ARGS`` through the spawner helper and
    reports exit code, stdout, wall seconds and peak RSS in MiB."""

    def __init__(self, spawner, workdir: Path):
        self.spawner = spawner
        self.out = str(workdir / "stdout.txt")
        self.err = str(workdir / "stderr.txt")

    def run(self, *args: str) -> tuple[int, str, float, float]:
        reply = self.spawner.run([sys.executable, "-m", "brookscolor", *args],
                                 self.out, self.err, CHILD_TIMEOUT_S)
        with open(self.out, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        return reply["code"], stdout, reply["wall"], reply["maxrss_kb"] / 1024.0


def _solve(inst, tally: Tally, solve) -> float:
    """Time one in-process solve on a freshly built graph, as a library user
    pays it (graphs fill per-vertex caches lazily); any exception is a failure."""
    g = build_graph(inst.spec.n, inst.edges)
    t0 = perf_counter()
    try:
        phi = solve(g, inst.lists)
    except Exception as exc:  # a failed operation, counted and reported
        elapsed = perf_counter() - t0
        tally.record(f"solve i{inst.ident}", f"{type(exc).__name__}: {exc}")
        return elapsed
    elapsed = perf_counter() - t0
    tally.record(f"solve i{inst.ident}", checker.coloring_defect(inst.truth, phi))
    return elapsed


def _cli_color(child: Child, inst, tally: Tally) -> tuple[float, float]:
    code, stdout, wall, rss = child.run("color", inst.path)
    tally.record(f"color i{inst.ident}", checker.color_run_defect(inst.truth, code, stdout))
    return wall, rss


def _cli_chordal(child: Child, inst, tally: Tally) -> float:
    code, stdout, wall, _ = child.run("chordal", inst.path)
    tally.record(f"chordal i{inst.ident}", checker.chordal_run_defect(inst.truth, code, stdout))
    return wall


def _in_process(argv: list[str]) -> tuple[int, str]:
    """`brookscolor.cli.main(argv)` with its output captured; exceptions
    escape to the caller."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _timing(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (none below 20 samples)."""
    out = {"median": statistics.median(values), "samples": len(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        cuts = statistics.quantiles(values, n=100)
        out[f"p{q}"] = cuts[q - 1]
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_untraced(workload, seed, seconds, child, workdir, solve=brooks_list_color):
    """End-to-end metrics: returns (metrics, tally, details).

    Each pass visits every instance and, one after another, sets it up again
    (`setup_s` sums the instances' set-up times), runs the `color` and
    `chordal` commands (on the first `cli_count` instances) and the library
    solve, so slow drift of the machine's speed touches every metric alike.
    """
    tally = Tally()
    insts = setup(workload, seed, workdir)

    # warm-up, untimed and not counted (pass one repeats both): file cache,
    # first child start, first solve
    child.run("color", insts[0].path)
    _solve(insts[0], Tally(), solve)

    timed = ("setup", "color", "chordal", "solve")
    samples = {key: [[] for _ in insts] for key in timed + ("rss",)}
    scaled = {key: [[] for _ in insts] for key in timed}
    gauge = Gauge()

    def add(key: str, i: int, seconds: float, scale: float) -> None:
        samples[key][i].append(seconds)
        scaled[key][i].append(seconds * scale)

    def one(inst) -> None:
        i = inst.ident
        # set the instance up again, rewriting its file with the same text
        (_, secs), scale = gauge.around(lambda: workloads.make_instance(i, inst.spec, workdir))
        add("setup", i, secs, scale)
        if i < workload.cli_count:
            (wall, rss), scale = gauge.around(lambda: _cli_color(child, inst, tally))
            add("color", i, wall, scale)
            samples["rss"][i].append(rss)
            wall, scale = gauge.around(lambda: _cli_chordal(child, inst, tally))
            add("chordal", i, wall, scale)
        add("solve", i, *gauge.around(lambda: _solve(inst, tally, solve)))

    passes = _passes(insts, seconds, one)
    typical = {key: _mean_of_medians(per_instance) for key, per_instance in scaled.items()}
    typical["rss"] = _mean_of_medians(samples["rss"])
    metrics = {
        "color_s": _metric(typical["color"], "s"),
        "chordal_s": _metric(typical["chordal"], "s"),
        "solve_s": _metric(typical["solve"], "s"),
        "batch_inst_per_s": _metric(1.0 / typical["solve"], "1/s"),
        "peak_rss_mb": _metric(typical["rss"], "MiB"),
        "setup_s": _metric(len(insts) * typical["setup"], "s"),
    }
    details = {key: _timing([x for s in per_instance for x in s])
               for key, per_instance in samples.items()}
    details["unscaled"] = {key: _mean_of_medians(samples[key]) for key in timed}
    details["reference"] = _timing(gauge.references)
    details["passes"] = passes
    details["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    return metrics, tally, details


def measure_traced(workload, seed, seconds, child, workdir):
    """Per-layer metrics: returns (metrics, tally, details).

    Each visit of an instance first runs, untraced, the library solve and
    (on the first `cli_count` instances) the `color` command as a child, the
    references for `trace.overhead_ratio` and `cli.overhead_s`. Then, with
    the layer wrappers installed, it runs `color` and `chordal` through
    `brookscolor.cli.main`.
    """
    tally = Tally()
    tracer = tracing.Tracer()
    tracer.install("generate", "generate", "generate.generate")
    try:
        insts = setup(workload, seed, workdir)
    finally:
        tracer.uninstall()
    child.run("color", insts[0].path)  # warm-up, untimed

    plain_solve: list[list[float]] = [[] for _ in insts]
    plain_color: list[list[float]] = [[] for _ in insts]

    def visit(inst) -> None:
        i = inst.ident
        plain_solve[i].append(_solve(inst, tally, brooks_list_color))
        if i < workload.cli_count:
            plain_color[i].append(_cli_color(child, inst, tally)[0])
        tracer.instance = i
        with tracer:
            for command, check in (("color", checker.color_run_defect),
                                   ("chordal", checker.chordal_run_defect)):
                try:
                    code, stdout = _in_process([command, inst.path])
                except Exception as exc:  # a failed operation, counted and reported
                    tally.record(f"traced {command} i{i}", f"{type(exc).__name__}: {exc}")
                    continue
                tally.record(f"traced {command} i{i}", check(inst.truth, code, stdout))

    passes = _passes(insts, seconds, visit)
    metrics = layer_metrics(tracer, insts, workload.cli_count, passes, plain_solve, plain_color)
    details = {"traced_passes": passes, "spans": len(tracer.spans),
               "fail_ratio": tally.failed / max(tally.attempted, 1)}
    return metrics, tally, details


def layer_metrics(tracer, insts, cli_count, passes, plain_solve, plain_color) -> dict:
    """Per-instance layer totals from the spans and counts of the traced passes."""
    total, own, by_inst, top_solve, max_depth = tracer.summary()
    counts = tracer.counts
    visits = passes * len(insts)

    def per(value: float) -> float:
        return value / visits

    def secs(name: str) -> float:
        return per(total.get(name, 0.0))

    rounds = counts["solver.build_branch_pair"]
    attempts = counts["chordal.find_hole_from_witness"]
    plain = sum(statistics.fmean(v) for v in plain_solve)  # one untraced pass
    overheads = [
        statistics.median(plain_color[i])
        - (by_inst.get(("instance_io.parse_instance", i), 0.0)
           + by_inst.get(("instance_io.emit_coloring", i), 0.0)) / passes
        - statistics.median(plain_solve[i])
        for i in range(min(cli_count, len(insts)))
    ]
    values = {
        "solver.hole_rounds": (per(rounds), "count"),
        "solver.calls": (per(counts["solver.brooks_list_color"]), "count"),
        "solver.max_depth": (max_depth, "count"),
        "solver.branch_f": (per(counts["branch_f"]), "count"),
        "solver.branch_h": (per(counts["branch_h"]), "count"),
        "solver.hole_len_mean": (counts["hole_vertices"] / rounds if rounds else 0.0, "vertices"),
        "graph.surgery_calls": (per(counts["graph.surgery"]), "count"),
        "graph.surgery_s": (secs("graph.surgery"), "s"),
        "graph.surgery_vertices": (per(counts["surgery_vertices"]), "count"),
        "solver.select_branch.self_s": (per(own.get("solver.select_branch", 0.0)), "s"),
        "graph.is_complete_s": (secs("graph.is_complete"), "s"),
        "chordal.certificate_calls": (per(counts["chordal.chordality_certificate"]), "count"),
        "chordal.certificate.self_s": (per(own.get("chordal.chordality_certificate", 0.0)), "s"),
        "chordal.find_hole_s": (secs("chordal.find_hole_from_witness"), "s"),
        "chordal.find_hole_attempts": (per(attempts), "count"),
        "chordal.find_hole_hit_ratio": (
            counts["find_hole_hits"] / attempts if attempts else 0.0, "ratio"),
        "chordal.mcs_order_s": (secs("chordal.mcs_order"), "s"),
        "chordal.verify_peo_s": (secs("chordal.verify_peo"), "s"),
        "chordal.greedy_s": (secs("chordal.greedy_color_along"), "s"),
        "instance_io.parse_s": (secs("instance_io.parse_instance"), "s"),
        "graph.build_graph_s": (secs("graph.build_graph"), "s"),
        "instance_io.emit_s": (secs("instance_io.emit_coloring"), "s"),
        "cli.overhead_s": (statistics.fmean(overheads), "s"),
        "oracle.verify_calls": (per(counts["oracle.verify_coloring"]), "count"),
        "oracle.verify_coloring_s": (secs("oracle.verify_coloring"), "s"),
        "solver.brooks_list_color.self_s": (per(own.get("solver.brooks_list_color", 0.0)), "s"),
        "graph.connected_components_s": (secs("graph.connected_components"), "s"),
        "generate.generate_s": (total.get("generate.generate", 0.0) / len(insts), "s"),
        "trace.overhead_ratio": (top_solve / passes / plain, "ratio"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def context(workload, seed: int, seconds: int, trace_on: bool, root: Path) -> dict:
    """Where and on what the numbers were measured."""
    return {
        "workload": workload.name,
        "generator": workloads.describe(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace_on,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(root),
        "load": "closed loop, one client: one child process or one call at a time",
    }


def measure(workload, seed: int, seconds: float, trace_on: bool, root: Path, spawner):
    """Run one workload; returns (result line, context with details).

    `spawner` is a started :class:`spawner.Spawner` with ``src`` on its
    PYTHONPATH.
    """
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=root))
    try:
        child = Child(spawner, workdir)
        if trace_on:
            metrics, tally, details = measure_traced(workload, seed, seconds, child, workdir)
        else:
            metrics, tally, details = measure_untraced(workload, seed, seconds, child, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    ctx = context(workload, seed, int(seconds), trace_on, root)
    ctx["details"] = details
    return result, ctx

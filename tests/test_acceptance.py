"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import pytest

from brookscolor import (
    GeneratorConfig,
    HypothesisViolation,
    SplitMix64,
    brooks_list_color,
    brute_force_list_color,
    build_branch_pair,
    build_graph,
    check_hypotheses,
    chordality_certificate,
    emit_instance,
    generate,
    greedy_color_along,
    is_complete,
    parse_coloring,
    random_lists,
    select_branch,
    uniform_lists,
    verify_coloring,
    verify_peo,
)
from brookscolor.chordal import Hole
from brookscolor.cli import main

from reference import (
    clique_number_from_peo,
    complete_graph,
    cycle_graph,
    is_chordal_bruteforce,
    is_hole_bruteforce,
    petersen_graph,
)


def _report(name: str, ok: bool, extra: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, name


def test_solver_totality():
    """1000 tree-plus-edges instances per delta in 3..6, n in [5, 60], lists of
    size delta from a palette of 2*delta: every one colors and verifies."""
    t0 = time.time()
    failures = []
    total = 0
    for delta in (3, 4, 5, 6):
        draw = SplitMix64(delta)
        seed = delta * 1_000_000
        made = 0
        while made < 1000:
            n = 5 + draw.below(56)
            config = GeneratorConfig(n=n, delta=delta, model="tree-plus-edges",
                                     seed=seed, palette=2 * delta, list_size=delta)
            seed += 1
            g, lists = generate(config)
            if not check_hypotheses(g, lists).ok:
                continue  # regenerate with the next seed
            made += 1
            total += 1
            try:
                phi = brooks_list_color(g, lists)
                if verify_coloring(g, lists, phi) is not None:
                    failures.append(config)
            except Exception:  # includes InternalInvariantBroken
                failures.append(config)
    elapsed = time.time() - t0
    _report("solver-totality", total == 4000 and not failures,
            f" ({total} instances, {len(failures)} failures, {elapsed:.1f}s)")


def test_chordal_greedy_suite():
    """500 chordal-simplicial graphs (n <= 50) with lists sized to the clique
    number: greedy along the elimination order always succeeds."""
    t0 = time.time()
    draw = SplitMix64(777)
    failures = 0
    for i in range(500):
        n = 1 + draw.below(50)
        delta = 3 + draw.below(4)
        g, _ = generate(GeneratorConfig(n=n, delta=delta, model="chordal-simplicial",
                                        seed=i, palette=4, list_size=2))
        certificate = chordality_certificate(g)
        if not certificate.is_chordal:
            failures += 1
            continue
        omega = clique_number_from_peo(g, certificate.peo)
        lists = random_lists(g.vertices, palette=2 * omega, list_size=omega, rng=i)
        try:
            phi = greedy_color_along(g, certificate.peo, lists)
            if verify_coloring(g, lists, phi) is not None:
                failures += 1
        except Exception:
            failures += 1
    _report("chordal-greedy-suite", failures == 0,
            f" (500 graphs, {failures} failures, {time.time()-t0:.1f}s)")


def test_certificate_soundness_and_completeness():
    """10,000 gnp-capped graphs with n <= 9: the verdict matches brute-force
    chordless-cycle enumeration, orders verify, holes pass the audit."""
    t0 = time.time()
    draw = SplitMix64(20260808)
    mismatches = 0
    holes = 0
    for i in range(10_000):
        n = 1 + draw.below(9)
        delta = 1 + draw.below(8)
        g, _ = generate(GeneratorConfig(n=n, delta=delta, model="gnp-capped",
                                        seed=i, palette=4, list_size=2))
        certificate = chordality_certificate(g)
        if certificate.is_chordal:
            ok = verify_peo(g, certificate.peo) is None and is_chordal_bruteforce(g)
        else:
            holes += 1
            ok = is_hole_bruteforce(g, certificate.hole.cycle) \
                and not is_chordal_bruteforce(g)
        if not ok:
            mismatches += 1
    _report("certificate-soundness-completeness", mismatches == 0,
            f" (10000 graphs, {holes} holes, {mismatches} mismatches,"
            f" {time.time()-t0:.1f}s)")


def test_oracle_consistency():
    """2000 hypothesis-satisfying instances with n <= 9: the exhaustive oracle
    never reports unsatisfiable and validates the solver's output."""
    t0 = time.time()
    draw = SplitMix64(4)
    models = ("tree-plus-edges", "gnp-capped")
    failures = 0
    count = 0
    seed = 0
    while count < 2000:
        n = 2 + draw.below(8)
        delta = 3 + draw.below(4)
        model = models[draw.below(2)]
        g, lists = generate(GeneratorConfig(n=n, delta=delta, model=model, seed=seed,
                                            palette=2 * delta, list_size=delta))
        seed += 1
        if not check_hypotheses(g, lists).ok:
            continue
        count += 1
        phi = brooks_list_color(g, lists)
        oracle_result = brute_force_list_color(g, lists)
        ok = (
            verify_coloring(g, lists, phi) is None
            and isinstance(oracle_result, dict)
            and verify_coloring(g, lists, oracle_result) is None
        )
        if not ok:
            failures += 1
    _report("oracle-consistency", failures == 0,
            f" (2000 instances, {failures} failures, {time.time()-t0:.1f}s)")


def test_hypothesis_rejection():
    """Complete graphs on delta+1 vertices: rejected with lists of size delta,
    colored with lists of size delta+1."""
    ok = True
    for delta in (3, 4, 5):
        g = complete_graph(delta + 1)
        with pytest.raises(HypothesisViolation):
            brooks_list_color(g, uniform_lists(g, delta))
        lists = uniform_lists(g, delta + 1)
        phi = brooks_list_color(g, lists)
        ok = ok and verify_coloring(g, lists, phi) is None
    _report("hypothesis-rejection", ok)


def test_branch_selection_unit():
    """The 5-vertex construction: F is complete, so H is selected, and the
    instance still colors end to end from three colors."""
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3)])
    pair = build_branch_pair(g, Hole((1, 2, 3, 4)))
    f_is_k4 = pair.f_graph.n == 4 and is_complete(pair.f_graph, pair.f_graph.vertices)
    branch, retained = select_branch(pair, 3)
    lists = uniform_lists(g, 3)
    phi = brooks_list_color(g, lists)
    ok = (
        f_is_k4
        and branch == pair.h_graph
        and retained == (2, 3, 4)
        and verify_coloring(g, lists, phi) is None
    )
    _report("branch-selection-unit", ok)


def test_cli_determinism(tmp_path, capsys):
    """Every subcommand, run twice on identical input and seed, produces
    byte-identical stdout/stderr and the same exit code."""
    c5 = tmp_path / "c5.col"
    c5.write_text(emit_instance(cycle_graph(5)))
    pet = tmp_path / "petersen.col"
    pet.write_text(emit_instance(petersen_graph()))
    small = tmp_path / "small.col"
    small.write_text(emit_instance(cycle_graph(4), uniform_lists(cycle_graph(4), 2)))

    code = main(["color", str(pet), "--uniform", "3"])
    captured = capsys.readouterr()
    assert code == 0
    coloring = tmp_path / "pet-coloring.col"
    coloring.write_text(captured.out)

    commands = [
        ["gen", "--n", "40", "--delta", "4", "--seed", "7"],
        ["gen", "--n", "30", "--delta", "5", "--model", "chordal-simplicial", "--seed", "2"],
        ["chordal", str(c5)],
        ["chordal", str(pet)],
        ["color", str(pet), "--uniform", "3"],
        ["verify", str(pet), str(coloring)],
        ["oracle", str(small)],
        ["seedrun", "5", "--n", "12", "--delta", "3", "--seed", "1"],
    ]
    ok = True
    for argv in commands:
        first_code = main(argv)
        first = capsys.readouterr()
        second_code = main(argv)
        second = capsys.readouterr()
        ok = ok and first_code == second_code and first.out == second.out \
            and first.err == second.err
    # the seeded batch, run last, ran rather than being refused twice alike
    ok = ok and first_code == 0 and first.out.endswith("pass 5 fail 0\n")
    _report("cli-determinism", ok, f" ({len(commands)} subcommand runs)")


def test_desk_scale_performance(tmp_path, capsys):
    """`color` on a generated n=2000, delta=6 instance finishes within 5 s."""
    instance = tmp_path / "large.col"
    g, lists = generate(GeneratorConfig(n=2000, delta=6, model="tree-plus-edges",
                                        seed=2024, palette=12, list_size=6))
    instance.write_text(emit_instance(g, lists))
    t0 = time.time()
    code = main(["color", str(instance)])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    phi = parse_coloring(out)
    ok = code == 0 and elapsed < 5.0 and verify_coloring(g, lists, phi) is None
    _report("desk-scale-performance", ok, f" ({elapsed:.2f}s for n=2000)")

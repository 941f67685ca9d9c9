import itertools
import random
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from brookscolor import (
    BothBranchesBlocked,
    GeneratorConfig,
    Hole,
    HypothesisViolation,
    InvalidHole,
    MissingList,
    NoStartPair,
    OracleOutcome,
    ResidualTooSmall,
    brooks_list_color,
    brute_force_list_color,
    build_branch_pair,
    build_graph,
    check_hypotheses,
    chordality_certificate,
    extend_around_cycle,
    generate,
    is_complete,
    max_degree,
    random_lists,
    residual_lists,
    select_branch,
    uniform_lists,
    verify_coloring,
)
from brookscolor import Graph, solver

from reference import (
    all_cycle_colorings,
    bfs_reachable,
    brooks_per_component,
    check_hypotheses_by_components,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    component_refusal,
    cycle_graph,
    disjoint_union,
    extend_around_cycle_pairs,
    generalized_petersen,
    path_graph,
    petersen_graph,
)
from strategies import nonchordal_graphs


def five_vertex_gadget():
    # cycle 1-2-3-4-1 plus vertex 5 adjacent to 1, 2, 3
    return build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3)])


# ------------------------------------------------------------ check_hypotheses

def test_hypotheses_petersen_ok_via_max_degree_condition():
    g = petersen_graph()
    assert check_hypotheses(g, uniform_lists(g, 3)).ok


def test_hypotheses_k4_with_three_colors_rejected():
    g = complete_graph(4)
    report = check_hypotheses(g, uniform_lists(g, 3))
    assert not report.ok
    assert report.failing_component == (1, 2, 3, 4)


def test_hypotheses_c5_ok_via_degree_condition():
    g = cycle_graph(5)
    assert check_hypotheses(g, uniform_lists(g, 3)).ok


def test_hypotheses_low_degree_component_needs_degree_plus_one():
    # a lone edge with single-color lists cannot be colored
    g = build_graph(2, [(1, 2)])
    report = check_hypotheses(g, uniform_lists(g, 1))
    assert not report.ok and "max degree" in report.detail


def test_hypotheses_missing_list():
    g = cycle_graph(4)
    with pytest.raises(MissingList):
        check_hypotheses(g, {1: frozenset({1})})


def test_hypotheses_short_list_under_max_degree_condition():
    g = petersen_graph()
    lists = uniform_lists(g, 3) | {7: frozenset({1, 2})}
    report = check_hypotheses(g, lists)
    assert not report.ok and "vertex 7" in report.detail


def test_hypotheses_checked_per_component():
    # K4 (bad with 3 colors) next to a C5 (fine): rejected as a whole
    g = disjoint_union(complete_graph(4), cycle_graph(5), offset=4)
    report = check_hypotheses(g, uniform_lists(g, 3))
    assert not report.ok and report.failing_component == (1, 2, 3, 4)
    # a C5 with slack (passed over) before a K4 with a short list
    g = disjoint_union(cycle_graph(5), complete_graph(4), offset=5)
    report = check_hypotheses(g, uniform_lists(g, 3) | {9: frozenset({1, 2})})
    assert not report.ok and report.failing_component == (6, 7, 8, 9)
    assert "vertex 9 has fewer than 3 colors" in report.detail


# Components with slack whose lists all reach their degrees: greedy in reverse
# breadth-first order from the slack colors them (the degree-choosability
# base case), though they fail the earlier screen's (a), every list longer
# than its degree, and (b).
SLACK_REACHING_DEGREES = {
    # P3 with lists {1, 2}: the ends have slack
    "p3": (lambda: path_graph(3), {1: {1, 2}, 2: {1, 2}, 3: {1, 2}},
           {2: 1, 3: 2, 1: 2}),
    # the star K_{1,3} with centre {1, 2, 3} and leaves {1, 2}
    "star": (lambda: build_graph(4, [(1, 2), (1, 3), (1, 4)]),
             {1: {1, 2, 3}, 2: {1, 2}, 3: {1, 2}, 4: {1, 2}},
             {1: 1, 4: 2, 3: 2, 2: 2}),
    # K4 with one list of four colors: not the complete-graph obstruction
    "k4-one-long-list": (lambda: complete_graph(4),
                         {1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 2, 3}, 4: {1, 2, 3, 4}},
                         {3: 1, 2: 2, 1: 3, 4: 4}),
}


@pytest.mark.parametrize("name", SLACK_REACHING_DEGREES)
def test_slack_with_lists_reaching_degrees_is_colored(name):
    make, raw, want = SLACK_REACHING_DEGREES[name]
    g = make()
    lists = {v: frozenset(colors) for v, colors in raw.items()}
    assert not check_hypotheses_by_components(g, lists).ok
    assert check_hypotheses(g, lists).ok
    phi = brooks_list_color(g, lists)
    assert list(phi.items()) == sorted(want.items())
    assert verify_coloring(g, lists, phi) is None


def _meets_a_condition(g, lists, comp):
    # the package's rule, from first principles
    sizes = [len(lists[v]) for v in comp]
    degrees = [g.degree(v) for v in comp]
    if all(s >= d for s, d in zip(sizes, degrees)) and sizes != degrees:
        return True
    d = max(degrees)
    complete = all(g.adjacent(u, v) for u, v in itertools.combinations(comp, 2))
    return d >= 3 and min(sizes) >= d and not (len(comp) == d + 1 and complete)


@st.composite
def several_components(draw):
    """Up to three random parts on at most 9 vertices in all, and lists of
    one color fewer than, as many as or one more than each degree."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: sum(s) <= 9))
    edges, first = [], 1
    for k in sizes:
        part = list(itertools.combinations(range(first, first + k), 2))
        edges += draw(st.lists(st.sampled_from(part), unique=True)) if part else []
        first += k
    g = build_graph(first - 1, edges)
    lists = {}
    for v in g.vertices:
        size = max(0, g.degree(v) + draw(st.integers(-1, 1)))
        lists[v] = frozenset(draw(st.permutations(range(1, max(4, size) + 1)))[:size])
    return g, lists


@given(several_components())
def test_hypotheses_widen_the_component_scan(instance):
    g, lists = instance
    before = check_hypotheses_by_components(g, lists)
    report = check_hypotheses(g, lists)
    comps = {tuple(sorted(bfs_reachable(g, v))) for v in g.vertices}
    assert report.ok == all(_meets_a_condition(g, lists, comp) for comp in comps)
    if before.ok:
        assert report.ok
        assert brooks_list_color(g, lists) == brooks_per_component(g, lists)[0]
    if not report.ok:
        assert not before.ok
        comp = report.failing_component
        assert report.detail == f"component {comp[0]}...: {component_refusal(g, lists, comp)}"
        with pytest.raises(HypothesisViolation):
            brooks_list_color(g, lists)
    elif not before.ok:
        assert verify_coloring(g, lists, brooks_list_color(g, lists)) is None
        assert not isinstance(brute_force_list_color(g, lists), OracleOutcome)


# ----------------------------------------------------------- build_branch_pair

def test_branch_pair_c4():
    pair = build_branch_pair(cycle_graph(4), Hole((1, 2, 3, 4)))
    assert pair.f_graph.vertices == (1, 2, 3) and is_complete(pair.f_graph, (1, 2, 3))
    assert pair.h_graph.vertices == (2, 3, 4) and is_complete(pair.h_graph, (2, 3, 4))
    assert pair.f_retained == (1, 2, 3) and pair.h_retained == (2, 3, 4)


def test_branch_pair_c5():
    pair = build_branch_pair(cycle_graph(5), Hole((1, 2, 3, 4, 5)))
    assert pair.f_graph.vertices == (1, 2, 3) and is_complete(pair.f_graph, (1, 2, 3))
    assert pair.h_graph.vertices == (2, 3, 4) and is_complete(pair.h_graph, (2, 3, 4))


def test_branch_pair_five_vertex_gadget():
    pair = build_branch_pair(five_vertex_gadget(), Hole((1, 2, 3, 4)))
    assert pair.f_graph.vertices == (1, 2, 3, 5)
    assert is_complete(pair.f_graph, (1, 2, 3, 5))  # F is K4
    h = pair.h_graph
    assert h.vertices == (2, 3, 4, 5)
    assert h.adjacent(2, 4) and h.adjacent(5, 2) and h.adjacent(5, 3) and not h.adjacent(5, 4)


def test_branch_pair_rejects_invalid_holes():
    c4 = cycle_graph(4)
    with pytest.raises(InvalidHole):
        build_branch_pair(c4, Hole((1, 2, 3)))  # too short
    with pytest.raises(InvalidHole):
        build_branch_pair(c4, Hole((1, 2, 4, 3)))  # not a cycle in order
    k4 = complete_graph(4)
    with pytest.raises(InvalidHole):
        build_branch_pair(k4, Hole((1, 2, 3, 4)))  # chords everywhere
    with pytest.raises(InvalidHole):
        build_branch_pair(c4, Hole((1, 2, 3, 9)))  # unknown vertex
    with pytest.raises(InvalidHole, match="repeats a vertex"):
        build_branch_pair(c4, Hole((1, 2, 3, 1)))


@given(nonchordal_graphs())
def test_branch_pair_invariants(g):
    cert = chordality_certificate(g)
    assert not cert.is_chordal
    hole = cert.hole
    pair = build_branch_pair(g, hole)
    x = hole.cycle
    # the added chords, each joining its retained triple's ends, were absent in g
    assert not g.adjacent(*pair.f_retained[::2])
    assert not g.adjacent(*pair.h_retained[::2])
    # strict shrink and degree bound
    for branch in (pair.f_graph, pair.h_graph):
        assert branch.n < g.n
        assert max_degree(branch) <= max_degree(g)
    assert pair.f_graph.vertices == tuple(sorted(set(g.vertices) - set(x[3:])))
    assert pair.h_graph.vertices == tuple(sorted(set(g.vertices) - set(x[4:]) - {x[0]}))


# --------------------------------------------------------------- select_branch

def test_select_branch_prefers_f():
    pair = build_branch_pair(cycle_graph(5), Hole((1, 2, 3, 4, 5)))
    branch, retained = select_branch(pair, 3)
    assert branch == pair.f_graph and retained == (1, 2, 3)


def test_select_branch_skips_f_when_it_is_complete():
    pair = build_branch_pair(five_vertex_gadget(), Hole((1, 2, 3, 4)))
    branch, retained = select_branch(pair, 3)
    assert branch == pair.h_graph and retained == (2, 3, 4)


def test_select_branch_both_blocked_is_detectable():
    # synthetic pair whose branches are both K4: the error is raisable even
    # though the solver can never produce such a pair
    k4a = complete_graph(4)
    pair = build_branch_pair(cycle_graph(4), Hole((1, 2, 3, 4)))
    forged = type(pair)(
        f_graph=k4a,
        h_graph=k4a,
        cycle=pair.cycle,
        f_retained=pair.f_retained,
        h_retained=pair.h_retained,
    )
    with pytest.raises(BothBranchesBlocked):
        select_branch(forged, 3)


# -------------------------------------------------------------- residual_lists

def test_residual_no_outside_vertices_keeps_lists():
    c4 = cycle_graph(4)
    lists = uniform_lists(c4, 3)
    star = residual_lists(c4, Hole((1, 2, 3, 4)), lists, {})
    assert star == {v: frozenset({1, 2, 3}) for v in (1, 2, 3, 4)}


def test_residual_five_vertex_gadget():
    g = five_vertex_gadget()
    star = residual_lists(g, Hole((1, 2, 3, 4)), uniform_lists(g, 3), {5: 1})
    assert star == {
        1: frozenset({2, 3}),
        2: frozenset({2, 3}),
        3: frozenset({2, 3}),
        4: frozenset({1, 2, 3}),
    }


def test_residual_ignores_colors_outside_lists():
    g = five_vertex_gadget()
    star = residual_lists(g, Hole((1, 2, 3, 4)), uniform_lists(g, 3), {5: 9})
    assert star == {v: frozenset({1, 2, 3}) for v in (1, 2, 3, 4)}


def test_residual_too_small_raises():
    g = five_vertex_gadget()
    lists = uniform_lists(g, 3) | {1: frozenset({1, 2})}
    with pytest.raises(ResidualTooSmall) as info:
        residual_lists(g, Hole((1, 2, 3, 4)), lists, {5: 1})
    assert info.value.vertex == 1


# --------------------------------------------------------- extend_around_cycle

def test_extend_k4_mixed_lists():
    star = {
        1: frozenset({1, 2}),
        2: frozenset({2, 3}),
        3: frozenset({1, 2}),
        4: frozenset({1, 2}),
    }
    assert extend_around_cycle(Hole((1, 2, 3, 4)), star) == {1: 1, 2: 2, 3: 1, 4: 2}


def test_extend_k4_uniform_lists():
    star = {v: frozenset({1, 2, 3}) for v in (1, 2, 3, 4)}
    assert extend_around_cycle(Hole((1, 2, 3, 4)), star) == {1: 1, 2: 2, 3: 1, 4: 2}


def test_extend_k5_three_color_lists():
    star = {v: frozenset({1, 2, 3}) for v in (1, 2, 3, 4, 5)}
    out = extend_around_cycle(Hole((1, 2, 3, 4, 5)), star)
    assert out == {1: 1, 2: 3, 3: 2, 4: 1, 5: 2}


def test_extend_starts_at_the_first_forward_pair_that_can():
    # (x1, x2) and (x2, x3) fail, since {1,2} leaves {1,2} one color; the
    # walk starts at (x3, x4), where x4's three colors leave two
    star = {
        1: frozenset({1, 2}),
        2: frozenset({1, 2}),
        3: frozenset({1, 2}),
        4: frozenset({1, 2, 3}),
    }
    out = extend_around_cycle(Hole((1, 2, 3, 4)), star)
    cycle = (1, 2, 3, 4)
    for i, v in enumerate(cycle):
        assert out[v] != out[cycle[(i + 1) % 4]]
        assert out[v] in star[v]


def test_extend_no_start_pair():
    star = {v: frozenset({1, 2}) for v in (1, 2, 3, 4)}
    with pytest.raises(NoStartPair):
        extend_around_cycle(Hole((1, 2, 3, 4)), star)


def test_extend_rejects_undersized_lists():
    star = {1: frozenset({1}), 2: frozenset({1, 2}),
            3: frozenset({1, 2}), 4: frozenset({1, 2})}
    with pytest.raises(ResidualTooSmall):
        extend_around_cycle(Hole((1, 2, 3, 4)), star)


@given(st.integers(min_value=4, max_value=6), st.data())
def test_extend_matches_exhaustive_search_under_precondition(k, data):
    palette = [1, 2, 3, 4]
    cycle = tuple(range(1, k + 1))
    lists = {}
    for v in cycle:
        size = data.draw(st.integers(min_value=2, max_value=4))
        lists[v] = frozenset(data.draw(st.permutations(palette))[:size])
    star = lists
    start_exists = any(
        any(len(lists[b] - {c}) >= 2 for c in lists[a])
        for a, b in [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        + [(cycle[i], cycle[(i - 1) % k]) for i in range(k)]
    )
    assume(start_exists)  # the solver's preconditions guarantee this
    out = extend_around_cycle(Hole(cycle), star)
    valid = list(all_cycle_colorings(cycle, lists))
    assert valid, "exhaustive search must also succeed"
    assert out in valid


@given(st.integers(min_value=3, max_value=9), st.data())
def test_extend_matches_pair_scan_reference(k, data):
    # the start rule stated outright gives what the scan of all 2k ordered
    # pairs gave: the same coloring, or the same exception and message
    cycle = tuple(data.draw(st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True)))
    lists = {v: data.draw(st.frozensets(st.integers(1, 5), min_size=1, max_size=5))
             for v in cycle}
    assert _extend_outcome(extend_around_cycle, cycle, lists) == \
        _extend_outcome(extend_around_cycle_pairs, cycle, lists)


def test_extend_matches_pair_scan_reference_on_all_short_cycles():
    # every assignment of nonempty subsets of {1, 2, 3} to cycles of 3 to 5
    # vertices, where lists of 3 and lists contained in a neighbor's are common.
    # No start pair exists exactly when every list is the same 2-set, so the
    # one forward sweep finds a start whenever the reference's two sweeps do.
    subsets = [frozenset(s) for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size)]
    for k in (3, 4, 5):
        cycle = tuple(range(1, k + 1))
        for chosen in itertools.product(subsets, repeat=k):
            lists = dict(zip(cycle, chosen))
            outcome = _extend_outcome(extend_around_cycle, cycle, lists)
            assert outcome == _extend_outcome(extend_around_cycle_pairs, cycle, lists), lists
            one_pair = len(set(chosen)) == 1 and len(chosen[0]) == 2
            assert (isinstance(outcome, tuple) and outcome[0] is NoStartPair) == one_pair, lists


def _extend_outcome(extend, cycle, lists):
    try:
        return extend(Hole(cycle), lists)
    except Exception as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------ brooks_list_color

def test_brooks_petersen():
    g = petersen_graph()
    lists = uniform_lists(g, 3)
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None
    assert isinstance(brute_force_list_color(g, lists), dict)


def test_brooks_k33_offset_palette():
    g = complete_bipartite(3, 3)
    lists = uniform_lists(g, 6) | {v: frozenset({4, 5, 6}) for v in g.vertices}
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None


def test_brooks_k4_three_colors_rejected():
    g = complete_graph(4)
    with pytest.raises(HypothesisViolation):
        brooks_list_color(g, uniform_lists(g, 3))


def test_brooks_two_petersen_copies():
    g = disjoint_union(petersen_graph(), petersen_graph(), offset=10)
    lists = uniform_lists(g, 3)
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None


def test_brooks_five_vertex_gadget_end_to_end():
    g = five_vertex_gadget()
    lists = uniform_lists(g, 3)
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None


def test_brooks_empty_graph():
    assert brooks_list_color(build_graph(0, []), {}) == {}


def test_brooks_deterministic():
    g, lists = generate(GeneratorConfig(n=40, delta=4, seed=11, palette=8, list_size=4))
    assert brooks_list_color(g, lists) == brooks_list_color(g, lists)


def test_brooks_moderate_instance_with_deep_recursion():
    g, lists = generate(GeneratorConfig(n=400, delta=5, seed=5, palette=10, list_size=5))
    assert check_hypotheses(g, lists).ok
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=3, max_value=6))
def test_brooks_totality_on_seeded_instances(seed, delta):
    n = 5 + seed % 40
    g, lists = generate(GeneratorConfig(n=n, delta=delta, model="tree-plus-edges",
                                        seed=seed, palette=2 * delta, list_size=delta))
    assume(check_hypotheses(g, lists).ok)
    phi = brooks_list_color(g, lists)  # must not raise
    assert verify_coloring(g, lists, phi) is None


@given(st.integers(min_value=0, max_value=2**32))
def test_brooks_agrees_with_oracle_on_small_instances(seed):
    n = 2 + seed % 8
    delta = 3 + seed % 3
    g, lists = generate(GeneratorConfig(n=n, delta=delta, model="gnp-capped",
                                        seed=seed, palette=2 * delta, list_size=delta))
    assume(check_hypotheses(g, lists).ok)
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None
    assert isinstance(brute_force_list_color(g, lists), dict)


# ------------------------------------------------------- tight hole rounds
# Connected Δ-regular graphs with lists of exactly Δ colors have no vertex
# with slack, so every one of them goes through at least one hole round.

TIGHT_FAMILIES = {
    "prism-3": lambda: generalized_petersen(3, 1),
    "prism-5": lambda: generalized_petersen(5, 1),
    "prism-8": lambda: generalized_petersen(8, 1),
    "circulant-7": lambda: circulant_graph(7, (1, 2)),
    "circulant-10": lambda: circulant_graph(10, (1, 2)),
    "circulant-13": lambda: circulant_graph(13, (1, 2)),
    "gen-petersen-7-2": lambda: generalized_petersen(7, 2),
    "gen-petersen-8-3": lambda: generalized_petersen(8, 3),
    "k33": lambda: complete_bipartite(3, 3),
    "petersen": petersen_graph,
}


@pytest.fixture()
def branch_picks(monkeypatch):
    """'F' or 'H' per hole round, recorded around the solver's select_branch."""
    picks = []
    real = solver.select_branch

    def spy(pair, delta):
        branch, retained = real(pair, delta)
        picks.append("F" if retained == pair.f_retained else "H")
        return branch, retained

    monkeypatch.setattr(solver, "select_branch", spy)
    return picks


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", sorted(TIGHT_FAMILIES))
def test_brooks_tight_regular_families(family, seed, branch_picks):
    g = TIGHT_FAMILIES[family]()
    delta = max_degree(g)
    assert all(g.degree(v) == delta for v in g.vertices)
    lists = random_lists(g.vertices, palette=delta + 1, list_size=delta, rng=seed)
    phi = brooks_list_color(g, lists)
    assert verify_coloring(g, lists, phi) is None
    assert branch_picks, "a tight component must branch on a hole"
    if g.n <= 10:
        assert isinstance(brute_force_list_color(g, lists), dict)


def test_brooks_cubic_ten_vertices_takes_two_f_rounds(branch_picks):
    g = build_graph(10, [(1, 4), (1, 5), (1, 7), (2, 3), (2, 5), (2, 6), (3, 5), (3, 6),
                         (4, 9), (4, 10), (6, 10), (7, 8), (7, 9), (8, 9), (8, 10)])
    lists = uniform_lists(g, 3)
    assert verify_coloring(g, lists, brooks_list_color(g, lists)) is None
    assert branch_picks == ["F", "F"]


def test_brooks_cubic_twenty_two_vertices_takes_four_f_rounds(branch_picks, monkeypatch):
    # nested prism and K_{3,3} blocks: the only pinned input whose hole loop
    # runs past two rounds, so the holes are recolored from depth four out
    g = build_graph(22, [(1, 2), (1, 20), (1, 22), (2, 5), (2, 9), (3, 10), (3, 17), (3, 22),
                         (4, 7), (4, 8), (4, 12), (5, 14), (5, 18), (6, 15), (6, 18), (6, 21),
                         (7, 12), (7, 17), (8, 10), (8, 19), (9, 15), (9, 21), (10, 13),
                         (11, 14), (11, 16), (11, 20), (12, 17), (13, 19), (13, 22), (14, 16),
                         (15, 21), (16, 20), (18, 19)])
    rounds = []
    real = solver.build_branch_pair

    def spy(tight, hole):
        rounds.append((tight.n, len(hole.cycle)))
        return real(tight, hole)

    monkeypatch.setattr(solver, "build_branch_pair", spy)
    lists = uniform_lists(g, 3)
    assert verify_coloring(g, lists, brooks_list_color(g, lists)) is None
    assert branch_picks == ["F", "F", "F", "F"]
    assert rounds == [(22, 6), (18, 6), (14, 6), (10, 4)]


def test_brooks_cubic_eight_vertices_takes_h(branch_picks):
    g = build_graph(8, [(1, 2), (1, 3), (1, 7), (2, 7), (2, 8), (3, 4), (3, 5), (4, 5),
                        (4, 6), (5, 6), (6, 8), (7, 8)])
    lists = uniform_lists(g, 3)
    assert verify_coloring(g, lists, brooks_list_color(g, lists)) is None
    assert branch_picks == ["H"]


def test_brooks_leaves_recursion_limit_alone():
    g = generalized_petersen(500, 2)
    limit = sys.getrecursionlimit()
    lists = uniform_lists(g, 3)
    assert verify_coloring(g, lists, brooks_list_color(g, lists)) is None
    assert sys.getrecursionlimit() == limit


# ------------------------------------------------ one slack pass, then rounds
# Components with slack are colored by one greedy pass over the whole input;
# only tight components get hole rounds. The output must match the earlier
# per-component solver (tests/reference.py) on disjoint unions.

UNION_TIGHT = {
    "petersen": petersen_graph,
    "ff-10": lambda: build_graph(10, [(1, 4), (1, 5), (1, 7), (2, 3), (2, 5), (2, 6),
                                      (3, 5), (3, 6), (4, 9), (4, 10), (6, 10), (7, 8),
                                      (7, 9), (8, 9), (8, 10)]),
    "four-rounds-22": lambda: build_graph(22, [
        (1, 2), (1, 20), (1, 22), (2, 5), (2, 9), (3, 10), (3, 17), (3, 22), (4, 7),
        (4, 8), (4, 12), (5, 14), (5, 18), (6, 15), (6, 18), (6, 21), (7, 12), (7, 17),
        (8, 10), (8, 19), (9, 15), (9, 21), (10, 13), (11, 14), (11, 16), (11, 20),
        (12, 17), (13, 19), (13, 22), (14, 16), (15, 21), (16, 20), (18, 19)]),
    "h-8": lambda: build_graph(8, [(1, 2), (1, 3), (1, 7), (2, 7), (2, 8), (3, 4), (3, 5),
                                   (4, 5), (4, 6), (5, 6), (6, 8), (7, 8)]),
    "prism-5": lambda: generalized_petersen(5, 1),
    "circulant-10": lambda: circulant_graph(10, (1, 2)),
    "k33": lambda: complete_bipartite(3, 3),
}


def _union_piece(rng: random.Random):
    """A small graph with lists that pass the hypotheses: a tight graph (lists
    of exactly its degree), the same with one roomy list, or a slack piece."""
    kind = rng.randrange(4)
    if kind < 2:
        g = UNION_TIGHT[rng.choice(sorted(UNION_TIGHT))]()
        delta = max_degree(g)
        palette = list(range(1, delta + 2 + rng.randrange(2)))
        lists = {v: frozenset(rng.sample(palette, delta)) for v in g.vertices}
        if kind == 1:
            lists[rng.choice(g.vertices)] = frozenset(palette[:delta + 1])
        return g, lists
    if kind == 2:
        g = build_graph(2, [(1, 2)])
        return g, uniform_lists(g, 2)
    g, _ = generate(GeneratorConfig(n=rng.randrange(1, 30), delta=rng.randrange(2, 5),
                                    seed=rng.randrange(1000)))
    palette = list(range(1, 8))
    return g, {v: frozenset(rng.sample(palette, g.degree(v) + 1)) for v in g.vertices}


def _shuffled_union(rng: random.Random, pieces):
    """Disjoint union of the pieces on interleaved, non-contiguous ids; each
    piece's ids are shuffled, or kept in order so that its pinned hole rounds
    stay as they are."""
    total = sum(g.n for g, _ in pieces)
    ids = rng.sample(range(10 * total + 10), total)
    vertices, edges, lists = [], [], {}
    for g, piece_lists in pieces:
        mine, ids = ids[:g.n], ids[g.n:]
        if rng.randrange(2):
            mine.sort()
        new = dict(zip(g.vertices, mine))
        vertices += new.values()
        edges += [(new[u], new[v]) for u, v in g.edges()]
        lists.update({new[v]: piece_lists[v] for v in g.vertices})
    return build_graph(vertices, edges), lists


def test_brooks_matches_per_component_reference_on_disjoint_unions(monkeypatch):
    rounds = []
    real = solver.build_branch_pair

    def spy(g, hole):
        rounds.append(hole)
        return real(g, hole)

    monkeypatch.setattr(solver, "build_branch_pair", spy)
    total_rounds = most_rounds = 0
    for seed in range(300):
        rng = random.Random(seed)
        count = rng.randrange(1, 7)
        g, lists = _shuffled_union(rng, [_union_piece(rng) for _ in range(count)])
        assert check_hypotheses(g, lists).ok
        want, want_rounds = brooks_per_component(g, lists)
        rounds.clear()
        assert brooks_list_color(g, lists) == want, seed
        assert len(rounds) == want_rounds, seed
        most_rounds = max(most_rounds, want_rounds)
        total_rounds += want_rounds
    assert total_rounds >= 300 and most_rounds >= 4
    # tight components of different degree: the component scan accepts each
    # one in turn
    g = disjoint_union(petersen_graph(), circulant_graph(9, (1, 2)), 10)
    lists = {v: frozenset(range(1, 4 + (v > 10))) for v in g.vertices}
    assert check_hypotheses(g, lists).ok
    assert brooks_list_color(g, lists) == brooks_per_component(g, lists)[0]


def _by_id(g, lists):
    """lists as a list indexed by vertex id, None where no vertex has the id."""
    out = [None] * len(g.slots)
    for v in g.vertices:
        out[v] = lists[v]
    return out


def test_brooks_lists_by_id_color_as_the_dict_does():
    # tight components beside slack ones, on interleaved sparse ids
    for seed in range(100):
        rng = random.Random(seed)
        g, lists = _shuffled_union(rng, [_union_piece(rng) for _ in range(rng.randrange(1, 5))])
        want = brooks_list_color(g, lists)
        got = brooks_list_color(g, _by_id(g, lists))
        assert len(got) == len(g.slots), seed
        assert [got[v] for v in g.vertices] == [want[v] for v in g.vertices], seed
        assert {got[v] for v in range(len(got)) if not g.has_vertex(v)} <= {None}, seed


def test_brooks_lists_by_id_name_a_missing_vertex():
    g = cycle_graph(4)
    lists = _by_id(g, uniform_lists(g, 3))
    lists[3] = None
    with pytest.raises(MissingList) as info:
        brooks_list_color(g, lists)
    assert info.value.vertex == 3
    with pytest.raises(MissingList) as info:  # shorter than the largest id
        brooks_list_color(g, lists[:3] + [frozenset({1, 2, 3})])
    assert info.value.vertex == 4
    with pytest.raises(MissingList) as info:
        check_hypotheses(g, lists[:4])
    assert info.value.vertex == 3


class _CountedIds(tuple):
    """A copy of an id tuple that adds to reads[0] one per id iterated."""

    def __iter__(self):
        for v in tuple.__iter__(self):
            self.reads[0] += 1
            yield v


class _CountedSlots(list):
    """A copy of a slot list that adds to reads[0] one plus the length per
    neighbor tuple read."""

    def __getitem__(self, v):
        nbrs = list.__getitem__(self, v)
        self.reads[0] += 1 + len(nbrs)
        return nbrs


def _count_reads(monkeypatch, reads):
    """Count the vertex ids handed out by Graph.vertices and Graph.slots."""

    def counted(cls, name):
        def read(self):
            copy = cls(getattr(self, name))
            copy.reads = reads
            return copy

        return property(read)

    monkeypatch.setattr(Graph, "vertices", counted(_CountedIds, "_ids"))
    monkeypatch.setattr(Graph, "slots", counted(_CountedSlots, "_slots"))


def test_brooks_work_is_linear_in_many_components(monkeypatch):
    # 2 000 disjoint edges (slack) and 200 Petersen copies (tight). Every pass
    # over a graph reads its vertex tuple or its neighbor dict, so the vertex
    # ids handed out count the work of those passes; carving each component
    # out of the whole graph would read at least n per component.
    edges = [(2 * i + 1, 2 * i + 2) for i in range(2000)]
    pet = petersen_graph()
    for c in range(200):
        edges += [(4000 + 10 * c + u, 4000 + 10 * c + v) for u, v in pet.edges()]
    g = build_graph(6000, edges)
    lists = {v: frozenset({1, 2} if v <= 4000 else {1, 2, 3}) for v in g.vertices}
    read = [0]
    _count_reads(monkeypatch, read)
    phi = brooks_list_color(g, lists)
    # 22.4 n, where one pass over the graph reads n + 2m = 2.7 n; carving each
    # of the 200 tight components out of the whole graph would add 200 n
    assert read[0] <= 40 * g.n, read[0]
    assert verify_coloring(g, lists, phi) is None


# ------------------------------------------------ touch-only hole rounds
# A round changes only the hole's neighborhood, so after the one pass over
# the input each round should cost about what it touches, not n.

def test_brooks_hole_rounds_pay_for_what_they_touch(branch_picks, monkeypatch):
    # the 22-vertex four-round pin spliced into a prism C_1000 x K_2 on ids
    # 23..2 022: core edge (1, 22) and prism edge (23, 24) become (1, 23) and
    # (22, 24). The rounds stay those of the pin, on a graph 2 000 larger.
    edges = [e for e in UNION_TIGHT["four-rounds-22"]().edges() if e != (1, 22)]
    for ring in (23, 1023):
        edges += [(ring + i, ring + (i + 1) % 1000) for i in range(1000)]
    edges += [(a, a + 1000) for a in range(23, 1023)]
    edges.remove((23, 24))
    edges += [(1, 23), (22, 24)]
    g = build_graph(2022, edges)
    assert all(g.degree(v) == 3 for v in g.vertices)
    sizes = []
    real = solver.build_branch_pair

    def spy(tight, hole):
        sizes.append(tight.n)
        return real(tight, hole)

    monkeypatch.setattr(solver, "build_branch_pair", spy)
    # vertex ids read through neighbors(), vertices and slots; a pass over
    # this cubic graph reads 4 n to 6 n of them
    reads = [0]
    neighbors = Graph.neighbors

    def counted(self, v):
        nbrs = neighbors(self, v)
        reads[0] += 1 + len(nbrs)
        return nbrs

    monkeypatch.setattr(Graph, "neighbors", counted)
    _count_reads(monkeypatch, reads)
    lists = uniform_lists(g, 3)
    phi = brooks_list_color(g, lists)
    assert branch_picks == ["F", "F", "F", "F"]
    assert sizes == [2022, 2018, 2014, 2010]
    # 27.4 n: 17 n for the input's list-against-degree scan (7 n), its
    # components (5 n) and the final verification (5 n), 8 n to order (4 n)
    # and color (4 n) the 2 000 vertices the last round frees, 1 n to hand
    # the colors out as a dict, 1 n for uniform_lists, and 0.4 n for the four
    # rounds' certificates, branch pairs and residual lists. A whole-graph
    # pass in each of the four rounds would add 16 n.
    assert reads[0] <= 30 * g.n, reads[0]
    assert verify_coloring(g, lists, phi) is None

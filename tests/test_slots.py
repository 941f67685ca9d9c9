"""Graphs keep their vertices in slots indexed by id: sparse ids up to the
bound give the same results as dense ones, ids past it are refused before
anything is allocated, and no library call leaves reference cycles behind."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brookscolor import (
    GeneratorConfig,
    UnknownVertex,
    brooks_list_color,
    build_graph,
    chordality_certificate,
    emit_coloring,
    emit_instance,
    generate,
    greedy_color_along,
    mcs_order,
    parse_instance,
    uniform_lists,
)
from brookscolor.cli import main
from brookscolor.graph import MAX_VERTICES

from reference import cycle_graph, disjoint_union, four_rounds_22, petersen_graph
from strategies import graphs, nonchordal_graphs


@pytest.fixture()
def no_automatic_gc():
    """Collection runs only when a test asks for it, so every cycle a call
    leaves is still there to be counted."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _leaves_no_cycles(call):
    gc.collect()
    result = call()
    assert gc.collect() == 0
    return result


def test_library_calls_leave_no_reference_cycles(no_automatic_gc):
    g, lists = generate(GeneratorConfig(n=400, delta=5, seed=3, palette=10, list_size=5))
    text = emit_instance(g, lists)
    g, lists = _leaves_no_cycles(lambda: parse_instance(text))
    phi = _leaves_no_cycles(lambda: brooks_list_color(g, lists))  # every component has slack
    _leaves_no_cycles(lambda: emit_coloring(phi))
    _leaves_no_cycles(lambda: chordality_certificate(g))
    chordal, _ = generate(GeneratorConfig(n=400, delta=5, model="chordal-simplicial", seed=3))
    assert _leaves_no_cycles(lambda: chordality_certificate(chordal)).is_chordal
    pin = four_rounds_22()  # tight: four hole rounds
    _leaves_no_cycles(lambda: brooks_list_color(pin, uniform_lists(pin, 3)))


def _spread(g, rng):
    """An increasing map of g's ids onto sparse ids that reach 0 and
    MAX_VERTICES, and g relabelled by it."""
    new = sorted(rng.sample(range(1, MAX_VERTICES), g.n - 2)) if g.n > 2 else []
    new = ([0] + new + [MAX_VERTICES])[-g.n:] if g.n else []
    f = dict(zip(g.vertices, new))
    return f, build_graph(new, [(f[u], f[v]) for u, v in g.edges()])


# components with slack; two tight ones (four rounds, and one round on the
# Petersen graph) beside a C6 with slack; a lone tight graph
SPARSE_CASES = {
    "slack": lambda: generate(GeneratorConfig(n=60, delta=4, seed=5, palette=8, list_size=4))[0],
    "tight-beside-slack": lambda: disjoint_union(
        disjoint_union(four_rounds_22(), petersen_graph(), 22), cycle_graph(6), 40),
    "tight": four_rounds_22,
}


@pytest.mark.parametrize("name", SPARSE_CASES)
def test_sparse_ids_solve_as_their_ranks(name):
    g = SPARSE_CASES[name]()
    lists = uniform_lists(g, 4 if name == "slack" else 3)
    f, h = _spread(g, random.Random(name))
    want = brooks_list_color(g, lists)
    got = brooks_list_color(h, {f[v]: colors for v, colors in lists.items()})
    assert list(got.items()) == [(f[v], color) for v, color in want.items()]


@given(st.one_of(graphs(max_n=8), nonchordal_graphs(max_n=8)), st.randoms(use_true_random=False))
def test_sparse_ids_give_the_relabelled_order_hole_and_greedy(g, rng):
    f, h = _spread(g, rng)
    assert mcs_order(h) == tuple(map(f.__getitem__, mcs_order(g)))
    want, got = chordality_certificate(g), chordality_certificate(h)
    if want.is_chordal:
        assert got.peo == tuple(map(f.__getitem__, want.peo))
    else:
        assert got.hole.cycle == tuple(map(f.__getitem__, want.hole.cycle))
    lists = uniform_lists(g, g.n + 1)
    order = list(reversed(g.vertices))
    colors = greedy_color_along(g, order, lists)
    assert greedy_color_along(h, [f[v] for v in order], uniform_lists(h, g.n + 1)) == {
        f[v]: color for v, color in colors.items()}


@pytest.mark.parametrize("ids, edges", [
    ([1, MAX_VERTICES + 1], []),
    ([5, 10**18], []),
    ([-(10**18), 3], []),
    ([1, 2], [(1, 10**18)]),
    ([1, 2], [(-(10**18), 1)]),
    (MAX_VERTICES + 1, []),
])
def test_ids_past_the_bound_are_refused_before_any_allocation(ids, edges):
    tracemalloc.start()
    try:
        with pytest.raises(UnknownVertex, match="vertex ids must be in|is not a declared vertex"):
            build_graph(ids, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text", [
    "p edge 2 1\ne 1 1000000000000000000\n",
    "p edge 2 1\ne -1000000000000000000 1\n",
    "p edge 2 0\nl 1000000000000000000 1 2\n",
    "p edge 1000000000000000000 0\n",
    f"p edge {MAX_VERTICES + 1} 0\n",
])
def test_hostile_ids_in_a_file_exit_65_without_a_large_allocation(tmp_path, capsys, text):
    path = tmp_path / "hostile.col"
    path.write_text(text)
    for command in ("color", "chordal"):
        tracemalloc.start()
        try:
            code = main([command, str(path), "--uniform", "3"] if command == "color"
                         else [command, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 65 and "bad input data" in capsys.readouterr().err
        assert peak < 1 << 20, (command, peak)


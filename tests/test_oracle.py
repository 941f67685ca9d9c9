import pytest
from hypothesis import given
from hypothesis import strategies as st

from brookscolor import (
    Defect,
    IncompleteColoring,
    OracleOutcome,
    brute_force_list_color,
    build_graph,
    uniform_lists,
    verify_coloring,
)

from reference import brute_force_recursive, complete_graph, cycle_graph, path_graph
from strategies import graphs, list_assignments


def test_verify_ok_on_proper_list_coloring():
    p3 = path_graph(3)
    assert verify_coloring(p3, uniform_lists(p3, 2), {1: 1, 2: 2, 3: 1}) is None


def test_verify_reports_monochromatic_edge():
    g = build_graph(2, [(1, 2)])
    defect = verify_coloring(g, None, {1: 1, 2: 1})
    assert defect == Defect(kind="monochromatic-edge", edge=(1, 2))
    assert "monochromatic" in str(defect)


def test_verify_reports_color_outside_list():
    g = build_graph({1}, [])
    defect = verify_coloring(g, {1: frozenset({2, 3})}, {1: 1})
    assert defect == Defect(kind="color-not-in-list", vertex=1)
    assert "outside its list" in str(defect)


def test_verify_list_defect_precedes_edge_defect_at_same_vertex():
    g = build_graph(2, [(1, 2)])
    lists = {1: frozenset({5}), 2: frozenset({1})}
    defect = verify_coloring(g, lists, {1: 1, 2: 1})
    assert defect.kind == "color-not-in-list" and defect.vertex == 1


def test_verify_requires_full_domain():
    g = path_graph(2)
    with pytest.raises(IncompleteColoring):
        verify_coloring(g, None, {1: 1})
    with pytest.raises(IncompleteColoring):
        verify_coloring(g, None, {1: 1, 2: 2, 9: 1})


def test_verify_list_by_id_requires_every_vertex():
    # the solver's form: colors in a list indexed by id, None where uncolored
    p3 = path_graph(3)
    lists = uniform_lists(p3, 2)
    assert verify_coloring(p3, lists, [None, 1, 2, 1]) is None
    assert verify_coloring(p3, lists, [None, None, 2, 1]) == Defect(kind="color-not-in-list",
                                                                     vertex=1)
    for phi in ([None, None, 2, 1], [None, 1, 2, None]):
        with pytest.raises(IncompleteColoring):
            verify_coloring(p3, None, phi)
    for short in ([None, 1, 2], []):
        with pytest.raises(IncompleteColoring):
            verify_coloring(p3, lists, short)
        with pytest.raises(IncompleteColoring):
            verify_coloring(p3, None, short)
    assert verify_coloring(build_graph((), []), None, []) is None


def test_brute_force_triangle_two_colors_unsat():
    k3 = complete_graph(3)
    assert brute_force_list_color(k3, uniform_lists(k3, 2)) is OracleOutcome.UNSATISFIABLE


def test_brute_force_c4_lexicographically_first():
    c4 = cycle_graph(4)
    assert brute_force_list_color(c4, uniform_lists(c4, 2)) == {1: 1, 2: 2, 3: 1, 4: 2}


def test_brute_force_single_vertex():
    g = build_graph({1}, [])
    assert brute_force_list_color(g, {1: frozenset({5})}) == {1: 5}


def test_brute_force_empty_graph():
    assert brute_force_list_color(build_graph(0, []), {}) == {}


def test_brute_force_node_limit():
    k3 = complete_graph(3)
    assert brute_force_list_color(k3, uniform_lists(k3, 2), node_limit=2) \
        is OracleOutcome.LIMIT_EXCEEDED


def test_brute_force_empty_list_unsat():
    g = build_graph({1}, [])
    assert brute_force_list_color(g, {1: frozenset()}) is OracleOutcome.UNSATISFIABLE


@given(graphs(max_n=6), st.data())
def test_brute_force_output_always_verifies(g, data):
    lists = data.draw(list_assignments(g, min_size=0, max_size=3, palette=4))
    result = brute_force_list_color(g, lists)
    if isinstance(result, dict):
        assert verify_coloring(g, lists, result) is None


@given(graphs(max_n=7), st.data())
def test_brute_force_matches_recursive_reference(g, data):
    # same first coloring, and the limit fires after the same decision: most
    # searches here end within 40 decisions, the rest are cut at each of them
    lists = data.draw(list_assignments(g, min_size=0, max_size=3, palette=4))
    for limit in (*range(40), 10_000_000):
        assert brute_force_list_color(g, lists, limit) == brute_force_recursive(g, lists, limit)


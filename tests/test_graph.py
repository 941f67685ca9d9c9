import pytest
from hypothesis import given
from hypothesis import strategies as st

from brookscolor import (
    EndpointDeleted,
    GeneratorConfig,
    GraphError,
    SelfLoop,
    UnknownVertex,
    build_branch_pair,
    build_graph,
    chordality_certificate,
    connected_components,
    emit_instance,
    generate,
    is_complete,
    max_degree,
    parse_instance,
    surgery,
)
from brookscolor.generate import MODELS
from brookscolor.graph import _closed_part

from reference import (adjacency_items, bfs_reachable, build_graph_sets, complete_graph, cycle_graph, path_graph,
                       surgery_rebuild)
from strategies import graphs, relabelled


def test_build_path():
    g = build_graph({1, 2, 3}, [(1, 2), (2, 3)])
    assert g.degree(2) == 2
    assert g.vertices == (1, 2, 3)
    assert list(g.edges()) == [(1, 2), (2, 3)]


def test_build_single_isolated_vertex():
    g = build_graph({1}, [])
    assert g.vertices == (1,)
    assert g.m == 0


def test_build_collapses_duplicate_edges():
    g = build_graph({1, 2}, [(1, 2), (2, 1)])
    assert g.m == 1
    g = build_graph([2, 1, 2], [(1, 2)])  # a repeated id counts once
    assert g.vertices == (1, 2) and g.m == 1


def test_build_from_count_uses_one_based_ids():
    g = build_graph(3, [(1, 3)])
    assert g.vertices == (1, 2, 3)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(1, 1)])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(UnknownVertex):
        build_graph(2, [(1, 5)])


def test_build_rejects_negative_id():
    with pytest.raises(UnknownVertex):
        build_graph({-1, 0}, [])


def test_max_degree_examples():
    assert max_degree(complete_graph(4)) == 3
    assert max_degree(path_graph(3)) == 2
    assert max_degree(build_graph(5, [])) == 0


def test_connected_components_two_triangles():
    g = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert connected_components(g) == ((1, 2, 3), (4, 5, 6))


def test_connected_components_cycle_and_empty():
    assert connected_components(cycle_graph(5)) == ((1, 2, 3, 4, 5),)
    assert connected_components(build_graph(0, [])) == ()


def test_is_complete_examples():
    k4 = complete_graph(4)
    assert is_complete(k4, k4.vertices)
    assert not is_complete(cycle_graph(4), (1, 2, 3, 4))
    assert is_complete(cycle_graph(4), (2,))
    with pytest.raises(UnknownVertex):
        is_complete(k4, (1, 9))


def test_surgery_examples():
    c4 = cycle_graph(4)
    f = surgery(c4, delete={4}, add_edges=[(1, 3)])
    assert f.vertices == (1, 2, 3) and is_complete(f, (1, 2, 3))
    h = surgery(c4, delete={1}, add_edges=[(2, 4)])
    assert h.vertices == (2, 3, 4) and is_complete(h, (2, 3, 4))
    assert surgery(c4) == c4


def test_surgery_errors():
    c4 = cycle_graph(4)
    with pytest.raises(UnknownVertex):
        surgery(c4, delete={9})
    with pytest.raises(SelfLoop):
        surgery(c4, add_edges=[(2, 2)])
    with pytest.raises(EndpointDeleted):
        surgery(c4, delete={1}, add_edges=[(1, 3)])
    with pytest.raises(UnknownVertex):
        surgery(c4, add_edges=[(1, 12)])


def test_surgery_keeps_ids_stable():
    g = build_graph({3, 7, 20}, [(3, 7), (7, 20)])
    h = surgery(g, delete={3})
    assert h.vertices == (7, 20)
    assert h.adjacent(7, 20)
    for graph, absent in ((g, 21), (h, 3)):  # one past the slots; a slot surgery emptied
        with pytest.raises(UnknownVertex):
            graph.neighbors(absent)


@given(relabelled(graphs(), max_id=30))
def test_adjacent_matches_membership_in_neighbors(g):
    # every v in 0..max id + 2: below, between and past the ends of u's
    # neighbor tuple, and ids that are no vertex (gaps, 0, past the last)
    top = max(g.vertices, default=0) + 2
    for u in g.vertices:
        nbrs = g.neighbors(u)
        for v in range(top + 1):
            assert g.adjacent(u, v) == (v in nbrs), (u, v)


@given(graphs())
def test_adjacency_is_symmetric_and_loop_free(g):
    for v in g.vertices:
        assert v not in g.neighbor_set(v)
        for u in g.neighbor_set(v):
            assert v in g.neighbor_set(u)
            assert g.has_vertex(u)


@given(graphs())
def test_components_partition_and_reachability(g):
    parts = connected_components(g)
    seen = [v for comp in parts for v in comp]
    assert sorted(seen) == list(g.vertices)
    assert len(set(seen)) == len(seen)
    for comp in parts:
        for v in comp:
            assert bfs_reachable(g, v) == set(comp)


@given(graphs(min_n=1), st.data())
def test_surgery_edge_equation(g, data):
    doomed = data.draw(st.sets(st.sampled_from(g.vertices)))
    survivors = [v for v in g.vertices if v not in doomed]
    if len(survivors) >= 2:
        import itertools

        candidates = list(itertools.combinations(survivors, 2))
        added = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
    else:
        added = []
    h = surgery(g, delete=doomed, add_edges=added)
    assert h.vertices == tuple(survivors)
    expected = {e for e in g.edges() if e[0] not in doomed and e[1] not in doomed}
    expected |= {(min(u, v), max(u, v)) for u, v in added}
    assert set(h.edges()) == expected
    # degree never grows under pure deletion
    assert max_degree(surgery(g, delete=doomed)) <= max_degree(g)


def _snapshot(g):
    return g.vertices, {v: g.neighbors(v) for v in g.vertices}, g.m


@given(relabelled(graphs()), st.data())
def test_surgery_matches_rebuilding_reference(g, data):
    # touch-only surgery against the rebuild-everything form, on shuffled
    # non-contiguous ids; invalid calls may name unknown ids, self-loops or
    # deleted endpoints and must fail the same way
    ids = list(g.vertices)
    valid = data.draw(st.booleans())
    pool = ids if valid else ids + data.draw(st.lists(
        st.integers(0, 10 * g.n + 20).filter(lambda v: v not in ids), min_size=1, max_size=2))
    delete = data.draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
    ends = [v for v in pool if not valid or v not in delete]
    pairs = [(u, v) for u in ends for v in ends if not valid or u != v]
    added = data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    before = _snapshot(g)
    try:
        want = _snapshot(surgery_rebuild(g, delete, added))
    except GraphError as exc:
        with pytest.raises(type(exc)) as got:
            surgery(g, delete, added)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert _snapshot(surgery(g, delete, added)) == want
    assert _snapshot(g) == before


@given(graphs())
def test_graph_equality_and_repr(g):
    clone = build_graph(g.vertices, list(g.edges()))
    assert clone == g
    assert g != 5
    assert repr(g) == f"Graph(n={g.n}, m={g.m})"


# One int object per vertex id where the program makes the ints: CPython
# caches only -5..256, so above that the parser and the generators would
# otherwise hold a second int object for every neighbor entry, most of a
# graph's memory. build_graph keeps the caller's objects.


def _fresh(x: int) -> int:
    """An int equal to x that is a new object whenever x is above 256."""
    return int(str(x))


def _shares_keys(g) -> bool:
    """Every neighbor entry is its vertex's object."""
    key = {v: v for v in g.vertices}
    return all(u is key[u] for v in g.vertices for u in g.neighbors(v))


def _built(n_or_ids, edges, build):
    """The built graph's vertices with their neighbor tuples, ascending, or
    the exception's class and message."""
    try:
        g = build(n_or_ids, edges)
    except GraphError as exc:
        return type(exc), str(exc)
    return adjacency_items(g)


@given(st.data())
def test_build_graph_matches_set_reference(data):
    # a count n (ids 1..n) or an id collection, and edges that may repeat,
    # loop, or name ids outside the graph, including negative ones; ids reach
    # past 256, and each endpoint is a new int object
    ids = st.one_of(st.integers(-1, 14), st.integers(-1, 10**6))
    if data.draw(st.booleans()):
        n = data.draw(st.one_of(st.integers(-2, 8), st.integers(250, 270)))
        vertices = lambda: n  # noqa: E731
        declared = list(range(1, n + 1))
    else:
        declared = data.draw(st.lists(ids, max_size=9))
        kind = data.draw(st.sampled_from([list, set, tuple, iter]))
        vertices = lambda: kind(declared)  # noqa: E731
    if len(set(declared)) > 1 and data.draw(st.integers(0, 2)):
        pairs = st.tuples(st.sampled_from(declared), st.sampled_from(declared))
        pairs = pairs.filter(lambda e: e[0] != e[1])
    else:
        pairs = st.tuples(ids, ids)
    edges = data.draw(st.lists(pairs, max_size=12))
    want = _built(vertices(), edges, build_graph_sets)
    try:
        g = build_graph(vertices(), iter([(_fresh(u), _fresh(v)) for u, v in edges]))
    except GraphError as exc:
        assert (type(exc), str(exc)) == want
    else:
        assert adjacency_items(g) == want


def _ring(ids):
    return [(_fresh(ids[i - 1]), _fresh(ids[i])) for i in range(len(ids))]


def test_parse_instance_shares_key_objects_with_its_lists():
    n = 700
    g0 = build_graph(n, _ring(list(range(1, n + 1))))
    lists = {v: frozenset({1, 2, 3}) for v in g0.vertices}
    g, parsed = parse_instance(emit_instance(g0, lists))
    # the lists come back by id, so they hold no key objects of their own
    assert g == g0 and parsed == [None, *(lists[v] for v in g0.vertices)]
    assert _shares_keys(g)


@pytest.mark.parametrize("model", MODELS)
def test_generate_shares_key_objects_with_its_lists(model):
    g, lists = generate(GeneratorConfig(n=900, delta=4, model=model, seed=7))
    assert g.m > 0 and _shares_keys(g)
    assert all(key is v for key, v in zip(lists, g.vertices))


def test_derived_graphs_share_key_objects():
    # a 500-cycle through 300..799 with a pendant triangle, parsed: the
    # certificate's hole feeds the branch surgery, as in a hole round
    ring = list(range(300, 800))
    edges = _ring(ring) + [(900, 901), (901, 400), (900, 400)]
    text = "".join([f"p edge 901 {len(edges)}\n", *(f"e {u} {v}\n" for u, v in edges)])
    g = parse_instance(text)[0]
    assert _shares_keys(g)
    hole = chordality_certificate(g).hole
    assert hole is not None and len(hole.cycle) == 500
    pair = build_branch_pair(g, hole)
    for derived in (pair.f_graph, pair.h_graph,
                    surgery(g, delete=ring[:3]),
                    # the ring's component, renamed 0..501
                    _closed_part(g, max(connected_components(g), key=len))):
        assert _shares_keys(derived)

"""Shared hypothesis strategies."""

import itertools

from hypothesis import strategies as st

from brookscolor import build_graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 9):
    """Random small graphs: a vertex count and a subset of all vertex pairs."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return build_graph(n, edges)


@st.composite
def nonchordal_graphs(draw, max_n: int = 9):
    """Graphs with a planted chordless cycle: a k-cycle (k >= 4) on 1..k plus
    arbitrary extra edges that never chord the planted cycle."""
    k = draw(st.integers(min_value=4, max_value=max_n))
    n = draw(st.integers(min_value=k, max_value=max_n))
    edges = [(i, i + 1) for i in range(1, k)] + [(k, 1)]
    cycle = set(range(1, k + 1))
    chords = {(min(u, v), max(u, v)) for u in cycle for v in cycle if u != v} - set(
        (min(u, v), max(u, v)) for u, v in edges
    )
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in chords]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return build_graph(n, edges + extra)


@st.composite
def relabelled(draw, base, max_id: int = 10**6):
    """A graph drawn from `base` with its ids mapped onto distinct, shuffled,
    non-contiguous ids in 0..max_id, by default reaching past the ints
    CPython caches."""
    g = draw(base)
    ids = draw(st.lists(st.integers(0, max_id), min_size=g.n, max_size=g.n, unique=True))
    new = dict(zip(g.vertices, ids))
    return build_graph(ids, [(new[u], new[v]) for u, v in g.edges()])


@st.composite
def list_assignments(draw, g, min_size: int = 0, max_size: int = 4, palette: int = 6):
    """Random lists over {1..palette} with per-vertex sizes in [min_size, max_size]."""
    lists = {}
    for v in g.vertices:
        size = draw(st.integers(min_value=min_size, max_value=max_size))
        lists[v] = frozenset(draw(st.permutations(range(1, palette + 1)))[:size])
    return lists

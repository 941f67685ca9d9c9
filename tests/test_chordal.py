import itertools
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brookscolor import (
    ChordalityCertificate,
    GeneratorConfig,
    Graph,
    Hole,
    ListExhausted,
    NotAPermutation,
    PeoViolation,
    PreconditionBreach,
    build_graph,
    chordality_certificate,
    find_hole_from_witness,
    generate,
    greedy_color_along,
    max_degree,
    mcs_order,
    random_lists,
    uniform_lists,
    verify_coloring,
    verify_peo,
)

from reference import (
    InvalidPeo,
    certificate_pipeline,
    certificate_two_walkers,
    clique_number_from_peo,
    complete_graph,
    cycle_graph,
    first_peo_violation_bruteforce,
    is_chordal_bruteforce,
    is_hole_bruteforce,
    max_clique_bruteforce,
    mcs_order_heap,
    path_graph,
    petersen_graph,
    verify_peo_two_walkers,
)
from strategies import graphs, nonchordal_graphs, relabelled


# ----------------------------------------------------------------- mcs_order

def test_mcs_path():
    assert mcs_order(path_graph(3)) == (1, 2, 3)


def test_mcs_triangle_breaks_ties_ascending():
    assert mcs_order(complete_graph(3)) == (1, 2, 3)


def test_mcs_star():
    # hand-run: first the smallest id (a leaf), then the weighted center,
    # then the remaining leaves ascending
    star = build_graph({1, 2, 3, 4}, [(4, 1), (4, 2), (4, 3)])
    assert mcs_order(star) == (1, 4, 2, 3)


def test_mcs_empty_graph():
    assert mcs_order(build_graph(0, [])) == ()


@given(graphs())
def test_mcs_is_permutation(g):
    order = mcs_order(g)
    assert sorted(order) == list(g.vertices)


# ---------------------------------------------------------------- verify_peo

def test_verify_peo_path_ok():
    assert verify_peo(path_graph(3), [1, 2, 3]) is None


def test_verify_peo_c4_violation():
    violation = verify_peo(cycle_graph(4), [1, 2, 3, 4])
    assert violation == PeoViolation(vertex=4, witness_pair=(1, 3))


def test_verify_peo_complete_any_order():
    k4 = complete_graph(4)
    assert verify_peo(k4, [3, 1, 4, 2]) is None


def test_verify_peo_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        verify_peo(path_graph(3), [1, 2])
    with pytest.raises(NotAPermutation):
        verify_peo(path_graph(3), [1, 2, 2])


@given(graphs(min_n=1), st.randoms(use_true_random=False))
def test_verify_peo_matches_bruteforce(g, rnd):
    order = list(g.vertices)
    rnd.shuffle(order)
    expected = first_peo_violation_bruteforce(g, order)
    got = verify_peo(g, order)
    if expected is None:
        assert got is None
    else:
        assert (got.vertex, got.witness_pair) == expected


# ---------------------------------------------------- find_hole_from_witness

def test_find_hole_c4():
    hole = find_hole_from_witness(cycle_graph(4), 1, 2, 4)
    assert hole == Hole((1, 2, 3, 4))


def test_find_hole_c5():
    hole = find_hole_from_witness(cycle_graph(5), 1, 2, 5)
    assert hole == Hole((1, 2, 3, 4, 5))


def test_find_hole_not_found_on_k4_minus_edge():
    g = build_graph(4, [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert find_hole_from_witness(g, 2, 1, 3) is None


def test_find_hole_precondition_breach():
    c4 = cycle_graph(4)
    with pytest.raises(PreconditionBreach):
        find_hole_from_witness(c4, 1, 2, 3)  # 3 not a neighbor of 1
    k4 = complete_graph(4)
    with pytest.raises(PreconditionBreach):
        find_hole_from_witness(k4, 1, 2, 3)  # 2, 3 adjacent
    with pytest.raises(PreconditionBreach):
        find_hole_from_witness(path_graph(3), 2, 1, 1)  # one neighbor twice


def test_find_hole_stops_at_its_target(monkeypatch):
    # 1 sees 2 and 4, the path 2-3-4 closes the hole, and 100 pendant
    # vertices on 2 are queued before 4 is found: a search that expands its
    # queue until it dequeues 4 reads each of them
    g = build_graph(104, [(1, 2), (1, 4), (2, 3), (3, 4), *((2, v) for v in range(5, 105))])
    reads = [0]

    class CountedSlots(list):  # one plus the length per neighbor tuple read
        def __getitem__(self, v):
            nbrs = list.__getitem__(self, v)
            reads[0] += 1 + len(nbrs)
            return nbrs

    real = Graph.neighbors

    def spy(self, v):
        nbrs = real(self, v)
        reads[0] += 1 + len(nbrs)
        return nbrs

    monkeypatch.setattr(Graph, "neighbors", spy)
    monkeypatch.setattr(Graph, "slots", property(lambda self: CountedSlots(self._slots)))
    assert find_hole_from_witness(g, 1, 2, 4) == Hole((1, 2, 3, 4))
    # the precondition checks read the rows of 1 and 2 (3 + 103), the search
    # those of 2 and 3 (103 + 3): 212. Reading the pendants' rows would add 200
    assert reads[0] <= 250, reads[0]


@given(graphs(min_n=4))
def test_find_hole_output_is_always_a_hole(g):
    for v in g.vertices:
        nbrs = g.neighbors(v)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if g.adjacent(u, w):
                    continue
                hole = find_hole_from_witness(g, v, u, w)
                if hole is not None:
                    assert is_hole_bruteforce(g, hole.cycle)


# ------------------------------------------------------ chordality_certificate

def test_certificate_triangle():
    cert = chordality_certificate(complete_graph(3))
    assert cert.is_chordal and cert.peo == (1, 2, 3)


def test_certificate_c5_is_the_cycle_itself():
    cert = chordality_certificate(cycle_graph(5))
    assert not cert.is_chordal
    assert cert.hole == Hole((1, 2, 3, 4, 5))


def test_certificate_petersen_hole_length_five():
    # girth of the Petersen graph is 5, confirmed by the brute-force audit
    g = petersen_graph()
    cert = chordality_certificate(g)
    assert not cert.is_chordal
    assert len(cert.hole.cycle) == 5
    assert is_hole_bruteforce(g, cert.hole.cycle)
    assert not is_chordal_bruteforce(g)


def test_certificate_empty_graph_is_chordal():
    cert = chordality_certificate(build_graph(0, []))
    assert cert.is_chordal and cert.peo == ()


def test_certificate_requires_exactly_one_side():
    with pytest.raises(ValueError):
        ChordalityCertificate()
    with pytest.raises(ValueError):
        ChordalityCertificate(peo=(1,), hole=Hole((1, 2, 3, 4)))


@given(graphs())
def test_certificate_sound_and_complete_on_small_graphs(g):
    cert = chordality_certificate(g)
    if cert.is_chordal:
        assert verify_peo(g, cert.peo) is None
        assert is_chordal_bruteforce(g)
    else:
        assert is_hole_bruteforce(g, cert.hole.cycle)
        assert not is_chordal_bruteforce(g)


@given(graphs())
def test_certificate_deterministic(g):
    first = chordality_certificate(g)
    second = chordality_certificate(g)
    assert (first.peo, first.hole) == (second.peo, second.hole)


def test_certificate_exhaustive_up_to_six_vertices():
    # every labelled graph on at most 6 vertices: the single BFS from the MCS
    # witness always closes a hole, returned in canonical rotation
    checked = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            cert = chordality_certificate(g)
            if cert.is_chordal:
                assert verify_peo(g, cert.peo) is None
            else:
                cycle = cert.hole.cycle
                assert is_hole_bruteforce(g, cycle), cycle
                assert cycle[0] == min(cycle) and cycle[1] < cycle[-1], cycle
            checked += 1
    assert checked == 33_868


@given(relabelled(st.one_of(graphs(max_n=14), nonchordal_graphs(max_n=14))))
def test_mcs_and_certificate_match_heap_reference(g):
    # the bucketed search checked as it runs gives the heap search's order
    # and, at its first violation, the same hole
    assert mcs_order(g) == mcs_order_heap(g)
    cert = chordality_certificate(g)
    peo, hole = certificate_pipeline(g)
    assert cert.peo == peo
    assert cert.hole == (None if hole is None else Hole(hole))


def test_certificate_matches_heap_reference_on_sparse_graphs():
    # larger sparse graphs, where ties between shortest paths make the hole
    # depend on which end of the witness pair the search starts from
    rng = random.Random(5)
    inputs = []
    for _ in range(400):
        n = rng.randint(10, 40)
        ids = rng.sample(range(10 * n), n)
        p = rng.uniform(0.02, 0.2)
        inputs.append(build_graph(ids, [(ids[i], ids[j])
                                        for i, j in itertools.combinations(range(n), 2)
                                        if rng.random() < p]))
    # about 90 components of 1-12 vertices each, on interleaved ids: the
    # search restarts from the smallest untouched id after each one
    for _ in range(5):
        ids = rng.sample(range(10**6), 600)
        edges = []
        start = 0
        while start < len(ids):
            part = ids[start:start + rng.randint(1, 12)]
            edges += [e for e in itertools.combinations(part, 2) if rng.random() < 0.4]
            start += len(part)
        inputs.append(build_graph(ids, edges))
    for g in inputs:
        assert mcs_order(g) == mcs_order_heap(g)
        cert = chordality_certificate(g)
        peo, hole = certificate_pipeline(g)
        assert cert.peo == peo
        assert cert.hole == (None if hole is None else Hole(hole))


@given(relabelled(st.one_of(graphs(max_n=12), nonchordal_graphs(max_n=12))),
       st.randoms(use_true_random=False))
def test_one_walker_matches_two_walker_reference(g, rnd):
    # verify_peo and the certificate still share one walker: the anchor check,
    # its adjacency tests and the witness pair. Only what feeds it differs:
    # the search's own count and anchor, or those of a given order. Each
    # answers as its own loop did: the same violation, order or hole
    cert = chordality_certificate(g)
    assert (cert.peo, None if cert.hole is None else cert.hole.cycle) == \
        certificate_two_walkers(g)
    order = list(g.vertices)
    rnd.shuffle(order)
    for seq in (order, mcs_order(g)):
        assert verify_peo(g, seq) == verify_peo_two_walkers(g, seq)


# (vertex count, edges on ids 0.., a vertex v, its anchor, whether the graph
# is chordal). In an MCS order the anchor is v's earlier neighbor visited
# last. Vertex 0 anchors vertex 1 in the first two graphs, and 0 is also the
# anchor array's default entry: a rule that kept that default would flag the
# second triangle of the first graph and pass the C4 of the second. In the
# last two the anchor is not the largest earlier id: taking the largest id
# (3, the hub) would pass vertex 4 of the fourth graph, whose earlier
# neighbors 0 and 2 are not adjacent.
_ANCHOR_CASES = [
    (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], 1, 0, True),
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)], 1, 0, False),
    (5, [(0, 4), (1, 2), (1, 4), (2, 4)], 2, 1, True),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 4, 2, False),
]


@pytest.mark.parametrize("n, edges, v, anchor, chordal", _ANCHOR_CASES)
def test_certificate_takes_the_latest_earlier_neighbor_as_anchor(n, edges, v, anchor, chordal):
    g = build_graph(list(range(n)), edges)
    order = mcs_order_heap(g)
    earlier = [u for u in g.neighbors(v) if order.index(u) < order.index(v)]
    assert max(earlier, key=order.index) == anchor  # the case is what it claims
    assert anchor == 0 or anchor < max(earlier)
    cert = chordality_certificate(g)
    peo, hole = certificate_pipeline(g)
    assert cert.is_chordal == chordal
    assert cert.peo == peo
    assert cert.hole == (None if hole is None else Hole(hole))


def test_verify_peo_reads_an_anchor_at_id_0():
    # in an MCS order vertex 0 comes first, so it anchors only vertices with
    # one earlier neighbor; in a given order it can anchor a check: here 0 is
    # the later of vertex 3's earlier neighbors 1 and 0, which are not adjacent
    g = build_graph([0, 1, 3], [(0, 3), (1, 3)])
    order = [1, 0, 3]
    assert verify_peo(g, order) == PeoViolation(vertex=3, witness_pair=(0, 1))
    assert first_peo_violation_bruteforce(g, order) == (3, (0, 1))
    assert verify_peo(g, [0, 3, 1]) is None


def test_certificate_makes_one_adjacency_test_per_earlier_neighbor(monkeypatch):
    # K5 on 1..5 joined to 20 000 more vertices: vertex 5 anchors the check of
    # every one of them. Each checked visit tests its earlier neighbors other
    # than the anchor, one binary search each, and builds no neighbor set:
    # 1 + 2 + 3 for vertices 3..5, then 4 for each of the 20 000
    n = 20_005
    g = build_graph(n, [*itertools.combinations(range(1, 6), 2),
                        *((c, v) for c in range(1, 6) for v in range(6, n + 1))])
    calls = {"adjacent": 0, "neighbor_set": 0}

    def spy(name):
        real = getattr(Graph, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(Graph, name, spy(name))
    cert = chordality_certificate(g)
    assert cert.peo == tuple(range(1, n + 1))
    assert calls == {"adjacent": 6 + 4 * (n - 5), "neighbor_set": 0}


def test_certificate_keeps_no_set_per_anchor():
    # At the benchmark's chordal-wide size: a frozenset of each anchor's
    # closed neighborhood, kept for the whole walk, took the certificate's
    # traced peak to 0.55 MiB. Without it, 0.13 MiB on Python 3.10 and 3.11
    # (the lists by id, the passed vertices and the order)
    g, _ = generate(GeneratorConfig(n=5000, delta=6, model="chordal-simplicial", seed=1))
    tracemalloc.start()
    try:
        cert = chordality_certificate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.is_chordal and peak < 0.3 * 2**20, peak


# ------------------------------------------------------ clique_number_from_peo

def test_clique_number_examples():
    k4 = complete_graph(4)
    assert clique_number_from_peo(k4, mcs_order(k4)) == 4
    p3 = path_graph(3)
    assert clique_number_from_peo(p3, mcs_order(p3)) == 2
    single = build_graph({1}, [])
    assert clique_number_from_peo(single, mcs_order(single)) == 1
    empty = build_graph(0, [])
    assert clique_number_from_peo(empty, mcs_order(empty)) == 0


def test_clique_number_rejects_bad_order():
    with pytest.raises(InvalidPeo):
        clique_number_from_peo(cycle_graph(4), [1, 2, 3, 4])


@given(st.integers(min_value=0, max_value=2**32))
def test_clique_number_matches_bruteforce_on_chordal(seed):
    g, _ = generate(GeneratorConfig(n=2 + seed % 9, delta=6, model="chordal-simplicial",
                                    seed=seed, palette=4, list_size=2))
    cert = chordality_certificate(g)
    assert cert.is_chordal
    assert clique_number_from_peo(g, cert.peo) == max_clique_bruteforce(g)


# ---------------------------------------------------------- greedy_color_along

def test_greedy_k3_smallest_free_rule():
    k3 = complete_graph(3)
    assert greedy_color_along(k3, [1, 2, 3], uniform_lists(k3, 3)) == {1: 1, 2: 2, 3: 3}


def test_greedy_path_reuses_colors():
    p3 = path_graph(3)
    assert greedy_color_along(p3, [1, 2, 3], uniform_lists(p3, 2)) == {1: 1, 2: 2, 3: 1}


def test_greedy_c5_succeeds_with_degree_plus_one():
    c5 = cycle_graph(5)
    lists = uniform_lists(c5, 3)
    phi = greedy_color_along(c5, [3, 5, 1, 2, 4], lists)
    assert verify_coloring(c5, lists, phi) is None


def test_greedy_raises_list_exhausted():
    k3 = complete_graph(3)
    with pytest.raises(ListExhausted) as info:
        greedy_color_along(k3, [1, 2, 3], uniform_lists(k3, 2))
    assert info.value.vertex == 3


def test_greedy_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        greedy_color_along(path_graph(2), [1, 1], uniform_lists(path_graph(2), 2))


@given(st.integers(min_value=0, max_value=2**32))
def test_greedy_along_peo_with_clique_number_lists(seed):
    # chordal graph by simplicial growth, lists of size omega: greedy never fails
    g, _ = generate(GeneratorConfig(n=1 + seed % 30, delta=8, model="chordal-simplicial",
                                    seed=seed, palette=4, list_size=2))
    cert = chordality_certificate(g)
    omega = clique_number_from_peo(g, cert.peo)
    lists = random_lists(g.vertices, palette=2 * omega, list_size=omega, rng=seed)
    phi = greedy_color_along(g, cert.peo, lists)
    assert verify_coloring(g, lists, phi) is None


@given(graphs(min_n=1), st.randoms(use_true_random=False), st.integers(0, 2**32))
def test_greedy_any_order_with_degree_plus_one_lists(g, rnd, seed):
    order = list(g.vertices)
    rnd.shuffle(order)
    cap = max_degree(g) + 1
    lists = random_lists(g.vertices, palette=2 * cap, list_size=cap, rng=seed)
    phi = greedy_color_along(g, order, lists)
    assert verify_coloring(g, lists, phi) is None

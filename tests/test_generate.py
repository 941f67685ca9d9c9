import hashlib
import importlib
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brookscolor import (
    GeneratorConfig,
    InfeasibleConfig,
    SplitMix64,
    build_graph,
    chordality_certificate,
    connected_components,
    emit_instance,
    generate,
    max_degree,
    random_lists,
    verify_peo,
)
from brookscolor.generate import MAX_GNP_VERTICES, MAX_LIST_ENTRIES
from brookscolor.instance_io import MAX_VERTICES

from reference import (QUADRATIC_GENERATORS, chordal_simplicial_kept_list, float01,
                       random_lists_per_draw, sample_copying, sample_per_draw,
                       tree_plus_edges_kept_list)

# the module; the package re-exports the function generate under its name
gen_mod = importlib.import_module("brookscolor.generate")


def test_splitmix64_known_stream():
    # reference values for seed 0 (first three outputs of the standard mix)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_below_range():
    rng = SplitMix64(123)
    assert all(0 <= rng.below(7) < 7 for _ in range(100))


def test_single_vertex_all_models():
    for model in ("tree-plus-edges", "chordal-simplicial", "gnp-capped"):
        g, lists = generate(GeneratorConfig(n=1, delta=0, model=model, seed=4,
                                            palette=3, list_size=2))
        assert g.vertices == (1,) and g.m == 0
        assert len(lists[1]) == 2


def test_generate_deterministic_bytes():
    cfg = GeneratorConfig(n=25, delta=4, model="tree-plus-edges", seed=99,
                          palette=8, list_size=4)
    a = emit_instance(*generate(cfg))
    b = emit_instance(*generate(cfg))
    assert a == b


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=2, max_value=6),
       st.sampled_from(["tree-plus-edges", "chordal-simplicial", "gnp-capped"]))
def test_degree_caps_hold(seed, delta, model):
    g, lists = generate(GeneratorConfig(n=1 + seed % 40, delta=delta, model=model,
                                        seed=seed, palette=6, list_size=3))
    assert max_degree(g) <= delta
    assert all(len(lists[v]) == 3 for v in g.vertices)
    assert all(all(1 <= c <= 6 for c in lists[v]) for v in g.vertices)


@given(st.integers(min_value=0, max_value=2**32))
def test_tree_plus_edges_is_connected_and_spanning(seed):
    n = 2 + seed % 40
    g, _ = generate(GeneratorConfig(n=n, delta=5, model="tree-plus-edges", seed=seed))
    assert len(connected_components(g)) == 1
    assert g.m >= n - 1


@given(st.integers(min_value=0, max_value=2**32))
def test_chordal_simplicial_is_chordal_with_peo_insertion_order(seed):
    n = 1 + seed % 40
    g, _ = generate(GeneratorConfig(n=n, delta=5, model="chordal-simplicial", seed=seed))
    assert chordality_certificate(g).is_chordal
    assert verify_peo(g, list(range(1, n + 1))) is None


def test_infeasible_configs(no_list_draws):
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=0, delta=3))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=5, delta=0))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=5, delta=-1))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=3, delta=1, model="tree-plus-edges"))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=3, delta=1, model="chordal-simplicial"))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=4, delta=3, list_size=9, palette=4))
    with pytest.raises(InfeasibleConfig):
        generate(GeneratorConfig(n=4, delta=3, model="no-such-model"))
    for n, palette, list_size in ((3, 10, -3), (3, -1, -3), (3, -5, 0),
                                  (3, 10**12, MAX_VERTICES + 1),
                                  # more list entries in all than the cap
                                  (MAX_VERTICES, 10**6, 10**6),
                                  (10**4, 2 * 10**4, MAX_LIST_ENTRIES // 10**4 + 1)):
        with pytest.raises(InfeasibleConfig):
            generate(GeneratorConfig(n=n, delta=2, palette=palette, list_size=list_size))
        with pytest.raises(InfeasibleConfig):
            random_lists(range(1, n + 1), palette=palette, list_size=list_size, rng=0)


def test_no_list_draws_guard_stops_a_valid_draw(no_list_draws):
    # the guard test_infeasible_configs relies on must catch the real draw,
    # through generate() and through random_lists()
    for draw in (lambda: generate(GeneratorConfig(n=3, delta=2)),
                 lambda: random_lists((1, 2), palette=4, list_size=2, rng=0)):
        with pytest.raises(AssertionError, match="color list was drawn"):
            draw()


def test_random_lists_sizes_and_range():
    lists = random_lists((1, 2, 3), palette=5, list_size=5, rng=0)
    assert all(lists[v] == frozenset({1, 2, 3, 4, 5}) for v in (1, 2, 3))
    with pytest.raises(InfeasibleConfig):
        random_lists((1,), palette=2, list_size=3, rng=0)


def test_generate_shares_equal_lists():
    # 3-subsets of 4 colors: 2 000 vertices draw each of the 4 possible lists,
    # and each distinct list is one object, as the parser's are
    _, lists = generate(GeneratorConfig(n=2000, delta=3, seed=5, palette=4, list_size=3))
    assert len({id(colors) for colors in lists.values()}) == len(set(lists.values())) == 4


def test_gnp_capped_density_varies_with_seed():
    sizes = {
        generate(GeneratorConfig(n=12, delta=11, model="gnp-capped", seed=s))[0].m
        for s in range(12)
    }
    assert len(sizes) > 3  # the edge probability is drawn per seed


def test_two_vertices_delta_one():
    g, _ = generate(GeneratorConfig(n=2, delta=1, model="tree-plus-edges", seed=0))
    assert g == build_graph(2, [(1, 2)])


def test_splitmix64_jump_matches_repeated_draws():
    for k in (0, 1, 7, 1000, 2**64 + 3):
        jumped, stepped = SplitMix64(42), SplitMix64(42)
        jumped.jump(k)
        for _ in range(k % 2**64):  # the state's period is 2**64
            stepped.next_u64()
        assert jumped.state == stepped.state, k
        assert jumped.next_u64() == stepped.next_u64(), k


_GAMMA = 0x9E3779B97F4A7C15
# 0, the top state, and states whose Weyl sum reaches 0 at lane 1, 64 and 2048
_EDGE_STATES = [0, 2**64 - 1] + [-k * _GAMMA % 2**64 for k in (1, 64, 2048)]


@given(st.one_of(st.sampled_from(_EDGE_STATES), st.integers(min_value=0, max_value=2**64 - 1)),
       # blocks of 64, 128, ... end after 64, 192, 448, 960, 1984 and 4032 draws
       st.sampled_from([0, 1, 63, 64, 65, 1984, 1985, 2047, 2048, 2049, 4032, 5000]))
def test_blocks_match_next_u64(state, count):
    # count draws read from the lane-packed mixer as the models read them are
    # next_u64's first count outputs, and jump(count) leaves the state where
    # the mixer's stream goes on
    stepped, jumped = SplitMix64(state), SplitMix64(state)
    draw = chain.from_iterable(gen_mod._blocks(state)).__next__
    assert [draw() for _ in range(count)] == [stepped.next_u64() for _ in range(count)]
    jumped.jump(count)
    assert jumped.state == stepped.state
    assert draw() == jumped.next_u64()


def test_blocks_pick_lane_slots_for_either_byte_order(monkeypatch):
    # with the other byte order named, the lanes are read back as byte-swapped
    # words: the slots chosen still hold every lane's low half, in lane order
    other = "big" if sys.byteorder == "little" else "little"
    rng = SplitMix64(7)
    expected = [rng.next_u64() for _ in range(64 + 128)]
    monkeypatch.setattr(sys, "byteorder", other)
    blocks = gen_mod._blocks(7)
    drawn = list(next(blocks)) + list(next(blocks))
    assert drawn == [int.from_bytes(z.to_bytes(8, "little"), "big") for z in expected]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_sparse_sample_matches_copying_shuffle(seed, data):
    # the displaced-entry sample the per-draw references use is the plain
    # shuffle of a copy that chordal-simplicial's picks and dense lists make
    pool = data.draw(st.lists(st.integers(), unique=True, max_size=40))
    k = data.draw(st.integers(min_value=0, max_value=len(pool)))
    sparse, copying = SplitMix64(seed), SplitMix64(seed)
    assert sample_per_draw(sparse, pool, k) == sample_copying(copying, pool, k)
    assert sparse.state == copying.state


def _assert_lists_match_per_draw(seed, vertices, palette, list_size):
    inline, per_draw = SplitMix64(seed), SplitMix64(seed)
    lists = random_lists(vertices, palette, list_size, inline)
    expected = random_lists_per_draw(vertices, palette, list_size, per_draw)
    assert list(lists.items()) == list(expected.items())
    assert inline.state == per_draw.state


@given(st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_random_lists_match_per_draw_sampling(seed, data):
    list_size = data.draw(st.integers(0, 30))
    switch = gen_mod._POOL_PER_LIST * list_size  # largest palette drawn from a full copy
    palette = data.draw(st.one_of(st.integers(list_size, switch), st.just(switch),
                                  st.integers(switch + 1, 10**12)))
    # shuffled, non-contiguous ids
    vertices = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=25))
    _assert_lists_match_per_draw(seed, vertices, palette, list_size)


def test_random_lists_match_per_draw_sampling_at_the_switch():
    # both list paths at their edges: the palette equal to the list, at the
    # switch, one past it, and list size 0 with palette 0 and above
    for list_size in range(5):
        switch = gen_mod._POOL_PER_LIST * list_size
        for palette in {list_size, max(list_size, switch - 1), switch, switch + 1, 10**12}:
            for seed in (0, 1, 2**64 - 1):
                _assert_lists_match_per_draw(seed, range(1, 40), palette, list_size)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=2, max_value=5000),
       st.integers(min_value=2, max_value=8))
def test_chordal_simplicial_matches_kept_list(seed, n, delta):
    # sizes well past the quadratic reference's, so the Fenwick tree's select
    # and remove run at depth; the stream goes on where the reference's does
    draw, kept = chain.from_iterable(gen_mod._blocks(seed)).__next__, SplitMix64(seed)
    assert gen_mod._chordal_simplicial(n, delta, draw) == chordal_simplicial_kept_list(n, delta, kept)
    assert draw() == kept.next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=2, max_value=5000),
       st.integers(min_value=1, max_value=8))
def test_tree_plus_edges_matches_kept_list(seed, n, delta):
    # sizes well past the quadratic reference's, against the per-draw form;
    # the stream goes on where the reference's does
    draw, per_draw = chain.from_iterable(gen_mod._blocks(seed)).__next__, SplitMix64(seed)
    try:
        expected = tree_plus_edges_kept_list(n, delta, per_draw)
    except InfeasibleConfig:
        with pytest.raises(InfeasibleConfig):
            gen_mod._tree_plus_edges(n, delta, draw)
        return
    assert gen_mod._tree_plus_edges(n, delta, draw) == expected
    assert draw() == per_draw.next_u64()


def test_random_lists_draw_from_a_huge_palette():
    # the palette is read by index, never built: 10**12 colors cost nothing
    lists = random_lists((1, 2), palette=10**12, list_size=3, rng=7)
    assert all(len(lists[v]) == 3 and max(lists[v]) <= 10**12 for v in (1, 2))
    # 5 000 lists of 3 take about 2 MB; a pool of even 10**6 colors would
    # take 36 MB, one of 10**12 could not be allocated
    for palette in (10**6, 10**12):
        tracemalloc.start()
        try:
            random_lists(range(1, 5001), palette=palette, list_size=3, rng=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (palette, peak)


def test_generate_refuses_n_over_the_parser_cap():
    # refused before anything is allocated: a 10**12-vertex degree table
    # would exhaust memory long before failing
    for cfg in (GeneratorConfig(n=MAX_VERTICES + 1, delta=3),
                GeneratorConfig(n=10**12, delta=3),
                # gnp-capped's walk is quadratic in n, so it has a lower cap
                GeneratorConfig(n=MAX_GNP_VERTICES + 1, delta=3, model="gnp-capped")):
        with pytest.raises(InfeasibleConfig):
            generate(cfg)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=2, max_value=90),
       st.integers(min_value=1, max_value=8),
       st.sampled_from(["tree-plus-edges", "chordal-simplicial", "gnp-capped"]), st.data())
def test_generators_match_quadratic_reference(seed, n, delta, model, data):
    # lists on either path: a palette drawn from a full copy, or one read by index
    list_size = data.draw(st.integers(0, 8))
    switch = gen_mod._POOL_PER_LIST * list_size
    palette = data.draw(st.one_of(st.integers(list_size, switch),
                                  st.integers(switch + 1, 10**6)))
    cfg = GeneratorConfig(n=n, delta=delta, model=model, seed=seed,
                          palette=palette, list_size=list_size)
    rng = SplitMix64(seed)
    try:
        edges = QUADRATIC_GENERATORS[model](n, delta, rng)
    except InfeasibleConfig:
        with pytest.raises(InfeasibleConfig):
            generate(cfg)
        return
    # same graph, and the lists drawn after it show the stream ended in the same state
    expected = (build_graph(n, edges), random_lists(range(1, n + 1), palette, list_size, rng))
    assert generate(cfg) == expected


def test_generator_streams_pinned():
    sparse_gnp = 0
    for model, pins in _PINNED_STREAMS.items():
        for (n, delta, seed), digest in pins.items():
            cfg = GeneratorConfig(n=n, delta=delta, model=model, seed=seed)
            if digest == "InfeasibleConfig":
                with pytest.raises(InfeasibleConfig):
                    generate(cfg)
                continue
            text = emit_instance(*generate(cfg))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, cfg
            if model == "gnp-capped" and n > 1 and float01(SplitMix64(seed)) < delta / n:
                sparse_gnp += 1  # p < delta/n: few vertices saturate, most pairs drawn
    assert sparse_gnp >= 10


# sha256 of emit_instance(*generate(cfg)) for GeneratorConfig(n, delta, model,
# seed) with the default palette and list size, keyed model -> (n, delta, seed).
# Computed with the earlier quadratic generators, whose streams the near-linear
# ones must reproduce; "InfeasibleConfig" pins a refused config.
_PINNED_STREAMS = {
    "tree-plus-edges": {
        (1, 1, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 1, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 1, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 2, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 3, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 6, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (2, 1, 0): "3db5e07780ff0cbb937741ea86f2af1d50b5a0afc81d5110a768505a6609a3dd",
        (2, 1, 3): "88e3ce84ef26308629ee6e9384370ff6d086657dd4928bbc02d930b2441dc4be",
        (2, 1, 21): "6cf821d2a4cc3d8925dfdc28d31d3ebc5c9919f259f5dccf523746ab79a38667",
        (2, 2, 0): "3db5e07780ff0cbb937741ea86f2af1d50b5a0afc81d5110a768505a6609a3dd",
        (2, 2, 3): "88e3ce84ef26308629ee6e9384370ff6d086657dd4928bbc02d930b2441dc4be",
        (2, 2, 21): "6cf821d2a4cc3d8925dfdc28d31d3ebc5c9919f259f5dccf523746ab79a38667",
        (2, 3, 0): "3db5e07780ff0cbb937741ea86f2af1d50b5a0afc81d5110a768505a6609a3dd",
        (2, 3, 3): "88e3ce84ef26308629ee6e9384370ff6d086657dd4928bbc02d930b2441dc4be",
        (2, 3, 21): "6cf821d2a4cc3d8925dfdc28d31d3ebc5c9919f259f5dccf523746ab79a38667",
        (2, 6, 0): "3db5e07780ff0cbb937741ea86f2af1d50b5a0afc81d5110a768505a6609a3dd",
        (2, 6, 3): "88e3ce84ef26308629ee6e9384370ff6d086657dd4928bbc02d930b2441dc4be",
        (2, 6, 21): "6cf821d2a4cc3d8925dfdc28d31d3ebc5c9919f259f5dccf523746ab79a38667",
        (7, 1, 0): "InfeasibleConfig",
        (7, 1, 3): "InfeasibleConfig",
        (7, 1, 21): "InfeasibleConfig",
        (7, 2, 0): "3f058311f4c2a538fcd682198d2f99da924bfba1ca51809991eacb2757b519b7",
        (7, 2, 3): "ca4e53488d2dcc369c3a5db178b93a7dac076da1afbf43644154f1a62a1f1e35",
        (7, 2, 21): "11c6c8827323b122afc551741b0aff6183d4c5cccc9e21473bd5ab7640cbbcdc",
        (7, 3, 0): "2b6f7615c43caf6dd288b99e8c063badf0dd1f9d56d7c91d6d464a17db2d6a4e",
        (7, 3, 3): "50d3b7d5af9fb319ff8ef1a6a4089aed472c89bf56e0353750c1214dc2b6cd07",
        (7, 3, 21): "9bda4369360cb6c99fbcb7356019bd870f7bf018548282f527ff5e64c087efbc",
        (7, 6, 0): "fdfba4217259ed13a9a5122a595c6012170d6f9dffa65d1a56c190bcf734e296",
        (7, 6, 3): "cef110237a2f20234642d18d71393fb90c27bff2e07f22c748c1723a34e9d2b8",
        (7, 6, 21): "bf70ff06ad3a0ccd2af497cb84edb3fb6e2b18457fcb65c14403b02d279a881d",
        (40, 1, 0): "InfeasibleConfig",
        (40, 1, 3): "InfeasibleConfig",
        (40, 1, 21): "InfeasibleConfig",
        (40, 2, 0): "2f2b1c4da1a7f99ce3c2b40a97929c4385c7cd1cbdf5ab4dc4380198a379168c",
        (40, 2, 3): "3f32637d92501993f6fcc1adc1304c2349a9b1f450c3638599a662bd1d712d76",
        (40, 2, 21): "c9155d03613d7ccb6874311a5f6c5506d3c34728846ed5e280f508f4b87d0f99",
        (40, 3, 0): "1c1675a9dd41c0f8d405ff9aef1955c533f4d4ac1695221d7eb03ed7d9e72d65",
        (40, 3, 3): "16ab86aafdc7d674802f4fb71fec9ddbee4d6cae7e628fc4106138563ed48ba4",
        (40, 3, 21): "8ff6f5dcd566eb6e95caac51496d51e4f7149fbabdbd7f4782e25a1809b18bea",
        (40, 6, 0): "f47825595ff049bbd2c10e3990bca3df9230cba99190ac42d47e0831267dacc2",
        (40, 6, 3): "d263199e256bd08c8947a187dff9c7e6b4e71f4b700fc247ac436e6c36f1e86a",
        (40, 6, 21): "122ec9780037886c44c9b6aee16b1dea40e573e779251973476892126433ca15",
        (500, 1, 0): "InfeasibleConfig",
        (500, 1, 3): "InfeasibleConfig",
        (500, 1, 21): "InfeasibleConfig",
        (500, 2, 0): "d8db36dec719db3ef6ec6200925d8bb1d8fc1b6aae3a4223bcd5de2152b91fe6",
        (500, 2, 3): "891c9d6c6162983026cb6631bb0b940b77769fc433376b1c0c683ad62796ebad",
        (500, 2, 21): "eefa656063380b371af4a20ef4befa1438fa5578d5153f6129159e1080740a24",
        (500, 3, 0): "d7b539ea00fa95ffbc43bd9efba3a0d9bc61beaa1d4411d2d2aa63b72b4a8186",
        (500, 3, 3): "4d0bf8b033d5fb52c49cef06de49ef604f3e4a00810809785eef42d513fb81b1",
        (500, 3, 21): "606db68d47cf44b9ab83921d0e1e42fdd9a4b29f479081b28c1ff4429c469bdb",
        (500, 6, 0): "216ba3cb98f002be5f041f943778b763c4bc3d6a460a99601d505ce029b1ab89",
        (500, 6, 3): "7c7b7b2d1d57168e3580514842c62417e1dd324d8e795575964c076adbb8704b",
        (500, 6, 21): "7375b57ff246aa4028d673e5e2de54cf11de07cc1a00395f79bfe37a3d07c702",
        (5000, 1, 0): "InfeasibleConfig",
        (5000, 1, 3): "InfeasibleConfig",
        (5000, 1, 21): "InfeasibleConfig",
        (5000, 2, 0): "95ac9a393cd88c6a378b3b6c52214eb2bb2488ddfbde2e63963180ba34da79d9",
        (5000, 2, 3): "fd44f5c29ecd5c80a166a46d82c4325b1f6b815d1b52c19a8ea5968e181c9e52",
        (5000, 2, 21): "8ad8d5b9dfba2dd3538667717d4a762ea33fe922f4ca14aca891609616c9d37b",
        (5000, 3, 0): "44ada8ed273eed3df0a0b23c6d6be119fc64e41f89719c098ee1afd745b6ed11",
        (5000, 3, 3): "990cc4bd0aca7df75b0d8ef96511706358b21bd4d71aa978723fd2207606cae3",
        (5000, 3, 21): "8c11c5652301c04ce414a63a933afda125081f3acf0718ac872fcdd90623523e",
        (5000, 6, 0): "c9d73134bb92b3d7fe347cfa0b2599d5763b28b457c863ce21c25ebfbc6d3afd",
        (5000, 6, 3): "322bb39afdec017c116f968cb5e081750204e654a04e5a986b24dba935cf6e9a",
        (5000, 6, 21): "f12ce65ffaebfe163c175e576945940bdc91719f9ec8f1f732f9ea48eb6d47b5",
    },
    "chordal-simplicial": {
        (1, 1, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 1, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 1, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 2, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 3, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 6, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (2, 1, 0): "00bfeef4643b3a24ba612721ae7fbdf5bfe9d8f7565e2e598c802dbbd94a4841",
        (2, 1, 3): "a222efbefe61b638d0b1fd30002d82329a74e36d7c49e2ca05bcfe99663dac35",
        (2, 1, 21): "6cad0aec8929ca078ec054a157e5376b5ab66970546134cc6505b5487da780ff",
        (2, 2, 0): "00bfeef4643b3a24ba612721ae7fbdf5bfe9d8f7565e2e598c802dbbd94a4841",
        (2, 2, 3): "a222efbefe61b638d0b1fd30002d82329a74e36d7c49e2ca05bcfe99663dac35",
        (2, 2, 21): "6cad0aec8929ca078ec054a157e5376b5ab66970546134cc6505b5487da780ff",
        (2, 3, 0): "00bfeef4643b3a24ba612721ae7fbdf5bfe9d8f7565e2e598c802dbbd94a4841",
        (2, 3, 3): "a222efbefe61b638d0b1fd30002d82329a74e36d7c49e2ca05bcfe99663dac35",
        (2, 3, 21): "6cad0aec8929ca078ec054a157e5376b5ab66970546134cc6505b5487da780ff",
        (2, 6, 0): "00bfeef4643b3a24ba612721ae7fbdf5bfe9d8f7565e2e598c802dbbd94a4841",
        (2, 6, 3): "a222efbefe61b638d0b1fd30002d82329a74e36d7c49e2ca05bcfe99663dac35",
        (2, 6, 21): "6cad0aec8929ca078ec054a157e5376b5ab66970546134cc6505b5487da780ff",
        (7, 1, 0): "InfeasibleConfig",
        (7, 1, 3): "InfeasibleConfig",
        (7, 1, 21): "InfeasibleConfig",
        (7, 2, 0): "dec3ff47655fa14fd264e6d398abafb19a4e7f41b312984b797e045afb558f55",
        (7, 2, 3): "47e6d8f0a99350e34246fabfc7b3702720df8213e4db8aa7cc12da40ad4c7c48",
        (7, 2, 21): "7f1ddcbdfe97b575584a7186d9906685fa5fc0ee8307cad14f48b70cb96bcfd9",
        (7, 3, 0): "0f234811799e75711543f0978dd2d6c9265fd3535808be739dc7fc9ab0ba80a1",
        (7, 3, 3): "14894350631b867313e579d99428e0ae029944e604f32c611c3346e5912a6441",
        (7, 3, 21): "a3f5a05908f0b39a2ce4af18d62e849520ed31bcd7798b8fa078868f764ba7c3",
        (7, 6, 0): "1db2a7c6aa4976ac399c0a3dc1449493f73e1bebfea28614b047ecff04d418bf",
        (7, 6, 3): "e272569a7bf8e34e905437219be34a19cf662fe7629ac2635202a82ce14e5779",
        (7, 6, 21): "96a0e175905c473a072c356cf3f3ccc30beefdacd07600035cd5384a353ca271",
        (40, 1, 0): "InfeasibleConfig",
        (40, 1, 3): "InfeasibleConfig",
        (40, 1, 21): "InfeasibleConfig",
        (40, 2, 0): "54f9130581aa59151140c73d4492c4cc06bf9f0677147df8210aff9e411143ab",
        (40, 2, 3): "665c009c708dbcf24fa5ca93f2fe0b2788bb4a08fb16f055a981076d73ae4752",
        (40, 2, 21): "0c550de85c1cb84b9154e2b774367c0f2985b3a3920f816313d73b8e4fdd1c89",
        (40, 3, 0): "a532ab933ae28ac8e336b396a7dadd6084924e11357cf716945620e2f9fd9e89",
        (40, 3, 3): "def494172ff1b89c2fbca6e43c4bc56108b6d1b43109caade694a553f4f888ed",
        (40, 3, 21): "ba5af665ec4e904c01073bfe2c882049b14b6b811ec28f7be3cc8a551e0da409",
        (40, 6, 0): "ed9ea5c13aeae7a614317a4d48b4e7031d7dccb321fd3f82b4452432852093ff",
        (40, 6, 3): "e7abf47793669b47ca7612689bd05bbdadf217e891cb9ad0e5982238a4598d0f",
        (40, 6, 21): "768030bcef40730b377beed9a40d0e879f388b877f483d47d22e3890e78027d9",
        (500, 1, 0): "InfeasibleConfig",
        (500, 1, 3): "InfeasibleConfig",
        (500, 1, 21): "InfeasibleConfig",
        (500, 2, 0): "f90dc6360d56a7bf2ce1c34ea629a9be2fb3c0ed886be2ff7743b1371f4adf04",
        (500, 2, 3): "ed34bd982fec3d3419976b748c8ed8f662e3ecf0e0953e328335c3f91642d36e",
        (500, 2, 21): "e32a4fa8e6e648019d2f280665b3ed3e26bad1c86d10f7fba12692ebb6374a46",
        (500, 3, 0): "f3ca34eab7bfd9e24320e043e4f2fe310ee4c996ae53785e5c7705b5f1bf042f",
        (500, 3, 3): "8d3faf84ac8986fe05797d39563a48ad2d7eaeb7ae17a60f342b7ae80761e44a",
        (500, 3, 21): "e5b46082f89d81cff599c19c79d2ac035ff350b5ab8c42b29d47e9f847f5e04b",
        (500, 6, 0): "20cfb89f2a8132cbbc35bee3de8765ffeceb2017e5cb1ce2fc4be25b50bb018f",
        (500, 6, 3): "298bdd81bc97e0eb6a3f8d06482f786495d161b6c9927e428830d721d0358dd1",
        (500, 6, 21): "7382fa687fbf3ed8e7155cb19bf11a269d1c634dd8d815fc30b7510f798f5765",
        (5000, 1, 0): "InfeasibleConfig",
        (5000, 1, 3): "InfeasibleConfig",
        (5000, 1, 21): "InfeasibleConfig",
        (5000, 2, 0): "2a0487aafebc74785e53474d1d6cf8236e9a6d79aeeb155624c1e06ffa71bcd1",
        (5000, 2, 3): "41c823790590efa8aa55a17633392e659d17c4a567dd405bee09d7fb0a8dcfdb",
        (5000, 2, 21): "28c10fcddd720b85c5173f8b63c70660d56584807200c020857d67836b11aefd",
        (5000, 3, 0): "b413a2a0190897a879b8390ced97b8044f1136e1564b2311b07a4c7351195108",
        (5000, 3, 3): "c579c5c9e40af74a3fc384ae3ed64fe7cd4728a64a1b381b3f66f16965f95ed8",
        (5000, 3, 21): "c8cee1cc31c7527c070d5da30b321d4af075f44364155cc366a59931e21beda8",
        (5000, 6, 0): "d3cae0f5ee2963b318fde597d888e611aaf87d8ae3d1a82a0587849338c7881e",
        (5000, 6, 3): "fa3180cf86daa2e18f560241d116f1552bf37ba79a9069a0b8405917d6905a62",
        (5000, 6, 21): "97dec22e48606e9842f9399a45729bd4f68ff9cd72c8bc206f635a347e29c9ae",
    },
    "gnp-capped": {
        (1, 1, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 1, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 1, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 2, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 2, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 3, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 3, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 0): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (1, 6, 3): "6254f05412c17378716f15093ad35c1580899c822faab106e21c91545f048b8b",
        (1, 6, 21): "213625b77fcaf045e3b804e52472f6a619c56eab7cc8797ae8a4f51dde679f42",
        (2, 1, 0): "51e00e0c152c3ba00477960881538ba026491ba7093db0ec7689caa35f6769e9",
        (2, 1, 3): "2916b102d0bc3b96b68dcd5fdbe3a8df973b9ac69ff95bef1f4469cf6660b8b2",
        (2, 1, 21): "4ddfda5920ae229b91344b81e1e5f644473d754397299a0ebfbdd39868ee8c85",
        (2, 2, 0): "51e00e0c152c3ba00477960881538ba026491ba7093db0ec7689caa35f6769e9",
        (2, 2, 3): "2916b102d0bc3b96b68dcd5fdbe3a8df973b9ac69ff95bef1f4469cf6660b8b2",
        (2, 2, 21): "4ddfda5920ae229b91344b81e1e5f644473d754397299a0ebfbdd39868ee8c85",
        (2, 3, 0): "51e00e0c152c3ba00477960881538ba026491ba7093db0ec7689caa35f6769e9",
        (2, 3, 3): "2916b102d0bc3b96b68dcd5fdbe3a8df973b9ac69ff95bef1f4469cf6660b8b2",
        (2, 3, 21): "4ddfda5920ae229b91344b81e1e5f644473d754397299a0ebfbdd39868ee8c85",
        (2, 6, 0): "51e00e0c152c3ba00477960881538ba026491ba7093db0ec7689caa35f6769e9",
        (2, 6, 3): "2916b102d0bc3b96b68dcd5fdbe3a8df973b9ac69ff95bef1f4469cf6660b8b2",
        (2, 6, 21): "4ddfda5920ae229b91344b81e1e5f644473d754397299a0ebfbdd39868ee8c85",
        (7, 1, 0): "baa481239aac041f8cbcaa0fcf4d3d991ed32306caed86e08e77b99553e1b1a7",
        (7, 1, 3): "ee4140fff42e2b18873bdd2e89aa2f8c4b337e81bb50af1311319faadc817a1d",
        (7, 1, 21): "21688fadbaf313136d9f1e1fa0fda57965fa317a7ba043a957f5900ebcf58a01",
        (7, 2, 0): "3e2f183c4f963e88ab822a0e1de80467a79899c43e656cd83fe2b8514133c115",
        (7, 2, 3): "3e169375f5b930a9fd8670ee07b8bdc243ab80041ddf76367895293316ca9cc6",
        (7, 2, 21): "21688fadbaf313136d9f1e1fa0fda57965fa317a7ba043a957f5900ebcf58a01",
        (7, 3, 0): "2e6da423b7afbe7bbc220f840c14d703e6ae1c1b07217ace0e4cc98d76a01428",
        (7, 3, 3): "3e169375f5b930a9fd8670ee07b8bdc243ab80041ddf76367895293316ca9cc6",
        (7, 3, 21): "21688fadbaf313136d9f1e1fa0fda57965fa317a7ba043a957f5900ebcf58a01",
        (7, 6, 0): "8af9b025f4d01b957547cd5f5723861001a53442fa8dc1a1d44a1512e2797be8",
        (7, 6, 3): "3e169375f5b930a9fd8670ee07b8bdc243ab80041ddf76367895293316ca9cc6",
        (7, 6, 21): "21688fadbaf313136d9f1e1fa0fda57965fa317a7ba043a957f5900ebcf58a01",
        (40, 1, 0): "576fbecbfce8d18047ffd954d7d003e6546123f398d5d741e9e43641445c6141",
        (40, 1, 3): "58c81703a181fda41cf93765b083072756514eace80e441908f45936b314bc88",
        (40, 1, 21): "98793b90209de806b371af11f65ffea8e75d26414b4360164bdbd08fe0d318d4",
        (40, 2, 0): "d8a5a14f31cc8264bc9f68de55608825c326bd05e42c8883082f063c217e0c0c",
        (40, 2, 3): "480c6fcade0a5fcfbaf40ef35a9e3871caf23691c31c6ced94e59323d241a5cd",
        (40, 2, 21): "b36779e7c1c276ead2a2aea146001ace9c38ed02840f4cfc755dc364a2208829",
        (40, 3, 0): "779364fe37673f2bb425ff26105e96911b6c3993cf730eb59d219d6681c0f7a0",
        (40, 3, 3): "31eba4cf78d049002d77036430e291e17fbd109d068015cef89e9e1da38d8514",
        (40, 3, 21): "b145da68f654638723827c74fefc98e657fc9c45cc590c9b1bf8037634940118",
        (40, 6, 0): "489218097f9e79f15c57654927d2125fa5a0bc596c3ec4b9b29c3e633c0c0ed7",
        (40, 6, 3): "5d97f8b200519f2970545f07fb66f13ed898fa7921b898072a032ae219f5f3fc",
        (40, 6, 21): "b145da68f654638723827c74fefc98e657fc9c45cc590c9b1bf8037634940118",
        (500, 1, 0): "3ae433e920e9e5fbe0b4ec1bec352945f484003a2761c0c31556f8c568e97b51",
        (500, 1, 3): "843bf846efe9b3d47f47cb6683e110e50ced98d534891c54ed9e588b441601c1",
        (500, 1, 21): "82d43c6529d1eeacdc3643d4abc9d9e3fb99aae34b115311c1ba403b6ffe99bb",
        (500, 2, 0): "01b4092041eab6846791019e00354661b9d202a88ad853908bee4baa7ddedff3",
        (500, 2, 3): "ac27e036d727a56d76d2fff4f84e569b5a20a1238caef58495686a1ccd81ad74",
        (500, 2, 21): "add8b32ffa6525136a4536b4cc9ca9cdb165db1b56cabe7cc5824998220e172d",
        (500, 3, 0): "8cb6cecff5ececb0dd39153e1ed4ead7f6c5e3be923a513a65e680202df88f69",
        (500, 3, 3): "b6fa192e60ee26d1f608f457e24dc446bd6be716a3d038b392590876c71c2332",
        (500, 3, 21): "7ec3d9fc1edf619b246356f42a573ce59e3efb42bdb8da0b5954636fee7c13b9",
        (500, 6, 0): "d0f16208311920af45b96448f7e1aa49ad92a09c3a8e629c44d5a4f45e18b899",
        (500, 6, 3): "75a1e79887b46c40b06b45f9ae28776344facfcc6da431f89ad0e91d08d28d36",
        (500, 6, 21): "c5ce97bafb871b0de0d62b4b338960a348ba7c196a69b4de3048465d18fc9afb",
        (5000, 1, 0): "79204e800265c666e54f6e6e6a9b3b205ff676b0c5fac63c8ff1d336308d3225",
        (5000, 1, 3): "4e16e61420f53e7572a2d0200fa43818d7c8370db8c757b6cc400876d93a35a9",
        (5000, 1, 21): "263ada12555266cf02eb96f5ea370901d380fb83b941f73fe838f3193fc1ac57",
        (5000, 2, 0): "e77c80cd0884aeee32fe97906fe4bb9b898c275dc75b191e69fad6a774cc4940",
        (5000, 2, 3): "f59838be71bf031577d6b4f1152ca4664a583b3b5107c881f26f72c0b531e34b",
        (5000, 2, 21): "e847000c7a1e609a47581602bc456067c164d94fb7d53c80447fff662836dabc",
        (5000, 3, 0): "9b3830d7eaa72e1a3af94c7058f8e9b58beeb7d4315fc68bdc925f94a2cc9b0e",
        (5000, 3, 3): "8cd894a3b20f07ef8c1bc660f9f19662e77ac6465c2628652fc6f183df2cdcc3",
        (5000, 3, 21): "cef61d3da7435648c8760bb9611479a405ac96b3c6a95c761cd88d2fa7086c46",
        (5000, 6, 0): "c65c28f14d50c510d6fbdd701b96b6808ef08e95037a2af71ef96a0b3bd5fba4",
        (5000, 6, 3): "4d0d4c6dd197534bccebdc2eb041fd13a663cd506734901f0adf602e8a6901bc",
        (5000, 6, 21): "d1541b88548d040e85ccd57bf489e093162714e169bfa9cf045d28552518d6b6",
        (40, 1, 558): "89817f9fa171078c948665e0b811ff7e2c7b7ca825be7c90ee9a67abe633ad18",
        (40, 1, 992): "4b20664cf9ceee9fa1131d74926388d8e414926a98c8939b87f5da4e40b388ac",
        (40, 2, 558): "89817f9fa171078c948665e0b811ff7e2c7b7ca825be7c90ee9a67abe633ad18",
        (40, 2, 992): "4b20664cf9ceee9fa1131d74926388d8e414926a98c8939b87f5da4e40b388ac",
        (40, 3, 558): "89817f9fa171078c948665e0b811ff7e2c7b7ca825be7c90ee9a67abe633ad18",
        (40, 3, 992): "4b20664cf9ceee9fa1131d74926388d8e414926a98c8939b87f5da4e40b388ac",
        (40, 6, 558): "89817f9fa171078c948665e0b811ff7e2c7b7ca825be7c90ee9a67abe633ad18",
        (40, 6, 992): "4b20664cf9ceee9fa1131d74926388d8e414926a98c8939b87f5da4e40b388ac",
        (500, 1, 558): "7b9b8240e93d3ef44b27e97c9c5bfcd58ad0f2946474b53143ffc177cfb99aa2",
        (500, 1, 992): "31bbe92e47e5f12175df233dfbf7bf91eebed5949cb53ebc3b12dc69b3747222",
        (500, 2, 558): "3e4400f5986ce3d4afd18e8d65d82971851fe5c9c9019c82b5cc71065ae54d9d",
        (500, 2, 992): "7e043193cdba70121769e8d1756f3800ecad34b649022cf6450cf14e21b0a4a4",
        (500, 3, 558): "38c9ac16645303b8724abb7d71cd3d227babd3dd6387a017552fc0ed1dc0cc50",
        (500, 3, 992): "91ed7c8ffa86a37263c69d0b976b05a71ecb2db130cd1548caf8d66c119afdfd",
        (500, 6, 558): "38c9ac16645303b8724abb7d71cd3d227babd3dd6387a017552fc0ed1dc0cc50",
        (500, 6, 992): "d5a77ec81a9ce92e7f58c13dea8c7b7d7feb85da9ddcf9c7b5ee493c319be5ae",
    },
}

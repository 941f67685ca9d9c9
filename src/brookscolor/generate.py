"""Seeded instance generators driven by a portable SplitMix64 stream.

Every model consumes one stream in a documented order (graph first, then the
per-vertex lists), so a config reproduces its instance bit for bit on any
platform. Vertex ids are always 1..n.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import chain
from operator import neg
from typing import Callable, Iterator, NamedTuple, Sequence

from .chordal import ListAssignment
from .graph import Graph
from .instance_io import MAX_VERTICES, MODELS, InfeasibleConfig


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANES: dict[int, tuple[int, int, int]] = {}  # lanes -> (ones, lane mask, (i + 1) * GAMMA)


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output = mix(state).

    Chosen for portability: a handful of 64-bit integer operations, and
    bounded draws by plain modulo.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def jump(self, k: int) -> None:
        """Leave the state where k calls of next_u64 would (k >= 0).

        The state is a Weyl sequence, so k steps add k * 0x9E3779B97F4A7C15.
        """
        self.state = (self.state + k * _GAMMA) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via modulo reduction."""
        return self.next_u64() % n


def _blocks(state: int) -> Iterator[memoryview]:
    # next_u64's outputs from `state` on, in blocks of 64 doubling to 2048.
    # A block is one int of 128-bit lanes, lane i the state + (i + 1) * GAMMA:
    # a 64x64-bit product fits in a lane, and a 64-bit lane mask after each
    # xor-shift stops bits crossing into the next lane.
    size = 64
    while True:
        if size not in _LANES:  # built on first use, not at import
            ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
            steps = b"".join(i.to_bytes(16, "little") for i in range(1, size + 1))
            _LANES[size] = ones, ones * _MASK64, int.from_bytes(steps, "little") * _GAMMA
        ones, mask, steps = _LANES[size]
        z = (state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        q = memoryview((z ^ (z >> 31)).to_bytes(16 * size, sys.byteorder)).cast("Q")
        # lane i's low half: Q slot 2i little-endian, 2(size - i) - 1 big-endian
        yield q[::2] if sys.byteorder == "little" else q[::-2]
        state = (state + size * _GAMMA) & _MASK64
        size = min(2 * size, 2048)


# gnp-capped walks up to n**2 / 2 pairs when p is small, so n is capped lower.
MAX_GNP_VERTICES = 10_000
# All lists together hold n * list_size colors, so their total is capped too.
MAX_LIST_ENTRIES = 10_000_000
# palettes up to this many colors per list entry are drawn from a full copy
_POOL_PER_LIST = 16


class GeneratorConfig(NamedTuple):
    """Parameters for one seeded instance.

    palette is the number of available colors (lists draw from 1..palette);
    delta caps every vertex degree in all models.
    """

    n: int
    delta: int
    model: str = "tree-plus-edges"
    seed: int = 0
    palette: int = 6
    list_size: int = 3


def _tree_plus_edges(n: int, delta: int, draw: Callable[[], int]) -> list[tuple[int, int]]:
    # Random attachment tree, then n extra-edge attempts rejected when a cap
    # would be exceeded. unsat holds, ascending, the vertices below v whose
    # degree is under the cap, so each parent draw indexes the same list a
    # rescan of 1..v-1 would build; v - 1 is in it whenever delta > 1. Tree
    # edges have u < v; adjacent keys an edge u < v as u * (n + 1) + v.
    if delta < 2 < n:  # vertex 3 finds 1 and 2 at the cap
        raise InfeasibleConfig(f"no spanning tree with degree cap {delta} on {n} vertices")
    degree = [0] * (n + 1)
    edges: list[tuple[int, int]] = []
    unsat = [1]
    for v in range(2, n + 1):
        i = draw() % len(unsat)
        u = unsat[i]
        edges.append((u, v))
        degree[u] += 1
        if degree[u] == delta:
            del unsat[i]
        degree[v] = 1
        unsat.append(v)  # under the cap: delta > 1 whenever a draw follows
    m = n + 1
    adjacent = {u * m + v for u, v in edges}
    for _ in range(n):
        u = 1 + draw() % n
        v = 1 + draw() % n
        if u != v and degree[u] < delta and degree[v] < delta:
            key = u * m + v if u < v else v * m + u
            if key not in adjacent:
                adjacent.add(key)
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return edges


def _chordal_simplicial(n: int, delta: int, draw: Callable[[], int]) -> list[tuple[int, int]]:
    # Each new vertex attaches to a random subset of a random existing clique
    # (subsets of cliques are cliques), so the insertion order is a perfect
    # elimination ordering and the result is chordal by construction.
    # A saturated clique falls back on a draw among the `live` vertices below
    # v with degree under the cap, made in a Fenwick tree (Fenwick, Softw.
    # Pract. Exp. 24(3), 1994) of ids 1..n that starts full and drops each
    # vertex as it saturates; ids >= v sort after all live ones below v.
    # The picks are a partial Fisher-Yates shuffle of eligible, a fresh list,
    # in place, so the new clique is its sorted prefix plus v.
    if delta < 2 < n:  # non-final vertices keep one free slot so growth never dead-ends
        raise InfeasibleConfig(f"degree cap {delta} cannot fit {n} vertices")
    degree = [0] * (n + 1)
    tree = [i & -i for i in range(n + 1)]  # every id present
    live = 1
    edges: list[tuple[int, int]] = []
    cliques: list[tuple[int, ...]] = [(1,)]
    for v in range(2, n + 1):
        eligible = [u for u in cliques[draw() % len(cliques)] if degree[u] < delta]
        if not eligible:
            # chosen clique is saturated; the previous vertex never is, so an
            # unsaturated single-vertex clique always exists
            r = draw() % live
            u, step = 0, 1 << n.bit_length()  # descend to the r-th present id
            while step := step >> 1:
                if u + step <= n and tree[u + step] <= r:
                    u += step
                    r -= tree[u]
            eligible = [u + 1]
        k = len(eligible)
        size = 1 + draw() % min(k, delta if v == n else delta - 1)
        for i in range(size):
            j = i + draw() % (k - i)
            eligible[i], eligible[j] = eligible[j], eligible[i]
            u = eligible[i]
            edges.append((u, v))
            degree[u] += 1
            if degree[u] == delta:
                live -= 1
                while u <= n:
                    tree[u] -= 1
                    u += u & -u
        degree[v] = size
        live += 1  # v; only v = n can saturate at its own step, and no draw follows
        cliques.append((*sorted(eligible[:size]), v))
    return edges


def _gnp_capped(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    # Edge probability itself is drawn from the stream, so a seed sweep covers
    # densities from near-empty to near-complete. The stream then holds one
    # draw per pair (u, v), u < v, in row-major order. A draw whose pair has a
    # saturated endpoint cannot add an edge, so only pairs of unsaturated
    # vertices are drawn (pair (u, v) is draw `row + v` after p's) and the
    # state jumps over the rest. So each draw is mixed inline from its
    # position: _blocks would mix the skipped ones too. p is the first draw's
    # top 53 bits over 2**53, and a pair's 53-bit fraction falls below p
    # exactly when its raw draw is below p's draw with the low 11 bits cleared.
    threshold = (rng.next_u64() >> 11) << 11
    start = rng.state
    degree = [0] * (n + 1)
    unsat = list(range(n, 0, -1))  # descending: unsaturated vertices >= u
    edges: list[tuple[int, int]] = []
    row = -1  # draws before row u, minus u
    for u in range(1, n + 1):
        if degree[u] < delta:
            unsat.pop()  # u itself
            base = (start + row * _GAMMA) & _MASK64
            full = []  # removed after the walk, which must not see the list shift
            for v in reversed(unsat):
                z = (base + v * _GAMMA) & _MASK64
                z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                if z ^ (z >> 31) < threshold:
                    edges.append((u, v))
                    degree[u] += 1
                    degree[v] += 1
                    if degree[v] == delta:
                        full.append(v)
                    if degree[u] == delta:
                        break
            for v in full:
                del unsat[bisect_left(unsat, -v, key=neg)]
        row += n - u - 1
    rng.jump(n * (n - 1) // 2)
    return edges


def random_lists(
    vertices: tuple[int, ...] | list[int],
    palette: int,
    list_size: int,
    rng: SplitMix64 | int,
) -> ListAssignment:
    """Uniform random list_size-subsets of {1..palette}, per vertex ascending.
    Equal lists are one shared object."""
    _check_list_params(len(vertices), palette, list_size)
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    lists = _draw_lists(sorted(vertices), palette, list_size,
                        chain.from_iterable(_blocks(rng.state)).__next__)
    rng.jump(len(vertices) * list_size)
    return lists


def _draw_lists(vertices: Sequence[int], palette: int, list_size: int,
                draw: Callable[[], int]) -> ListAssignment:
    # Per vertex, a partial Fisher-Yates shuffle of 1..palette (list_size
    # steps, one draw each). A palette of at most _POOL_PER_LIST colors per
    # list entry is shuffled in a copy of one prebuilt list, O(palette) =
    # O(list_size); a larger one is read by index with its displaced entries
    # in a dict, so it is never built.
    lists: ListAssignment = {}
    shared: dict[frozenset[int], frozenset[int]] = {}
    if palette <= _POOL_PER_LIST * list_size:
        pool = list(range(1, palette + 1))
        for v in vertices:
            drawn = pool.copy()
            for i in range(list_size):
                j = i + draw() % (palette - i)
                drawn[i], drawn[j] = drawn[j], drawn[i]
            colors = frozenset(drawn[:list_size])
            lists[v] = shared.setdefault(colors, colors)
    else:
        for v in vertices:
            moved: dict[int, int] = {}
            drawn = []
            for i in range(list_size):
                j = i + draw() % (palette - i)
                drawn.append(moved.get(j, j + 1))
                moved[j] = moved.get(i, i + 1)
            colors = frozenset(drawn)
            lists[v] = shared.setdefault(colors, colors)
    return lists


def _check_list_params(n: int, palette: int, list_size: int) -> None:
    # no vertex can need more colors than the vertex cap
    if not 0 <= list_size <= min(palette, MAX_VERTICES):
        raise InfeasibleConfig(f"list size {list_size} must be in 0..palette ({palette})"
                               f" and at most {MAX_VERTICES}")
    if n * list_size > MAX_LIST_ENTRIES:
        raise InfeasibleConfig(f"{n} lists of {list_size} colors exceed"
                               f" {MAX_LIST_ENTRIES} list entries")


def generate(config: GeneratorConfig) -> tuple[Graph, ListAssignment]:
    """Deterministically generate a graph and list assignment from a config."""
    if not 1 <= config.n <= MAX_VERTICES:
        raise InfeasibleConfig(f"n must be in 1..{MAX_VERTICES}")
    if config.delta < 0:
        raise InfeasibleConfig("delta must be non-negative")
    if config.model not in MODELS:
        raise InfeasibleConfig(f"unknown model {config.model!r} (choose from {MODELS})")
    if config.model == "gnp-capped" and config.n > MAX_GNP_VERTICES:
        raise InfeasibleConfig(f"gnp-capped n must be at most {MAX_GNP_VERTICES}")
    _check_list_params(config.n, config.palette, config.list_size)
    if config.n > 1 and config.delta < 1:
        raise InfeasibleConfig("delta 0 only allows a single vertex")
    rng = SplitMix64(config.seed)
    edges: list[tuple[int, int]] = []
    if config.n > 1 and config.model == "gnp-capped":
        edges = _gnp_capped(config.n, config.delta, rng)  # leaves rng past every pair
    # one stream per instance: the model reads its draws, then the lists theirs
    draw = chain.from_iterable(_blocks(rng.state)).__next__
    if config.n > 1 and config.model == "tree-plus-edges":
        edges = _tree_plus_edges(config.n, config.delta, draw)
    elif config.n > 1 and config.model == "chordal-simplicial":
        edges = _chordal_simplicial(config.n, config.delta, draw)
    # the models' edges are distinct and in 1..n: no checks, no de-duplication.
    # Each id is one object, ids[v], stored as vertex and as every neighbor entry.
    ids = list(range(config.n + 1))
    slots: list = [[] for _ in ids]
    for u, v in edges:
        slots[u].append(ids[v])
        slots[v].append(ids[u])
    g = Graph([None, *map(tuple, map(sorted, slots[1:]))], tuple(ids[1:]))
    del edges, slots, ids  # freed before the lists are drawn: a lower peak
    return g, _draw_lists(g.vertices, config.palette, config.list_size, draw)

"""Certifying chordality and elimination-order greedy list coloring.

For any graph this module produces one of two independently checkable
certificates: an elimination order in which every vertex's earlier neighbors
form a clique (the graph is chordal), or a hole, i.e. a chordless cycle of
length at least four (it is not). The order comes from maximum cardinality
search with weight buckets. Each visit carries the vertex's count of earlier
neighbors and its anchor, the last of them visited, and a vertex with two or
more is checked against its anchor as it is visited; at the first violation
the search stops and the hole grows from it by one BFS. Chordal graphs are
then list-colored greedily along the order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations, filterfalse
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph

# Per-vertex allowed colors and a chosen color per vertex.
ListAssignment = dict[int, frozenset[int]]
Coloring = dict[int, int]


class NotAPermutation(Exception):
    """The supplied order is not a permutation of the graph's vertices."""


class PreconditionBreach(Exception):
    """A witness triple did not satisfy the documented preconditions."""


class ListExhausted(Exception):
    """Greedy coloring found no free color in some vertex's list."""

    def __init__(self, vertex: int):
        super().__init__(f"no free color in the list of vertex {vertex}")
        self.vertex = vertex


class InternalInvariantBroken(Exception):
    """A state the underlying arguments rule out was reached; implementation bug."""


class Hole(NamedTuple):
    """A chordless cycle x_1, ..., x_k with k >= 4, listed in cycle order."""

    cycle: tuple[int, ...]


class PeoViolation(NamedTuple):
    """Earlier neighbors u, w of `vertex` that are not adjacent."""

    vertex: int
    witness_pair: tuple[int, int]


class ChordalityCertificate:
    """Exactly one of: an elimination order (chordal) or a hole (not chordal)."""

    __slots__ = ("peo", "hole")

    def __init__(self, peo: tuple[int, ...] | None = None, hole: Hole | None = None):
        if (peo is None) == (hole is None):
            raise ValueError("certificate must carry exactly one of peo / hole")
        self.peo = peo
        self.hole = hole

    @property
    def is_chordal(self) -> bool:
        return self.peo is not None


def uniform_lists(g: Graph, k: int) -> ListAssignment:
    """Every vertex gets the list {1, ..., k}."""
    colors = frozenset(range(1, k + 1))
    return {v: colors for v in g.vertices}


def _mcs(g: Graph, weight: list[int]) -> Iterator[tuple[int, int, int]]:
    """Yield the vertices in maximum cardinality search order, each with its
    count of earlier neighbors and its anchor, the last of them visited (0 if none).

    weight[v] (the caller's zeros by id) counts v's visited neighbors, its
    count at its visit, and is -1 from then on. latest[u] is u's last visited
    neighbor. buckets[w] (w >= 1) is a min-heap of the ids that reached weight
    w; an entry is stale once its vertex is visited or heavier. Weight 0 has
    no bucket: the untouched vertices come in ascending order from one lazy
    pass over the ids, read once per component.
    """
    slots = g.slots
    latest = [0] * len(slots)
    untouched = filterfalse(weight.__getitem__, g.vertices)
    buckets: list[list[int]] = [[]]  # [0] stays empty
    top = 0
    while True:
        if top:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = heappop(bucket)
            if weight[v] != top:
                continue  # stale entry
        else:
            v = next(untouched, None)
            if v is None:
                return
        weight[v] = -1  # visited
        yield v, top, latest[v]
        for u in slots[v]:
            w = weight[u] + 1
            if w:  # u is unvisited
                weight[u] = w
                latest[u] = v
                if w == len(buckets):
                    buckets.append([])
                heappush(buckets[w], u)
                if w > top:
                    top = w


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search visit order (an elimination-order candidate).

    Each step visits the vertex with the most already-visited neighbors,
    breaking ties toward the smallest id; the first vertex is the smallest id.
    For chordal graphs the result is a perfect elimination ordering.
    """
    return tuple(v for v, _, _ in _mcs(g, [0] * len(g.slots)))


def _walk_peo(g: Graph, visits: Iterable[tuple[int, int, int]],
              marks: list[int]) -> tuple[PeoViolation | None, list[int]]:
    """Check each visit (v, its count of earlier neighbors, its anchor) up to
    the first violation: that violation (None if none) and the vertices that
    passed, in order. v's earlier neighbors, the u with marks[u] < 0, are read
    only when there are two or more; the violation holds the lexicographically
    smallest non-adjacent pair of them.

    Checking against the anchor, the latest-placed earlier neighbor,
    suffices: an earlier neighbor adjacent to it is one of its own earlier
    neighbors, pairwise adjacent since it passed. Each other earlier neighbor
    is tested by `Graph.adjacent`, so the walk keeps nothing across visits.
    """
    slots = g.slots
    passed: list[int] = []
    for v, count, anchor in visits:
        if count > 1:
            earlier = [u for u in slots[v] if marks[u] < 0]  # ascending
            for u in earlier:
                if u != anchor and not g.adjacent(anchor, u):
                    # the anchor and u form a pair, so next() finds one
                    pair = next(p for p in combinations(earlier, 2) if not g.adjacent(*p))
                    return PeoViolation(vertex=v, witness_pair=pair), passed
        passed.append(v)
    return None, passed


def verify_peo(g: Graph, order: Sequence[int]) -> PeoViolation | None:
    """Check the elimination-order property; None if it holds.

    On failure, returns the violation at the earliest order position, with the
    lexicographically smallest non-adjacent pair of earlier neighbors.
    """
    seq = tuple(order)
    if len(seq) != g.n or not set(seq).issuperset(g.vertices):
        raise NotAPermutation("order must be a permutation of the graph's vertices")
    pos = [0] * len(g.slots)  # -1 - the position of each vertex walked
    def visits() -> Iterator[tuple[int, int, int]]:  # as _mcs yields them
        for i, v in enumerate(seq, 1):
            earlier = [u for u in g.slots[v] if pos[u]]
            yield v, len(earlier), min(earlier, key=pos.__getitem__, default=0)
            pos[v] = -i
    return _walk_peo(g, visits(), pos)[0]


def find_hole_from_witness(g: Graph, v: int, u: int, w: int) -> Hole | None:
    """Grow a hole from a vertex v with non-adjacent neighbors u, w.

    Searches for a shortest u-w path in the graph with v's closed
    neighborhood (except u and w) removed. Any such path is chordless, and no
    interior vertex touches v, so v, u, path, w closes a chordless cycle of
    length >= 4. The breadth-first search stops as soon as it reaches w: w's
    parent is fixed when w is first found, so the path is already known.
    Returns None when u and w fall apart in the reduced graph.
    """
    v_nbrs = g.neighbor_set(v)
    if u not in v_nbrs or w not in v_nbrs:
        raise PreconditionBreach(f"{u} and {w} must both be neighbors of {v}")
    if u == w or g.adjacent(u, w):
        raise PreconditionBreach(f"{u} and {w} must be distinct and not adjacent")
    slots = g.slots
    # BFS parents by id; the rest of v's closed neighborhood is marked reached
    # beforehand, so the search never enters it
    parent: list[int | None] = [None] * len(slots)
    for x in (*v_nbrs, v):
        parent[x] = v
    parent[u] = u
    parent[w] = None
    queue = [u]
    for x in queue:  # the list grows while it is scanned: a queue
        for y in slots[x]:
            if parent[y] is None:
                parent[y] = x
                queue.append(y)
        if parent[w] is not None:
            break
    else:
        return None
    path = [w]
    while path[-1] != u:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()  # u ... w
    return Hole((v, *path))


def chordality_certificate(g: Graph) -> ChordalityCertificate:
    """Either a verified elimination order or a hole.

    Runs maximum cardinality search and checks each visit, which carries the
    vertex's count of earlier neighbors and its anchor, as :func:`verify_peo`
    would check the finished order. At the first violation the search stops
    and the hole grows from the witness by one BFS. This relies on the MCS
    path property (Tarjan & Yannakakis, SIAM J. Comput. 13(3), 1984;
    addendum, SIAM J. Comput. 14(1), 1985): at the first violation v of an
    MCS order, any two non-adjacent earlier neighbors are joined by a path
    that avoids v and its other neighbors. The hole is returned in canonical
    rotation: smallest id first, then toward the smaller of that vertex's two
    cycle neighbors.
    """
    weight = [0] * len(g.slots)
    viol, passed = _walk_peo(g, _mcs(g, weight), weight)
    if viol is None:
        return ChordalityCertificate(peo=tuple(passed))
    hole = find_hole_from_witness(g, viol.vertex, *viol.witness_pair)
    if hole is None:
        raise InternalInvariantBroken("order verification failed but no hole was found")
    cycle = hole.cycle
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[-1] < cycle[1]:
        cycle = (cycle[0], *reversed(cycle[1:]))
    return ChordalityCertificate(hole=Hole(cycle))


def greedy_color_along(g: Graph, order: Sequence[int], lists: ListAssignment,
                       colors: list[int | None] | None = None) -> Coloring | list[int | None]:
    """Color vertices in the given order, smallest free list color first.

    Succeeds whenever some list color is free at every step; in particular
    along a perfect elimination ordering with lists of size >= clique number,
    and in any order when every list exceeds the vertex's degree.

    lists is a dict or a list by id. Given `colors`, the solver's shared list by
    id (None: uncolored), order extends it in place, trusted to name uncolored
    vertices of g; else order must be a permutation of g's vertices.
    """
    slots = g.slots
    fresh = colors is None
    if fresh:
        order = tuple(order)
        if len(order) != g.n or not set(order).issuperset(g.vertices):
            raise NotAPermutation("order must be a permutation of the graph's vertices")
        colors = [None] * len(slots)
    color_of = colors.__getitem__
    for v in order:
        used = set(map(color_of, slots[v]))  # None marks an uncolored neighbor
        # one scan for the smallest free color: no copy and no sort of the
        # list, and faster than min(filterfalse(...)) or a set difference
        best = None
        for color in lists[v]:
            if (best is None or color < best) and color not in used:
                best = color
        if best is None:
            raise ListExhausted(v)
        colors[v] = best
    return dict(zip(order, map(color_of, order))) if fresh else colors

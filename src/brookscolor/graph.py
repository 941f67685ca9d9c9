"""Immutable simple undirected graphs with stable non-negative integer ids.

Derived graphs (vertex deletion, edge addition) keep the ids of surviving
vertices, so a named vertex can be tracked across every hole round. All
iteration runs in ascending id order, which keeps every downstream
computation reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import filterfalse, islice
from operator import lt
from typing import Iterable, Iterator, Sequence

# Largest vertex id and problem-line vertex count: every pass sizes its arrays
# by the largest id, so a larger header is refused before any edge is read.
MAX_VERTICES = 1_000_000


class GraphError(Exception):
    """Base class for malformed graph input."""


class SelfLoop(GraphError):
    """An edge (v, v) was supplied."""


class UnknownVertex(GraphError):
    """A vertex id outside the graph's vertex set was referenced."""


class EndpointDeleted(GraphError):
    """An added edge references a vertex scheduled for deletion."""


class Graph:
    """Simple undirected graph, immutable once built.

    Vertices sit in slots indexed by id: ``slots[v]`` is v's neighbor tuple,
    ascending, and None where no vertex has id v; ``vertices`` holds the ids
    ascending. Ids lie in 0..MAX_VERTICES. The slot list, and every per-vertex
    array a pass keeps, is sized by the largest id, so sparse ids cost memory
    and time in proportion to that id rather than to n.

    The one constructor is trusted: it takes the slot list and the id tuple,
    symmetric, loop-free and sorted, and keeps both as they are. Build graphs
    through :func:`build_graph`, which sorts, or :func:`surgery`.
    """

    __slots__ = ("_slots", "_ids")

    def __init__(self, slots: list[tuple[int, ...] | None], ids: tuple[int, ...]):
        self._slots = slots
        self._ids = ids

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._ids

    @property
    def slots(self) -> list[tuple[int, ...] | None]:
        """The slot list itself, for passes that read every vertex; it must
        not be modified."""
        return self._slots

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def m(self) -> int:
        return sum(map(len, map(self._slots.__getitem__, self._ids))) // 2

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < len(self._slots) and self._slots[v] is not None

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self.has_vertex(v):
            return self._slots[v]
        raise UnknownVertex(f"vertex {v} is not in the graph")

    def neighbor_set(self, v: int) -> frozenset[int]:
        """A set of v's neighbors, built afresh on each call."""
        return frozenset(self.neighbors(v))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacent(self, u: int, v: int) -> bool:
        """Binary search in u's ascending neighbor tuple."""
        nbrs = self.neighbors(u)
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for v in self._ids:
            for u in self._slots[v]:
                if u > v:
                    yield (v, u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        size = self._ids[-1] + 1 if self._ids else 0  # past it, slots hold only None
        return self._ids == other._ids and self._slots[:size] == other._slots[:size]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n_or_ids: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph from vertex ids in 0..MAX_VERTICES (or a count n, meaning
    1..n) and unordered edge pairs. Duplicate edges collapse silently.

    Each vertex's neighbors are gathered in a list in its slot, then
    de-duplicated and sorted once, into a tuple that replaces the list.
    """
    vertices = range(1, n_or_ids + 1) if isinstance(n_or_ids, int) else sorted(n_or_ids)
    if vertices and not 0 <= vertices[0] <= vertices[-1] <= MAX_VERTICES:
        bad = vertices[0] if vertices[0] < 0 else vertices[-1]
        raise UnknownVertex(f"vertex ids must be in 0..{MAX_VERTICES}, got {bad}")
    if not all(map(lt, vertices, islice(vertices, 1, None))):  # an id repeats
        vertices = sorted(set(vertices))
    gather: list = [None] * (vertices[-1] + 1 if vertices else 0)
    for v in vertices:
        gather[v] = []
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        try:
            if u < 0 or v < 0:
                raise IndexError  # a negative index would count from the end
            gather[u].append(v)
            gather[v].append(u)
        except (AttributeError, IndexError):  # None or no slot: not a vertex
            unknown = v if 0 <= u < len(gather) and gather[u] is not None else u
            raise UnknownVertex(f"edge endpoint {unknown} is not a declared vertex") from None
    for v in vertices:
        gather[v] = tuple(sorted(set(gather[v])))
    return Graph(gather, tuple(vertices))


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for edgeless (or empty) graphs."""
    return max(map(len, map(g.slots.__getitem__, g.vertices)), default=0)


def connected_components(g: Graph, seen: list[bool] | None = None) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted id tuples, ordered by smallest id. Given
    `seen` (marks by id), only unmarked vertices are searched, and marked."""
    slots = g.slots
    if seen is None:
        seen = [False] * len(slots)
    components: list[tuple[int, ...]] = []
    for start in g.vertices:
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # the list grows while it is scanned: a queue
            for u in slots[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comp.sort()
        components.append(tuple(comp))
    return tuple(components)


def is_complete(g: Graph, s: Iterable[int]) -> bool:
    """True iff every pair of vertices in s is adjacent (vacuous for |s| <= 1)."""
    members = frozenset(s)
    for v in members:
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} is not in the graph")
    want = len(members) - 1
    return all(len(members.intersection(g.neighbors(v))) >= want for v in members)


def surgery(
    g: Graph,
    delete: Iterable[int] = (),
    add_edges: Iterable[tuple[int, int]] = (),
) -> Graph:
    """Induced subgraph on V(g) minus `delete`, plus the edges in `add_edges`.

    Surviving vertices keep their ids, so the original graph and any number
    of derived graphs can be used side by side. Cost: C-level copies of g's
    slot list, sharing every neighbor tuple, and of its ids, plus Python work
    only for what the surgery touches: the deleted vertices' neighbor tuples
    and the rebuilt tuples of their surviving neighbors and of the added
    edges' endpoints.
    """
    doomed = frozenset(delete)
    for v in doomed:
        if not g.has_vertex(v):
            raise UnknownVertex(f"cannot delete unknown vertex {v}")
    additions: dict[int, list[int]] = {}
    for u, v in add_edges:
        if u == v:
            raise SelfLoop(f"added edge ({u}, {v}) is a self-loop")
        for x in (u, v):
            if x in doomed:
                raise EndpointDeleted(f"added edge ({u}, {v}) uses deleted vertex {x}")
            if not g.has_vertex(x):
                raise UnknownVertex(f"added edge ({u}, {v}) uses unknown vertex {x}")
        additions.setdefault(u, []).append(v)
        additions.setdefault(v, []).append(u)
    old = g._slots
    slots = old.copy()  # C-level copy: every untouched tuple is shared
    touched = set(additions)
    for v in doomed:
        touched.update(slots[v])
        slots[v] = None
    for v in touched - doomed:
        nbrs = [u for u in old[v] if u not in doomed]
        if v in additions:
            nbrs = sorted(set(nbrs).union(additions[v]))
        slots[v] = tuple(nbrs)
    return Graph(slots, tuple(filterfalse(doomed.__contains__, g._ids)))


def _closed_part(g: Graph, part: Sequence[int]) -> Graph:
    """The subgraph of g on part, an ascending vertex tuple no edge leaves (a
    union of components), part[i] renamed i: every ascending-id order holds,
    and its arrays are sized by its own n, not by g's largest id."""
    ids = tuple(range(len(part)))
    rank = dict(zip(part, ids))
    slots = g.slots
    return Graph([tuple(map(rank.__getitem__, slots[v])) for v in part], ids)

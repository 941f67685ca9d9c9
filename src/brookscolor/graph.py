"""Immutable simple undirected graphs with stable non-negative integer ids.

Derived graphs (vertex deletion, edge addition) keep the ids of surviving
vertices, so a named vertex can be tracked across every hole round. All
iteration runs in ascending id order, which keeps every downstream
computation reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Iterable, Iterator


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

    The one constructor is trusted: it takes a neighbor dict whose keys and
    neighbor tuples are in ascending id order, symmetric and loop-free, and
    keeps it as is, as the graph's only field; every other view is derived
    from it when read. Build graphs through :func:`build_graph`, which sorts,
    or :func:`surgery`.

    Every neighbor entry is its vertex's key object, not merely an equal
    int. Dict and set lookups compare identity before ``==``, and CPython
    caches only the ints up to 256, so above that a mere equal int costs a
    rich comparison on every lookup of the solver's passes. ``build_graph``
    and ``generate`` make it so; ``surgery`` (for added edges between g's own
    vertex objects, as a hole's are) and ``_closed_part`` (for a part read
    from g) keep it.
    """

    __slots__ = ("_neighbors",)

    def __init__(self, neighbors: dict[int, tuple[int, ...]]):
        self._neighbors = neighbors

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._neighbors)

    @property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """The neighbor dict itself, for passes that read every vertex; it
        must not be modified."""
        return self._neighbors

    @property
    def n(self) -> int:
        return len(self._neighbors)

    @property
    def m(self) -> int:
        return sum(map(len, self._neighbors.values())) // 2

    def has_vertex(self, v: int) -> bool:
        return v in self._neighbors

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._neighbors[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} is not in the graph") from None

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
        for v, nbrs in self._neighbors.items():
            for u in nbrs:
                if u > v:
                    yield (v, u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._neighbors == other._neighbors

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n_or_ids: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph from a vertex-id collection (or a count n, meaning 1..n)
    and unordered edge pairs. Duplicate edges collapse silently.

    Each vertex's neighbors are gathered in a list that starts with the
    vertex's own key, so an edge stores the other endpoint's key object, not
    the caller's int. Each list is then de-duplicated and sorted once, into a
    tuple that replaces it in the same dict.
    """
    ids = range(1, n_or_ids + 1) if isinstance(n_or_ids, int) else n_or_ids
    gather: dict = {}  # id -> its gather list, then its neighbor tuple
    for v in ids:
        if v < 0:
            raise UnknownVertex(f"vertex ids must be non-negative, got {v}")
        gather.setdefault(v, [v])
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        try:
            at_u = gather[u]
            at_v = gather[v]
        except KeyError:
            unknown = v if u in gather else u
            raise UnknownVertex(f"edge endpoint {unknown} is not a declared vertex") from None
        at_u.append(at_v[0])
        at_v.append(at_u[0])
    for v, nbrs in gather.items():
        gather[v] = tuple(sorted(set(nbrs[1:])))
    keys = sorted(gather)
    if keys != list(gather):
        gather = {v: gather[v] for v in keys}
    return Graph(gather)


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for edgeless (or empty) graphs."""
    return max(map(len, g.adjacency.values()), default=0)


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted id tuples, ordered by smallest id."""
    adjacency = g.adjacency
    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # the list grows while it is scanned: a queue
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
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
    of derived graphs can be used side by side. Cost: one C-level copy of g's
    neighbor dict, which shares every neighbor tuple, plus Python work only
    for what the surgery touches: the deleted vertices' neighbor tuples and
    the rebuilt tuples of their surviving neighbors and of the added edges'
    endpoints.
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
    old = g._neighbors
    neighbors = old.copy()  # C-level copy: every untouched tuple is shared
    touched = set(additions)
    for v in doomed:
        touched.update(neighbors.pop(v))
    for v in touched - doomed:
        nbrs = [u for u in old[v] if u not in doomed]
        if v in additions:
            nbrs = sorted(set(nbrs).union(additions[v]))
        neighbors[v] = tuple(nbrs)
    return Graph(neighbors)  # the keys keep g's ascending order


def _closed_part(g: Graph, part: Collection[int]) -> Graph:
    """The subgraph of g on part, a vertex set no edge leaves (a union of
    components), sharing g's neighbor tuples; g itself if part is all of g."""
    if len(part) == g.n:
        return g
    neighbors = g.adjacency
    return Graph({v: neighbors[v] for v in sorted(part)})

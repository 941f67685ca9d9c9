"""Ground truth for small instances: coloring validation and exhaustive search."""

from __future__ import annotations

import enum
from itertools import filterfalse
from typing import Iterator, NamedTuple

from .chordal import Coloring, ListAssignment
from .graph import Graph


class IncompleteColoring(Exception):
    """The coloring's domain does not match the graph's vertex set."""


class OracleOutcome(enum.Enum):
    UNSATISFIABLE = "unsatisfiable"
    LIMIT_EXCEEDED = "limit-exceeded"


class Defect(NamedTuple):
    """First problem found in a coloring, in ascending vertex scan order."""

    kind: str  # "color-not-in-list" | "monochromatic-edge"
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.kind == "color-not-in-list":
            return f"vertex {self.vertex} is colored outside its list"
        u, v = self.edge  # type: ignore[misc]
        return f"edge ({u}, {v}) is monochromatic"


def verify_coloring(g: Graph, lists: ListAssignment | None,
                    phi: Coloring | list[int | None]) -> Defect | None:
    """None if phi is proper and drawn from the lists; else the first defect.

    Vertices are scanned ascending; at each vertex the list check precedes the
    checks of its edges toward larger neighbor ids. Pass lists=None to check
    properness only. phi may also be a list indexed by id, as the solver keeps
    it. An uncolored vertex's None then fails its list check; with lists=None,
    or in a list too short for the largest id, it raises IncompleteColoring.
    """
    ids = g.vertices
    slots = g.slots
    if isinstance(phi, dict):
        missing = list(filterfalse(phi.__contains__, ids))
        if missing:
            raise IncompleteColoring(f"vertices without a color: {missing[:5]}")
        if len(phi) != len(ids):
            extra = sorted(phi.keys() - set(ids))
            raise IncompleteColoring(f"colors assigned outside the graph: {extra[:5]}")
    elif ids and (len(phi) <= ids[-1] or lists is None and None in map(phi.__getitem__, ids)):
        raise IncompleteColoring("some vertex has no color")
    for v in ids:
        color = phi[v]
        if lists is not None and color not in lists[v]:
            return Defect(kind="color-not-in-list", vertex=v)
        for u in slots[v]:
            if u > v and phi[u] == color:
                return Defect(kind="monochromatic-edge", edge=(v, u))
    return None


def brute_force_list_color(
    g: Graph,
    lists: ListAssignment,
    node_limit: int = 10_000_000,
) -> Coloring | OracleOutcome:
    """Exhaustive backtracking over vertices and colors in ascending order.

    Returns the lexicographically first list coloring, UNSATISFIABLE after
    exhausting the space, or LIMIT_EXCEEDED once node_limit color decisions
    have been tried. Intended for roughly a dozen vertices or fewer.
    """
    verts = g.vertices
    n = len(verts)
    options = [sorted(lists[v]) for v in verts]
    # An explicit stack: untried[i] yields the colors of verts[i] not tried
    # yet, taken[i] holds those of its neighbors earlier in the order.
    untried: list[Iterator[int]] = [iter(())] * n
    taken: list[set[int]] = [set()] * n
    phi: Coloring = {}
    decisions = 0
    i = 0
    entering = True
    while 0 <= i < n:
        v = verts[i]
        if entering:
            untried[i] = iter(options[i])
            taken[i] = {phi[u] for u in g.neighbors(v) if u in phi}
        else:
            del phi[v]  # the deeper search failed under this color
        for color in untried[i]:
            decisions += 1
            if decisions > node_limit:
                return OracleOutcome.LIMIT_EXCEEDED
            if color not in taken[i]:
                phi[v] = color
                break
        entering = v in phi
        i += 1 if entering else -1
    return dict(phi) if i == n else OracleOutcome.UNSATISFIABLE

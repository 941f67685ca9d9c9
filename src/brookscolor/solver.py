"""Constructive list coloring under per-component degree hypotheses.

Every connected component must satisfy one of two conditions: (a) it has
slack (a vertex whose list is longer than its degree) and each list has at
least as many colors as its vertex's degree, or (b) the component's max
degree D is at least 3, each list has at least D colors, and the component
is not the complete graph on D+1 vertices.

One C-level scan compares each list with its vertex's degree. Then one
pass colors every component with slack: greedily, in reverse breadth-first
order from all vertices with slack at once, so each vertex still has an
uncolored neighbor, its search parent, when its turn comes. Components are
found only on what that search leaves, and each of them is tight: D-regular
with lists of exactly D colors and not complete, hence not chordal. Only
there, one component at a time, does the solver branch, one round per hole
x_1..x_k:

    F = G - {x_4..x_k}        + edge (x_1, x_3)
    H = G - ({x_5..x_k, x_1}) + edge (x_2, x_4)

One branch has no complete component on D+1 vertices. Its components with
slack are colored greedily, searched from the neighbors of the deleted hole
vertices, the only vertices that can have gained slack; the next round runs
on the one left tight, which holds the retained cycle triple. Each round's
graph is derived by touch-only surgery. Then the holes are recolored
innermost first from their lists minus the colors of neighbors outside the
cycle (at least two colors each), walking each cycle once from a start pair
whose existence the retained triangle guarantees.
"""

from __future__ import annotations

from itertools import compress
from operator import ge, sub
from typing import NamedTuple

from .chordal import (
    Coloring,
    Hole,
    InternalInvariantBroken,
    ListAssignment,
    chordality_certificate,
    greedy_color_along,
)
from .graph import Graph, _closed_part, connected_components, is_complete, surgery
from .oracle import verify_coloring


class MissingList(Exception):
    """A vertex has no entry in the list assignment."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} has no color list")
        self.vertex = vertex


class HypothesisViolation(Exception):
    """The input fails the per-component hypotheses; no coloring is attempted."""


class InvalidHole(Exception):
    """The supplied cycle is not a hole of the graph."""


class BothBranchesBlocked(InternalInvariantBroken):
    """Both branch graphs contain a complete component on delta+1 vertices.

    Unreachable when the branch pair comes from a hole of a connected graph
    satisfying the hypotheses; surfaced as an explicit error so tests can
    probe it.
    """


class NoStartPair(InternalInvariantBroken):
    """No cycle pair (a, b) and color c in L*(a) leaves L*(b) two colors.

    Unreachable when the residual lists come from a proper branch coloring;
    surfaced as an explicit error so tests can probe it.
    """


class ResidualTooSmall(InternalInvariantBroken):
    """A residual list has fewer than two colors; unreachable under the
    solver's hypotheses."""

    def __init__(self, vertex: int):
        super().__init__(f"residual list of cycle vertex {vertex} has < 2 colors")
        self.vertex = vertex


class HypothesisReport(NamedTuple):
    """Outcome of the per-component hypothesis check."""

    ok: bool
    failing_component: tuple[int, ...] | None = None
    detail: str = ""


class BranchPair(NamedTuple):
    """The two smaller graphs derived from a hole, with bookkeeping."""

    f_graph: Graph
    h_graph: Graph
    cycle: Hole
    f_retained: tuple[int, int, int]  # x_1, x_2, x_3
    h_retained: tuple[int, int, int]  # x_2, x_3, x_4


def check_hypotheses(g: Graph, lists: ListAssignment) -> HypothesisReport:
    """Per component: (a) every list reaches its vertex's degree and some
    list is longer (slack), or (b) every list reaches the component's max
    degree D >= 3 and the component is not complete on D+1 vertices.

    A refusal names the first failing component by smallest id.
    """
    return _check_hypotheses(g, lists)[0]


def _check_hypotheses(
    g: Graph,
    lists: ListAssignment,
) -> tuple[HypothesisReport, list[int], tuple[tuple[int, ...], ...]]:
    # The report and, when it passes, the slack order (the components with
    # slack, in reverse breadth-first order from their vertices with slack,
    # ascending) and the tight components, the rest. One C-level scan gives
    # each list's excess over its degree. Components are found only on what
    # the search leaves, or on all of g to refuse a list shorter than its
    # degree, and each is decided by the one per-component rule.
    ids = g.vertices
    try:
        sizes = list(map(len, map(lists.__getitem__, ids)))
    except (KeyError, IndexError, TypeError):  # a list by id may be short or hold None
        get = lists.get if isinstance(lists, dict) else dict(enumerate(lists)).get
        missing = [v for v in ids if get(v) is None]
        if not missing:
            raise
        raise MissingList(missing[0]) from None
    excess = list(map(sub, sizes, map(len, map(g.slots.__getitem__, ids))))
    if min(excess, default=0) < 0:
        return _first_failure(g, lists, connected_components(g), tight=False), [], ()
    order, seen = _slack_order(g, list(compress(ids, excess)))
    parts = connected_components(g, seen)
    return _first_failure(g, lists, parts, tight=True), order, parts


def _first_failure(g: Graph, lists: ListAssignment,
                   parts: tuple[tuple[int, ...], ...], tight: bool) -> HypothesisReport:
    # The first of parts that passes neither (a) nor (b), or an ok report. In
    # tight parts every list is exactly as long as its vertex's degree, so
    # the list sizes stand for the degrees there.
    for comp in parts:
        sizes = list(map(len, map(lists.__getitem__, comp)))
        degrees = sizes if tight else list(map(len, map(g.slots.__getitem__, comp)))
        if sizes != degrees and all(map(ge, sizes, degrees)):
            continue
        d = max(degrees)
        if d < 3:
            short = [v for v, size, degree in zip(comp, sizes, degrees) if size < degree]
            detail = (f"vertex {short[0]} has fewer colors than its degree" if short else
                      f"max degree {d} < 3 and no list is longer than its vertex's degree")
        elif min(sizes) < d:
            short = next(v for v, size in zip(comp, sizes) if size < d)
            detail = f"vertex {short} has fewer than {d} colors"
        elif len(comp) == d + 1 and is_complete(g, comp):
            detail = f"complete graph on {d + 1} vertices with lists of size exactly its degree"
        else:
            continue
        return HypothesisReport(ok=False, failing_component=comp,
                                detail=f"component {comp[0]}...: {detail}")
    return HypothesisReport(ok=True)


def _validate_hole(g: Graph, c: Hole) -> None:
    x = c.cycle
    k = len(x)
    if k < 4:
        raise InvalidHole(f"cycle has length {k} < 4")
    if len(set(x)) != k:
        raise InvalidHole("cycle repeats a vertex")
    cyc = frozenset(x)
    for v in x:
        if not g.has_vertex(v):
            raise InvalidHole(f"cycle vertex {v} is not in the graph")
    for i, v in enumerate(x):
        if not g.adjacent(v, x[(i + 1) % k]):
            raise InvalidHole(f"cycle vertices {v} and {x[(i + 1) % k]} are not adjacent")
        # exactly the two cyclic neighbors may appear in the closed cycle set
        if len(cyc.intersection(g.neighbors(v))) != 2:
            raise InvalidHole(f"cycle has a chord at vertex {v}")


def build_branch_pair(g: Graph, c: Hole) -> BranchPair:
    """The two derived graphs of a verified hole, built by graph surgery."""
    _validate_hole(g, c)
    x = c.cycle
    f_graph = surgery(g, delete=x[3:], add_edges=[(x[0], x[2])])
    h_graph = surgery(g, delete=(*x[4:], x[0]), add_edges=[(x[1], x[3])])
    return BranchPair(
        f_graph=f_graph,
        h_graph=h_graph,
        cycle=c,
        f_retained=(x[0], x[1], x[2]),
        h_retained=(x[1], x[2], x[3]),
    )


def select_branch(pair: BranchPair, delta: int) -> tuple[Graph, tuple[int, int, int]]:
    """The first branch (F preferred) with no complete component on delta+1
    vertices, together with its retained cycle triple.

    Precondition: the pair comes from a hole of a connected graph of max
    degree delta. Only the component holding the retained triple is checked:
    every other component of a branch contains a neighbor of a deleted cycle
    vertex, so it has a vertex of degree below delta. With max degree at most
    delta, a complete component on delta+1 vertices is the closed neighborhood
    of each of its vertices, here the triple's first vertex.
    """
    for branch, retained in ((pair.f_graph, pair.f_retained), (pair.h_graph, pair.h_retained)):
        r = retained[0]
        if branch.degree(r) != delta or not is_complete(branch, (r, *branch.neighbors(r))):
            return branch, retained
    raise BothBranchesBlocked(
        f"both branches contain a complete component on {delta + 1} vertices"
    )


def residual_lists(
    g: Graph,
    c: Hole,
    lists: ListAssignment,
    exterior_colors: Coloring,
) -> ListAssignment:
    """Remove from each cycle vertex's list the colors of its already-colored
    neighbors outside the cycle. Each cycle vertex has at most its degree
    minus two such neighbors, so at least two colors always remain under the
    solver's hypotheses.
    """
    cyc = frozenset(c.cycle)
    star: ListAssignment = {}
    for xi in c.cycle:
        forbidden = {exterior_colors[u] for u in g.neighbors(xi) if u not in cyc}
        remaining = frozenset(lists[xi]) - forbidden
        if len(remaining) < 2:
            raise ResidualTooSmall(xi)
        star[xi] = remaining
    return star


def extend_around_cycle(c: Hole, lists: ListAssignment) -> Coloring:
    """Proper coloring of the cycle from residual lists of size >= 2.

    The walk starts at an ordered adjacent pair (a, b) and a color of L*(a)
    that leaves L*(b) two colors: any color of L*(a) if |L*(b)| >= 3, else
    one of L*(a) - L*(b). Pairs (x_i, x_{i+1}) are scanned forward from the
    stored x_1; the first pair with such a color starts, with the smallest
    one. A pair fails only when L*(x_i) is a subset of a two-color L*(x_{i+1}),
    that is, equal to it, so if every forward pair fails all lists are one
    two-color set and no pair in the other direction could start either.
    The cycle is rotated so a, b become x_1, x_2; x_1 takes that color; then
    x_k down to x_3 each take their smallest color differing from the
    successor's (x_k differs from x_1), and x_2 finally avoids both x_1 and
    x_3.
    """
    x = c.cycle
    k = len(x)
    for xi in x:
        if len(lists[xi]) < 2:
            raise ResidualTooSmall(xi)
    for i in range(k):
        after = lists[x[(i + 1) % k]]
        choices = lists[x[i]] if len(after) >= 3 else lists[x[i]] - after
        if choices:
            break
    else:
        raise NoStartPair("every adjacent pair has the same two-color residual list")
    relabeled = x[i:] + x[:i]

    c1 = min(choices)
    colors: Coloring = {relabeled[0]: c1}
    succ = c1  # color of x_{i+1}, with x_{k+1} meaning x_1
    for i in range(k - 1, 1, -1):
        xi = relabeled[i]
        pick = min(lists[xi] - {succ})
        colors[xi] = pick
        succ = pick
    x2 = relabeled[1]
    colors[x2] = min(lists[x2] - {c1, succ})
    return colors


def brooks_list_color(g: Graph, lists: ListAssignment | list[frozenset[int] | None]
                      ) -> Coloring | list[int | None]:
    """List-color a graph whose components pass :func:`check_hypotheses`.

    The returned coloring is proper and drawn from the lists; this is
    verified once before returning. lists is a dict, giving a dict, or a list
    by id, giving the solver's own list by id (None where no vertex has the id).
    """
    report, order, tight = _check_hypotheses(g, lists)
    if not report.ok:
        raise HypothesisViolation(report.detail)
    colors: list[int | None] = [None] * len(g.slots)  # by id, shared by every pass
    greedy_color_along(g, order, lists, colors)
    for comp in tight:
        if len(comp) == g.n:
            _color_tight(g, lists, colors)
        else:  # on slots of its own, comp[i] renamed i
            part: list[int | None] = [None] * len(comp)
            _color_tight(_closed_part(g, comp), list(map(lists.__getitem__, comp)), part)
            for v, color in zip(comp, part):
                colors[v] = color
    defect = verify_coloring(g, lists, colors)
    if defect is not None:
        raise InternalInvariantBroken(f"solver output failed verification: {defect}")
    return {v: colors[v] for v in g.vertices} if isinstance(lists, dict) else colors


def _slack_order(g: Graph, roots: list[int]) -> tuple[list[int], list[bool]]:
    """The vertices reachable from roots, in reverse breadth-first visit order
    from all roots at once, and their marks by id."""
    slots = g.slots
    seen = [False] * len(slots)
    for v in roots:
        seen[v] = True
    order = list(roots)
    for v in order:  # the list grows while it is scanned: a queue
        for u in slots[v]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
    order.reverse()
    return order, seen


def _color_tight(g: Graph, lists: ListAssignment, colors: list[int | None]) -> None:
    # g is a connected component without slack that satisfies (b): D-regular,
    # lists of exactly D colors (read by id, as colors are), not complete. Each
    # round greedily colors the branch's components with slack, rooted beside
    # the deleted hole; rounds holds each round's graph and hole, outermost first.
    rounds: list[tuple[Graph, Hole]] = []
    while g.n:
        hole = chordality_certificate(g).hole
        if hole is None:
            raise InternalInvariantBroken("a tight component is chordal, so complete")
        rounds.append((g, hole))
        branch, _retained = select_branch(build_branch_pair(g, hole), g.degree(hole.cycle[0]))
        roots = sorted({u for x in hole.cycle if not branch.has_vertex(x)
                        for u in g.neighbors(x)
                        if branch.has_vertex(u) and len(lists[u]) > branch.degree(u)})
        colored = _slack_order(branch, roots)[0]
        greedy_color_along(branch, colored, lists, colors)
        g = surgery(branch, delete=colored) if len(colored) < branch.n else Graph([], ())
    for outer, hole in reversed(rounds):
        star = residual_lists(outer, hole, lists, colors)
        for v, color in extend_around_cycle(hole, star).items():
            colors[v] = color

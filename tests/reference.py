"""Independent brute-force reference implementations and tiny graph builders.

Everything here recomputes facts from first principles (subset enumeration,
plain BFS) and deliberately shares no logic with the package under test.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
from bisect import bisect_left
from collections import deque

from typing import Iterable

from brookscolor import (
    DuplicateListLine,
    EndpointDeleted,
    Graph,
    Hole,
    HypothesisReport,
    HypothesisViolation,
    InfeasibleConfig,
    MissingList,
    NoStartPair,
    NotAPermutation,
    OracleOutcome,
    ParseError,
    PeoViolation,
    ResidualTooSmall,
    SelfLoop,
    SplitMix64,
    UnknownVertex,
    build_branch_pair,
    build_graph,
    check_hypotheses,
    chordality_certificate,
    connected_components,
    extend_around_cycle,
    find_hole_from_witness,
    greedy_color_along,
    mcs_order,
    residual_lists,
    select_branch,
    verify_peo,
)
from brookscolor.cli import _UsageError
from brookscolor.instance_io import MAX_VERTICES, MODELS


# ---------------------------------------------------------------- builders

def graph_from_neighbors(neighbors) -> Graph:
    """A graph from a symmetric, loop-free dict of neighbor collections,
    through the trusted constructor: one slot per id up to the largest."""
    ids = tuple(sorted(neighbors))
    slots: list = [None] * (ids[-1] + 1 if ids else 0)
    for v in ids:
        slots[v] = tuple(sorted(neighbors[v]))
    return Graph(slots, ids)


def adjacency_items(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each vertex with its neighbor tuple, ascending."""
    return tuple((v, g.neighbors(v)) for v in g.vertices)


def four_rounds_22() -> Graph:
    """The 22-vertex cubic graph whose hole loop runs four F rounds."""
    return build_graph(22, [
        (1, 2), (1, 20), (1, 22), (2, 5), (2, 9), (3, 10), (3, 17), (3, 22), (4, 7),
        (4, 8), (4, 12), (5, 14), (5, 18), (6, 15), (6, 18), (6, 21), (7, 12), (7, 17),
        (8, 10), (8, 19), (9, 15), (9, 21), (10, 13), (11, 14), (11, 16), (11, 20),
        (12, 17), (13, 19), (13, 22), (14, 16), (15, 21), (16, 20), (18, 19)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return build_graph(n, edges)


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(1, n + 1), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    left = range(1, a + 1)
    right = range(a + 1, a + b + 1)
    return build_graph(a + b, [(u, v) for u in left for v in right])


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def generalized_petersen(n: int, k: int) -> Graph:
    """Outer cycle 1..n, spokes i -- n+i, inner edges n+i -- n+(i+k mod n).

    Cubic when n > 2k; (n, 1) is the prism on 2n vertices, (5, 2) Petersen.
    """
    outer = [(i, i % n + 1) for i in range(1, n + 1)]
    spokes = [(i, n + i) for i in range(1, n + 1)]
    inner = [(n + i, n + (i - 1 + k) % n + 1) for i in range(1, n + 1)]
    return build_graph(2 * n, outer + spokes + inner)


def circulant_graph(n: int, jumps: tuple[int, ...]) -> Graph:
    """Vertices 1..n on a circle, each joined to those j steps away, j in jumps."""
    return build_graph(n, [(i, (i - 1 + j) % n + 1) for i in range(1, n + 1) for j in jumps])


def disjoint_union(g1: Graph, g2: Graph, offset: int) -> Graph:
    ids = list(g1.vertices) + [v + offset for v in g2.vertices]
    edges = list(g1.edges()) + [(u + offset, v + offset) for u, v in g2.edges()]
    return build_graph(ids, edges)


# ------------------------------------------------------------------ oracles

def bfs_reachable(g: Graph, start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbor_set(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def is_chordal_bruteforce(g: Graph) -> bool:
    """No vertex subset of size >= 4 induces a cycle (checked over all subsets)."""
    verts = g.vertices
    n = len(verts)
    if n < 4:
        return True
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for v in verts:
        for u in g.neighbor_set(v):
            adj[index[v]] |= 1 << index[u]
    for mask in range(1 << n):
        if mask.bit_count() < 4:
            continue
        if _mask_induces_cycle(adj, mask):
            return False
    return True


def _mask_induces_cycle(adj: list[int], mask: int) -> bool:
    # every vertex of the subset has exactly two subset neighbors, and the
    # subset is connected: that is precisely an induced (chordless) cycle
    bits = mask
    while bits:
        low = bits & -bits
        i = low.bit_length() - 1
        if (adj[i] & mask).bit_count() != 2:
            return False
        bits ^= low
    start = mask & -mask
    reach = start
    while True:
        grown = reach
        bits = reach
        while bits:
            low = bits & -bits
            grown |= adj[low.bit_length() - 1] & mask
            bits ^= low
        if grown == reach:
            break
        reach = grown
    return reach == mask


def chordless_cycles_bruteforce(g: Graph) -> list[tuple[int, ...]]:
    """All vertex subsets (sorted tuples) inducing a cycle of length >= 4."""
    found = []
    for size in range(4, g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            members = set(subset)
            degrees_ok = all(len(g.neighbor_set(v) & members) == 2 for v in subset)
            if degrees_ok and bfs_reachable_within(g, subset[0], members) == members:
                found.append(subset)
    return found


def bfs_reachable_within(g: Graph, start: int, allowed: set[int]) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbor_set(v):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def is_hole_bruteforce(g: Graph, cycle: tuple[int, ...]) -> bool:
    """Full quadratic audit: length, distinctness, cyclic adjacency, no chords."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    if not all(g.has_vertex(v) for v in cycle):
        return False
    for i, v in enumerate(cycle):
        if not g.adjacent(v, cycle[(i + 1) % k]):
            return False
    for i, j in itertools.combinations(range(k), 2):
        consecutive = j - i == 1 or (i == 0 and j == k - 1)
        if not consecutive and g.adjacent(cycle[i], cycle[j]):
            return False
    return True


def max_clique_bruteforce(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(g.vertices, size):
            members = set(subset)
            if all(len(g.neighbor_set(v) & members) == size - 1 for v in subset):
                return size
    return 0


def first_peo_violation_bruteforce(g: Graph, order) -> tuple[int, tuple[int, int]] | None:
    """Direct definition check, scanning positions then sorted pairs."""
    seq = tuple(order)
    pos = {v: i for i, v in enumerate(seq)}
    for i, v in enumerate(seq):
        earlier = sorted(u for u in g.neighbor_set(v) if pos[u] < i)
        for a, b in itertools.combinations(earlier, 2):
            if not g.adjacent(a, b):
                return v, (a, b)
    return None


# ------------------------------------------------- heap-based certificate
# The chordality certificate's first form: maximum cardinality search over the
# whole graph with a heap of (-weight, id) entries, then the whole order
# checked, then one BFS from the first violation, in canonical rotation.

def mcs_order_heap(g: Graph) -> tuple[int, ...]:
    weight = {v: 0 for v in g.vertices}
    heap: list[tuple[int, int]] = [(0, v) for v in g.vertices]
    seen: set[int] = set()
    order: list[int] = []
    while heap:
        w, v = heapq.heappop(heap)
        if v in seen or -w != weight[v]:
            continue  # stale entry
        seen.add(v)
        order.append(v)
        for u in g.neighbors(v):
            if u not in seen:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return tuple(order)


def certificate_pipeline(g: Graph) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(order, None) if the MCS order is perfect, else (None, hole)."""
    order = mcs_order_heap(g)
    violation = first_peo_violation_bruteforce(g, order)
    if violation is None:
        return order, None
    v, (u, w) = violation
    blocked = (g.neighbor_set(v) | {v}) - {u, w}
    parent: dict[int, int | None] = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            break
        for y in g.neighbors(x):
            if y not in blocked and y not in parent:
                parent[y] = x
                queue.append(y)
    path = [w]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    cycle = (v, *reversed(path))
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[-1] < cycle[1]:
        cycle = (cycle[0], *reversed(cycle[1:]))
    return None, cycle


def all_cycle_colorings(cycle: tuple[int, ...], lists: dict[int, frozenset[int]]):
    """Every proper list coloring of a plain cycle, by product enumeration."""
    k = len(cycle)
    domains = [sorted(lists[v]) for v in cycle]
    for combo in itertools.product(*domains):
        if all(combo[i] != combo[(i + 1) % k] for i in range(k)):
            yield dict(zip(cycle, combo))


# ------------------------------------------------------- quadratic generators
# The generators' first form: each step rescans every earlier vertex, and
# gnp-capped makes every pair's draw. The package must consume the stream the
# same way and return the same edges.

def tree_plus_edges_rescan(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    degree = {v: 0 for v in range(1, n + 1)}
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        candidates = [u for u in range(1, v) if degree[u] < delta]
        if not candidates:
            raise InfeasibleConfig("no spanning tree")
        u = candidates[rng.below(len(candidates))]
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(n):
        u = 1 + rng.below(n)
        v = 1 + rng.below(n)
        if u == v or (u, v) in edges or (v, u) in edges:
            continue
        if degree[u] < delta and degree[v] < delta:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return edges


def chordal_simplicial_rescan(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    degree = {v: 0 for v in range(1, n + 1)}
    edges: list[tuple[int, int]] = []
    cliques: list[tuple[int, ...]] = [(1,)]
    for v in range(2, n + 1):
        base = cliques[rng.below(len(cliques))]
        eligible = [u for u in base if degree[u] < delta]
        if not eligible:
            unsaturated = [u for u in range(1, v) if degree[u] < delta]
            eligible = [unsaturated[rng.below(len(unsaturated))]]
        size_cap = delta if v == n else delta - 1
        if size_cap < 1:
            raise InfeasibleConfig("degree cap too small")
        size = 1 + rng.below(min(len(eligible), size_cap))
        chosen = sample_per_draw(rng, eligible, size)
        for u in chosen:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
        cliques.append(tuple(sorted((*chosen, v))))
    return edges


def float01(rng: SplitMix64) -> float:
    """The next draw's top 53 bits as a float in [0, 1)."""
    return (rng.next_u64() >> 11) / float(1 << 53)


def gnp_capped_every_draw(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    p = float01(rng)
    degree = {v: 0 for v in range(1, n + 1)}
    edges: list[tuple[int, int]] = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if float01(rng) < p and degree[u] < delta and degree[v] < delta:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return edges


QUADRATIC_GENERATORS = {
    "tree-plus-edges": tree_plus_edges_rescan,
    "chordal-simplicial": chordal_simplicial_rescan,
    "gnp-capped": gnp_capped_every_draw,
}


def sample_copying(rng: SplitMix64, pool, k: int) -> list[int]:
    """sample's first form: a partial Fisher-Yates shuffle of a copy."""
    pool = list(pool)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


# ------------------------------------------------ hypotheses by components
# The solver's earlier screen: every component found first, then each checked
# against (a) every list longer than its vertex's degree, or (b) max degree
# D >= 3, every list at least D, and not complete on D+1 vertices. The package
# also accepts any component with slack whose lists all reach their degrees,
# and refuses with the same words for the component it names.

def component_refusal(g: Graph, lists, comp: tuple[int, ...]) -> str | None:
    """Why comp passes neither (a) nor (b), in the solver's words; None if it
    passes one."""
    degrees = [g.degree(v) for v in comp]
    sizes = [len(lists[v]) for v in comp]
    if all(size > degree for size, degree in zip(sizes, degrees)):
        return None
    d = max(degrees)
    if d < 3:
        short = [v for v, size, degree in zip(comp, sizes, degrees) if size < degree]
        if short:
            return f"vertex {short[0]} has fewer colors than its degree"
        return f"max degree {d} < 3 and no list is longer than its vertex's degree"
    short = [v for v, size in zip(comp, sizes) if size < d]
    if short:
        return f"vertex {short[0]} has fewer than {d} colors"
    if len(comp) == d + 1 and all(g.adjacent(u, v) for u, v in itertools.combinations(comp, 2)):
        return f"complete graph on {d + 1} vertices with lists of size exactly its degree"
    return None


def check_hypotheses_by_components(g: Graph, lists) -> HypothesisReport:
    """The first component, by smallest id, that passes neither (a) nor (b)."""
    for v in g.vertices:
        if v not in lists:
            raise MissingList(v)
    seen: set[int] = set()
    for v in g.vertices:
        if v in seen:
            continue
        comp = tuple(sorted(bfs_reachable(g, v)))
        seen.update(comp)
        detail = component_refusal(g, lists, comp)
        if detail is not None:
            return HypothesisReport(ok=False, failing_component=comp,
                                    detail=f"component {comp[0]}...: {detail}")
    return HypothesisReport(ok=True)


# ------------------------------------------------ per-component solver
# The solver's earlier orchestration, on the package's own certificate, branch,
# greedy and cycle steps: each component is carved out of the whole graph with
# surgery, then colored on its own by rounds of (slack greedy, carve off the
# tight rest, certificate, branch). The package colors every slack component
# in one pass and must give the same colors and hole rounds.

def _slack_order(g: Graph, lists) -> list[int]:
    order = [v for v in g.vertices if len(lists[v]) > g.degree(v)]
    seen = set(order)
    for v in order:
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
    order.reverse()
    return order


def _color_component_reference(g: Graph, lists) -> tuple[dict[int, int], int]:
    colors: dict[int, int] = {}
    rounds = []
    while True:
        order = _slack_order(g, lists)
        if len(order) == g.n:
            colors.update(greedy_color_along(g, order, lists))
            break
        if order:
            tight = surgery_rebuild(g, delete=order)
            colors.update(greedy_color_along(surgery_rebuild(g, delete=tight.vertices), order,
                                             lists))
            g = tight
        hole = chordality_certificate(g).hole
        rounds.append((g, hole))
        g, _retained = select_branch(build_branch_pair(g, hole), g.degree(hole.cycle[0]))
    for outer, hole in reversed(rounds):
        colors.update(extend_around_cycle(hole, residual_lists(outer, hole, lists, colors)))
    return colors, len(rounds)


def brooks_per_component(g: Graph, lists) -> tuple[dict[int, int], int]:
    """(coloring, number of hole rounds), one carved component at a time."""
    report = check_hypotheses(g, lists)
    if not report.ok:
        raise HypothesisViolation(report.detail)
    colors: dict[int, int] = {}
    rounds = 0
    for comp in connected_components(g):
        sub = g if len(comp) == g.n else surgery_rebuild(g, delete=set(g.vertices) - set(comp))
        sub_colors, sub_rounds = _color_component_reference(sub, lists)
        colors.update(sub_colors)
        rounds += sub_rounds
    return colors, rounds


# ------------------------------------------------------ rebuilding surgery
# surgery's first form: every surviving vertex's neighbor tuple is rebuilt and
# m is recounted. The package's touch-only surgery must give the same graph,
# or the same exception with the same message.

def surgery_rebuild(
    g: Graph,
    delete: Iterable[int] = (),
    add_edges: Iterable[tuple[int, int]] = (),
) -> Graph:
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
    vertices = tuple(v for v in g.vertices if v not in doomed)
    neighbors = {v: tuple(u for u in g.neighbors(v) if u not in doomed) for v in vertices}
    for v, extra in additions.items():
        neighbors[v] = tuple(sorted(set(neighbors[v]).union(extra)))
    return graph_from_neighbors(neighbors)


# ------------------------------------------------------- recursive oracle
# The oracle's first form recursed once per vertex; the package's explicit
# stack must find the same coloring and give up after the same decision.

def brute_force_recursive(g: Graph, lists, node_limit: int = 10_000_000):
    verts = g.vertices
    options = {v: sorted(lists[v]) for v in verts}
    phi: dict[int, int] = {}
    decisions = 0

    class _Limit(Exception):
        pass

    def backtrack(idx: int) -> bool:
        nonlocal decisions
        if idx == len(verts):
            return True
        v = verts[idx]
        taken = {phi[u] for u in g.neighbors(v) if u in phi}
        for color in options[v]:
            decisions += 1
            if decisions > node_limit:
                raise _Limit
            if color in taken:
                continue
            phi[v] = color
            if backtrack(idx + 1):
                return True
            del phi[v]
        return False

    try:
        found = backtrack(0)
    except _Limit:
        return OracleOutcome.LIMIT_EXCEEDED
    return dict(phi) if found else OracleOutcome.UNSATISFIABLE


# ------------------------------------------- edge-tuple parser, set builder
# The front end's first form: the parser kept a list of edge tuples and a
# dict of lists, and build_graph grew a dict of sets and sorted it. The
# package's one-pass parser and list-gathering builder must give the same
# graph and lists, or the same exception with the same message and line
# number.

def build_graph_sets(n_or_ids, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    if isinstance(n_or_ids, int):
        ids: Iterable[int] = range(1, n_or_ids + 1)
    else:
        ids = n_or_ids
    ids = list(ids)
    bad = [v for v in ids if not 0 <= v <= MAX_VERTICES]
    if bad:  # the smallest negative id, or else the largest
        worst = min(bad) if min(bad) < 0 else max(bad)
        raise UnknownVertex(f"vertex ids must be in 0..{MAX_VERTICES}, got {worst}")
    adjacency: dict[int, set[int]] = {}
    for v in ids:
        adjacency.setdefault(v, set())
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        if u not in adjacency:
            raise UnknownVertex(f"edge endpoint {u} is not a declared vertex")
        if v not in adjacency:
            raise UnknownVertex(f"edge endpoint {v} is not a declared vertex")
        adjacency[u].add(v)
        adjacency[v].add(u)
    return graph_from_neighbors(adjacency)


def parse_instance_tuples(text: str):
    n = None
    edges: list[tuple[int, int]] = []
    lists: dict[int, frozenset[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(line_no, "problem line must be 'p edge <n> <m>'")
            try:
                n = int(tokens[2])
                m = int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "problem line counts must be integers") from None
            if not 0 <= n <= MAX_VERTICES:
                raise ParseError(line_no, f"vertex count must be in 0..{MAX_VERTICES}")
            if not 0 <= m <= n * (n - 1) // 2:
                raise ParseError(line_no, f"edge count must be in 0..{n * (n - 1) // 2}")
            continue
        if n is None:
            raise ParseError(line_no, f"'{kind}' line before the problem line")
        if kind == "e":
            if len(tokens) != 3:
                raise ParseError(line_no, "edge line must be 'e <u> <v>'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise ParseError(line_no, f"edge ({u}, {v}) is a self-loop")
            for x in (u, v):
                if not 1 <= x <= n:
                    raise UnknownVertex(f"line {line_no}: vertex {x} outside 1..{n}")
            edges.append((u, v))
        elif kind == "l":
            if len(tokens) < 2:
                raise ParseError(line_no, "list line must be 'l <v> <colors...>'")
            try:
                v = int(tokens[1])
                colors = [int(t) for t in tokens[2:]]
            except ValueError:
                raise ParseError(line_no, "list entries must be integers") from None
            if not 1 <= v <= n:
                raise UnknownVertex(f"line {line_no}: vertex {v} outside 1..{n}")
            if v in lists:
                raise DuplicateListLine(line_no, f"second list line for vertex {v}")
            lists[v] = frozenset(colors)
        else:
            raise ParseError(line_no, f"unknown line type {kind!r}")
    if n is None:
        raise ParseError(1, "missing problem line 'p edge <n> <m>'")
    g = build_graph_sets(n, edges)
    if not lists:
        return g, None
    return g, {v: lists.get(v, frozenset()) for v in g.vertices}


# ------------------------------------------------ whole-text coloring parser
# parse_coloring before it read its lines a slice at a time: one splitlines()
# over the whole text. The sliced reader must give the same coloring, or the
# same exception with the same message and line number.

def parse_coloring_whole(text: str) -> dict[int, int]:
    """Parse ``v id color`` lines into a coloring."""
    phi: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] != "v" or len(tokens) != 3:
            raise ParseError(line_no, "coloring line must be 'v <id> <color>'")
        try:
            v, color = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError(line_no, "coloring entries must be integers") from None
        if v in phi:
            raise ParseError(line_no, f"second color for vertex {v}")
        phi[v] = color
    return phi


# ------------------------------------------------ two-walker certificate
# The certificate's form before one walker served both: verify_peo and the
# certificate each ran their own loop over an order, and the anchor's
# neighbor set came from a per-graph cache. The package's one walker must
# give the same violation, order or hole.

def _violation_anchored(g: Graph, v: int, earlier: list[int], pos: dict[int, int]):
    if len(earlier) <= 1:
        return None
    anchor = max(earlier, key=pos.__getitem__)
    anchor_nbrs = g.neighbor_set(anchor)
    if all(u == anchor or u in anchor_nbrs for u in earlier):
        return None
    earlier.sort()
    for a_idx, a in enumerate(earlier):
        a_nbrs = g.neighbor_set(a)
        for b in earlier[a_idx + 1:]:
            if b not in a_nbrs:
                return PeoViolation(vertex=v, witness_pair=(a, b))
    raise AssertionError("reduced check failed but no bad pair found")


def verify_peo_two_walkers(g: Graph, order) -> PeoViolation | None:
    seq = tuple(order)
    if len(seq) != g.n or set(seq) != set(g.vertices):
        raise NotAPermutation("order must be a permutation of the graph's vertices")
    pos = {v: i for i, v in enumerate(seq)}
    for i, v in enumerate(seq):
        viol = _violation_anchored(g, v, [u for u in g.neighbors(v) if pos[u] < i], pos)
        if viol is not None:
            return viol
    return None


def certificate_two_walkers(g: Graph) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(order, None) if the MCS order is perfect, else (None, hole)."""
    pos: dict[int, int] = {}
    for v in mcs_order(g):
        viol = _violation_anchored(g, v, [u for u in g.neighbors(v) if u in pos], pos)
        if viol is not None:
            break
        pos[v] = len(pos)
    else:
        return tuple(pos), None
    cycle = find_hole_from_witness(g, viol.vertex, *viol.witness_pair).cycle
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[-1] < cycle[1]:
        cycle = (cycle[0], *reversed(cycle[1:]))
    return None, cycle


# ------------------------------------------------- cycle lemma by pair scan
# extend_around_cycle's first form: a list of all 2k ordered pairs, each
# L*(a) scanned in sorted order for a color leaving L*(b) two colors, then the
# start pair looked up in the cycle. The package states the start rule
# outright and must give the same coloring or the same exception.

def extend_around_cycle_pairs(c: Hole, lists) -> dict[int, int]:
    x = c.cycle
    k = len(x)
    for xi in x:
        if len(lists[xi]) < 2:
            raise ResidualTooSmall(xi)
    pairs = [(x[i], x[(i + 1) % k]) for i in range(k)]
    pairs += [(x[i], x[(i - 1) % k]) for i in range(k)]
    start = None
    for a, b in pairs:
        for color in sorted(lists[a]):
            if len(lists[b] - {color}) >= 2:
                start = (a, b, color)
                break
        if start is not None:
            break
    if start is None:
        raise NoStartPair("every adjacent pair has the same two-color residual list")
    a, b, c1 = start
    ia = x.index(a)
    if x[(ia + 1) % k] == b:
        relabeled = tuple(x[(ia + j) % k] for j in range(k))
    else:
        relabeled = tuple(x[(ia - j) % k] for j in range(k))
    colors = {relabeled[0]: c1}
    succ = c1
    for i in range(k - 1, 1, -1):
        xi = relabeled[i]
        pick = min(lists[xi] - {succ})
        colors[xi] = pick
        succ = pick
    x2 = relabeled[1]
    colors[x2] = min(lists[x2] - {c1, succ})
    return colors


# ------------------------------------------------------------ clique number
# Read off an elimination order; only the tests need it, to size lists at the
# clique number of a generated chordal graph.

class InvalidPeo(Exception):
    """An order claimed to be a perfect elimination ordering is not one."""


def clique_number_from_peo(g: Graph, peo) -> int:
    """Clique number of a chordal graph, read off a verified elimination order.

    Every clique appears as some vertex together with its earlier neighbors,
    so the maximum of (1 + earlier degree) over the order is exact.
    """
    seq = tuple(peo)
    if verify_peo(g, seq) is not None:
        raise InvalidPeo("order is not a perfect elimination ordering")
    pos = {v: i for i, v in enumerate(seq)}
    best = 0
    for i, v in enumerate(seq):
        earlier = sum(1 for u in g.neighbors(v) if pos[u] < i)
        if earlier + 1 > best:
            best = earlier + 1
    return best


# ------------------------------------------- kept list, per-vertex join
# The generators' and emit's earlier forms: every draw is a next_u64() call,
# each list is one sample() call and never shared, chordal-simplicial keeps
# its unsaturated vertices in an ascending list, tree-plus-edges keys its
# edges by tuple, and emit_instance joins every vertex's colors anew. The
# package must give the same lists, edges, stream state and text.

def sample_per_draw(rng: SplitMix64, pool, k: int) -> list[int]:
    """k distinct elements of pool by a partial Fisher-Yates shuffle that
    stores only displaced entries, with one next_u64() call per draw: the
    former SplitMix64.sample, which every model's picks reproduce."""
    moved: dict[int, int] = {}
    picked = []
    for i in range(k):
        j = i + rng.next_u64() % (len(pool) - i)
        picked.append(moved[j] if j in moved else pool[j])
        moved[j] = moved[i] if i in moved else pool[i]
    return picked


def random_lists_per_draw(vertices, palette: int, list_size: int, rng: SplitMix64):
    colors = range(1, palette + 1)
    return {v: frozenset(sample_per_draw(rng, colors, list_size)) for v in sorted(vertices)}


def chordal_simplicial_kept_list(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    degree = [0] * (n + 1)
    unsat = [1]  # ascending: the vertices below v with degree under the cap
    edges: list[tuple[int, int]] = []
    cliques: list[tuple[int, ...]] = [(1,)]
    for v in range(2, n + 1):
        base = cliques[rng.next_u64() % len(cliques)]
        eligible = [u for u in base if degree[u] < delta]
        if not eligible:
            eligible = [unsat[rng.next_u64() % len(unsat)]]
        size_cap = delta if v == n else delta - 1
        if size_cap < 1:
            raise InfeasibleConfig("degree cap too small")
        size = 1 + rng.next_u64() % min(len(eligible), size_cap)
        chosen = sample_per_draw(rng, eligible, size)
        for u in chosen:
            edges.append((u, v))
            degree[u] += 1
            if degree[u] == delta:
                del unsat[bisect_left(unsat, u)]
        degree[v] = size
        if size < delta:
            unsat.append(v)
        cliques.append(tuple(sorted((*chosen, v))))
    return edges


def tree_plus_edges_kept_list(n: int, delta: int, rng: SplitMix64) -> list[tuple[int, int]]:
    degree = [0] * (n + 1)
    edges: list[tuple[int, int]] = []
    adjacent: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.append((u, v))
        adjacent.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    unsat = [1]  # ascending: the vertices below v with degree under the cap
    for v in range(2, n + 1):
        if not unsat:
            raise InfeasibleConfig("no spanning tree")
        i = rng.below(len(unsat))
        u = unsat[i]
        add(u, v)
        if degree[u] == delta:
            del unsat[i]
        if degree[v] < delta:
            unsat.append(v)
    for _ in range(n):
        u = 1 + rng.below(n)
        v = 1 + rng.below(n)
        if u == v or (min(u, v), max(u, v)) in adjacent:
            continue
        if degree[u] < delta and degree[v] < delta:
            add(u, v)
    return edges


def emit_instance_joined(g: Graph, lists=None) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges())
    if lists is not None:
        for v in g.vertices:
            colors = " ".join(str(c) for c in sorted(lists[v]))
            out.append(f"l {v} {colors}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- command line

# The argparse grammar that `brookscolor.cli._parse` replaced, as it stood.
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise _UsageError(message)

    parser = Parser(prog="brookscolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen_opts = argparse.ArgumentParser(add_help=False)
    gen_opts.add_argument("--n", type=int, default=30, help="vertex count")
    gen_opts.add_argument("--delta", type=int, default=4, help="max-degree cap")
    gen_opts.add_argument("--model", choices=MODELS, default="tree-plus-edges")
    gen_opts.add_argument("--seed", type=int, default=0)
    gen_opts.add_argument("--list-size", type=int,
                          help="colors per list (default: delta)")
    gen_opts.add_argument("--palette", type=int,
                          help="palette size, colors are 1..palette (default: 2*delta)")

    p = sub.add_parser("chordal", help="print an elimination order or a hole")
    p.add_argument("file")

    p = sub.add_parser("color", help="list-color an instance")
    p.add_argument("file")
    p.add_argument("--uniform", type=int, metavar="K",
                   help="use lists {1..K} everywhere, ignoring any in the file")

    p = sub.add_parser("seedrun", parents=[gen_opts],
                       help="generate and color N instances, report pass/fail counts")
    p.add_argument("count", type=int, metavar="N")

    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("file")
    p.add_argument("coloring_file")

    p = sub.add_parser("oracle", help="exhaustive search for a list coloring")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=10_000_000, help="node limit")

    sub.add_parser("gen", parents=[gen_opts], help="write a generated instance to stdout")
    return parser

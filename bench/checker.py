"""The benchmark's own output checker.

It checks results against the generated ground truth without calling any of
the library's verifiers, and it never pins exact colouring bytes: any proper
colouring from the lists, any valid elimination order and any hole pass.
Each check returns None when the output is correct, else a one-line defect.
"""

from __future__ import annotations


class Truth:
    """Ground truth of one instance: vertices 1..n, adjacency sets, lists."""

    __slots__ = ("n", "adj", "lists")

    def __init__(self, n: int, edges, lists: dict[int, frozenset[int]]):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.lists = lists


def coloring_defect(t: Truth, phi: dict[int, int]) -> str | None:
    """Every vertex 1..n coloured once, from its list, no edge monochromatic."""
    if set(phi) != set(range(1, t.n + 1)):
        return "coloring does not cover exactly the vertices 1..n"
    for v in range(1, t.n + 1):
        if phi[v] not in t.lists[v]:
            return f"colour-outside-list at vertex {v}"
        for u in t.adj[v]:
            if u > v and phi[u] == phi[v]:
                return f"monochromatic-edge ({v}, {u})"
    return None


def hole_defect(t: Truth, cycle: list[int]) -> str | None:
    """A chordless cycle of length >= 4 listed in cycle order."""
    k = len(cycle)
    if k < 4:
        return f"hole of length {k} < 4"
    if len(set(cycle)) != k or not all(1 <= v <= t.n for v in cycle):
        return "hole repeats a vertex or names an unknown one"
    members = set(cycle)
    for i, v in enumerate(cycle):
        if cycle[(i + 1) % k] not in t.adj[v]:
            return f"hole-not-a-cycle: {v} and {cycle[(i + 1) % k]} are not adjacent"
        if len(t.adj[v] & members) != 2:
            return f"hole-has-chord at vertex {v}"
    return None


def order_defect(t: Truth, order: list[int]) -> str | None:
    """A permutation of 1..n in which every vertex's earlier neighbours are
    pairwise adjacent."""
    if sorted(order) != list(range(1, t.n + 1)):
        return "order is not a permutation of 1..n"
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in t.adj[v] if pos[u] < pos[v]]
        for i, a in enumerate(earlier):
            for b in earlier[i + 1:]:
                if b not in t.adj[a]:
                    return f"order-not-peo at vertex {v}: {a} and {b} are not adjacent"
    return None


def parse_coloring_text(text: str) -> dict[int, int] | str:
    """``v <id> <colour>`` lines as a dict, or a defect string."""
    phi: dict[int, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[0] != "v":
            return f"bad coloring line {line!r}"
        try:
            v, c = int(parts[1]), int(parts[2])
        except ValueError:
            return f"bad coloring line {line!r}"
        if v in phi:
            return f"vertex {v} coloured twice"
        phi[v] = c
    return phi


def color_run_defect(t: Truth, code: int, stdout: str) -> str | None:
    """`brookscolor color FILE`: exit 0 and a correct colouring on stdout."""
    if code != 0:
        return f"color exited {code}, expected 0"
    phi = parse_coloring_text(stdout)
    if isinstance(phi, str):
        return phi
    return coloring_defect(t, phi)


def chordal_run_defect(t: Truth, code: int, stdout: str) -> str | None:
    """`brookscolor chordal FILE`: exit 0 with a valid elimination order, or
    exit 1 with a valid hole."""
    words = stdout.split()
    kind = words[0] if words else ""
    try:
        ids = [int(w) for w in words[1:]]
    except ValueError:
        return f"chordal printed non-integer ids: {stdout[:60]!r}"
    if stdout.count("\n") != 1:
        return "chordal must print exactly one line"
    if kind == "chordal" and code == 0:
        return order_defect(t, ids)
    if kind == "hole" and code == 1:
        return hole_defect(t, ids)
    return f"chordal exited {code} with a {kind!r} line"

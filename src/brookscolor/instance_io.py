"""Instance and coloring file formats.

Instance files are DIMACS-like text: a ``p edge n m`` header, ``e u v`` edge
lines, optional ``l v c1 c2 ...`` color-list lines, and ``c`` comments.
Vertex ids are 1..n. Coloring files hold ``v id color`` lines.
"""

from __future__ import annotations

from typing import Iterator

from .chordal import Coloring, ListAssignment
from .graph import MAX_VERTICES, Graph, UnknownVertex, build_graph

# The generator models and their refusal live here, beside the shared vertex
# cap, so the CLI's `--model` choices and error handling do not load
# generate.py; that module re-exports both.
MODELS = ("tree-plus-edges", "chordal-simplicial", "gnp-capped")
# the parsers split the text one slice at a time, each cut just after the
# first '\n' at or past this many characters, so no list of every line is held
_SLICE = 16384


class InfeasibleConfig(Exception):
    """The requested instance cannot exist (e.g. degree cap too tight)."""


class ParseError(Exception):
    """Malformed input text; the message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateListLine(ParseError):
    """A vertex received more than one ``l`` line."""


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), a slice at a time. A '\n' always ends a line and a
    cut after it never splits a '\r\n', so the lines are the same."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_instance(text: str) -> tuple[Graph, list[frozenset[int] | None] | None]:
    """Parse an instance file into a graph and, if ``l`` lines occur, lists
    by vertex id: None at id 0, which no vertex has, and an empty list for
    each vertex without an ``l`` line.
    """
    lines = enumerate(_lines(text), start=1)
    # _lines holds the text to its last slice: from 3.11 on, freed before the build
    del text
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] != "p":
            raise ParseError(line_no, f"'{tokens[0]}' line before the problem line")
        if len(tokens) != 4 or tokens[1] != "edge":
            raise ParseError(line_no, "problem line must be 'p edge <n> <m>'")
        try:
            n = int(tokens[2])
            m = int(tokens[3])
        except ValueError:
            raise ParseError(line_no, "problem line counts must be integers") from None
        if not 0 <= n <= MAX_VERTICES:
            raise ParseError(line_no, f"vertex count must be in 0..{MAX_VERTICES}")
        # m bounds the distinct edges; e lines may repeat an edge, so their
        # number need not equal m
        if not 0 <= m <= n * (n - 1) // 2:
            raise ParseError(line_no, f"edge count must be in 0..{n * (n - 1) // 2}")
        break
    else:
        raise ParseError(1, "missing problem line 'p edge <n> <m>'")
    # the rest in one pass: edge endpoints in two id lists, color lists by id.
    # Each endpoint is stored as ids' own object for its id, which become the
    # graph's vertices: no second int per reference, most of a graph's memory.
    ids = list(range(n + 1))
    us: list[int] = []
    vs: list[int] = []
    lists: list[frozenset[int] | None] = [None] * (n + 1)
    # keyed by the line's text after the vertex id: equal l lines written
    # alike share one frozenset and convert their colors once; lines spaced
    # differently get equal frozensets that are not shared
    color_lists: dict[str, frozenset[int]] = {}
    for line_no, raw in lines:
        tokens = raw.split(None, 2)  # a third piece of more tokens fails int()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e":
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except (IndexError, ValueError):
                tokens = raw.split()  # for the error, or an end int() refuses: "\x1f"
                if len(tokens) != 3:
                    raise ParseError(line_no, "edge line must be 'e <u> <v>'") from None
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise ParseError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise ParseError(line_no, f"edge ({u}, {v}) is a self-loop")
            if not 1 <= u <= n:
                raise UnknownVertex(f"line {line_no}: vertex {u} outside 1..{n}")
            if not 1 <= v <= n:
                raise UnknownVertex(f"line {line_no}: vertex {v} outside 1..{n}")
            us.append(ids[u])
            vs.append(ids[v])
        elif kind == "l":
            if len(tokens) < 2:
                raise ParseError(line_no, "list line must be 'l <v> <colors...>'")
            key = tokens[2] if len(tokens) == 3 else ""
            try:
                v = int(tokens[1])
                colors = color_lists.get(key)
                if colors is None:
                    colors = color_lists[key] = frozenset(map(int, key.split()))
            except ValueError:
                raise ParseError(line_no, "list entries must be integers") from None
            if not 1 <= v <= n:
                raise UnknownVertex(f"line {line_no}: vertex {v} outside 1..{n}")
            if lists[v] is not None:
                raise DuplicateListLine(line_no, f"second list line for vertex {v}")
            lists[v] = colors
        elif kind == "p":
            raise ParseError(line_no, "duplicate problem line")
        elif kind != "c":
            raise ParseError(line_no, f"unknown line type {kind!r}")
    del ids[0]
    g = build_graph(ids, zip(us, vs))
    del ids, us, vs  # freed before the lists are filled in: a lower peak
    if not color_lists:  # no l line
        return g, None
    if lists.count(None) > 1:  # id 0 and a vertex without an l line
        empty: frozenset[int] = frozenset()
        lists = [empty if colors is None else colors for colors in lists]
        lists[0] = None
    return g, lists


def emit_instance(g: Graph, lists: ListAssignment | None = None) -> str:
    """Render a graph (ids must be exactly 1..n) and optional lists as text.

    parse_instance(emit_instance(g, lists)) gives back g and the lists by id.
    """
    ids = g.vertices
    if ids != tuple(range(1, len(ids) + 1)):
        raise ValueError("emit requires contiguous vertex ids 1..n")
    out = [f"p edge {g.n} {g.m}"]
    # g.edges() inlined: its second generator cost about a tenth of emit
    out.extend(f"e {v} {u}" for v, nbrs in zip(ids, g.slots[1:]) for u in nbrs if u > v)
    if lists is not None:
        # render each distinct list once, keyed by itself: a frozenset caches its hash
        rendered: dict[object, str] = {}
        for v in ids:
            colors = lists[v]
            try:
                text = rendered.get(colors)
            except TypeError:  # a set or list is no key; a tuple of it renders the same
                colors = tuple(colors)
                text = rendered.get(colors)
            if text is None:  # a space before each color
                text = rendered[colors] = " ".join(["", *map(str, sorted(colors))])
            out.append(f"l {v}{text}")
    out.append("")  # the final newline, without a second copy of the text
    return "\n".join(out)


def parse_coloring(text: str) -> Coloring:
    """Parse ``v id color`` lines into a coloring."""
    phi: Coloring = {}
    for line_no, raw in enumerate(_lines(text), start=1):
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


def emit_coloring(phi: Coloring | list[int | None]) -> str:
    """Render a coloring as ``v id color`` lines, ascending by id. phi is a
    dict, or a list by id with None where no vertex has the id."""
    if isinstance(phi, dict):
        return "".join(f"v {v} {phi[v]}\n" for v in sorted(phi))
    return "".join(f"v {v} {color}\n" for v, color in enumerate(phi) if color is not None)

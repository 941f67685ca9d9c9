import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brookscolor import instance_io
from brookscolor import (
    DuplicateListLine,
    GeneratorConfig,
    ParseError,
    UnknownVertex,
    build_graph,
    emit_coloring,
    emit_instance,
    generate,
    parse_coloring,
    parse_instance,
    uniform_lists,
)

from reference import (adjacency_items, emit_instance_joined, parse_coloring_whole,
                       parse_instance_tuples, path_graph)
from strategies import graphs


def test_parse_path():
    g, lists = parse_instance("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g == path_graph(3)
    assert lists is None


def test_parse_list_lines():
    g, lists = parse_instance("p edge 3 2\ne 1 2\ne 2 3\nl 1 1 2 3\n")
    assert lists[1] == frozenset({1, 2, 3})
    # vertices without an l line get empty lists once any l line appears
    assert lists[2] == frozenset() and lists[3] == frozenset()


def test_parse_self_loop_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_instance("p edge 2 1\ne 1 1\n")
    assert info.value.line_no == 2


def test_parse_comments_and_blank_lines():
    g, lists = parse_instance("c header\n\np edge 2 1\nc mid\ne 1 2\n")
    assert g.m == 1 and lists is None


def test_parse_unknown_vertex():
    with pytest.raises(UnknownVertex):
        parse_instance("p edge 3 1\ne 1 9\n")
    with pytest.raises(UnknownVertex):
        parse_instance("p edge 3 0\nl 4 1\n")


def test_parse_duplicate_list_line():
    with pytest.raises(DuplicateListLine):
        parse_instance("p edge 2 0\nl 1 1\nl 1 2\n")


def test_parse_errors_cover_malformed_lines():
    bad = [
        "e 1 2\n",              # edge before problem line
        "p edge 2\n",           # short problem line
        "p node 2 0\n",         # wrong format word
        "p edge 2 0\np edge 2 0\n",
        "p edge 2 0\nq 1\n",    # unknown line type
        "p edge 2 0\ne 1\n",    # short edge line
        "p edge 2 0\ne 1 x\n",  # non-integer
        "p edge 2 0\nl\n",      # list line without a vertex
        "p edge 2 0\nl 1 x\n",  # non-integer color
        "p edge x 0\n",         # non-integer count
        "p edge -1 0\n",        # negative vertex count
        "p edge 1000000000000 0\n",  # over the cap: refused before allocation
        "p edge 3 -1\n",        # negative edge count
        "p edge 3 4\n",         # more edges than 3 vertices can hold
        "",                     # missing problem line
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_instance(text)


def test_emit_requires_contiguous_ids():
    g = build_graph({2, 3}, [(2, 3)])
    with pytest.raises(ValueError):
        emit_instance(g)


def test_emit_empty_lists_line():
    g = build_graph(1, [])
    text = emit_instance(g, {1: frozenset()})
    assert "l 1\n" in text
    _, lists = parse_instance(text)
    assert lists == [None, frozenset()]


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["tree-plus-edges", "chordal-simplicial", "gnp-capped"]))
def test_round_trip_on_generated_instances(seed, model):
    g, lists = generate(GeneratorConfig(n=1 + seed % 25, delta=4, model=model,
                                        seed=seed, palette=6, list_size=3))
    text = emit_instance(g, lists)
    g2, lists2 = parse_instance(text)
    # entry by entry, by id: nothing at id 0, then each vertex's list
    assert g2 == g and lists2 == [None, *(lists[v] for v in g.vertices)]
    # emitting the parse result reproduces the bytes, too
    assert emit_instance(g2, lists2) == text


def test_round_trip_without_lists():
    g, _ = generate(GeneratorConfig(n=12, delta=3, seed=9))
    text = emit_instance(g)
    g2, lists2 = parse_instance(text)
    assert g2 == g and lists2 is None


def test_coloring_round_trip():
    phi = {3: 2, 1: 5, 2: -1}
    text = emit_coloring(phi)
    assert text == "v 1 5\nv 2 -1\nv 3 2\n"
    assert parse_coloring(text) == phi


def test_parse_coloring_errors():
    with pytest.raises(ParseError):
        parse_coloring("v 1\n")
    with pytest.raises(ParseError):
        parse_coloring("w 1 2\n")
    with pytest.raises(ParseError):
        parse_coloring("v 1 2\nv 1 3\n")
    with pytest.raises(ParseError):
        parse_coloring("v 1 x\n")
    assert parse_coloring("c note\n") == {}


def test_parse_instance_negative_colors_allowed():
    _, lists = parse_instance("p edge 1 0\nl 1 -4 0 9\n")
    assert lists[1] == frozenset({-4, 0, 9})


def _outcome(parse, text):
    """The parsed graph and each vertex's list, or the exception's class,
    message and line number. Lists by id hold nothing at id 0 and one entry
    per slot; the reference's are a dict."""
    try:
        g, lists = parse(text)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "line_no", None)
    if isinstance(lists, list):
        assert len(lists) == len(g.slots) and lists[0] is None
    return adjacency_items(g), None if lists is None else tuple((v, lists[v]) for v in g.vertices)


# whitespace that str.split() separates tokens at and splitlines ends no line
# at; int() strips all but "\x1f" from a token's ends
_SEPARATORS = (" ", "\t", "  ", "\x1f", "\xa0", "\u3000")


@st.composite
def instance_texts(draw):
    """Valid instance texts, and the same texts with a few malformed lines
    (self-loops, bad or non-integer endpoints, short or long lines, second p
    and l lines, unknown kinds, no p line) spliced in; blank lines and
    comments anywhere. Each line's tokens are joined by any of _SEPARATORS
    and may end in one."""

    def spaced(line):
        tokens = line.split(" ")
        seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens) - 1,
                             max_size=len(tokens) - 1))
        end = draw(st.sampled_from(["", *_SEPARATORS]))
        return "".join(map(str.__add__, tokens, [*seps, end]))

    n = draw(st.integers(0, 7))
    ids = st.integers(1, max(n, 1))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        u, v = draw(ids), draw(ids)
        if u != v:
            lines.append(f"e {u} {v}")  # repeats allowed
    for v in draw(st.lists(st.integers(1, n), unique=True)) if n else []:
        colors = draw(st.lists(st.integers(-1, 6), max_size=5))
        lines.append(" ".join(["l", str(v), *map(str, colors)]))
    if draw(st.integers(0, 9)):  # one text in ten has no p line
        lines.insert(0, f"p edge {n} {draw(st.integers(0, n * (n - 1) // 2))}")
    bad = st.one_of(
        ids.map(lambda v: f"e {v} {v}"),
        st.tuples(*[st.sampled_from([1, 0, -1, n + 1, 10**12])] * 2).map(
            lambda e: f"e {e[0]} {e[1]}"),
        st.sampled_from([0, -3, n + 1]).map(lambda x: f"l {x} 1 2"),
        ids.map(lambda v: f"l {v} 3"),  # a second l line if v already has one
        st.sampled_from(["e 1 x", "e 1.5 2", "l 1 a", "l b 1", "e 1", "e", "l",
                         "e 1 2 3", "e 1 2 x", "e x 1 2", "e 1 2\t3", "p edge 2 1",
                         "p edge 2", "p node 2 0", "p edge x 0", "p edge -1 0", "p edge 3 9",
                         "q 1 2", "v 1 1", "E 1 2"]),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    lines = [spaced(line) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "\t", "c", "c a comment"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@given(instance_texts())
@example("p edge 2 1\ne 1 1\n")
@example("p edge 2 1\ne 1 3\n")
@example("p edge 2 0\nl 1\nl 1 2\n")
@example("e 1 2\n")
@example("p edge 2 0\nq\n")
@example("")
@example("p edge 2 1\ne 1 2\x1f\n")  # int() refuses the third piece, "2\x1f"
@example("p edge 3 0\ne 1 2\t3\n")
@example("p edge 3 0\ne 1 2 x\n")
@example("p edge 2 0\nl 1 1\xa02\u3000\nl 2 1 2\n")
def test_parse_matches_edge_tuple_reference(text):
    assert _outcome(parse_instance, text) == _outcome(parse_instance_tuples, text)


_COLORS = st.integers(min_value=-5, max_value=10**12)


@given(graphs(), st.data())
def test_emit_matches_per_vertex_join(g, data):
    # shared list objects, as the parser and the generators make them ...
    pool = data.draw(st.lists(st.frozensets(_COLORS, max_size=5), min_size=1, max_size=3))
    shared = {v: data.draw(st.sampled_from(pool)) for v in g.vertices}
    # ... and one object per vertex, of every container emit reads
    fresh = {v: data.draw(st.one_of(st.frozensets(_COLORS, max_size=5),
                                    st.sets(_COLORS, max_size=5),
                                    st.lists(_COLORS, unique=True, max_size=5)))
             for v in g.vertices}
    for lists in (None, shared, fresh):
        assert emit_instance(g, lists) == emit_instance_joined(g, lists)


def test_parse_lists_by_id_give_empty_lists_without_an_l_line():
    _, lists = parse_instance("p edge 3 1\ne 1 2\nl 2 1 2\n")
    assert lists == [None, frozenset(), frozenset({1, 2}), frozenset()]
    assert parse_instance("p edge 2 1\ne 1 2\n")[1] is None


def test_emit_coloring_reads_a_list_by_id_as_the_dict():
    phi = {1: 3, 2: -1, 5: 10**12, 7: 0}
    by_id = [None] * 8
    for v, color in phi.items():
        by_id[v] = color
    assert emit_coloring(by_id) == emit_coloring(phi) == "v 1 3\nv 2 -1\nv 5 1000000000000\nv 7 0\n"
    assert emit_coloring([]) == emit_coloring({}) == ""


# every line ending str.splitlines knows
_TERMINATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")


@given(st.lists(st.sampled_from(["", " ", "e", "1 2", *_TERMINATORS])).map("".join),
       st.integers(1, 8))
@example("a\r\nb\r\n", 2)  # a cut due inside '\r\n' falls after it
@example("a\rb\x85\n\u2028c", 1)
def test_sliced_lines_are_splitlines(text, size):
    # with slices of a few characters, terminators fall on both sides of each cut
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instance_io, "_SLICE", size)
        assert list(instance_io._lines(text)) == text.splitlines()


_VALID = ["e 1 2", "c", "", "e 2 3", "l 1 1 2", "e 3 4", "l 2 2 3", "  ", "c x", "l 3 1", "e 1 3"]


@given(st.lists(st.sampled_from(_TERMINATORS), min_size=len(_VALID) + 1,
                max_size=len(_VALID) + 1),
       st.sampled_from(["\n", "\r\n"]), st.integers(0, len(_VALID)),
       st.sampled_from(["e 1 x", "e 1 1", "e 1 9", "l 9 1", "l 1 3", "l", "e 1 2 3",
                        "p edge 2 1", "q 1"]),
       st.integers(1, 8))
def test_sliced_parse_reports_the_reference_line(ends, first_end, at, bad, size):
    # the first slice ends with the problem line, so the malformed line lies
    # past it; ends are any terminators, which split lines as in the reference
    lines = ["p edge 4 3", *_VALID]
    lines.insert(at + 1, bad)
    text = "".join(map(str.__add__, lines, [first_end, *ends]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instance_io, "_SLICE", size)
        outcome = _outcome(parse_instance, text)
    assert outcome == _outcome(parse_instance_tuples, text)
    assert isinstance(outcome[0], type)  # an error, with its line number in the message


def _coloring_outcome(parse, text):
    """The parsed coloring, key order included, or the exception's class,
    message and line number."""
    try:
        return tuple(parse(text).items())
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "line_no", None)


_VALID_V = ["v 1 2", "c", "", "v 2 -1", "  ", "v 3 10", "c x", "v 4 0"]


@given(st.lists(st.sampled_from(_TERMINATORS), min_size=len(_VALID_V) + 1,
                max_size=len(_VALID_V) + 1),
       st.sampled_from(["\n", "\r\n"]), st.integers(0, len(_VALID_V)),
       st.sampled_from(["", "v 1 3", "v 1", "v 1 x", "v x 1", "v 1 2 3", "w 1 2", "e 1 2"]),
       st.integers(1, 8))
def test_sliced_coloring_parse_matches_the_whole_text_reader(ends, first_end, at, bad, size):
    # the first slice ends with the first line, so the malformed line (or none,
    # for "") lies past it; ends are any terminators, as in the reference
    lines = ["v 100 200", *_VALID_V]
    lines.insert(at + 1, bad)
    text = "".join(map(str.__add__, lines, [first_end, *ends]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instance_io, "_SLICE", size)
        outcome = _coloring_outcome(parse_coloring, text)
    assert outcome == _coloring_outcome(parse_coloring_whole, text)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the caller's stack keeps call arguments alive")
def test_parse_frees_the_text_before_the_build(monkeypatch):
    refs = []

    class Text(str):  # a str that a weakref can follow
        def __new__(cls, value):
            text = super().__new__(cls, value)
            refs.append(weakref.ref(text))
            return text

    build_graph = instance_io.build_graph
    alive = []

    def probe(*args):
        alive.append(refs[0]() is not None)
        return build_graph(*args)

    monkeypatch.setattr(instance_io, "build_graph", probe)
    # more than one slice, so the reader lets go of the text only at its end
    g, _ = parse_instance(Text("p edge 3 1\n" + "c\n" * instance_io._SLICE + "e 1 2\n"))
    assert g.m == 1 and alive == [False]


def test_parse_holds_no_list_of_every_line(monkeypatch):
    # At the benchmark's chordal-wide size, 11 506 lines: a list of them all
    # took 0.65 MiB. Traced peaks on Python 3.10 and 3.11: 0.41-0.43 MiB
    # before the graph is built and 0.83-0.85 MiB in all, against 1.06-1.08
    # MiB for both when every line was held.
    text = emit_instance(*generate(GeneratorConfig(n=5000, delta=6, model="chordal-simplicial",
                                                   seed=1)))
    build_graph = instance_io.build_graph
    before_build = []

    def probe(*args):
        before_build.append(tracemalloc.get_traced_memory()[1])
        return build_graph(*args)

    monkeypatch.setattr(instance_io, "build_graph", probe)
    tracemalloc.start()
    try:
        parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert before_build[0] < 0.6 * 2**20 and peak < 2**20, (before_build, peak)

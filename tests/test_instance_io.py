import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from reference import path_graph


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
    assert lists == {1: frozenset()}


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["tree-plus-edges", "chordal-simplicial", "gnp-capped"]))
def test_round_trip_on_generated_instances(seed, model):
    g, lists = generate(GeneratorConfig(n=1 + seed % 25, delta=4, model=model,
                                        seed=seed, palette=6, list_size=3))
    text = emit_instance(g, lists)
    g2, lists2 = parse_instance(text)
    assert g2 == g and lists2 == lists
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
    assert parse_coloring("c note\n") == {}


def test_parse_instance_negative_colors_allowed():
    _, lists = parse_instance("p edge 1 0\nl 1 -4 0 9\n")
    assert lists[1] == frozenset({-4, 0, 9})

import pytest

from strongcolor import (
    GraphFormatError,
    MultiGraph,
    PartialColoring,
    emit_coloring,
    emit_graph,
    parse_coloring,
    parse_graph,
)
from helpers import random_multigraph


def test_parse_simple_triangle():
    text = """# a triangle
p sec 3 3
e 1 2
e 2 3
e 3 1
"""
    g = parse_graph(text)
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(2) == (2, 0)


def test_parse_loop_and_parallel():
    g = parse_graph("p sec 2 3\ne 1 1\ne 1 2\ne 2 1\n")
    assert g.is_loop(0)
    assert g.find_parallel_pair() == (1, 2)


def test_parse_keeps_trailing_isolated_vertices():
    g = parse_graph("p sec 9 1\ne 1 2\n")
    assert g.vertex_count == 9
    assert g.degree(8) == 0


def test_emit_parse_round_trip():
    for seed in range(40):
        g = random_multigraph(seed)
        text = emit_graph(g)
        h = parse_graph(text)
        assert h.vertex_count == g.vertex_count
        assert h.edges == g.edges
        assert emit_graph(h) == text


def test_emit_is_canonical():
    messy = "# noise\n\np sec 3 2\n  e 1 2\ne   2 3\n# tail\n"
    clean = emit_graph(parse_graph(messy))
    assert clean == "p sec 3 2\ne 1 2\ne 2 3\n"
    assert emit_graph(parse_graph(clean)) == clean


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "p sec 3\ne 1 2\n",
        "q sec 3 1\ne 1 2\n",
        "p sec x 1\ne 1 2\n",
        "p sec 3 -1\n",
        "p sec 3 1\ne 1\n",
        "p sec 3 1\nv 1 2\n",
        "p sec 3 1\ne 1 two\n",
        "p sec 3 1\ne 0 2\n",
        "p sec 3 1\ne 1 4\n",
        "p sec 3 2\ne 1 2\n",
        "p sec 3 1\ne 1 2\ne 2 3\n",
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_format_error_is_value_error():
    with pytest.raises(ValueError):
        parse_graph("nope")


def test_coloring_round_trip():
    g = parse_graph("p sec 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    col.assign(2, 2)
    text = emit_coloring(col)
    assert text == "0 1\n2 2\n"
    back = parse_coloring(text, g)
    assert back.as_dict() == {0: 1, 2: 2}
    assert not back.is_total()


def test_coloring_emit_sorted_and_empty():
    g = parse_graph("p sec 3 2\ne 1 2\ne 2 3\n")
    col = PartialColoring(g, 5)
    assert emit_coloring(col) == ""
    col.assign(1, 3)
    col.assign(0, 1)
    assert emit_coloring(col) == "0 1\n1 3\n"


def test_parse_coloring_grows_palette():
    g = parse_graph("p sec 2 1\ne 1 2\n")
    col = parse_coloring("0 30\n", g)
    assert col.color_of(0) == 30
    assert col.palette_size >= 30


@pytest.mark.parametrize(
    "text",
    [
        "0\n",
        "0 1 2\n",
        "x 1\n",
        "0 y\n",
        "5 1\n",
        "0 0\n",
        "-1 1\n",
        "0 1\n0 2\n",
    ],
)
def test_parse_coloring_rejects_malformed(text):
    g = parse_graph("p sec 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    with pytest.raises(GraphFormatError):
        parse_coloring(text, g)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0\n", "line 3: expected '<edge_id> <color>', got '0'"),
        ("1 2 3\n", "line 3: expected '<edge_id> <color>', got '1 2 3'"),
        ("x 1\n", "line 3: non-integer field"),
        ("1 y\n", "line 3: non-integer field"),
        ("3 1\n", "line 3: edge id 3 out of range 0..2"),
        ("-1 1\n", "line 3: edge id -1 out of range 0..2"),
        ("1 0\n", "line 3: color must be >= 1"),
        ("2 5\n", "line 3: duplicate edge id 2"),
    ],
)
def test_parse_coloring_error_messages(bad, message):
    g = parse_graph("p sec 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    with pytest.raises(GraphFormatError) as info:
        parse_coloring("# header\n2 1\n" + bad + "0 4\n", g)
    assert str(info.value) == message


def test_parse_coloring_does_not_validate_conflicts():
    # io layer stores what the file says; verification is a separate step
    g = parse_graph("p sec 3 2\ne 1 2\ne 2 3\n")
    col = parse_coloring("0 1\n1 1\n", g)
    assert col.as_dict() == {0: 1, 1: 1}


def test_graph_and_coloring_comments_skipped():
    g = parse_graph("p sec 2 1\n# hi\ne 1 2\n")
    col = parse_coloring("# note\n0 4\n\n", g)
    assert col.as_dict() == {0: 4}


def test_emit_graph_empty():
    g = MultiGraph(0).freeze()
    assert emit_graph(g) == "p sec 0 0\n"
    assert parse_graph(emit_graph(g)).vertex_count == 0

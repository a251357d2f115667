import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongcolor import (
    GraphFormatError,
    MultiGraph,
    PartialColoring,
    emit_coloring,
    emit_graph,
    parse_coloring,
    parse_graph,
    random_max4,
    solve,
)
from strongcolor import graphio
from helpers import random_multigraph, ref_content_lines


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph file: missing 'p sec <n> <m>' header"),
        ("# c\n\n  \n", "empty graph file: missing 'p sec <n> <m>' header"),
        ("# c\n\np sec 3\n", "line 3: expected 'p sec <n> <m>', got 'p sec 3'"),
        ("# c\r\n\x0c q sec 3 1\n", "line 3: expected 'p sec <n> <m>', got 'q sec 3 1'"),
        ("# c\np sec x 1\n", "line 2: non-integer vertex or edge count"),
        ("p sec 3 -1\n", "line 1: negative vertex or edge count"),
        ("p sec 3 2\n# c\ne 1 2\ne 1\n", "line 4: expected 'e <u> <v>', got 'e 1'"),
        ("p sec 3 1\n\n  v 1 2  \n", "line 3: expected 'e <u> <v>', got 'v 1 2'"),
        ("p sec 3 1\r\n\x0b\ne 1 two\n", "line 4: non-integer endpoint"),
        ("p sec 3 1\x1c\x1de 0 2\n", "line 3: endpoint out of range 1..3"),
        ("p sec 3 1\x85e 1 4\n", "line 2: endpoint out of range 1..3"),
        ("p sec 3 2\ne 1 2\n# e 2 3\n", "header declares 2 edges, file has 1"),
        ("p sec 3 1\ne 1 2\x1ee 2 3\n", "header declares 1 edges, file has 2"),
    ],
)
def test_parse_graph_error_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


# line breaks that str.splitlines splits on, "\n" and "\r\n" most often
BREAKS = ["\n", "\r\n", "\n", "\x0c", "\n", "\x0b", "\r\n", "\x1c", "\n", "\x1d", "\x1e", "\x85", "\r"]


def messy(lines, replace=None) -> str:
    """The lines with comments, blank lines and mixed line breaks put in,
    and line i replaced by replace[i]."""
    out = []
    for i, line in enumerate(lines):
        if i % 7 == 3:
            out.append("# comment")
        if i % 11 == 5:
            out.append("   ")
        out.append((replace or {}).get(i, line))
    return "".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(out))


def line_of(text: str, content: str) -> int:
    """The line number the whole-text reader gives the one line `content`."""
    (ln,) = [ln for ln, line in ref_content_lines(text) if line == content]
    return ln


@pytest.fixture(scope="module")
def large():
    g = random_max4(12000, seed=3)
    col, _ = solve(g)
    return g, emit_graph(g).splitlines(), emit_coloring(col).splitlines()


def test_content_lines_of_many_slices_equal_whole_text_reader(large):
    g, graph_lines, coloring_lines = large
    for lines in (graph_lines, coloring_lines):
        text = messy(lines)
        assert len(text) > 3 * graphio.SLICE
        assert list(graphio._content_lines(text)) == list(ref_content_lines(text))
    text = messy(graph_lines)
    h = parse_graph(text)
    assert (h.vertex_count, h.eu, h.ev) == (g.vertex_count, g.eu, g.ev)
    assert emit_coloring(parse_coloring(messy(coloring_lines), g)) == "\n".join(coloring_lines) + "\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("e 1", "expected 'e <u> <v>', got 'e 1'"),
        ("e 1 x", "non-integer endpoint"),
        ("e 0 1", "endpoint out of range 1..12000"),
        ("f 1 2", "expected 'e <u> <v>', got 'f 1 2'"),
    ],
)
def test_parse_graph_error_past_the_first_slices(large, bad, message):
    _, lines, _ = large
    for at in (len(lines) // 2, len(lines) - 1):
        text = messy(lines, {at: bad})
        assert len(messy(lines[:at])) > graphio.SLICE
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line_of(text, bad)}: {message}"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("7", "expected '<edge_id> <color>', got '7'"),
        ("7 x", "non-integer field"),
        ("99999 1", "edge id 99999 out of range 0..{}"),
        ("7 0", "color must be >= 1"),
        ("0 5", "duplicate edge id 0"),
    ],
)
def test_parse_coloring_error_past_the_first_slices(large, bad, message):
    g, _, lines = large
    for at in (len(lines) // 2, len(lines) - 1):
        text = messy(lines, {at: bad})
        assert len(messy(lines[:at])) > graphio.SLICE
        with pytest.raises(GraphFormatError) as info:
            parse_coloring(text, g)
        assert str(info.value) == f"line {line_of(text, bad)}: " + message.format(g.edge_count - 1)


@given(
    st.text(alphabet="e1 #\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028", max_size=80),
    st.integers(1, 12),
)
@settings(max_examples=400, deadline=None)
def test_content_lines_equal_whole_text_reader_at_any_slice_size(text, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "SLICE", size)
        assert list(graphio._content_lines(text)) == list(ref_content_lines(text))


def ref_emit_coloring(col: PartialColoring) -> str:
    """emit_coloring by a dict of the colored edges, sorted."""
    out = [f"{e} {c}" for e, c in sorted(col.as_dict().items())]
    return "\n".join(out) + ("\n" if out else "")


@given(
    st.lists(st.one_of(st.just(0), st.integers(1, 10**9)), max_size=300),
    st.sampled_from([16, 64, graphio.SLICE]),
)
@settings(max_examples=200, deadline=None)
def test_emit_coloring_equals_dict_sort_version(colors, size):
    col = PartialColoring(MultiGraph.from_edges(2, [(0, 1)] * len(colors)), 22)
    col._colors[:] = colors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "SLICE", size)
        assert emit_coloring(col) == ref_emit_coloring(col)


def test_text_io_peak_memory_is_a_small_multiple_of_the_text():
    """Neither writer builds a per-line object for the whole graph, and
    the reader splits one slice at a time: the traced peak of each stays
    within three times the text's size."""
    g = random_max4(20000, seed=0)
    col, _ = solve(g)
    graph_text = emit_graph(g)
    for call, args, size in (
        (emit_graph, (g,), len(graph_text)),
        (emit_coloring, (col,), len(emit_coloring(col))),
        (parse_graph, (graph_text,), len(graph_text)),
    ):
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * size, (call.__name__, peak, size)


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
    g = MultiGraph(0)
    assert emit_graph(g) == "p sec 0 0\n"
    assert parse_graph(emit_graph(g)).vertex_count == 0

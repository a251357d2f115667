import tracemalloc
from array import array

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
from helpers import (
    as_dict,
    color_of,
    parallel_pair,
    random_multigraph,
    ref_content_lines,
    ref_emit_coloring,
    ref_emit_graph,
    ref_parse_coloring,
    ref_parse_graph,
)


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
    assert parallel_pair(g) == (1, 2)


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
        ("# c\np sec 3000000000 1\ne 2500000000 1\n", "line 2: vertex count 3000000000 above 2**31"),
        ("p sec 2147483649 0\n", "line 1: vertex count 2147483649 above 2**31"),
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


def test_parse_graph_takes_vertex_ids_up_to_2_to_the_31():
    for parse in (parse_graph, ref_parse_graph):
        g = parse("p sec 2147483648 1\ne 2147483648 1\n")
        assert g.vertex_count == 2**31 and g.edges == [(2**31 - 1, 0)]


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
        assert list(graphio._content_lines(text, lambda chunk: False)) == list(ref_content_lines(text))
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
        assert list(graphio._content_lines(text, lambda chunk: False)) == list(ref_content_lines(text))


# Edits to one line of a canonical text. Each takes the line's fields,
# the graph's vertex count n and edge count m, and a Random; it returns
# the replacement lines, each with its line end.
LINE_EDITS = {
    "comment": lambda f, n, m, r: ["# " + " ".join(f) + "\n", " ".join(f) + "\n"],
    "blank": lambda f, n, m, r: [r.choice(["", "  ", "\t"]) + "\n", " ".join(f) + "\n"],
    "crlf": lambda f, n, m, r: [" ".join(f) + "\r\n"],
    "tab": lambda f, n, m, r: ["\t".join(f) + "\n"],
    "leading zero": lambda f, n, m, r: [" ".join(f[:-1] + ["0" + f[-1]]) + "\n"],
    "plus sign": lambda f, n, m, r: [" ".join(f[:-1] + ["+" + f[-1]]) + "\n"],
    "missing field": lambda f, n, m, r: [" ".join(f[:-1]) + "\n"],
    "extra field": lambda f, n, m, r: [" ".join(f + ["7"]) + "\n"],
    "zero": lambda f, n, m, r: [" ".join(f[:-1] + ["0"]) + "\n"],
    "out of range": lambda f, n, m, r: [" ".join(f[:-2] + [str(r.choice([n + 1, m])), f[-1]]) + "\n"],
    "at least 2**31": lambda f, n, m, r: [" ".join(f[:-1] + [str(2**31 + r.randrange(3))]) + "\n"],
    "dropped": lambda f, n, m, r: [],
    "repeated": lambda f, n, m, r: [" ".join(f) + "\n"] * 2,
}


def edited(lines: list[str], edits, n: int, m: int, rng) -> str:
    """The canonical `lines` (no line ends) with each (kind, position)
    edit applied; kind "swap" exchanges two lines, "no final newline"
    drops the last line end."""
    lines = list(lines)
    for kind, at in edits:
        i = at % len(lines)
        if kind == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    out = [[line + "\n"] for line in lines]
    for kind, at in edits:
        i = at % len(lines)
        if kind in LINE_EDITS and out[i] == [lines[i] + "\n"]:
            out[i] = LINE_EDITS[kind](lines[i].split(), n, m, rng)
    text = "".join(line for group in out for line in group)
    if any(kind == "no final newline" for kind, _ in edits):
        text = text.rstrip("\n")
    return text


def outcome(parse, *args):
    """What a parser returns, as comparable values, or its error message."""
    try:
        res = parse(*args)
    except GraphFormatError as exc:
        return "error", str(exc)
    if isinstance(res, MultiGraph):
        return "graph", res.vertex_count, res.eu, res.ev
    return "coloring", res._colors, res.palette_size


EDIT_KINDS = sorted(LINE_EDITS) + ["swap", "no final newline"]


@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.sampled_from(EDIT_KINDS), st.integers(0, 10**4)), max_size=4),
    st.integers(8, 96),
    st.randoms(use_true_random=False),
)
@settings(max_examples=500, deadline=None)
def test_bulk_decoding_equals_line_reader(seed, edits, size, rng):
    """Canonical graph and coloring texts of random multigraphs, with
    edits at random lines and a slice size of one to a dozen lines, so
    that edits land in every slice position: each parser returns what
    the line-by-line reference returns, or raises the same message."""
    g = random_multigraph(seed, max_n=24, max_m=44)
    n, m = g.vertex_count, g.edge_count
    col = PartialColoring(g, 22)
    rare = [0, 1, 5, 22, 62, 63, 10**9]  # 0 leaves a gap in the edge ids
    col._colors[:] = [rng.choice(rare) if rng.random() < 0.1 else rng.randint(1, 22) for _ in range(m)]
    graph_text = emit_graph(g)
    coloring_text = emit_coloring(col)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "SLICE", size)
        text = edited(graph_text.splitlines(), edits, n, m, rng)
        assert outcome(parse_graph, text) == outcome(ref_parse_graph, text)
        if coloring_text:
            text = edited(coloring_text.splitlines(), edits, n, m, rng)
            assert outcome(parse_coloring, text, g) == outcome(ref_parse_coloring, text, g)


def test_canonical_slices_are_decoded_in_bulk(monkeypatch):
    """On the texts the writers emit, every slice is decoded in bulk,
    bar the graph's first, which holds the header."""
    g = random_max4(3000, seed=2)
    col, _ = solve(g)
    accepted = []
    real = graphio._content_lines

    def spy(text, bulk):
        def recorded(chunk):
            accepted.append(bulk(chunk))
            return accepted[-1]

        return real(text, recorded)

    monkeypatch.setattr(graphio, "_content_lines", spy)
    monkeypatch.setattr(graphio, "SLICE", 1024)
    h = parse_graph(emit_graph(g))
    assert (h.eu, h.ev) == (g.eu, g.ev)
    assert len(accepted) > 10 and not accepted[0] and all(accepted[1:])
    accepted.clear()
    assert parse_coloring(emit_coloring(col), g)._colors == col._colors
    assert len(accepted) > 10 and all(accepted)


def test_line_reader_reads_only_the_graph_header(large, monkeypatch):
    """At the real SLICE, on written texts of over 2e4 edges, the line
    reader yields the graph's header line and nothing else: a bulk
    decoder that fell back would pass every other test."""
    g, _, coloring_lines = large
    col = parse_coloring("\n".join(coloring_lines) + "\n", g)
    graph_text, coloring_text = emit_graph(g), emit_coloring(col)
    assert g.edge_count >= 2e4 and len(coloring_text) > 10 * graphio.SLICE
    yielded = []
    real = graphio._content_lines

    def spy(text, bulk):
        for item in real(text, bulk):
            yielded.append(item)
            yield item

    monkeypatch.setattr(graphio, "_content_lines", spy)
    h = parse_graph(graph_text)
    assert (h.eu, h.ev) == (g.eu, g.ev)
    assert yielded == [(1, f"p sec {g.vertex_count} {g.edge_count}")]
    yielded.clear()
    assert parse_coloring(coloring_text, g)._colors == col._colors
    assert yielded == []


@pytest.mark.parametrize("size", [8, graphio.SLICE])
@pytest.mark.parametrize(
    "text",
    [
        "p sec 3 2\ne 01 2\ne 2 3\n",
        "p sec 3 2\ne 1 2\ne 2 03\n",
        "p sec 3 1\ne 00 2\n",
        "p sec 3 1\ne 0 2\n",
        "p sec 3 2\ne 1 2\ne 2 4\n",
        "p sec 3 1\ne 2147483648 1\n",
        "p sec 2147483648 2\ne 2147483648 1\ne 1 2147483648\n",
        "p sec 2 1\ne 1 2\n",
    ],
)
def test_parse_graph_slices_the_json_scan_rejects(text, size, monkeypatch):
    """Canonical-looking slices that json rejects (leading zeros) or the
    range check turns away (0, 2**31 above n) go to the line reader,
    which returns what the reference returns, message included."""
    monkeypatch.setattr(graphio, "SLICE", size)
    assert outcome(parse_graph, text) == outcome(ref_parse_graph, text)


@pytest.mark.parametrize("size", [8, graphio.SLICE])
@pytest.mark.parametrize(
    "text",
    [
        "0 1\n01 2\n2 3\n",
        "0 1\n1 02\n2 3\n",
        "00 1\n1 2\n",
        "0 1\n00 2\n",
        "0 1\n0 2\n",
        "0 0\n1 2\n",
        "0 2147483648\n1 1\n2 1\n",
        "2147483648 1\n",
        "2 5\n",
    ],
)
def test_parse_coloring_slices_the_json_scan_rejects(text, size, monkeypatch):
    """As above for colorings: leading zeros in either field, edge id 0
    and 00, a color of 2**31 and an edge id of 2**31, a one-line text."""
    g = parse_graph("p sec 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    monkeypatch.setattr(graphio, "SLICE", size)
    assert outcome(parse_coloring, text, g) == outcome(ref_parse_coloring, text, g)


def dict_sort_emit_coloring(col: PartialColoring) -> str:
    """emit_coloring by a dict of the colored edges, sorted."""
    out = [f"{e} {c}" for e, c in sorted(as_dict(col).items())]
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
        assert emit_coloring(col) == dict_sort_emit_coloring(col)


COLORS = st.one_of(st.integers(1, 22), st.sampled_from([0, 0, 62, 63, 10**9]))


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.lists(COLORS, max_size=120),
    st.integers(0, 30),
    st.sampled_from([8, 16, 40, 96]),
)
@settings(max_examples=300, deadline=None)
def test_encoders_equal_f_string_references(seed, top_vertex, colors, zero_slice, size):
    """Random multigraphs with loops and parallel edges, some with an edge
    at vertex id 2**31 - 1, and partial colorings with zeros inside a
    slice, one slice of zeros only, and colors above 62: the `%` encoders
    write what the one-f-string-per-line references write, byte for byte."""
    g = random_multigraph(seed, max_n=24, max_m=60)
    if top_vertex:
        g = MultiGraph(2**31, g.eu + array("i", [2**31 - 1, 0]), g.ev + array("i", [2**31 - 1, 2**31 - 1]))
    col = PartialColoring(MultiGraph.from_edges(2, [(0, 1)] * len(colors)), 22)
    col._colors[:] = colors
    zeros = slice(zero_slice * (size >> 1), (zero_slice + 1) * (size >> 1))  # one written slice
    col._colors[zeros] = [0] * len(col._colors[zeros])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "SLICE", size)
        assert emit_graph(g) == ref_emit_graph(g)
        assert emit_coloring(col) == ref_emit_coloring(col)


def test_text_io_peak_memory_is_a_small_multiple_of_the_text():
    """Neither writer builds a per-line object for the whole graph, and
    the readers split and decode one slice at a time: the traced peak of
    each stays within three times the text's size."""
    g = random_max4(20000, seed=0)
    col, _ = solve(g)
    graph_text = emit_graph(g)
    coloring_text = emit_coloring(col)
    for call, args, size in (
        (emit_graph, (g,), len(graph_text)),
        (emit_coloring, (col,), len(coloring_text)),
        (parse_graph, (graph_text,), len(graph_text)),
        (parse_coloring, (coloring_text, g), len(coloring_text)),
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
    assert as_dict(back) == {0: 1, 2: 2}
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
    assert color_of(col, 0) == 30
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
    assert as_dict(col) == {0: 1, 1: 1}


def test_graph_and_coloring_comments_skipped():
    g = parse_graph("p sec 2 1\n# hi\ne 1 2\n")
    col = parse_coloring("# note\n0 4\n\n", g)
    assert as_dict(col) == {0: 4}


def test_emit_graph_empty():
    g = MultiGraph(0)
    assert emit_graph(g) == "p sec 0 0\n"
    assert parse_graph(emit_graph(g)).vertex_count == 0

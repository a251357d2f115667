"""Text formats for graphs and colorings.

Graph files: '#' starts a comment line, the header is `p sec <n> <m>`,
then exactly m lines `e <u> <v>` with 1-based vertex ids. A repeated
endpoint pair is a parallel edge and `e u u` is a loop; edge ids are
assigned 0-based in order of appearance.

Coloring files: one `<edge_id> <color>` pair per line, 0-based edge ids,
colors >= 1, sorted by edge id.
"""

from __future__ import annotations

from array import array

from .coloring import PartialColoring
from .multigraph import MultiGraph


# Text is split SLICE characters and built SLICE >> 4 lines at a time,
# so no per-line object is held for the whole file.
SLICE = 1 << 16


class GraphFormatError(ValueError):
    """Malformed graph or coloring text; message carries the line number."""


def _content_lines(text: str):
    """(line number, stripped line) of every line that is neither blank
    nor a comment. Each slice of about SLICE characters ends just after
    a line feed, so splitting the slices gives the lines of the whole text."""
    ln = 0
    start = 0
    while start < len(text):
        stop = text.find("\n", start + SLICE) + 1 or len(text)
        lines = text[start:stop].splitlines()
        for i, raw in enumerate(lines, ln + 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield i, line
        ln += len(lines)
        start = stop


def parse_graph(text: str) -> MultiGraph:
    lines = _content_lines(text)
    try:
        ln, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty graph file: missing 'p sec <n> <m>' header")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "sec":
        raise GraphFormatError(f"line {ln}: expected 'p sec <n> <m>', got {header!r}")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise GraphFormatError(f"line {ln}: non-integer vertex or edge count")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {ln}: negative vertex or edge count")

    eu = array("i")
    ev = array("i")
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise GraphFormatError(f"line {ln}: expected 'e <u> <v>', got {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer endpoint")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"line {ln}: endpoint out of range 1..{n}")
        eu.append(u - 1)
        ev.append(v - 1)
    if len(eu) != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(eu)}")
    return MultiGraph(n, eu, ev)


def emit_graph(g: MultiGraph) -> str:
    """Canonical text: header plus edge lines in id order, no comments."""
    eu, ev, step = g.eu, g.ev, SLICE >> 4
    out = [f"p sec {g.vertex_count} {g.edge_count}\n"]
    for lo in range(0, g.edge_count, step):
        hi = lo + step
        out.append("".join([f"e {u + 1} {v + 1}\n" for u, v in zip(eu[lo:hi], ev[lo:hi])]))
    return "".join(out)


def parse_coloring(text: str, g: MultiGraph, palette_size: int = 22) -> PartialColoring:
    """Read an assignment and bind it to g, enforcing validity per line."""
    m = g.edge_count
    col = PartialColoring(g, max(palette_size, 1))
    colors = col._colors
    max_color = 0
    for ln, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln}: expected '<edge_id> <color>', got {line!r}")
        try:
            e, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer field")
        if not (0 <= e < m):
            raise GraphFormatError(f"line {ln}: edge id {e} out of range 0..{m - 1}")
        if c < 1:
            raise GraphFormatError(f"line {ln}: color must be >= 1")
        if colors[e]:
            raise GraphFormatError(f"line {ln}: duplicate edge id {e}")
        colors[e] = c
        if c > max_color:
            max_color = c
    col.palette_size = max(col.palette_size, max_color)
    return col


def emit_coloring(col: PartialColoring) -> str:
    """One `<edge_id> <color>` line per colored edge, in id order."""
    colors, step = col._colors, SLICE >> 4
    out = []
    for lo in range(0, len(colors), step):
        out.append("".join([f"{e} {c}\n" for e, c in enumerate(colors[lo : lo + step], lo) if c]))
    return "".join(out)

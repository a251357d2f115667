"""Text formats for graphs and colorings.

Graph files: '#' starts a comment line, the header is `p sec <n> <m>`,
then exactly m lines `e <u> <v>` with 1-based vertex ids. A repeated
endpoint pair is a parallel edge and `e u u` is a loop; edge ids are
assigned 0-based in order of appearance.

Coloring files: one `<edge_id> <color>` pair per line, 0-based edge ids,
colors >= 1, sorted by edge id.

Both parsers read the text one slice of about SLICE characters at a
time; the first slice is the first line alone, so a graph's header is
read before any edge slice. A slice made only of canonical lines (single
spaces, ASCII digits, `\\n` line ends: what emit_graph and
emit_coloring write) is decoded in bulk, by one json scan of the whole
slice with its separators turned into commas, and its values are
checked together; any other slice, a canonical one that json rejects
(a leading zero), and one whose values fail a check, is read line by
line. The line reader is the only source of error messages, so messages
and line numbers do not depend on the split, and an unusual slice costs
only its own time. A coloring slice decodes in bulk when its edge ids
run consecutively, as in every total coloring emit_coloring writes.
The writers encode each slice with one `%` format of all its fields;
a coloring slice drops its uncolored edges first.
"""

from __future__ import annotations

import json
import re
from array import array
from itertools import compress, repeat
from operator import add, sub

from .coloring import PartialColoring
from .multigraph import MultiGraph


# Text is read SLICE characters and written SLICE >> 1 lines at a time,
# so no per-line object is held for the whole file. A slice decoded in
# bulk holds one int per field at once, which is why slices are small.
SLICE = 1 << 13

_EDGE_LINES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
_PAIR_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")


class GraphFormatError(ValueError):
    """Malformed graph or coloring text; message carries the line number."""


def _ints(csv: str) -> list[int] | None:
    """The comma-separated decimal fields as ints, by one json scan, or
    None when json rejects a field (a leading zero)."""
    try:
        return json.loads("[" + csv + "]")
    except ValueError:
        return None


def _content_lines(text: str, bulk):
    """(line number, stripped line) of every line that is neither blank
    nor a comment. The first slice is the first line; each later one
    holds about SLICE characters. Every slice ends just after a line
    feed, so splitting the slices gives the lines of the whole text.
    A slice for which bulk(slice) returns True has been stored by bulk
    and yields no lines; bulk only accepts slices of `\\n`-ended lines."""
    ln = 0
    start = 0
    while start < len(text):
        stop = text.find("\n", start + SLICE if start else 0) + 1 or len(text)
        chunk = text[start:stop]
        if bulk(chunk):
            ln += chunk.count("\n")
        else:
            lines = chunk.splitlines()
            for i, raw in enumerate(lines, ln + 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield i, line
            ln += len(lines)
        start = stop


def parse_graph(text: str) -> MultiGraph:
    eu = array("i")
    ev = array("i")
    n = -1  # until the header is read, so no edge is in range

    def bulk(chunk: str) -> bool:
        if not _EDGE_LINES.fullmatch(chunk):
            return False
        ends = _ints(chunk[2:-1].replace("\ne ", ",").replace(" ", ","))  # u, v, u, v, ...
        if ends is None or min(ends) < 1 or max(ends) > n:
            return False
        ends = list(map(sub, ends, repeat(1)))
        eu.fromlist(ends[::2])
        ev.fromlist(ends[1::2])
        return True

    lines = _content_lines(text, bulk)
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
    if n > 1 << 31:  # vertex ids 0..n-1 are stored as 32-bit ints
        raise GraphFormatError(f"line {ln}: vertex count {n} above 2**31")

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
    eu, ev, step = g.eu, g.ev, SLICE >> 1
    out = [f"p sec {g.vertex_count} {g.edge_count}\n"]
    for lo in range(0, g.edge_count, step):
        k = min(step, g.edge_count - lo)
        ends = [0] * (2 * k)  # u, v, u, v, ...
        ends[::2] = eu[lo : lo + k]
        ends[1::2] = ev[lo : lo + k]
        out.append("e %d %d\n" * k % tuple(map(add, ends, repeat(1))))
    return "".join(out)


def parse_coloring(text: str, g: MultiGraph) -> PartialColoring:
    """Read an assignment and bind it to g, enforcing validity per line.
    The palette is the solver's 22 colors, or up to the largest color read."""
    m = g.edge_count
    col = PartialColoring(g, 22)
    colors = col._colors
    max_color = 0

    def bulk(chunk: str) -> bool:
        # in bulk: consecutive edge ids lo..hi-1, none colored yet
        nonlocal max_color
        if not _PAIR_LINES.fullmatch(chunk):
            return False
        fields = _ints(chunk[:-1].replace("\n", ",").replace(" ", ","))
        if fields is None:
            return False
        ids = fields[::2]
        lo = ids[0]
        hi = lo + len(ids)
        if hi > m or ids != list(range(lo, hi)) or any(colors[lo:hi]):
            return False
        cs = fields[1::2]
        if min(cs) < 1:
            return False
        colors[lo:hi] = cs
        max_color = max(max_color, max(cs))
        return True

    for ln, line in _content_lines(text, bulk):
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
    colors, step = col._colors, SLICE >> 1
    out = []
    for lo in range(0, len(colors), step):
        part = colors[lo : lo + step]
        ids = list(compress(range(lo, lo + len(part)), part))  # the colored edges
        fields = [0] * (2 * len(ids))  # edge id, color, edge id, ...
        fields[::2] = ids
        fields[1::2] = filter(None, part)
        out.append("%d %d\n" * len(ids) % tuple(fields))
    return "".join(out)

"""Serialization of labelings as JSON, TSV, and pinned-layout DOT.

One block writer renders every form from blocks of int rows, edges and vertex sums,
through a numpy digit kernel; only the ring positions of DOT (cosines and sines) use
``%``.  It yields the text block by block, so the command line writes a lattice or
prism straight from the closed forms.  The JSON and TSV forms round-trip.  A
headerless file (all TSV, JSON without a family) gets an ad-hoc graph built from
the edges in the file, so external labelings (including single-edge negative
controls) can be verified.  A headered JSON file gets the family's graph: its
header must describe exactly the edges in the file.

Parsers read the text in pieces of ``_READ_CHARS`` characters and carry the
unfinished line into the next.  The whole lines of a piece are read as signed
decimals in one numpy call, and kept only if the writer renders them back as
exactly those lines: that proves the file is valid, every value fits int64, and
``json.loads`` or the line walk would give the same rows, while no copy of the
text is held.

One reader, ``_read``, sniffs the first piece once.  A text whose first piece
starts with whitespace or does not decode is not the writer's and is parsed
whole: ``json.loads`` and a walk over its edge entries, or a TSV walk line by
line, which name the first bad field.  Otherwise :func:`read_tally` tries a
tally first, whose pieces become label counts and vertex sums and are dropped:
a headered JSON file in one read, checked against its family's closed forms,
and a TSV file with its rows in any order in two, for its extent and then its
sums.  Any other text takes the block-wise read, and the whole-text parse only if
that gives up.
Both parses give the same results and messages and end in the edge-list check
that ``graph_from_edges`` also runs.
"""

from __future__ import annotations

import functools
import json
import math
import warnings

import numpy as np

from .errors import FormatError, InvalidParameterError
from .families import (
    CYCLE,
    FAMILIES,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    _adhoc_graph,
    _canonical,
    _canonical_rows,
    _parsed_graph,
    check_materializable,
)

# ``labelings`` and ``verification`` are imported in the functions that use them, so that writing a
# lattice or prism from its closed forms loads neither

_ROWS_PER_BLOCK = 1 << 11
_READ_CHARS = 1 << 16  # input text read, decoded and compared with the writer's at once
_LINE_CHARS = 1 << 10  # more than any line the writers make; an unfinished line this long is not theirs
_TSV_FIELDS = ("r1", "c1", "r2", "c2", "label")
_TSV_LINE = "%d\t%d\t%d\t%d\t%d\n"
# the JSON layout: head line, edge lines, sum lines, and the markers around them
_JSON_EDGE = ',\n    {"u": [%d, %d], "v": [%d, %d], "label": %d}'  # each line after the first starts with ","
_JSON_SUM = ',\n    "%d,%d": %d'
_JSON_EDGES, _JSON_SUMS, _JSON_END = '  "edges": [\n', '\n  ],\n  "sums": {\n', '\n  }\n}\n'
_BLANK_ALL_BUT_DECIMALS = str.maketrans(dict.fromkeys(set(map(chr, range(128))) - set("-0123456789"), " "))
_DOT_HEAD = "graph antimagic {\n  layout=neato;\n  node [shape=circle fontsize=10];\n  edge [fontsize=9];\n"
_DOT_EDGE = '  "%d,%d" -- "%d,%d" [label="%d"];\n'
_DOT_NODE = '  "%d,%d" [label="%d" pos="%d.000,%d.000!"];\n'  # grid and path positions are ints
_DOT_RING_NODE = '  "%d,%d" [label="%d" pos="%.3f,%.3f!"];\n'  # cosines and sines, so formatted by %


def _blocks(rows):
    return (rows[at : at + _ROWS_PER_BLOCK] for at in range(0, len(rows), _ROWS_PER_BLOCK))


def _format_rows(fmt, rows):
    """``fmt``, whose fields are all ``%d``, applied to every row of a 2-D int array."""
    return "".join(_row_blocks(fmt, [rows]))


@functools.lru_cache(maxsize=None)
def _literals(fmt):
    """The byte arrays between the ``%d`` fields of ``fmt``, and their total length."""
    literals = tuple(np.frombuffer(part.encode(), np.uint8) for part in fmt.split("%d"))
    return literals, sum(map(len, literals))


# 10**(count - 1) .. 10 for a field of count < 20 digits, in the dtype that holds its values
_POWERS = [
    np.array([10**p for p in range(count - 1, 0, -1)], np.uint32 if count < 10 else np.uint64) for count in range(20)
]


def _row_blocks(fmt, arrays):
    """The text of :func:`_format_rows` over each 2-D int array of ``arrays``, one block of rows at a time."""
    return (_block_text(fmt, block) for rows in arrays for block in _blocks(rows))


def _block_text(fmt, block):
    """``fmt``, whose fields are all ``%d``, applied to every row of the 2-D int array ``block``.

    A block of B rows is a (width, B) byte matrix: broadcast literals, then per field a sign row if
    the block holds a negative value and a row per digit, cut by ``// 10`` in uint32, uint64 or
    Python ints, whichever holds the block.  A keep mask from ``>= 10**p`` drops leading zeros and
    unused signs; the kept bytes are the text.
    """
    literals, literal_bytes = _literals(fmt)
    fields = np.ascontiguousarray(block.T)
    lows, highs = fields.min(axis=1, initial=0).tolist(), fields.max(axis=1, initial=0).tolist()
    digits = [len(str(max(high, -low))) for low, high in zip(lows, highs)]
    mat = np.empty((literal_bytes + sum(digits) + sum(low < 0 for low in lows), len(block)), np.uint8)
    keep = np.ones(mat.shape, bool)
    end = len(literals[0])
    mat[:end] = literals[0][:, None]
    for values, low, count, literal in zip(fields, lows, digits, literals[1:]):
        if low < 0:
            mat[end], keep[end] = ord("-"), values < 0
            end += 1
        powers = _POWERS[count] if count < 20 else np.array([10**p for p in range(count - 1, 0, -1)], object)
        rest = np.abs(values).astype(powers.dtype)
        keep[end : end + count - 1] = rest >= powers[:, None]
        for row in range(end + count - 1, end - 1, -1):
            quotient = rest // 10
            mat[row], rest = rest - quotient * 10 + ord("0"), quotient
        mat[end + count : end + count + len(literal)] = literal[:, None]
        end += count + len(literal)
    return mat.T[keep.T].tobytes().decode("ascii")


def tsv_text(rows):
    """One "r1 c1 r2 c2 label" line per row of (B, 5) int rows, tab separated."""
    return _format_rows(_TSV_LINE, rows)


def text_blocks(fmt, header, edges, sums):
    """A labeling's ``fmt`` text ("json", "tsv" or "dot"), block by block.

    ``header`` is the ``family``/``m``/``n`` dict, ``edges`` yields (B, 5) rows ``r1, c1, r2, c2,
    label`` and ``sums`` (B, 3) rows ``r, c, sum``; TSV reads the edges only.
    """
    if fmt == "tsv":
        yield from _row_blocks(_TSV_LINE, edges)
    elif fmt == "json":
        yield f"{{\n  {json.dumps(header)[1:-1]},\n" + _JSON_EDGES
        for lines, close in ((_row_blocks(_JSON_EDGE, edges), _JSON_SUMS), (_row_blocks(_JSON_SUM, sums), _JSON_END)):
            yield next(lines, ",\n")[2:]  # every line but the first starts with ",\n"
            yield from lines
            yield close
    else:
        yield _DOT_HEAD
        for block in (block for rows in sums for block in _blocks(rows)):
            r, c = block[:, :2].T.astype(np.int64)  # sums past int64 make an object block
            if header["family"] in (CYCLE, PRISM):  # ring position i at angle 2 pi (i-1)/m, layer j at radius j
                angle = [2.0 * math.pi * (i - 1) / header["m"] for i in range(r[0], r[-1] + 1)]
                x, y = (c * np.array([f(a) for a in angle])[r - r[0]] for f in (math.cos, math.sin))
                yield _DOT_RING_NODE * len(block) % tuple(np.column_stack((block.astype(object), x, y)).flat)
            else:  # grids on a grid, paths on an axis
                x, y = (r, 0 * r) if header["family"] == PATH else (c, -r)
                yield from _row_blocks(_DOT_NODE, [np.column_stack((block, x, y))])
        yield from _row_blocks(_DOT_EDGE, edges)
        yield "}\n"


def labeling_blocks(lab):
    """``(header, edges, sums)`` of a labeling for :func:`text_blocks`, as slices of its arrays."""
    from .verification import vertex_sums
    graph, sums = lab.graph, vertex_sums(lab).sums
    header = graph.spec.header() if graph.spec is not None else dict.fromkeys(("family", "m", "n"))
    edges = (np.column_stack((graph.edge_array[at], lab.labels[at])) for at in _blocks(range(len(lab.labels))))
    return header, edges, (np.column_stack((graph.vertex_array[at], sums[at])) for at in _blocks(range(len(sums))))


def labeling_to_json(lab):
    """Render with one edge object and one sum entry per line."""
    return "".join(text_blocks("json", *labeling_blocks(lab)))


def labeling_tsv_rows(lab, by_label=False):
    """The labeling as (E, 5) int64 rows ``r1, c1, r2, c2, label``, in edge or label order."""
    rows = np.column_stack((lab.graph.edge_array, lab.labels))
    return rows[np.argsort(lab.labels, kind="stable")] if by_label else rows


def labeling_tsv_lines(lab, by_label=False):
    """One "r1 c1 r2 c2 label" line per edge, tab separated."""
    return iter(tsv_text(labeling_tsv_rows(lab, by_label)).splitlines())


def labeling_to_dot(lab):
    """Graphviz (neato) source with pinned positions; node text is the vertex sum."""
    return "".join(text_blocks("dot", *labeling_blocks(lab)))


def _check_int64(what, value):
    if not -(1 << 63) <= value < 1 << 63:
        raise FormatError(f"{what} {value} is outside the 64-bit integer range")


def _checked_rows(rows):
    """Parsed (E, 5) rows with canonical endpoints, sorted by edge; the first bad row raises."""
    if not len(rows):
        raise FormatError("no edges found")
    try:
        return _canonical_rows(rows)
    except InvalidParameterError as exc:
        raise FormatError(str(exc)) from exc


def _headerless(rows):
    from .labelings import Labeling
    rows = _checked_rows(rows)
    return Labeling(_adhoc_graph(rows[:, :4]), rows[:, 4])


def _decimal_rows(text, width):
    """Every signed decimal in ``text`` as (N, width) int64 rows; None if numpy stops short or N is ragged.

    All other ASCII is blanked first.  numpy clamps a value outside int64 rather than refusing it, so
    the rows are only to be trusted once they render back as ``text``.  That check also rejects a
    short read: a text the writer renders is read to its end.  ``warnings.catch_warnings`` swaps the
    process-wide filters, so this is not thread-safe before Python 3.14.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # older numpy warns, not raises, on a partial read
        try:
            values = np.fromstring(text.translate(_BLANK_ALL_BUT_DECIMALS), dtype=np.int64, sep=" ")
        except ValueError:
            return None
    return values.reshape(-1, width) if len(values) % width == 0 else None


class _NotWriter(Exception):
    """The text is not as the writer renders it, so the slow path reads it."""


def _pieces(blocks):
    """The text of the str ``blocks``, in pieces of at most ``_READ_CHARS`` characters."""
    try:
        for block in blocks:
            for at in range(0, len(block), _READ_CHARS):
                yield block[at : at + _READ_CHARS]
    except UnicodeDecodeError as exc:  # a block that does not decode is not the writer's
        raise _NotWriter from exc


def _records(text, fmt, kept, check=True):
    """Check that ``text`` is exactly ``fmt`` over its decimals, rendered as one block; keep their rows in ``kept``.

    Without ``check`` the rows are only decoded, as a guess that a later, checked read must confirm.
    """
    rows = _decimal_rows(text, fmt.count("%d"))
    if rows is None or check and _block_text(fmt, rows) != text:
        raise _NotWriter
    if kept is not None:
        kept.append(rows)


def _section(pieces, text, fmt, end, kept, check=True):
    """Check the records of ``fmt`` in ``text`` and then ``pieces``, up to the first ``end`` (None: the end).

    Whole records are cut off and checked as they arrive, by :func:`_records`; the unfinished one is
    carried into the next piece, and one longer than any the writer makes is refused.  Returns the
    text after ``end``.
    """
    literals = fmt.split("%d")
    joint = literals[-1] + literals[0]  # between two records
    while end is None or (stop := text.find(end)) < 0:
        at = text.rfind(joint)
        cut = at + len(literals[-1]) if at >= 0 else 0
        _records(text[:cut], fmt, kept, check)
        text = text[cut:]
        if len(text) > _LINE_CHARS:
            raise _NotWriter
        piece = next(pieces, None)
        if piece is None:
            if end is not None:
                raise _NotWriter
            _records(text, fmt, kept, check)
            return ""
        text += piece
    _records(text[:stop], fmt, kept, check)
    return text[stop + len(end) :]


class _Rows(list):
    """Blocks of (B, width) int64 rows, appended as read and joined once.

    :meth:`done` copies them into one (width, N) array, holding the rows twice while it copies, and
    returns it as (N, width) rows in column order: each field, the labels among them, is a
    contiguous view.  Every read appends at least one block, if only an empty one.
    """

    def done(self):
        fields, at = np.empty((self[0].shape[1], sum(map(len, self))), np.int64), 0
        for rows in self:
            fields[:, at : at + len(rows)] = rows.T
            at += len(rows)
        return fields.T


def _bounds(rows, start=((math.inf, -math.inf),) * 2):
    """Each axis's least and greatest value, as ints, in the edge rows ``rows`` and the bounds ``start``."""
    if not len(rows):
        return start
    axes = rows[:, 0:4:2], rows[:, 1:4:2]
    return [(min(low, int(v.min())), max(high, int(v.max()))) for v, (low, high) in zip(axes, start)]


class _Extent:
    """The count and :func:`_bounds` of edge rows appended block by block."""

    def __init__(self):
        self.count, self.bounds = 0, _bounds([])

    def append(self, rows):
        self.count, self.bounds = self.count + len(rows), _bounds(rows, self.bounds)

    def done(self):
        """The :class:`_Counts` for the rows, declined if their key table spans more keys than there are endpoints."""
        (low_r, high_r), (low_c, high_c) = self.bounds
        if not self.count or (high_r - low_r + 1) * (high_c - low_c + 1) > 2 * self.count:
            raise _NotWriter
        return _Counts(None, self.count, self.bounds)


class _Counts:
    """The :class:`Tally` of edge rows ``r1, c1, r2, c2, label`` appended block by block, each dropped once counted.

    The rows are ``spec``'s canonical edges in turn or, without a spec, edges in any order within
    the axis ``bounds`` whose offset ``(r2 - r1, c2 - c1)`` is one the factor namings make: (1, 0),
    (2, 0), (0, 1) or (0, 2).  Vertex (r, c) keeps its sum at key ``(r - low_r) * width + c -
    low_c``, which sorts as (r, c).  Each row without a spec marks its first endpoint's key in its
    offset's plane of ``marks``, so a repeated edge, in one block or across two, leaves fewer marks
    than rows.  A label of 1..``count`` is counted up to 2; any other is kept.  Other rows, too many
    or too few, a repeat, or a sum that could pass int64 raise :class:`_NotWriter`.
    """

    def __init__(self, spec, count, bounds):
        (low_r, high_r), (low_c, high_c) = bounds
        self.spec, self.count, self.bounds = spec, count, bounds
        self.low, self.width, self.taken = (low_r, low_c), high_c - low_c + 1, 0
        self.counts, self.outside = np.zeros(count + 1, np.uint8), [np.empty(0, np.int64)]
        self.sums = np.zeros((high_r - low_r + 1) * self.width, np.int64)
        self.used = np.zeros(len(self.sums), bool)
        self.marks = None if spec else np.zeros((4, len(self.sums)), bool)

    @classmethod
    def of_header(cls, header):
        """For a headered JSON file's rows; a header :func:`parse_json` would refuse raises :class:`_NotWriter`."""
        family, m, n = header["family"], header["m"], header["n"]
        spec = FamilySpec(family, m, n if family in (LATTICE, PRISM) else 0)
        try:
            return cls(spec, check_materializable(spec), ((1, spec.row_count()), (1, spec.col_count())))
        except ValueError as exc:  # the slow read names the fault
            raise _NotWriter from exc

    def append(self, rows):
        at, self.taken = self.taken, self.taken + len(rows)
        keys = (rows[:, 0:4:2] - self.low[0]) * self.width + rows[:, 1:4:2] - self.low[1]
        if self.taken > self.count or not (_canonical(self.spec, rows, at) if self.spec else self._mark(rows, keys)):
            raise _NotWriter
        labels = rows[:, 4]
        np.add.at(self.sums, keys, labels[:, None])
        self.used[keys] = True
        inside = (labels >= 1) & (labels <= self.count)
        values, times = np.unique(labels[inside], return_counts=True)
        self.counts[values] = np.minimum(self.counts[values] + times, 2)
        self.outside.append(labels[~inside])

    def _mark(self, rows, keys):
        """Whether ``rows`` lie within ``bounds`` at the factor namings' offsets; if so, marks them."""
        dr, dc = rows[:, 2] - rows[:, 0], rows[:, 3] - rows[:, 1]
        step = dr + dc
        if _bounds(rows, self.bounds) != list(self.bounds) or (dr * dc).any() or ((step < 1) | (step > 2)).any():
            return False
        self.marks[step - 1 + 2 * (dr == 0), keys[:, 0]] = True
        return True

    def done(self):
        outside, used = np.concatenate(self.outside), self.used
        peak = max(-int(outside.min(initial=0)), int(outside.max(initial=0)))
        repeated = self.marks is not None and np.count_nonzero(self.marks) < self.count
        if self.taken < self.count or repeated or peak * self.count >= 1 << 63:
            raise _NotWriter

        def vertex(i):
            r, c = divmod(int(np.flatnonzero(used)[i]), self.width)
            return r + self.low[0], c + self.low[1]

        from .verification import Tally
        return Tally(self.spec, self.counts, outside, self.sums if used.all() else self.sums[used], vertex)


def _writer_tsv(blocks, kept=None, check=True):
    """The (E, 5) rows of the text ``blocks`` if ``tsv_text`` renders them as exactly that text, else None.

    The rows are appended to ``kept``, a new :class:`_Rows` by default, and its done() is returned;
    either may raise :class:`_NotWriter`.  ``check`` is :func:`_records`'.
    """
    kept = _Rows() if kept is None else kept
    try:
        _section(_pieces(blocks), "", _TSV_LINE, None, kept, check)
        return kept.done()
    except _NotWriter:
        return None


def _tsv_rows(text):
    """The (E, 5) rows of a TSV file; the first bad line raises, naming its field."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"line {ln}: expected 5 fields, got {len(parts)}")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"line {ln}: fields must be integers") from exc
        for name, value in zip(_TSV_FIELDS, values):
            _check_int64(f"line {ln}: {name}", value)
        rows.append(values)
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


def _tsv_labeling(blocks, whole):
    rows = _writer_tsv(blocks)
    return _headerless(rows if rows is not None else _tsv_rows(whole()))


def parse_tsv(text):
    return _tsv_labeling([text], lambda: text)


def _writer_json(blocks, keep=lambda header: _Rows()):
    """``(header, rows)`` if ``labeling_to_json`` renders them as exactly the text ``blocks``, else None.

    The header is the ``family``/``m``/``n`` dict.  The edge rows are appended to ``keep(header)``
    and ``rows`` is its done(), by default the (E, 5) rows; either may raise :class:`_NotWriter`.
    The sum lines are checked to render back from their own values and then dropped, since no
    parser reads the sums.
    """
    pieces, text = _pieces(blocks), ""
    try:
        while (at := text.find(_JSON_EDGES)) < 0:
            piece = next(pieces, None)
            if piece is None or len(text) > _LINE_CHARS:
                return None
            text += piece
        try:  # the head line "{\n  HEADER,\n" as an object of its own
            header = json.loads("{" + text[:at][1:-2] + "}")
        except (ValueError, RecursionError):
            return None
        header = {key: header.get(key) for key in ("family", "m", "n")}
        head = next(text_blocks("json", header, [], []))  # the head line and the edges marker
        if not text.startswith(head):
            return None
        # every record but a section's first starts with ",\n"
        rows = keep(header)
        text = _section(pieces, ",\n" + text[len(head) :], _JSON_EDGE, _JSON_SUMS, rows)
        if _section(pieces, ",\n" + text, _JSON_SUM, _JSON_END, None) or next(pieces, None) is not None:
            return None
        return header, rows.done()
    except _NotWriter:
        return None


def _json_rows(entries):
    """The (E, 5) rows of the edge entries; the first bad entry raises, naming its field."""
    rows = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError(f"edge entries must be objects, got {entry!r}")
        value = entry.get("label")
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"edge label must be an integer, got {value!r}")
        _check_int64("edge label", value)
        for key in ("u", "v"):
            raw = entry.get(key)
            if not isinstance(raw, list) or len(raw) != 2 or type(raw[0]) is not int or type(raw[1]) is not int:
                raise FormatError(f'edge field "{key}" must be a pair of integers, got {raw!r}')
            for coordinate in raw:
                _check_int64(f'edge field "{key}" value', coordinate)
        rows.append((*entry["u"], *entry["v"], value))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


def _json_labeling(blocks, whole):
    parsed = _writer_json(blocks)
    if parsed is None:
        try:
            doc = json.loads(whole())
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise FormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
            raise FormatError('expected an object with an "edges" list')
        parsed = doc, _json_rows(doc["edges"])
    doc, rows = parsed
    family = doc.get("family")
    if family is None:
        return _headerless(rows)
    rows = _checked_rows(rows)
    if family not in FAMILIES:
        raise FormatError(f"unknown family {family!r}")
    m, n = doc.get("m"), doc.get("n")
    if isinstance(m, bool) or not isinstance(m, int):
        raise FormatError(f'"m" must be an integer, got {m!r}')
    if family in (LATTICE, PRISM) and (isinstance(n, bool) or not isinstance(n, int)):
        raise FormatError(f'"n" must be an integer for {family}, got {n!r}')
    spec = FamilySpec(family, m, n if family in (LATTICE, PRISM) else 0)
    try:  # a spec above the cap is refused before the count is compared
        graph = _parsed_graph(spec, rows[:, :4])
    except InvalidParameterError as exc:
        raise FormatError(str(exc)) from exc
    if graph is None:
        raise FormatError(f"edges do not match {family} m={m}" + (f" n={n}" if n else ""))
    from .labelings import Labeling
    return Labeling(graph, rows[:, 4])


def parse_json(text):
    return _json_labeling([text], lambda: text)


def _read(blocks, whole, tally=False):
    """The labeling, or with ``tally`` the :class:`Tally`, of the text ``blocks()`` gives anew block by block.

    ``whole()`` gives the text at once, for the parse of a text the block-wise reads give up on.
    """
    try:
        first = next(_pieces(blocks()), "")
    except _NotWriter:  # the first piece does not decode
        first = None
    if first is None or first[:1].isspace():  # not the writer's: parse the whole text
        text = whole()
        return (parse_json if text.lstrip().startswith("{") else parse_tsv)(text)
    is_json = first.startswith("{")
    if tally:  # headered JSON in one read; TSV in any row order in an extent read, then a counts read
        if is_json:
            tallied = (parsed := _writer_json(blocks(), _Counts.of_header)) and parsed[1]
        else:
            tallied = (extent := _writer_tsv(blocks(), _Extent(), check=False)) and _writer_tsv(blocks(), extent)
        if tallied:
            return tallied
    return (_json_labeling if is_json else _tsv_labeling)(blocks(), whole)


def parse_labeling(text):
    """Sniff JSON (leading '{') vs TSV and parse accordingly."""
    return _read(lambda: iter([text]), lambda: text)


def read_tally(handle):
    """What :func:`check_antimagic` and :func:`check_paper_properties` read of the labeling the open text
    stream ``handle`` reads: the :class:`Tally` of a writer's headered JSON or TSV in any row order, else its
    :func:`parse_labeling`.  A seekable stream is read anew from where it started for each pass; a pipe is read whole.
    """
    try:
        if not handle.seekable():
            text = handle.read()
            return _read(lambda: iter([text]), lambda: text, tally=True)
        start = handle.tell()

        def blocks():
            handle.seek(start)
            return iter(functools.partial(handle.read, _READ_CHARS), "")

        def whole():
            handle.seek(start)
            return handle.read()

        return _read(blocks, whole, tally=True)
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8 text: {exc}") from exc

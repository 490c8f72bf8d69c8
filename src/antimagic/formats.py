"""Serialization of labelings as JSON, TSV, and pinned-layout DOT.

Writers format int rows with a numpy digit kernel, which TSV shares with
``generate --stream``; only the DOT node lines (float positions) use ``%``.
The JSON and TSV forms round-trip.  A headerless file (all TSV, JSON without a
family) gets an ad-hoc graph built from the edges in the file, so external
labelings (including single-edge negative controls) can be verified.  A
headered JSON file gets the family's graph: its header must describe exactly
the edges in the file.

Parsers first read every signed decimal of the file in one numpy call and
keep the values only if the writer renders them back as exactly the input:
that proves the file is valid, every value fits int64, and ``json.loads`` or
the line walk would give the same rows.  Any other file takes that slower
path: ``json.loads`` and a walk over its edge entries, or a TSV walk line by
line; either names the first bad field.  Both paths end in the edge-list
check that ``graph_from_edges`` also runs.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import FormatError, InvalidParameterError
from .families import (
    CYCLE,
    FAMILIES,
    LATTICE,
    MAX_MATERIALIZED_EDGES,
    PATH,
    PRISM,
    FamilySpec,
    _adhoc_graph,
    _canonical_rows,
    build_graph,
)
from .labelings import Labeling
from .verification import vertex_sums

_ROWS_PER_BLOCK = 1 << 11
_TSV_FIELDS = ("r1", "c1", "r2", "c2", "label")
# the JSON layout: head line, edge lines, sum lines, and the markers around them
_JSON_EDGE = '    {"u": [%d, %d], "v": [%d, %d], "label": %d},\n'
_JSON_SUM = '    "%d,%d": %d,\n'
_JSON_EDGES, _JSON_SUMS, _JSON_END = '  "edges": [\n', '\n  ],\n  "sums": {\n', '\n  }\n}\n'
_BLANK_ALL_BUT_DECIMALS = str.maketrans(dict.fromkeys(set(map(chr, range(128))) - set("-0123456789"), " "))
_DOT_NODE = '  "%d,%d" [label="%d" pos="%.3f,%.3f!"];\n'  # the one template with float fields, so formatted by %


def _blocks(rows):
    return (rows[at : at + _ROWS_PER_BLOCK] for at in range(0, len(rows), _ROWS_PER_BLOCK))


def _format_rows(fmt, rows):
    """``fmt``, whose fields are all ``%d``, applied to every row of a 2-D int array."""
    return "".join(_row_blocks(fmt, rows))


def _row_blocks(fmt, rows):
    """The text of :func:`_format_rows`, yielded one block of rows at a time.

    A block of B rows is a (width, B) byte matrix: broadcast literals, then per field
    a sign row if the block holds a negative value and a row per digit, cut by ``// 10``
    in uint32, uint64 or Python ints, whichever holds the block.  A keep mask from
    ``>= 10**p`` drops leading zeros and unused signs; the kept bytes are the text.
    """
    literals = [np.frombuffer(part.encode(), np.uint8) for part in fmt.split("%d")]
    for block in _blocks(rows):
        fields = np.ascontiguousarray(block.T)
        lows, highs = fields.min(axis=1).tolist(), fields.max(axis=1).tolist()
        digits = [len(str(max(high, -low))) for low, high in zip(lows, highs)]
        mat = np.empty((sum(map(len, literals)) + sum(digits) + sum(low < 0 for low in lows), len(block)), np.uint8)
        keep = np.ones(mat.shape, bool)
        end = len(literals[0])
        mat[:end] = literals[0][:, None]
        for values, low, count, literal in zip(fields, lows, digits, literals[1:]):
            if low < 0:
                mat[end], keep[end] = ord("-"), values < 0
                end += 1
            rest = np.abs(values).astype(np.uint32 if count < 10 else np.uint64 if count < 20 else object)
            powers = np.array([10**p for p in range(count - 1, 0, -1)], rest.dtype)
            keep[end : end + count - 1] = rest >= powers[:, None]
            for row in range(end + count - 1, end - 1, -1):
                quotient = rest // 10
                mat[row], rest = rest - quotient * 10 + ord("0"), quotient
            mat[end + count : end + count + len(literal)] = literal[:, None]
            end += count + len(literal)
        yield mat.T[keep.T].tobytes().decode("ascii")


def tsv_text(rows):
    """One "r1 c1 r2 c2 label" line per row of (B, 5) int rows, tab separated."""
    return _format_rows("%d\t%d\t%d\t%d\t%d\n", rows)


def _json_text(header, edge_rows, sum_rows):
    """The JSON file of a header dict, (E, 5) edge rows and (V, 3) vertex-sum rows."""
    # one join of the block texts; only each list's last block is cut, to drop its final ",\n"
    edges, sums = [*_row_blocks(_JSON_EDGE, edge_rows)] or [""], [*_row_blocks(_JSON_SUM, sum_rows)] or [""]
    edges[-1], sums[-1] = edges[-1][:-2], sums[-1][:-2]
    return "".join((f"{{\n  {json.dumps(header)[1:-1]},\n", _JSON_EDGES, *edges, _JSON_SUMS, *sums, _JSON_END))


def labeling_to_json(lab):
    """Render with one edge object and one sum entry per line."""
    graph = lab.graph
    header = graph.spec.header() if graph.spec is not None else dict.fromkeys(("family", "m", "n"))
    sums = vertex_sums(lab).sums
    return _json_text(
        header, np.column_stack((graph.edge_array, lab.labels)), np.column_stack((graph.vertex_array, sums))
    )


def labeling_tsv_rows(lab, by_label=False):
    """The labeling as (E, 5) int64 rows ``r1, c1, r2, c2, label``, in edge or label order."""
    rows = np.column_stack((lab.graph.edge_array, lab.labels))
    return rows[np.argsort(lab.labels, kind="stable")] if by_label else rows


def labeling_tsv_lines(lab, by_label=False):
    """One "r1 c1 r2 c2 label" line per edge, tab separated."""
    return iter(tsv_text(labeling_tsv_rows(lab, by_label)).splitlines())


def _vertex_positions(graph):
    """Plot coordinates per vertex as (V, 2) floats: grids on a grid, rings on circles."""
    r, c = graph.vertex_array.T.astype(float)
    family = graph.spec.family if graph.spec is not None else None
    if family == PATH:
        return np.stack((r, 0.0 * r), axis=1)
    if family in (CYCLE, PRISM):  # ring position i at angle 2 pi (i-1)/m, layer j at radius j
        m = graph.spec.m
        angle = [2.0 * math.pi * (i - 1) / m for i in range(1, m + 1)]
        cos, sin = np.array([math.cos(a) for a in angle]), np.array([math.sin(a) for a in angle])
        at = graph.vertex_array[:, 0] - 1
        return np.stack((c * cos[at], c * sin[at]), axis=1)
    return np.stack((c, -r), axis=1)


def labeling_to_dot(lab):
    """Graphviz (neato) source with pinned positions; node text is the vertex sum."""
    graph = lab.graph
    nodes = np.empty((len(graph.vertex_array), 5), dtype=object)
    nodes[:, :2] = graph.vertex_array
    nodes[:, 2] = vertex_sums(lab).sums
    nodes[:, 3:] = _vertex_positions(graph)
    return (
        "graph antimagic {\n"
        "  layout=neato;\n"
        "  node [shape=circle fontsize=10];\n"
        "  edge [fontsize=9];\n"
        + "".join(_DOT_NODE * len(block) % tuple(block.ravel().tolist()) for block in _blocks(nodes))
        + _format_rows('  "%d,%d" -- "%d,%d" [label="%d"];\n', np.column_stack((graph.edge_array, lab.labels)))
        + "}\n"
    )


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
    rows = _checked_rows(rows)
    return Labeling(_adhoc_graph(rows[:, :4]), rows[:, 4].copy())


def _decimal_rows(text, width):
    """Every signed decimal in ``text`` as (N, width) int64 rows; None if numpy stops short or N is ragged.

    All other ASCII is blanked first.  numpy clamps a value outside int64 rather than
    refusing it, so the rows are only to be trusted once they render back as ``text``.
    That check also rejects a short read: a text the writer renders is read to its end.
    ``warnings.catch_warnings`` swaps the process-wide filters, so this is not thread-safe
    before Python 3.14.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # older numpy warns, not raises, on a partial read
        try:
            values = np.fromstring(text.translate(_BLANK_ALL_BUT_DECIMALS), dtype=np.int64, sep=" ")
        except ValueError:
            return None
    return values.reshape(-1, width) if len(values) % width == 0 else None


def _writer_tsv(text):
    """The (E, 5) rows of ``text`` if ``tsv_text`` renders them as exactly ``text``, else None."""
    rows = _decimal_rows(text, 5)
    return rows if rows is not None and tsv_text(rows) == text else None


def _tsv_rows(text):
    """The (E, 5) rows of a TSV file; the first bad line raises, naming its field."""
    rows = _writer_tsv(text)
    if rows is not None:
        return rows
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


def parse_tsv(text):
    return _headerless(_tsv_rows(text))


def _writer_json(text):
    """``(header, rows)`` if ``labeling_to_json`` renders them as exactly ``text``, else None.

    The header is the ``family``/``m``/``n`` dict.  The sum lines render back from their
    own values, since no parser reads the sums.
    """
    at = text.find(_JSON_EDGES)
    stop = text.find(_JSON_SUMS, at + 1)
    if at < 0 or stop < 0:
        return None
    try:  # the head line "{\n  HEADER,\n" as an object of its own
        header = json.loads("{" + text[:at][1:-2] + "}")
    except (ValueError, RecursionError):
        return None
    rows, sums = _decimal_rows(text[at:stop], 5), _decimal_rows(text[stop:], 3)  # no marker holds a digit
    if rows is None or sums is None:
        return None
    header = {key: header.get(key) for key in ("family", "m", "n")}
    return (header, rows) if _json_text(header, rows, sums) == text else None


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


def parse_json(text):
    parsed = _writer_json(text)
    if parsed is None:
        try:
            doc = json.loads(text)
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
    if family in (LATTICE, PRISM):
        if isinstance(n, bool) or not isinstance(n, int):
            raise FormatError(f'"n" must be an integer for {family}, got {n!r}')
        spec = FamilySpec(family, m, n)
    else:
        spec = FamilySpec(family, m)
    try:
        spec.validate()
        # a count mismatch needs no graph, but above the cap build_graph refuses first
        count = spec.edge_count()
        mismatch = len(rows) != count and count <= MAX_MATERIALIZED_EDGES
        graph = None if mismatch else build_graph(spec)
    except InvalidParameterError as exc:
        raise FormatError(str(exc)) from exc
    if mismatch or not np.array_equal(graph.edge_array, rows[:, :4]):
        raise FormatError(f"edges do not match {family} m={m}" + (f" n={n}" if n else ""))
    return Labeling(graph, rows[:, 4].copy())


def parse_labeling(text):
    """Sniff JSON (leading '{') vs TSV and parse accordingly."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_tsv(text)

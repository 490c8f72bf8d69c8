"""Round-trips and rejection paths for the JSON, TSV, and DOT serializers."""

import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    FormatError,
    Labeling,
    SizeRefusalError,
    check_antimagic,
    label,
    labeling_to_dot,
    labeling_to_json,
    labeling_tsv_lines,
    parse_json,
    parse_labeling,
    parse_tsv,
    vertex_sums,
)
from antimagic import families, formats
from antimagic.formats import _format_rows, labeling_tsv_rows, tsv_text

ROUNDTRIP_SPECS = [
    FamilySpec(PATH, 5),
    FamilySpec(PATH, 2),
    FamilySpec(CYCLE, 3),
    FamilySpec(CYCLE, 8),
    FamilySpec(LATTICE, 1, 1),
    FamilySpec(LATTICE, 1, 6),
    FamilySpec(LATTICE, 3, 4),
    FamilySpec(LATTICE, 5, 2),
    FamilySpec(PRISM, 3, 1),
    FamilySpec(PRISM, 4, 2),
    FamilySpec(PRISM, 5, 3),
]


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=str)
def test_json_roundtrip_reattaches_spec(spec):
    lab = label(spec)
    back = parse_json(labeling_to_json(lab))
    assert back.graph.spec == spec
    assert back.graph.edges == lab.graph.edges
    assert back.assignment == lab.assignment
    assert check_antimagic(back).antimagic


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=str)
def test_tsv_roundtrip_preserves_assignment(spec):
    lab = label(spec)
    text = "\n".join(labeling_tsv_lines(lab)) + "\n"
    back = parse_tsv(text)
    # TSV carries no family header, so the graph comes back ad hoc.
    assert back.graph.spec is None
    assert back.graph.edges == lab.graph.edges
    assert back.assignment == lab.assignment
    assert check_antimagic(back).antimagic


def test_json_dict_shape():
    doc = json.loads(labeling_to_json(label(FamilySpec(LATTICE, 2, 3))))
    assert doc["family"] == LATTICE
    assert (doc["m"], doc["n"]) == (2, 3)
    assert len(doc["edges"]) == 2 * 2 * 3 + 2 + 3
    assert len(doc["sums"]) == 3 * 4
    assert doc["sums"]["1,1"] == 3


def test_json_dict_path_has_null_n():
    doc = json.loads(labeling_to_json(label(FamilySpec(PATH, 4))))
    assert doc["family"] == PATH
    assert doc["m"] == 4
    assert doc["n"] is None


def test_json_text_is_compact_and_valid():
    text = labeling_to_json(label(FamilySpec(CYCLE, 5)))
    doc = json.loads(text)
    assert [e["label"] for e in doc["edges"]] == [1, 2, 3, 4, 5]
    # one edge object per line keeps diffs readable
    edge_lines = [ln for ln in text.splitlines() if '"u":' in ln]
    assert len(edge_lines) == 5
    assert all(ln.count("{") == 1 for ln in edge_lines)


@pytest.mark.parametrize(
    "lab,text",
    [
        (
            label(FamilySpec(PATH, 2)),
            '{\n  "family": "path", "m": 2, "n": null,\n'
            '  "edges": [\n'
            '    {"u": [1, 1], "v": [3, 1], "label": 1},\n'
            '    {"u": [2, 1], "v": [3, 1], "label": 2}\n'
            '  ],\n'
            '  "sums": {\n    "1,1": 1,\n    "2,1": 2,\n    "3,1": 3\n  }\n}\n',
        ),
        (
            label(FamilySpec(LATTICE, 1, 1)),
            '{\n  "family": "lattice", "m": 1, "n": 1,\n'
            '  "edges": [\n'
            '    {"u": [1, 1], "v": [1, 2], "label": 2},\n'
            '    {"u": [1, 1], "v": [2, 1], "label": 1},\n'
            '    {"u": [1, 2], "v": [2, 2], "label": 4},\n'
            '    {"u": [2, 1], "v": [2, 2], "label": 3}\n'
            '  ],\n'
            '  "sums": {\n    "1,1": 3,\n    "1,2": 6,\n    "2,1": 4,\n    "2,2": 7\n  }\n}\n',
        ),
        (
            parse_tsv("1 1 2 1 1\n"),
            '{\n  "family": null, "m": null, "n": null,\n'
            '  "edges": [\n'
            '    {"u": [1, 1], "v": [2, 1], "label": 1}\n'
            '  ],\n'
            '  "sums": {\n    "1,1": 1,\n    "2,1": 1\n  }\n}\n',
        ),
    ],
    ids=["path-null-n", "lattice-1x1", "headerless"],
)
def test_json_text_is_pinned(lab, text):
    assert labeling_to_json(lab) == text


def test_tsv_by_label_orders_lines_by_label():
    lab = label(FamilySpec(LATTICE, 2, 2))
    values = [int(ln.split("\t")[4]) for ln in labeling_tsv_lines(lab, by_label=True)]
    assert values == list(range(1, len(values) + 1))


def test_tsv_default_order_follows_graph_edges():
    lab = label(FamilySpec(PRISM, 3, 2))
    lines = list(labeling_tsv_lines(lab))
    keys = [tuple(int(x) for x in ln.split("\t")[:4]) for ln in lines]
    assert keys == [(u[0], u[1], v[0], v[1]) for u, v in lab.graph.edges]


def test_tsv_skips_comments_and_blank_lines():
    text = "# header\n\n1\t1\t2\t1\t1\n  # indented comment\n2\t1\t3\t1\t2\n"
    lab = parse_tsv(text)
    assert lab.assignment == {((1, 1), (2, 1)): 1, ((2, 1), (3, 1)): 2}


def test_tsv_accepts_noncanonical_endpoint_order():
    lab = parse_tsv("2\t1\t1\t1\t1\n")
    assert list(lab.assignment) == [((1, 1), (2, 1))]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1\t1\t2\t1\n", "expected 5 fields"),
        ("1\t1\t2\t1\t1\t9\n", "expected 5 fields"),
        ("1\t1\tx\t1\t1\n", "must be integers"),
        ("1\t1\t1\t1\t1\n", "self-loop"),
        ("1\t1\t2\t1\t1\n2\t1\t1\t1\t2\n", "repeated edge"),
        ("", "no edges"),
        ("# only a comment\n", "no edges"),
    ],
)
def test_tsv_rejections(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_tsv(text)


def test_json_without_family_header_stays_ad_hoc():
    text = json.dumps(
        {
            "edges": [
                {"u": [1, 1], "v": [2, 1], "label": 2},
                {"u": [2, 1], "v": [3, 1], "label": 1},
            ]
        }
    )
    lab = parse_json(text)
    assert lab.graph.spec is None
    assert lab.assignment[((1, 1), (2, 1))] == 2


def test_json_header_must_match_edges():
    lab = label(FamilySpec(PATH, 4))
    doc = json.loads(labeling_to_json(lab))
    doc["m"] = 5
    with pytest.raises(FormatError, match="do not match"):
        parse_json(json.dumps(doc))


def test_json_header_edge_count_mismatch_builds_no_graph():
    # one edge under a header for a 2,002,000-edge lattice: the counts differ, so no graph is needed
    doc = {"family": LATTICE, "m": 1000, "n": 1000, "edges": [{"u": [1, 1], "v": [1, 2], "label": 1}]}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="edges do not match lattice m=1000 n=1000"):
            parse_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_json_header_above_materialization_cap_is_refused():
    doc = {"family": LATTICE, "m": 9000, "n": 9000, "edges": [{"u": [1, 1], "v": [1, 2], "label": 1}]}
    with pytest.raises(SizeRefusalError):
        parse_json(json.dumps(doc))


def test_json_header_validates_parameters():
    doc = {"family": PRISM, "m": 2, "n": 1, "edges": [{"u": [1, 1], "v": [2, 1], "label": 1}]}
    with pytest.raises(FormatError):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", '"edges" list'),
        ('{"edges": 3}', '"edges" list'),
        ('{"edges": [7]}', "must be objects"),
        ('{"edges": [{"u": [1, 1], "v": [2, 1]}]}', "label must be an integer"),
        ('{"edges": [{"u": [1, 1], "v": [2, 1], "label": true}]}', "label must be an integer"),
        ('{"edges": [{"u": [1, 1], "v": [2, 1], "label": "1"}]}', "label must be an integer"),
        ('{"edges": [{"u": [1], "v": [2, 1], "label": 1}]}', 'field "u"'),
        ('{"edges": [{"u": [1, 1], "v": [2, "1"], "label": 1}]}', 'field "v"'),
        ('{"edges": [{"u": [1, 1], "v": [true, 1], "label": 1}]}', 'field "v"'),
        ('{"edges": [{"v": [2, 1], "label": 1}]}', 'field "u"'),
        ('{"family": "moebius", "m": 3, "edges": [{"u": [1, 1], "v": [2, 1], "label": 1}]}', "unknown family"),
        ('{"family": "path", "m": "3", "edges": [{"u": [1, 1], "v": [2, 1], "label": 1}]}', '"m" must be an integer'),
        ('{"family": "path", "m": true, "edges": [{"u": [1, 1], "v": [2, 1], "label": 1}]}', '"m" must be an integer'),
        ('{"family": "lattice", "m": 1, "edges": [{"u": [1, 1], "v": [2, 1], "label": 1}]}', '"n" must be an integer'),
        ('{"edges": []}', "no edges"),
    ],
)
def test_json_rejections(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_json(text)


def test_parse_labeling_sniffs_format():
    lab = label(FamilySpec(CYCLE, 4))
    as_json = parse_labeling(labeling_to_json(lab))
    as_tsv = parse_labeling("\n".join(labeling_tsv_lines(lab)) + "\n")
    assert as_json.assignment == as_tsv.assignment == lab.assignment
    assert as_json.graph.spec == lab.graph.spec
    padded = "\n   " + labeling_to_json(lab)
    assert parse_labeling(padded).graph.spec == lab.graph.spec


def test_dot_output_is_deterministic():
    lab = label(FamilySpec(LATTICE, 2, 3))
    assert labeling_to_dot(lab) == labeling_to_dot(lab)


def test_dot_pins_grid_positions_and_shows_sums():
    lab = label(FamilySpec(LATTICE, 2, 2))
    text = labeling_to_dot(lab)
    sums = vertex_sums(lab).total
    assert text.startswith("graph antimagic {")
    assert "layout=neato;" in text
    # grid vertex (r, c) sits at (c, -r), pinned
    assert f'"1,1" [label="{sums[(1, 1)]}" pos="1.000,-1.000!"];' in text
    assert f'"3,2" [label="{sums[(3, 2)]}" pos="2.000,-3.000!"];' in text
    edge_lines = [ln for ln in text.splitlines() if " -- " in ln]
    assert len(edge_lines) == len(lab.graph.edges)
    assert '  "1,1" -- "1,2" [label="1"];' in text
    assert '  "1,1" -- "3,1" [label="2"];' in text


def test_dot_prism_rings_use_column_as_radius():
    lab = label(FamilySpec(PRISM, 4, 1))
    text = labeling_to_dot(lab)
    # copy 1 of the cycle sits on the unit circle, copy 2 at radius two
    assert 'pos="1.000,0.000!"' in text
    assert 'pos="2.000,0.000!"' in text
    assert 'pos="0.000,1.000!"' in text
    assert 'pos="-2.000,0.000!"' in text


def test_dot_path_lies_on_one_axis():
    text = labeling_to_dot(label(FamilySpec(PATH, 3)))
    assert 'pos="1.000,0.000!"' in text
    assert 'pos="2.000,0.000!"' in text
    assert 'pos="3.000,0.000!"' in text


# --- the digit kernel against per-row % --------------------------------------

# the writers' all-%d templates: TSV rows, JSON edge and sum lines, DOT edge lines
INT_TEMPLATES = [
    "%d\t%d\t%d\t%d\t%d\n",
    '    {"u": [%d, %d], "v": [%d, %d], "label": %d},\n',
    '    "%d,%d": %d,\n',
    '  "%d,%d" -- "%d,%d" [label="%d"];\n',
]
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# 0, +-1, every 10**p - 1 / 10**p pair that fits int64, and both int64 ends
EDGE_VALUES = sorted(
    {0, 1, -1, INT64_MIN, INT64_MAX}
    | {sign * (10**p + d) for p in range(1, 19) for d in (-1, 0) for sign in (1, -1)}
)


def reference_text(fmt, rows):
    return "".join(fmt % tuple(row) for row in rows.tolist())


def assert_matches_reference(rows):
    """Every int template over the first columns of ``rows``, and ``tsv_text``, equal per-row ``%``."""
    for fmt in INT_TEMPLATES:
        fields = rows[:, : fmt.count("%d")]
        assert _format_rows(fmt, fields) == reference_text(fmt, fields), fmt
    assert tsv_text(rows) == reference_text(INT_TEMPLATES[0], rows)


def test_format_rows_edge_values_in_one_block():
    # each column holds every edge value once, in a different order, all in one block
    column = np.array(EDGE_VALUES, dtype=np.int64)
    rows = np.column_stack([np.roll(column, shift) for shift in range(5)])
    assert len(rows) < formats._ROWS_PER_BLOCK
    assert_matches_reference(rows)
    with mock.patch.object(formats, "_ROWS_PER_BLOCK", 1):  # and each row alone, as the only value in its block
        assert_matches_reference(rows)


@pytest.mark.parametrize("count", [0, 1, *(formats._ROWS_PER_BLOCK + d for d in (-1, 0, 1))])
def test_format_rows_at_block_boundaries(count):
    # magnitudes from 1 to 19 digits, so blocks differ in their digit counts and signs
    rng = np.random.default_rng(count)
    rows = rng.integers(INT64_MIN, INT64_MAX, size=(count, 5), endpoint=True) >> rng.integers(0, 63, size=(count, 5))
    rows[-1:, 1] = INT64_MIN  # the last row (alone in its block at 2049 rows) holds the int64 minimum
    assert_matches_reference(rows)


def test_format_rows_beyond_int64_as_python_ints():
    # vertex sums past int64 arrive as an object array of Python ints
    values = [0, 7, -7, 1 << 64, (1 << 64) - 1, -(1 << 65) - 3, 10**19, -(10**20), 10**25 - 1]
    rows = np.array([[value, 1, -value] for value in values], dtype=object)
    for block in (formats._ROWS_PER_BLOCK, 1):
        with mock.patch.object(formats, "_ROWS_PER_BLOCK", block):
            assert _format_rows(INT_TEMPLATES[2], rows) == reference_text(INT_TEMPLATES[2], rows)


def test_json_sums_beyond_int64_are_exact():
    lab = label(FamilySpec(PATH, 4))
    big = Labeling(lab.graph, {edge: (1 << 62) + value for edge, value in lab.assignment.items()})
    want = {f"{r},{c}": total for (r, c), total in vertex_sums(big).total.items()}
    assert max(want.values()) >= 1 << 63
    assert json.loads(labeling_to_json(big))["sums"] == want


@pytest.mark.parametrize("spec", [FamilySpec(PRISM, 4, 1), FamilySpec(CYCLE, 5), FamilySpec(LATTICE, 2, 3)], ids=str)
def test_dot_sums_beyond_int64_are_exact(spec):
    # an object block of sums past int64 still places rings by their integer ring positions
    lab = label(spec)
    big = Labeling(lab.graph, {edge: (1 << 62) + value for edge, value in lab.assignment.items()})
    sums = vertex_sums(big).total
    assert max(sums.values()) >= 1 << 63
    text = labeling_to_dot(big)
    small = labeling_to_dot(lab)
    for (r, c), total in sums.items():
        assert f'"{r},{c}" [label="{total}" ' in text
    assert [line.split(" pos=")[1] for line in text.splitlines() if " pos=" in line] == [
        line.split(" pos=")[1] for line in small.splitlines() if " pos=" in line
    ]


ROW_VALUES = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-(10**4), 10**4),
    st.builds(lambda p, d, s: s * (10**p + d), st.integers(0, 18), st.sampled_from((-1, 0)), st.sampled_from((1, -1))),
)


@given(st.lists(st.lists(ROW_VALUES, min_size=5, max_size=5), max_size=24), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_reference_hypothesis(rows, block):
    # small blocks put several blocks, each with its own digit counts and signs, in one call
    rows = np.array(rows, dtype=np.int64).reshape(-1, 5)
    with mock.patch.object(formats, "_ROWS_PER_BLOCK", block):
        assert_matches_reference(rows)


# --- the re-rendered fast read against the fallback alone ---------------------

EQUIVALENCE_SPECS = [
    FamilySpec(PATH, 5),
    FamilySpec(CYCLE, 8),
    FamilySpec(LATTICE, 1, 1),
    FamilySpec(LATTICE, 3, 4),
    FamilySpec(LATTICE, 5, 2),
    FamilySpec(PRISM, 3, 1),
    FamilySpec(PRISM, 5, 3),
]


def writer_texts(spec):
    """Headered JSON, headerless JSON, and TSV in edge and in label order, as the writers emit them."""
    lab = label(spec)
    tsv = tsv_text(labeling_tsv_rows(lab))
    return [labeling_to_json(lab), labeling_to_json(parse_tsv(tsv)), tsv, tsv_text(labeling_tsv_rows(lab, True))]


WRITER_TEXTS = {
    f"{spec.family}-{spec.m}x{spec.n}-{kind}": text
    for spec in EQUIVALENCE_SPECS
    for kind, text in zip(("json", "headerless-json", "tsv", "tsv-by-label"), writer_texts(spec))
}


def parse_outcome(text):
    """What ``parse_labeling`` makes of ``text``: spec, edge, vertex and label arrays, or the error it raises."""
    try:
        lab = parse_labeling(text)
    except Exception as exc:  # a refusal must be the same refusal on both paths
        return type(exc).__name__, str(exc)
    graph = lab.graph
    return graph.spec, graph.edge_array.tolist(), graph.vertex_array.tolist(), lab.labels.tolist()


def fallback_outcome(text):
    with mock.patch.object(formats, "_writer_json", return_value=None):
        with mock.patch.object(formats, "_writer_tsv", return_value=None):
            return parse_outcome(text)


def fast_read(text):
    """The fast path's reading of ``text``: (header, rows) for JSON, rows for TSV, or None."""
    return formats._writer_json([text]) if text.startswith("{") else formats._writer_tsv([text])


@pytest.mark.parametrize("text", WRITER_TEXTS.values(), ids=WRITER_TEXTS)
def test_fast_read_takes_writer_output_and_agrees_with_the_fallback(text):
    assert fast_read(text) is not None
    assert parse_outcome(text) == fallback_outcome(text)


def mutate_byte(text, draw):
    at = draw(st.integers(0, len(text) - 1))
    byte = draw(st.sampled_from(list("0123456789- \t\n\r{}[]\",:+.xé")))
    return draw(st.sampled_from([text[:at] + byte + text[at:], text[:at] + text[at + 1 :], text[:at] + byte + text[at + 1 :]]))


def mutate_number(text, draw):
    """One integer of ``text`` as +1, 007, -0, 2**63 or -2**63."""
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"-?\d+", text)]))
    number = text[start:end]
    sign, digits = ("-", number[1:]) if number.startswith("-") else ("", number)
    spelling = draw(st.sampled_from(["+" + digits, sign + "00" + digits, "-0", str(1 << 63), str(-(1 << 63))]))
    return text[:start] + spelling + text[end:]


def mutate_layout(text, draw):
    return draw(st.sampled_from([text.replace("\t", " "), text.replace("\n", "\r\n"), text[:-1]]))


def mutate_json_keys(text, draw):
    """Reorder the header or one edge's keys, or repeat a key, or edit one vertex sum."""
    edge = draw(st.sampled_from(list(re.finditer(r'\{"u": (\[.*?\]), "v": (\[.*?\]), "label": (-?\d+)\}', text))))
    u, v, value = edge.groups()
    total = draw(st.sampled_from(list(re.finditer(r'(    "\d+,\d+": )(-?\d+)', text))))
    head = re.match(r'\{\n  "family": (.*?), "m": (.*?), "n": (.*?),\n', text)
    family, m, n = head.groups()
    edits = [
        (edge.span(), f'{{"v": {v}, "u": {u}, "label": {value}}}'),
        (edge.span(), f'{{"u": {u}, "v": {v}, "label": {value}, "label": {value}}}'),
        (edge.span(), f'{{"u": {u}, "v": {v}, "label": {int(value) + 1}, "label": {value}}}'),
        (head.span(), f'{{\n  "m": {m}, "family": {family}, "n": {n},\n'),
        (head.span(), f'{{\n  "family": {family}, "m": {m}, "m": {m}, "n": {n},\n'),
        (total.span(), f"{total[1]}{int(total[2]) + 1}"),
    ]
    (start, end), replacement = draw(st.sampled_from(edits))
    return text[:start] + replacement + text[end:]


@given(st.sampled_from(list(WRITER_TEXTS.values())), st.data())
@settings(max_examples=400, deadline=None)
def test_fast_read_equals_the_fallback_alone_hypothesis(text, data):
    mutations = [mutate_byte, mutate_number, mutate_layout] + [mutate_json_keys] * text.startswith("{")
    mutated = data.draw(st.sampled_from(mutations))(text, data.draw)
    assert parse_outcome(mutated) == fallback_outcome(mutated)


def block_outcome(text, cuts):
    """What the block reader makes of ``text`` cut at ``cuts``; the whole text is read only by the slow path."""
    bounds = [0, *sorted(cuts), len(text)]
    blocks = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    wholes = []

    def whole():
        wholes.append(True)
        return text

    try:
        lab = formats._read(lambda: iter(blocks), whole)
    except Exception as exc:
        return (type(exc).__name__, str(exc)), wholes
    graph = lab.graph
    return (graph.spec, graph.edge_array.tolist(), graph.vertex_array.tolist(), lab.labels.tolist()), wholes


def cut_points(text, draw):
    """Random offsets, with some inside a number, inside the JSON section markers, and next to a line end."""
    numbers = [m.span() for m in re.finditer(r"-?\d+", text)]
    markers = [m.span() for m in re.finditer(r'"edges": \[|\n  \],\n  "sums"', text)]
    lines = [m.start() for m in re.finditer("\n", text)]
    near = st.sampled_from(numbers + markers).flatmap(lambda span: st.integers(*span))
    line_end = st.sampled_from(lines).flatmap(lambda at: st.integers(max(at - 1, 0), at + 2))
    return draw(st.lists(st.one_of(st.integers(0, len(text)), near, line_end), max_size=12))


@given(st.sampled_from(list(WRITER_TEXTS)), st.data())
@settings(max_examples=300, deadline=None)
def test_any_block_cut_of_a_writer_text_reads_it_without_the_whole_text(name, data):
    text = WRITER_TEXTS[name]
    outcome, wholes = block_outcome(text, cut_points(text, data.draw))
    assert outcome == parse_outcome(text)
    assert not wholes


def force_fallback(text, draw):
    """An edit the writer never makes, so the fast read must give up on it."""
    at = draw(st.sampled_from([m.start() for m in re.finditer("\n", text)]))
    edits = [
        text.replace("\n", "\r\n"),
        text[:-1],
        text[: at + 1] + " " + text[at + 1 :],
        text[:at] + text[at + 1 :],
        text + "\n",
        " " + text,
    ]
    return draw(st.sampled_from(edits))


@given(st.sampled_from(list(WRITER_TEXTS.values())), st.data())
@settings(max_examples=300, deadline=None)
def test_any_block_cut_of_an_edited_text_equals_the_whole_read(text, data):
    mutated = data.draw(st.sampled_from([force_fallback, mutate_byte, mutate_number]))(text, data.draw)
    outcome, wholes = block_outcome(mutated, cut_points(mutated, data.draw))
    assert outcome == parse_outcome(mutated)
    if fast_read(mutated) is None:
        assert wholes == [True]


def test_every_one_byte_edit_of_a_small_file_equals_the_fallback():
    # every position, so the head line and the section markers are each hit
    for text in writer_texts(FamilySpec(LATTICE, 1, 1)):
        for at in range(len(text)):
            for edited in [text[:at] + text[at + 1 :]] + [text[:at] + byte + text[at + 1 :] for byte in " x0-\n,}"]:
                assert parse_outcome(edited) == fallback_outcome(edited), (at, edited)


def test_clamped_int64_values_fall_back():
    # numpy reads 2**63 as 2**63 - 1 without a word; the re-render shows the difference
    json_text, _, tsv, _ = writer_texts(FamilySpec(LATTICE, 3, 4))
    big_json = re.sub(r'"label": \d+', f'"label": {1 << 63}', json_text, count=1)
    big_tsv = re.sub(r"\t\d+\n", f"\t{1 << 63}\n", tsv, count=1)
    for text, field in [(big_json, "edge label"), (big_tsv, "line 1: label")]:
        assert fast_read(text) is None
        assert parse_outcome(text) == ("FormatError", f"{field} {1 << 63} is outside the 64-bit integer range")


def test_edited_sum_parses_to_the_same_labeling():
    lab = label(FamilySpec(LATTICE, 3, 4))
    text = labeling_to_json(lab)
    edited = text.replace('    "1,1": 3,\n', '    "1,1": 4,\n')
    assert edited != text
    # no parser reads the sums, so the fast read takes the edited file as written
    assert fast_read(edited) is not None
    assert parse_outcome(edited) == fallback_outcome(edited) == parse_outcome(text)


def test_a_numpy_partial_read_warning_falls_back_and_does_not_escape():
    # numpy 2.x raises ValueError on a partial read, older numpy warns with DeprecationWarning
    real = np.fromstring

    def warning_fromstring(*args, **kwargs):
        warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
        return real(*args, **kwargs)[:-1]

    for text in writer_texts(FamilySpec(PRISM, 4, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(np, "fromstring", warning_fromstring):
                assert fast_read(text) is None
                outcome = parse_outcome(text)
        assert caught == []
        assert outcome == fallback_outcome(text)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_parse_peak_memory_at_lattice_161x162(fmt):
    lab = label(FamilySpec(LATTICE, 161, 162))
    text = labeling_to_json(lab) if fmt == "json" else tsv_text(labeling_tsv_rows(lab))
    parse = parse_json if fmt == "json" else parse_tsv
    tracemalloc.start()
    try:
        back = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.labels, lab.labels)
    # json.loads and the line walk peaked at 32.4 and 29.2 MB here; the fast read at 12.8 and 8.9 MB
    assert peak < 16 << 20


def test_json_fast_read_holds_no_second_text():
    # the text is read a piece at a time and only the edge rows are kept, in an array that doubles
    # (1.36 times the text here); a whole second text and per-section slices once took the peak to
    # 2.8 times the text
    lab = label(FamilySpec(LATTICE, 161, 162))
    text = labeling_to_json(lab)
    tracemalloc.start()
    try:
        assert formats._writer_json([text]) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)


def test_canonical_ascending_rows_skip_both_sorts():
    rows = labeling_tsv_rows(label(FamilySpec(LATTICE, 3, 4)))
    with mock.patch.object(families, "_first_repeat") as repeat, mock.patch.object(families, "_lex_order") as order:
        assert formats._checked_rows(rows) is rows
    assert not repeat.called and not order.called
    with pytest.raises(FormatError, match=r"self-loop at \(1, 1\)"):
        formats._checked_rows(np.array([[1, 1, 1, 1, 1], [1, 1, 2, 1, 2]]))
    shuffled = rows[::-1]
    assert np.array_equal(formats._checked_rows(shuffled), rows)
    with pytest.raises(FormatError, match="repeated edge"):
        formats._checked_rows(np.concatenate((rows, rows[-1:])))

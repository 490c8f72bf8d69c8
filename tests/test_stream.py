"""Closed forms vs. materialized labelers, and the bounded-memory verifier."""

import itertools
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from antimagic import (
    LATTICE,
    PATH,
    PRISM,
    EdgeKey,
    FamilySpec,
    InvalidParameterError,
    SizeRefusalError,
    StreamStats,
    build_graph,
    check_antimagic,
    closed_form_label,
    edge_key,
    iter_edge_blocks,
    iter_labeled_edges,
    label,
    stream_verify,
    vertex_sums,
)
from antimagic import stream
from antimagic.families import (
    SKIP_PATH,
    _copy_at,
    _copy_endpoints,
    _factor_edge_count,
    factor_kinds,
)
from antimagic.labelings import Labeling
from antimagic.stream import (
    BLOCK_EDGES,
    COL,
    DEFAULT_CHUNK_TARGET,
    MAX_STREAM_DIMENSION,
    MAX_STREAM_EDGES,
    ROW,
    RUN_BUCKETS,
    _BucketStore,
    _check_permutation,
    _collect_duplicates,
    _forms,
    _merge,
    _usual,
    iter_sum_blocks,
)
from reference_dealers import U, make_arrangement, merge_sequence, reference_labels, ur_coloring

SMALL_SPECS = (
    [FamilySpec(LATTICE, m, n) for m in range(1, 9) for n in range(1, 9)]
    + [FamilySpec(PRISM, m, n) for m in range(3, 9) for n in range(1, 7)]
)


def _column_sums(forms, span):
    """The (rows, cols) vertex sums of a sweep in spans of ``span`` rows, normalized orientation."""
    total = np.zeros((forms.rows, forms.cols), dtype=np.int64)
    for j, r0, sums in forms.columns(span, lambda block: None):
        total[r0 - 1 : r0 - 1 + sums.size, j - 1] = sums
    return total


@pytest.fixture
def fresh_forms():
    stream._forms_cached.cache_clear()
    yield
    stream._forms_cached.cache_clear()


# --- closed forms ---------------------------------------------------------


@pytest.mark.parametrize("size", range(2, 81))
def test_usual_formula_matches_coloring(size):
    colors = ur_coloring(make_arrangement(SKIP_PATH, size))
    for k in range(1, size):
        assert _usual(size, k) == (colors[k] == U)


@given(st.integers(min_value=2, max_value=3000), st.data())
@settings(max_examples=200, deadline=None)
def test_usual_formula_matches_coloring_hypothesis(size, data):
    k = data.draw(st.integers(min_value=1, max_value=size - 1))
    colors = ur_coloring(make_arrangement(SKIP_PATH, size))
    assert _usual(size, k) == (colors[k] == U)


@pytest.mark.parametrize("size", range(2, 65))
def test_usual_bit_form_matches_modular_form(size):
    ks = list(range(1, size + 4))
    want = [((k + 1) // 2 + (1 - k % 2) * size) % 2 == 1 for k in ks]
    assert [_usual(size, k) for k in ks] == want
    assert _usual(size, np.array(ks, dtype=np.int64)).tolist() == want


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=38),
)
@settings(max_examples=200, deadline=None)
def test_merge_value_matches_merge_sequence(m, extra):
    n = m + extra
    for p, want in enumerate(merge_sequence(m, n), start=1):
        assert _merge(m, n, p) == want


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_closed_form_matches_labeler(spec):
    lab = label(spec)
    for edge, value in lab.assignment.items():
        key = edge_key(spec, edge)
        assert closed_form_label(key) == value
        assert key.endpoints() == edge


def test_edge_key_rejects_non_edges():
    spec = FamilySpec(LATTICE, 3, 3)
    with pytest.raises(InvalidParameterError):
        edge_key(spec, ((1, 1), (2, 2)))  # diagonal
    with pytest.raises(InvalidParameterError):
        edge_key(spec, ((1, 1), (2, 1)))  # rows 1-2 not adjacent in skip listing
    for edge in (((1, 1), (1, 2), (1, 3)), ((1,), (1, 2)), (1, 2)):  # not a pair of (row, col) pairs
        with pytest.raises(InvalidParameterError, match=r"does not join two \(row, col\) pairs"):
            edge_key(spec, edge)
    with pytest.raises(InvalidParameterError):
        closed_form_label(EdgeKey(spec, "row", 99, 1))
    with pytest.raises(InvalidParameterError):
        closed_form_label(EdgeKey(FamilySpec(PATH, 5), "row", 1, 1))
    with pytest.raises(InvalidParameterError):
        closed_form_label(EdgeKey(spec, "diag", 1, 1))
    with pytest.raises(InvalidParameterError):
        EdgeKey(spec, "diag", 1, 1).endpoints()
    for bad in (1.0, 1.5, np.int64(1), True):  # k and pos must be ints, not bools
        for key in (EdgeKey(spec, "row", bad, 1), EdgeKey(spec, "row", 1, bad)):
            with pytest.raises(InvalidParameterError):
                closed_form_label(key)
            with pytest.raises(InvalidParameterError):
                key.endpoints()
    for bad in (1.0, True):  # so must every coordinate of an edge
        for edge in (((bad, 1), (3, 1)), ((1, bad), (3, 1)), ((1, 1), (bad, 1)), ((1, 1), (3, bad))):
            with pytest.raises(InvalidParameterError, match="must be an int"):
                edge_key(spec, edge)


@pytest.mark.parametrize(
    "bad",
    [
        FamilySpec(LATTICE, [1], 2),  # unhashable
        FamilySpec(LATTICE, 3.0, 3),  # equal to a cached valid spec
        FamilySpec(LATTICE, True, 2),
        FamilySpec(PATH, 5),
        FamilySpec(PRISM, 2, 3),
        FamilySpec(LATTICE, 1 << 31, 2),
    ],
)
def test_invalid_spec_raises_on_every_call(bad):
    # the spec check runs on a forms-cache miss; no bad spec may hit or slip past it
    for good in (FamilySpec(LATTICE, 3, 3), FamilySpec(LATTICE, 1, 2)):
        closed_form_label(EdgeKey(good, "row", 1, 1))
    refusals = (InvalidParameterError, SizeRefusalError)
    for _ in range(2):
        with pytest.raises(refusals):
            edge_key(bad, ((1, 1), (1, 2)))
        with pytest.raises(refusals):
            closed_form_label(EdgeKey(bad, "row", 1, 1))
        with pytest.raises(refusals):
            EdgeKey(bad, "row", 1, 1).endpoints()
        with pytest.raises(refusals):
            iter_labeled_edges(bad)
        with pytest.raises(refusals):
            iter_edge_blocks(bad, by_label=True)
        with pytest.raises(refusals):
            stream_verify(bad)


def test_forms_carry_the_spec_orientation_and_factors():
    # the one view of a spec: its own factor kinds, and whether its transpose is labeled
    specs = [FamilySpec(LATTICE, m, n) for m in range(1, 13) for n in range(1, 13)]
    specs += [FamilySpec(PRISM, m, n) for m in range(3, 13) for n in range(1, 13)]
    for spec in specs:
        forms = _forms(spec)
        assert forms.factors == factor_kinds(spec), spec
        assert forms.transposed == (spec.family == LATTICE and spec.m > spec.n), spec


def _n_limit(family, m):
    # the largest streamable n: edge_count() is 2mn + m + n for grids, 2mn + m for prisms
    return min(MAX_STREAM_DIMENSION, (MAX_STREAM_EDGES - m) // (2 * m + (family == LATTICE)))


@st.composite
def stream_specs(draw):
    """Lattice and prism specs up to the streaming limits, edge count included."""
    family = draw(st.sampled_from([LATTICE, PRISM]))
    m = draw(st.integers(min_value=1 if family == LATTICE else 3, max_value=MAX_STREAM_DIMENSION))
    return FamilySpec(family, m, draw(st.integers(min_value=1, max_value=_n_limit(family, m))))


@given(stream_specs(), st.data())
@example(FamilySpec(LATTICE, MAX_STREAM_DIMENSION, _n_limit(LATTICE, MAX_STREAM_DIMENSION)), None)
@example(FamilySpec(LATTICE, 1 << 29, _n_limit(LATTICE, 1 << 29)), None)
@example(FamilySpec(PRISM, MAX_STREAM_DIMENSION, _n_limit(PRISM, MAX_STREAM_DIMENSION)), None)
@example(FamilySpec(PRISM, 3, MAX_STREAM_DIMENSION), None)
@example(FamilySpec(LATTICE, 1, MAX_STREAM_DIMENSION), None)
@example(FamilySpec(PRISM, MAX_STREAM_DIMENSION, 1), None)
@settings(max_examples=200, deadline=None)
def test_forms_exact_at_huge_sizes(spec, data):
    # ints are exact, so an int64 wrap in the array path shows as a mismatch
    assert spec.edge_count() <= MAX_STREAM_EDGES
    forms = _forms(spec)
    first_edges = _factor_edge_count(forms.row_kind, forms.rows)
    second_edges = _factor_edge_count(forms.col_kind, forms.cols)

    def indices(high):
        if data is None:  # an explicit example: the corners
            return [1, high]
        return data.draw(st.lists(st.integers(min_value=1, max_value=high), min_size=1, max_size=4))

    def pairs(high_a, high_b):
        a, b = indices(high_a), indices(high_b)
        size = min(len(a), len(b))
        return a[:size], b[:size]

    for formula, orientation, (xs, ys) in (
        (forms.first, ROW, pairs(first_edges, forms.cols)),
        (forms.second, COL, pairs(forms.rows, second_edges)),
    ):
        labels = [formula(x, y) for x, y in zip(xs, ys)]
        assert all(type(v) is int and 1 <= v <= spec.edge_count() for v in labels)
        assert formula(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)).tolist() == labels
        for x, y, v in zip(xs, ys, labels):
            assert forms.invert(v) == ((True, x, y) if orientation == ROW else (False, y, x))
        inverted = forms.invert(np.array(labels, dtype=np.int64))
        assert list(zip(*(part.tolist() for part in inverted))) == [forms.invert(v) for v in labels]
    i, k = xs[0], ys[0]  # a second-factor edge, named in spec's own orientation
    key = EdgeKey(spec, ROW if forms.transposed else COL, k, i)
    assert edge_key(spec, key.endpoints()) == key
    assert closed_form_label(key) == labels[0]

    # canonical positions, with their neighbours: ints match arrays, and each copy names its edge
    factors, edges = factor_kinds(spec), spec.edge_count()
    at = sorted({p + d for p in indices(edges) for d in (-2, -1, 0) if 0 <= p + d < edges})
    copies = [_copy_at(*factors, p) for p in at]
    ends = [_copy_endpoints(*factors, *copy) for copy in copies]
    assert all(type(v) is int for end in ends for v in end)
    array_copies = _copy_at(*factors, np.array(at, dtype=np.int64))
    assert list(zip(*(part.tolist() for part in array_copies))) == copies
    assert list(zip(*(part.tolist() for part in _copy_endpoints(*factors, *array_copies)))) == ends
    for (first, k, pos), (r1, c1, r2, c2) in zip(copies, ends):
        assert edge_key(spec, ((r1, c1), (r2, c2))) == EdgeKey(spec, ROW if first else COL, k, pos)
    assert ends == sorted(set(ends))  # ascending with position, as build_graph lists the edges


def test_closed_form_label_allocates_nothing_of_side_length(fresh_forms):
    spec = FamilySpec(LATTICE, 1 << 24, 1 << 24)
    tracemalloc.start()
    try:
        closed_form_label(EdgeKey(spec, "row", 1 << 24, 1 << 24))
        closed_form_label(EdgeKey(spec, "col", 1 << 24, 1 << 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# --- iteration ------------------------------------------------------------


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_iteration_matches_graph_and_labeler(spec):
    lab = label(spec)
    graph = build_graph(spec)
    rows = list(iter_labeled_edges(spec))
    assert [((r1, c1), (r2, c2)) for r1, c1, r2, c2, _ in rows] == graph.edges
    assert {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in rows} == lab.assignment


@pytest.mark.parametrize("spec", SMALL_SPECS[:20] + SMALL_SPECS[-10:])
def test_by_label_iteration_is_inverse(spec):
    rows = list(iter_labeled_edges(spec, by_label=True))
    assert [v for *_, v in rows] == list(range(1, spec.edge_count() + 1))
    assert sorted(rows) == sorted(iter_labeled_edges(spec))


def test_by_label_needs_no_materialization():
    # far beyond the materialization cap; first few rows come out in O(1) each
    spec = FamilySpec(LATTICE, 50_000, 50_000)
    it = iter_labeled_edges(spec, by_label=True)
    lab = label(FamilySpec(LATTICE, 2, 2))  # unrelated warm-up, keeps flake risk nil
    first = [next(it) for _ in range(5)]
    assert [v for *_, v in first] == [1, 2, 3, 4, 5]
    for r1, c1, r2, c2, v in first:
        assert closed_form_label(edge_key(spec, ((r1, c1), (r2, c2)))) == v


@pytest.mark.parametrize("by_label", [False, True])
@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(LATTICE, 100_000, 100_000),
        FamilySpec(LATTICE, 1, 200_000),
        FamilySpec(LATTICE, 200_000, 2),
        FamilySpec(PRISM, 3, 200_000),
    ],
    ids=lambda spec: f"{spec.family}-{spec.m}x{spec.n}",
)
def test_edge_blocks_use_memory_independent_of_side_length(spec, by_label, fresh_forms):
    # blocks of 2k edges peak near 0.5 MB; one int64 per vertex of a 200000 side is 1.6 MB
    sizes = []
    tracemalloc.start()
    try:
        for block in itertools.islice(iter_edge_blocks(spec, by_label), 4):
            sizes.append(len(block))
            first = block[:3].tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert all(0 < size <= BLOCK_EDGES for size in sizes) and len(sizes) == 4
    for r1, c1, r2, c2, value in first:
        assert closed_form_label(edge_key(spec, ((r1, c1), (r2, c2)))) == value


def test_prism_blocks_pack_rows_like_grids():
    # blocks are position ranges in either order, so every block but the last is full
    for spec, count in ((FamilySpec(PRISM, 450, 450), 198), (FamilySpec(LATTICE, 450, 450), 199)):
        for by_label in (False, True):
            sizes = [len(block) for block in iter_edge_blocks(spec, by_label)]
            assert len(sizes) == count
            assert sizes[:-1] == [BLOCK_EDGES] * (count - 1)
            assert 0 < sizes[-1] <= BLOCK_EDGES


@pytest.mark.parametrize(
    "specs",
    [
        [FamilySpec(LATTICE, 400, 700), FamilySpec(LATTICE, 700, 400), FamilySpec(LATTICE, 1, 5000)],
        [FamilySpec(PRISM, 301, 500), FamilySpec(PRISM, 3, 4000), FamilySpec(PRISM, 500, 1)],
    ],
    ids=["lattice", "prism"],
)
def test_dealers_agree_with_stream_far_beyond_desk_scale(specs):
    # the reference dealers share no label formula with the closed forms, so this checks one
    # against the other; spans of 97 rows split every ring and the 401-row grid columns
    start = time.perf_counter()
    for spec in specs:
        lab = Labeling(build_graph(spec), reference_labels(spec))
        streamed = np.concatenate(list(iter_edge_blocks(spec)))
        assert np.array_equal(np.column_stack((lab.graph.edge_array, lab.labels)), streamed), spec
        assert np.array_equal(label(spec).labels, lab.labels), spec  # several ranges of positions
        forms = _forms(spec)
        sums = _column_sums(forms, 97)
        total = vertex_sums(lab).sums.reshape(spec.row_count(), spec.col_count())
        assert np.array_equal(total, sums.T if forms.transposed else sums), spec
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("block", [1, 2, 7, BLOCK_EDGES])
def test_sum_blocks_are_the_vertex_sums_in_vertex_order(block, monkeypatch):
    # tiny blocks cut rows into column ranges at every offset; whole rows fit otherwise
    monkeypatch.setattr(stream, "BLOCK_EDGES", block)
    for spec in SMALL_SPECS:
        lab = label(spec)
        blocks = list(iter_sum_blocks(spec))
        assert all(0 < len(rows) <= block for rows in blocks), spec
        want = np.column_stack((lab.graph.vertex_array, vertex_sums(lab).sums))
        assert np.array_equal(np.concatenate(blocks), want), spec


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(LATTICE, 3, 5000), FamilySpec(LATTICE, 5000, 3), FamilySpec(PRISM, 4000, 3), FamilySpec(PRISM, 3, 4000)],
    ids=str,
)
def test_sum_blocks_split_long_rows(spec):
    # 5001 and 4001 columns: each row is cut into column ranges of BLOCK_EDGES vertices
    lab = label(spec)
    blocks = list(iter_sum_blocks(spec))
    assert max(map(len, blocks)) <= BLOCK_EDGES
    want = np.column_stack((lab.graph.vertex_array, vertex_sums(lab).sums))
    assert np.array_equal(np.concatenate(blocks), want)


def test_sum_blocks_refuse_what_the_stream_refuses():
    with pytest.raises(InvalidParameterError, match="lattice and prism specs only"):
        next(iter_sum_blocks(FamilySpec(PATH, 5)))
    with pytest.raises(SizeRefusalError):
        next(iter_sum_blocks(FamilySpec(LATTICE, 3, MAX_STREAM_DIMENSION + 1)))


# --- streaming verification ----------------------------------------------


@pytest.mark.parametrize(
    "spec", SMALL_SPECS + [FamilySpec(LATTICE, 37, 100), FamilySpec(LATTICE, 100, 37), FamilySpec(PRISM, 301, 4)]
)
def test_streamed_column_sums_match_vertex_sums(spec):
    # verdicts alone would miss a block kernel that permutes labels inside a block; so each
    # column's kept blocks, in order, are checked against the scalar forms too
    total = vertex_sums(label(spec)).total
    forms = _forms(spec)
    count = _factor_edge_count(forms.row_kind, forms.rows)
    last = _factor_edge_count(forms.col_kind, forms.cols)
    # a span may end inside a factor edge's reach, or between a grid's rows and those past its merge head
    for span in (1, 2, 3, forms.rows):
        streamed, kept = {}, []
        for j, r0, column in forms.columns(span, kept.append):
            rows = range(r0, r0 + column.size)
            want = [[forms.first(k, j) for k in rows if k <= count]]
            want += [[forms.second(i, j) for i in rows]] if j <= last else []
            assert [block.tolist() for block in kept] == want, (span, j, r0)
            kept.clear()
            for i, value in zip(rows, column.tolist()):
                streamed[(j, i) if forms.transposed else (i, j)] = value
        assert streamed == total, span



@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_stream_verify_agrees_with_check(spec):
    sv = stream_verify(spec)
    ca = check_antimagic(label(spec))
    assert (sv.antimagic, sv.bijection_ok, sv.duplicate) == (
        ca.antimagic,
        ca.bijection_ok,
        ca.duplicate,
    )


def test_stream_verify_spills_and_agrees_under_tiny_chunks():
    spec = FamilySpec(LATTICE, 5, 7)
    stats = StreamStats()
    verdict = stream_verify(spec, chunk_target=8, stats=stats)
    assert verdict.antimagic
    assert stats.spill_files > 0
    assert stats.edges_labeled == spec.edge_count()
    assert stats.sums_checked == spec.vertex_count()
    assert stats.elapsed_seconds > 0


def test_stream_verify_live_state_stays_bounded():
    spec = FamilySpec(LATTICE, 8, 1500)
    chunk = 4096
    stats = StreamStats()
    assert stream_verify(spec, chunk_target=chunk, stats=stats).antimagic
    total_values = spec.edge_count() + spec.vertex_count()
    assert stats.peak_live_values < total_values / 3
    assert stats.peak_live_values <= 12 * chunk + 64 * (min(spec.m, spec.n) + 2)
    # the same instance transposed sweeps the short side too
    stats_t = StreamStats()
    assert stream_verify(FamilySpec(LATTICE, 1500, 8), chunk_target=chunk, stats=stats_t).antimagic
    assert stats_t.peak_live_values == stats.peak_live_values


# a prism column is the whole ring; the sweep splits it into row spans, so it meets the bound too
@pytest.mark.parametrize(
    "spec, chunk",
    [(FamilySpec(PRISM, 200_000, 2), DEFAULT_CHUNK_TARGET), (FamilySpec(PRISM, 3000, 2), 256)],
)
def test_stream_verify_live_state_stays_bounded_on_long_rings(spec, chunk):
    stats = StreamStats()
    assert stream_verify(spec, chunk_target=chunk, stats=stats).antimagic
    assert stats.peak_live_values <= 12 * chunk + 64 * (min(spec.m, spec.n) + 2)


def _verdict_fields(verdict):
    return verdict.antimagic, verdict.bijection_ok, verdict.missing_or_repeated_labels, verdict.duplicate


# chunk 4 sweeps these rings in spans of 8 (n + 2) rows; each swap makes two sums equal across a span cut
@pytest.mark.parametrize(
    "spec, swap, span", [(FamilySpec(PRISM, 57, 3), (1, 118), 40), (FamilySpec(PRISM, 57, 1), (1, 118), 24)]
)
def test_stream_verify_agrees_across_row_spans(spec, swap, span, fresh_forms, monkeypatch):
    assert _verdict_fields(stream_verify(spec, chunk_target=4)) == _verdict_fields(check_antimagic(label(spec)))
    forms = _forms(spec)
    for remap in (_bump(spec.edge_count()), _swap(*swap)):
        monkeypatch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), _faulty(type(forms), remap))
        stream._forms_cached.cache_clear()
        lab = Labeling(build_graph(spec), {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in iter_labeled_edges(spec)})
        expected = check_antimagic(lab)
        assert not expected.antimagic
        assert _verdict_fields(stream_verify(spec, chunk_target=4)) == _verdict_fields(expected)
    (r1, _), (r2, _) = expected.duplicate
    assert (r1 - 1) // span != (r2 - 1) // span


# the counts the sweep and both stores report; a path's two degree-1 rows count, a ring has none
@pytest.mark.parametrize(
    "spec, chunk_target, peak, spills",
    [
        (FamilySpec(LATTICE, 1, 7), 4, 25, 9),
        (FamilySpec(LATTICE, 7, 1), DEFAULT_CHUNK_TARGET, 48, 0),
        (FamilySpec(LATTICE, 5, 7), 4, 40, 31),
        (FamilySpec(PRISM, 5, 1), 4, 31, 6),
        (FamilySpec(PRISM, 8, 6), DEFAULT_CHUNK_TARGET, 192, 0),
    ],
)
def test_stream_verify_accounting_is_pinned(spec, chunk_target, peak, spills):
    stats = StreamStats()
    assert stream_verify(spec, chunk_target=chunk_target, stats=stats).antimagic
    assert (stats.peak_live_values, stats.spill_files) == (peak, spills)


# every value spills once, as 4-byte words; int64 files would take twice as many bytes
@pytest.mark.parametrize(
    "spec, chunk_target, spill_bytes",
    [
        (FamilySpec(LATTICE, 5, 7), 4, 520),
        (FamilySpec(LATTICE, 7, 1), DEFAULT_CHUNK_TARGET, 0),
        (FamilySpec(PRISM, 5, 1), 4, 100),
        (FamilySpec(PRISM, 300, 300), DEFAULT_CHUNK_TARGET, 1_082_400),
        (FamilySpec(LATTICE, 2000, 2000), DEFAULT_CHUNK_TARGET, 48_032_004),
    ],
)
def test_stream_verify_spill_bytes_are_pinned(spec, chunk_target, spill_bytes):
    stats = StreamStats()
    assert stream_verify(spec, chunk_target=chunk_target, stats=stats).antimagic
    assert stats.spill_bytes == spill_bytes


def _faulty(construction, remap):
    class Faulty(construction):
        def first(self, k, j):
            return remap(super().first(k, j))

        def second(self, i, k):
            return remap(super().second(i, k))

    return Faulty


def _bump(top):
    # 3 missing and 4 repeated; the top label moves out of range
    return lambda lab: lab + (lab == 3) + (lab == top)


def _swap(a, b):
    return lambda lab: lab + (lab == a) * (b - a) + (lab == b) * (a - b)


# each swap makes two vertex sums equal; at chunk 4 the last two need more than
# RUN_BUCKETS buckets per store, so they spill sorted runs and the swapped sums meet mid-range
@pytest.mark.parametrize(
    "spec, swap",
    [
        (FamilySpec(LATTICE, 4, 6), (1, 7)),
        (FamilySpec(LATTICE, 6, 4), (1, 7)),
        (FamilySpec(LATTICE, 1, 6), (1, 2)),
        (FamilySpec(LATTICE, 1, 1), (1, 2)),
        (FamilySpec(PRISM, 5, 4), (1, 3)),
        (FamilySpec(PRISM, 5, 1), (1, 2)),
        (FamilySpec(LATTICE, 12, 12), (156, 159)),
        (FamilySpec(PRISM, 13, 9), (123, 124)),
    ],
)
@pytest.mark.parametrize("chunk_target", [4, DEFAULT_CHUNK_TARGET])
def test_stream_verify_reports_injected_faults(spec, swap, chunk_target, fresh_forms, monkeypatch):
    forms = _forms(spec)
    kinds = forms.row_kind, forms.col_kind
    for remap, broken in ((_bump(spec.edge_count()), "bijection"), (_swap(*swap), "sums")):
        monkeypatch.setitem(stream._CONSTRUCTIONS, kinds, _faulty(type(forms), remap))
        stream._forms_cached.cache_clear()
        graph = build_graph(spec)
        lab = Labeling(graph, {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in iter_labeled_edges(spec)})
        expected = check_antimagic(lab)
        assert not expected.antimagic
        assert (expected.duplicate is not None) == (broken == "sums")
        got = stream_verify(spec, chunk_target=chunk_target)
        assert (got.antimagic, got.bijection_ok, got.missing_or_repeated_labels, got.duplicate) == (
            expected.antimagic,
            expected.bijection_ok,
            expected.missing_or_repeated_labels,
            expected.duplicate,
        )


# at the default chunk a grid sweeps whole columns from its per-span terms: 40x41 and 41x40 (odd
# n) and 41x42 (even n) deal every second-factor row below the merge head; once n - m >= 2 the
# last row of the later columns is past it and takes _merge itself, and the swap moves one of its labels
@pytest.mark.parametrize(
    "spec, swap",
    [
        (FamilySpec(LATTICE, 40, 41), (1, 7)),
        (FamilySpec(LATTICE, 41, 40), (1, 7)),
        (FamilySpec(LATTICE, 41, 42), (1, 7)),
        (FamilySpec(LATTICE, 40, 43), (1, 3522)),
        (FamilySpec(LATTICE, 44, 41), (2, 3692)),
    ],
    ids=str,
)
def test_stream_verify_reports_faults_injected_into_the_grid_sweep(spec, swap, fresh_forms, monkeypatch):
    forms = _forms(spec)
    m, n, rows = forms.m, forms.n, forms.rows
    head = m * n + (m + n + 1) // 2 - (n - m) // 2
    below = [sum((i - 1) * n + k <= head for i in range(1, rows + 1)) for k in range(1, n + 1)]
    assert any(0 < count < rows for count in below) == (n - m >= 2)
    merge, past_head = stream._merge, []

    def counting(m, n, p):
        if type(p) is int:  # a swept row past the head; the other paths this test runs pass arrays
            past_head.append(p)
        return merge(m, n, p)

    monkeypatch.setattr(stream, "_merge", counting)
    for remap, broken in ((_bump(spec.edge_count()), "bijection"), (_swap(*swap), "sums")):
        expected = check_antimagic(_faulty_labeling(spec, _faulty(type(forms), remap), monkeypatch))
        assert (expected.antimagic, expected.duplicate is not None) == (False, broken == "sums")
        assert _verdict_fields(stream_verify(spec)) == _verdict_fields(expected)
    assert bool(past_head) == (n - m >= 2)


# labels at -1 and 2**32 widen both stores to int64, after some buckets spilled; at chunk 4
# lattice 12x12 (78 label and 43 sum buckets) and prism 13x9 spill runs, and the sum store
# widens after its first runs, so the run file is rewritten as int64 under its index
@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(LATTICE, 4, 6),
        FamilySpec(LATTICE, 1, 6),
        FamilySpec(PRISM, 5, 4),
        FamilySpec(LATTICE, 12, 12),
        FamilySpec(PRISM, 13, 9),
    ],
)
@pytest.mark.parametrize("chunk_target", [4, DEFAULT_CHUNK_TARGET])
def test_stream_verify_reports_labels_outside_uint32(spec, chunk_target, fresh_forms, monkeypatch):
    stores = []
    monkeypatch.setattr(stream, "_BucketStore", lambda *args: stores.append(_BucketStore(*args)) or stores[-1])
    forms = _forms(spec)
    low, high = 2, spec.edge_count() - 1
    moved = _faulty(type(forms), lambda lab: lab - (lab == low) * (low + 1) + (lab == high) * ((1 << 32) - high))
    monkeypatch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), moved)
    stream._forms_cached.cache_clear()
    lab = Labeling(build_graph(spec), {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in iter_labeled_edges(spec)})
    values = sorted(lab.assignment.values())
    assert (values[0], values[-1]) == (-1, 1 << 32)
    expected = check_antimagic(lab)
    got = stream_verify(spec, chunk_target=chunk_target)
    assert (got.antimagic, got.bijection_ok, got.missing_or_repeated_labels, got.duplicate) == (
        expected.antimagic,
        expected.bijection_ok,
        expected.missing_or_repeated_labels,
        expected.duplicate,
    )
    label_store, sum_store = stores
    assert label_store.dtype == sum_store.dtype == np.int64
    if chunk_target == 4 and spec.m >= 12:
        assert min(label_store.nbuckets, sum_store.nbuckets) > RUN_BUCKETS
        assert label_store.per_file > 1 and sum_store.per_file > 1
        # more than 8 bytes a value: uint32 runs were written, then rewritten as int64
        assert sum_store.written > 8 * sum_store.count


# only label E-1 moves to 2**32, so the label store widens late, after it spilled most of its
# runs; the rewrite holds one chunk of a file at a time, not the whole file
def test_late_widening_keeps_live_state_bounded(fresh_forms, monkeypatch):
    spec, chunk = FamilySpec(LATTICE, 40, 40), 16
    forms = _forms(spec)
    high = spec.edge_count() - 1
    moved = _faulty(type(forms), lambda lab: lab + (lab == high) * ((1 << 32) - high))
    monkeypatch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), moved)
    stream._forms_cached.cache_clear()
    lab = Labeling(build_graph(spec), {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in iter_labeled_edges(spec)})
    expected = check_antimagic(lab)
    stats = StreamStats()
    assert _verdict_fields(stream_verify(spec, chunk_target=chunk, stats=stats)) == _verdict_fields(expected)
    assert not expected.bijection_ok
    assert stats.peak_live_values <= 12 * chunk + 64 * (min(spec.m, spec.n) + 2)


# a thin ring at chunk 256 fills each 3,516-label bucket with 13.7 chunks, and its sums cluster;
# buckets of more than two buffers are re-scattered into child stores, so live state stays bounded
def test_stream_verify_thin_ring_stays_within_the_live_bound():
    spec, chunk = FamilySpec(PRISM, 600_000, 1), 256
    stats = StreamStats()
    assert stream_verify(spec, chunk_target=chunk, stats=stats).antimagic
    assert stats.peak_live_values <= 12 * chunk + 64 * (min(spec.m, spec.n) + 2)  # 3,264
    assert stats.spill_files > 2  # the two run stores' files, and the children's


# preallocated uint32 buffers, buckets near one chunk and checked by an in-place sort: what the
# run allocates stays near two buffers and one bucket, where int64 blocks and bitmaps took 2-3 MB
@pytest.mark.parametrize("spec", [FamilySpec(PRISM, 200_000, 2), FamilySpec(PRISM, 2000, 2000)], ids=str)
def test_stream_verify_traced_peak_stays_under_one_megabyte(spec):
    stream_verify(FamilySpec(PRISM, 5, 1))  # warm-up: lazy imports and first-call caches
    tracemalloc.start()
    try:
        assert stream_verify(spec).antimagic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


# a store of more than RUN_BUCKETS buckets cuts its sum buckets over these two closed forms
def test_sum_bounds_are_the_least_and_greatest_vertex_sums():
    for family, ms, ns in ((LATTICE, range(1, 41), range(1, 41)), (PRISM, range(3, 41), range(1, 41))):
        for m, n in itertools.product(ms, ns):
            spec = FamilySpec(family, m, n)
            sums = vertex_sums(label(spec)).sums
            assert _forms(spec).sum_bounds() == (sums.min(), sums.max()), spec


# the four nominal perfbench stream_verify shapes, then thin, square and near-square ones
LARGE_SHAPES = [(LATTICE, 2000, 2000), (LATTICE, 3000, 1000), (PRISM, 2000, 2000), (PRISM, 200000, 2)] + [
    (LATTICE, 1, 5000), (LATTICE, 5000, 1), (LATTICE, 300, 301),
    (PRISM, 5000, 1), (PRISM, 5000, 2), (PRISM, 3, 3000), (PRISM, 301, 300),
]


@pytest.mark.parametrize(("family", "m", "n"), LARGE_SHAPES)
def test_sum_bounds_hold_beyond_40x40(family, m, n):
    spec = FamilySpec(family, m, n)
    lows, highs = zip(*((int(block[:, 2].min()), int(block[:, 2].max())) for block in iter_sum_blocks(spec)))
    assert _forms(spec).sum_bounds() == (min(lows), max(highs))


def _faulty_labeling(spec, construction, monkeypatch):
    forms = _forms(spec)
    monkeypatch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), construction)
    stream._forms_cached.cache_clear()
    return Labeling(build_graph(spec), {((r1, c1), (r2, c2)): v for r1, c1, r2, c2, v in iter_labeled_edges(spec)})


# at chunk 4 these stores cut their sum buckets over the faulty forms' own bounds; label 1 moved
# off vertex (1, 1) and the top label moved down leave sums below the least and above the
# greatest, which land in the end buckets; label 1 swapped with 123 or 111 repeats a sum, with 166 not
@pytest.mark.parametrize(
    "spec, low",
    [(FamilySpec(PRISM, 13, 9), 123), (FamilySpec(LATTICE, 14, 11), 111), (FamilySpec(LATTICE, 14, 11), 166)],
    ids=str,
)
def test_stream_verify_agrees_when_sums_leave_the_cut(spec, low, fresh_forms, monkeypatch):
    top, forms = spec.edge_count(), _forms(spec)
    moves = (_swap(1, low), _swap(top, top // 3 + 1))
    lab = _faulty_labeling(spec, _faulty(type(forms), lambda v: moves[1](moves[0](v))), monkeypatch)
    least, greatest = _forms(spec).sum_bounds()
    sums = vertex_sums(lab).sums
    assert sums.min() < least and sums.max() > greatest
    assert spec.vertex_count() > RUN_BUCKETS * 4
    assert _verdict_fields(stream_verify(spec, chunk_target=4)) == _verdict_fields(check_antimagic(lab))


# sum bounds stretched eightfold put every sum in the lowest eighth of the buckets, so buckets of
# about eight chunks are re-scattered into child stores (at chunk 4 prism 10000x1's 59-label
# buckets are too); verdicts, issue lists and duplicate pairs stay those of check_antimagic
@pytest.mark.parametrize(
    "spec, chunk, swap",
    [
        (FamilySpec(LATTICE, 50, 50), 64, (1700, 1702)),
        (FamilySpec(PRISM, 50, 50), 64, (1683, 1686)),
        (FamilySpec(PRISM, 10_000, 1), 4, (10_000, 10_003)),
    ],
    ids=str,
)
def test_stream_verify_agrees_with_re_scattered_buckets(spec, chunk, swap, fresh_forms, monkeypatch):
    construction = type(_forms(spec))
    for remap, broken in ((lambda v: v, None), (_bump(spec.edge_count()), "bijection"), (_swap(*swap), "sums")):

        class Stretched(_faulty(construction, remap)):
            def sum_bounds(self):
                least, greatest = super().sum_bounds()
                return least, greatest + 7 * (greatest - least)

        expected = check_antimagic(_faulty_labeling(spec, Stretched, monkeypatch))
        assert (expected.antimagic, expected.duplicate is not None) == (broken is None, broken == "sums")
        stats = StreamStats()
        assert _verdict_fields(stream_verify(spec, chunk_target=chunk, stats=stats)) == _verdict_fields(expected)
        assert stats.spill_files > 2  # a run file per store, and each child's
        assert stats.peak_live_values <= 12 * chunk + 64 * (min(spec.m, spec.n) + 2)


def _descriptors_under(directory, pid="self"):
    """``{fd: target}`` for the process's open descriptors whose target lies under ``directory``.

    An anonymous spill file shows as ``<directory>/#<inode> (deleted)``, like pytest's own capture
    files, so a check compares these before and after a call rather than matching a name.
    """
    targets = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            targets[fd] = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # the descriptor listdir itself used, or one closed meanwhile
            pass
    prefix = os.path.join(os.path.realpath(directory), "")
    return {fd: target for fd, target in targets.items() if target.startswith(prefix)}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_stream_verify_closes_spill_files_on_error(fresh_forms, monkeypatch):
    forms = _forms(FamilySpec(LATTICE, 5, 7))

    class Miscounting(type(forms)):
        def columns(self, span, keep):
            for j, r0, sums in super().columns(span, keep):
                yield j, r0, np.concatenate((sums, sums))

    monkeypatch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), Miscounting)
    stream._forms_cached.cache_clear()
    # at chunk 4, lattice 5x7 spills a file per bucket and lattice 12x12 one run file per store
    for spec in (FamilySpec(LATTICE, 5, 7), FamilySpec(LATTICE, 12, 12)):
        before = _descriptors_under(tempfile.gettempdir())
        with pytest.raises(AssertionError, match="miscounted") as excinfo:
            stream_verify(spec, chunk_target=4)
        # the traceback keeps the stores alive, so only closing them releases the files
        assert excinfo.traceback and _descriptors_under(tempfile.gettempdir()) == before


# a stream whose buffers never fill opens no file and makes no directory; one that spills opens
# exactly the files it counts
def test_stream_verify_touches_no_disk_until_a_buffer_fills(monkeypatch):
    real, opened, stats = tempfile.TemporaryFile, [], StreamStats()

    def no_disk(*args, **kwargs):
        raise AssertionError("touched the disk")

    monkeypatch.setattr(tempfile, "mkdtemp", no_disk)
    monkeypatch.setattr(tempfile, "TemporaryFile", no_disk)
    assert stream_verify(FamilySpec(LATTICE, 20, 20)).antimagic
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: opened.append(None) or real())
    assert stream_verify(FamilySpec(LATTICE, 5, 7), chunk_target=4, stats=stats).antimagic
    assert len(opened) == stats.spill_files == 31


# spill files are anonymous, so a run killed mid-spill leaves no file or directory behind.  The
# child settles its temporary directory before it runs bench and says so: Python's first look at
# TMPDIR writes and removes a probe file of its own there, which a kill could catch.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd")
def test_killed_bench_leaves_nothing_in_the_temporary_directory(tmp_path):
    package_root = os.path.dirname(os.path.dirname(stream.__file__))
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    )
    code = "import sys, tempfile; tempfile.gettempdir(); print(flush=True); from antimagic.cli import main; main()"
    argv = [sys.executable, "-c", code, "bench", "lattice", "3000", "3000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        try:
            proc.stdout.readline()
            deadline = time.monotonic() + 120
            while not _descriptors_under(tmp_path, proc.pid):  # until the child holds a spill file
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()  # the child alone; leaving the block waits for it
    assert os.listdir(tmp_path) == []


# past RUN_BUCKETS buckets a store keeps one run file, so bench runs under a descriptor limit
# of 64; one file per bucket would take 866 here.  The limit is lowered in the child only.
def test_bench_spills_two_files_under_a_low_open_file_limit():
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    limit = 64 if hard == resource.RLIM_INFINITY else min(64, hard)
    package_root = os.path.dirname(os.path.dirname(stream.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "antimagic.cli", "bench", "lattice", "300", "300", "--chunk-target", "256"],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard)),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "antimagic: yes" and "spill files: 2" in lines


def test_stream_verify_leaves_no_sweep_arrays_behind(fresh_forms):
    stream_verify(FamilySpec(PRISM, 5, 1))  # warm-up: lazy imports and first-call caches
    spec = FamilySpec(PRISM, 400_000, 1)
    tracemalloc.start()
    try:
        assert stream_verify(spec).antimagic
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the forms stay cached for closed_form_label, without the sweep's ring-long arrays
    assert stream._forms_cached.cache_info().currsize == 2
    assert held < 1 << 20


@pytest.mark.parametrize("chunk_target", [0, -5, 2.5, "8", True])
def test_stream_verify_rejects_chunk_target_below_one(chunk_target):
    with pytest.raises(InvalidParameterError):
        stream_verify(FamilySpec(LATTICE, 3, 3), chunk_target=chunk_target)


@pytest.mark.parametrize("spec", SMALL_SPECS[::7])
def test_column_label_arrays_match_scalar_forms(spec):
    forms = _forms(spec)
    seen, blocks = [], []
    for j, _, _ in forms.columns(forms.rows, blocks.append):
        first, *second = blocks
        blocks.clear()
        assert first.tolist() == [forms.first(k, j) for k in range(1, first.size + 1)]
        if j < forms.cols:
            assert second[0].tolist() == [forms.second(i, j) for i in range(1, forms.rows + 1)]
        seen += [v for block in (first, *second) for v in block.tolist()]
    assert sorted(seen) == list(range(1, spec.edge_count() + 1))


# the array paths keep nothing between calls: an unsorted index array, and the same array
# after it changed in place, get the scalar forms' labels
@pytest.mark.parametrize(
    "spec",
    [FamilySpec(LATTICE, 37, 100), FamilySpec(LATTICE, 100, 37), FamilySpec(PRISM, 301, 4), FamilySpec(PRISM, 30, 7)],
    ids=str,
)
def test_array_forms_match_scalar_forms_on_any_index_array(spec):
    forms = _forms(spec)
    rng = np.random.default_rng(0)
    edges = rng.permutation(_factor_edge_count(forms.row_kind, forms.rows)) + 1
    rows = rng.permutation(forms.rows) + 1
    columns, second = (1, 2, forms.cols), (1, 2, _factor_edge_count(forms.col_kind, forms.cols))
    for _ in range(2):
        for j in columns:
            assert forms.first(edges, j).tolist() == [forms.first(k, j) for k in edges.tolist()]
        for k in second:
            assert forms.second(rows, k).tolist() == [forms.second(i, k) for i in rows.tolist()]
        edges.sort()
        rows[:] = rows[::-1].copy()


def test_stream_verify_family_and_size_guards():
    with pytest.raises(InvalidParameterError):
        stream_verify(FamilySpec(PATH, 5))
    with pytest.raises(SizeRefusalError):
        stream_verify(FamilySpec(LATTICE, 1 << 31, 2))
    with pytest.raises(SizeRefusalError):
        stream_verify(FamilySpec(LATTICE, 1 << 30, 1 << 30))
    with pytest.raises(SizeRefusalError):
        iter_labeled_edges(FamilySpec(LATTICE, 1 << 31, 2))


# --- bucket machinery -----------------------------------------------------


# chunk targets of 1, exactly the number of values added, one more than that,
# and well past it; 2 spills and still holds the last value of an odd count
FLUSH_BOUNDARIES = [1, 2, "exact", "over", 1000]


def resolve_chunk_target(chunk_target, count):
    return {"exact": count, "over": count + 1}.get(chunk_target, chunk_target)


def run_permutation_check(values, n, chunk_target):
    chunk_target = resolve_chunk_target(chunk_target, len(values))
    with _BucketStore(len(values), n + 1, chunk_target) as store:
        for start in range(0, len(values), 2):
            store.add(np.array(values[start : start + 2], dtype=np.int64))
        assert (store.spills == 0) == (len(values) < chunk_target)  # the buffer never filled
        return _check_permutation(store, n)


@pytest.mark.parametrize("chunk_target", FLUSH_BOUNDARIES)
def test_permutation_check_detects_issues(chunk_target):
    ok, issues = run_permutation_check([3, 1, 2, 5, 4], 5, chunk_target)
    assert ok and issues == []
    ok, issues = run_permutation_check([3, 1, 3, 5, 4], 5, chunk_target)
    assert not ok
    assert 3 in issues and 2 in issues  # 3 repeated, 2 missing
    ok, issues = run_permutation_check([3, 1, 2, 9, 4], 5, chunk_target)
    assert not ok
    assert 9 in issues and 5 in issues  # 9 out of range, 5 missing
    ok, _ = run_permutation_check([1, 2, 3], 5, chunk_target)
    assert not ok


@pytest.mark.parametrize("chunk_target", FLUSH_BOUNDARIES)
def test_duplicate_collection(chunk_target):
    chunk_target = resolve_chunk_target(chunk_target, 8)
    with _BucketStore(8, 101, chunk_target) as store:
        store.add(np.array([7, 40, 100, 13], dtype=np.int64))
        store.add(np.array([40, 2, 100, 100], dtype=np.int64))
        assert (store.spills == 0) == (8 < chunk_target)
        assert _collect_duplicates(store) == [40, 100]
        assert store.peak > 0


VALUES_OUTSIDE = [0, -1, 1 << 32, -(1 << 40)]


@st.composite
def multisets(draw, max_n=30):
    """``(n, values)``: part of a permutation of 1..n plus repeats and strays, shuffled.

    At most 30 of 1..n are left out, so no bucket has more missing values
    than the 32 a check names.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(min_value=max(0, n - 30), max_value=n))]
    extra = st.one_of(st.integers(min_value=-2, max_value=n + 2), st.sampled_from([n + 1, *VALUES_OUTSIDE]))
    values += draw(st.lists(extra, max_size=8))
    assume(values)
    return n, draw(st.permutations(values))


def filled_store(values, upper, chunk_target, expected=None):
    store = _BucketStore(expected or len(values), upper, chunk_target)
    for start in range(0, len(values), 3):
        store.add(np.array(values[start : start + 3], dtype=np.int64))
    return store


# sized for 400 values at chunk 4, a run store; its buffer never fills, so it opens no file
def test_run_store_whose_buffer_never_fills_reads_the_buffer():
    with filled_store([300, 7, 300], 401, 4, expected=400) as store:
        assert _collect_duplicates(store) == [300]
    with filled_store([300, 7, 300], 401, 4, expected=400) as store:
        # each 5-wide bucket names all its missing values, and 300 is repeated
        assert _check_permutation(store, 400) == (False, [v for v in range(1, 401) if v != 7])
        assert store.per_file > 1 and store.spills == 0


# the same values in a store of RUN_BUCKETS buckets, a file each, and in one of a bucket more,
# one file for all: every bucket spills, and the checks read back the same buckets
def test_stores_either_side_of_the_file_threshold_agree():
    values = [150 if v == 7 else v for v in range(1, 160)] + [200]  # 7 missing, 150 repeated, 200 outside
    values = np.random.default_rng(0).permutation(values).tolist()
    results = []
    for nbuckets in (RUN_BUCKETS, RUN_BUCKETS + 1):
        with filled_store(values, 160, 4, expected=4 * nbuckets) as store:
            permutation = _check_permutation(store, 159)
            files = (len(store.files), store.spills)
        with filled_store(values, 160, 4, expected=4 * nbuckets) as store:
            results.append((files, permutation, _collect_duplicates(store)))
    (files_per_bucket, *per_bucket), (files_one, *one) = results
    assert (files_per_bucket, files_one) == ((RUN_BUCKETS, RUN_BUCKETS), (1, 1))
    assert per_bucket == one == [(False, [7, 150, 200]), [150]]


# a batch thousands of buffers long fills the buffer piece by piece, and a bucket spilled in
# batches far past the chunk is re-scattered into a child that takes each run slice in one batch
def test_store_takes_batches_far_past_its_buffer():
    with _BucketStore(5000, 5001, 1) as store:  # a buffer of two values
        store.add(np.arange(1, 5001, dtype=np.int64))
        assert (store.peak, store.runs) == (2, 2500)
        assert _check_permutation(store, 5000) == (True, [])
    for repeats in ([], [7777]):
        values = np.arange(1, 12_001, dtype=np.int64)
        values[[v - 2 for v in repeats]] = repeats  # 7776 becomes 7777
        with _BucketStore(12_000, 512 * 20_000, 1, most=5000) as store:  # 12,000 in bucket 0; limit 10,002
            for start in range(0, 12_000, 5000):
                store.add(values[start : start + 5000])
            assert _collect_duplicates(store) == repeats
            assert store.spills == 2 and store.peak <= 2 * 5000 + 1  # the run file and the child's


# at chunk 1 every batch spills a run of its own; the index is sized for those batches, where
# sizing it for one run per value reserved 22 MB of it here
def test_stream_verify_run_index_is_sized_for_the_batches():
    stream_verify(FamilySpec(PRISM, 5, 1))  # warm-up: lazy imports and first-call caches
    tracemalloc.start()
    try:
        assert stream_verify(FamilySpec(LATTICE, 120, 120), chunk_target=1).antimagic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.parametrize("chunk_target", FLUSH_BOUNDARIES)
@given(multisets())
@settings(max_examples=150, deadline=None)
def test_bucket_checks_match_unique_reference(chunk_target, case):
    n, values = case
    check_against_unique_reference(n, values, resolve_chunk_target(chunk_target, len(values)))


# up to 300 values at chunk targets 1-4: most stores need more than RUN_BUCKETS buckets and spill runs
@given(multisets(max_n=300), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_run_store_checks_match_unique_reference(case, chunk_target):
    n, values = case
    check_against_unique_reference(n, values, chunk_target)


def check_against_unique_reference(n, values, chunk_target):
    unique, counts = np.unique(values, return_counts=True)
    present = set(unique.tolist())
    repeated = unique[counts > 1].tolist()
    outside = [v for v in present if not 1 <= v <= n]
    wide = any(not 0 <= v < 1 << 32 for v in values)
    with filled_store(values, n + 1, chunk_target) as store:
        ok, issues = _check_permutation(store, n)
        assert store.dtype == (np.int64 if wide else np.uint32)
    assert ok == (len(values) == n and present == set(range(1, n + 1)))
    assert issues == sorted({*repeated, *outside, *(set(range(1, n + 1)) - present)})
    with filled_store(values, n + 1, chunk_target) as store:
        assert _collect_duplicates(store) == repeated

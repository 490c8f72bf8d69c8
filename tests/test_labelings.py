"""Construction correctness: frozen sum values, coloring and merge oracles."""

import tracemalloc

import numpy as np
import pytest

from antimagic import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    InvalidParameterError,
    build_graph,
    check_antimagic,
    label,
    vertex_sums,
)
from antimagic import labelings
from antimagic.families import SKIP_PATH, _materialize
from antimagic.labelings import Labeling
from reference_dealers import R, U, canonical_edge, make_arrangement, merge_sequence, reference_labels, ur_coloring


def sums_by_row(spec):
    total = vertex_sums(label(spec)).total
    rows = spec.row_count()
    cols = spec.col_count()
    return [[total[(r, c)] for c in range(1, cols + 1)] for r in range(1, rows + 1)]


# --- U/R coloring ---------------------------------------------------------


@pytest.mark.parametrize("size", range(2, 41))
def test_ur_coloring_alternates_along_traversal(size):
    arr = make_arrangement(SKIP_PATH, size)
    colors = ur_coloring(arr)
    assert set(colors) == set(range(1, size))
    listing = arr.edge_listing_index()
    walk = [
        listing[tuple(sorted(pair))]
        for pair in zip(arr.traversal, arr.traversal[1:])
    ]
    seen = [colors[k] for k in walk]
    assert seen[0] == U
    assert all(a != b for a, b in zip(seen, seen[1:]))


def test_ur_coloring_frozen_small_sizes():
    frozen = {
        3: {1: U, 2: R},
        4: {1: U, 3: R, 2: U},
        5: {1: U, 3: R, 4: U, 2: R},
        6: {1: U, 3: R, 5: U, 4: R, 2: U},
    }
    for size, want in frozen.items():
        assert ur_coloring(make_arrangement(SKIP_PATH, size)) == want


def test_ur_coloring_wants_skip_path():
    with pytest.raises(InvalidParameterError):
        ur_coloring(make_arrangement("consecutive-path", 4))


# --- merge sequence -------------------------------------------------------


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 6), (3, 5), (4, 4), (5, 9), (7, 8)])
def test_merge_sequence_against_set_arithmetic(m, n):
    c = merge_sequence(m, n)
    upper = 2 * m * n + m + n
    odds = [x for x in range(1, upper + 1) if x % 2 == 1]
    evens = [x for x in range(2 * m * n + 2 * m + 1, upper + 1) if x % 2 == 0]
    s, t = len(odds), len(evens)
    assert s == m * n + (m + n + 1) // 2
    assert t == (n - m) // 2
    assert len(c) == m * n + n == s + t
    assert sorted(c) == sorted(odds + evens)
    head = s - t
    assert c[:head] == odds[:head]
    # after the head, evens and the remaining odds alternate, even first
    tail = c[head:]
    assert tail[0::2] == evens
    assert tail[1::2] == odds[head:]
    if tail:
        assert c[-1] == odds[-1]


def test_merge_sequence_frozen_2_6():
    assert merge_sequence(2, 6) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 30, 29, 32, 31]


def test_merge_sequence_requires_wide_grid():
    with pytest.raises(InvalidParameterError):
        merge_sequence(3, 2)
    with pytest.raises(InvalidParameterError):
        merge_sequence(1, 5)


# --- paths and cycles -----------------------------------------------------


def test_path_frozen_sums_m5():
    assert sums_by_row(FamilySpec(PATH, 5)) == [[1], [2], [4], [6], [8], [9]]


@pytest.mark.parametrize("m", range(2, 31))
def test_path_sum_table(m):
    total = vertex_sums(label(FamilySpec(PATH, m))).total
    want = {1: 1, 2: 2, m + 1: 2 * m - 1}
    for i in range(3, m + 1):
        want[i] = 2 * i - 2
    assert {i: total[(i, 1)] for i in range(1, m + 2)} == want


def test_cycle_frozen_sums_m5():
    assert sums_by_row(FamilySpec(CYCLE, 5)) == [[3], [4], [6], [8], [9]]


@pytest.mark.parametrize("m", range(3, 31))
def test_cycle_sum_table(m):
    total = vertex_sums(label(FamilySpec(CYCLE, m))).total
    want = {1: 3, m: 2 * m - 1}
    for i in range(2, m):
        want[i] = 2 * i
    assert {i: total[(i, 1)] for i in range(1, m + 1)} == want


# --- grids ----------------------------------------------------------------


def test_lattice_2x2_frozen_sums():
    assert sums_by_row(FamilySpec(LATTICE, 2, 2)) == [
        [3, 8, 9],
        [17, 22, 15],
        [23, 34, 25],
    ]


def test_lattice_2x4_frozen_sums():
    assert sums_by_row(FamilySpec(LATTICE, 2, 4)) == [
        [3, 8, 14, 20, 17],
        [29, 38, 40, 42, 27],
        [39, 58, 63, 65, 43],
    ]


def test_lattice_2x2_component_split():
    report = vertex_sums(label(FamilySpec(LATTICE, 2, 2)))
    comp1 = [[report.component1[(r, c)] for c in (1, 2, 3)] for r in (1, 2, 3)]
    comp2 = [[report.component2[(r, c)] for c in (1, 2, 3)] for r in (1, 2, 3)]
    assert comp1 == [[2, 4, 6], [12, 10, 8], [14, 14, 14]]
    assert comp2 == [[1, 4, 3], [5, 12, 7], [9, 20, 11]]


def test_thin_grid_frozen_sums_n2():
    assert sums_by_row(FamilySpec(LATTICE, 1, 2)) == [[6, 9, 11], [7, 10, 13]]


@pytest.mark.parametrize("n", range(2, 11))
def test_thin_grid_second_component_tables(n):
    report = vertex_sums(label(FamilySpec(LATTICE, 1, n)))
    row1 = {1: 1, 2: 3, n + 1: 4 * n - 4}
    row2 = {1: 2, 2: 4, n + 1: 4 * n - 2}
    for j in range(3, n + 1):
        row1[j] = 4 * j - 6
        row2[j] = 4 * j - 4
    assert {j: report.component2[(1, j)] for j in range(1, n + 2)} == row1
    assert {j: report.component2[(2, j)] for j in range(1, n + 2)} == row2


def test_thin_grid_rung_labels():
    lab = label(FamilySpec(LATTICE, 1, 4))
    for j in range(1, 6):
        assert lab.assignment[((1, j), (2, j))] == 8 + j


def test_unit_grid_frozen():
    lab = label(FamilySpec(LATTICE, 1, 1))
    assert lab.assignment == {
        ((1, 1), (1, 2)): 2,
        ((1, 1), (2, 1)): 1,
        ((1, 2), (2, 2)): 4,
        ((2, 1), (2, 2)): 3,
    }
    assert sums_by_row(FamilySpec(LATTICE, 1, 1)) == [[3, 6], [4, 7]]


def swap_indices(lab):
    """Every edge of ``lab`` with the two coordinates of both endpoints swapped."""
    return {canonical_edge((c1, r1), (c2, r2)): v for ((r1, c1), (r2, c2)), v in lab.assignment.items()}


def test_tall_grid_labels_match_transposed_wide_grid():
    tall = label(FamilySpec(LATTICE, 5, 3))
    wide = label(FamilySpec(LATTICE, 3, 5))
    assert set(tall.assignment) == set(build_graph(FamilySpec(LATTICE, 5, 3)).edges)
    assert swap_indices(wide) == tall.assignment
    assert vertex_sums(tall).sums.reshape(6, 4).tolist() == vertex_sums(wide).sums.reshape(4, 6).T.tolist()


@pytest.mark.parametrize("shape", [(5, 3), (6, 1)])
def test_tall_grid_builds_one_graph(shape, monkeypatch):
    built = []

    def counting(spec, *rest):
        built.append(spec)
        return _materialize(spec, *rest)

    monkeypatch.setattr(labelings, "_materialize", counting)
    label(FamilySpec(LATTICE, *shape))
    assert built == [FamilySpec(LATTICE, *shape)]


def test_transpose_rejects_wrong_target():
    swapped = swap_indices(label(FamilySpec(LATTICE, 3, 5)))
    assert set(swapped) != set(build_graph(FamilySpec(LATTICE, 3, 5)).edges)


# --- prisms ---------------------------------------------------------------


def test_prism_3x2_frozen_sums_and_modified_ring():
    assert sums_by_row(FamilySpec(PRISM, 3, 2)) == [
        [13, 26, 40],
        [15, 24, 41],
        [17, 22, 42],
    ]
    lab = label(FamilySpec(PRISM, 3, 2))
    assert lab.assignment[((1, 2), (2, 2))] == 6
    assert lab.assignment[((1, 2), (3, 2))] == 5
    assert lab.assignment[((2, 2), (3, 2))] == 4


def test_prism_3x3_frozen_sums():
    assert sums_by_row(FamilySpec(PRISM, 3, 3)) == [
        [16, 25, 49, 58],
        [18, 27, 50, 59],
        [20, 29, 51, 60],
    ]


def test_prism_5x3_frozen_vertical_labels():
    lab = label(FamilySpec(PRISM, 5, 3))
    assert lab.assignment[((1, 1), (1, 3))] == 21
    assert lab.assignment[((1, 3), (1, 4))] == 35


def test_prism_odd_n_keeps_second_layer_ascending():
    total = vertex_sums(label(FamilySpec(PRISM, 4, 3))).total
    layer2 = [total[(i, 2)] for i in range(1, 5)]
    assert layer2 == sorted(layer2)


def test_prism_even_n_reverses_second_layer():
    total = vertex_sums(label(FamilySpec(PRISM, 4, 2))).total
    layer2 = [total[(i, 2)] for i in range(1, 5)]
    assert layer2 == sorted(layer2, reverse=True)


def test_two_layer_prism_frozen_sums_m3():
    assert sums_by_row(FamilySpec(PRISM, 3, 1)) == [[11, 13], [14, 16], [17, 19]]


@pytest.mark.parametrize("m", range(3, 11))
def test_two_layer_prism_first_component_tables(m):
    report = vertex_sums(label(FamilySpec(PRISM, m, 1)))
    layer1 = {1: 4, m: 4 * m - 4}
    layer2 = {1: 6, m: 4 * m - 2}
    for i in range(2, m):
        layer1[i] = 4 * i - 2
        layer2[i] = 4 * i
    assert {i: report.component1[(i, 1)] for i in range(1, m + 1)} == layer1
    assert {i: report.component1[(i, 2)] for i in range(1, m + 1)} == layer2


# --- cross-family invariants ----------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(PATH, 9), FamilySpec(CYCLE, 9)]
    + [FamilySpec(LATTICE, m, n) for m in (1, 2, 3, 6) for n in (1, 2, 3, 6)]
    + [FamilySpec(PRISM, m, n) for m in (3, 4, 7) for n in (1, 2, 3, 4)]
    + [FamilySpec(PATH, 70_000), FamilySpec(CYCLE, 70_000)],
)
def test_labels_form_bijection_and_antimagic(spec):
    lab = label(spec)
    graph = build_graph(spec)
    assert set(lab.assignment) == set(graph.edges)
    assert sorted(lab.assignment.values()) == list(range(1, spec.edge_count() + 1))
    assert check_antimagic(lab).antimagic
    if spec.family in (PATH, CYCLE):  # listing order, also past the first range of 65,536 positions
        assert np.array_equal(lab.labels, np.arange(1, spec.edge_count() + 1))


def test_label_peaks_near_the_arrays_it_keeps():
    # graph and labels are filled range by range, so no temporary spans every edge
    tracemalloc.start()
    try:
        lab = label(FamilySpec(LATTICE, 300, 400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    graph = lab.graph
    kept = sum(a.nbytes for a in (graph.edge_array, graph.vertex_array, graph.ends, lab.labels))
    assert peak <= 1.25 * kept, (peak, kept)


@pytest.mark.parametrize(
    "family,m", [(LATTICE, m) for m in range(1, 51)] + [(PRISM, m) for m in range(3, 51)]
)
def test_label_matches_reference_dealers(family, m):
    # label() reads the closed forms; the dealers derive the labels block by block from the
    # U/R coloring and the merge sequence, sharing no label formula with them
    for n in range(1, 51):
        spec = FamilySpec(family, m, n)
        assert np.array_equal(label(spec).labels, reference_labels(spec)), spec


def test_label_rejects_invalid_spec():
    with pytest.raises(InvalidParameterError):
        label(FamilySpec(PATH, 1))


@pytest.mark.parametrize(
    "values,fragment",
    [
        ((1.9, 2.2), "must be an int, got 1.9"),
        ((1, 2.0), "must be an int, got 2.0"),
        ((True, 2), "must be an int, got True"),
        (("1", 2), "must be an int, got '1'"),
        ((2**70, 1), f"label {2**70} is outside the 64-bit integer range"),
        ((1, -(2**70)), f"label {-(2**70)} is outside the 64-bit integer range"),
        ((1 << 63, -1), f"label {1 << 63} is outside the 64-bit integer range"),
    ],
)
def test_mapping_labels_must_be_int64_ints(values, fragment):
    # no truncation (1.9 -> 1, "1" -> 1, True -> 1) and no numpy OverflowError
    graph = build_graph(FamilySpec(PATH, 2))
    with pytest.raises(InvalidParameterError, match=fragment):
        Labeling(graph, dict(zip(graph.edges, values)))
    # a mapping that adds an edge is checked too
    with pytest.raises(InvalidParameterError, match=fragment):
        Labeling(graph, {**dict(zip(graph.edges, values)), ((9, 9), (9, 10)): 3})


def test_mapping_labels_at_the_int64_bounds_are_kept():
    graph = build_graph(FamilySpec(PATH, 2))
    lab = Labeling(graph, dict(zip(graph.edges, ((1 << 63) - 1, -(1 << 63)))))
    assert lab.labels.tolist() == [(1 << 63) - 1, -(1 << 63)]


@pytest.mark.parametrize(
    "labels",
    [np.arange(1, 3), np.arange(1, 5).reshape(2, 2), np.array([1.0, 1.5, 3.0]), np.array([1, 2, 3], dtype=np.uint64)],
    ids=["short", "2-D", "float", "uint64"],
)
def test_array_labels_must_be_one_int64_per_edge(labels):
    # refused up front: not a broadcast ValueError in check_antimagic, and no float label
    graph = build_graph(FamilySpec(PATH, 3))
    with pytest.raises(InvalidParameterError, match="one int64 per edge"):
        Labeling(graph, labels)


def test_narrow_integer_array_labels_become_int64():
    graph = build_graph(FamilySpec(PATH, 3))
    lab = Labeling(graph, np.array([1, 2, 3], dtype=np.int32))
    assert lab.labels.dtype == np.int64
    assert check_antimagic(lab).antimagic

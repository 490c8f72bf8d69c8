"""Verifier behavior: verdicts, certificates, and structural property checks."""

import random

import pytest

from antimagic import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    InvalidParameterError,
    Labeling,
    build_graph,
    check_antimagic,
    check_paper_properties,
    graph_from_edges,
    k2_graph,
    label,
    vertex_sums,
)
from antimagic.verification import _chain_check


def cycle6_labeling(values):
    """An explicit 6-cycle on vertices (i, 1) with the given edge values."""
    ring = [((i, 1), (i + 1, 1)) for i in range(1, 6)] + [((1, 1), (6, 1))]
    edges = sorted(tuple(sorted(e)) for e in ring)
    graph = graph_from_edges(edges)
    order = [((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (4, 1)),
             ((4, 1), (5, 1)), ((5, 1), (6, 1)), ((1, 1), (6, 1))]
    return Labeling(graph, dict(zip(order, values)))


def test_vertex_sums_requires_full_cover():
    lab = label(FamilySpec(PATH, 4))
    partial = Labeling(lab.graph, dict(list(lab.assignment.items())[:-1]))
    with pytest.raises(InvalidParameterError):
        vertex_sums(partial)
    extra = dict(lab.assignment)
    extra[((9, 9), (9, 10))] = 99
    with pytest.raises(InvalidParameterError):
        vertex_sums(Labeling(lab.graph, extra))


def test_vertex_sums_stay_exact_beyond_int64():
    # int64 labels whose sums at degree-2 vertices pass the int64 range
    lab = label(FamilySpec(PATH, 4))
    big = {edge: (1 << 62) + value for edge, value in lab.assignment.items()}
    want = dict.fromkeys(lab.graph.vertices, 0)
    for (a, b), value in big.items():
        want[a] += value
        want[b] += value
    assert max(want.values()) >= 1 << 63
    assert vertex_sums(Labeling(lab.graph, big)).total == want


def test_check_antimagic_accepts_construction():
    verdict = check_antimagic(label(FamilySpec(LATTICE, 3, 4)))
    assert verdict.antimagic and verdict.bijection_ok
    assert verdict.duplicate is None
    assert verdict.missing_or_repeated_labels == []


def test_k2_is_not_antimagic():
    verdict = check_antimagic(Labeling(k2_graph(), {((1, 1), (2, 1)): 1}))
    assert not verdict.antimagic
    assert verdict.bijection_ok
    assert verdict.duplicate == ((1, 1), (2, 1))


def test_duplicate_certificate_is_lex_first_pair():
    # sums: v1=6, v2=5, v3=6, v4=5, v5=9, v6=11; two collisions
    verdict = check_antimagic(cycle6_labeling([1, 4, 2, 3, 6, 5]))
    assert not verdict.antimagic
    assert verdict.duplicate == ((1, 1), (3, 1))


def test_broken_bijection_short_circuits():
    lab = label(FamilySpec(PATH, 3))
    bad = dict(lab.assignment)
    first_edge = lab.graph.edges[0]
    bad[first_edge] = 7  # out of range; label at that value also now missing
    verdict = check_antimagic(Labeling(lab.graph, bad))
    assert not verdict.antimagic and not verdict.bijection_ok
    assert verdict.duplicate is None
    assert 7 in verdict.missing_or_repeated_labels
    assert lab.assignment[first_edge] in verdict.missing_or_repeated_labels


def test_repeated_label_reported():
    lab = label(FamilySpec(PATH, 3))
    bad = dict(lab.assignment)
    e1, e2 = lab.graph.edges[0], lab.graph.edges[1]
    bad[e1] = bad[e2]
    verdict = check_antimagic(Labeling(lab.graph, bad))
    assert not verdict.bijection_ok
    assert bad[e1] in verdict.missing_or_repeated_labels


def test_verdict_serialization():
    verdict = check_antimagic(cycle6_labeling([1, 4, 2, 3, 6, 5]))
    doc = verdict.to_json_dict()
    assert doc["antimagic"] is False
    assert doc["duplicate"] == [[1, 1], [3, 1]]
    text = "\n".join(verdict.to_text_lines())
    assert "antimagic: no" in text
    assert "(1,1)" in text and "(3,1)" in text


# --- property reports -----------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(PATH, 8), FamilySpec(CYCLE, 8)]
    + [FamilySpec(LATTICE, m, n) for m, n in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (7, 3), (4, 4)]]
    + [FamilySpec(PRISM, m, n) for m, n in [(3, 1), (6, 1), (3, 2), (5, 4), (4, 5)]],
)
def test_properties_pass_on_constructions(spec):
    report = check_paper_properties(spec, label(spec))
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_property_names_for_wide_grid():
    report = check_paper_properties(FamilySpec(LATTICE, 4, 6), label(FamilySpec(LATTICE, 4, 6)))
    names = [c.name for c in report.checks]
    assert names == [
        "interior-sums-even",
        "interior-even-chain",
        "boundary-sums-odd",
        "boundary-odd-distinct",
        "even-m-anchor-swap",
    ]
    assert not report.transposed


def test_property_names_for_prism():
    report = check_paper_properties(FamilySpec(PRISM, 3, 2), label(FamilySpec(PRISM, 3, 2)))
    names = [c.name for c in report.checks]
    assert names == [
        "layer-1-chain",
        "layer-2-reversed-chain",
        "layer-3-chain",
        "layers-ascending-blocks",
    ]
    odd = check_paper_properties(FamilySpec(PRISM, 3, 3), label(FamilySpec(PRISM, 3, 3)))
    assert [c.name for c in odd.checks] == [
        "layer-1-chain",
        "layer-2-chain",
        "layer-3-chain",
        "layer-4-chain",
        "layers-ascending-blocks",
    ]


def test_anchor_check_only_for_even_m():
    report = check_paper_properties(FamilySpec(LATTICE, 3, 5), label(FamilySpec(LATTICE, 3, 5)))
    assert "even-m-anchor-swap" not in [c.name for c in report.checks]


def test_mutated_labeling_fails_with_certificate():
    spec = FamilySpec(LATTICE, 2, 3)
    lab = label(spec)
    swapped = dict(lab.assignment)
    e1, e2 = lab.graph.edges[0], lab.graph.edges[-1]
    swapped[e1], swapped[e2] = swapped[e2], swapped[e1]
    report = check_paper_properties(spec, Labeling(lab.graph, swapped))
    assert not report.all_passed
    failed = [c for c in report.checks if not c.passed]
    assert all(c.certificate is not None for c in failed)


def test_transposed_certificates_use_caller_coordinates():
    spec = FamilySpec(LATTICE, 6, 2)
    lab = label(spec)
    swapped = dict(lab.assignment)
    e1, e2 = lab.graph.edges[0], lab.graph.edges[-1]
    swapped[e1], swapped[e2] = swapped[e2], swapped[e1]
    report = check_paper_properties(spec, Labeling(lab.graph, swapped))
    assert report.transposed
    for check in report.checks:
        if check.certificate and "vertices" in check.certificate:
            for r, c in check.certificate["vertices"]:
                assert 1 <= r <= 7 and 1 <= c <= 3
        if check.certificate and "vertex" in check.certificate:
            r, c = check.certificate["vertex"]
            assert 1 <= r <= 7 and 1 <= c <= 3


@pytest.mark.parametrize("m,n", [(6, 2), (7, 3), (9, 4)])
def test_transposed_certificates_hold_their_sums(m, n):
    spec = FamilySpec(LATTICE, m, n)
    lab = label(spec)
    rng = random.Random(m * n)
    pairs = [(0, -1)] + [(rng.randrange(len(lab.labels)), rng.randrange(len(lab.labels))) for _ in range(40)]
    checked = set()
    for i, j in pairs:
        labels = lab.labels.copy()
        labels[[i, j]] = labels[[j, i]]
        tampered = Labeling(lab.graph, labels)
        total = vertex_sums(tampered).total
        for check in check_paper_properties(spec, tampered).checks:
            cert = check.certificate or {}
            if "vertex" in cert:
                assert total[tuple(cert["vertex"])] == cert["sum"]
            if "vertices" in cert:
                sums = cert["sums"] if "sums" in cert else [cert["sum"]] * 2
                assert [total[tuple(v)] for v in cert["vertices"]] == sums
            checked.update([check.name] if cert else [])
    assert {"interior-even-chain", "boundary-sums-odd"} <= checked
    assert ("even-m-anchor-swap" in checked) == (n % 2 == 0)


def test_properties_reject_foreign_labeling():
    lab = label(FamilySpec(LATTICE, 2, 2))
    with pytest.raises(InvalidParameterError):
        check_paper_properties(FamilySpec(LATTICE, 2, 3), lab)


def test_empty_chain_passes_with_note():
    check = _chain_check("sample", [], {})
    assert check.passed and check.note == "empty range"


def test_report_serialization():
    spec = FamilySpec(PRISM, 4, 2)
    report = check_paper_properties(spec, label(spec))
    doc = report.to_json_dict()
    assert doc["family"] == PRISM and doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]][1] == "layer-2-reversed-chain"
    lines = report.to_text_lines()
    assert lines[-1] == "PASS overall"
    assert all(line.startswith("PASS") for line in lines)

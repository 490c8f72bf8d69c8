"""Brute-force oracle: frozen counts, prune equivalence, seeded sampling."""

import itertools
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
    SizeRefusalError,
    build_graph,
    check_antimagic,
    exhaustive_search,
    k2_graph,
    label,
    random_search,
)
from antimagic import oracle

# (family spec or None for K2) -> (labelings, antimagic labelings), both frozen
FROZEN_COUNTS = [
    (None, 1, 0),
    (FamilySpec(PATH, 2), 2, 2),
    (FamilySpec(PATH, 3), 6, 2),
    (FamilySpec(PATH, 4), 24, 6),
    (FamilySpec(PATH, 5), 120, 16),
    (FamilySpec(CYCLE, 3), 6, 6),
    (FamilySpec(CYCLE, 4), 24, 8),
    (FamilySpec(CYCLE, 5), 120, 30),
    (FamilySpec(LATTICE, 1, 1), 24, 8),
    (FamilySpec(LATTICE, 1, 2), 5040, 1212),
]


def graph_and_reference(spec):
    if spec is None:
        return k2_graph(), None
    return build_graph(spec), label(spec)


@pytest.mark.parametrize("spec,total,hits", FROZEN_COUNTS)
def test_frozen_exhaustive_counts(spec, total, hits):
    graph, ref = graph_and_reference(spec)
    result = exhaustive_search(graph, reference=ref)
    assert result.total_labelings_checked == total
    assert result.antimagic_count == hits
    if ref is not None:
        assert result.contains_constructed is True
    if hits:
        assert check_antimagic(result.first_antimagic).antimagic


@pytest.mark.parametrize("spec,total,hits", FROZEN_COUNTS)
def test_prune_preserves_count_and_first(spec, total, hits):
    graph, ref = graph_and_reference(spec)
    full = exhaustive_search(graph, reference=ref)
    pruned = exhaustive_search(graph, reference=ref, prune=True)
    assert pruned.antimagic_count == full.antimagic_count
    assert pruned.total_labelings_checked <= full.total_labelings_checked
    assert pruned.contains_constructed == full.contains_constructed
    if full.first_antimagic is None:
        assert pruned.first_antimagic is None
    else:
        assert pruned.first_antimagic.assignment == full.first_antimagic.assignment


def test_first_antimagic_is_lex_first():
    graph = build_graph(FamilySpec(PATH, 4))
    result = exhaustive_search(graph)
    edges = graph.edges
    expected = next(
        perm
        for perm in itertools.permutations(range(1, 5))
        if check_antimagic(Labeling(graph, dict(zip(edges, perm)))).antimagic
    )
    assert tuple(result.first_antimagic.assignment[e] for e in edges) == expected


def test_contains_constructed_false_for_bad_reference():
    graph = k2_graph()
    ref = Labeling(graph, {graph.edges[0]: 1})
    result = exhaustive_search(graph, reference=ref)
    assert result.contains_constructed is False


def test_reference_must_cover_graph():
    graph = build_graph(FamilySpec(PATH, 3))
    with pytest.raises(InvalidParameterError):
        exhaustive_search(graph, reference=label(FamilySpec(PATH, 4)))


def test_exhaustive_refuses_large_graph():
    with pytest.raises(SizeRefusalError):
        exhaustive_search(build_graph(FamilySpec(LATTICE, 2, 2)))


def test_random_search_refuses_above_its_cap(monkeypatch):
    graph = build_graph(FamilySpec(CYCLE, 5))
    monkeypatch.setattr(oracle, "MAX_RANDOM_EDGES", 4)
    with pytest.raises(SizeRefusalError, match="random search over 5 edges; the cap is 4 edges"):
        random_search(graph, 1, seed=0)
    monkeypatch.setattr(oracle, "MAX_RANDOM_EDGES", 5)
    assert random_search(graph, 1, seed=0).total_labelings_checked == 1


def test_random_search_reproducible():
    graph = build_graph(FamilySpec(CYCLE, 4))
    a = random_search(graph, 50, seed=7)
    b = random_search(graph, 50, seed=7)
    assert a.total_labelings_checked == b.total_labelings_checked == 50
    assert a.antimagic_count == b.antimagic_count == 10
    assert a.first_antimagic.assignment == b.first_antimagic.assignment


def test_random_search_matches_documented_shuffle():
    graph = build_graph(FamilySpec(CYCLE, 5))
    ne = len(graph.edges)
    for seed in range(6):
        rng = random.Random(seed)
        values = list(range(1, ne + 1))
        for i in range(ne - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            values[i], values[j] = values[j], values[i]
        lab = Labeling(graph, dict(zip(graph.edges, values)))
        expected_hit = check_antimagic(lab).antimagic
        result = random_search(graph, 1, seed=seed)
        assert result.antimagic_count == (1 if expected_hit else 0)
        if expected_hit:
            assert result.first_antimagic.assignment == lab.assignment


def test_random_search_trial_bounds():
    graph = k2_graph()
    assert random_search(graph, 0, seed=1).total_labelings_checked == 0
    with pytest.raises(InvalidParameterError):
        random_search(graph, -1, seed=1)

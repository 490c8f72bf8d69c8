"""Frozen sha256 of every text format the writers emit, on every small spec.

The digests were recorded from the materialized writers before the command line
wrote lattices and prisms block by block from the closed forms, so they pin the
command line's json, tsv in both orders and dot, and the library writers, to the
same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from antimagic import FamilySpec, label, labeling_to_dot, labeling_to_json
from antimagic.cli import main
from antimagic.formats import labeling_tsv_rows, tsv_text

DIGESTS = json.loads((Path(__file__).parent / "output_digests.json").read_text())
FLAGS = {
    "json": ["--format", "json"],
    "tsv": ["--format", "tsv"],
    "tsv --by-label": ["--format", "tsv", "--by-label"],
    "dot": ["--format", "dot"],
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_cover_the_small_spec_matrix():
    want = [f"path {m}" for m in range(2, 13)] + [f"cycle {m}" for m in range(3, 13)]
    want += [f"lattice {m} {n}" for m in range(1, 13) for n in range(1, 13)]
    want += [f"prism {m} {n}" for m in range(3, 13) for n in range(1, 13)]
    assert list(DIGESTS) == want
    assert all(list(formats) == list(FLAGS) for formats in DIGESTS.values())


@pytest.mark.parametrize("key", DIGESTS)
def test_generated_texts_match_frozen_digests(capsys, key):
    family, *sizes = key.split()
    lab = label(FamilySpec(family, *map(int, sizes)))
    library = {
        "json": labeling_to_json(lab),
        "tsv": tsv_text(labeling_tsv_rows(lab)),
        "tsv --by-label": tsv_text(labeling_tsv_rows(lab, by_label=True)),
        "dot": labeling_to_dot(lab),
    }
    for name, flags in FLAGS.items():
        assert main(["generate", *key.split(), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert sha256(captured.out) == sha256(library[name]) == DIGESTS[key][name], name

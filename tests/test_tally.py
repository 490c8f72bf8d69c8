"""`verify` and `properties --input` check a writer's file from label counts and vertex sums.

Every outcome must equal the library path's: ``check_antimagic(parse_labeling(text))`` and
``check_paper_properties`` on the parsed labeling, with the same stdout, stderr and exit code,
whether the file is named, piped, or declined by the block checker and parsed whole.
"""

import contextlib
import io
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    LATTICE,
    PRISM,
    FamilySpec,
    FormatError,
    Labeling,
    check_antimagic,
    check_paper_properties,
    label,
    labeling_to_json,
    parse_labeling,
    vertex_sums,
)
from antimagic import formats, stream
from antimagic.cli import main
from antimagic.formats import labeling_blocks, labeling_tsv_rows, text_blocks, tsv_text
from antimagic.verification import Tally

FAULTS = ("none", "collision", "repeated", "zero", "above", "huge", "header", "reversed")
# the block checker gives these to the slow read; a TSV in any row order is tallied
DECLINED = {"json": ("header", "reversed"), "tsv": ()}


class _Pipe(io.StringIO):
    """A stdin that cannot seek, so it is read whole first."""

    def seekable(self):
        return False


def _collision(lab, rng):
    """Labels with two swapped so that two vertex sums collide; a shape without such a swap fails, not hangs."""
    for _ in range(1000):
        i, j = rng.sample(range(len(lab.labels)), 2)
        labels = lab.labels.copy()
        labels[[i, j]] = labels[[j, i]]
        if check_antimagic(Labeling(lab.graph, labels)).duplicate is not None:
            return labels
    raise AssertionError("no swap made two sums collide")


def faulty_text(spec, fmt, fault, rng):
    """The writer's ``fmt`` text of ``spec``'s labeling with ``fault`` made in it."""
    lab = label(spec)
    labels = lab.labels.copy()
    at = rng.randrange(len(labels))
    if fault == "collision":
        labels = _collision(lab, rng)
    elif fault == "repeated":
        labels[at] = labels[(at + 1) % len(labels)]
    elif fault in ("zero", "above", "huge"):
        labels[at] = {"zero": 0, "above": len(labels) + 1, "huge": (1 << 32) + at}[fault]
    lab = Labeling(lab.graph, labels)
    if fmt == "tsv":
        rows = labeling_tsv_rows(lab)
        return tsv_text(rows[::-1] if fault == "reversed" else rows)
    if fault == "reversed":
        header, edges, sums = labeling_blocks(lab)
        return "".join(text_blocks("json", header, [np.concatenate(list(edges))[::-1]], sums))
    text = labeling_to_json(lab)
    if fault == "header":  # a lattice's transpose has as many edges, but other ones
        swap = spec.family == LATTICE and spec.m != spec.n
        other = {**spec.header(), "m": spec.n, "n": spec.m} if swap else {**spec.header(), "n": spec.n + 1}
        text = text.replace(json.dumps(spec.header())[1:-1], json.dumps(other)[1:-1], 1)
    return text


def library_outcomes(text):
    """``{argv: (code, out, err)}`` the command line must give on a file holding ``text``, from the library path alone."""
    try:
        lab = parse_labeling(text)
    except FormatError as exc:
        return dict.fromkeys(COMMANDS, (3, "", f"antimagic: {exc}\n"))
    outcomes = {}
    for command in COMMANDS:
        if command[0] == "properties" and lab.spec is None:
            outcomes[command] = 2, "", "antimagic: input has no family header; properties need one\n"
            continue
        report = check_antimagic(lab) if command[0] == "verify" else check_paper_properties(lab.spec, lab)
        passed = report.antimagic if command[0] == "verify" else report.all_passed
        out = json.dumps(report.to_json_dict(), indent=2) if "json" in command else "\n".join(report.to_text_lines())
        outcomes[command] = 0 if passed else 1, out + "\n", ""
    return outcomes


COMMANDS = (("verify",), ("verify", "--format", "json"), ("properties", "--input"), ("properties", "--format", "json", "--input"))


def cli_outcome(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as patch:
        if stdin is not None:
            patch.setattr("sys.stdin", stdin)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_cli_equals_library(text, path):
    """Every command of COMMANDS on ``text`` as a file, and ``verify`` of it on a pipe; whether the checker declined it."""
    path.write_text(text)
    want = library_outcomes(text)
    for command in COMMANDS:
        assert cli_outcome([*command, str(path)]) == want[command], command
    assert cli_outcome(["verify", "-"], _Pipe(text)) == want[("verify",)]
    try:
        return not isinstance(formats._read(lambda: iter([text]), lambda: text, tally=True), Tally)
    except FormatError:
        return True


SMALL = st.one_of(
    st.builds(FamilySpec, st.just(LATTICE), st.integers(1, 6), st.integers(1, 6)),
    st.builds(FamilySpec, st.just(PRISM), st.integers(3, 7), st.integers(1, 5)),
)


@given(spec=SMALL, fmt=st.sampled_from(["json", "tsv"]), fault=st.sampled_from(FAULTS), seed=st.integers(0, 99))
@settings(max_examples=150, deadline=None)
def test_small_faulty_files_check_as_the_library_does_hypothesis(tmp_path_factory, spec, fmt, fault, seed):
    if fault == "collision" and spec.edge_count() < 3:
        fault = "repeated"  # one or two edges: no swap moves a sum
    text = faulty_text(spec, fmt, fault, random.Random(seed))
    declined = assert_cli_equals_library(text, tmp_path_factory.mktemp("tally") / f"input.{fmt}")
    if fault != "header" or fmt == "json":
        assert declined == (fault in DECLINED[fmt]), fault


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("family", [LATTICE, PRISM])
@pytest.mark.parametrize("fault", FAULTS)
def test_large_faulty_files_check_as_the_library_does(tmp_path, family, fmt, fault):
    if fault == "header" and fmt == "tsv":
        pytest.skip("a TSV file has no header")
    spec = FamilySpec(family, 161, 162)
    text = faulty_text(spec, fmt, fault, random.Random(f"{family}-{fmt}-{fault}"))
    assert assert_cli_equals_library(text, tmp_path / f"input.{fmt}") == (fault in DECLINED[fmt])


EDGE_FAULTS = ("none", "collision", "repeated-edge", "self-loop", "swapped-endpoints", "truncated", "diagonal")


def faulty_tsv(spec, order, fault, rng):
    """The TSV text of ``spec``'s labeling with its rows in ``order`` ("by-label" or "shuffled") and ``fault`` made in one."""
    lab = label(spec)
    if fault == "collision":
        lab = Labeling(lab.graph, _collision(lab, rng))
    rows = labeling_tsv_rows(lab, by_label=order == "by-label")
    if order == "shuffled":
        rows = rows[rng.sample(range(len(rows)), len(rows))]
    at, other = rng.sample(range(len(rows)), 2)
    if fault == "repeated-edge":
        rows[at, :4] = rows[other, :4]
    elif fault == "self-loop":
        rows[at, 2:4] = rows[at, :2]
    elif fault == "swapped-endpoints":
        rows[at, :4] = rows[at, [2, 3, 0, 1]]
    elif fault == "diagonal":  # an offset of (1, 1) within the file's bounds
        at = rng.choice(np.flatnonzero((rows[:, 0] < rows[:, 0].max()) & (rows[:, 1] < rows[:, 1].max())).tolist())
        rows[at, 2:4] = rows[at, :2] + 1
    text = tsv_text(rows)
    return text[: text.rfind("\t")] if fault == "truncated" else text


@pytest.mark.parametrize("order", ["by-label", "shuffled"])
@pytest.mark.parametrize("family", [LATTICE, PRISM])
@pytest.mark.parametrize("fault", EDGE_FAULTS)
def test_tsv_files_in_any_row_order_check_as_the_library_does(tmp_path, family, order, fault):
    spec = FamilySpec(family, 161, 162)
    text = faulty_tsv(spec, order, fault, random.Random(f"{family}-{order}-{fault}"))
    # only a writer's rows, in whatever order, are tallied; every other fault is the slow read's
    assert assert_cli_equals_library(text, tmp_path / "input.tsv") == (fault not in ("none", "collision"))


@pytest.mark.parametrize(("copy", "cut"), [(None, 6), (2, 12), (5, 6)], ids=["none", "one-block", "two-blocks"])
def test_a_repeated_edge_is_declined_within_one_block_and_across_two(copy, cut):
    """Row 9 repeats row ``copy`` of a by-label file, appended as the rows before ``cut`` and those after."""
    rows = labeling_tsv_rows(label(FamilySpec(LATTICE, 3, 4)), by_label=True)
    if copy is not None:
        rows[9, :4] = rows[copy, :4]
    extent = formats._Extent()
    extent.append(rows)
    counts = extent.done()
    counts.append(rows[:cut])
    counts.append(rows[cut:])
    if copy is None:
        assert isinstance(counts.done(), Tally)
    else:
        with pytest.raises(formats._NotWriter):
            counts.done()


def test_tally_counts_labels_and_sums_as_the_labeling_does():
    spec = FamilySpec(PRISM, 7, 4)
    lab = label(spec)
    for text in (labeling_to_json(lab), tsv_text(labeling_tsv_rows(lab))):
        tally = formats._read(lambda text=text: iter([text]), lambda text=text: text, tally=True)
        assert isinstance(tally, Tally)
        assert tally.counts.dtype == np.uint8 and (tally.counts[1:] == 1).all() and not tally.outside.size
        assert np.array_equal(tally.sums, vertex_sums(lab).sums)
        assert [tally.vertex(i) for i in range(len(tally.sums))] == lab.graph.vertices


class _Counted(io.StringIO):
    """A seekable file that counts the characters its reads return."""

    chars = 0

    def read(self, size=-1):
        text = super().read(size)
        self.chars += len(text)
        return text


@pytest.mark.parametrize(
    ("form", "passes", "pieces", "tallied"),
    [("json", 1, 1, True), ("tsv", 2, 1, True), ("by-label", 2, 1, True), ("newline-json", 1, 1, False)],
)
def test_a_file_is_read_once_per_pass_it_needs(form, passes, pieces, tallied):
    """Headered JSON takes one pass and TSV two, in edge or label order alike; a text starting with
    whitespace goes straight to the whole-text parse.  Each also reads one first piece to sniff.
    """
    lab = label(FamilySpec(LATTICE, 161, 162))
    text = {
        "json": labeling_to_json(lab),
        "tsv": tsv_text(labeling_tsv_rows(lab)),
        "by-label": tsv_text(labeling_tsv_rows(lab, by_label=True)),
        "newline-json": "\n" + labeling_to_json(lab),
    }[form]
    handle = _Counted(text)
    assert isinstance(formats.read_tally(handle), Tally) == tallied
    assert handle.chars <= passes * len(text) + pieces * formats._READ_CHARS


def _swapped(construction, a, b):
    """``construction`` with labels ``a`` and ``b`` swapped in its closed forms."""

    def swap(lab):
        return lab + (lab == a) * (b - a) + (lab == b) * (a - b)

    class Swapped(construction):
        def first(self, k, j):
            return swap(super().first(k, j))

        def second(self, i, k):
            return swap(super().second(i, k))

    return Swapped


SPECS = [FamilySpec(LATTICE, m, n) for m, n in itertools.product(range(1, 9), repeat=2)]
SPECS += [FamilySpec(PRISM, m, n) for m, n in itertools.product(range(3, 9), range(1, 7))]


@pytest.mark.parametrize("swap", [None, (1, 5), (2, 9)], ids=str)
def test_properties_of_a_spec_read_the_closed_form_sums_as_the_library_does(monkeypatch, swap):
    # a swap in the closed forms reaches label() and the sum blocks alike, and fails some orderings
    failed = 0
    for spec in SPECS:
        with monkeypatch.context() as patch:
            if swap is not None:
                forms = stream._forms(spec)
                patch.setitem(stream._CONSTRUCTIONS, (forms.row_kind, forms.col_kind), _swapped(type(forms), *swap))
            stream._forms_cached.cache_clear()
            report = check_paper_properties(spec, label(spec))
            argv = ["properties", spec.family, str(spec.m), str(spec.n)]
            want = 0 if report.all_passed else 1
            assert cli_outcome(argv) == (want, "\n".join(report.to_text_lines()) + "\n", ""), spec
            assert cli_outcome([*argv, "--format", "json"]) == (want, json.dumps(report.to_json_dict(), indent=2) + "\n", "")
            failed += not report.all_passed
        stream._forms_cached.cache_clear()
    assert (failed == 0) if swap is None else (failed > len(SPECS) // 2)

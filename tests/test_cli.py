"""End-to-end command line coverage via in-process main(argv) calls."""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from antimagic import (
    LATTICE,
    PRISM,
    FamilySpec,
    check_antimagic,
    label,
    labeling_to_dot,
    labeling_to_json,
    labeling_tsv_lines,
    parse_json,
    oracle,
    parse_tsv,
    stream,
)
from antimagic import cli, families, labelings
from antimagic.cli import main
from antimagic.formats import labeling_tsv_rows, tsv_text

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_json_default(capsys):
    code, out, err = run(capsys, ["generate", "lattice", "2", "3"])
    assert code == 0 and err == ""
    lab = parse_json(out)
    assert lab.graph.spec == FamilySpec(LATTICE, 2, 3)
    assert lab.assignment == label(FamilySpec(LATTICE, 2, 3)).assignment


def test_generate_tsv(capsys):
    code, out, _ = run(capsys, ["generate", "cycle", "5", "--format", "tsv"])
    assert code == 0
    lab = parse_tsv(out)
    assert sorted(lab.assignment.values()) == [1, 2, 3, 4, 5]


def test_generate_dot(capsys):
    code, out, _ = run(capsys, ["generate", "path", "4", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph antimagic {")
    assert out.rstrip().endswith("}")


def test_generate_stream_matches_materialized(capsys):
    code, plain, _ = run(capsys, ["generate", "prism", "4", "2", "--format", "tsv"])
    assert code == 0
    code, streamed, _ = run(capsys, ["generate", "prism", "4", "2", "--format", "tsv", "--stream"])
    assert code == 0
    assert streamed == plain


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(LATTICE, m, n) for m in range(1, 13) for n in range(1, 13)]
    + [FamilySpec(PRISM, m, n) for m in range(3, 13) for n in range(1, 13)],
    ids=lambda spec: f"{spec.family}-{spec.m}x{spec.n}",
)
def test_stream_tsv_is_byte_identical_to_materialized(capsys, monkeypatch, spec):
    # the materialized view reads the same closed forms, so this pins the block ranges, the
    # inverse forms and the writers; the reference dealers check the labels in the
    # labeling tests.  Tiny blocks split rows and label ranges at every offset
    lab = label(spec)
    argv = ["generate", spec.family, str(spec.m), str(spec.n), "--format", "tsv", "--stream"]
    for by_label in (False, True):
        want = "".join(line + "\n" for line in labeling_tsv_lines(lab, by_label=by_label))
        for block in (stream.BLOCK_EDGES, 1, 2, 7):
            monkeypatch.setattr(stream, "BLOCK_EDGES", block)
            assert run(capsys, argv + ["--by-label"] * by_label) == (0, want, ""), (by_label, block)


def test_stream_block_across_powers_of_ten_matches_str_reference(capsys):
    # 1012 edges in one block: labels pass 9, 99 and 999, coordinates 9; the
    # reference is built with str(), not with the writers' formatter
    spec = FamilySpec(LATTICE, 22, 22)
    lab = label(spec)
    assert spec.edge_count() == 1012 <= stream.BLOCK_EDGES
    rows = [(*edge, value) for edge, value in zip(lab.graph.edge_array.tolist(), lab.labels.tolist())]
    argv = ["generate", "lattice", "22", "22", "--format", "tsv", "--stream"]
    for by_label in (False, True):
        ordered = sorted(rows, key=lambda row: row[4]) if by_label else rows
        want = "".join("\t".join(map(str, row)) + "\n" for row in ordered)
        assert run(capsys, argv + ["--by-label"] * by_label) == (0, want, ""), by_label


@pytest.mark.parametrize("spec", [FamilySpec(LATTICE, 5, 7), FamilySpec(LATTICE, 7, 5), FamilySpec(PRISM, 6, 3)], ids=str)
def test_generate_writes_lattices_and_prisms_from_the_closed_forms(capsys, monkeypatch, spec):
    lab = label(spec)
    want = {"json": labeling_to_json(lab), "dot": labeling_to_dot(lab), "tsv": tsv_text(labeling_tsv_rows(lab))}

    def unreachable(spec):
        raise AssertionError(f"labeled {spec}")

    monkeypatch.setattr(cli, "label", unreachable)
    for fmt, text in want.items():
        assert run(capsys, ["generate", spec.family, str(spec.m), str(spec.n), "--format", fmt]) == (0, text, ""), fmt


def test_generate_json_holds_one_block_at_a_time(tmp_path):
    # the 561,100-edge text is about 30 MB; the blocks are formatted and written in turn
    main(["generate", "lattice", "3", "3", "-o", str(tmp_path / "warm.json")])  # imports and first-call caches
    tracemalloc.start()
    try:
        assert main(["generate", "lattice", "400", "700", "-o", str(tmp_path / "big.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.json").stat().st_size > 20 << 20
    assert peak < 4 << 20


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_reading_a_file_costs_little_beyond_its_labeling(capsys, tmp_path, fmt):
    # the file is read block by block and no copy of its text is held, so verify and properties
    # --input trace about what label() and check_antimagic do on the same spec
    spec = FamilySpec(LATTICE, 161, 162)
    path = tmp_path / f"lattice.{fmt}"
    main(["generate", "lattice", "161", "162", "--format", fmt, "-o", str(path)])

    def traced(work):
        work()  # imports and first-call caches
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bar = traced(lambda: check_antimagic(label(spec)))
    for argv in (["verify", str(path)], ["properties", "--input", str(path)]):
        assert traced(lambda: main(argv)) < bar + (1 << 20), argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["verify", "{dir}/lattice.json"], ["verify", "{dir}/lattice.tsv"], ["properties", "--input", "{dir}/lattice.json"],
     ["properties", "lattice", "161", "162"]],
    ids=["verify-json", "verify-tsv", "properties-input", "properties-spec"],
)
def test_checks_hold_no_edge_rows_or_graph(capsys, tmp_path, argv):
    # one 64 Ki-character piece with its rows, the label counts and the vertex sums peak at about
    # 1.2 MB here, the closed-form sums and the checks at 0.75 MB; the rows, graph and coordinate
    # tables of the parse-to-labeling path and of label() peaked at 4.7 to 5.3 MB
    for fmt in ("json", "tsv"):
        main(["generate", "lattice", "161", "162", "--format", fmt, "-o", str(tmp_path / f"lattice.{fmt}")])
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main(argv) == 0  # imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2 << 20


def test_generate_stream_by_label(capsys):
    code, out, _ = run(
        capsys, ["generate", "lattice", "3", "2", "--format", "tsv", "--stream", "--by-label"]
    )
    assert code == 0
    labels = [int(ln.split("\t")[4]) for ln in out.splitlines()]
    assert labels == list(range(1, 2 * 3 * 2 + 3 + 2 + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "lattice", "2", "2", "--by-label"],  # json + by-label
        ["generate", "lattice", "2", "2", "--stream"],  # json + stream
        ["generate", "path", "5", "--format", "tsv", "--stream"],  # family has no closed form
        ["generate", "lattice", "2"],  # lattice needs n
        ["generate", "path", "5", "3"],  # path takes one size
        ["generate", "path", "1"],  # below minimum size
        ["generate", "cycle", "2"],
        ["generate", "prism", "2", "1"],
        ["generate", "lattice", "0", "1"],
    ],
)
def test_generate_invalid_exits_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("antimagic:")


def test_unknown_family_exits_2(capsys):
    assert main(["generate", "moebius", "3"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_generate_output_file(capsys, tmp_path):
    target = tmp_path / "out.tsv"
    code, out, _ = run(capsys, ["generate", "lattice", "1", "1", "--format", "tsv", "-o", str(target)])
    assert code == 0 and out == ""
    lab = parse_tsv(target.read_text())
    assert sorted(lab.assignment.values()) == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "argv,want",
    [
        (["generate", "path", "1"], 2),
        (["generate", "lattice", "2", "2", "--stream"], 2),
        (["generate", "lattice", "9000", "9000"], 4),
        (["generate", "lattice", "9000", "9000", "--format", "dot"], 4),
        (["generate", "lattice", "2000000000", "3", "--format", "tsv"], 4),
        (["generate", "lattice", "2000000000", "3", "--format", "tsv", "--stream"], 4),
        (["generate", "prism", "3", "2000000000", "--format", "tsv", "--stream", "--by-label"], 4),
    ],
)
def test_refused_generate_keeps_existing_output_file(capsys, tmp_path, argv, want):
    target = tmp_path / "keep.json"
    target.write_bytes(b"earlier contents\n")
    code, out, err = run(capsys, argv + ["-o", str(target)])
    assert (code, out) == (want, "") and err.startswith("antimagic:")
    assert target.read_bytes() == b"earlier contents\n"


def test_output_dir_env_prefixes_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ANTIMAGIC_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, ["generate", "path", "3", "--format", "tsv", "-o", "rel.tsv"])
    assert code == 0
    assert (tmp_path / "rel.tsv").exists()
    # absolute paths ignore the prefix
    target = tmp_path / "abs.tsv"
    code, _, _ = run(capsys, ["generate", "path", "3", "--format", "tsv", "-o", str(target)])
    assert code == 0
    assert target.exists()


def test_verify_stdin_positive(capsys, monkeypatch):
    _, text, _ = run(capsys, ["generate", "cycle", "6", "--format", "tsv"])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert out.splitlines()[0] == "antimagic: yes"


def test_verify_file_negative_duplicate(capsys, tmp_path):
    bad = tmp_path / "k2.tsv"
    bad.write_text("1\t1\t2\t1\t1\n")
    code, out, _ = run(capsys, ["verify", str(bad)])
    assert code == 1
    assert "antimagic: no" in out
    assert "equal sums at (1,1) and (2,1)" in out


def test_verify_bad_bijection(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\t1\t2\t1\t7\n2\t1\t3\t1\t7\n")
    code, out, _ = run(capsys, ["verify", str(bad)])
    assert code == 1
    assert "not a bijection" in out


def test_verify_json_format(capsys, monkeypatch):
    _, text, _ = run(capsys, ["generate", "lattice", "2", "2"])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["verify", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["antimagic"] is True
    assert doc["duplicate"] is None


def test_verify_unparseable_exits_3(capsys, tmp_path):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("{this is not json")
    code, _, err = run(capsys, ["verify", str(garbage)])
    assert code == 3
    assert err.startswith("antimagic:")


def test_verify_deeply_nested_json_exits_3(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, ["verify", str(nested)])
    assert code == 3
    assert out == ""
    assert err.startswith("antimagic:")


BIG = 2**70


@pytest.mark.parametrize(
    "text,field",
    [
        (f"1\t1\t2\t1\t{BIG}\n", "line 1: label"),
        (f"1\t1\t2\t1\t1\n2\t1\t{BIG}\t1\t2\n", "line 2: r2"),
        (f"1\t1\t2\t1\t{-BIG}\n", "line 1: label"),
        (json.dumps({"edges": [{"u": [1, 1], "v": [2, 1], "label": BIG}]}), "edge label"),
        (json.dumps({"edges": [{"u": [1, BIG], "v": [2, 1], "label": 1}]}), 'edge field "u"'),
        (json.dumps({"family": "path", "m": 2, "edges": [{"u": [1, 1], "v": [3, 1], "label": 1},
                                                         {"u": [2, 1], "v": [3, BIG], "label": 2}]}), 'edge field "v"'),
    ],
)
def test_verify_values_outside_int64_exit_3(capsys, tmp_path, text, field):
    path = tmp_path / "big.txt"
    path.write_text(text)
    for argv in (["verify", str(path)], ["properties", "--input", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("antimagic:") and field in err and "64-bit" in err


@pytest.mark.parametrize(
    "fmt,pattern,spelling,field",
    [("tsv", r"\t\d+\n", "\t%d\n", "line 1: label"), ("json", r'"label": \d+', '"label": %d', "edge label")],
)
def test_verify_writer_file_with_two_to_the_63_exits_3(capsys, tmp_path, fmt, pattern, spelling, field):
    # numpy's bulk read clamps 2**63 to 2**63 - 1 without a word; the file must still be refused
    _, text, _ = run(capsys, ["generate", "lattice", "3", "4", "--format", fmt])
    path = tmp_path / f"big.{fmt}"
    path.write_text(re.sub(pattern, spelling % (1 << 63), text, count=1))
    for argv in (["verify", str(path)], ["properties", "--input", str(path)]):
        assert run(capsys, argv) == (3, "", f"antimagic: {field} 9223372036854775808 is outside the 64-bit integer range\n")


@pytest.mark.parametrize("data", [b"\xff\xfe", b"1\t1\t2\t1\t1\n\x80\n", b'{"edges": [], "x": "\xc3"}'])
def test_non_utf8_input_file_exits_3(capsys, tmp_path, data):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    for argv in (["verify", str(path)], ["properties", "--input", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("antimagic:") and "UTF-8" in err


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", str(tmp_path / "absent.tsv")])
    assert code == 2
    assert err.startswith("antimagic:")


def test_properties_family_mode(capsys):
    code, out, _ = run(capsys, ["properties", "lattice", "3", "4"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS overall"


def test_properties_json_mode(capsys):
    code, out, _ = run(capsys, ["properties", "prism", "4", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_properties_input_mode(capsys, tmp_path):
    path = tmp_path / "grid.json"
    _, text, _ = run(capsys, ["generate", "lattice", "2", "4"])
    path.write_text(text)
    code, out, _ = run(capsys, ["properties", "--input", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "PASS overall"


def test_properties_detects_broken_labeling(capsys, tmp_path):
    doc = json.loads(labeling_to_json(label(FamilySpec(LATTICE, 2, 2))))
    doc["edges"][0]["label"], doc["edges"][1]["label"] = (
        doc["edges"][1]["label"],
        doc["edges"][0]["label"],
    )
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["properties", "--input", str(path)])
    assert code == 1
    assert out.splitlines()[-1] == "FAIL overall"
    assert any(ln.startswith("FAIL ") for ln in out.splitlines()[:-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["properties"],  # neither spec nor input
        ["properties", "lattice"],  # family without size
    ],
)
def test_properties_underspecified_exits_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("antimagic:")


def test_properties_both_modes_exits_2(capsys, tmp_path):
    path = tmp_path / "grid.json"
    _, text, _ = run(capsys, ["generate", "lattice", "2", "2"])
    path.write_text(text)
    code, _, err = run(capsys, ["properties", "lattice", "2", "2", "--input", str(path)])
    assert code == 2
    assert "not both" in err


def test_properties_headerless_input_exits_2(capsys, tmp_path):
    path = tmp_path / "plain.tsv"
    _, text, _ = run(capsys, ["generate", "lattice", "2", "2", "--format", "tsv"])
    path.write_text(text)
    code, _, err = run(capsys, ["properties", "--input", str(path)])
    assert code == 2
    assert "family header" in err


def test_search_exhaustive_path(capsys):
    code, out, _ = run(capsys, ["search", "path", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert doc["trials"] is None and doc["seed"] is None
    assert doc["total_labelings_checked"] == 6
    assert doc["antimagic_count"] == 2
    assert doc["contains_constructed"] is True
    assert len(doc["first_antimagic"]) == 3
    assert sorted(row[4] for row in doc["first_antimagic"]) == [1, 2, 3]


def test_search_pruned_path(capsys):
    code, out, _ = run(capsys, ["search", "path", "3", "--prune"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive-pruned"
    assert doc["total_labelings_checked"] == 2
    assert doc["antimagic_count"] == 2


def test_search_random_seeded(capsys):
    code, out, _ = run(capsys, ["search", "cycle", "4", "--random", "50", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "random"
    assert doc["trials"] == 50 and doc["seed"] == 7
    assert doc["total_labelings_checked"] == 50
    assert doc["antimagic_count"] == 10


def test_search_prune_with_random_exits_2(capsys):
    code, _, err = run(capsys, ["search", "cycle", "4", "--random", "10", "--prune"])
    assert code == 2
    assert "exhaustive" in err


def test_search_refuses_large_exits_4(capsys):
    code, _, err = run(capsys, ["search", "lattice", "2", "2"])
    assert code == 4
    assert err.startswith("antimagic:")


def test_search_refuses_before_building(capsys, monkeypatch):
    def unreachable(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli, "build_graph", unreachable)
    monkeypatch.setattr(cli, "label", unreachable)
    code, out, err = run(capsys, ["search", "lattice", "1000", "1000"])
    assert code == 4 and out == ""
    assert err == "antimagic: exhaustive search over 2002000 edges means 2002000! labelings; the cap is 10 edges\n"


def test_search_materializes_the_graph_once(capsys, monkeypatch):
    built, materialize = [], families._materialize

    def counting(spec, *rest):
        built.append(spec)
        return materialize(spec, *rest)

    monkeypatch.setattr(families, "_materialize", counting)  # build_graph
    monkeypatch.setattr(labelings, "_materialize", counting)  # label
    code, out, _ = run(capsys, ["search", "lattice", "1", "2"])
    assert code == 0 and json.loads(out)["contains_constructed"] is True
    assert built == [FamilySpec(LATTICE, 1, 2)]


def test_search_random_refuses_before_building(capsys, monkeypatch):
    def unreachable(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli, "build_graph", unreachable)
    code, out, err = run(capsys, ["search", "lattice", "500", "500", "--random", "0"])
    assert code == 4 and out == ""
    assert err == f"antimagic: random search over 501000 edges; the cap is {oracle.MAX_RANDOM_EDGES} edges\n"


@pytest.mark.parametrize(
    "error,line",
    [(MemoryError(), "out of memory"), (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB")],
)
def test_memory_error_exits_4_with_one_line(capsys, monkeypatch, error, line):
    def exhausted(spec):
        raise error

    monkeypatch.setattr(cli, "label", exhausted)  # properties labels a cycle in memory
    assert run(capsys, ["properties", "cycle", "3"]) == (4, "", f"antimagic: {line}\n")


def _run_child(argv, **kwargs):
    """The console entry point run in a child process, with ``subprocess.run``'s ``kwargs``."""
    code = "import sys; from antimagic.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",  # numpy's import reserves address space per OpenBLAS thread
    }
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, **kwargs)


def _run_under_one_gib(argv, stdout=subprocess.DEVNULL):
    """The console entry point in a child whose address space is capped at 1 GiB; this process keeps its limits."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return _run_child(argv, stdout=stdout, stderr=subprocess.PIPE, preexec_fn=cap)


def test_verify_reads_a_pipe_as_it_reads_the_file(tmp_path):
    # a pipe cannot be read again, so it is read whole first; a file is read block by block.
    # 7,441 lines (121 kB) are more than a pipe's buffer holds, so the child reads while the parent writes
    text = tsv_text(labeling_tsv_rows(label(FamilySpec(LATTICE, 60, 61))))
    lines = text.splitlines(keepends=True)
    second_with_first_label = lines[1][: lines[1].rfind("\t")] + lines[0][lines[0].rfind("\t") :]
    variants = {
        "writer": text,
        "sort -r": "".join(sorted(lines, reverse=True)),  # the writer's lines, in another order
        "tr": text.replace("\t", " "),  # not the writer's: the slow path reads it
        "repeated label": "".join([lines[0], second_with_first_label, *lines[2:]]),
    }
    for name, data in variants.items():
        path = tmp_path / "input.tsv"
        path.write_text(data)
        by_path = _run_child(["verify", str(path)], capture_output=True)
        piped = _run_child(["verify"], input=data.encode(), capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr) == (by_path.returncode, by_path.stdout, by_path.stderr)
        assert by_path.returncode == (name == "repeated label"), name


def test_out_of_memory_in_numpy_exits_4_without_a_traceback():
    # 99,999,998 edges pass the materialization cap, but a path's arrays (about 3 GiB) do not fit in 1 GiB
    done = _run_under_one_gib(["generate", "path", "99999999"])
    err = done.stderr.decode()
    assert done.returncode == 4, err
    assert err.startswith("antimagic: ") and err.count("\n") == 1 and "Traceback" not in err


def test_properties_of_a_large_lattice_fit_in_one_gib():
    # the 18,006,000-edge lattice's checks read its 9,006,001 vertex sums from the closed forms, not a labeling
    done = _run_under_one_gib(["properties", "lattice", "3000", "3000"], stdout=subprocess.PIPE)
    lines = done.stdout.decode().splitlines()
    assert done.returncode == 0, done.stderr.decode()
    assert lines[-1] == "PASS overall" and all(line.startswith("PASS ") for line in lines)


# --- process start and exit -------------------------------------------------

_SUBMODULES = ("cli", "errors", "families", "formats", "labelings", "oracle", "stream", "verification")


def _child_env(**extra):
    """This environment with ``src`` first, no OpenBLAS thread count and buffered output, plus ``extra``."""
    env = {key: value for key, value in os.environ.items() if key not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def _run_module(argv, unbuffered="", **kwargs):
    """``python -m antimagic.cli`` in a child process, with ``subprocess.run``'s ``kwargs``; stdout is
    buffered unless ``unbuffered`` is a non-empty string."""
    env = _child_env(PYTHONUNBUFFERED=unbuffered)
    return subprocess.run([sys.executable, "-m", "antimagic.cli", *argv], env=env, **kwargs)


def _closing(fd):
    def close():  # runs in the child only, after its standard descriptors are set up
        os.close(fd)

    return close


@pytest.mark.parametrize(
    "fd,argv",
    [
        (0, ["verify"]),
        (0, ["verify", "-"]),
        (0, ["properties", "--input", "-"]),
        (1, ["generate", "lattice", "2", "2"]),
        (1, ["generate", "prism", "3", "2", "--format", "tsv", "--stream"]),
        (1, ["generate", "cycle", "3", "--format", "dot"]),
        (1, ["properties", "lattice", "3", "3"]),
        (1, ["bench", "prism", "3", "2"]),
        (1, ["search", "cycle", "3"]),
    ],
)
def test_a_closed_stdin_or_stdout_exits_with_one_line(fd, argv):
    done = _run_module(argv, stdin=subprocess.DEVNULL, capture_output=True, preexec_fn=_closing(fd))
    name = ("stdin", "stdout")[fd]
    assert (done.returncode, done.stderr.decode()) == (2, f"antimagic: [Errno 9] {name} is closed\n")


def test_a_closed_stdout_does_not_stop_output_to_a_file(tmp_path):
    argv = ["generate", "lattice", "2", "2", "-o", str(tmp_path / "g.json")]
    done = _run_module(argv, capture_output=True, preexec_fn=_closing(1))
    assert (done.returncode, done.stderr) == (0, b"")
    assert (tmp_path / "g.json").read_text() == labeling_to_json(label(FamilySpec(LATTICE, 2, 2)))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_stops_early_ends_the_writer_quietly(unbuffered):
    # `generate lattice 300 300 --format tsv | head -c 1`: 180,600 rows, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "antimagic.cli", "generate", "lattice", "300", "300", "--format", "tsv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(PYTHONUNBUFFERED=unbuffered),
    )
    with proc:
        assert proc.stdout.read(1) == b"1"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_output_still_buffered_at_exit_is_flushed_and_a_closed_pipe_is_quiet():
    # a short report stays in stdout's buffer until the process ends (the process skips the
    # interpreter's own flush at teardown), and its reader is gone by then
    proc = subprocess.Popen(
        [sys.executable, "-m", "antimagic.cli", "properties", "lattice", "3", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    with proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")
    done = _run_module(["properties", "lattice", "3", "3"], capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines()[-1] == "PASS overall"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])  # fails at the end or at once
@pytest.mark.parametrize("argv", [["generate", "lattice", "1", "1"], ["properties", "lattice", "3", "3"]])
def test_a_full_device_exits_2_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        done = _run_module(argv, unbuffered, stdout=full, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (2, b"antimagic: [Errno 28] No space left on device\n")


def test_import_antimagic_loads_nothing_until_a_name_is_used():
    code = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import antimagic\n"
        "loaded = sorted(name for name in sys.modules if name == 'numpy' or name.startswith('antimagic.'))\n"
        "unchanged = dict(os.environ) == before\n"
        "names = {}\n"
        "exec('from antimagic import *', names)\n"
        "missing = [name for name in antimagic.__all__ if name not in names]\n"
        "reached = [getattr(antimagic, name).__name__ for name in sys.argv[1:]]\n"
        "print(json.dumps([loaded, unchanged, missing, reached]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *_SUBMODULES], env=_child_env(), capture_output=True, check=True)
    loaded, unchanged, missing, reached = json.loads(done.stdout)
    assert loaded == [] and unchanged and missing == []
    assert reached == [f"antimagic.{name}" for name in _SUBMODULES]


def test_the_root_resolves_each_public_name_to_its_definition():
    import antimagic

    for name in set(antimagic.__all__) - {"stream"}:
        assert getattr(antimagic, name) is getattr(sys.modules[f"antimagic.{antimagic._HOME[name]}"], name), name
    assert antimagic.stream is stream and antimagic.oracle is oracle
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        getattr(antimagic, "nothing")


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["generate", "lattice", "2", "3"], {"oracle", "verification"}),
        (["generate", "prism", "3", "2", "--format", "tsv", "--stream"], {"oracle", "verification"}),
        (["bench", "lattice", "3", "3"], {"oracle"}),
        (["properties", "lattice", "3", "3"], {"oracle"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_uses(argv, absent):
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "antimagic.cli", *argv], env=_child_env(), capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
    # -X importtime writes one line per module that the process imports, ending in its dotted name
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.decode().splitlines() if "|" in line}
    assert {"numpy", "antimagic", "antimagic.stream"} <= loaded
    assert not {f"antimagic.{name}" for name in absent} & loaded


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_the_command_line_defaults_openblas_to_one_thread(preset, expected):
    code = (
        "import os, sys\n"
        "from antimagic.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    threads = next(line.split()[1] for line in status if line.startswith('Threads:'))\n"
        "sys.stderr.write(f\"{rc} {threads} {os.environ['OPENBLAS_NUM_THREADS']}\")\n"
    )
    env = _child_env() if preset is None else _child_env(OPENBLAS_NUM_THREADS=preset)
    done = subprocess.run([sys.executable, "-c", code, "properties", "lattice", "3", "3"], env=env, capture_output=True)
    rc, threads, setting = done.stderr.decode().split()
    assert (rc, setting) == ("0", expected)
    if preset is None:
        assert threads == "1"


def test_bench_reports_stats(capsys):
    code, out, _ = run(capsys, ["bench", "lattice", "4", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "antimagic: yes"
    assert any(ln.startswith("edges labeled: 40") for ln in lines)
    assert any(ln.startswith("sums checked: 25") for ln in lines)
    assert any(ln.startswith("peak live values:") for ln in lines)
    assert "spill files: 0" in lines
    assert any(ln.startswith("elapsed seconds:") for ln in lines)


def test_bench_chunk_target_spills(capsys):
    code, out, _ = run(capsys, ["bench", "lattice", "5", "7", "--chunk-target", "8"])
    assert code == 0
    spill = next(ln for ln in out.splitlines() if ln.startswith("spill files:"))
    assert int(spill.split(":")[1]) > 0


def test_bench_reports_spill_bytes_after_spill_files(capsys):
    code, out, _ = run(capsys, ["bench", "lattice", "5", "7", "--chunk-target", "4"])
    assert code == 0
    lines = out.splitlines()
    at = lines.index("spill files: 31")
    assert lines[at + 1] == "spill bytes: 520"  # all 82 labels and 48 sums, 4 bytes each


@pytest.mark.parametrize("chunk_target", ["0", "-5"])
def test_bench_rejects_chunk_target_below_one(capsys, chunk_target):
    code, out, err = run(capsys, ["bench", "lattice", "3", "3", "--chunk-target", chunk_target])
    assert code == 2
    assert out == ""
    assert err.startswith("antimagic:")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "lattice", "3", "4"],
        ["generate", "prism", "5", "2", "--format", "tsv", "--stream"],
        ["properties", "cycle", "9"],
        ["search", "cycle", "4", "--random", "25", "--seed", "3"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


# --- fuzz -------------------------------------------------------------------

_FUZZ_LABELING = label(FamilySpec(LATTICE, 1, 2))
_FUZZ_FILES = (
    labeling_to_json(_FUZZ_LABELING).encode(),
    "".join(line + "\n" for line in labeling_tsv_lines(_FUZZ_LABELING)).encode(),
    b"1\t1\t2\t1\t1\n",  # K2: not antimagic
)
_HUGE = str(1 << 40)  # every command refuses this size before any work
_FUZZ_COMMANDS = (
    ["generate", "lattice", "2", "3"],
    ["generate", "prism", "3", "1", "--format", "tsv", "--stream", "--by-label"],
    ["generate", "path", "3", "--format", "dot"],
    ["verify", "FILE", "--format", "json"],
    ["verify", "-"],
    ["properties", "--input", "FILE"],
    ["properties", "cycle", "4", "--format", "json"],
    ["search", "path", "3", "--prune"],
    ["search", "cycle", "3", "--random", "3", "--seed", "7"],
    ["bench", "prism", "3", "2", "--chunk-target", "4"],
    ["bench", "lattice", "3", _HUGE],
    ["generate", "prism", _HUGE, "2", "--format", "tsv"],
)
_FUZZ_TOKENS = (
    "path", "cycle", "lattice", "prism", "moebius", "generate", "verify", "properties", "search", "bench",
    "--format", "json", "tsv", "dot", "text", "--stream", "--by-label", "--input", "--prune", "--random",
    "--seed", "--chunk-target", "--help", "-", "FILE", "", "x", "2.5", "-1", "0", "1", "2", "3", "4", _HUGE,
)
_argv_edits = st.lists(
    st.tuples(st.sampled_from(("replace", "delete", "insert")), st.integers(0, 9), st.sampled_from(_FUZZ_TOKENS)),
    max_size=2,
)
_file_edits = st.lists(
    st.tuples(
        st.sampled_from(("truncate", "flip", "nest")),
        st.integers(0, len(max(_FUZZ_FILES, key=len))),
        st.one_of(st.integers(1, 3), st.integers(1, 255)),  # a small xor often keeps a digit a digit
        st.sampled_from((1, 40, 100_000)),
    ),
    max_size=3,
)


def _edit_argv(argv, edits):
    argv = list(argv)
    for op, at, token in edits:
        at = min(at, len(argv))
        if op == "insert":
            argv.insert(at, token)
        elif argv and op == "replace":
            argv[min(at, len(argv) - 1)] = token
        elif argv:
            del argv[min(at, len(argv) - 1)]
    return argv


def _edit_file(data, edits):
    for op, at, byte, depth in edits:
        at = min(at, len(data))
        if op == "truncate":
            data = data[:at]
        elif op == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ byte]) + data[at + 1 :]
        elif op == "nest":
            data = data[:at] + b"[" * depth + data[at:] + b"]" * depth
    return data


@given(
    command=st.sampled_from(_FUZZ_COMMANDS),
    argv_edits=_argv_edits,
    base=st.sampled_from(_FUZZ_FILES),
    file_edits=_file_edits,
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_main_fuzz_exits_with_a_documented_code(tmp_path_factory, command, argv_edits, base, file_edits):
    argv = _edit_argv(command, argv_edits)
    # --random counts stay small; exhaustive search is capped at 6 edges (720 labelings)
    for at, token in enumerate(argv[:-1]):
        if token == "--random":
            assume(argv[at + 1] in ("-1", "0", "1", "2", "3", "4"))
    data = _edit_file(base, file_edits)
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    argv = [str(path) if token == "FILE" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with (
        mock.patch.object(oracle, "MAX_EXHAUSTIVE_EDGES", 6),
        mock.patch("sys.stdin", stdin),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    event(f"exit {code}")  # pytest --hypothesis-show-statistics shows how often each exit is reached
    assert code in range(5), (argv, data)
    if code >= 2:
        assert out.getvalue() == "", (argv, code)

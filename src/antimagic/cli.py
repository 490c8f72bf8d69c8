"""Command line front end.

Subcommands: ``generate`` (emit a labeling as JSON, TSV, or DOT, optionally
streamed), ``verify`` (check a labeling file), ``properties`` (structural sum
orderings), ``search`` (exhaustive or random oracle over small graphs), and
``bench`` (streaming verification with resource accounting).

Exit codes: 0 success / antimagic, 1 not antimagic or a failed property,
2 invalid input, 3 unparseable file, 4 size refusal or out of memory.

A process starts and stops cheaply: it loads ``oracle`` for ``search`` only and
``verification`` only where a handler needs it, defaults OpenBLAS to one thread,
and :func:`entrypoint` ends it without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

# The command line does no linear algebra, and each further OpenBLAS thread costs numpy's import
# a spinning start-up and address space; a count the caller set is kept.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# ``stream``, the largest module, first: it then compiles before numpy loads, at a lower peak RSS
from .stream import DEFAULT_CHUNK_TARGET, StreamStats, iter_edge_blocks, iter_sum_blocks, stream_verify
from .errors import FormatError, InvalidParameterError, SizeRefusalError
from .families import FAMILIES, LATTICE, PRISM, FamilySpec, build_graph, check_materializable
from .formats import labeling_blocks, labeling_tsv_rows, read_tally, text_blocks
from .labelings import label
import numpy as np

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_UNPARSEABLE = 3
EXIT_REFUSED = 4
_EXIT_CODES = ((FormatError, EXIT_UNPARSEABLE), (SizeRefusalError, EXIT_REFUSED), (MemoryError, EXIT_REFUSED))


def _spec_from(family, m, n):
    two = family in (LATTICE, PRISM)
    if two != (n is not None):
        raise InvalidParameterError(f"{family} takes two sizes: m and n" if two else f"{family} takes a single size m")
    spec = FamilySpec(family, m, n) if two else FamilySpec(family, m)
    spec.validate()
    return spec


def _standard(name):
    """``sys.stdin`` or ``sys.stdout``; an OSError if the process started with that descriptor closed."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _open_output(path):
    if path is None or path == "-":
        return contextlib.nullcontext(_standard("stdout"))
    base = os.environ.get("ANTIMAGIC_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w", encoding="utf-8")


def _read_input(path):
    """The tally or labeling in the file at ``path``, or on stdin for ``-``, read block by block when seekable."""
    stdin = path is None or path == "-"
    with contextlib.nullcontext(_standard("stdin")) if stdin else open(path, encoding="utf-8") as handle:
        return read_tally(handle)


def _closed_form_sums(spec):
    """A :class:`Tally` of a lattice's or prism's vertex sums, filled block by block from the closed forms."""
    from .verification import Tally
    check_materializable(spec)
    sums, at = np.empty(spec.vertex_count(), np.int64), 0
    for block in iter_sum_blocks(spec):
        sums[at : at + len(block)] = block[:, 2]
        at += len(block)
    return Tally(spec, None, None, sums)


def _print_report(report, fmt):
    """Print a verdict or property report as indented JSON or as its text lines."""
    text = json.dumps(report.to_json_dict(), indent=2) if fmt == "json" else "\n".join(report.to_text_lines())
    print(text, file=_standard("stdout"))


def _cmd_generate(args):
    spec = _spec_from(args.family, args.m, args.n)
    if args.by_label and args.format != "tsv":
        raise InvalidParameterError("--by-label applies to tsv output only")
    if args.stream and args.format != "tsv":
        raise InvalidParameterError("--stream emits tsv only")
    # check and label the spec, or check its closed forms, first: a refused spec leaves -o as it was
    if not args.stream:
        check_materializable(spec)
    if args.stream or spec.family in (LATTICE, PRISM):
        feed = spec.header(), iter_edge_blocks(spec, by_label=args.by_label), iter_sum_blocks(spec)
    else:
        feed = labeling_blocks(label(spec))  # a path's or cycle's labels run 1..|E| in edge order
    with _open_output(args.output) as out:
        out.writelines(text_blocks(args.format, *feed))  # each block is written as it is made
    return EXIT_OK


def _cmd_verify(args):
    from .verification import check_antimagic
    verdict = check_antimagic(_read_input(args.input))
    _print_report(verdict, args.format)
    return EXIT_OK if verdict.antimagic else EXIT_NEGATIVE


def _cmd_properties(args):
    from .verification import check_paper_properties
    if args.input is not None:
        if args.family is not None:
            raise InvalidParameterError("give either a family spec or --input, not both")
        lab = _read_input(args.input)
        spec = lab.spec
        if spec is None:
            raise InvalidParameterError("input has no family header; properties need one")
    else:
        if args.family is None or args.m is None:
            raise InvalidParameterError("properties needs a family and size, or --input")
        spec = _spec_from(args.family, args.m, args.n)
        lab = _closed_form_sums(spec) if spec.family in (LATTICE, PRISM) else label(spec)
    report = check_paper_properties(spec, lab)
    _print_report(report, args.format)
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def _cmd_search(args):
    from .oracle import check_search_size, exhaustive_search, random_search
    spec = _spec_from(args.family, args.m, args.n)
    exhaustive = args.random is None
    if args.prune and not exhaustive:
        raise InvalidParameterError("--prune applies to exhaustive search only")
    check_search_size(spec.edge_count(), exhaustive)  # before building: the caps admit small graphs only
    if exhaustive:
        lab = label(spec)
        result = exhaustive_search(lab.graph, reference=lab, prune=args.prune)
        mode = "exhaustive-pruned" if args.prune else "exhaustive"
    else:
        result, mode = random_search(build_graph(spec), args.random, args.seed), "random"
    first = None if result.first_antimagic is None else labeling_tsv_rows(result.first_antimagic).tolist()
    doc = {
        **spec.header(),
        "vertices": spec.vertex_count(),
        "edges": spec.edge_count(),
        "mode": mode,
        "trials": args.random,
        "seed": args.seed if args.random is not None else None,
        "total_labelings_checked": result.total_labelings_checked,
        "antimagic_count": result.antimagic_count,
        "contains_constructed": result.contains_constructed,
        "first_antimagic": first,
    }
    print(json.dumps(doc, indent=2), file=_standard("stdout"))
    return EXIT_OK


def _cmd_bench(args):
    spec = _spec_from(args.family, args.m, args.n)
    stats = StreamStats()
    verdict = stream_verify(spec, chunk_target=args.chunk_target, stats=stats)
    _print_report(verdict, "text")
    print(f"edges labeled: {stats.edges_labeled}")
    print(f"sums checked: {stats.sums_checked}")
    print(f"peak live values: {stats.peak_live_values}")
    print(f"spill files: {stats.spill_files}")
    print(f"spill bytes: {stats.spill_bytes}")
    print(f"elapsed seconds: {stats.elapsed_seconds:.3f}")
    return EXIT_OK if verdict.antimagic else EXIT_NEGATIVE


def _add_spec_arguments(sub, optional=False):
    if optional:
        sub.add_argument("family", nargs="?", choices=FAMILIES, default=None)
        sub.add_argument("m", nargs="?", type=int, default=None)
    else:
        sub.add_argument("family", choices=FAMILIES)
        sub.add_argument("m", type=int)
    sub.add_argument("n", nargs="?", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Constructive antimagic edge labelings of paths, cycles, grids, and prisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a labeling")
    _add_spec_arguments(gen)
    gen.add_argument("--format", choices=("json", "tsv", "dot"), default="json")
    gen.add_argument("--stream", action="store_true", help="closed-form tsv, no materialization")
    gen.add_argument("--by-label", action="store_true", help="order tsv rows by label")
    gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    gen.set_defaults(handler=_cmd_generate)

    ver = sub.add_parser("verify", help="check a labeling file (JSON or TSV, - for stdin)")
    ver.add_argument("input", nargs="?", default="-")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(handler=_cmd_verify)

    props = sub.add_parser("properties", help="check structural sum orderings")
    _add_spec_arguments(props, optional=True)
    props.add_argument("--input", default=None, help="labeling file with a family header")
    props.add_argument("--format", choices=("text", "json"), default="text")
    props.set_defaults(handler=_cmd_properties)

    search = sub.add_parser("search", help="oracle search over all or random labelings")
    _add_spec_arguments(search)
    search.add_argument("--random", type=int, default=None, metavar="TRIALS")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--prune", action="store_true", help="skip provably dead subtrees")
    search.set_defaults(handler=_cmd_search)

    bench = sub.add_parser("bench", help="streaming verification with resource accounting")
    _add_spec_arguments(bench)
    bench.add_argument(
        "--chunk-target",
        type=int,
        default=DEFAULT_CHUNK_TARGET,
        help="values each store buffers before scattering them into spill buckets (default %(default)s)",
    )
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.handler(args)
    except BrokenPipeError:
        return EXIT_OK
    except (InvalidParameterError, FormatError, SizeRefusalError, OSError, MemoryError) as exc:
        return _failure(exc)


def _failure(exc):
    """Report ``exc`` as one ``antimagic:`` line on stderr and return its exit code."""
    print(f"antimagic: {str(exc) or 'out of memory'}", file=sys.stderr)  # numpy's MemoryError names the array
    return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_INVALID)


def entrypoint():
    """The console script and ``python -m antimagic.cli``: :func:`main`, then the end of the process.

    Output still buffered is flushed here, and a flush that fails exits as a failed write does in
    :func:`main`.  ``os._exit`` then ends the process without the interpreter's teardown, which a
    one-shot command does not need.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_OK
    except OSError as exc:
        code = _failure(exc)
    with contextlib.suppress(OSError):  # nowhere left to report it
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

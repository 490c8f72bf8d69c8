"""In-process half of the benchmark: times the calls into each antimagic module.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH, in
one of three modes:

    trace_worker.py import               print how long ``import antimagic.cli`` takes
    trace_worker.py plain PLAN OUT       run every job of PLAN through
                                         ``antimagic.cli.main``; walls to OUT
    trace_worker.py trace PLAN OUT SPANS the same with a span around each public
                                         function of every module; spans to SPANS
    trace_worker.py alloc PLAN OUT       tracemalloc peaks of ``build_graph`` and
                                         ``label`` for each spec of PLAN

The spans live here, in the benchmark's own files: the package is patched at
run time and never edited.  ``oracle`` is left out on purpose; it is the
independent reference, not an optimisation target.
"""

import importlib
import inspect
import json
import sys
import time
import traceback

MODULES = ("families", "labelings", "verification", "formats", "stream", "cli")

# (module, attribute) of each traced public function -> span name.
TRACED = {
    ("families", "build_graph"): "families.build_graph",
    ("labelings", "label"): "labelings.label",
    ("verification", "vertex_sums"): "verification.vertex_sums",
    ("verification", "check_antimagic"): "verification.check_antimagic",
    ("verification", "check_paper_properties"): "verification.check_paper_properties",
    ("formats", "labeling_to_json"): "formats.to_json",
    ("formats", "labeling_tsv_lines"): "formats.tsv_lines",
    ("formats", "labeling_to_dot"): "formats.to_dot",
    ("formats", "parse_json"): "formats.parse_json",
    ("formats", "parse_tsv"): "formats.parse_tsv",
    ("stream", "stream_verify"): "stream.stream_verify",
    ("stream", "iter_labeled_edges"): "stream.iter_edges",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, job, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        mods = {name: importlib.import_module(f"antimagic.{name}") for name in MODULES}
        names = {id(getattr(mods[m], a)): span for (m, a), span in TRACED.items()}
        # Patch every module namespace that holds a traced function, so calls
        # between modules (label -> build_graph, to_json -> vertex_sums) nest.
        self.patches = []
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                span = names.get(id(value))
                if span is not None:
                    self.patches.append((mod, attr, value, self._wrap(span, value)))

    def install(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, attrs=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self.stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            span = name
            if name == "stream.iter_edges" and kwargs.get("by_label"):
                span = "stream.iter_edges_by_label"
            index = self.open(span)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                # A generator does its work when drained: drain it inside the
                # span, so the span holds the work and not the caller's writes.
                if inspect.isgenerator(result):
                    result = iter(list(result))
                stats = kwargs.get("stats")
                if stats is not None:
                    attrs = {
                        "peak_live_values": stats.peak_live_values,
                        "spill_files": stats.spill_files,
                    }
                return result
            finally:
                self.close(index, attrs)

        return wrapper


def run_cli(job):
    """Run one job through ``antimagic.cli.main`` with its stdin and stdout files."""
    from antimagic import cli

    saved = sys.stdout, sys.stdin
    with open(job["output"], "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            if job["stdin"] is None:
                return cli.main(job["args"])
            with open(job["stdin"], encoding="utf-8") as inp:
                sys.stdin = inp
                return cli.main(job["args"])
        finally:
            sys.stdout, sys.stdin = saved


def run_plan(plan_path, out_path, spans_path=None):
    """Wall seconds and exit code of each job; with ``spans_path``, traced."""
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    importlib.import_module("antimagic.cli")  # import time is not job time
    tracer = Tracer() if spans_path else None
    walls = []
    for index, job in enumerate(plan):
        if tracer is not None:
            tracer.job = index
            tracer.install()
            root = tracer.open(f"cli.{job['path']}")
        start = time.perf_counter()
        try:
            rc = run_cli(job)
        except Exception:  # a crash in the package fails this job, not the run
            traceback.print_exc()
            rc = "exception"
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.remove()
        walls.append({"wall_s": wall, "rc": rc})
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "job": j, "attrs": a}
                    for n, s, e, p, j, a in tracer.spans
                ],
                handle,
            )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(walls, handle)


def alloc(plan_path, out_path):
    import tracemalloc

    from antimagic.families import FamilySpec, build_graph
    from antimagic.labelings import label

    with open(plan_path, encoding="utf-8") as handle:
        specs = json.load(handle)
    peaks = []
    tracemalloc.start()
    for family, m, n in specs:
        spec = FamilySpec(family, m, n)
        row = {}
        for name, fn in (("build_graph", build_graph), ("label", label)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(spec)
            row[name] = tracemalloc.get_traced_memory()[1] - base
            del result
        peaks.append(row)
    tracemalloc.stop()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(peaks, handle)


def main(argv):
    if argv[:1] == ["import"]:
        start = time.perf_counter()
        import antimagic.cli  # noqa: F401

        print(repr(time.perf_counter() - start))
    elif (argv[:1] == ["plain"] and len(argv) == 3) or (argv[:1] == ["trace"] and len(argv) == 4):
        run_plan(*argv[1:])
    elif argv[:1] == ["alloc"] and len(argv) == 3:
        alloc(*argv[1:])
    else:
        sys.exit(f"usage: {sys.argv[0]} import | plain PLAN OUT | trace PLAN OUT SPANS | alloc PLAN OUT")


if __name__ == "__main__":
    main(sys.argv[1:])

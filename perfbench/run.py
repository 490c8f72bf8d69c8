"""Benchmark of the antimagic command line, end to end and layer by layer.

Run it from the root of a checkout; it runs the CLI from ./src, so nothing
needs installing:

    python3 perfbench/run.py --workload materialized --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload stream_emit --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload's CLI jobs as a closed loop, one child
process at a time, in whole rounds until ``--seconds`` have passed, and
reports the end-to-end metrics, its two times scaled by a probe of the
host's speed (see PROBE_ARGS).  ``--trace 1`` runs one round of the jobs of
all three workloads, then the same jobs in-process through
``trace_worker.py`` (plain and with spans), plus a tracemalloc pass, and
reports the per-layer metrics; every workload's traced run is the same, so
every per-layer metric is measured on the jobs that exercise it.

Outputs are checked after each job, outside the timed region.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The environment, every sample, medians and quartiles go to
``.perfbench/results/``; ``--smoke`` runs every workload at toy sizes and
checks that every metric is reported with its unit.  README.md in this
directory says why each workload exists.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata

from trace_worker import TRACED

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORK = os.path.join(STATE, "work")
TMP = os.path.join(STATE, "tmp")
RESULTS = os.path.join(STATE, "results")
WORKER = os.path.join(BENCH_DIR, "trace_worker.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

SETUP_ARGS = ["generate", "lattice", "1", "1"]
# The probe starts the interpreter, imports numpy, sorts an int64 array,
# fills a dict and makes many small writes to a temporary file, the kinds of
# work the CLI jobs do, but runs nothing of the package, so no change to the
# program can move it.
PROBE_ARGS = ["-c", "import os, tempfile, numpy as np; "
                    "np.random.default_rng(0).permutation(1 << 19).sort(); "
                    "d = {(i, i + 1): f'{i}' for i in range(1 << 16)}; "
                    "f = tempfile.TemporaryFile(); "
                    "[os.write(f.fileno(), b'x' * 200) for _ in range(1 << 15)]; f.close()"]
PROBE_REF_S = 0.35  # gated times are scaled to a host where the probe takes this long
SAMPLE_EVERY_S = 3.0
IMPORT_SPAWNS = 5
MAX_RUN_S = 150  # start no round that would end past this, to exit within 180 s
CHUNK = 1 << 20

# Nominal shapes per workload, as (full run, smoke run).  Dimensions of 10 or
# more get a seeded jitter of 0-3, so seeds reach both parities of m and n:
# the even-m anchor swap of grids and the even-n reversal of prisms.  Jitter
# keeps m <= n where the nominal shape has it: a square grid that turned
# m > n would take the transposed branch, at twice the cost of `properties`,
# on some seeds only.  The 210x80 grid takes that branch on every seed.
# stream_emit's last two shapes are emitted --by-label.
SHAPES = {
    "materialized": (
        [("lattice", 160, 160), ("lattice", 210, 80), ("prism", 160, 160)],
        [("lattice", 12, 12), ("lattice", 15, 6), ("prism", 12, 12)],
    ),
    "stream_verify": (
        [("lattice", 2000, 2000), ("lattice", 3000, 1000), ("prism", 2000, 2000),
         ("prism", 200000, 2)],
        [("lattice", 40, 40), ("lattice", 60, 20), ("prism", 40, 40), ("prism", 400, 2)],
    ),
    "stream_emit": (
        [("lattice", 450, 450), ("prism", 450, 450), ("lattice", 520, 300),
         ("prism", 450, 450)],
        [("lattice", 30, 30), ("prism", 30, 30), ("lattice", 35, 20), ("prism", 30, 30)],
    ),
}
WORKLOADS = tuple(SHAPES)
PATHS = {
    "materialized": ("generate_json", "generate_tsv", "generate_dot", "verify", "properties"),
    "stream_verify": ("bench",),
    "stream_emit": ("stream_tsv", "stream_by_label"),
}
ALL_PATHS = tuple(p for paths in PATHS.values() for p in paths)

END_TO_END = {"setup_s": "s", "edges_per_s": "edges/s", "peak_rss_mb": "MB"}
SPAN_METRICS = (*TRACED.values(), "stream.iter_edges_by_label")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "labelings.label_self_s": "s",
    "families.build_graph_alloc_mb": "MB",
    "labelings.label_alloc_mb": "MB",
    "formats.bytes_out": "bytes",
    "stream.peak_live_values": "count",
    "stream.spill_files": "count",
    "cli.import_s": "s",
    **{f"cli.{path}.self_s": "s" for path in ALL_PATHS},
    **{f"{path}_s": "s" for path in ALL_PATHS},
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    """One CLI invocation; ``output`` and ``stdin`` are file names in WORK."""

    path: str
    args: list
    edges: int
    output: str
    stdin: str = None
    twin: bool = False  # also run it with --stream; the bytes must match

    @property
    def key(self):
        return " ".join(self.args)


def edge_count(family, m, n):
    return 2 * m * n + m + (n if family == "lattice" else 0)


SETUP_JOB = Job("setup", SETUP_ARGS, edge_count("lattice", 1, 1), "setup.json")


def jittered(workload, seed, smoke):
    rng = random.Random(f"{seed}-shapes-{workload}")
    shapes = SHAPES[workload][1 if smoke else 0]
    out = []
    for family, m, n in shapes:
        dm, dn = (rng.randint(0, 3) if d >= 10 else 0 for d in (m, n))
        if m <= n and m + dm > n + dn:
            dm, dn = n - m + dn, m - n + dm  # swap the jittered sizes
        out.append((family, m + dm, n + dn))
    return out


def workload_jobs(workload, seed, smoke):
    """Producers first, then the jobs that read their files."""
    producers, consumers = [], []
    for index, (family, m, n) in enumerate(jittered(workload, seed, smoke)):
        spec = [family, str(m), str(n)]
        edges = edge_count(family, m, n)
        name = f"{workload}-{index}-{family}-{m}x{n}"
        if workload == "materialized":
            producers += [
                Job("generate_json", ["generate", *spec], edges, f"{name}.json"),
                Job("generate_tsv", ["generate", *spec, "--format", "tsv"], edges,
                    f"{name}.tsv", twin=True),
                Job("generate_tsv", ["generate", *spec, "--format", "tsv", "--by-label"],
                    edges, f"{name}.by-label.tsv", twin=True),
            ]
            consumers.append(
                Job("properties", ["properties", *spec], edges, f"{name}.properties.out"))
            if index > 0:
                continue
            # Serializing, parsing and checking depend little on the shape:
            # the first shape alone carries them, which keeps a round short.
            json_path = os.path.join(WORK, f"{name}.json")
            producers.append(
                Job("generate_dot", ["generate", *spec, "--format", "dot"], edges, f"{name}.dot"))
            consumers += [
                Job("verify", ["verify", json_path], edges, f"{name}.verify-json.out"),
                Job("verify", ["verify", "-"], edges, f"{name}.verify-tsv.out", stdin=f"{name}.tsv"),
                Job("properties", ["properties", "--input", json_path], edges,
                    f"{name}.properties-json.out"),
            ]
        elif workload == "stream_verify":
            producers.append(Job("bench", ["bench", *spec], edges, f"{name}.out"))
        else:
            by_label = index >= 2
            args = ["generate", *spec, "--format", "tsv", "--stream"]
            producers.append(
                Job("stream_by_label" if by_label else "stream_tsv",
                    args + ["--by-label"] if by_label else args, edges, f"{name}.tsv")
            )
    return producers, consumers


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(path, doc, **kwargs):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, **kwargs)


def file_digest(path):
    """sha256 and newline count, read in fixed-size chunks to keep this process small."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(CHUNK):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def summary(samples):
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


class Runner:
    """Runs CLI jobs one at a time, checks their outputs and keeps every sample."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ANTIMAGIC_OUTPUT_DIR", "PYTHONPATH")}
        self.env.update(PYTHONPATH=SRC, TMPDIR=TMP)
        self.recorded = load_json(DIGESTS)
        self.seen = {}
        self.twins_checked = set()
        self.records = []
        self.setup = []  # records of the cold starts
        self.probes = []  # walls of the probe
        self.sampled_at = 0.0
        self.attempted = 0
        self.failed = 0

    def spawn(self, args, output, stdin=None):
        """Run one child to completion; wall seconds, peak RSS in MB, exit code."""
        with open(os.path.join(WORK, output), "wb") as out, \
                open(os.path.join(WORK, stdin) if stdin else os.devnull, "rb") as inp, \
                open(os.path.join(WORK, "stderr.txt"), "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdin=inp, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def execute(self, job):
        wall, rss, rc = self.spawn([sys.executable, "-m", "antimagic.cli", *job.args],
                                   job.output, job.stdin)
        record = {"path": job.path, "args": job.args, "edges": job.edges, "wall_s": wall,
                  "rss_mb": rss, "bytes": os.path.getsize(os.path.join(WORK, job.output))}
        record["error"] = self.check(job, record) if rc == 0 else f"exit code {rc}: {self.stderr_tail()}"
        self.attempted += 1
        if record["error"]:
            self.failed += 1
            print(f"FAILED {job.key}: {record['error']}", file=sys.stderr)
        self.records.append(record)
        return record

    def stderr_tail(self):
        with open(os.path.join(WORK, "stderr.txt"), "rb") as handle:
            handle.seek(max(0, os.fstat(handle.fileno()).st_size - 400))
            return handle.read().decode(errors="replace").strip()

    def check(self, job, record):
        """None if the output is right, else what is wrong; untimed."""
        path = os.path.join(WORK, job.output)
        if job.path in ("verify", "bench", "properties"):
            with open(path, encoding="utf-8") as handle:
                lines = handle.read(1 << 16).splitlines()
            if job.path == "properties":
                return None if lines and all(x.startswith("PASS ") for x in lines) \
                    else "a property failed"
            if lines[:1] != ["antimagic: yes"]:
                return "not antimagic"
            if job.path == "bench" and f"edges labeled: {job.edges}" not in lines:
                return "wrong edge count"
            return None
        digest, lines = file_digest(path)
        record["sha256"] = digest
        if "tsv" in job.args and lines != job.edges:
            return f"{lines} rows for {job.edges} edges"
        if self.recorded.get(job.key, digest) != digest:
            return "output differs from the recorded digest"
        if self.seen.setdefault(job.key, digest) != digest:
            return "output changed between rounds"
        if job.twin and job.key not in self.twins_checked:
            self.twins_checked.add(job.key)
            twin = job.output + ".stream"
            _, _, rc = self.spawn([sys.executable, "-m", "antimagic.cli", *job.args, "--stream"],
                                  twin)
            if rc != 0 or file_digest(os.path.join(WORK, twin))[0] != digest:
                return "materialized and --stream tsv differ"
        return None

    def round(self, jobs):
        """Run ``jobs`` in order, sampling the machine's speed between them.

        Slow spells of this kind of shared host last from seconds to
        minutes and slow every process alike, so a cold start of the CLI
        and a probe are spawned every SAMPLE_EVERY_S all through the run.
        """
        if not self.setup:
            self.execute(SETUP_JOB)  # compiles bytecode on a fresh checkout; not a sample
            self.sample()
        records = []
        for job in jobs:
            records.append(self.execute(job))
            if time.perf_counter() - self.sampled_at >= SAMPLE_EVERY_S:
                self.sample()
        return records

    def sample(self):
        self.setup.append(self.execute(SETUP_JOB))
        wall, _, rc = self.spawn([sys.executable, *PROBE_ARGS], "probe.out")
        if rc != 0:
            raise RuntimeError(f"the probe {PROBE_ARGS} failed with exit code {rc}")
        self.probes.append(wall)
        self.sampled_at = time.perf_counter()

    def worker(self, *args):
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"trace worker {args[0]} failed:\n{proc.stderr}")
        return proc.stdout


def shuffled_round(jobs, rng):
    producers, consumers = list(jobs[0]), list(jobs[1])
    rng.shuffle(producers)
    rng.shuffle(consumers)
    return producers + consumers


def throughput(records):
    """Edges handled per second of job wall time."""
    return sum(r["edges"] for r in records) / sum(r["wall_s"] for r in records)


def measure(workload, seed, seconds, smoke, runner):
    """End-to-end metrics of one workload, tracing off."""
    jobs = workload_jobs(workload, seed, smoke)
    rng = random.Random(f"{seed}-order-{workload}")
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.round(shuffled_round(jobs, rng)))
        # Outputs removed within seconds of being written are never written
        # back to disk, so one round's writeback cannot slow the next.
        for name in os.listdir(WORK):
            os.remove(os.path.join(WORK, name))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + elapsed / len(rounds) > MAX_RUN_S:
            break
    done = [r for records in rounds for r in records]
    setup = [r["wall_s"] for r in runner.setup]
    # Gated times are scaled by the probe's median over the run: see PROBE_ARGS.
    scale = PROBE_REF_S / statistics.median(runner.probes)
    metrics = {
        "setup_s": summary([wall * scale for wall in setup]),
        "edges_per_s": dict(summary([throughput(records) / scale for records in rounds]),
                            value=throughput(done) / scale),
        "peak_rss_mb": dict(summary([max(r["rss_mb"] for r in records) for records in rounds]),
                            value=max(r["rss_mb"] for r in done)),
        "setup_raw_s": summary(setup),
        "edges_per_s_raw": dict(summary([throughput(records) for records in rounds]),
                                value=throughput(done)),
        "probe_s": summary(runner.probes),
        "rss_floor_mb": summary([r["rss_mb"] for r in runner.setup]),
        "failed_ratio": {"value": runner.failed / runner.attempted},
    }
    for path in PATHS[workload]:
        metrics[f"{path}_s"] = summary(
            [sum(r["wall_s"] for r in records if r["path"] == path) for records in rounds])
    units = {**END_TO_END, "setup_raw_s": "s", "edges_per_s_raw": "edges/s", "probe_s": "s",
             "rss_floor_mb": "MB", "failed_ratio": "ratio",
             **{f"{path}_s": "s" for path in PATHS[workload]}}
    return metrics, units, list(END_TO_END), {"rounds": len(rounds)}


def span_metrics(spans):
    """Per-name totals, self time of label, and library seconds under each job."""
    by_name = defaultdict(float)
    library = defaultdict(float)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            spans[parent].setdefault("child_s", 0.0)
            spans[parent]["child_s"] += span["dur"]
            if spans[parent]["parent"] is None:
                library[span["job"]] += span["dur"]
        # Count a span once: skip it when a span of the same name encloses it.
        up = parent
        while up is not None and spans[up]["name"] != span["name"]:
            up = spans[up]["parent"]
        if up is None:
            by_name[span["name"]] += span["dur"]
    label_self = sum(s["dur"] - s.get("child_s", 0.0) for s in spans
                     if s["name"] == "labelings.label")
    return by_name, label_self, library


def trace(seed, smoke, runner):
    """Per-layer metrics: one untraced CLI round of every workload, then the
    in-process plain and traced passes, then the tracemalloc pass."""
    jobs = []
    for workload in WORKLOADS:
        jobs += shuffled_round(workload_jobs(workload, seed, smoke),
                               random.Random(f"{seed}-order-{workload}"))
    records = runner.round(jobs)
    setup_s = statistics.median(r["wall_s"] for r in runner.setup)
    imports = [float(runner.worker("import")) for _ in range(IMPORT_SPAWNS)]

    plan = [{"path": job.path, "args": job.args, "output": os.path.join(WORK, "inproc.out"),
             "stdin": os.path.join(WORK, job.stdin) if job.stdin else None} for job in jobs]
    names = {key: os.path.join(WORK, f"{key}.json")
             for key in ("plan", "plain", "traced", "alloc-plan", "alloc")}
    spans_path = os.path.join(RESULTS, f"spans-seed{seed}{'-smoke' if smoke else ''}.json")
    dump_json(names["plan"], plan)
    dump_json(names["alloc-plan"], jittered("materialized", seed, smoke))
    # Plain and traced passes run in two fresh processes with the same job
    # order, so their difference is the tracing and not a warmer heap.
    runner.worker("plain", names["plan"], names["plain"])
    runner.worker("trace", names["plan"], names["traced"], spans_path)
    runner.worker("alloc", names["alloc-plan"], names["alloc"])
    plain, traced, spans, peaks = (load_json(path) for path in (
        names["plain"], names["traced"], spans_path, names["alloc"]))
    for job, *walls in zip(jobs, plain, traced):
        for wall in walls:
            runner.attempted += 1
            if wall["rc"] != 0:
                runner.failed += 1
                print(f"FAILED in-process {job.key}: exit code {wall['rc']}", file=sys.stderr)

    by_name, label_self, library = span_metrics(spans)
    stream_stats = [s["attrs"] for s in spans if s["name"] == "stream.stream_verify"]
    values = {f"{name}_s": by_name[name] for name in SPAN_METRICS}
    values.update({
        "labelings.label_self_s": label_self,
        "families.build_graph_alloc_mb": max(p["build_graph"] for p in peaks) / 2**20,
        "labelings.label_alloc_mb": max(p["label"] for p in peaks) / 2**20,
        "formats.bytes_out": sum(r["bytes"] for r in records if r["path"].startswith("generate")),
        "stream.peak_live_values": max(s["peak_live_values"] for s in stream_stats),
        "stream.spill_files": sum(s["spill_files"] for s in stream_stats),
        "cli.import_s": statistics.median(imports),
        "trace.overhead_s": sum(w["wall_s"] for w in traced) - sum(w["wall_s"] for w in plain),
    })
    for path in ALL_PATHS:
        mine = [i for i, job in enumerate(jobs) if job.path == path]
        values[f"{path}_s"] = sum(records[i]["wall_s"] for i in mine)
        values[f"cli.{path}.self_s"] = sum(records[i]["wall_s"] - setup_s - library[i]
                                           for i in mine)
    metrics = {name: {"value": value} for name, value in values.items()}
    metrics["cli.import_s"].update(summary(imports))
    extra = {"setup_s": setup_s, "spans_file": os.path.relpath(spans_path, ROOT),
             "in_process": [{"args": job.args, "plain_s": p["wall_s"], "traced_s": t["wall_s"]}
                            for job, p, t in zip(jobs, plain, traced)],
             "alloc_bytes": peaks}
    return metrics, dict(PER_LAYER), list(PER_LAYER), extra


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_digest():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                digest.update(file_digest(path)[0].encode())
    return digest.hexdigest()


def l3_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="ascii") as handle:
                if handle.read().strip() == "3":
                    with open(os.path.join(base, index, "size"), encoding="ascii") as size:
                        return size.read().strip()
    except OSError:
        pass
    return None


def environment(args):
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3_cache": l3_cache(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run(args):
    """One benchmark run; returns the result line and writes the results file."""
    for path in (WORK, TMP):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    os.makedirs(RESULTS, exist_ok=True)
    runner = Runner()
    try:
        if args.trace:
            metrics, units, reported, extra = trace(args.seed, args.smoke, runner)
        else:
            metrics, units, reported, extra = measure(
                args.workload, args.seed, args.seconds, args.smoke, runner)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        shutil.rmtree(TMP, ignore_errors=True)
    for name, metric in metrics.items():
        metric.setdefault("value", metric.get("median"))
        metric["unit"] = units[name]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in reported},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    dump_json(os.path.join(RESULTS, f"{tag}.json"),
              {"environment": environment(args), "result": result, "metrics": metrics,
               "extra": extra, "jobs": runner.records}, indent=1)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    return result, metrics


def smoke():
    """Every workload at toy sizes; every metric must come with its declared unit."""
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    cases = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]
    for workload, traced in cases:
        args = argparse.Namespace(workload=workload, seed=0, seconds=1, trace=traced, smoke=True)
        result, metrics = run(args)
        want = per_layer if traced else {
            **end_to_end, "failed_ratio": "ratio", "rss_floor_mb": "MB",
            **{f"{path}_s": "s" for path in PATHS[workload]}}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if set(got) != set(per_layer if traced else end_to_end):
            problems.append(f"{workload} trace {traced}: reported {sorted(got)}")
        for name, unit in want.items():
            if metrics.get(name, {}).get("unit") != unit or metrics[name]["value"] is None:
                problems.append(f"{workload} trace {traced}: {name} missing or not in {unit}")
        if not result["correct"]:
            problems.append(f"{workload} trace {traced}: {result['failed']} jobs failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes; check the metric set")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "antimagic", "cli.py")):
        print(f"perfbench: no antimagic sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

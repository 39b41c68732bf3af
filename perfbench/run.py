"""convperf benchmark: one workload per run, result JSON on the last line.

    python3 perfbench/run.py --workload {walkthrough,grid,solvers} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a convperf checkout; it runs the program from
that checkout's ``src``.  Workloads:

* ``walkthrough``: the README CLI walkthrough, one subprocess per stage.
* ``grid``: ``experiment.run_grid`` over 12 ridge cells, in one process.
* ``solvers``: forest, SVR and MLP fits on prepared matrices, one
  process per fit.

Each run sets up (median of several set-ups is ``setup_s``), then
repeats the workload's job until ``--seconds`` have passed and reports
medians.  ``--trace 1`` adds one traced job (and traces one set-up) and
reports the per-layer metrics of ``BENCHMARK.json`` instead of the
end-to-end ones.  Every job's outputs are checked; a failed check, a
failed stage, cell or fit, or an output hash that changes between jobs
of one run counts as a failed operation.  Details of every run go to
``.bench_work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median
from typing import NamedTuple

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
RUN_BUDGET_S = 170.0  # every run must end within 180 s
CONVERSATIONS = {"walkthrough": 2000, "grid": 5000, "solvers": 5000}
SOLVER_FAMILIES = ("forest", "svr", "mlp")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("synth", "ingest", "tag", "featurize", "train", "evaluate")
# Per-layer metrics the parent measures at a process boundary.
BOUNDARY_METRICS = [
    f"cli.{s}.{m}" for s in STAGES for m in ("wall_s", "cpu_s", "peak_rss_mb")
] + ["regressors.svr.peak_rss_mb"]


class BenchError(RuntimeError):
    """The run cannot produce a result (set-up failed, no program, ...)."""


class Proc(NamedTuple):
    """Outcome of one child process, measured by the parent."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    """This checkout's ``src`` first on the path; BLAS/OpenMP on one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.conversations = args.conversations or CONVERSATIONS[args.workload]
        self.work = Path(args.work_dir).resolve() / args.workload
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tracer = tracing.Tracer("job") if self.trace else None
        self.trace_records: list[dict] = []
        self.env = child_env()

    def path(self, name) -> str:
        return str(self.work / name)

    def child(self, *argv, cwd=None) -> Proc:
        """Run ``child.py ARGV`` to completion; wall, CPU and peak RSS."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(self.path("children.log"), "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, *argv], env=self.env, cwd=cwd,
                stdout=log, stdin=subprocess.DEVNULL,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: do not leave the child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Proc(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0)

    def traced_args(self, out, parent=None):
        args = ["--trace-out", self.path(out)]
        return args + (["--trace-parent", parent] if parent else [])

    def collect_traces(self, names):
        """Load the span files children wrote (a crashed child writes none)."""
        for name in names:
            if os.path.exists(self.path(name)):
                self.trace_records.append(read_json(self.path(name)))


def timed_loop(seconds, once):
    """Call ``once`` until ``seconds`` have passed (at least once)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(once())
        if time.perf_counter() - start >= seconds:
            return results


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    """What a workload hands back: op counts, metrics and details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.details: dict = {}

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def _digest_failures(digests):
    """Jobs whose output digest differs from the first job's."""
    first = digests[0]
    return [i for i, d in enumerate(digests) if d != first]


# ------------------------------------------------------------ walkthrough


def walkthrough_stages(n, seed):
    """The README walkthrough, with the workload seed for synth/featurize."""
    return [
        ("synth", ["synth", "--out", "raw.jsonl", "--n", str(n), "--seed", str(seed)]),
        ("ingest", ["ingest", "--in", "raw.jsonl", "--out", "kept.jsonl"]),
        ("tag", ["tag", "--in", "kept.jsonl", "--out", "tagged.jsonl"]),
        ("featurize", ["featurize", "--in", "tagged.jsonl", "--out", "features.csv",
                       "--seed", str(seed)]),
        ("train", ["train", "--features", "features.csv", "--family", "forest",
                   "--n-trees", "10", "--max-depth", "14", "--min-leaf", "8",
                   "--target", "length", "--model-out", "forest.json"]),
        ("evaluate", ["evaluate", "--features", "features.csv", "--model", "forest.json",
                      "--report-out", "report.csv"]),
    ]


def _walkthrough_once(ctx, traced=False):
    job_dir = ctx.work / "job"
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    tr = ctx.tracer if traced else None
    job_span = tr.begin("bench.job") if tr else None
    stages = {}
    t0 = time.perf_counter()
    for name, argv in walkthrough_stages(ctx.conversations, ctx.seed):
        opts = []
        if tr:
            span = tr.begin(f"cli.{name}")
            opts = ctx.traced_args(f"trace-{name}.json", span["id"])
        stages[name] = ctx.child("stage", *opts, "--", *argv, cwd=job_dir)
        if tr:
            tr.end(span)
    wall = time.perf_counter() - t0
    if tr:
        tr.end(job_span)
        ctx.collect_traces(f"trace-{s}.json" for s in STAGES)
    problems, info = checks.check_walkthrough(job_dir, ctx.conversations)
    for stage, found in problems.items():
        for p in found:
            print(f"walkthrough check ({stage}): {p}", file=sys.stderr)
    failed = {s for s, p in stages.items() if p.rc != 0} | set(problems)
    return {"wall": wall, "stages": stages, "failed": failed, "info": info}


def run_walkthrough(ctx, out):
    probes = [ctx.child("probe", ctx.path("probe.json")) for _ in range(SETUP_REPEATS)]
    if any(p.rc != 0 for p in probes):
        raise BenchError("cannot import convperf.cli")
    jobs = timed_loop(ctx.seconds, lambda: _walkthrough_once(ctx))
    if ctx.trace:
        jobs.append(_walkthrough_once(ctx, traced=True))
    digests = [(j["info"].get("features_sha256"), j["info"].get("report_sha256")) for j in jobs]
    for i in _digest_failures(digests):
        jobs[i]["failed"] |= {"featurize", "evaluate"}
    for j in jobs:
        out.ops(len(STAGES), len(j["failed"]))

    timed = jobs[:-1] if ctx.trace else jobs
    wall = median([j["wall"] for j in timed])
    info = jobs[0]["info"]
    out.metrics.update({
        "setup_s": median([p.wall for p in probes]),
        "wall_s": wall,
        "exchanges_per_s": info.get("exchanges", 0) / wall,
        "peak_rss_mb": median([max(p.rss_mb for p in j["stages"].values()) for j in timed]),
        "test_r2": median([j["info"]["r2"] for j in jobs if "r2" in j["info"]] or [0.0]),
    })
    for s in STAGES:
        out.metrics[f"cli.{s}.wall_s"] = median([j["stages"][s].wall for j in timed])
        out.metrics[f"cli.{s}.cpu_s"] = median([j["stages"][s].cpu for j in timed])
        out.metrics[f"cli.{s}.peak_rss_mb"] = median([j["stages"][s].rss_mb for j in timed])
    if ctx.trace:
        out.metrics["trace.overhead_s"] = jobs[-1]["wall"] - wall
    out.details.update({
        "exchanges": info.get("exchanges"),
        "features_sha256": info.get("features_sha256"),
        "report_sha256": info.get("report_sha256"),
        "job_walls_s": [j["wall"] for j in jobs],
        "setup_walls_s": [p.wall for p in probes],
    })


# ------------------------------------------------------------------- grid


def run_grid(ctx, out):
    argv = ["grid", ctx.path("grid.json"), "--seed", str(ctx.seed),
            "--conversations", str(ctx.conversations), "--seconds", str(ctx.seconds)]
    if ctx.trace:
        argv += ctx.traced_args("trace-grid.json")
    proc = ctx.child(*argv)
    if proc.rc != 0:
        raise BenchError(f"grid process exited {proc.rc}")
    res = read_json(ctx.path("grid.json"))
    jobs = res["iterations"] + ([res["traced"]] if ctx.trace else [])
    cells = res["cells"]
    bad = set(_digest_failures([j[3] for j in jobs]))
    for i, (_, failed, _, _) in enumerate(jobs):
        out.ops(cells, cells if i in bad else failed)
    wall = median([j[0] for j in res["iterations"]])
    r2 = [j[2] for j in jobs if j[2] is not None]
    out.metrics.update({
        "setup_s": median(res["setup_s"]),
        "wall_s": wall,
        "exchanges_per_s": res["exchanges"] / wall,
        "peak_rss_mb": proc.rss_mb,
        "test_r2": median(r2) if r2 else 0.0,
    })
    if ctx.trace:
        out.metrics["trace.overhead_s"] = res["traced"][0] - wall
        ctx.collect_traces(["trace-grid.json"])
    out.details.update({
        "exchanges": res["exchanges"],
        "report_sha256": jobs[0][3],
        "job_walls_s": [j[0] for j in jobs],
        "setup_walls_s": res["setup_s"],
    })


# ---------------------------------------------------------------- solvers


def _solvers_once(ctx, traced=False):
    tr = ctx.tracer if traced else None
    job_span = tr.begin("bench.job") if tr else None
    fits = {}
    t0 = time.perf_counter()
    for fam in SOLVER_FAMILIES:
        opts = []
        if tr:
            span = tr.begin(f"solvers.{fam}")
            opts = ctx.traced_args(f"trace-{fam}.json", span["id"])
        proc = ctx.child("fit", ctx.path(f"fit-{fam}.json"), "--family", fam,
                         "--seed", str(ctx.seed), "--data", ctx.path("data.npz"), *opts)
        if tr:
            tr.end(span)
        res = read_json(ctx.path(f"fit-{fam}.json")) if proc.rc == 0 else None
        fits[fam] = (proc, res)
    wall = time.perf_counter() - t0
    if tr:
        tr.end(job_span)
        ctx.collect_traces(f"trace-{f}.json" for f in SOLVER_FAMILIES)
    return {"wall": wall, "fits": fits}


def run_solvers(ctx, out):
    setups = []
    for i in range(SETUP_REPEATS):
        opts = ctx.traced_args("trace-prepare.json") if ctx.trace and i == SETUP_REPEATS - 1 else []
        setups.append(ctx.child("prepare", ctx.path("prepare.json"), "--seed", str(ctx.seed),
                                "--conversations", str(ctx.conversations),
                                "--data", ctx.path("data.npz"), *opts))
    prep = read_json(ctx.path("prepare.json")) if setups[-1].rc == 0 else None
    if any(p.rc != 0 for p in setups) or prep["problems"]:
        raise BenchError(f"solvers set-up failed: {prep and prep['problems']}")
    if ctx.trace:
        ctx.collect_traces(["trace-prepare.json"])

    n_test = prep["rows"]["test"]
    jobs = timed_loop(ctx.seconds, lambda: _solvers_once(ctx))
    if ctx.trace:
        jobs.append(_solvers_once(ctx, traced=True))
    digests = {f: [] for f in SOLVER_FAMILIES}
    for j in jobs:
        for fam, (proc, res) in j["fits"].items():
            ok = proc.rc == 0 and res["n_test"] == n_test and math.isfinite(res["r2"])
            digests[fam].append(res["predictions_sha256"] if ok else None)
    for fam, seq in digests.items():
        bad = set(_digest_failures(seq)) | {i for i, d in enumerate(seq) if d is None}
        out.ops(len(seq), len(bad))

    timed = jobs[:-1] if ctx.trace else jobs
    wall = median([j["wall"] for j in timed])
    r2 = [fmean(res["r2"] for _, res in j["fits"].values())
          for j in jobs if all(res for _, res in j["fits"].values())]
    out.metrics.update({
        "setup_s": median([p.wall for p in setups]),
        "wall_s": wall,
        "exchanges_per_s": prep["exchanges"] / wall,
        "peak_rss_mb": median([max(p.rss_mb for p, _ in j["fits"].values()) for j in timed]),
        "test_r2": median(r2) if r2 else 0.0,
        "regressors.svr.peak_rss_mb": median([j["fits"]["svr"][0].rss_mb for j in timed]),
    })
    if ctx.trace:
        out.metrics["trace.overhead_s"] = jobs[-1]["wall"] - wall
    out.details.update({
        "exchanges": prep["exchanges"],
        "rows": prep["rows"],
        "predictions_sha256": {f: s[0] for f, s in digests.items()},
        "job_walls_s": [j["wall"] for j in jobs],
        "setup_walls_s": [p.wall for p in setups],
    })


WORKLOADS = {"walkthrough": run_walkthrough, "grid": run_grid, "solvers": run_solvers}


# ------------------------------------------------------------------ report


def provenance(ctx):
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        git_sha = res.stdout.strip() or None
    try:
        probe_ok = ctx.child("probe", ctx.path("probe.json")).rc == 0
    except BenchError:  # no time left: the result matters more than versions
        probe_ok = False
    versions = read_json(ctx.path("probe.json")) if probe_ok else {}
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "loadavg": os.getloadavg(),
        "threads_env": {k: ctx.env[k] for k in PINNED_THREADS},
    }


def print_tables(outcome, record):
    cli = [(s, outcome.metrics.get(f"cli.{s}.wall_s")) for s in STAGES]
    if cli[0][1]:
        print("stage       wall_s   cpu_s  peak_rss_mb")
        for s, wall in cli:
            print(f"{s:<10} {wall:7.3f} {outcome.metrics[f'cli.{s}.cpu_s']:7.3f} "
                  f"{outcome.metrics[f'cli.{s}.peak_rss_mb']:11.1f}")
    if record is not None:
        print("span                              calls    total_s     self_s")
        table = tracing.span_table(record["spans"])
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<32} {row['calls']:6d} {row['total_s']:10.4f} {row['self_s']:10.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--conversations", type=int,
                        help="corpus size (default: the workload's own)")
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_work"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "convperf" / "__init__.py").is_file():
        print(f"error: no convperf source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = read_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ctx = Context(args)
    shutil.rmtree(ctx.work, ignore_errors=True)  # no stale outputs or spans
    ctx.work.mkdir(parents=True)
    out = Outcome()
    load_before = os.getloadavg()
    try:
        WORKLOADS[args.workload](ctx, out)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    error_rate = out.failed / out.attempted
    out.metrics["success_rate"] = 1.0 - error_rate
    out.metrics["error_rate"] = error_rate
    record = None
    if args.trace:
        record = tracing.merge([ctx.tracer.record(), *ctx.trace_records])
        out.metrics.update(tracing.layer_metrics(record))
        for name in BOUNDARY_METRICS:  # measured only where that process runs
            out.metrics.setdefault(name, 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    prov = provenance(ctx)
    prov["loadavg_before"] = load_before
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "conversations": ctx.conversations,
        "provenance": prov, "metrics": out.metrics, **out.details,
    }
    if record is not None:
        details["spans"] = tracing.span_table(record["spans"])
    result_path = ctx.work.parent / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(exist_ok=True)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    print_tables(out, record)
    print("provenance", json.dumps(prov))
    print(f"details in {result_path}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness itself: span arithmetic, output checks,
failure accounting, and a small run of every workload."""

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = "150"


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


# ------------------------------------------------------------ span arithmetic


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert tracing.union_length([(0, 1), (1, 2)]) == pytest.approx(2.0)


def test_self_time_is_parent_minus_union_of_children():
    spans = [
        _span("a", "job", 0.0, 10.0),
        _span("b", "x", 1.0, 4.0, "a"),
        _span("c", "x", 3.0, 6.0, "a"),  # overlaps b: counted once
        _span("d", "y", 8.0, 12.0, "a"),  # runs past its parent: clipped
        _span("e", "z", 2.0, 3.0, "b"),  # grandchild: only b loses it
    ]
    own = tracing.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(4.0)
    table = tracing.span_table(spans)
    assert table["x"] == {"calls": 2, "total_s": pytest.approx(6.0), "self_s": pytest.approx(5.0)}


def test_install_wraps_imported_names_and_undo_restores_them():
    import convperf.cli
    import convperf.corpus

    original = convperf.corpus.parse_corpus
    tracer = tracing.Tracer("t")
    undo = tracing.install(tracer)
    try:
        assert convperf.cli.parse_corpus is convperf.corpus.parse_corpus
        assert convperf.cli.parse_corpus is not original
        line = '{"id": "a", "rating": 3, "exchanges": [{"topic": "movies"}, {"topic": "tv"}]}\n'
        convperf.cli.parse_corpus(io.StringIO(line))
    finally:
        undo()
    assert convperf.cli.parse_corpus is original
    metrics = tracing.layer_metrics(tracing.merge([tracer.record()]))
    assert metrics["corpus.parse_corpus.calls"] == 1
    assert metrics["corpus.exchanges_parsed"] == 2


# ------------------------------------------------------------- output checks


@pytest.fixture(scope="module")
def walkthrough_dir(tmp_path_factory):
    """Outputs of one real walkthrough at 60 conversations."""
    work = tmp_path_factory.mktemp("walkthrough")
    for _, argv in run.walkthrough_stages(60, 2):
        subprocess.run([sys.executable, run.CHILD, "stage", "--", *argv], cwd=work,
                       env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
    return work


def _copy(src, tmp_path):
    dst = tmp_path / "job"
    shutil.copytree(src, dst)
    return dst


def test_intact_walkthrough_passes_every_check(walkthrough_dir):
    problems, info = checks.check_walkthrough(walkthrough_dir, 60)
    assert problems == {}
    assert info["exchanges"] > 60 and math.isfinite(info["r2"])


def test_truncated_report_fails_evaluate(walkthrough_dir, tmp_path):
    job = _copy(walkthrough_dir, tmp_path)
    text = (job / "report.csv").read_text(encoding="utf-8")
    (job / "report.csv").write_text(text[: len(text) // 2], encoding="utf-8")
    problems, _ = checks.check_walkthrough(job, 60)
    assert list(problems) == ["evaluate"]


def test_dropped_conversation_fails_ingest(walkthrough_dir, tmp_path):
    job = _copy(walkthrough_dir, tmp_path)
    lines = (job / "kept.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (job / "kept.jsonl").write_text("".join(lines[1:]), encoding="utf-8")
    problems, _ = checks.check_walkthrough(job, 60)
    assert "ingest" in problems


def test_split_rule_is_floor_80_10_10():
    assert checks.split_sizes(2549) == {"train": 2041, "dev": 254, "test": 254}
    assert checks.split_sizes(9) == {"train": 9, "dev": 0, "test": 0}


# -------------------------------------------------------- failure accounting


def _run_main(capsys, tmp_path, *extra):
    rc = run.main([
        "--workload", "walkthrough", "--seed", "2", "--seconds", "0", "--trace", "0",
        "--conversations", "60", "--work-dir", str(tmp_path), *extra,
    ])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_stage_exit_1_raises_error_rate(monkeypatch, capsys, tmp_path):
    stages = run.walkthrough_stages

    def broken(n, seed):  # ingest rejects --min-length 0 and exits 1
        return [(s, argv + ["--min-length", "0"] if s == "ingest" else argv)
                for s, argv in stages(n, seed)]

    monkeypatch.setattr(run, "walkthrough_stages", broken)
    res = _run_main(capsys, tmp_path)
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["success_rate"]["value"] < 1.0


def test_truncated_report_raises_error_rate(monkeypatch, capsys, tmp_path):
    check = checks.check_walkthrough

    def truncating(work, n):
        report = Path(work) / "report.csv"
        report.write_text(report.read_text(encoding="utf-8")[:40], encoding="utf-8")
        return check(work, n)

    monkeypatch.setattr(run.checks, "check_walkthrough", truncating)
    res = _run_main(capsys, tmp_path)
    assert res["failed"] == 1 and res["attempted"] == len(run.STAGES)


# ----------------------------------------------------------- whole workloads


def _bench(tmp_path, workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--conversations", SMALL, "--work-dir", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    proc = _bench(tmp_path, workload, 1)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_small_untraced_run_reports_end_to_end_metrics(tmp_path):
    proc = _bench(tmp_path, "grid", 0)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in res["metrics"].values())


def test_fails_without_program_source(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(tmp_path / "work", "grid", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Output checks recomputed from the files with plain ``json`` and ``csv``.

Nothing here imports convperf: each check derives its expectation from
the inputs on its own (the length filter, the floor 80/10/10 split rule)
and compares the program's output against it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

MIN_LENGTH = 5
LENGTH_CAP = 75
REPORT_HEADER = [
    "model", "target", "feature_set", "prefix_k", "n",
    "mse", "r2", "pearson_r", "p_value", "config_hash",
]
REPORT_METRICS = ("mse", "r2", "pearson_r", "p_value")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def split_sizes(n: int) -> dict[str, int]:
    """Floor rule: dev and test get n // 10 each, train the rest."""
    return {"train": n - 2 * (n // 10), "dev": n // 10, "test": n // 10}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report_csv(text: str, n_rows: int, n_test: int) -> tuple[list[str], list[float]]:
    """Problems in a report CSV, and the r2 of each row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != REPORT_HEADER:
        return ["report header is missing or wrong"], []
    body = rows[1:]
    problems = []
    if len(body) != n_rows:
        problems.append(f"report has {len(body)} rows, expected {n_rows}")
    r2 = []
    for i, row in enumerate(body, start=1):
        if len(row) != len(REPORT_HEADER):
            problems.append(f"report row {i} has {len(row)} cells")
            continue
        rec = dict(zip(REPORT_HEADER, row))
        if rec["n"] != str(n_test):
            problems.append(f"report row {i}: n={rec['n']}, test rows={n_test}")
        bad = [k for k in REPORT_METRICS if not _finite(rec[k])]
        if bad:
            problems.append(f"report row {i}: non-finite {', '.join(bad)}")
        else:
            r2.append(float(rec["r2"]))
    return problems, r2


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _jsonl_lengths(path) -> list[tuple[str, int]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append((rec["id"], len(rec["exchanges"])))
    return out


def _check_features(path, kept: list[tuple[str, int]]) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["id"] or rows[0][-3:] != ["rating", "capped_length", "split"]:
        return ["features.csv header is missing or wrong"]
    width = len(rows[0])
    body = rows[1:]
    problems = []
    if [r[0] for r in body] != [cid for cid, _ in kept]:
        problems.append("features.csv ids differ from the kept conversations")
    if any(len(r) != width for r in body):
        return problems + ["features.csv has ragged rows"]
    counts = {"train": 0, "dev": 0, "test": 0}
    for r in body:
        counts[r[-1]] = counts.get(r[-1], 0) + 1
    if counts != split_sizes(len(kept)):
        problems.append(f"split sizes {counts} break the floor 80/10/10 rule")
    if not all(_finite(x) for r in body for x in r[1:-3]):
        problems.append("features.csv has a non-finite feature cell")
    lengths = dict(kept)
    if any(int(r[-2]) != min(lengths.get(r[0], -1), LENGTH_CAP) for r in body):
        problems.append("features.csv capped_length disagrees with the corpus")
    return problems


def check_walkthrough(work, n_conversations: int) -> tuple[dict[str, list[str]], dict]:
    """Problems per walkthrough stage, plus the facts the metrics need.

    The facts are the raw exchange count, the test-split r2 and the
    SHA-256 of ``features.csv`` and ``report.csv``.
    """
    problems: dict[str, list[str]] = {}
    info: dict = {}

    def guarded(stage, fn):
        try:
            return fn()
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.setdefault(stage, []).append(f"{type(e).__name__}: {e}")
            return None

    raw = guarded("synth", lambda: _jsonl_lengths(os.path.join(work, "raw.jsonl")))
    if raw is None:
        return problems, info
    info["exchanges"] = sum(n for _, n in raw)
    if len(raw) != n_conversations:
        problems["synth"] = [f"raw.jsonl holds {len(raw)} conversations"]
    kept = [(cid, n) for cid, n in raw if n >= MIN_LENGTH]
    if guarded("ingest", lambda: _jsonl_lengths(os.path.join(work, "kept.jsonl"))) != kept:
        problems.setdefault("ingest", []).append("kept.jsonl is not raw.jsonl filtered at length 5")
    if guarded("tag", lambda: _jsonl_lengths(os.path.join(work, "tagged.jsonl"))) != kept:
        problems.setdefault("tag", []).append("tagged.jsonl does not hold the kept conversations")
    feats = os.path.join(work, "features.csv")
    found = guarded("featurize", lambda: _check_features(feats, kept))
    if found:
        problems.setdefault("featurize", []).extend(found)
    if found is not None:
        info["features_sha256"] = sha256_file(feats)
    guarded("train", lambda: json.loads(_read_text(os.path.join(work, "forest.json"))))

    report = os.path.join(work, "report.csv")
    text = guarded("evaluate", lambda: _read_text(report))
    if text is not None:
        found, r2 = check_report_csv(text, 1, split_sizes(len(kept))["test"])
        if found:
            problems.setdefault("evaluate", []).extend(found)
        if r2:
            info["r2"] = r2[0]
        info["report_sha256"] = sha256_bytes(text.encode("utf-8"))
    return problems, info

"""Spans and counters recorded around convperf's public functions.

The benchmark traces the program from outside: :func:`install` replaces
module attributes with wrappers that record one span per call, and
counters computed from the call's arguments and result.  A function
imported by name into another convperf module (``convperf.cli`` imports
``parse_corpus``, for example) is replaced there too.  Spans stay in
memory and are written once, by :meth:`Tracer.dump`.

Span ids carry the process id, so spans written by several processes can
be merged; ``time.perf_counter`` reads the system-wide monotonic clock
on Linux, so their times are comparable.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: str = "", parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        # Distinct feature matrices: key -> rows.
        self.matrices: dict[str, int] = {}
        self._stack: list[str | None] = [parent]
        self._next = 0
        self._prefix = f"p{os.getpid()}-"

    def begin(self, name: str) -> dict:
        span = {
            "id": f"{self._prefix}{self._next}",
            "name": name,
            "parent": self._stack[-1],
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self._next += 1
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def add(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "matrices": self.matrices,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)


# ------------------------------------------------------------------ counters


def _file_size(fh) -> int:
    """Size of the file behind an open handle; 0 for in-memory streams."""
    try:
        if fh.writable():
            fh.flush()
        return os.fstat(fh.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _on_generate(tr, args, result):
    tr.add("synth.conversations", len(result))


def _on_parse(tr, args, result):
    tr.add("corpus.exchanges_parsed", sum(len(c.exchanges) for c in result))
    tr.add("corpus.bytes_read", _file_size(args["stream"]))


def _on_write(tr, args, result):
    tr.add("corpus.bytes_written", _file_size(args["fh"]))


def _on_filter(tr, args, result):
    tr.add("corpus.filter_min_length.dropped", len(args["corpus"]) - len(result))


def _on_tag(tr, args, result):
    tr.add("tagging.utterances", sum(len(c.exchanges) for c in result))
    tr.add(
        "tagging.tagged_exchanges",
        sum(1 for c in result for ex in c.exchanges if ex.sda_tags),
    )


def _on_matrix(tr, args, result):
    ids, X = result
    digest = hashlib.sha1("\n".join(ids).encode("utf-8"))
    digest.update(f"|{X.shape[1]}|{args['prefix_k']}".encode("utf-8"))
    tr.add("features.rows_built", len(ids))
    tr.matrices[digest.hexdigest()] = len(ids)


def _on_grid(tr, args, result):
    tr.add("experiment.cells", len(result))


def _on_forest(tr, args, result):
    tr.add("regressors.forest.nodes", sum(t.n_nodes for t in result.params.trees))


def _on_svr(tr, args, result):
    tr.add("regressors.svr.n_support", len(result.params.sv_beta))


def _on_save(tr, args, result):
    tr.add("regressors.model_json_bytes", os.path.getsize(args["path"]))


def _linear_name(args):
    return f"regressors.{args['family']}.fit"


def _predict_name(args):
    return f"regressors.{args['self'].spec.family}.predict"


# (module, attribute, span name or name(args), counter hook or None).  A
# dotted attribute names a method, patched on its class.
TRACED = (
    ("convperf.synth", "generate", "synth.generate", _on_generate),
    ("convperf.corpus", "parse_corpus", "corpus.parse_corpus", _on_parse),
    ("convperf.corpus", "write_corpus_jsonl", "corpus.write_corpus_jsonl", _on_write),
    ("convperf.corpus", "filter_min_length", "corpus.filter_min_length", _on_filter),
    ("convperf.corpus", "split_corpus", "corpus.split_corpus", None),
    ("convperf.corpus", "Corpus.subset", "corpus.subset", None),
    ("convperf.tagging", "tag_corpus", "tagging.tag_corpus", _on_tag),
    ("convperf.features", "build_matrix", "features.build_matrix", _on_matrix),
    ("convperf.features", "write_feature_csv", "features.write_feature_csv", None),
    ("convperf.features", "read_feature_csv", "features.read_feature_csv", None),
    ("convperf.experiment", "run_grid", "experiment.run_grid", _on_grid),
    ("convperf.experiment", "fit_spec", "experiment.fit_spec", None),
    ("convperf.regressors.tree", "best_split", "regressors.tree.best_split", None),
    ("convperf.regressors.forest", "fit_forest", "regressors.forest.fit", _on_forest),
    ("convperf.regressors.linear", "fit_linear", _linear_name, None),
    ("convperf.regressors.svr", "fit_svr", "regressors.svr.fit", _on_svr),
    ("convperf.regressors.mlp", "fit_mlp", "regressors.mlp.fit", None),
    ("convperf.regressors.base", "TrainedModel.predict_prepared", _predict_name, None),
    ("convperf.regressors.base", "save_model", "regressors.save_model", _on_save),
    ("convperf.regressors.base", "load_model", "regressors.load_model", None),
)


def _wrap(tracer: Tracer, fn, name, hook):
    sig = inspect.signature(fn)
    needs_args = hook is not None or callable(name)

    def traced(*args, **kwargs):
        bound = None
        if needs_args:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            bound = ba.arguments
        span = tracer.begin(name(bound) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, bound, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap every function in :data:`TRACED`; returns an undo callable."""
    importlib.import_module("convperf.cli")  # loads every traced module
    undo = []
    for mod_name, attr, name, hook in TRACED:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, original, name, hook))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name, hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("convperf"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# ---------------------------------------------------------------- analysis


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_table(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive total and self time (s)."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table


def merge(records) -> dict:
    """Combine dumped tracer records from several processes."""
    spans, counters, matrices = [], defaultdict(int), {}
    for rec in records:
        spans.extend(rec["spans"])
        for k, v in rec["counters"].items():
            counters[k] += v
        matrices.update(rec["matrices"])
    return {"spans": spans, "counters": dict(counters), "matrices": matrices}


_TOTALS = (
    "synth.generate",
    "corpus.parse_corpus",
    "corpus.write_corpus_jsonl",
    "tagging.tag_corpus",
    "features.build_matrix",
    "features.write_feature_csv",
    "features.read_feature_csv",
    "regressors.tree.best_split",
    "regressors.save_model",
    "regressors.load_model",
)
_CALLS = ("corpus.parse_corpus", "features.build_matrix", "regressors.tree.best_split")
_COUNTERS = (
    "synth.conversations",
    "corpus.bytes_read",
    "corpus.bytes_written",
    "corpus.exchanges_parsed",
    "corpus.filter_min_length.dropped",
    "tagging.utterances",
    "tagging.tagged_exchanges",
    "features.rows_built",
    "experiment.cells",
    "regressors.forest.nodes",
    "regressors.svr.n_support",
    "regressors.model_json_bytes",
)
FAMILIES = ("forest", "svr", "mlp", "ridge")


def layer_metrics(record) -> dict[str, float]:
    """Per-layer metrics from a merged record; absent layers read 0."""
    table = span_table(record["spans"])
    counters = record["counters"]

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    out = {f"{n}.s": total(n) for n in _TOTALS}
    out.update({f"{n}.calls": table.get(n, {}).get("calls", 0) for n in _CALLS})
    out.update({n: counters.get(n, 0) for n in _COUNTERS})
    for fam in FAMILIES:
        out[f"regressors.{fam}.fit_s"] = total(f"regressors.{fam}.fit")
        out[f"regressors.{fam}.predict_s"] = total(f"regressors.{fam}.predict")
    out["experiment.run_grid.self_s"] = table.get("experiment.run_grid", {}).get("self_s", 0.0)

    utterances = counters.get("tagging.utterances", 0)
    out["tagging.hit_ratio"] = (
        counters.get("tagging.tagged_exchanges", 0) / utterances if utterances else 0.0
    )
    distinct_rows = sum(record["matrices"].values())
    out["features.distinct_matrices"] = len(record["matrices"])
    out["features.rebuild_ratio"] = (
        counters.get("features.rows_built", 0) / distinct_rows if distinct_rows else 0.0
    )
    return out

"""In-memory span tracing around the calls into each rankgate layer.

The tracer replaces module attributes with timing wrappers for the length
of one pass and restores them afterwards. It wraps each function where the
calling module looks it up: ``rankgate.experiment`` and ``rankgate.curation``
import names directly, so ``rankgate.experiment.train`` and
``rankgate.curation.build_gallery`` are wrapped, while ``rankgate.cli``
reaches through module attributes such as ``rankgate.mlp.train``.

A span is ``[name, start, end, parent, child_time]``; its self time is its
duration minus ``child_time``, the time covered by the spans it caused.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from pathlib import Path


def _add_records(counts, args, result):
    counts["store.records"] += len(result)


def _add_rows(counts, args, result):
    counts["search.rows_scored"] += args[0].size


def _add_probes(counts, args, result):
    counts["curation.probes"] += len(result.probe_vectors)


def _add_epochs(counts, args, result):
    counts["mlp.epochs"] += args[1].folds * args[1].epochs


def _add_report_bytes(counts, args, result):
    counts["experiment.report_bytes"] += Path(args[2]).stat().st_size


def _add_cell(counts, args, result):
    counts["experiment.cells"] += 1


# (module, attribute, span name, counter)
BINDINGS = (
    ("rankgate.store", "ingest", "store.ingest", _add_records),
    ("rankgate.experiment", "ingest", "store.ingest", _add_records),
    ("rankgate.store", "write_store", "store.write", None),
    ("rankgate.curation", "build_gallery", "search.build_gallery", None),
    ("rankgate.curation", "search", "search.search", _add_rows),
    ("rankgate.curation", "extract_rank_vector", "search.extract_rank_vector", None),
    ("rankgate.curation", "curate_detailed", "curation.curate", _add_probes),
    ("rankgate.experiment", "curate_detailed", "curation.curate", _add_probes),
    ("rankgate.mlp", "train", "mlp.train", _add_epochs),
    ("rankgate.experiment", "train", "mlp.train", _add_epochs),
    ("rankgate.mlp", "loss_and_grad", "mlp.loss_and_grad", None),
    ("rankgate.mlp", "predict", "mlp.predict", None),
    ("rankgate.experiment", "predict", "mlp.predict", None),
    ("rankgate.mlp", "save_model", "mlp.save_model", None),
    ("rankgate.mlp", "load_model", "mlp.load_model", None),
    ("rankgate.experiment", "fuse_gallery", "baselines.fuse_gallery", None),
    ("rankgate.experiment", "fused_scores", "baselines.fused_scores", None),
    ("rankgate.experiment", "calibrate_threshold", "baselines.calibrate_threshold", None),
    ("rankgate.experiment", "run_cell", "experiment.run_cell", _add_cell),
    ("rankgate.experiment", "emit_report", "experiment.emit_report", _add_report_bytes),
)

# Per-layer metric name -> unit. Every traced run reports all of them; a
# layer a workload never reaches reads 0.
UNITS = {
    "store.ingest_s": "s",
    "store.records": "count",
    "store.write_s": "s",
    "search.build_gallery_calls": "count",
    "search.build_gallery_s": "s",
    "search.search_calls": "count",
    "search.rows_scored": "count",
    "search.search_s": "s",
    "search.extract_rank_vector_s": "s",
    "curation.curate_self_s": "s",
    "curation.probes": "count",
    "curation.s_per_probe": "s",
    "mlp.train_s": "s",
    "mlp.epochs": "count",
    "mlp.epoch_s": "s",
    "mlp.loss_and_grad_calls": "count",
    "mlp.loss_and_grad_s": "s",
    "mlp.predict_calls": "count",
    "mlp.predict_s": "s",
    "mlp.save_model_s": "s",
    "mlp.load_model_s": "s",
    "baselines.fuse_gallery_s": "s",
    "baselines.fused_scores_calls": "count",
    "baselines.fused_scores_s": "s",
    "baselines.calibrate_threshold_s": "s",
    "experiment.cells": "count",
    "experiment.run_cell_self_s": "s",
    "experiment.emit_report_s": "s",
    "experiment.report_bytes": "bytes",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans and counts of one pass, recorded while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, such as one whole pass."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass (all but ``trace.overhead_pct``)."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        c = self.counts
        probes = c["curation.probes"]
        epochs = c["mlp.epochs"]
        return {
            "store.ingest_s": total["store.ingest"],
            "store.records": c["store.records"],
            "store.write_s": total["store.write"],
            "search.build_gallery_calls": calls["search.build_gallery"],
            "search.build_gallery_s": total["search.build_gallery"],
            "search.search_calls": calls["search.search"],
            "search.rows_scored": c["search.rows_scored"],
            "search.search_s": total["search.search"],
            "search.extract_rank_vector_s": total["search.extract_rank_vector"],
            "curation.curate_self_s": own["curation.curate"],
            "curation.probes": probes,
            "curation.s_per_probe": total["curation.curate"] / probes if probes else 0.0,
            "mlp.train_s": total["mlp.train"],
            "mlp.epochs": epochs,
            "mlp.epoch_s": total["mlp.train"] / epochs if epochs else 0.0,
            "mlp.loss_and_grad_calls": calls["mlp.loss_and_grad"],
            "mlp.loss_and_grad_s": total["mlp.loss_and_grad"],
            "mlp.predict_calls": calls["mlp.predict"],
            "mlp.predict_s": total["mlp.predict"],
            "mlp.save_model_s": total["mlp.save_model"],
            "mlp.load_model_s": total["mlp.load_model"],
            "baselines.fuse_gallery_s": total["baselines.fuse_gallery"],
            "baselines.fused_scores_calls": calls["baselines.fused_scores"],
            "baselines.fused_scores_s": total["baselines.fused_scores"],
            "baselines.calibrate_threshold_s": total["baselines.calibrate_threshold"],
            "experiment.cells": c["experiment.cells"],
            "experiment.run_cell_self_s": own["experiment.run_cell"],
            "experiment.emit_report_s": total["experiment.emit_report"],
            "experiment.report_bytes": c["experiment.report_bytes"],
        }

    def dump(self) -> list:
        """Spans as ``[name, start, end, parent]`` relative to the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent, _child in self.spans
        ]

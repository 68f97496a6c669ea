"""End-to-end evaluation: curate, split, fit every method, score one test set.

A plan enumerates (group, condition, seed) cells. Within a cell every
method sees the same curation and the same train/test split, so accuracy
differences come from the method, not the data. Feature permutation
augmentation is applied to the classifier's training samples only; score
baselines calibrate on the unaugmented training split, and nothing
augmented ever reaches the test side. A score baseline thresholds one top
score per sample; fusion takes a probe's in-gallery and out-of-gallery
scores from one screened row of the fused gallery, a block of probes at a
time.

Reports are deterministic: rows are emitted in a fixed sort order, floats
are printed reproducibly, and no timestamps or host details are embedded,
so re-running a plan yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import (
    TARGET_FPIR,
    ThresholdModel,
    calibrate_threshold,
    centroid_classify,
    classify_score,
    fit_centroid,
    fuse_gallery,
    fused_scores,
)
from .codec import csv_line, from_dict, read_json, write_json
from .curation import (
    IN_GALLERY,
    OUT_OF_GALLERY,
    CurationConfig,
    CurationResult,
    curate_detailed,
    permute_augment,
    stratified_split,
)
# predict stays bound here: benchmarks/tracing.py wraps rankgate.experiment.predict.
from .mlp import MlpConfig, predict, predict_batch, train  # noqa: F401
from .search import screen_block
from .store import FORMATS, EmbeddingStore, ingest
from .synth import SynthConfig, check_sigma, config_from_dict, generate

METHODS = ("mlp", "threshold", "mean", "median", "fusion")

REPORT_FORMAT = "rankgate-eval-report-v1"


@dataclass(frozen=True)
class ConditionSpec:
    """A probe condition: a tag plus the noise level applied to probes."""

    tag: str
    probe_noise_sigma: float = 0.0

    def __post_init__(self):
        if not self.tag:
            raise ValueError("condition tag must be non-empty")
        check_sigma("probe_noise_sigma", self.probe_noise_sigma)


@dataclass(frozen=True)
class ExperimentPlan:
    groups: tuple[str, ...]
    conditions: tuple[ConditionSpec, ...]
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = METHODS
    d_in: int = CurationConfig.d_in
    store_path: Optional[str] = None
    store_format: str = "binary"
    synth: Optional[SynthConfig] = None
    augment_copies: int = 1
    test_fraction: float = 0.2
    target_fpir: float = TARGET_FPIR
    reuse_first_condition_threshold: bool = False
    mlp_hidden: tuple[int, ...] = MlpConfig.hidden_sizes
    mlp_dropout: float = MlpConfig.dropout_p
    mlp_learning_rate: float = MlpConfig.learning_rate
    mlp_batch_size: int = MlpConfig.batch_size
    mlp_epochs: int = MlpConfig.epochs
    mlp_folds: int = MlpConfig.folds
    input_scaling: str = MlpConfig.input_scaling

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "mlp_hidden", tuple(int(h) for h in self.mlp_hidden))
        if not self.groups:
            raise ValueError("plan needs at least one group")
        if not self.conditions:
            raise ValueError("plan needs at least one condition")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if not all(isinstance(c, ConditionSpec) for c in self.conditions):
            raise ValueError("every plan condition must be a ConditionSpec")
        tags = tuple(c.tag for c in self.conditions)
        named = (("groups", self.groups), ("seeds", self.seeds), ("condition tags", tags))
        for name, values in named:
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be unique, got {list(values)}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {METHODS}")
        if not self.methods:
            raise ValueError("plan needs at least one method")
        if self.store_path is not None and not isinstance(self.store_path, str):
            raise ValueError(f"store_path must be a string, got {self.store_path!r}")
        if (self.store_path is None) == (self.synth is None):
            raise ValueError("exactly one of store_path or synth must be set")
        if self.store_format not in FORMATS:
            raise ValueError(f"store_format must be one of {FORMATS}, got {self.store_format!r}")
        # The configs each cell builds, so a bad setting fails here, not in every cell.
        try:
            _mlp_config(self, self.seeds[0])
        except ValueError as exc:
            # MlpConfig's message starts with its field; name the plan key instead.
            name, _, rest = str(exc).partition(" ")
            raise ValueError(f"{_MLP_KEYS.get(name, name)} {rest}") from None
        CurationConfig(d_in=self.d_in)


@dataclass(frozen=True)
class CellResult:
    group: str
    condition: str
    method: str
    seed: int
    accuracy: float
    n_test: int
    tp: int
    tn: int
    fp: int
    fn: int


@dataclass(frozen=True)
class CellFailure:
    """A cell that raised instead of producing rows."""

    group: str
    condition: str
    seed: int
    error: str


@dataclass(frozen=True)
class ReportMetadata:
    """What a report was made from: its format, the plan and its hash, and
    notes on how to read the rows."""

    format: str
    plan: dict
    plan_hash: str
    notes: list[str]


@dataclass
class EvalReport:
    rows: list[CellResult]
    metadata: ReportMetadata
    failures: list[CellFailure] = field(default_factory=list)


def load_plan_store(plan: ExperimentPlan) -> EmbeddingStore:
    if plan.synth is not None:
        return generate(plan.synth)
    return ingest(plan.store_path, plan.store_format)


def _confusion(pairs: Sequence[tuple[int, int]]) -> tuple[int, int, int, int]:
    """``(tp, tn, fp, fn)`` of ``(label, prediction)`` pairs."""
    counts = Counter(pairs)
    return counts[1, 1], counts[0, 0], counts[0, 1], counts[1, 0]


def _top_score_tables(
    cur: CurationResult, methods: Sequence[str]
) -> tuple[dict[str, dict[tuple[str, int], float]], list[str]]:
    """Per planned score method, the top score of each sample's own search,
    keyed by ``(probe_identity, label)``, plus the identities fusion
    excluded. Fusion scores a block of probes at a time; a probe's
    out-of-gallery search does not see its own identity's centroid, so it
    scores ``-inf`` when no other centroid is left."""
    tables = {}
    excluded: list[str] = []
    if "threshold" in methods:
        tables["threshold"] = {
            (s.probe_identity, s.label): s.top_similarity for s in cur.samples
        }
    if "fusion" in methods:
        fused = fuse_gallery(cur.gallery)
        excluded = fused.excluded
        # One in-gallery sample per probe, in the order of probe_vectors.
        probes = [s.probe_identity for s in cur.samples if s.label == IN_GALLERY]
        block = screen_block(fused)
        table = {}
        for start in range(0, len(probes), block):
            identities = probes[start : start + block]
            vectors = cur.probe_vectors[start : start + block]
            inside, outside = fused_scores(fused, vectors, identities)
            for ident, score_in, score_out in zip(
                identities, inside.tolist(), outside.tolist()
            ):
                table[ident, IN_GALLERY] = score_in
                table[ident, OUT_OF_GALLERY] = score_out
        tables["fusion"] = table
    return tables, excluded


# Each MlpConfig field a plan sets, and the plan key that sets it.
_MLP_KEYS = {
    "d_in": "d_in",
    "hidden_sizes": "mlp_hidden",
    "dropout_p": "mlp_dropout",
    "learning_rate": "mlp_learning_rate",
    "batch_size": "mlp_batch_size",
    "epochs": "mlp_epochs",
    "folds": "mlp_folds",
    "input_scaling": "input_scaling",
}


def _mlp_config(plan: ExperimentPlan, seed: int) -> MlpConfig:
    settings = {name: getattr(plan, key) for name, key in _MLP_KEYS.items()}
    return MlpConfig(rng_seed=seed, **settings)


def run_cell(
    store_group: EmbeddingStore,
    plan: ExperimentPlan,
    group: str,
    condition: ConditionSpec,
    seed: int,
    calibration: Optional[dict[str, ThresholdModel]] = None,
) -> tuple[list[CellResult], dict[str, ThresholdModel]]:
    """Evaluate every planned method on one (group, condition, seed) cell.

    A score method decides on one top score per sample. Unless
    ``calibration`` carries thresholds from an earlier cell, each is
    calibrated on the training split's out-of-gallery scores, the exact
    numbers ``classify_score`` is later applied to, so no test sample's
    score sets a threshold. Returns the rows and the thresholds by method.
    """
    config = CurationConfig(
        d_in=plan.d_in, rng_seed=seed, group=group, condition=condition.tag
    )
    # Positional: the benchmark's capturing wrapper names the third parameter otherwise.
    cur = curate_detailed(store_group, config, condition.probe_noise_sigma)
    split = stratified_split(cur.samples, plan.test_fraction, seed)
    train_s, test_s = list(split.train), list(split.test)
    tables, excluded = _top_score_tables(cur, plan.methods)
    if calibration is None:
        nonmated = [
            (s.probe_identity, s.label) for s in train_s if s.label == OUT_OF_GALLERY
        ]
        calibration = {}
        for method, table in tables.items():
            scores = [table[k] for k in nonmated]
            # Only a fusion score can be -inf: see _top_score_tables.
            blind = [ident for (ident, _), v in zip(nonmated, scores) if v == -np.inf]
            if blind:
                raise ValueError(
                    f"{method} score of the training out-of-gallery sample of probe "
                    f"{blind[0]!r} is -inf: no fused centroid is left besides its "
                    f"own (excluded identities: {excluded})"
                )
            calibration[method] = calibrate_threshold(scores, plan.target_fpir)

    rows = []
    for method in METHODS:
        if method not in plan.methods:
            continue
        pairs: list[tuple[int, int]] = []
        if method == "mlp":
            augmented = permute_augment(train_s, plan.augment_copies, seed)
            model, _report = train(augmented, _mlp_config(plan, seed))
            labels, _probs = predict_batch(
                model, [s.ranks for s in test_s], [s.gallery_size for s in test_s]
            )
            pairs = [(s.label, label) for s, label in zip(test_s, labels.tolist())]
        elif method in tables:
            table = tables[method]
            for s in test_s:
                score = table[s.probe_identity, s.label]
                pairs.append((s.label, classify_score(calibration[method], score)))
        elif method in ("mean", "median"):
            centroids = fit_centroid(train_s, method)
            for s in test_s:
                pairs.append((s.label, centroid_classify(centroids, s.ranks)))
        tp, tn, fp, fn = _confusion(pairs)
        n = len(pairs)
        accuracy = (tp + tn) / n
        rows.append(CellResult(group, condition.tag, method, seed, accuracy, n, tp, tn, fp, fn))
    return rows, calibration


def run_experiment(
    plan: ExperimentPlan, store: Optional[EmbeddingStore] = None
) -> EvalReport:
    """Run every cell of the plan. Failed cells are recorded, not fatal.

    With ``reuse_first_condition_threshold``, a failed first condition also
    fails the later conditions of its group and seed, which would reuse its
    thresholds."""
    if store is None:
        store = load_plan_store(plan)
    rows: list[CellResult] = []
    failures: list[CellFailure] = []
    reuse = plan.reuse_first_condition_threshold
    for seed in plan.seeds:
        for group in plan.groups:
            try:
                sub = store.filter_by_group(group)
            except ValueError as exc:
                failures += [_failure(group, c.tag, seed, exc) for c in plan.conditions]
                continue
            carried: Optional[dict[str, ThresholdModel]] = None
            first_failed: Optional[str] = None  # the first cell's error, when reused
            for i, condition in enumerate(plan.conditions):
                try:
                    if first_failed is not None:
                        raise RuntimeError(
                            f"first condition {plan.conditions[0].tag!r}, whose score "
                            f"thresholds this cell reuses, failed: {first_failed}"
                        )
                    cell_rows, calibration = run_cell(
                        sub, plan, group, condition, seed, calibration=carried
                    )
                except Exception as exc:  # noqa: BLE001 cell isolation is the point
                    failures.append(_failure(group, condition.tag, seed, exc))
                    if reuse and i == 0:
                        first_failed = failures[-1].error
                    continue
                rows.extend(cell_rows)
                if reuse and i == 0:
                    carried = calibration
    rows.sort(key=lambda r: (r.group, r.condition, r.method, r.seed))
    failures.sort(key=lambda f: (f.group, f.condition, f.seed))
    metadata = ReportMetadata(
        format=REPORT_FORMAT,
        plan=asdict(plan),
        plan_hash=plan_hash(plan),
        notes=_plan_notes(plan),
    )
    return EvalReport(rows=rows, metadata=metadata, failures=failures)


def _failure(group: str, condition: str, seed: int, exc: Exception) -> CellFailure:
    return CellFailure(group, condition, seed, f"{type(exc).__name__}: {exc}")


def _plan_notes(plan: ExperimentPlan) -> list[str]:
    notes = []
    if plan.input_scaling == "divide_by_gallery_size":
        notes.append(
            "classifier inputs are ranks divided by gallery size, not raw ranks"
        )
    if plan.reuse_first_condition_threshold:
        notes.append(
            "score thresholds calibrated on the first condition and reused"
        )
    return notes


@dataclass(frozen=True)
class SweepRow:
    d_in: int
    mean_accuracy: float
    n_cells: int


def cardinality_sweep(
    plan: ExperimentPlan,
    d_in_values: Sequence[int],
    store: Optional[EmbeddingStore] = None,
) -> tuple[list[SweepRow], list[EvalReport]]:
    """Mean classifier accuracy per rank-vector width, on matched curations.

    Duplicate widths are collapsed with a warning. Any failed cell aborts
    the sweep, because a partial mean would not be comparable across widths.
    """
    values = []
    for d in d_in_values:
        d = int(d)
        if d in values:
            warnings.warn(f"duplicate d_in value {d} ignored", stacklevel=2)
            continue
        values.append(d)
    values.sort()
    if not values:
        raise ValueError("no d_in values to sweep")
    if store is None:
        store = load_plan_store(plan)
    rows = []
    reports = []
    for d in values:
        sub_plan = replace(plan, d_in=d, methods=("mlp",))
        report = run_experiment(sub_plan, store)
        if report.failures:
            first = report.failures[0]
            raise RuntimeError(
                f"sweep cell failed at d_in={d} "
                f"[group={first.group} condition={first.condition} "
                f"seed={first.seed}]: {first.error}"
            )
        accs = [r.accuracy for r in report.rows]
        rows.append(SweepRow(d, float(np.mean(accs)), len(accs)))
        reports.append(report)
    return rows, reports


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with open(Path(path), "w") as fh:
        fh.write("d_in,mean_accuracy_pct,n_cells\n")
        for row in rows:
            fh.write(f"{row.d_in},{row.mean_accuracy * 100:.2f},{row.n_cells}\n")


def plan_from_dict(payload: dict) -> ExperimentPlan:
    """Plan from its JSON form; ValueError names a missing or unknown field.

    ``plan_hash``, which ``eval`` writes into ``resolved_plan.json``, is
    accepted and ignored, so a resolved plan can be run again as it is.
    """
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "plan_hash"}
        if payload.get("synth") is not None:
            payload["synth"] = config_from_dict(payload["synth"])
    return from_dict(ExperimentPlan, payload, "plan")


def plan_from_json(path) -> ExperimentPlan:
    return plan_from_dict(read_json(path))


def plan_hash(plan: ExperimentPlan) -> str:
    canonical = json.dumps(asdict(plan), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def emit_report(report: EvalReport, format: str, path) -> None:
    """Write the report as ``json``, ``csv`` or ``markdown``.

    Percentages are fixed to two decimals; output bytes depend only on the
    report contents.
    """
    path = Path(path)
    if format == "json":
        write_json(path, asdict(report))
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("group,condition,method,seed,n_test,tp,tn,fp,fn,accuracy_pct\n")
            for r in report.rows:
                fields = (r.group, r.condition, r.method, r.seed, r.n_test,
                          r.tp, r.tn, r.fp, r.fn, f"{r.accuracy * 100:.2f}")
                fh.write(csv_line(fields) + "\n")
    elif format == "markdown":
        lines = ["| group | condition | method | seed | n_test | accuracy |"]
        lines.append("|---|---|---|---|---|---|")
        for r in report.rows:
            group, condition = (c.replace("|", "\\|") for c in (r.group, r.condition))
            lines.append(
                f"| {group} | {condition} | {r.method} | {r.seed} "
                f"| {r.n_test} | {r.accuracy * 100:.2f}% |"
            )
        for note in report.metadata.notes:
            lines.append("")
            lines.append(f"Note: {note}")
        if report.failures:
            lines.append("")
            lines.append("Failed cells:")
            for f in report.failures:
                lines.append(f"- {f.group}/{f.condition}/seed {f.seed}: {f.error}")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {format!r}")

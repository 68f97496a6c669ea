"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each pass drives ``rankgate.cli.main`` in-process, the way a user runs the
``rankgate`` command. Checks compare the outputs with computations made
apart from the program (``reference``) or with properties the method must
have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import traceback
from pathlib import Path

import numpy as np

import reference

DIMENSION = 64
WITHIN_SIGMA = 0.08
D_IN = 3
REFERENCE_PROBES = 16


def call(rg, argv) -> int:
    """Run one ``rankgate`` command; its stdout is discarded.

    An exception that escapes the command counts as a failed operation.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return rg.cli.main([str(a) for a in argv])
    except Exception:  # noqa: BLE001 a crashed command is a failed operation
        traceback.print_exc(file=sys.stderr)
        return -1


def _write_store(rg, path: Path, seed: int, groups, images: int) -> None:
    config = rg.synth.SynthConfig(
        n_identities=sum(n for _, n in groups),
        images_per_identity=images,
        dimension=DIMENSION,
        within_noise_sigma=WITHIN_SIGMA,
        groups=tuple(groups),
        rng_seed=seed,
    )
    rg.store.write_store(rg.synth.generate(config), path)


class EvalWorkload:
    """``rankgate eval --plan`` on a generated binary store."""

    outputs = tuple(
        f"out/{name}" for name in ("report.json", "report.csv", "report.md", "resolved_plan.json")
    )

    def __init__(self, groups, conditions, methods):
        self.groups = groups
        self.conditions = conditions
        self.methods = methods
        self.captured: list = []

    def prepare(self, rg, work: Path, seed: int) -> None:
        _write_store(rg, work / "store.bin", seed, self.groups, images=5)
        plan = {
            "groups": [g for g, _ in self.groups],
            "conditions": [
                {"tag": t, "probe_noise_sigma": s} for t, s in self.conditions
            ],
            "seeds": [seed],
            "methods": list(self.methods),
            "d_in": D_IN,
            "store_path": str(work / "store.bin"),
            "store_format": "binary",
        }
        (work / "plan.json").write_text(json.dumps(plan, indent=2) + "\n")

    def run_pass(self, rg, work: Path, capture: bool) -> list[int]:
        argv = ["eval", "--plan", work / "plan.json", "--out-dir", work / "out"]
        if not capture:
            return [call(rg, argv)]
        # Keep each cell's curation for the reference check.
        original = rg.experiment.curate_detailed

        def capturing(store, config, degrade=None):
            result = original(store, config, degrade)
            self.captured.append((config, result))
            return result

        rg.experiment.curate_detailed = capturing
        try:
            return [call(rg, argv)]
        finally:
            rg.experiment.curate_detailed = original

    def check(self, rg, work: Path, outputs: dict) -> list[str]:
        problems = []
        report = json.loads(outputs["out/report.json"])
        if report["failures"]:
            problems.append(f"failed cells: {report['failures']}")
        rows = report["rows"]
        want = {
            (g, t, m) for g, _ in self.groups for t, _ in self.conditions
            for m in self.methods
        }
        got = [(r["group"], r["condition"], r["method"]) for r in rows]
        if len(rows) != len(want) or set(got) != want:
            problems.append(f"report has {len(rows)} rows, want {len(want)}: {got}")
        for r in rows:
            tag = f"{r['group']}/{r['condition']}/{r['method']}"
            if r["tp"] + r["tn"] + r["fp"] + r["fn"] != r["n_test"]:
                problems.append(f"{tag}: confusion counts do not sum to n_test")
            elif r["accuracy"] != (r["tp"] + r["tn"]) / r["n_test"]:
                problems.append(f"{tag}: accuracy {r['accuracy']} != (tp+tn)/n_test")
            if r["tp"] + r["fn"] != r["tn"] + r["fp"]:
                problems.append(f"{tag}: in-gallery and out-of-gallery test counts differ")
        problems += self._check_curation(work)
        return problems

    def _check_curation(self, work: Path) -> list[str]:
        cells = {(g, t) for g, _ in self.groups for t, _ in self.conditions}
        seen = {(c.group, c.condition) for c, _ in self.captured}
        if seen != cells:
            return [f"captured curations {sorted(seen)}, want {sorted(cells)}"]
        records = reference.read_store(work / "store.bin")
        sigma = dict(self.conditions)
        problems = []
        for config, result in self.captured:
            expected = reference.expected_samples(
                records,
                group=config.group,
                d_in=config.d_in,
                rng_seed=config.rng_seed,
                sigma=sigma[config.condition],
                n_probes=REFERENCE_PROBES,
            )
            got = {
                (s.probe_identity, s.label): {
                    "ranks": s.ranks,
                    "gallery_size": s.gallery_size,
                    "rank_one_identity": s.rank_one_identity,
                }
                for s in result.samples
            }
            problems += [
                f"{config.group}/{config.condition}: {p}"
                for p in reference.compare(expected, got, with_winner=True)
            ]
        return problems


class CliWalkthrough:
    """The README's command sequence on a small store, one command per call.

    The pass ends by loading the trained model and classifying the curated
    samples with the library API, the way the README's library section
    applies a model; no ``rankgate`` command loads a model.
    """

    outputs = (
        "store.csv",
        "store_rt.bin",
        "samples.csv",
        "model.bin",
        "train_report.json",
        "dist.csv",
        "median.json",
        "predictions.csv",
    )
    identities = 200
    images = 7
    probe_sigma = 0.1
    folds = 10
    max_rank = 50

    def prepare(self, rg, work: Path, seed: int) -> None:
        self.seed = seed
        _write_store(rg, work / "store.bin", seed, [("synth", self.identities)], self.images)

    def run_pass(self, rg, work: Path, capture: bool) -> list[int]:
        w = work
        steps = [
            ["ingest", "--input", w / "store.bin", "--out", w / "store.csv",
             "--out-format", "csv"],
            ["ingest", "--input", w / "store.csv", "--input-format", "csv",
             "--out", w / "store_rt.bin"],
            ["curate", "--store", w / "store.bin", "--d-in", D_IN,
             "--probe-sigma", self.probe_sigma, "--seed", self.seed,
             "--out", w / "samples.csv"],
            ["train", "--samples", w / "samples.csv", "--hidden", "16,16",
             "--epochs", 20, "--folds", self.folds, "--seed", self.seed,
             "--out", w / "model.bin", "--report", w / "train_report.json"],
            ["rankdist", "--samples", w / "samples.csv", "--max-rank", self.max_rank,
             "--out", w / "dist.csv"],
            ["baseline", "median", "--samples", w / "samples.csv",
             "--out", w / "median.json"],
        ]
        return [call(rg, argv) for argv in steps] + [self._apply(rg, w)]

    @staticmethod
    def _apply(rg, work: Path) -> int:
        try:
            model = rg.mlp.load_model(work / "model.bin")
            lines = []
            for s in rg.curation.load_samples_csv(work / "samples.csv"):
                label, _probs = rg.mlp.predict(model, s.ranks, s.gallery_size)
                lines.append(f"{s.probe_identity},{s.label},{label}\n")
            (work / "predictions.csv").write_text("".join(lines))
            return 0
        except Exception:  # noqa: BLE001 same boundary as call()
            traceback.print_exc(file=sys.stderr)
            return -1

    def check(self, rg, work: Path, outputs: dict) -> list[str]:
        problems = []
        if outputs["store_rt.bin"] != (work / "store.bin").read_bytes():
            problems.append("store round trip binary -> CSV -> binary changed bytes")
        rows = reference.read_samples_csv(work / "samples.csv")
        by_label = {
            label: np.array([r["ranks"] for r in rows if r["label"] == label], dtype=float)
            for label in (0, 1)
        }
        if len(by_label[0]) != len(by_label[1]):
            problems.append(
                f"{len(by_label[1])} in-gallery but {len(by_label[0])} out-of-gallery samples"
            )
        median = json.loads(outputs["median.json"])
        for key, label in (("center_in", 1), ("center_out", 0)):
            center = [float(v) for v in median[key]]
            if center != list(np.median(by_label[label], axis=0)):
                problems.append(f"median.json {key} {center} != numpy median of samples.csv")
        last = list(csv.reader(io.StringIO(outputs["dist.csv"].decode())))[-1]
        for label, column in ((1, 3), (0, 4)):
            n = int(np.count_nonzero(by_label[label] <= self.max_rank))
            if int(last[column]) != n:
                problems.append(f"dist.csv cumulative count for label {label} is {last[column]}, want {n}")
        train_report = json.loads(outputs["train_report.json"])
        accs = train_report["fold_accuracies"]
        if len(accs) != self.folds or train_report["selected_fold"] != accs.index(max(accs)):
            problems.append(f"train report does not select its best of {self.folds} folds")
        resaved = work / "model_resaved.bin"
        rg.mlp.save_model(rg.mlp.load_model(work / "model.bin"), resaved)
        if resaved.read_bytes() != outputs["model.bin"]:
            problems.append("model.bin changes on a load/save round trip")
        predictions = outputs["predictions.csv"].decode().splitlines()
        if len(predictions) != len(rows) or any(p[-2:] not in (",0", ",1") for p in predictions):
            problems.append("predictions.csv does not hold one 0/1 label per sample")
        expected = reference.expected_samples(
            reference.read_store(work / "store.bin"),
            group="",
            d_in=D_IN,
            rng_seed=self.seed,
            sigma=self.probe_sigma,
            n_probes=REFERENCE_PROBES,
        )
        got = {(r["probe_identity"], r["label"]): r for r in rows}
        problems += reference.compare(expected, got, with_winner=False)
        return problems


METHODS = ("mlp", "threshold", "mean", "median", "fusion")

WORKLOADS = {
    "eval-mixed": lambda: EvalWorkload(
        groups=(("ga", 100), ("gb", 100)),
        conditions=(("clean", 0.0), ("degraded", 0.10)),
        methods=METHODS,
    ),
    "gallery-large": lambda: EvalWorkload(
        groups=(("g", 500),),
        conditions=(("degraded", 0.10),),
        methods=("threshold", "fusion", "mean", "median"),
    ),
    "cli-walkthrough": CliWalkthrough,
}

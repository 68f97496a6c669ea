import csv
import json
import re
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import rankgate.experiment as experiment
from conftest import make_row, store_of
from oracles import oracle_fused_scores
from rankgate.curation import (
    IN_GALLERY,
    OUT_OF_GALLERY,
    CurationConfig,
    curate_detailed,
    stratified_split,
)
from rankgate.experiment import (
    CellFailure,
    CellResult,
    ConditionSpec,
    EvalReport,
    ExperimentPlan,
    METHODS,
    ReportMetadata,
    cardinality_sweep,
    emit_report,
    load_plan_store,
    plan_from_dict,
    plan_from_json,
    plan_hash,
    plan_to_dict,
    run_cell,
    run_experiment,
    write_sweep_csv,
)
from rankgate.store import unit_rows
from rankgate.synth import SynthConfig


def tiny_plan(**overrides):
    """A plan small enough that a full run takes well under a second."""
    base = dict(
        groups=("synth",),
        conditions=(ConditionSpec("clean"), ConditionSpec("noisy", 0.3)),
        seeds=(0,),
        synth=SynthConfig(
            n_identities=20,
            images_per_identity=5,
            dimension=16,
            within_noise_sigma=0.08,
            rng_seed=5,
        ),
        test_fraction=0.25,
        target_fpir=0.02,
        mlp_hidden=(8,),
        mlp_epochs=2,
        mlp_folds=2,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_requires_groups_conditions_seeds(self):
        with pytest.raises(ValueError, match="group"):
            tiny_plan(groups=())
        with pytest.raises(ValueError, match="condition"):
            tiny_plan(conditions=())
        with pytest.raises(ValueError, match="seed"):
            tiny_plan(seeds=())

    def test_duplicate_condition_tags_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            tiny_plan(conditions=(ConditionSpec("a"), ConditionSpec("a", 0.1)))
        with pytest.raises(ValueError, match="groups must be unique"):
            tiny_plan(groups=("a", "a"))
        with pytest.raises(ValueError, match="seeds must be unique"):
            tiny_plan(seeds=(0, 0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_plan(methods=("mlp", "svm"))

    def test_exactly_one_data_source(self):
        with pytest.raises(ValueError, match="store_path or synth"):
            tiny_plan(store_path="x.bin")
        with pytest.raises(ValueError, match="store_path or synth"):
            tiny_plan(synth=None)

    def test_condition_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ConditionSpec("")
        with pytest.raises(ValueError, match=">= 0"):
            ConditionSpec("x", -0.1)

    def test_condition_sigma_must_be_finite(self):
        for sigma in (float("nan"), float("inf"), float("-inf"), -0.5):
            with pytest.raises(ValueError, match="finite and >= 0"):
                ConditionSpec("x", sigma)


class TestRunExperiment:
    def test_all_cells_reported(self):
        plan = tiny_plan()
        report = run_experiment(plan)
        assert not report.failures
        assert len(report.rows) == 2 * len(METHODS)
        keys = [(r.group, r.condition, r.method, r.seed) for r in report.rows]
        assert keys == sorted(keys)
        for row in report.rows:
            assert row.tp + row.tn + row.fp + row.fn == row.n_test
            assert row.accuracy == (row.tp + row.tn) / row.n_test

    def test_methods_share_the_test_set(self):
        report = run_experiment(tiny_plan())
        per_cell = {}
        for row in report.rows:
            per_cell.setdefault((row.group, row.condition, row.seed), set()).add(
                (row.n_test, row.tp + row.fn)
            )
        for cell, sizes in per_cell.items():
            assert len(sizes) == 1, f"methods disagree on the test set in {cell}"

    def test_deterministic_output_bytes(self, tmp_path):
        plan = tiny_plan()
        paths = []
        for run in ("first", "second"):
            report = run_experiment(plan)
            base = tmp_path / run
            base.mkdir()
            for fmt, name in (("json", "r.json"), ("csv", "r.csv"), ("markdown", "r.md")):
                emit_report(report, fmt, base / name)
            paths.append(base)
        for name in ("r.json", "r.csv", "r.md"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()

    def test_missing_group_recorded_not_fatal(self):
        plan = tiny_plan(groups=("synth", "ghost"))
        report = run_experiment(plan)
        assert len(report.rows) == 2 * len(METHODS)
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.group == "ghost"
            assert "ValueError" in failure.error

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_fraction_leaving_a_part_empty_fails_the_cell(self, fraction):
        """On 20 identities, 0.01 leaves a label no test sample and 0.99 no
        training sample: the cell fails with the split's own message."""
        report = run_experiment(tiny_plan(test_fraction=fraction))
        assert not report.rows and len(report.failures) == 2
        for failure in report.failures:
            assert failure.error.startswith(
                f"ValueError: label 0 has 20 samples and test_fraction {fraction} sends"
            )

    def test_failing_condition_isolated(self, monkeypatch):
        def boom(vectors, sigma, rngs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("rankgate.curation.degrade_probes", boom)
        report = run_experiment(tiny_plan())
        assert {r.condition for r in report.rows} == {"clean"}
        assert len(report.failures) == 1
        assert report.failures[0].condition == "noisy"
        assert report.failures[0].error.startswith("RuntimeError")

    def test_metadata_has_no_volatile_fields(self):
        report = run_experiment(tiny_plan(conditions=(ConditionSpec("clean"),)))
        assert set(asdict(report.metadata)) == {"format", "plan", "plan_hash", "notes"}
        assert report.metadata.plan_hash == plan_hash(tiny_plan(conditions=(ConditionSpec("clean"),)))


class TestCalibrationReuse:
    def test_run_cell_returns_fresh_calibration(self):
        plan = tiny_plan()
        store = load_plan_store(plan)
        sub = store.filter_by_group("synth")
        rows, calibration = run_cell(sub, plan, "synth", plan.conditions[0], 0)
        assert calibration is not None
        assert calibration["threshold"].n_nonmated > 0

    def test_image_threshold_calibrated_on_training_out_of_gallery_scores(self):
        plan = tiny_plan(target_fpir=0.1)
        sub = load_plan_store(plan).filter_by_group("synth")
        condition = plan.conditions[0]
        _, calibration = run_cell(sub, plan, "synth", condition, 0)
        cur = curate_detailed(
            sub, CurationConfig(d_in=plan.d_in, rng_seed=0, group="synth",
                                condition=condition.tag)
        )
        train = stratified_split(cur.samples, plan.test_fraction, 0).train
        scores = np.array([s.top_similarity for s in train if s.label == 0])
        model = calibration["threshold"]
        assert model.n_nonmated == len(scores)
        assert np.count_nonzero(scores >= model.threshold) / len(scores) <= plan.target_fpir

    def test_run_cell_carries_supplied_calibration(self):
        plan = tiny_plan()
        store = load_plan_store(plan)
        sub = store.filter_by_group("synth")
        _, first = run_cell(sub, plan, "synth", plan.conditions[0], 0)
        rows, second = run_cell(
            sub, plan, "synth", plan.conditions[1], 0, calibration=first
        )
        assert second is first
        assert len(rows) == len(METHODS)

    def test_reuse_flag_noted_in_report(self, tmp_path):
        plan = tiny_plan(reuse_first_condition_threshold=True)
        report = run_experiment(plan)
        assert not report.failures
        md = tmp_path / "r.md"
        emit_report(report, "markdown", md)
        assert "calibrated on the first condition" in md.read_text()


class TestScoreBaselines:
    def antipodal_store(self):
        """Eleven identities of three random images, plus ``x``, whose two
        enrolled images are antipodal, so fusion excludes it (``d_in`` 1)."""
        rows = [
            make_row(f"id{i:02d}", f"im{j}", dim=8, seed=100 * i + j, capture=j)
            for i in range(11)
            for j in range(3)
        ]
        vec = unit_rows(np.array([0.5, -0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])[None])[0]
        rows += [
            make_row("x", "im0", vector=vec, capture=0),
            make_row("x", "im1", vector=-vec, capture=1),
            make_row("x", "im2", dim=8, seed=7, capture=2),
        ]
        return store_of(rows)

    def test_fusion_scores_match_per_sample_reference(self, monkeypatch):
        store = self.antipodal_store()
        plan = tiny_plan(d_in=1, methods=("fusion",), target_fpir=0.1)
        condition = ConditionSpec("clean")
        seen = {"train": [], "test": []}
        calibrate, classify = experiment.calibrate_threshold, experiment.classify_score

        def spy_calibrate(scores, target_fpir):
            seen["train"].extend(scores)
            return calibrate(scores, target_fpir)

        def spy_classify(model, score):
            seen["test"].append(score)
            return classify(model, score)

        monkeypatch.setattr(experiment, "calibrate_threshold", spy_calibrate)
        monkeypatch.setattr(experiment, "classify_score", spy_classify)
        run_cell(store, plan, "g", condition, 0)

        cur = curate_detailed(
            store, CurationConfig(d_in=1, rng_seed=0, group="g", condition="clean")
        )
        split = stratified_split(cur.samples, plan.test_fraction, 0)
        enrolled = [
            ((store.identity_ids[r], store.image_ids[r]), store.vectors[r])
            for r in cur.gallery.tie_rank
        ]

        probes = [s.probe_identity for s in cur.samples if s.label == IN_GALLERY]

        def reference(s):
            vector = cur.probe_vectors[probes.index(s.probe_identity)]
            per_identity = oracle_fused_scores(enrolled, vector)
            assert per_identity["x"] is None
            return max(
                score
                for ident, score in per_identity.items()
                if score is not None
                and (s.label == IN_GALLERY or ident != s.probe_identity)
            )

        assert {(s.probe_identity, s.label) for s in cur.samples} >= {
            ("x", IN_GALLERY),
            ("x", OUT_OF_GALLERY),
        }
        train = [s for s in split.train if s.label == OUT_OF_GALLERY]
        for samples, got in ((train, seen["train"]), (list(split.test), seen["test"])):
            assert len(got) == len(samples)
            for s, score in zip(samples, got):
                assert abs(score - reference(s)) < 1e-6, (s.probe_identity, s.label)

    def test_fusion_without_another_centroid_names_the_probe(self):
        # x enrolls an antipodal pair, so fusion excludes it and y's
        # out-of-gallery search sees no centroid at all.
        v = unit_rows(np.array([1.0])[None])[0]
        rows = [make_row("x", f"im{j}", vector=-v if j == 1 else v, capture=j) for j in range(3)]
        rows += [make_row("y", f"im{j}", vector=v, capture=j) for j in range(3)]

        def failure(test_fraction):
            plan = tiny_plan(groups=("g",), conditions=(ConditionSpec("clean"),), d_in=1,
                             methods=("fusion",), test_fraction=test_fraction)
            [cell] = run_experiment(plan, store_of(rows)).failures
            return cell.error

        error = failure(0.5)
        assert "fusion" in error and "'y'" in error and "['x']" in error, error
        # At 0.25 both out-of-gallery samples would train and none would
        # test: the split refuses that before fusion scores anything.
        error = failure(0.25)
        assert error.startswith("ValueError: label 0 has 2 samples and test_fraction 0.25"), error

    def test_only_a_fusion_cell_fuses(self, monkeypatch):
        calls = Counter()
        for name in ("fuse_gallery", "fused_scores"):
            def counted(*args, _real=getattr(experiment, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(experiment, name, counted)
        plan = tiny_plan(methods=("threshold",))
        sub = load_plan_store(plan).filter_by_group("synth")
        rows, calibration = run_cell(sub, plan, "synth", plan.conditions[0], 0)
        assert [r.method for r in rows] == ["threshold"]
        assert set(calibration) == {"threshold"}
        assert not calls

        plan = tiny_plan(methods=("fusion",))
        run_cell(sub, plan, "synth", plan.conditions[0], 0)
        # One call per screen block: 20 probes in blocks of D = 16.
        assert calls == {"fuse_gallery": 1, "fused_scores": 2}


class TestPlanSerialization:
    def test_round_trip_preserves_plan(self):
        plan = tiny_plan(seeds=(0, 3), augment_copies=2)
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert rebuilt == plan
        assert plan_hash(rebuilt) == plan_hash(plan)

    def test_round_trip_through_file(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)))
        assert plan_from_json(path) == plan

    def test_defaults_fill_missing_fields(self):
        plan = plan_from_dict(
            {
                "groups": ["g"],
                "conditions": [{"tag": "c"}],
                "store_path": "gallery.bin",
            }
        )
        assert plan.methods == METHODS
        assert plan.seeds == (0,)
        assert plan.d_in == 3
        assert plan.conditions[0].probe_noise_sigma == 0.0

    def test_hash_tracks_content(self):
        a = tiny_plan()
        b = tiny_plan(target_fpir=0.5)
        assert plan_hash(a) != plan_hash(b)
        assert plan_hash(a) == plan_hash(tiny_plan())


class TestCardinalitySweep:
    def test_sorted_rows_and_duplicate_warning(self):
        plan = tiny_plan(conditions=(ConditionSpec("clean"),))
        store = load_plan_store(plan)
        with pytest.warns(UserWarning, match="duplicate d_in"):
            rows, reports = cardinality_sweep(plan, [3, 2, 2], store=store)
        assert [r.d_in for r in rows] == [2, 3]
        assert len(reports) == 2
        for row in rows:
            assert row.n_cells == 1
            assert 0.0 <= row.mean_accuracy <= 1.0

    def test_failed_cell_aborts(self):
        # five images per identity cannot host a probe plus six enrollments
        plan = tiny_plan(conditions=(ConditionSpec("clean"),))
        with pytest.raises(RuntimeError, match="sweep cell failed"):
            cardinality_sweep(plan, [5])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no d_in"):
            cardinality_sweep(tiny_plan(), [])

    def test_csv_output(self, tmp_path):
        from rankgate.experiment import SweepRow

        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepRow(2, 0.875, 4), SweepRow(3, 0.9, 4)], path)
        assert path.read_text() == (
            "d_in,mean_accuracy_pct,n_cells\n2,87.50,4\n3,90.00,4\n"
        )


class TestEmitReport:
    def fake_report(self):
        rows = [
            CellResult("g", "clean", "mlp", 0, 0.75, 8, 3, 3, 1, 1),
            CellResult("g", "clean", "threshold", 0, 0.5, 8, 2, 2, 2, 2),
        ]
        metadata = ReportMetadata("rankgate-eval-report-v1", {}, "", ["a note"])
        failures = [CellFailure("g", "bad", 1, "ValueError: x")]
        return EvalReport(rows=rows, metadata=metadata, failures=failures)

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(self.fake_report(), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,condition,method,seed,n_test,tp,tn,fp,fn,accuracy_pct"
        assert lines[1] == "g,clean,mlp,0,8,3,3,1,1,75.00"

    def test_csv_quotes_group_and_condition(self, tmp_path):
        rows = [
            CellResult("a,b", 'say "hi"', "mlp", 0, 0.75, 8, 3, 3, 1, 1),
            CellResult("c\rd", "e\nf", "threshold", 1, 0.5, 8, 2, 2, 2, 2),
        ]
        report = EvalReport(rows=rows, metadata=self.fake_report().metadata, failures=[])
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert [len(row) for row in parsed] == [10, 10, 10]
        assert parsed[1] == ["a,b", 'say "hi"', "mlp", "0", "8", "3", "3", "1", "1", "75.00"]
        assert parsed[2][:2] == ["c\rd", "e\nf"]

    def test_markdown_notes_and_failures(self, tmp_path):
        path = tmp_path / "r.md"
        emit_report(self.fake_report(), "markdown", path)
        text = path.read_text()
        assert "| g | clean | mlp | 0 | 8 | 75.00% |" in text
        assert "Note: a note" in text
        assert "Failed cells:" in text
        assert "g/bad/seed 1: ValueError: x" in text

    def test_markdown_escapes_pipes(self, tmp_path):
        """A "|" in a group or condition is escaped, so each row keeps six cells."""
        rows = [CellResult("a|b", "c|d", "mlp", 0, 0.75, 8, 3, 3, 1, 1)]
        report = EvalReport(rows=rows, metadata=self.fake_report().metadata, failures=[])
        path = tmp_path / "r.md"
        emit_report(report, "markdown", path)
        header, _, row = path.read_text().splitlines()[:3]
        assert row == "| a\\|b | c\\|d | mlp | 0 | 8 | 75.00% |"
        for line in (header, row):
            assert len(re.split(r"(?<!\\)\|", line)) == 6 + 2

    def test_json_round_trips_rows(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(self.fake_report(), "json", path)
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["accuracy"] == 0.75
        assert payload["failures"][0]["condition"] == "bad"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.fake_report(), "yaml", tmp_path / "r.x")


class TestLoadPlanStore:
    def test_synth_source(self):
        store = load_plan_store(tiny_plan())
        assert len(store) == 100

    def test_file_source(self, tmp_path):
        from rankgate.store import write_store

        store = load_plan_store(tiny_plan())
        path = tmp_path / "store.bin"
        write_store(store, path, "binary")
        plan = tiny_plan(synth=None, store_path=str(path))
        loaded = load_plan_store(plan)
        assert loaded.identity_ids == store.identity_ids
        assert loaded.image_ids == store.image_ids
        assert loaded.vectors.tobytes() == store.vectors.tobytes()

import json
from dataclasses import asdict, fields

import pytest

from rankgate import cli, mlp
from rankgate.baselines import TARGET_FPIR, ThresholdModel
from rankgate.cli import main
from rankgate.curation import CurationConfig
from rankgate.experiment import ConditionSpec, ExperimentPlan
from rankgate.codec import write_json
from rankgate.store import write_store
from rankgate.synth import SynthConfig, generate


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "store.bin"
    code = main(
        [
            "synth",
            "--out",
            str(path),
            "--identities",
            "15",
            "--images-per-identity",
            "5",
            "--dimension",
            "16",
            "--within-sigma",
            "0.08",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def samples_path(tmp_path, store_path):
    path = tmp_path / "samples.csv"
    code = main(
        ["curate", "--store", str(store_path), "--seed", "1", "--out", str(path)]
    )
    assert code == 0
    return path


def plan_file(tmp_path, **overrides):
    base = dict(
        groups=("synth",),
        conditions=(ConditionSpec("clean"),),
        seeds=(0,),
        synth=SynthConfig(
            n_identities=15,
            images_per_identity=5,
            dimension=16,
            within_noise_sigma=0.08,
            rng_seed=3,
        ),
        target_fpir=0.02,
        mlp_hidden=(8,),
        mlp_epochs=3,
        mlp_folds=3,
    )
    base.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(asdict(ExperimentPlan(**base))))
    return path


class TestPipelineCommands:
    def test_synth_reports_size(self, capsys, store_path):
        out = capsys.readouterr().out
        assert "wrote 75 records (16-d)" in out
        assert store_path.exists()

    def test_ingest_round_trip(self, tmp_path, store_path, capsys):
        out_csv = tmp_path / "store.csv"
        code = main(
            [
                "ingest",
                "--input",
                str(store_path),
                "--input-format",
                "binary",
                "--out",
                str(out_csv),
                "--out-format",
                "csv",
            ]
        )
        assert code == 0
        assert "validated 75 records" in capsys.readouterr().out
        assert out_csv.read_text().startswith("identity_id,")

    def test_curate_balances_labels(self, capsys, samples_path):
        out = capsys.readouterr().out
        assert "curated" in out
        header = samples_path.read_text().splitlines()[0]
        assert header == "probe_identity,group,condition,label,gallery_size,r1,r2,r3"

    def test_curate_reports_one_pair_per_probe(self, capsys, samples_path):
        out = capsys.readouterr().out
        assert f"curated 30 samples (15 in-gallery, 15 out-of-gallery) -> {samples_path}\n" in out

    def test_rankdist(self, tmp_path, samples_path, capsys):
        out_path = tmp_path / "dist.csv"
        code = main(
            ["rankdist", "--samples", str(samples_path), "--max-rank", "10", "--out", str(out_path)]
        )
        assert code == 0
        assert "P(in-gallery)" in capsys.readouterr().out
        assert out_path.read_text().splitlines()[0].startswith("rank,")

    def test_train_writes_model_and_report(self, tmp_path, samples_path, capsys):
        model_path = tmp_path / "model.bin"
        report_path = tmp_path / "train_report.json"
        code = main(
            [
                "train",
                "--samples",
                str(samples_path),
                "--out",
                str(model_path),
                "--report",
                str(report_path),
                "--hidden",
                "8",
                "--epochs",
                "2",
                "--folds",
                "2",
            ]
        )
        assert code == 0
        assert "fold accuracies:" in capsys.readouterr().out
        assert model_path.read_bytes()[:5] == b"OGMLP"
        assert "selected_fold" in json.loads(report_path.read_text())

    def test_baseline_centroid(self, tmp_path, samples_path, capsys):
        out_path = tmp_path / "centroid.json"
        code = main(
            ["baseline", "median", "--samples", str(samples_path), "--out", str(out_path)]
        )
        assert code == 0
        assert "median centers fit" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["statistic"] == "median"

    def test_baseline_threshold(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.1\n0.2\n0.3\n0.9\n")
        out_path = tmp_path / "threshold.json"
        code = main(
            [
                "baseline",
                "threshold",
                "--scores",
                str(scores),
                "--target-fpir",
                "0.25",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out
        assert "threshold_bits" in json.loads(out_path.read_text())


class TestEvalCommands:
    def test_eval_writes_reports(self, tmp_path, capsys):
        plan = plan_file(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["eval", "--plan", str(plan), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("resolved_plan.json", "report.json", "report.csv", "report.md"):
            assert (out_dir / name).exists(), name
        out = capsys.readouterr().out
        assert "synth/clean/mlp/seed0:" in out
        payload = json.loads((out_dir / "report.json").read_text())
        assert len(payload["rows"]) == 5

    def test_eval_failure_sets_exit_code(self, tmp_path, capsys):
        plan = plan_file(tmp_path, groups=("synth", "ghost"))
        out_dir = tmp_path / "out"
        code = main(["eval", "--plan", str(plan), "--out-dir", str(out_dir)])
        assert code == 1
        assert "FAILED ghost/clean" in capsys.readouterr().err

    def test_eval_respects_out_dir_env(self, tmp_path, monkeypatch, capsys):
        plan = plan_file(tmp_path, methods=("mean",))
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("RANKGATE_OUT_DIR", str(env_dir))
        code = main(["eval", "--plan", str(plan)])
        assert code == 0
        assert (env_dir / "report.csv").exists()

    def test_eval_requires_one_source(self):
        with pytest.raises(SystemExit):
            main(["eval", "--groups", "synth"])

    def test_sweep(self, tmp_path, capsys):
        plan = plan_file(tmp_path)
        out_dir = tmp_path / "sweep_out"
        code = main(
            [
                "sweep",
                "--plan",
                str(plan),
                "--d-in-values",
                "2,3",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "d_in,mean_accuracy_pct,n_cells"
        assert len(lines) == 3
        assert "d_in=2:" in capsys.readouterr().out

    def test_report_rerenders_csv(self, tmp_path):
        plan = plan_file(tmp_path, methods=("mean", "median"))
        out_dir = tmp_path / "out"
        assert main(["eval", "--plan", str(plan), "--out-dir", str(out_dir)]) == 0
        rendered = tmp_path / "again.csv"
        code = main(
            [
                "report",
                "--input",
                str(out_dir / "report.json"),
                "--format",
                "csv",
                "--out",
                str(rendered),
            ]
        )
        assert code == 0
        assert rendered.read_bytes() == (out_dir / "report.csv").read_bytes()

    def test_report_rerenders_failures_byte_for_byte(self, tmp_path):
        plan = plan_file(tmp_path, groups=("synth", "ghost"), methods=("mean",))
        out_dir = tmp_path / "out"
        assert main(["eval", "--plan", str(plan), "--out-dir", str(out_dir)]) == 1
        assert json.loads((out_dir / "report.json").read_text())["failures"]
        for fmt, name in (("json", "report.json"), ("markdown", "report.md")):
            rendered = tmp_path / name
            code = main(["report", "--input", str(out_dir / "report.json"),
                         "--format", fmt, "--out", str(rendered)])
            assert code == 0
            assert rendered.read_bytes() == (out_dir / name).read_bytes(), name

    def test_resolved_plan_repeats_the_run(self, tmp_path):
        config = tmp_path / "synth.json"
        cfg = SynthConfig(
            n_identities=20,
            images_per_identity=5,
            dimension=16,
            within_noise_sigma=0.08,
            groups=(("a", 20),),
            rng_seed=3,
        )
        write_json(config, asdict(cfg))
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["--conditions", "clean:0,noisy:0.1", "--seeds", "0,1"]
        assert main(["eval", "--synth-config", str(config), *args, "--out-dir", str(first)]) == 0
        plan = first / "resolved_plan.json"
        assert main(["eval", "--plan", str(plan), "--out-dir", str(second)]) == 0
        for name in ("report.json", "resolved_plan.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


class TestErrorHandling:
    def test_baseline_threshold_requires_scores(self, tmp_path, capsys):
        code = main(["baseline", "threshold", "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "--scores is required" in capsys.readouterr().err

    def test_baseline_centroid_requires_samples(self, tmp_path, capsys):
        code = main(["baseline", "median", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "--samples is required" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--input",
                str(tmp_path / "absent.csv"),
                "--out",
                str(tmp_path / "x.bin"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_impossible_curation(self, tmp_path, store_path, capsys):
        code = main(
            [
                "curate",
                "--store",
                str(store_path),
                "--d-in",
                "10",
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_probe_sigma_rejected(self, tmp_path, store_path, capsys):
        """A negative, NaN or infinite probe noise level is an error, not a clean run."""
        out = tmp_path / "s.csv"
        for sigma in ("-0.5", "nan", "inf", "-inf"):
            code = main(["curate", "--store", str(store_path),
                         f"--probe-sigma={sigma}", "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: --probe-sigma must be finite and >= 0"), err
        assert not out.exists()
        code = main(["eval", "--store", str(store_path), "--groups", "synth",
                     "--conditions", "d:nan", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "probe_noise_sigma must be finite and >= 0" in capsys.readouterr().err
        plan = plan_file(tmp_path)
        payload = json.loads(plan.read_text())
        payload["conditions"][0]["probe_noise_sigma"] = float("nan")
        plan.write_text(json.dumps(payload))
        code = main(["eval", "--plan", str(plan), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "probe_noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_unwritable_store_value_rejected(self, tmp_path, capsys):
        """A capture_index the binary format cannot hold stops ingest with a
        message before any output file is made."""
        src = tmp_path / "s.csv"
        src.write_text(
            "identity_id,image_id,group,capture_index,v0,v1\n"
            "p1,a,g,4294967296,1.0,0.0\n"
        )
        out = tmp_path / "s.bin"
        code = main(["ingest", "--input", str(src), "--input-format", "csv",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row ('p1', 'a') has capture_index 4294967296"), err
        assert not out.exists()

    def test_zero_vector_error_names_line(self, tmp_path, capsys):
        src = tmp_path / "zero.csv"
        src.write_text(
            "identity_id,image_id,group,capture_index,v0,v1\n"
            "p1,a,g,1,1.0,0.0\n"
            "p1,b,g,2,0.0,0.0\n"
        )
        out = tmp_path / "zero.bin"
        code = main(["ingest", "--input", str(src), "--input-format", "csv",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: cannot normalize a zero vector"), err
        assert not out.exists()

    def test_store_csv_field_past_limit_names_line(self, tmp_path, capsys):
        src = tmp_path / "long.csv"
        src.write_text(
            "identity_id,image_id,group,capture_index,v0,v1\n"
            "p1,a,g,1,1.0,0.0\n"
            f"{'p' * 200000},b,g,2,0.0,1.0\n"
        )
        out = tmp_path / "long.bin"
        code = main(["ingest", "--input", str(src), "--input-format", "csv",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src} line 3: field larger than field limit"), err
        assert not out.exists()

    def test_sample_csv_field_past_limit_names_line(self, tmp_path, samples_path, capsys):
        lines = samples_path.read_text().splitlines(keepends=True)
        src = tmp_path / "long.csv"
        src.write_text(lines[0] + lines[1] + "p" * 200000 + lines[2][lines[2].index(","):])
        capsys.readouterr()
        for argv in (["train"], ["rankdist"], ["baseline", "mean"]):
            out = tmp_path / "out"
            code = main(argv + ["--samples", str(src), "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {src} line 3: field larger than field limit"), argv
            assert not out.exists()

    def test_bad_learning_rate_rejected_before_training(
        self, tmp_path, samples_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(mlp, "loss_and_grad", lambda *a, **k: calls.append(a))
        out = tmp_path / "m.bin"
        for rate in ("nan", "inf", "-inf"):
            code = main(["train", "--samples", str(samples_path),
                         f"--learning-rate={rate}", "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: learning_rate must be finite and > 0, got"), err
        assert calls == []
        assert not out.exists()

    def test_train_on_one_label_rejected(self, tmp_path, samples_path, capsys):
        one_label = tmp_path / "in_only.csv"
        lines = samples_path.read_text().splitlines(keepends=True)
        one_label.write_text(lines[0] + "".join(lines[1::2]))
        out = tmp_path / "m.bin"
        code = main(["train", "--samples", str(one_label), "--folds", "2",
                     "--epochs", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: class 0 has 0 samples, need at least 2 for 2-fold validation"
        ), err
        assert not out.exists()

    def test_train_on_header_only_samples_says_no_samples(self, tmp_path, samples_path, capsys):
        header_only = tmp_path / "header.csv"
        header_only.write_text(samples_path.read_text().splitlines(keepends=True)[0])
        out = tmp_path / "m.bin"
        capsys.readouterr()
        code = main(["train", "--samples", str(header_only), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "synth", "report"])
    @pytest.mark.parametrize("content", [b"{not json", b'{"a": "\xff"}'])
    def test_json_input_that_is_not_json_names_its_file(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "eval": ["eval", "--plan", str(bad), "--out-dir", str(out)],
            "synth": ["synth", "--config", str(bad), "--out", str(out)],
            "report": ["report", "--input", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not JSON: "), err
        assert not out.exists()

    def test_bad_within_sigma_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        for sigma in ("nan", "inf", "-0.1"):
            code = main(["synth", "--identities", "4", f"--within-sigma={sigma}",
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: within_noise_sigma must be finite and >= 0, got"), err
        assert not out.exists()

    def test_bad_group_spec_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        code = main(["synth", "--out", str(out), "--groups", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: group spec 'a' must look like name:count"), err
        assert not out.exists()

    def test_plan_missing_field_or_not_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        plan = {"groups": ["g"], "conditions": [{"tag": "c"}], "store_path": "s.bin"}
        cases = (
            ({"conditions": []}, "'groups'"),
            ([], "JSON object"),
            ({**plan, "conditions": ["clean"]}, "plan: field conditions item 0 "),
            ({**plan, "conditions": "clean"}, "ConditionSpec"),
            ({**plan, "mlp_epoch": 3}, "'mlp_epoch'"),
            ({**plan, "groups": "ga"}, "plan: field groups "),
            ({**plan, "seeds": "12"}, "plan: field seeds "),
            ({**plan, "mlp_hidden": "16"}, "plan: field mlp_hidden "),
            ({**plan, "reuse_first_condition_threshold": "false"},
             "plan: field reuse_first_condition_threshold "),
            ({**plan, "store_path": 5}, "plan: field store_path "),
        )
        for payload, field in cases:
            bad.write_text(json.dumps(payload))
            code = main(["eval", "--plan", str(bad), "--out-dir", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err

    def test_plan_int_past_float_range_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        plan = {"groups": ["g"], "conditions": [{"tag": "c"}], "store_path": "s.bin"}
        bad.write_text(json.dumps({**plan, "test_fraction": 10**400}))
        code = main(["eval", "--plan", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: plan: field test_fraction must be float, got an int too large "
            "for a float\n"
        ), err

    def test_report_row_with_unknown_or_missing_key(self, tmp_path, capsys):
        row = dict(group="g", condition="c", method="mean", seed=0, accuracy=0.5,
                   n_test=2, tp=1, tn=0, fp=1, fn=0)
        meta = dict(format="rankgate-eval-report-v1", plan={}, plan_hash="", notes=[])
        bad_rows = ({**row, "extra": 1}, {k: v for k, v in row.items() if k != "fp"}, [1, 2])
        cases = [({"metadata": meta, "rows": [row, bad_row]}, "report: field rows item 1 ")
                 for bad_row in bad_rows]
        cases += [({"metadata": meta}, "report: missing required field 'rows'"),
                  ({"metadata": meta, "rows": 5}, "report: field rows "),
                  ([1, 2], "report: expected a JSON object"),
                  ({"metadata": [], "rows": [row]}, "report: field metadata "),
                  ({"metadata": meta, "rows": [row], "failures": [1]},
                   "report: field failures item 0 "),
                  ({"metadata": meta, "rows": [row], "failures": [{"group": "g"}]},
                   "report: field failures item 0 missing")]
        failure = dict(group="g", condition="c", seed=0, error="ValueError: x")
        bad_failures = [{**failure, key: value} for key, value in
                        (("group", 1), ("condition", []), ("seed", "x"), ("error", None),
                         ("junk", 1))]
        cases += [({"metadata": meta, "rows": [row], "failures": [bad]},
                   "report: field failures item 0 ") for bad in bad_failures]
        for payload, prefix in cases:
            report = tmp_path / "r.json"
            report.write_text(json.dumps(payload))
            code = main(["report", "--input", str(report), "--format", "markdown",
                         "--out", str(tmp_path / "r.md")])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: " + prefix)

    def test_report_metadata_typed(self, tmp_path, capsys):
        meta = dict(format="rankgate-eval-report-v1", plan={}, plan_hash="", notes=["n"])
        bad_metas = ({**meta, "notes": 5}, {**meta, "notes": [1]}, {**meta, "plan": []},
                     {k: v for k, v in meta.items() if k != "plan_hash"}, {**meta, "junk": 1})
        for bad in bad_metas:
            report = tmp_path / "r.json"
            report.write_text(json.dumps({"metadata": bad, "rows": []}))
            code = main(["report", "--input", str(report), "--format", "markdown",
                         "--out", str(tmp_path / "r.md")])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: report: field metadata ")

    def test_report_of_unknown_format_refused(self, tmp_path, capsys):
        meta = dict(format="rankgate-eval-report-v9", plan={}, plan_hash="", notes=[])
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"metadata": meta, "rows": []}))
        out = tmp_path / "r.md"
        code = main(["report", "--input", str(report), "--format", "markdown",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: report {report} has format 'rankgate-eval-report-v9', "
            "this version reads 'rankgate-eval-report-v1'\n"
        )
        assert not out.exists()

    def test_negative_synth_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        code = main(["synth", "--out", str(out), "--identities", "4", "--seed", "-3"])
        assert code == 1
        assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -3\n"
        assert not out.exists()
        plan = plan_file(tmp_path)
        payload = json.loads(plan.read_text())
        payload["synth"]["rng_seed"] = -1
        plan.write_text(json.dumps(payload))
        code = main(["eval", "--plan", str(plan), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "rng_seed must be >= 0, got -1" in capsys.readouterr().err


class TestFlagsAndFiles:
    """A setting flag either reaches its config field or is refused."""

    @pytest.mark.parametrize(
        "command, flag",
        [("eval", f) for f in (["--store", "s.bin"], ["--store-format", "csv"],
                               ["--synth-config", "c.json"], ["--groups", "g"],
                               ["--conditions", "a:0"], ["--methods", "mean"],
                               ["--seeds", "1,2,3"], ["--d-in", "2"])]
        + [("sweep", ["--d-in", "2"]), ("sweep", ["--seeds", "1"])]
        + [("synth", f) for f in (["--identities", "50"], ["--images-per-identity", "3"],
                                  ["--dimension", "8"], ["--within-sigma", "0.2"],
                                  ["--groups", "a:100"], ["--seed", "1"])],
    )
    def test_setting_flag_with_its_file_refused(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        if command == "synth":
            config = tmp_path / "c.json"
            write_json(config, asdict(SynthConfig()))
            argv, source = ["synth", "--config", str(config), "--out", str(out)], "--config"
        else:
            argv = [command, "--plan", str(plan_file(tmp_path)), "--out-dir", str(out)]
            argv += ["--d-in-values", "2,3"] if command == "sweep" else []
            source = "--plan"
        assert main(argv + flag) == 1
        assert capsys.readouterr().err == (
            f"error: {flag[0]} cannot be used with {source}, whose file sets it\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mlp_folds": 1}, "mlp_folds must be >= 2, got 1"),
            ({"mlp_hidden": [8, 0]}, "mlp_hidden must all be >= 1, got (8, 0)"),
            ({"d_in": 0}, "d_in must be >= 1"),
            ({"store_format": "xml"}, "store_format must be one of ('binary', 'csv'), got 'xml'"),
            ({"mlp_epochs": 0}, "mlp_epochs must be >= 1, got 0"),
            ({"mlp_batch_size": 0}, "mlp_batch_size must be >= 1, got 0"),
            ({"mlp_dropout": 1.0}, "mlp_dropout must be in [0, 1)"),
            ({"augment_copies": -1}, "augment_copies must be >= 0"),
            ({"test_fraction": 1.5}, "test_fraction must be in (0, 1), got 1.5"),
            ({"test_fraction": 0.0}, "test_fraction must be in (0, 1), got 0.0"),
            ({"target_fpir": 0.0}, "target_fpir must be in (0, 1], got 0.0"),
            ({"target_fpir": 2.0}, "target_fpir must be in (0, 1], got 2.0"),
        ],
    )
    def test_bad_plan_refused_before_any_file(self, tmp_path, capsys, change, message):
        plan = plan_file(tmp_path)
        plan.write_text(json.dumps({**json.loads(plan.read_text()), **change}))
        out = tmp_path / "out"
        assert main(["eval", "--plan", str(plan), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: plan: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ingest", "--input-format", "csv", "--input"], ["train", "--samples"],
         ["rankdist", "--samples"], ["baseline", "mean", "--samples"],
         ["baseline", "threshold", "--scores"]],
    )
    def test_input_that_is_not_utf8_names_its_file(self, tmp_path, samples_path, capsys, argv):
        header = samples_path.read_text().splitlines(keepends=True)[0]
        if argv[0] == "ingest":
            header = "identity_id,image_id,group,capture_index,v0,v1\n"
        elif argv[1] == "threshold":
            header = "0.1\n"
        bad = tmp_path / "bad.txt"
        bad.write_bytes(header.encode() + b"p\xff1,g,c,1,9,2,3,4\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + [str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8 text: 'utf-8' codec can't decode"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, cls",
        [
            (["synth", "--out", "s.bin"], SynthConfig),
            (["curate", "--store", "s.bin", "--out", "s.csv"], CurationConfig),
            (["train", "--samples", "s.csv", "--out", "m.bin"], mlp.MlpConfig),
            (["baseline", "threshold", "--out", "t.json"], ThresholdModel),
            (["eval"], ExperimentPlan),
            (["sweep", "--d-in-values", "2"], ExperimentPlan),
        ],
    )
    def test_setting_flag_not_given_is_none(self, argv, cls):
        args = cli.build_parser().parse_args(argv)
        present = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
        assert present, "no flag of the command sets a field"
        assert all(value is None for value in present.values()), present

    def test_no_setting_flags_give_the_config_defaults(self, tmp_path, samples_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "s.bin")]) == 0
        write_store(generate(SynthConfig()), tmp_path / "want.bin")
        assert (tmp_path / "s.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()
        assert main(["train", "--samples", str(samples_path), "--out", str(tmp_path / "m.bin")]) == 0
        assert asdict(mlp.load_model(tmp_path / "m.bin").config) == asdict(mlp.MlpConfig(d_in=3))
        scores = tmp_path / "scores.txt"
        scores.write_text("0.1\n0.2\n")
        assert main(["baseline", "threshold", "--scores", str(scores),
                     "--out", str(tmp_path / "t.json")]) == 0
        assert f"at target FPIR {TARGET_FPIR} " in capsys.readouterr().out
        assert json.loads((tmp_path / "t.json").read_text())["target_fpir"] == repr(TARGET_FPIR)


class TestListFlagErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--hidden", ""], "item '' in --hidden '' is not an integer"),
            (["train", "--hidden", "16,,16"], "item '' in --hidden '16,,16' is not an integer"),
            (["eval", "--store", "s.bin", "--groups", "g", "--seeds", "1,x"],
             "item 'x' in --seeds '1,x' is not an integer"),
            (["sweep", "--store", "s.bin", "--groups", "g", "--d-in-values", "2,"],
             "item '' in --d-in-values '2,' is not an integer"),
            (["synth", "--groups", "a:x"],
             "group spec 'a:x' in --groups needs an integer count, got 'x'"),
            (["eval", "--store", "s.bin", "--groups", "g", "--conditions", "a:x"],
             "condition spec 'a:x' in --conditions needs a number sigma, got 'x'"),
        ],
    )
    def test_error_names_flag_and_item(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        outputs = {"train": ["--samples", "x.csv", "--out", "m.bin"], "synth": ["--out", "s.bin"]}
        code = main(argv + outputs.get(argv[0], []))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_threshold_score_not_a_number_names_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.1\n0.2 high\n")
        out = tmp_path / "t.json"
        code = main(["baseline", "threshold", "--scores", str(scores), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: score 'high' in --scores file {scores} is not a number\n"
        )
        assert not out.exists()


class TestParserReuse:
    """main() builds the argument parser once per process and reuses it."""

    def test_two_subcommands_share_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting_build_parser(real=cli.build_parser):
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            store = tmp_path / "s.bin"
            assert main(["synth", "--out", str(store), "--identities", "4",
                         "--dimension", "8", "--groups", "a:2,b:2"]) == 0
            assert main(["ingest", "--input", str(store), "--out", str(tmp_path / "s.csv"),
                         "--out-format", "csv"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("wrote 20 records (8-d)")
        assert out[1].startswith("validated 20 records (8-d, groups: a, b)")

    def test_bad_flag_then_good_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x.bin"), "--dimension", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
        assert main(["synth", "--out", str(tmp_path / "s.bin"), "--identities", "4"]) == 0
        assert capsys.readouterr().out.startswith("wrote 20 records (64-d)")
        assert not (tmp_path / "x.bin").exists()

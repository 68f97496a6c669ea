"""Command line entry points.

Subcommands cover the full pipeline: ``synth`` builds a store, ``ingest``
validates and converts one, ``curate`` produces labeled rank samples,
``train`` fits the classifier, ``baseline`` fits reference deciders,
``eval`` runs a full plan, ``sweep`` varies the rank-vector width,
``report`` re-renders a saved report and ``rankdist`` tabulates the rank
distribution. ``RANKGATE_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import baselines, curation, experiment, mlp, store, synth
from .codec import from_dict

OUT_DIR_ENV = "RANKGATE_OUT_DIR"


def _out_dir(args) -> Path:
    raw = getattr(args, "out_dir", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_groups(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for part in text.split(","):
        name, _, count = part.partition(":")
        if not count:
            raise ValueError(f"group spec {part!r} must look like name:count")
        out.append((name.strip(), int(count)))
    return tuple(out)


def _parse_conditions(text: str) -> tuple[experiment.ConditionSpec, ...]:
    out = []
    for part in text.split(","):
        name, _, sigma = part.partition(":")
        out.append(
            experiment.ConditionSpec(name.strip(), float(sigma) if sigma else 0.0)
        )
    return tuple(out)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_synth(args) -> int:
    if args.config:
        cfg = synth.config_from_json(args.config)
    else:
        cfg = synth.SynthConfig(
            n_identities=args.identities,
            images_per_identity=args.images_per_identity,
            dimension=args.dimension,
            within_noise_sigma=args.within_sigma,
            groups=_parse_groups(args.groups) if args.groups else (),
            rng_seed=args.seed,
        )
    built = synth.generate(cfg)
    store.write_store(built, args.out, args.format)
    print(f"wrote {len(built)} records ({built.dimension}-d) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    loaded = store.ingest(args.input, args.input_format)
    store.write_store(loaded, args.out, args.out_format)
    print(
        f"validated {len(loaded)} records ({loaded.dimension}-d, "
        f"groups: {', '.join(sorted(set(loaded.groups)))}) -> {args.out}"
    )
    return 0


def cmd_curate(args) -> int:
    synth.check_sigma("--probe-sigma", args.probe_sigma)
    loaded = store.ingest(args.store, args.store_format)
    if args.group:
        loaded = loaded.filter_by_group(args.group)
    config = curation.CurationConfig(
        d_in=args.d_in,
        rng_seed=args.seed,
        group=args.group or "",
        condition=args.condition,
    )
    result = curation.curate_detailed(loaded, config, args.probe_sigma)
    curation.write_samples_csv(result.samples, args.out)
    n = len(result.probe_vectors)  # each probe yields one sample of each label
    print(f"curated {2 * n} samples ({n} in-gallery, {n} out-of-gallery) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    samples = curation.load_samples_csv(args.samples)
    config = mlp.MlpConfig(
        d_in=curation.d_in_of(samples),
        hidden_sizes=_parse_ints(args.hidden),
        dropout_p=args.dropout,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        folds=args.folds,
        rng_seed=args.seed,
        input_scaling=args.input_scaling,
    )
    model, report = mlp.train(samples, config)
    mlp.save_model(model, args.out)
    if args.report:
        report.write_json(args.report)
    accs = ", ".join(f"{a:.3f}" for a in report.fold_accuracies)
    print(f"fold accuracies: {accs}")
    print(f"selected fold {report.selected_fold}; model -> {args.out}")
    return 0


def cmd_baseline(args) -> int:
    if args.kind in ("mean", "median"):
        if args.samples is None:
            raise ValueError(f"--samples is required for the {args.kind} baseline")
        samples = curation.load_samples_csv(args.samples)
        model = baselines.fit_centroid(samples, args.kind)
        baselines.centroid_to_json(model, args.out)
        correct = sum(baselines.centroid_classify(model, s.ranks) == s.label for s in samples)
        print(
            f"{args.kind} centers fit on {len(samples)} samples "
            f"(training accuracy {correct / len(samples):.3f}) -> {args.out}"
        )
    else:
        if args.scores is None:
            raise ValueError("--scores is required for the threshold baseline")
        scores = [float(field) for field in Path(args.scores).read_text().split()]
        model = baselines.calibrate_threshold(scores, args.target_fpir)
        baselines.threshold_to_json(model, args.out)
        print(
            f"threshold {model.threshold!r} at target FPIR {args.target_fpir} "
            f"from {model.n_nonmated} scores -> {args.out}"
        )
    return 0


def _plan_from_args(args) -> experiment.ExperimentPlan:
    if args.plan:
        return experiment.plan_from_json(args.plan)
    if bool(args.store) == bool(args.synth_config):
        raise SystemExit("pass exactly one of --plan/--store/--synth-config")
    synth_cfg = synth.config_from_json(args.synth_config) if args.synth_config else None
    if args.groups:
        groups = tuple(g.strip() for g in args.groups.split(","))
    elif synth_cfg is not None:
        groups = tuple(g for g, _ in synth_cfg.groups)
    else:
        raise SystemExit("--groups is required with --store")
    if args.conditions:
        conditions = _parse_conditions(args.conditions)
    elif synth_cfg is not None and synth_cfg.degradation_levels:
        conditions = tuple(
            experiment.ConditionSpec(t, s) for t, s in synth_cfg.degradation_levels
        )
    else:
        conditions = (experiment.ConditionSpec("original", 0.0),)
    return experiment.ExperimentPlan(
        groups=groups,
        conditions=conditions,
        seeds=_parse_ints(args.seeds),
        methods=tuple(args.methods.split(",")) if args.methods else experiment.METHODS,
        d_in=args.d_in,
        store_path=args.store,
        store_format=args.store_format,
        synth=synth_cfg,
    )


def _write_resolved_plan(plan: experiment.ExperimentPlan, out_dir: Path) -> None:
    payload = experiment.plan_to_dict(plan)
    payload["plan_hash"] = experiment.plan_hash(plan)
    (out_dir / "resolved_plan.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def cmd_eval(args) -> int:
    plan = _plan_from_args(args)
    out_dir = _out_dir(args)
    _write_resolved_plan(plan, out_dir)
    report = experiment.run_experiment(plan)
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("markdown", "report.md")):
        experiment.emit_report(report, fmt, out_dir / name)
    for r in report.rows:
        print(
            f"{r.group}/{r.condition}/{r.method}/seed{r.seed}: "
            f"{r.accuracy * 100:.2f}% on {r.n_test}"
        )
    for f in report.failures:
        print(f"FAILED {f.group}/{f.condition}/seed {f.seed}: {f.error}", file=sys.stderr)
    print(f"report files in {out_dir}")
    return 1 if report.failures else 0


def cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    out_dir = _out_dir(args)
    _write_resolved_plan(plan, out_dir)
    rows, _reports = experiment.cardinality_sweep(plan, _parse_ints(args.d_in_values))
    experiment.write_sweep_csv(rows, out_dir / "sweep.csv")
    for row in rows:
        print(f"d_in={row.d_in}: {row.mean_accuracy * 100:.2f}% over {row.n_cells} cells")
    print(f"sweep table in {out_dir / 'sweep.csv'}")
    return 0


def cmd_report(args) -> int:
    payload = json.loads(Path(args.input).read_text())
    report = from_dict(experiment.EvalReport, payload, "report")
    experiment.emit_report(report, args.format, args.out)
    print(f"rendered {args.format} -> {args.out}")
    return 0


def cmd_rankdist(args) -> int:
    samples = curation.load_samples_csv(args.samples)
    rows = curation.rank_distribution_report(samples, args.max_rank)
    curation.write_rank_distribution_csv(rows, args.out)
    shown = [r for r in rows if r.p_in_given_rank_at_most is not None][:5]
    for row in shown:
        print(
            f"rank <= {row.rank}: P(in-gallery) = "
            f"{row.p_in_given_rank_at_most:.4f} "
            f"({row.cum_in} in / {row.cum_out} out)"
        )
    print(f"full table -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankgate",
        description=(
            "Decide whether 1-to-many identification results are in-gallery "
            "from the ranks of the matched identity's other enrolled images."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding store")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="binary", choices=("binary", "csv"))
    p.add_argument("--config", help="JSON config file; overrides inline flags")
    p.add_argument("--identities", type=int, default=100)
    p.add_argument("--images-per-identity", type=int, default=5)
    p.add_argument("--dimension", type=int, default=64)
    p.add_argument("--within-sigma", type=float, default=0.1)
    p.add_argument("--groups", help="name:count,name:count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a store and convert formats")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", default="binary", choices=("binary", "csv"))
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", default="binary", choices=("binary", "csv"))
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("curate", help="produce labeled rank samples from a store")
    p.add_argument("--store", required=True)
    p.add_argument("--store-format", default="binary", choices=("binary", "csv"))
    p.add_argument("--group", default="")
    p.add_argument("--condition", default="original")
    p.add_argument("--probe-sigma", type=float, default=0.0)
    p.add_argument("--d-in", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("train", help="train the rank classifier")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--hidden", default="16,16")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--input-scaling",
        default="divide_by_gallery_size",
        choices=mlp.INPUT_SCALINGS,
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="fit a reference decider")
    p.add_argument("kind", choices=("mean", "median", "threshold"))
    p.add_argument("--samples", help="rank sample CSV (centroid kinds)")
    p.add_argument("--scores", help="text file of non-mated scores (threshold)")
    p.add_argument("--target-fpir", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="run a full evaluation plan")
    _add_plan_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="vary the rank-vector width")
    _add_plan_args(p)
    p.add_argument("--d-in-values", required=True, help="comma separated widths")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-render a saved JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="csv", choices=("json", "csv", "markdown"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rankdist", help="tabulate the rank distribution")
    p.add_argument("--samples", required=True)
    p.add_argument("--max-rank", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rankdist)

    return parser


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", help="plan JSON; overrides inline flags")
    p.add_argument("--store")
    p.add_argument("--store-format", default="binary", choices=("binary", "csv"))
    p.add_argument("--synth-config", help="synthetic store JSON config")
    p.add_argument("--groups", help="comma separated group labels")
    p.add_argument("--conditions", help="tag:sigma,tag:sigma")
    p.add_argument("--methods", help=f"subset of {','.join(experiment.METHODS)}")
    p.add_argument("--seeds", default="0")
    p.add_argument("--d-in", type=int, default=3)
    p.add_argument("--out-dir")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

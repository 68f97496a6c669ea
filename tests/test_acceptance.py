"""Acceptance gate: ten checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print. Every check either reproduces an independent oracle
exactly or pins a qualitative finding on synthetic stores whose
parameters are frozen here, so a pass is reproducible bit for bit.
"""

import time

import numpy as np

from conftest import gallery_of, make_row, pairs, store_of
from oracles import (
    finite_difference_gradients,
    oracle_curate,
    oracle_search_order,
    oracle_threshold,
    sample_tuple,
)
from rankgate.baselines import calibrate_threshold
from rankgate.curation import (
    CurationConfig,
    RankSample,
    curate_detailed,
    permute_augment,
    rank_distribution_report,
    stratified_split,
)
from rankgate.experiment import (
    ConditionSpec,
    ExperimentPlan,
    cardinality_sweep,
    emit_report,
    run_experiment,
)
from rankgate.mlp import (
    MlpConfig,
    MlpModel,
    N_CLASSES,
    _forward_batch,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
    softmax,
    stratified_folds,
)
from rankgate.search import search
from rankgate.store import ingest, l2_normalize, write_store
from rankgate.synth import SynthConfig, generate


def _gate(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# The 500-identity store behind the method-comparison checks. Within-noise
# 0.08 keeps leave-one-out closed-set rank-1 at 100% on this seed while
# probe noise 0.10 is heavy enough that the baselines separate.
BASE_STORE = dict(
    n_identities=500,
    images_per_identity=5,
    dimension=64,
    within_noise_sigma=0.08,
    rng_seed=20,
)
FIVE_SEEDS = (0, 1, 2, 3, 4)
MODERATE_SIGMA = 0.10


def _method_means(report, methods):
    out = {}
    for m in methods:
        accs = [r.accuracy for r in report.rows if r.method == m]
        assert accs, f"no rows for method {m}"
        out[m] = float(np.mean(accs))
    return out


def test_01_search_ranking_matches_naive_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    for case in range(200):
        dim = int(rng.choice([8, 64, 512]))
        n = int(rng.integers(2, 1001))
        rows = []
        for i in range(n):
            ident = f"id{int(rng.integers(0, max(2, n // 3))):04d}"
            if rows and rng.random() < 0.25:
                # duplicated vectors force exact ties, exercising tie order
                vec = rows[int(rng.integers(0, len(rows)))][4]
            else:
                vec = rng.standard_normal(dim)
            rows.append(
                make_row(ident, f"im{i:04d}", dim=dim, vector=np.asarray(vec, dtype=np.float64))
            )
        store, gallery = gallery_of(rows)
        probe = l2_normalize(rng.standard_normal(dim))
        result = search(gallery, probe)
        ranked = gallery.tie_rank[result.positions]
        got = [(store.identity_ids[r], store.image_ids[r]) for r in ranked]
        assert got == oracle_search_order(pairs(rows), probe), f"case {case} diverged"
    elapsed = time.monotonic() - t0
    _gate(1, elapsed < 30.0, f"200 galleries ranked identically to the naive oracle in {elapsed:.1f}s")


def _gradient_case(seed, kink_margin=5e-3):
    """(config, stack of one model, (x, y)) with no ReLU input near its kink, or None."""
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(1, 6))
    hidden = tuple(int(rng.integers(2, 13)) for _ in range(int(rng.integers(1, 4))))
    config = MlpConfig(d_in=d_in, hidden_sizes=hidden, dropout_p=0.0, rng_seed=seed)
    model = MlpModel(config, init_model(config, np.random.default_rng(seed)).flat[None])
    n = int(rng.integers(2, 9))
    x = rng.uniform(0.0, 1.0, size=(n, d_in))[None]
    y = rng.integers(0, N_CLASSES, size=n)[None]
    _, caches = _forward_batch(model, x)
    for cache in caches[:-1]:
        if np.min(np.abs(cache["ln"])) < kink_margin:
            return None
    return config, model, (x, y)


def test_02_gradients_match_central_differences():
    t0 = time.monotonic()
    checked = 0
    seed = 20_000
    worst = 0.0
    while checked < 100:
        case = _gradient_case(seed)
        seed += 1
        if case is None:
            continue
        _, model, batch = case
        _, analytic = loss_and_grad(model, *batch)
        numeric = finite_difference_gradients(model, batch, lambda m, b: loss_and_grad(m, *b)[0][0])
        for name in numeric:
            diff = np.abs(analytic.params[name] - numeric[name])
            bound = np.maximum(1e-6, 1e-3 * np.abs(numeric[name]))
            assert np.all(diff <= bound), f"case seed {seed - 1}, {name} off by {diff.max()}"
            worst = max(worst, float((diff / bound).max()))
        checked += 1
    elapsed = time.monotonic() - t0
    _gate(
        2,
        elapsed < 60.0,
        f"100 gradient cases within 1e-3 rel / 1e-6 abs of finite differences "
        f"(worst {worst:.2f} of bound) in {elapsed:.1f}s",
    )


def test_03_curation_matches_straight_line_replay(medium_store):
    cfg = CurationConfig(d_in=3, rng_seed=17, condition="orig")
    result = curate_detailed(medium_store, cfg)
    expected, skipped = oracle_curate(
        medium_store, d_in=3, rng_seed=17, group="", condition="orig"
    )
    got = [sample_tuple(s) for s in result.samples]
    ok = got == expected and result.skipped_out_of_gallery == skipped
    _gate(3, ok, f"{len(got)} curated samples equal the straight-line replay exactly")


def test_04_calibrated_threshold_sound_and_minimal():
    rng = np.random.default_rng(4004)
    for case in range(50):
        n = int(rng.integers(5, 400))
        if rng.random() < 0.5:
            scores = rng.integers(-5, 6, size=n) / 10.0
        else:
            scores = rng.normal(0, 1, size=n)
        target = float(rng.uniform(0.01, 0.5))
        if rng.random() < 0.25:
            target = float(rng.integers(1, n + 1)) / n
        model = calibrate_threshold(scores, target)
        alpha = model.threshold
        assert alpha == oracle_threshold(scores, target), f"case {case} differs from oracle"
        fpir = np.count_nonzero(scores >= alpha) / n
        assert fpir <= target, f"case {case}: FPIR {fpir} above target {target}"
        lower_candidates = [
            float(np.nextafter(s, np.inf))
            for s in scores
            if np.nextafter(s, np.inf) < alpha
        ]
        if lower_candidates:
            lower = max(lower_candidates)
            violated = np.count_nonzero(scores >= lower) / n
            assert violated > target, f"case {case}: lower candidate {lower} is also sound"
    _gate(4, True, "50 score sets: FPIR at the threshold sound, next-lower candidate violates")


def _closed_set_rank1(store):
    mat = store.vectors.astype(np.float64)
    idents = store.identity_ids
    sims = mat @ mat.T
    np.fill_diagonal(sims, -np.inf)
    nearest = np.argmax(sims, axis=1)
    return float(np.mean([idents[i] == idents[j] for i, j in enumerate(nearest)]))


def test_05_classifier_beats_score_baselines():
    t0 = time.monotonic()
    store = generate(SynthConfig(**BASE_STORE))
    rank1 = _closed_set_rank1(store)
    assert rank1 >= 0.99, f"closed-set rank-1 {rank1:.4f} below 0.99"
    plan = ExperimentPlan(
        groups=("synth",),
        conditions=(ConditionSpec("moderate", MODERATE_SIGMA),),
        seeds=FIVE_SEEDS,
        synth=SynthConfig(**BASE_STORE),
    )
    report = run_experiment(plan, store)
    assert not report.failures, report.failures
    means = _method_means(report, ("mlp", "median", "mean", "threshold"))
    elapsed = time.monotonic() - t0
    ordered = means["mlp"] >= means["median"] >= means["mean"]
    margin = means["mlp"] - means["threshold"]
    _gate(
        5,
        ordered and margin >= 0.05 and elapsed < 300.0,
        f"mlp {means['mlp']:.3f} >= median {means['median']:.3f} >= mean "
        f"{means['mean']:.3f}, mlp beats max-score {means['threshold']:.3f} "
        f"by {margin * 100:.1f}pts over 5 seeds in {elapsed:.0f}s",
    )


def test_06_accuracy_plateaus_in_rank_vector_width():
    # the 4-wide vector needs six images per identity, so the store is the
    # criterion-5 one with one extra capture per identity
    synth = SynthConfig(**{**BASE_STORE, "images_per_identity": 6})
    plan = ExperimentPlan(
        groups=("synth",),
        conditions=(ConditionSpec("moderate", MODERATE_SIGMA),),
        seeds=FIVE_SEEDS,
        synth=synth,
    )
    rows, _ = cardinality_sweep(plan, (1, 3, 4))
    acc = {row.d_in: row.mean_accuracy for row in rows}
    gain = acc[3] - acc[1]
    plateau = abs(acc[4] - acc[3])
    _gate(
        6,
        gain >= 0.03 and plateau <= 0.02,
        f"widths 1/3/4 reach {acc[1]:.3f}/{acc[3]:.3f}/{acc[4]:.3f}: "
        f"+{gain * 100:.1f}pts from 1 to 3, {plateau * 100:.1f}pts from 3 to 4",
    )


def test_07_accuracy_declines_with_probe_noise():
    sigmas = (0.06, 0.14, 0.25)
    plan = ExperimentPlan(
        groups=("synth",),
        conditions=tuple(ConditionSpec(f"s{i}", s) for i, s in enumerate(sigmas)),
        seeds=FIVE_SEEDS,
        methods=("mlp",),
        synth=SynthConfig(**BASE_STORE),
    )
    report = run_experiment(plan)
    assert not report.failures, report.failures
    means = []
    for i in range(len(sigmas)):
        accs = [r.accuracy for r in report.rows if r.condition == f"s{i}"]
        means.append(float(np.mean(accs)))
    monotone = all(b <= a + 0.02 for a, b in zip(means, means[1:]))
    _gate(
        7,
        monotone,
        "mean accuracy "
        + " -> ".join(f"{m:.3f}" for m in means)
        + f" over sigmas {sigmas} is non-increasing within 2pts",
    )


def test_08_in_gallery_mass_concentrates_at_top_ranks():
    # a single-rank curation is the regime where in-gallery ranks cleanly
    # dominate: the lone mated rank hugs 2 while a foreign winner's best
    # sibling spreads out
    store = generate(
        SynthConfig(
            n_identities=1000,
            images_per_identity=5,
            dimension=64,
            within_noise_sigma=0.12,
            rng_seed=20,
        )
    )
    samples = curate_detailed(store, CurationConfig(d_in=1, rng_seed=0)).samples
    rows = rank_distribution_report(samples, 50)
    p = [row.p_in_given_rank_at_most for row in rows]
    assert all(v is not None for v in p)
    p5 = next(row.p_in_given_rank_at_most for row in rows if row.rank == 5)
    monotone = all(b <= a for a, b in zip(p, p[1:]))
    _gate(
        8,
        p5 >= 0.9 and monotone,
        f"P(in-gallery | rank <= 5) = {p5:.3f}, non-increasing over ranks 2..50",
    )


def test_09_invariant_suites(tmp_path):
    rng = np.random.default_rng(9009)

    for case in range(1000):
        d = int(rng.integers(1, 7))
        ranks = tuple(int(r) for r in rng.choice(np.arange(2, 2000), size=d, replace=False))
        original = RankSample(ranks, int(rng.integers(0, 2)), f"p{case}", "g", "c", 5000)
        copies = int(rng.integers(1, 4))
        out = permute_augment([original], copies, rng_seed=case)
        assert len(out) == 1 + copies
        assert out[0] == original
        for variant in out[1:]:
            assert sorted(variant.ranks) == sorted(original.ranks)
            assert variant.label == original.label

    for case in range(100):
        n_in = int(rng.integers(4, 40))
        n_out = int(rng.integers(4, 40))
        samples = [
            RankSample((2, 3), 1 if i < n_in else 0, f"p{i}", "g", "c", 100)
            for i in range(n_in + n_out)
        ]
        split = stratified_split(samples, test_fraction=0.25, rng_seed=case)
        assert len(split.train) + len(split.test) == len(samples)
        seen = {id(s) for s in split.train} | {id(s) for s in split.test}
        assert len(seen) == len(samples)

        labels = np.array([s.label for s in samples])
        k = int(rng.integers(2, 5))
        folds = stratified_folds(labels, k, np.random.default_rng(case))
        flat = np.concatenate(folds)
        assert len(flat) == len(samples) and len(np.unique(flat)) == len(samples)
        for label in (0, 1):
            per_fold = [int(np.sum(labels[f] == label)) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    sums = softmax(rng.normal(0, 20, size=(1000, 2))).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-6)

    store = store_of(make_row(f"id{i:03d}", f"im{j}", dim=24, seed=i * 10 + j)
                     for i in range(12) for j in range(3))
    path = tmp_path / "store.bin"
    write_store(store, path)
    loaded = ingest(path)
    assert loaded.identity_ids == store.identity_ids
    assert loaded.image_ids == store.image_ids
    assert loaded.vectors.tobytes() == store.vectors.tobytes()

    model = init_model(MlpConfig(d_in=4, hidden_sizes=(7, 5)), np.random.default_rng(99))
    save_model(model, tmp_path / "model.bin")
    reloaded = load_model(tmp_path / "model.bin")
    assert reloaded.config == model.config
    for (name, arr), (name2, arr2) in zip(model.parameters(), reloaded.parameters()):
        assert name == name2 and arr.tobytes() == arr2.tobytes()

    _gate(
        9,
        True,
        "1000 augmentation, 100 split/fold, 1000 softmax cases and both "
        "round-trips hold",
    )


def test_10_full_plan_reruns_byte_identical(tmp_path):
    plan = ExperimentPlan(
        groups=("ga", "gb", "gc", "gd"),
        conditions=(
            ConditionSpec("original", 0.0),
            ConditionSpec("mild", 0.05),
            ConditionSpec("moderate", 0.10),
            ConditionSpec("heavy", 0.20),
        ),
        seeds=(0,),
        synth=SynthConfig(
            n_identities=120,
            images_per_identity=5,
            dimension=32,
            within_noise_sigma=0.08,
            groups=(("ga", 30), ("gb", 30), ("gc", 30), ("gd", 30)),
            rng_seed=13,
        ),
        mlp_epochs=10,
        mlp_folds=5,
    )
    outputs = {}
    for run in ("one", "two"):
        report = run_experiment(plan)
        assert not report.failures, report.failures
        assert len(report.rows) == 4 * 4 * len(plan.methods)
        d = tmp_path / run
        d.mkdir()
        emit_report(report, "json", d / "report.json")
        emit_report(report, "csv", d / "report.csv")
        emit_report(report, "markdown", d / "report.md")
        outputs[run] = {
            name: (d / name).read_bytes()
            for name in ("report.json", "report.csv", "report.md")
        }
    identical = outputs["one"] == outputs["two"]
    _gate(
        10,
        identical,
        "4 groups x 4 conditions x 5 methods emitted byte-identical "
        "json/csv/markdown on a second run",
    )

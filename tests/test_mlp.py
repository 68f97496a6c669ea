import hashlib
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from oracles import finite_difference_gradients
from rankgate.codec import encode_str
from rankgate.curation import RankSample
import rankgate.mlp as mlp
from rankgate.mlp import (
    MlpConfig,
    MlpModel,
    N_CLASSES,
    _forward_batch,
    _step_masks,
    init_model,
    load_model,
    loss_and_grad,
    predict,
    predict_batch,
    samples_to_arrays,
    save_model,
    scale_input,
    softmax,
    stratified_folds,
    train,
)
from rankgate.seeds import derive_seed
from rankgate.store import StoreFormatError


def sample(ranks, label, ident="p", gallery_size=1000):
    return RankSample(tuple(int(r) for r in ranks), label, ident, "g", "c", gallery_size)


def one(model):
    """``model`` as a stack of one, sharing its buffer."""
    return MlpModel(model.config, model.flat[None])


def keep_masks(rngs, n, config):
    """Per-layer ``(F, n, width)`` keep masks for a batch of ``n``: model
    ``f``'s generator ``rngs[f]`` draws its layers in order, one
    ``random((n, width))`` call each."""
    return [
        np.stack([rng.random((n, width)) >= config.dropout_p for rng in rngs])
        for width in config.hidden_sizes
    ]


def zero_model(config=None):
    model = init_model(config or MlpConfig())
    for _, arr in model.params.items():
        arr[...] = 0.0
    return model


def random_case(seed, max_hidden=12, kink_margin=5e-3):
    """A (config, stack of one model, (x, y)) triple safe for finite differences.

    Rejects draws where any ReLU input sits within ``kink_margin`` of zero,
    since central differences break down at the kink. Returns None when the
    draw is rejected; callers scan seeds until enough cases accept.
    """
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(1, 6))
    n_layers = int(rng.integers(1, 4))
    hidden = tuple(int(rng.integers(2, max_hidden + 1)) for _ in range(n_layers))
    config = MlpConfig(d_in=d_in, hidden_sizes=hidden, dropout_p=0.0, rng_seed=seed)
    model = one(init_model(config, np.random.default_rng(seed)))
    n = int(rng.integers(2, 9))
    x = rng.uniform(0.0, 1.0, size=(n, d_in))[None]
    y = rng.integers(0, N_CLASSES, size=n)[None]
    _, caches = _forward_batch(model, x)
    for cache in caches[:-1]:
        if np.min(np.abs(cache["ln"])) < kink_margin:
            return None
    return config, model, (x, y)


def gradient_cases(count, start_seed=0):
    cases = []
    seed = start_seed
    while len(cases) < count:
        case = random_case(seed)
        if case is not None:
            cases.append(case)
        seed += 1
    return cases


def spelled_out_loss_and_grad(stack, x, y, masks=None):
    """:func:`loss_and_grad` spelled out from its definition on top of the
    shared forward pass: ``np.max``/``np.sum`` softmax over the class axis,
    a fancy-index pick of each sample's own class, ``np.add.reduce`` over
    the batch axis, and no step in place. Returns the losses and the
    gradient arrays by name."""
    logits, caches = _forward_batch(stack, x, masks)
    n_models, n = y.shape
    picked = (np.arange(n_models)[:, None], np.arange(n), y)
    shifted = logits - np.max(logits, axis=2, keepdims=True)
    e = np.exp(shifted)
    z = np.sum(e, axis=2, keepdims=True)
    losses = np.add.reduce(np.log(z[..., 0]) - shifted[picked], axis=1) / n
    dlogits = e / z
    dlogits[picked] -= 1.0
    dlogits = dlogits / n
    grads = {
        "out.w": np.matmul(dlogits.transpose(0, 2, 1), caches[-1]["input"]),
        "out.b": np.add.reduce(dlogits, axis=1),
    }
    dh = np.matmul(dlogits, stack.params["out.w"])
    for i in reversed(range(len(caches) - 1)):
        cache = caches[i]
        xhat = cache["xhat"]
        if cache["mask"] is not None:
            dh = dh * cache["mask"] / (1.0 - stack.config.dropout_p)
        dln = dh * (cache["ln"] > 0.0)
        grads[f"h{i}.gamma"] = np.add.reduce(dln * xhat, axis=1)
        grads[f"h{i}.beta"] = np.add.reduce(dln, axis=1)
        width = dln.shape[2]
        dxhat = dln * stack.params[f"h{i}.gamma"][:, None]
        mean_dxhat = np.add.reduce(dxhat, axis=2, keepdims=True) / width
        mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=2, keepdims=True) / width
        dz = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * cache["inv"]
        grads[f"h{i}.w"] = np.matmul(dz.transpose(0, 2, 1), cache["input"])
        grads[f"h{i}.b"] = np.add.reduce(dz, axis=1)
        dh = np.matmul(dz, stack.params[f"h{i}.w"])
    return losses, grads


def assert_same_bits(actual, expected, what):
    """Equal bytes; where a value is NaN, a NaN at the same place."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), what
    assert actual[~nan].tobytes() == expected[~nan].tobytes(), what


class TestForward:
    def test_zero_network_gives_zero_logits(self):
        model = zero_model()
        logits, _ = _forward_batch(one(model), np.array([0.2, 0.5, 0.9])[None, None])
        assert list(logits[0, 0]) == [0.0, 0.0]
        np.testing.assert_array_equal(softmax(logits[0, 0]), [0.5, 0.5])

    def test_dropout_p_zero_training_equals_inference(self):
        config = MlpConfig(dropout_p=0.0)
        model = one(init_model(config))
        x = np.array([0.1, 0.4, 0.7])[None, None]
        masks = keep_masks([np.random.default_rng(0)], 1, config)
        a, _ = _forward_batch(model, x, masks)
        b, _ = _forward_batch(model, x)
        np.testing.assert_array_equal(a, b)

    def test_dropout_active_changes_output(self):
        config = MlpConfig(dropout_p=0.5)
        model = one(init_model(config))
        x = np.array([0.1, 0.4, 0.7])[None, None]
        trained, _ = _forward_batch(model, x, keep_masks([np.random.default_rng(1)], 1, config))
        plain, _ = _forward_batch(model, x)
        assert not np.array_equal(trained, plain)

    def test_matches_scalar_loop_reimplementation(self):
        """Layer-by-layer python loops agree with the vectorized pass."""
        rng = np.random.default_rng(5)
        config = MlpConfig(d_in=4, hidden_sizes=(7, 5), dropout_p=0.0)
        model = init_model(config, rng)
        for _ in range(10):
            x = rng.uniform(0, 1, size=4)
            h = [float(v) for v in x]
            for i in range(len(config.hidden_sizes)):
                w, b = model.params[f"h{i}.w"], model.params[f"h{i}.b"]
                gamma, beta = model.params[f"h{i}.gamma"], model.params[f"h{i}.beta"]
                width = w.shape[0]
                z = []
                for unit in range(width):
                    acc = float(b[unit])
                    for j, hj in enumerate(h):
                        acc += float(w[unit, j]) * hj
                    z.append(acc)
                mu = sum(z) / width
                var = sum((v - mu) ** 2 for v in z) / width
                inv = 1.0 / math.sqrt(var + 1e-5)
                h = []
                for unit in range(width):
                    xhat = (z[unit] - mu) * inv
                    ln = float(gamma[unit]) * xhat + float(beta[unit])
                    h.append(max(ln, 0.0))
            expected = []
            for unit in range(N_CLASSES):
                acc = float(model.params["out.b"][unit])
                for j, hj in enumerate(h):
                    acc += float(model.params["out.w"][unit, j]) * hj
                expected.append(acc)
            logits, _ = _forward_batch(one(model), x[None, None])
            np.testing.assert_allclose(logits[0, 0], expected, rtol=1e-5)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(3)
        model = init_model(MlpConfig(d_in=3, hidden_sizes=(16, 16)), rng)
        x = rng.uniform(0, 1, size=(32, 3))
        _, caches = _forward_batch(one(model), x[None])
        for cache in caches[:-1]:
            xhat = cache["xhat"][0]
            np.testing.assert_allclose(xhat.mean(axis=1), 0.0, atol=1e-8)
            # the eps inside the sqrt caps the variance just below one
            assert np.all(xhat.var(axis=1) <= 1.0 + 1e-9)
        # on the raw inputs the pre-activation variance dwarfs eps, so the
        # first layer standardizes to unit variance up to the eps haircut
        first = caches[0]["xhat"][0]
        np.testing.assert_allclose(first.var(axis=1), 1.0, atol=5e-3)

    def test_shape_mismatch_rejected(self):
        model = one(init_model(MlpConfig(d_in=3)))
        for x in (np.zeros((1, 1, 2)), np.zeros((2, 1, 3)), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="batch"):
                _forward_batch(model, x)

    def test_bad_masks_rejected(self):
        """One bool (F, n, width) mask per hidden layer, or an error."""
        config = MlpConfig(d_in=3, hidden_sizes=(6, 4), dropout_p=0.5)
        model = one(init_model(config))
        x = np.zeros((1, 5, 3))
        good = [np.ones((1, 5, 6), dtype=bool), np.ones((1, 5, 4), dtype=bool)]
        _forward_batch(model, x, good)
        for masks in (
            good[:1],
            good + good[1:],
            [good[0], np.ones((1, 5, 6), dtype=bool)],
            [good[0], np.ones((1, 4, 4), dtype=bool)],
            [good[0][0], good[1]],
            [good[0], good[1].astype(np.float64)],
        ):
            with pytest.raises(ValueError, match="dropout masks must be bool arrays"):
                _forward_batch(model, x, masks)


class TestLoss:
    def test_zero_network_loss_is_ln_two(self):
        model = one(zero_model())
        x = np.array([[[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]]])
        loss, _ = loss_and_grad(model, x, np.array([[1, 0]]))
        assert loss[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_correct_logit_loss_vanishes(self):
        model = zero_model()
        model.params["out.b"][...] = [10.0, -10.0]
        loss, _ = loss_and_grad(one(model), np.array([[[0.1, 0.2, 0.3]]]), np.array([[0]]))
        assert loss[0] < 1e-4

    def test_empty_batch_rejected(self):
        model = one(init_model(MlpConfig()))
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grad(model, np.zeros((1, 0, 3)), np.zeros((1, 0), dtype=int))

    def test_bad_label_rejected(self):
        model = one(init_model(MlpConfig()))
        with pytest.raises(ValueError, match="labels"):
            loss_and_grad(model, np.array([[[0.1, 0.2, 0.3]]]), np.array([[2]]))

    def test_gradients_match_finite_differences(self):
        for config, model, batch in gradient_cases(10):
            _, analytic = loss_and_grad(model, *batch)
            numeric = finite_difference_gradients(
                model, batch, lambda m, b: loss_and_grad(m, *b)[0][0]
            )
            for name in numeric:
                diff = np.abs(analytic.params[name] - numeric[name])
                bound = np.maximum(1e-6, 1e-3 * np.abs(numeric[name]))
                assert np.all(diff <= bound), f"{name} off by {diff.max()}"

    def test_stack_step_matches_single_model_steps(self):
        """One call on a stack of three models gives each model the bits that
        a call on a stack of one gives it: loss and every gradient array."""
        config = MlpConfig(d_in=3, hidden_sizes=(9, 7, 5), dropout_p=0.3)
        rng = np.random.default_rng(4)
        flat = np.stack([init_model(config, rng).flat for _ in range(3)])
        stack = MlpModel(config, flat)
        for n in (32, 5):  # a full batch and a short last one
            x = rng.uniform(0.0, 1.0, size=(3, n, 3))
            y = rng.integers(0, N_CLASSES, size=(3, n))
            masks = keep_masks([np.random.default_rng(f) for f in range(3)], n, config)
            losses, grad = loss_and_grad(stack, x, y, masks)
            for f in range(3):
                single = MlpModel(config, flat[f : f + 1])
                single_masks = keep_masks([np.random.default_rng(f)], n, config)
                loss, single_grad = loss_and_grad(
                    single, x[f : f + 1], y[f : f + 1], single_masks
                )
                assert loss.tobytes() == losses[f : f + 1].tobytes()
                for name, arr in single_grad.params.items():
                    assert arr.tobytes() == grad.params[name][f : f + 1].tobytes(), name

    @pytest.mark.parametrize("seed", range(8))
    def test_bits_match_spelled_out_reference(self, seed):
        """The two-class steps, the label check and the batch-axis sums give
        the bits of the plain spelling: wide layers and full batches, where
        numpy sums layer-norm units pairwise, a short last batch, a batch of
        fewer than eight, width-1 and width-2 layers, and logits large enough
        to overflow."""
        rng = np.random.default_rng(seed)
        for _ in range(6):
            widths = rng.choice([1, 2, 8, 9, 16, 17], size=rng.integers(1, 4))
            config = MlpConfig(
                d_in=int(rng.integers(1, 5)),
                hidden_sizes=tuple(widths.tolist()),
                dropout_p=float(rng.choice([0.0, 0.1, 0.5])),
            )
            n_models = int(rng.choice([1, 3, 10]))
            flat = np.stack([init_model(config, rng).flat for _ in range(n_models)])
            stack = MlpModel(config, flat)
            if rng.random() < 0.4:
                stack.params["out.w"][...] *= 10.0 ** rng.choice([3, 150, 305])
            # a full batch, a short last one, and one too short for pairwise sums
            for n in (32, int(rng.integers(8, 32)), int(rng.integers(1, 8))):
                x = rng.uniform(0.0, 1.0, size=(n_models, n, config.d_in))
                y = rng.integers(0, N_CLASSES, size=(n_models, n))
                masks = None
                if config.dropout_p > 0.0:
                    masks = keep_masks(
                        [np.random.default_rng([seed, f]) for f in range(n_models)], n, config
                    )
                with np.errstate(all="ignore"):
                    losses, grad = loss_and_grad(stack, x, y, masks)
                    expected_losses, expected = spelled_out_loss_and_grad(stack, x, y, masks)
                assert_same_bits(losses, expected_losses, "loss")
                for name, arr in grad.params.items():
                    assert_same_bits(arr, expected[name], name)

    def test_dropout_only_fires_with_generator(self):
        config = MlpConfig(dropout_p=0.5)
        model = one(init_model(config))
        x, y = np.array([[[0.2, 0.4, 0.6]]]), np.array([[1]])
        a, _ = loss_and_grad(model, x, y)
        b, _ = loss_and_grad(model, x, y)
        assert a == b
        c, _ = loss_and_grad(model, x, y, keep_masks([np.random.default_rng(0)], 1, config))
        assert c != a

    def test_bool_mask_matches_float_mask(self):
        """Dropout by a bool keep mask gives the loss bits of the spelled-out
        float-mask forward pass: ``.mean``/``.var`` layer norm and
        ``act * mask / (1 - p)`` with a 0.0/1.0 float mask."""
        config = MlpConfig(d_in=3, hidden_sizes=(9, 7, 5), dropout_p=0.3)
        rng = np.random.default_rng(8)
        stack = MlpModel(config, np.stack([init_model(config, rng).flat for _ in range(2)]))
        x = rng.uniform(0.0, 1.0, size=(2, 11, 3))
        y = rng.integers(0, N_CLASSES, size=(2, 11))
        masks = keep_masks([np.random.default_rng(f) for f in range(2)], 11, config)
        losses, _ = loss_and_grad(stack, x, y, masks)
        # the float-mask arithmetic, spelled out: act * mask / (1 - p)
        h = x
        for i, mask in enumerate(masks):
            w, b = stack.params[f"h{i}.w"], stack.params[f"h{i}.b"]
            gamma, beta = stack.params[f"h{i}.gamma"], stack.params[f"h{i}.beta"]
            z = np.matmul(h, w.transpose(0, 2, 1)) + b[:, None]
            mu = z.mean(axis=2, keepdims=True)
            xhat = (z - mu) * (1.0 / np.sqrt(z.var(axis=2, keepdims=True) + 1e-5))
            act = np.maximum(gamma[:, None] * xhat + beta[:, None], 0.0)
            h = act * mask.astype(np.float64) / (1.0 - config.dropout_p)
        logits = np.matmul(h, stack.params["out.w"].transpose(0, 2, 1))
        logits = logits + stack.params["out.b"][:, None]
        shifted = logits - np.max(logits, axis=2, keepdims=True)
        picked = np.take_along_axis(shifted, y[..., None], axis=2)[..., 0]
        expected = np.mean(np.log(np.sum(np.exp(shifted), axis=2)) - picked, axis=1)
        assert losses.tobytes() == expected.tobytes()


class TestEpochDraws:
    def test_epoch_draw_splits_into_step_and_layer_draws(self):
        """One ``random`` call per epoch, sliced by :func:`_step_masks`, holds
        exactly the values of one ``random((n_b, width))`` call per step and
        layer, a short last batch included."""
        widths, n_train, batch = (9, 7, 5), 37, 8  # steps of 8, 8, 8, 8 and 5
        for seed in range(3):
            epoch_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(epoch_rng.permutation(n_train), step_rng.permutation(n_train))
            draws = np.empty(n_train * sum(widths))
            epoch_rng.random(out=draws)
            keep = draws >= 0.3
            for start in range(0, n_train, batch):
                stop = min(start + batch, n_train)
                views = _step_masks(draws[None], start, stop, widths)
                masks = _step_masks(keep[None], start, stop, widths)
                for width, view, mask in zip(widths, views, masks):
                    old = step_rng.random((stop - start, width))
                    assert view.shape == mask.shape == (1, stop - start, width)
                    assert view[0].tobytes() == old.tobytes()
                    assert mask[0].tobytes() == (old >= 0.3).tobytes()
            # both generators are left in the same state
            assert epoch_rng.random() == step_rng.random()


class TestSoftmax:
    def test_sums_to_one_over_random_inputs(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 10, size=(1000, 2))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([1000.0, -1000.0]))
        assert probs[0] == pytest.approx(1.0)
        assert np.isfinite(probs).all()


class TestScaleInput:
    def test_divide_mode_maps_into_unit_interval(self):
        config = MlpConfig(input_scaling="divide_by_gallery_size")
        rng = np.random.default_rng(0)
        for _ in range(50):
            gs = int(rng.integers(2, 5000))
            ranks = rng.integers(2, gs + 1, size=3).astype(np.float64)
            scaled = scale_input(ranks, gs, config)
            assert np.all(scaled > 0) and np.all(scaled <= 1)

    def test_raw_mode_passes_through(self):
        config = MlpConfig(input_scaling="raw")
        ranks = np.array([2.0, 30.0, 400.0])
        np.testing.assert_array_equal(scale_input(ranks, 1000, config), ranks)

    def test_samples_to_arrays_checks_width(self):
        config = MlpConfig(d_in=3)
        with pytest.raises(ValueError, match="d_in"):
            samples_to_arrays([sample((2, 3), 1)], config)


class TestStratifiedFolds:
    def test_disjoint_cover_balanced(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=137)
        folds = stratified_folds(labels, 10, np.random.default_rng(1))
        seen = np.concatenate(folds)
        assert len(seen) == 137
        assert len(np.unique(seen)) == 137
        for label in (0, 1):
            per_fold = [int(np.sum(labels[f] == label)) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_too_few_per_class_rejected(self):
        labels = np.array([0] * 3 + [1] * 20)
        with pytest.raises(ValueError, match="class 0"):
            stratified_folds(labels, 5, np.random.default_rng(0))

    def test_missing_class_rejected(self):
        """One label alone is not two-class data: the absent class has 0 samples."""
        for present in (0, 1):
            labels = np.full(30, present)
            with pytest.raises(ValueError, match=f"class {1 - present} has 0 samples"):
                stratified_folds(labels, 2, np.random.default_rng(0))

    def test_random_sets_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(2, 6))
            labels = rng.integers(0, 2, size=n)
            if min(np.sum(labels == 0), np.sum(labels == 1)) < k:
                continue
            folds = stratified_folds(labels, k, rng)
            seen = np.concatenate(folds)
            assert len(np.unique(seen)) == n == len(seen)


class TestConfig:
    def test_learning_rate_must_be_finite_and_positive(self):
        for rate in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
            with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
                MlpConfig(learning_rate=rate)
        assert MlpConfig(learning_rate=1e-3).learning_rate == 1e-3

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"d_in": 0}, "d_in must be >= 1"),
            ({"hidden_sizes": (8, 0)}, "hidden_sizes must all be >= 1, got (8, 0)"),
            ({"dropout_p": 1.0}, "dropout_p must be in [0, 1)"),
            ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
            ({"epochs": 0}, "epochs must be >= 1, got 0"),
            ({"folds": 1}, "folds must be >= 2, got 1"),
            ({"input_scaling": "log"}, "input_scaling must be one of"),
        ],
    )
    def test_refusal_names_its_field_first(self, setting, message):
        with pytest.raises(ValueError) as info:
            MlpConfig(**setting)
        assert str(info.value).startswith(message)


class TestTrain:
    def separable(self, n_per_class=100, seed=1):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n_per_class):
            low = tuple(sorted(rng.choice(np.arange(2, 6), 3, replace=False)))
            out.append(sample(low, 1, f"a{i}"))
            high = tuple(sorted(rng.choice(np.arange(50, 1000), 3, replace=False)))
            out.append(sample(high, 0, f"b{i}"))
        return out

    def uneven(self, seed=1, n_in=22, n_out=21):
        """``n_in`` in-gallery and ``n_out`` out-of-gallery samples with
        overlapping ranks. At the defaults, 4 folds deal them into validation
        sets of 12, 11, 10 and 10, so training runs three training-set sizes."""
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n_in):
            out.append(sample(sorted(rng.choice(np.arange(2, 60), 3, replace=False)), 1, f"a{i}"))
            if i < n_out:
                high = sorted(rng.choice(np.arange(20, 200), 3, replace=False))
                out.append(sample(high, 0, f"b{i}"))
        return out

    def test_separable_data_perfect_on_every_fold(self):
        _, report = train(self.separable(), MlpConfig(rng_seed=0))
        assert report.fold_accuracies == [1.0] * 10

    def test_trained_model_accepts_low_ranks(self):
        model, _ = train(self.separable(), MlpConfig(rng_seed=0))
        label, probs = predict(model, (2, 3, 4), 1000)
        assert label == 1
        assert probs[1] > 0.5
        label, _ = predict(model, (600, 700, 800), 1000)
        assert label == 0

    def test_chance_level_labels_stay_near_half(self):
        """Coin-flip labels: no structure to learn, only selection noise."""
        rng = np.random.default_rng(102)
        samples = []
        for i in range(2000):
            ranks = tuple(sorted(rng.choice(np.arange(2, 999), 3, replace=False)))
            samples.append(sample(ranks, int(rng.integers(0, 2)), f"p{i}"))
        _, report = train(samples, MlpConfig(rng_seed=2))
        mean_acc = float(np.mean(report.fold_accuracies))
        assert 0.45 <= mean_acc <= 0.55

    def test_deterministic_reports_and_parameters(self):
        samples = self.separable(n_per_class=30)
        config = MlpConfig(epochs=4, folds=4, rng_seed=11)
        model_a, report_a = train(samples, config)
        model_b, report_b = train(samples, config)
        assert report_a.fold_accuracies == report_b.fold_accuracies
        assert report_a.best_epochs == report_b.best_epochs
        assert report_a.selected_fold == report_b.selected_fold
        for (name_a, arr_a), (_, arr_b) in zip(model_a.params.items(), model_b.params.items()):
            assert arr_a.tobytes() == arr_b.tobytes(), name_a

    def test_selected_fold_is_argmax(self):
        samples = self.separable(n_per_class=40, seed=3)
        # mislabel a slice so folds differ in difficulty
        noisy = [
            sample(s.ranks, 1 - s.label, s.probe_identity) if i % 7 == 0 else s
            for i, s in enumerate(samples)
        ]
        _, report = train(noisy, MlpConfig(epochs=3, folds=5, rng_seed=0))
        best = max(report.fold_accuracies)
        assert report.fold_accuracies[report.selected_fold] == best
        assert report.selected_fold == report.fold_accuracies.index(best)

    def test_insufficient_samples_rejected(self):
        samples = self.separable(n_per_class=4)
        with pytest.raises(ValueError, match="need at least"):
            train(samples, MlpConfig(folds=10))

    def test_diverged_loss_aborts(self):
        """The lowest-index fold that diverges is named, with its first
        non-finite epoch, whatever order the folds train in."""
        samples = self.separable(n_per_class=20)
        config = MlpConfig(epochs=2, folds=2, learning_rate=1e300, rng_seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"^non-finite loss at fold 0 epoch 1: nan$"):
                train(samples, config)
        # Raw ranks near the float64 limit overflow the first layer of every
        # fold that trains on them. In fold 0's validation set such a sample
        # spares fold 0 only, so fold 1 is named, although folds 2 and 3
        # (validation size 10) train apart from fold 1 (11) and diverge too.
        samples = self.uneven()
        labels = np.array([s.label for s in samples])
        folds = stratified_folds(labels, 4, np.random.default_rng(derive_seed(0, "folds")))
        i = int(folds[0][0])
        big = 10**308
        samples[i] = sample((big, big + 1, big + 2), samples[i].label, "huge", big + 2)
        config = MlpConfig(epochs=2, folds=4, rng_seed=0, input_scaling="raw")
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"^non-finite loss at fold 1 epoch 0: nan$"):
                train(samples, config)

    def test_overflowing_parameters_abort(self):
        """Loss can stay finite while weights outgrow float32; still an error."""
        samples = self.separable(n_per_class=20)
        config = MlpConfig(epochs=2, folds=2, learning_rate=1e80, rng_seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="float32 rounding"):
                train(samples, config)

    def test_golden_model_and_report_bytes(self, tmp_path):
        """Model file and report bytes of one training, pinned as literals:
        three training-set sizes, dropout, and short last batches."""
        config = MlpConfig(
            hidden_sizes=(6, 5, 4),
            dropout_p=0.2,
            learning_rate=0.02,
            batch_size=8,
            epochs=6,
            folds=4,
            rng_seed=3,
        )
        model, report = train(self.uneven(), config)
        save_model(model, tmp_path / "model.bin")
        report.write_json(tmp_path / "report.json")
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("model.bin", "report.json")
        ]
        assert digests == [
            "c32d1bbd688d04f901c795d2ddee7292bbe7de20869166e60994637c0e49709f",
            "22398de31e359bb6387fe27269b50391bfbb7e06f4f3c666450c4635e918124a",
        ]

    def test_golden_model_and_report_bytes_at_default_config(self, tmp_path):
        """Model file and report bytes of one training at ``MlpConfig()``:
        hidden (16, 16), batch 32, 10 folds, dropout 0.1. 125 samples give
        training sets of 111, 112 and 113, each three full batches and a
        short one; layers of 16 units and full batches are where numpy sums
        pairwise (the layer-norm statistics) and where it does not (the
        batch axis)."""
        model, report = train(self.uneven(seed=5, n_in=64, n_out=61), MlpConfig())
        save_model(model, tmp_path / "model.bin")
        report.write_json(tmp_path / "report.json")
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("model.bin", "report.json")
        ]
        assert digests == [
            "c4560bdfa1d2e91294d5feb954e005b27caf14a30a8863d724f9d76c33ddb6d6",
            "9883924a3f572b84da5bf411c3401a77e2436d30cc0b05b4f50138f86220d7d8",
        ]

    def test_report_json(self, tmp_path):
        _, report = train(self.separable(30), MlpConfig(epochs=2, folds=3, rng_seed=0))
        path = tmp_path / "report.json"
        report.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["selected_fold"] == report.selected_fold
        assert payload["fold_accuracies"] == report.fold_accuracies


class TestPredict:
    def test_zero_network_ties_to_reject(self):
        model = zero_model()
        label, probs = predict(model, (2, 3, 4), 100)
        assert label == 0
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_confidences_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = init_model(MlpConfig(rng_seed=5))
        for _ in range(1000):
            gs = int(rng.integers(10, 2000))
            ranks = rng.choice(np.arange(2, gs + 1), size=3, replace=False)
            _, probs = predict(model, tuple(int(r) for r in ranks), gs)
            assert abs(float(probs.sum()) - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "config",
        [
            MlpConfig(d_in=1, hidden_sizes=(5,), rng_seed=1),
            MlpConfig(d_in=3, hidden_sizes=(1, 4), dropout_p=0.4, rng_seed=2),
            MlpConfig(d_in=4, hidden_sizes=(16, 16), input_scaling="raw", rng_seed=3),
            MlpConfig(rng_seed=4),
        ],
    )
    def test_batch_matches_per_sample_predict(self, config, monkeypatch):
        """Every label and probability of :func:`predict_batch` has the bits
        :func:`predict` gives that sample alone, blocks of 7 and of the
        default size alike, the last block short."""
        rng = np.random.default_rng(config.rng_seed)
        model = init_model(config)
        sizes = rng.integers(1, 3000, size=mlp._PREDICT_BLOCK + 9)
        ranks = [tuple(rng.integers(1, gs + 2, size=config.d_in).tolist()) for gs in sizes]
        singles = [predict(model, r, int(gs)) for r, gs in zip(ranks, sizes)]
        for block in (7, mlp._PREDICT_BLOCK):
            monkeypatch.setattr(mlp, "_PREDICT_BLOCK", block)
            labels, probs = predict_batch(model, ranks, sizes.tolist())
            assert labels.tolist() == [label for label, _ in singles]
            assert probs.tobytes() == np.stack([p for _, p in singles]).tobytes()

    def test_batch_of_none(self):
        labels, probs = predict_batch(init_model(MlpConfig()), [], [])
        assert labels.shape == (0,) and probs.shape == (0, N_CLASSES)

    def test_batch_ties_reject_like_predict(self):
        labels, probs = predict_batch(zero_model(), [(2, 3, 4), (5, 6, 7)], [100, 100])
        assert labels.tolist() == [0, 0]
        np.testing.assert_array_equal(probs, [[0.5, 0.5], [0.5, 0.5]])

    def test_wrong_rank_count_names_d_in(self):
        model = init_model(MlpConfig())
        message = "rank vectors must have the model's d_in = 3 ranks"
        with pytest.raises(ValueError, match=message):
            predict(model, (2, 3, 4, 5), 100)
        with pytest.raises(ValueError, match=message):
            predict_batch(model, [(2, 3, 4, 5)], [100])
        with pytest.raises(ValueError, match=message):
            predict_batch(model, (2, 3, 4), [100])

    def test_batch_gallery_sizes_checked(self):
        model = init_model(MlpConfig())
        with pytest.raises(ValueError, match="gallery sizes"):
            predict_batch(model, [(2, 3, 4), (5, 6, 7)], [100])
        with pytest.raises(ValueError, match="gallery_size must be >= 1"):
            predict_batch(model, [(2, 3, 4), (5, 6, 7)], [100, 0])


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(MlpConfig(hidden_sizes=(5, 3), rng_seed=9))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for (name, arr), (_, arr2) in zip(model.params.items(), loaded.params.items()):
            assert arr.tobytes() == arr2.tobytes(), name

    def test_predictions_survive_round_trip(self, tmp_path):
        model = init_model(MlpConfig(rng_seed=4))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            gs = int(rng.integers(10, 500))
            ranks = tuple(
                int(r) for r in rng.choice(np.arange(2, gs + 1), 3, replace=False)
            )
            label_a, probs_a = predict(model, ranks, gs)
            label_b, probs_b = predict(loaded, ranks, gs)
            assert label_a == label_b
            np.testing.assert_array_equal(probs_a, probs_b)

    def test_tampered_shape_rejected(self, tmp_path):
        model = init_model(MlpConfig(rng_seed=1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        # config block: widen d_in without touching the stored arrays
        payload = data.decode("latin1")
        idx = payload.index('"d_in": 3')
        data[idx : idx + 9] = b'"d_in": 4'
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="shape"):
            load_model(path)

    def test_config_block_must_be_an_object_of_known_fields(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_model(MlpConfig(rng_seed=1)), path)
        data = path.read_bytes()
        # magic (5 bytes), u32 version, u32 block length, JSON block
        (n,) = struct.unpack("<I", data[9:13])
        config = json.loads(data[13 : 13 + n])
        blocks = (
            [],
            {**config, "momentum": 0.9},
            {k: v for k, v in config.items() if k != "folds"},
        )
        for block in blocks:
            raw = json.dumps(block).encode("utf-8")
            path.write_bytes(data[:9] + struct.pack("<I", len(raw)) + raw + data[13 + n :])
            with pytest.raises(StoreFormatError, match="bad model config block"):
                load_model(path)

    @staticmethod
    def write_arrays(path, model, written):
        """A model file of ``model``'s config block and the ``(name, array)``
        pairs ``written``, in that order."""
        block = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
        data = b"OGMLP" + struct.pack("<II", 1, len(block)) + block
        data += struct.pack("<I", len(written))
        for name, arr in written:
            data += encode_str(name) + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
            data += arr.astype("<f4").tobytes()
        path.write_bytes(data)

    def test_missing_or_unexpected_array_rejected(self, tmp_path):
        model = init_model(MlpConfig(hidden_sizes=(4,), rng_seed=2))
        arrays = list(model.params.items())
        cases = (
            ([a for a in arrays if a[0] != "h0.gamma"], "holds 5 arrays, config implies 6"),
            (arrays + [("h1.w", np.zeros((2, 2)))], "holds 7 arrays, config implies 6"),
        )
        path = tmp_path / "model.bin"
        for written, message in cases:
            self.write_arrays(path, model, written)
            with pytest.raises(StoreFormatError, match=message):
                load_model(path)

    def test_repeated_array_rejected(self, tmp_path):
        """A file that repeats an array name is rejected, whether the repeat
        is extra or replaces another array (the count matches the layout)."""
        model = init_model(MlpConfig(hidden_sizes=(4,), rng_seed=2))
        arrays = list(model.params.items())
        h0_w = ("h0.w", np.full_like(arrays[0][1], 7.0))
        cases = (
            (arrays + [h0_w], "holds 7 arrays, config implies 6"),
            (
                [arrays[0], h0_w] + arrays[2:],
                r"array 1 is 'h0.w' of shape \(4, 3\), config implies 'h0.b'",
            ),
        )
        path = tmp_path / "model.bin"
        for written, message in cases:
            self.write_arrays(path, model, written)
            with pytest.raises(StoreFormatError, match=message):
                load_model(path)

    def test_arrays_out_of_layout_order_rejected(self, tmp_path):
        """Two arrays of one shape swapped: every name and shape is present,
        but the file does not follow the layout order, the only one written."""
        model = init_model(MlpConfig(hidden_sizes=(4,), rng_seed=2))
        arrays = list(model.params.items())
        assert [name for name, _ in arrays[1:3]] == ["h0.b", "h0.gamma"]
        path = tmp_path / "model.bin"
        self.write_arrays(path, model, [arrays[0], arrays[2], arrays[1]] + arrays[3:])
        with pytest.raises(StoreFormatError, match="array 1 is 'h0.gamma'.*implies 'h0.b'"):
            load_model(path)
        self.write_arrays(path, model, arrays)
        assert load_model(path).flat.tobytes() == model.flat.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"WRONG" + b"\x00" * 16)
        with pytest.raises(StoreFormatError, match="magic"):
            load_model(path)

    def test_trained_model_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = [
            sample(tuple(sorted(rng.choice(np.arange(2, 99), 3, replace=False))),
                   int(rng.integers(0, 2)), f"p{i}", 100)
            for i in range(60)
        ]
        model, _ = train(samples, MlpConfig(epochs=2, folds=3, rng_seed=0))
        path = tmp_path / "trained.bin"
        save_model(model, path)
        loaded = load_model(path)
        save_model(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        for s in samples:
            label_a, probs_a = predict(model, s.ranks, s.gallery_size)
            label_b, probs_b = predict(loaded, s.ranks, s.gallery_size)
            assert label_a == label_b
            np.testing.assert_array_equal(probs_a, probs_b)

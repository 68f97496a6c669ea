"""Small feedforward classifier over rank feature vectors, trained from scratch.

Architecture: per hidden layer an affine map, layer normalization (mean and
biased variance over the layer's units, epsilon inside the square root),
learned gain/shift, ReLU, then inverted dropout during training only. The
output layer is affine with two units, one per decision (0 = out-of-gallery,
1 = in-gallery). Loss is softmax cross-entropy averaged over the batch.

Parameters live in one float64 buffer laid out by :func:`_layout`, the only
place that names them: ``h{i}.w``, ``h{i}.b``, ``h{i}.gamma``, ``h{i}.beta``
for each hidden layer ``i``, then ``out.w``, ``out.b``. Initialization,
gradients, the Adam update, fold snapshots and the model file all follow
that order. Training arithmetic is float64 throughout; returned and saved
parameters are rounded to float32, so a model predicts identically before
and after a save/load round trip. Optimization is plain Adam (Kingma & Ba,
arXiv:1412.6980), elementwise over the buffer. Model selection runs
stratified k-fold cross validation, snapshots each fold's parameters at its
best validation epoch, and returns the best fold's snapshot.

Model file format: magic ``OGMLP``, u32 version (1), u32 length-prefixed
JSON config block (the :class:`MlpConfig` fields, every one required and
no other key accepted), u32 array count, then per parameter array, in
:func:`_layout` order, a u16 length-prefixed name, u8 ndim, u32 dims, and
little-endian f32 data; files written before the one-buffer layout have the
same bytes and load unchanged. Read and written with :mod:`rankgate.codec`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .codec import Reader, StoreFormatError, encode_str, from_dict
from .curation import RankSample
from .seeds import derive_seed

LN_EPS = 1e-5
N_CLASSES = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MAGIC = b"OGMLP"
_VERSION = 1

INPUT_SCALINGS = ("divide_by_gallery_size", "raw")


@dataclass(frozen=True)
class MlpConfig:
    d_in: int = 3
    hidden_sizes: tuple[int, ...] = (16, 16)
    dropout_p: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    folds: int = 10
    rng_seed: int = 0
    input_scaling: str = "divide_by_gallery_size"

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1 or self.folds < 2:
            raise ValueError("batch_size and epochs must be >= 1, folds >= 2")
        if self.input_scaling not in INPUT_SCALINGS:
            raise ValueError(
                f"input_scaling must be one of {INPUT_SCALINGS}, "
                f"got {self.input_scaling!r}"
            )


def _layout(config: MlpConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in buffer and model-file order."""
    sizes = (config.d_in,) + config.hidden_sizes
    layout = []
    for i, (fan_in, width) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout += [
            (f"h{i}.w", (width, fan_in)),
            (f"h{i}.b", (width,)),
            (f"h{i}.gamma", (width,)),
            (f"h{i}.beta", (width,)),
        ]
    return layout + [("out.w", (N_CLASSES, sizes[-1])), ("out.b", (N_CLASSES,))]


def _layers(params: dict[str, np.ndarray]):
    """``params`` grouped in :func:`_layout` order: ``[(w, b, gamma, beta),
    ...]`` for the hidden layers, then ``(w, b)`` for the output layer."""
    views = list(params.values())
    return [views[i : i + 4] for i in range(0, len(views) - 2, 4)], views[-2:]


@dataclass(eq=False)
class MlpModel:
    """Every parameter in one float64 buffer ``flat``, laid out by :func:`_layout`.

    ``params`` maps each name to its view into ``flat``, so updating ``flat``
    in place updates every layer. Gradients are held the same way.
    """

    config: MlpConfig
    flat: Optional[np.ndarray] = None
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        layout = _layout(self.config)
        sizes = [math.prod(shape) for _, shape in layout]
        if self.flat is None:
            self.flat = np.zeros(sum(sizes))
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"buffer shape {self.flat.shape}, layout needs {sum(sizes)}")
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        self.params = {
            name: part.reshape(shape) for (name, shape), part in zip(layout, parts)
        }

    def parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.params.items())


@dataclass
class TrainReport:
    fold_accuracies: list[float]
    best_epochs: list[int]
    selected_fold: int
    final_test_accuracy: Optional[float] = None

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _round_f32(model: MlpModel) -> MlpModel:
    """Round every parameter to its float32 value (held in float64)."""
    return MlpModel(model.config, model.flat.astype(np.float32).astype(np.float64))


def init_model(config: MlpConfig, rng: Optional[np.random.Generator] = None) -> MlpModel:
    """Fan-in-scaled uniform weights, zero biases, unit gain, zero shift.

    Weights are drawn layer by layer, the output layer last.
    """
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.rng_seed, "init"))
    model = MlpModel(config)
    hidden, (out_w, _) = _layers(model.params)
    for w in [layer[0] for layer in hidden] + [out_w]:
        limit = np.sqrt(6.0 / w.shape[1])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    for _, _, gamma, _ in hidden:
        gamma[...] = 1.0
    return _round_f32(model)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_batch(
    model: MlpModel,
    x: np.ndarray,
    training: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
):
    """Batched forward pass. Returns (logits, caches) for backprop."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.config.d_in:
        raise ValueError(f"batch must be (n, {model.config.d_in}), got {h.shape}")
    p = model.config.dropout_p
    hidden, (out_w, out_b) = _layers(model.params)
    caches = []
    for w, b, gamma, beta in hidden:
        z = h @ w.T + b
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv
        ln = gamma * xhat + beta
        act = np.maximum(ln, 0.0)
        if training and p > 0.0 and dropout_rng is not None:
            mask = (dropout_rng.random(act.shape) >= p).astype(np.float64)
            dropped = act * mask / (1.0 - p)
        else:
            mask = None
            dropped = act
        caches.append({"input": h, "inv": inv, "xhat": xhat, "ln": ln, "mask": mask})
        h = dropped
    logits = h @ out_w.T + out_b
    caches.append({"input": h})
    return logits, caches


def loss_and_grad(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[float, MlpModel]:
    """Mean softmax cross-entropy over the batch ``x`` ``(n, d_in)``, ``y``
    ``(n,)``, and its gradient as an :class:`MlpModel` in the model's layout.

    Dropout fires only when a generator is supplied, so gradient checks and
    inference paths are deterministic by default.
    """
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n == 0:
        raise ValueError("batch must be non-empty")
    if np.any((y < 0) | (y >= N_CLASSES)):
        raise ValueError("labels must be 0 or 1")
    if len(x) != n:
        raise ValueError(f"batch has {len(x)} inputs but {n} labels")
    training = dropout_rng is not None
    logits, caches = _forward_batch(model, x, training=training, dropout_rng=dropout_rng)

    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), y]))

    dlogits = softmax(logits)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    grad = MlpModel(model.config, np.empty_like(model.flat))
    hidden, (out_w, _) = _layers(model.params)
    grad_hidden, (grad_out_w, grad_out_b) = _layers(grad.params)
    grad_out_w[...] = dlogits.T @ caches[-1]["input"]
    grad_out_b[...] = dlogits.sum(axis=0)
    dh = dlogits @ out_w

    p = model.config.dropout_p
    for (w, _, gamma, _), (gw, gb, ggamma, gbeta), cache in reversed(
        list(zip(hidden, grad_hidden, caches))
    ):
        if cache["mask"] is not None:
            dh = dh * cache["mask"] / (1.0 - p)
        dln = dh * (cache["ln"] > 0.0)
        ggamma[...] = (dln * cache["xhat"]).sum(axis=0)
        gbeta[...] = dln.sum(axis=0)
        dxhat = dln * gamma
        # layer norm backward over the unit axis
        mean_dxhat = dxhat.mean(axis=1, keepdims=True)
        mean_dxhat_xhat = (dxhat * cache["xhat"]).mean(axis=1, keepdims=True)
        dz = cache["inv"] * (dxhat - mean_dxhat - cache["xhat"] * mean_dxhat_xhat)
        gw[...] = dz.T @ cache["input"]
        gb[...] = dz.sum(axis=0)
        dh = dz @ w
    return loss, grad


def predict(
    model: MlpModel, ranks: Sequence[int], gallery_size: int
) -> tuple[int, np.ndarray]:
    """Classify one rank vector. Returns (label, class probabilities).

    An exact probability tie resolves to label 0, the safe rejection.
    """
    x = scale_input(np.asarray(ranks, dtype=np.float64), gallery_size, model.config)
    logits, _ = _forward_batch(model, x[None, :])
    probs = softmax(logits[0])
    return int(np.argmax(probs)), probs


def scale_input(
    ranks: np.ndarray, gallery_size: int, config: MlpConfig
) -> np.ndarray:
    if gallery_size < 1:
        raise ValueError("gallery_size must be >= 1")
    if config.input_scaling == "divide_by_gallery_size":
        return ranks / float(gallery_size)
    return ranks.astype(np.float64)


def samples_to_arrays(
    samples: Sequence[RankSample], config: MlpConfig
) -> tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise ValueError("no samples")
    x = np.stack(
        [scale_input(np.asarray(s.ranks, float), s.gallery_size, config) for s in samples]
    )
    if x.shape[1] != config.d_in:
        raise ValueError(
            f"samples have {x.shape[1]} ranks, config.d_in is {config.d_in}"
        )
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y


def stratified_folds(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Disjoint covering folds, each class spread within one sample of even.

    Per class: shuffle its indices, deal them round robin across folds.
    """
    labels = np.asarray(labels)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if len(idx) < k:
            raise ValueError(
                f"class {label} has {len(idx)} samples, need at least {k} "
                f"for {k}-fold validation"
            )
        perm = rng.permutation(len(idx))
        for slot, i in enumerate(perm):
            folds[slot % k].append(int(idx[i]))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def _accuracy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    logits, _ = _forward_batch(model, x, training=False)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == y))


def train(
    samples: Sequence[RankSample], config: MlpConfig
) -> tuple[MlpModel, TrainReport]:
    """Cross-validated training; returns the best fold's best-epoch model.

    Deterministic given (samples, config): every stream is derived from
    ``config.rng_seed``, and folds use independent streams so a concurrent
    schedule could not change the result. Non-finite losses abort with a
    diagnostic rather than silently continuing.
    """
    x, y = samples_to_arrays(samples, config)
    fold_rng = np.random.default_rng(derive_seed(config.rng_seed, "folds"))
    folds = stratified_folds(y, config.folds, fold_rng)
    all_idx = np.arange(len(y))

    fold_accuracies: list[float] = []
    best_epochs: list[int] = []
    snapshots: list[np.ndarray] = []
    for fold_i, val_idx in enumerate(folds):
        val_mask = np.zeros(len(y), dtype=bool)
        val_mask[val_idx] = True
        train_idx = all_idx[~val_mask]
        rng = np.random.default_rng(derive_seed(config.rng_seed, f"fold{fold_i}"))
        model = init_model(config, rng)
        m = np.zeros_like(model.flat)
        v = np.zeros_like(model.flat)
        step = 0
        best_acc = -1.0
        best_epoch = -1
        best_snapshot = model.flat.copy()
        for epoch in range(config.epochs):
            order = train_idx[rng.permutation(len(train_idx))]
            for start in range(0, len(order), config.batch_size):
                chunk = order[start : start + config.batch_size]
                loss, grad = loss_and_grad(model, x[chunk], y[chunk], dropout_rng=rng)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at fold {fold_i} epoch {epoch}: {loss}"
                    )
                step += 1
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad.flat
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad.flat * grad.flat
                mhat, vhat = m / (1.0 - ADAM_BETA1**step), v / (1.0 - ADAM_BETA2**step)
                model.flat -= config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
            acc = _accuracy(model, x[val_idx], y[val_idx])
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                best_snapshot = model.flat.copy()
        fold_accuracies.append(best_acc)
        best_epochs.append(best_epoch)
        snapshots.append(best_snapshot)

    selected = int(np.argmax(fold_accuracies))
    final = _round_f32(MlpModel(config, snapshots[selected]))
    for name, arr in final.parameters():
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(
                f"parameter {name} is non-finite after float32 rounding; "
                f"training diverged (check the learning rate)"
            )
    return final, TrainReport(
        fold_accuracies=fold_accuracies, best_epochs=best_epochs, selected_fold=selected
    )


def save_model(model: MlpModel, path) -> None:
    config_json = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    arrays = list(model.parameters())
    with open(Path(path), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(config_json)))
        fh.write(config_json)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            fh.write(encode_str(name))
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_model(path) -> MlpModel:
    reader = Reader(Path(path).read_bytes())
    reader.header(_MAGIC, _VERSION, f"model file {path}")
    cfg_len = reader.u32()
    try:
        config = from_dict(
            MlpConfig,
            json.loads(reader.take(cfg_len).decode("utf-8")),
            "MlpConfig",
            required=[f.name for f in fields(MlpConfig)],
        )
    except ValueError as exc:
        raise StoreFormatError(f"bad model config block: {exc}") from exc
    n_arrays = reader.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name = reader.string()
        ndim = reader.take(1)[0]
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        data = reader.take(4 * math.prod(shape))
        arrays[name] = np.frombuffer(data, dtype="<f4").reshape(shape)
    reader.end("model arrays")

    layout = _layout(config)
    for name, shape in layout:
        if name not in arrays:
            raise StoreFormatError(f"model file is missing array {name!r}")
        if arrays[name].shape != shape:
            raise StoreFormatError(
                f"array {name!r} has shape {arrays[name].shape}, config implies {shape}"
            )
    unexpected = sorted(set(arrays) - {name for name, _ in layout})
    if unexpected:
        raise StoreFormatError(f"model file carries unexpected arrays: {unexpected}")
    flat = np.concatenate([arrays[name].ravel() for name, _ in layout])
    return MlpModel(config, flat.astype(np.float64))

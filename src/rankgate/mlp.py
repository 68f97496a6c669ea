"""Small feedforward classifier over rank feature vectors, trained from scratch.

Architecture: per hidden layer an affine map, layer normalization (mean and
biased variance over the layer's units, epsilon inside the square root),
learned gain/shift, ReLU, then inverted dropout during training only. The
output layer is affine with two units, one per decision (0 = out-of-gallery,
1 = in-gallery). Loss is softmax cross-entropy averaged over the batch.

Training arithmetic is float64 throughout; returned and saved parameters are
rounded to float32, so a model predicts identically before and after a
save/load round trip. Optimization is plain Adam. Model selection runs
stratified k-fold cross validation, snapshots each fold's parameters at its
best validation epoch, and returns the best fold's snapshot.

Model file format: magic ``OGMLP``, u32 version (1), u32 length-prefixed
JSON config block (the :class:`MlpConfig` fields, every one required and
no other key accepted), u32 array count, then per parameter array a u16
length-prefixed name, u8 ndim, u32 dims, and little-endian f32 data.
Read and written with :mod:`rankgate.codec`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .codec import Reader, StoreFormatError, encode_str, from_dict
from .curation import RankSample
from .seeds import derive_seed

LN_EPS = 1e-5
N_CLASSES = 2

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


@dataclass(eq=False)
class HiddenLayer:
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray


@dataclass(eq=False)
class MlpModel:
    config: MlpConfig
    hidden: list[HiddenLayer]
    out_w: np.ndarray
    out_b: np.ndarray

    def parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        for i, layer in enumerate(self.hidden):
            yield f"h{i}.w", layer.w
            yield f"h{i}.b", layer.b
            yield f"h{i}.gamma", layer.gamma
            yield f"h{i}.beta", layer.beta
        yield "out.w", self.out_w
        yield "out.b", self.out_b


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
    def r(a: np.ndarray) -> np.ndarray:
        return a.astype(np.float32).astype(np.float64)

    return MlpModel(
        config=model.config,
        hidden=[
            HiddenLayer(r(l.w), r(l.b), r(l.gamma), r(l.beta)) for l in model.hidden
        ],
        out_w=r(model.out_w),
        out_b=r(model.out_b),
    )


def init_model(config: MlpConfig, rng: Optional[np.random.Generator] = None) -> MlpModel:
    """Fan-in-scaled uniform weights, zero biases, unit gain, zero shift."""
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.rng_seed, "init"))
    sizes = (config.d_in,) + config.hidden_sizes
    hidden = []
    for fan_in, width in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        hidden.append(
            HiddenLayer(
                w=rng.uniform(-limit, limit, size=(width, fan_in)),
                b=np.zeros(width),
                gamma=np.ones(width),
                beta=np.zeros(width),
            )
        )
    limit = np.sqrt(6.0 / sizes[-1])
    out_w = rng.uniform(-limit, limit, size=(N_CLASSES, sizes[-1]))
    out_b = np.zeros(N_CLASSES)
    return _round_f32(MlpModel(config, hidden, out_w, out_b))


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
        raise ValueError(
            f"batch must be (n, {model.config.d_in}), got {h.shape}"
        )
    p = model.config.dropout_p
    caches = []
    for layer in model.hidden:
        z = h @ layer.w.T + layer.b
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv
        ln = layer.gamma * xhat + layer.beta
        act = np.maximum(ln, 0.0)
        if training and p > 0.0 and dropout_rng is not None:
            mask = (dropout_rng.random(act.shape) >= p).astype(np.float64)
            dropped = act * mask / (1.0 - p)
        else:
            mask = None
            dropped = act
        caches.append(
            {"input": h, "inv": inv, "xhat": xhat, "ln": ln, "mask": mask}
        )
        h = dropped
    logits = h @ model.out_w.T + model.out_b
    caches.append({"input": h})
    return logits, caches


def forward(
    model: MlpModel,
    x: np.ndarray,
    training: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
):
    """Single-vector forward pass. Returns (logits, caches)."""
    logits, caches = _forward_batch(
        model, np.asarray(x, dtype=np.float64)[None, :], training, dropout_rng
    )
    return logits[0], caches


def loss_and_grad(
    model: MlpModel,
    batch: Sequence[tuple[np.ndarray, int]],
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over the batch and gradients per parameter.

    Dropout fires only when a generator is supplied, so gradient checks and
    inference paths are deterministic by default.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    x = np.stack([np.asarray(v, dtype=np.float64) for v, _ in batch])
    y = np.array([label for _, label in batch], dtype=np.int64)
    if np.any((y < 0) | (y >= N_CLASSES)):
        raise ValueError("labels must be 0 or 1")
    n = len(batch)
    training = dropout_rng is not None
    logits, caches = _forward_batch(model, x, training=training, dropout_rng=dropout_rng)

    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), y]))

    probs = softmax(logits)
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    grads: dict[str, np.ndarray] = {}
    out_cache = caches[-1]
    grads["out.w"] = dlogits.T @ out_cache["input"]
    grads["out.b"] = dlogits.sum(axis=0)
    dh = dlogits @ model.out_w

    p = model.config.dropout_p
    for i in reversed(range(len(model.hidden))):
        layer = model.hidden[i]
        cache = caches[i]
        if cache["mask"] is not None:
            dh = dh * cache["mask"] / (1.0 - p)
        dln = dh * (cache["ln"] > 0.0)
        grads[f"h{i}.gamma"] = (dln * cache["xhat"]).sum(axis=0)
        grads[f"h{i}.beta"] = dln.sum(axis=0)
        dxhat = dln * layer.gamma
        # layer norm backward over the unit axis
        mean_dxhat = dxhat.mean(axis=1, keepdims=True)
        mean_dxhat_xhat = (dxhat * cache["xhat"]).mean(axis=1, keepdims=True)
        dz = cache["inv"] * (dxhat - mean_dxhat - cache["xhat"] * mean_dxhat_xhat)
        grads[f"h{i}.w"] = dz.T @ cache["input"]
        grads[f"h{i}.b"] = dz.sum(axis=0)
        dh = dz @ layer.w
    return loss, grads


def predict(
    model: MlpModel, ranks: Sequence[int], gallery_size: int
) -> tuple[int, np.ndarray]:
    """Classify one rank vector. Returns (label, class probabilities).

    An exact probability tie resolves to label 0, the safe rejection.
    """
    x = scale_input(np.asarray(ranks, dtype=np.float64), gallery_size, model.config)
    logits, _ = forward(model, x, training=False)
    probs = softmax(logits)
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
        [
            scale_input(np.asarray(s.ranks, dtype=np.float64), s.gallery_size, config)
            for s in samples
        ]
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


class _Adam:
    def __init__(self, names: Sequence[str], shapes: dict[str, tuple], lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = {n: np.zeros(shapes[n]) for n in names}
        self.v = {n: np.zeros(shapes[n]) for n in names}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            mhat = self.m[name] / b1t
            vhat = self.v[name] / b2t
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _params_dict(model: MlpModel) -> dict[str, np.ndarray]:
    return {name: arr for name, arr in model.parameters()}


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
    snapshots: list[dict[str, np.ndarray]] = []
    for fold_i, val_idx in enumerate(folds):
        val_mask = np.zeros(len(y), dtype=bool)
        val_mask[val_idx] = True
        train_idx = all_idx[~val_mask]
        rng = np.random.default_rng(derive_seed(config.rng_seed, f"fold{fold_i}"))
        model = init_model(config, rng)
        params = _params_dict(model)
        adam = _Adam(
            list(params), {n: a.shape for n, a in params.items()}, config.learning_rate
        )
        best_acc = -1.0
        best_epoch = -1
        best_snapshot: dict[str, np.ndarray] = {}
        for epoch in range(config.epochs):
            order = train_idx[rng.permutation(len(train_idx))]
            for start in range(0, len(order), config.batch_size):
                chunk = order[start : start + config.batch_size]
                batch = [(x[i], int(y[i])) for i in chunk]
                loss, grads = loss_and_grad(model, batch, dropout_rng=rng)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at fold {fold_i} epoch {epoch}: {loss}"
                    )
                adam.step(params, grads)
            acc = _accuracy(model, x[val_idx], y[val_idx])
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                best_snapshot = {n: a.copy() for n, a in params.items()}
        fold_accuracies.append(best_acc)
        best_epochs.append(best_epoch)
        snapshots.append(best_snapshot)

    selected = int(np.argmax(fold_accuracies))
    final = init_model(config)
    final_params = _params_dict(final)
    for name, arr in snapshots[selected].items():
        final_params[name][...] = arr
    final = _round_f32(final)
    for name, arr in final.parameters():
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(
                f"parameter {name} is non-finite after float32 rounding; "
                f"training diverged (check the learning rate)"
            )
    report = TrainReport(
        fold_accuracies=fold_accuracies,
        best_epochs=best_epochs,
        selected_fold=selected,
    )
    return final, report


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
        size = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(reader.take(4 * size), dtype="<f4")
        arrays[name] = data.reshape(shape).astype(np.float64)
    reader.end("model arrays")

    sizes = (config.d_in,) + config.hidden_sizes
    hidden = []
    for i, (fan_in, width) in enumerate(zip(sizes[:-1], sizes[1:])):
        layer = HiddenLayer(
            w=_expect(arrays, f"h{i}.w", (width, fan_in)),
            b=_expect(arrays, f"h{i}.b", (width,)),
            gamma=_expect(arrays, f"h{i}.gamma", (width,)),
            beta=_expect(arrays, f"h{i}.beta", (width,)),
        )
        hidden.append(layer)
    out_w = _expect(arrays, "out.w", (N_CLASSES, sizes[-1]))
    out_b = _expect(arrays, "out.b", (N_CLASSES,))
    expected = {f"h{i}.{p}" for i in range(len(hidden)) for p in ("w", "b", "gamma", "beta")}
    expected |= {"out.w", "out.b"}
    if set(arrays) != expected:
        raise StoreFormatError(
            f"model file carries unexpected arrays: {sorted(set(arrays) - expected)}"
        )
    return MlpModel(config=config, hidden=hidden, out_w=out_w, out_b=out_b)


def _expect(arrays: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    if name not in arrays:
        raise StoreFormatError(f"model file is missing array {name!r}")
    arr = arrays[name]
    if arr.shape != shape:
        raise StoreFormatError(
            f"array {name!r} has shape {arr.shape}, config implies {shape}"
        )
    return arr

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

The folds train in lockstep. Folds with the same training-set size form one
``(F, P)`` stack, one buffer row per fold, and take each Adam step together
through one call of the forward/backward kernel, whose arrays carry a
leading model axis. The kernel keeps every product, reduction and
elementwise step within one model's row, so each fold gets the bits it
would get trained alone; a single model (prediction, gradient checks) is
the kernel's stack of one.

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

    ``flat`` is ``(P,)`` for one model, or ``(F, P)`` for a stack of ``F``
    models, one :func:`_layout` row each. ``params`` maps each name to its
    view into ``flat``, with the stack's leading axis, so updating ``flat``
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
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != sum(sizes):
            raise ValueError(f"buffer shape {self.flat.shape}, layout needs {sum(sizes)} per row")
        lead = self.flat.shape[:-1]
        ends = np.cumsum(sizes).tolist()
        self.params = {
            name: self.flat[..., end - size : end].reshape(lead + shape)
            for (name, shape), size, end in zip(layout, sizes, ends)
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
    stack: MlpModel,
    x: np.ndarray,
    dropout_rngs: Optional[Sequence[np.random.Generator]] = None,
):
    """Forward pass of a stack of ``F`` models (``stack.flat`` is ``(F, P)``),
    model ``f`` over its batch ``x[f]``; ``x`` is ``(F, n, d_in)``. Returns
    (logits ``(F, n, 2)``, caches) for backprop.

    Dropout fires only when ``dropout_rngs`` is given, one generator per
    model, each drawing its own masks layer by layer.
    """
    h = np.asarray(x, dtype=np.float64)
    d_in = stack.config.d_in
    if stack.flat.ndim != 2 or h.ndim != 3 or h.shape[::2] != (len(stack.flat), d_in):
        raise ValueError(
            f"batch must be (F, n, {d_in}) for a stack of F models, got {h.shape}"
        )
    p = stack.config.dropout_p
    hidden, (out_w, out_b) = _layers(stack.params)
    caches = []
    for w, b, gamma, beta in hidden:
        z = np.matmul(h, w.transpose(0, 2, 1)) + b[:, None]
        mu = z.mean(axis=2, keepdims=True)
        var = z.var(axis=2, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv
        ln = gamma[:, None] * xhat + beta[:, None]
        act = np.maximum(ln, 0.0)
        if p > 0.0 and dropout_rngs is not None:
            draws = np.stack([rng.random(act.shape[1:]) for rng in dropout_rngs])
            mask = (draws >= p).astype(np.float64)
            dropped = act * mask / (1.0 - p)
        else:
            mask = None
            dropped = act
        caches.append({"input": h, "inv": inv, "xhat": xhat, "ln": ln, "mask": mask})
        h = dropped
    logits = np.matmul(h, out_w.transpose(0, 2, 1)) + out_b[:, None]
    caches.append({"input": h})
    return logits, caches


def loss_and_grad(
    stack: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rngs: Optional[Sequence[np.random.Generator]] = None,
) -> tuple[np.ndarray, MlpModel]:
    """Each model's mean softmax cross-entropy over its batch, and its gradient.

    ``stack`` holds ``F`` models, ``x`` is ``(F, n, d_in)`` and ``y``
    ``(F, n)``. Returns the ``(F,)`` losses and the gradients as an
    ``(F, P)`` :class:`MlpModel` stack in the same layout. Every product,
    reduction and elementwise step stays within one model's row, so a model
    gets the same bits in any stack, a stack of one included. Dropout fires
    only when generators are supplied, so gradient checks and inference
    paths are deterministic by default.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValueError(f"batch must be non-empty (F, n) labels, got shape {y.shape}")
    if np.any((y < 0) | (y >= N_CLASSES)):
        raise ValueError("labels must be 0 or 1")
    if np.shape(x)[:2] != y.shape:
        raise ValueError(f"batch has inputs {np.shape(x)} but labels {y.shape}")
    logits, caches = _forward_batch(stack, x, dropout_rngs)
    n = y.shape[1]
    picked = (np.arange(len(y))[:, None], np.arange(n), y)

    shifted = logits - np.max(logits, axis=2, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=2))
    losses = np.mean(log_z - shifted[picked], axis=1)

    dlogits = softmax(logits)
    dlogits[picked] -= 1.0
    dlogits /= n

    grad = MlpModel(stack.config, np.empty_like(stack.flat))
    hidden, (out_w, _) = _layers(stack.params)
    grad_hidden, (grad_out_w, grad_out_b) = _layers(grad.params)
    grad_out_w[...] = np.matmul(dlogits.transpose(0, 2, 1), caches[-1]["input"])
    grad_out_b[...] = dlogits.sum(axis=1)
    dh = np.matmul(dlogits, out_w)

    p = stack.config.dropout_p
    for (w, _, gamma, _), (gw, gb, ggamma, gbeta), cache in reversed(
        list(zip(hidden, grad_hidden, caches))
    ):
        if cache["mask"] is not None:
            dh = dh * cache["mask"] / (1.0 - p)
        dln = dh * (cache["ln"] > 0.0)
        ggamma[...] = (dln * cache["xhat"]).sum(axis=1)
        gbeta[...] = dln.sum(axis=1)
        dxhat = dln * gamma[:, None]
        # layer norm backward over the unit axis
        mean_dxhat = dxhat.mean(axis=2, keepdims=True)
        mean_dxhat_xhat = (dxhat * cache["xhat"]).mean(axis=2, keepdims=True)
        dz = cache["inv"] * (dxhat - mean_dxhat - cache["xhat"] * mean_dxhat_xhat)
        gw[...] = np.matmul(dz.transpose(0, 2, 1), cache["input"])
        gb[...] = dz.sum(axis=1)
        dh = np.matmul(dz, w)
    return losses, grad


def predict(
    model: MlpModel, ranks: Sequence[int], gallery_size: int
) -> tuple[int, np.ndarray]:
    """Classify one rank vector. Returns (label, class probabilities).

    An exact probability tie resolves to label 0, the safe rejection.
    """
    x = scale_input(np.asarray(ranks, dtype=np.float64), gallery_size, model.config)
    logits, _ = _forward_batch(MlpModel(model.config, model.flat[None]), x[None, None])
    probs = softmax(logits[0, 0])
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


def _accuracy(stack: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each model's share of correct labels on its batch (``x[f]``, ``y[f]``)."""
    logits, _ = _forward_batch(stack, x)
    return np.mean(np.argmax(logits, axis=2) == y, axis=1)


def train(
    samples: Sequence[RankSample], config: MlpConfig
) -> tuple[MlpModel, TrainReport]:
    """Cross-validated training; returns the best fold's best-epoch model.

    Deterministic given (samples, config): every stream is derived from
    ``config.rng_seed``. The folds train in lockstep: those with the same
    training-set size (stratified dealing leaves at most three sizes) form
    one stack and take each Adam step together, as one :func:`loss_and_grad`
    call. Each fold keeps its own generator for its initialization,
    permutations and dropout masks, and the kernel keeps each fold's
    arithmetic within its row, so every fold ends with the bits it would
    get trained alone. A non-finite loss aborts with a diagnostic rather
    than silently continuing; it names the lowest-index fold that diverged
    and that fold's first non-finite epoch.
    """
    x, y = samples_to_arrays(samples, config)
    fold_rng = np.random.default_rng(derive_seed(config.rng_seed, "folds"))
    folds = stratified_folds(y, config.folds, fold_rng)
    all_idx = np.arange(len(y))

    fold_accuracies = [0.0] * config.folds
    best_epochs = [0] * config.folds
    snapshots = [np.empty(0)] * config.folds
    diverged: dict[int, str] = {}
    for val_size in sorted({len(f) for f in folds}):
        members = [i for i, f in enumerate(folds) if len(f) == val_size]
        val_idx = np.stack([folds[i] for i in members])
        train_idx = np.stack([np.setdiff1d(all_idx, folds[i]) for i in members])
        rngs = [
            np.random.default_rng(derive_seed(config.rng_seed, f"fold{i}")) for i in members
        ]
        stack = MlpModel(config, np.stack([init_model(config, rng).flat for rng in rngs]))
        m = np.zeros_like(stack.flat)
        v = np.zeros_like(stack.flat)
        step = 0
        best_acc = np.full(len(members), -1.0)
        best_epoch = np.full(len(members), -1)
        best = stack.flat.copy()
        for epoch in range(config.epochs):
            order = np.stack([t[rng.permutation(len(t))] for t, rng in zip(train_idx, rngs)])
            for start in range(0, order.shape[1], config.batch_size):
                chunk = order[:, start : start + config.batch_size]
                losses, grad = loss_and_grad(stack, x[chunk], y[chunk], dropout_rngs=rngs)
                for row in np.flatnonzero(~np.isfinite(losses)):
                    diverged.setdefault(
                        members[row],
                        f"non-finite loss at fold {members[row]} epoch {epoch}: "
                        f"{float(losses[row])}",
                    )
                step += 1
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad.flat
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad.flat * grad.flat
                mhat, vhat = m / (1.0 - ADAM_BETA1**step), v / (1.0 - ADAM_BETA2**step)
                stack.flat -= config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
            acc = _accuracy(stack, x[val_idx], y[val_idx])
            improved = acc > best_acc
            best_acc[improved] = acc[improved]
            best_epoch[improved] = epoch
            best[improved] = stack.flat[improved]
        for row, i in enumerate(members):
            fold_accuracies[i] = float(best_acc[row])
            best_epochs[i] = int(best_epoch[row])
            snapshots[i] = best[row]
    if diverged:
        raise RuntimeError(diverged[min(diverged)])

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
        if name in arrays:
            raise StoreFormatError(f"model file: array {name!r} appears twice")
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

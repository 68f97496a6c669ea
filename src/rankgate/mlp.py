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

Dropout masks are drawn once per fold and epoch: right after the epoch's
permutation, the fold's generator fills one reused buffer with all of the
epoch's uniforms, kept as one bool array, and each step passes the kernel
per-layer views of it. A generator fills a buffer one value after
another, so the views hold exactly the values that one draw per step and
layer gives, and a bool mask multiplies like a 0.0/1.0 float one. The
kernel calls its reductions directly (``np.add.reduce``, then a division
by the count: the sequence ``ndarray.mean`` and ``ndarray.var`` run) and
works in place only where the order of operations stays the same, so
the bits are those of the plain spelling. With two classes the loss
works on the two logit columns: the class-axis max and sum are one
``np.maximum`` and one ``np.add`` of the columns (a reduce over two values
is that single max or add), each sample's own logit is picked with
``np.where``, and the gradient subtracts 1.0 from the picked column and
0.0, which is exact, from the other. The gradient sums over the batch
axis (:func:`_batch_sum`) are ``np.einsum``, which adds the batch rows one
after another into a zeroed output, the order ``np.add.reduce`` takes
along that axis, in fewer inner loops; a layer one unit wide keeps
``np.add.reduce``, which sums its contiguous batch axis pairwise.

Prediction runs the same forward pass. :func:`predict` classifies one
rank vector as a stack of one; :func:`predict_batch` classifies many, the
model broadcast along the model axis as a view with one sample per row,
so each sample gets the bits :func:`predict` gives it.

Model file format: magic ``OGMLP``, u32 version (1), u32 length-prefixed
JSON config block (the :class:`MlpConfig` fields, every one required and
no other key accepted), u32 array count, then per parameter array, in
:func:`_layout` order, a u16 length-prefixed name, u8 ndim, u32 dims, and
little-endian f32 data; files written before the one-buffer layout have the
same bytes and load unchanged. The loader reads the arrays in that one order,
straight into the buffer, and refuses a file whose array count, names or
shapes differ from the layout's. Read and written with :mod:`rankgate.codec`.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .codec import Reader, StoreFormatError, encode_str, from_dict, write_json
from .curation import RankSample
from .seeds import derive_seed

LN_EPS = 1e-5
N_CLASSES = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Samples per block of :func:`predict_batch`.
_PREDICT_BLOCK = 256

_MAGIC = b"OGMLP"
_VERSION = 1

INPUT_SCALINGS = ("divide_by_gallery_size", "raw")


@dataclass(frozen=True)
class MlpConfig:
    """Classifier and training settings. A refused value's message starts
    with the name of its field."""

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
            raise ValueError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}"
            )
        for name, least in (("batch_size", 1), ("epochs", 1), ("folds", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.input_scaling not in INPUT_SCALINGS:
            raise ValueError(
                f"input_scaling must be one of {INPUT_SCALINGS}, "
                f"got {self.input_scaling!r}"
            )


@functools.lru_cache(maxsize=64)
def _layout(config: MlpConfig) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """Every parameter's name, shape and ``[start, end)`` span in the buffer,
    in buffer and model-file order. Cached per config: every model, gradient
    stack and prediction of one config shares the result."""
    sizes = (config.d_in,) + config.hidden_sizes
    shapes = []
    for i, (fan_in, width) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes += [
            (f"h{i}.w", (width, fan_in)),
            (f"h{i}.b", (width,)),
            (f"h{i}.gamma", (width,)),
            (f"h{i}.beta", (width,)),
        ]
    shapes += [("out.w", (N_CLASSES, sizes[-1])), ("out.b", (N_CLASSES,))]
    layout, end = [], 0
    for name, shape in shapes:
        start, end = end, end + math.prod(shape)
        layout.append((name, shape, start, end))
    return tuple(layout)


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
        size = layout[-1][3]
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != size:
            raise ValueError(f"buffer shape {self.flat.shape}, layout needs {size} per row")
        lead = self.flat.shape[:-1]
        self.params = {
            name: self.flat[..., start:end].reshape(lead + shape)
            for name, shape, start, end in layout
        }


@dataclass
class TrainReport:
    fold_accuracies: list[float]
    best_epochs: list[int]
    selected_fold: int

    def write_json(self, path) -> None:
        write_json(path, asdict(self))


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
    """Class probabilities along the last axis. The reductions are the ufunc
    calls ``np.max`` and ``np.sum`` make, without their Python wrappers."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _forward_batch(
    stack: MlpModel,
    x: np.ndarray,
    masks: Optional[Sequence[np.ndarray]] = None,
):
    """Forward pass of a stack of ``F`` models (``stack.flat`` is ``(F, P)``),
    model ``f`` over its batch ``x[f]``; ``x`` is ``(F, n, d_in)``. Returns
    (logits ``(F, n, 2)``, caches) for backprop.

    Dropout fires only when ``masks`` is given: one bool ``(F, n, width)``
    keep mask per hidden layer, True where a unit is kept. A layer's output
    is then ``act * mask / (1 - p)``; the mask is cast once to 0.0/1.0
    floats, whose products have the bits of the bool mask's, and the cache
    keeps the cast for the backward pass. Layer-norm statistics are
    ``np.add.reduce`` over the units divided by the unit count, the
    variance over ``d * d`` with ``d = z - mean``: the sequence
    ``ndarray.mean`` and ``ndarray.var`` run, so the bits are theirs.
    """
    h = np.asarray(x, dtype=np.float64)
    d_in = stack.config.d_in
    if stack.flat.ndim != 2 or h.ndim != 3 or h.shape[::2] != (len(stack.flat), d_in):
        raise ValueError(
            f"batch must be (F, n, {d_in}) for a stack of F models, got {h.shape}"
        )
    hidden, (out_w, out_b) = _layers(stack.params)
    if masks is not None:
        expected = [h.shape[:2] + b.shape[1:] for _, b, _, _ in hidden]
        if [(m.shape, m.dtype) for m in masks] != [(s, np.dtype(bool)) for s in expected]:
            raise ValueError(
                f"dropout masks must be bool arrays of shapes {expected}, got "
                f"{[(m.shape, str(m.dtype)) for m in masks]}"
            )
    keep_prob = 1.0 - stack.config.dropout_p
    caches = []
    for i, (w, b, gamma, beta) in enumerate(hidden):
        z = np.matmul(h, w.transpose(0, 2, 1))
        z += b[:, None]
        width = z.shape[2]
        mu = np.add.reduce(z, axis=2, keepdims=True)
        mu /= width
        xhat = np.subtract(z, mu, out=z)
        var = np.add.reduce(xhat * xhat, axis=2, keepdims=True)
        var /= width
        var += LN_EPS
        inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
        xhat *= inv
        ln = gamma[:, None] * xhat
        ln += beta[:, None]
        act = np.maximum(ln, 0.0)
        mask = None
        if masks is not None:
            # Cast once: this multiply and the backward pass's then run on floats.
            mask = masks[i].astype(np.float64)
            act *= mask
            act /= keep_prob
        caches.append({"input": h, "inv": inv, "xhat": xhat, "ln": ln, "mask": mask})
        h = act
    logits = np.matmul(h, out_w.transpose(0, 2, 1))
    logits += out_b[:, None]
    caches.append({"input": h})
    return logits, caches


def loss_and_grad(
    stack: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: Optional[Sequence[np.ndarray]] = None,
) -> tuple[np.ndarray, MlpModel]:
    """Each model's mean softmax cross-entropy over its batch, and its gradient.

    ``stack`` holds ``F`` models, ``x`` is ``(F, n, d_in)`` and ``y``
    ``(F, n)``. Returns the ``(F,)`` losses and the gradients as an
    ``(F, P)`` :class:`MlpModel` stack in the same layout. Every product,
    reduction and elementwise step stays within one model's row, so a model
    gets the same bits in any stack, a stack of one included. Dropout fires
    only when ``masks`` (see :func:`_forward_batch`) are supplied, so
    gradient checks and inference paths are deterministic by default.
    Reductions are direct ufunc calls and steps run in place only where
    the order of operations stays that of the ``mean``/``sum``/``softmax``
    spelling, so the bits are the same.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValueError(f"batch must be non-empty (F, n) labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= N_CLASSES):
        raise ValueError("labels must be 0 or 1")
    if np.shape(x)[:2] != y.shape:
        raise ValueError(f"batch has inputs {np.shape(x)} but labels {y.shape}")
    logits, caches = _forward_batch(stack, x, masks)
    n = y.shape[1]

    # Two classes: each class-axis reduce is one max or add of the two columns.
    shifted = np.subtract(
        logits, np.maximum(logits[..., :1], logits[..., 1:]), out=logits
    )
    e = np.exp(shifted)
    z = np.add(e[..., :1], e[..., 1:])
    in_gallery = y == 1
    picked = np.where(in_gallery, shifted[..., 1], shifted[..., 0])
    losses = np.add.reduce(np.log(z[..., 0]) - picked, axis=1)
    losses /= n

    dlogits = np.divide(e, z, out=e)
    # Subtract 1.0 from the picked column and 0.0, which is exact, from the other.
    d0, d1 = dlogits[..., 0], dlogits[..., 1]
    d0 -= ~in_gallery
    d1 -= in_gallery
    dlogits /= n

    grad = MlpModel(stack.config, np.empty_like(stack.flat))
    hidden, (out_w, _) = _layers(stack.params)
    grad_hidden, (grad_out_w, grad_out_b) = _layers(grad.params)
    np.matmul(dlogits.transpose(0, 2, 1), caches[-1]["input"], out=grad_out_w)
    np.add.reduce(dlogits, axis=1, out=grad_out_b)
    dh = np.matmul(dlogits, out_w)

    keep_prob = 1.0 - stack.config.dropout_p
    for i in reversed(range(len(hidden))):
        w, _, gamma, _ = hidden[i]
        gw, gb, ggamma, gbeta = grad_hidden[i]
        cache = caches[i]
        xhat = cache["xhat"]
        # dh, dln, dxhat and dz are one buffer, each step in place
        if cache["mask"] is not None:
            dh *= cache["mask"]
            dh /= keep_prob
        dln = dh
        dln *= cache["ln"] > 0.0
        prod = dln * xhat
        _batch_sum(prod, ggamma)
        _batch_sum(dln, gbeta)
        # layer norm backward over the unit axis
        width = dln.shape[2]
        dxhat = dln
        dxhat *= gamma[:, None]
        mean_dxhat = np.add.reduce(dxhat, axis=2, keepdims=True)
        mean_dxhat /= width
        mean_dxhat_xhat = np.add.reduce(np.multiply(dxhat, xhat, out=prod), axis=2, keepdims=True)
        mean_dxhat_xhat /= width
        dz = dxhat
        dz -= mean_dxhat
        dz -= np.multiply(xhat, mean_dxhat_xhat, out=prod)
        dz *= cache["inv"]
        np.matmul(dz.transpose(0, 2, 1), cache["input"], out=gw)
        _batch_sum(dz, gb)
        if i:  # no gradient flows into the inputs
            dh = np.matmul(dz, w)
    return losses, grad


def _batch_sum(a: np.ndarray, out: np.ndarray) -> None:
    """``np.add.reduce(a, axis=1, out=out)`` over an ``(F, n, width)`` array.

    For ``width > 1`` numpy adds the batch rows one after another into
    ``0.0``, elementwise along the units, and ``np.einsum`` zeroes ``out``
    and adds the rows in that order, with less overhead. For ``width == 1``
    the batch axis is contiguous and numpy sums it pairwise, so that reduce
    stays as it is.
    """
    if a.shape[2] > 1:
        np.einsum("fnw->fw", a, out=out)
    else:
        np.add.reduce(a, axis=1, out=out)


def predict(
    model: MlpModel, ranks: Sequence[int], gallery_size: int
) -> tuple[int, np.ndarray]:
    """Classify one rank vector. Returns (label, class probabilities).

    An exact probability tie resolves to label 0, the safe rejection.
    """
    x = scale_input(np.asarray(ranks, dtype=np.float64), gallery_size, model.config)
    _check_ranks(x, model.config, 1)
    logits, _ = _forward_batch(MlpModel(model.config, model.flat[None]), x[None, None])
    probs = softmax(logits[0, 0])
    return int(np.argmax(probs)), probs


def predict_batch(
    model: MlpModel, ranks: Sequence[Sequence[int]], gallery_sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Classify ``N`` rank vectors, each searched in a gallery of the size
    at the same position. Returns the ``(N,)`` labels and the ``(N, 2)``
    class probabilities, each sample's the bits :func:`predict` gives it.

    Each sample is one row of a stack: ``model`` is broadcast along the
    model axis as a view, so every product and reduction a sample meets is
    the one of :func:`predict`'s stack of one. Samples go through in blocks
    of at most ``_PREDICT_BLOCK``, which bounds the working arrays.
    """
    config = model.config
    x = np.asarray(ranks, dtype=np.float64)
    if x.shape == (0,):  # no samples
        x = x.reshape(0, config.d_in)
    sizes = np.asarray(gallery_sizes, dtype=np.float64)
    _check_ranks(x, config, 2)
    if sizes.shape != x.shape[:1]:
        raise ValueError(f"{len(x)} rank vectors but gallery sizes of shape {sizes.shape}")
    if np.any(sizes < 1):
        raise ValueError("gallery_size must be >= 1")
    if config.input_scaling == "divide_by_gallery_size":
        x = x / sizes[:, None]
    probs = np.empty((len(x), N_CLASSES))
    for start in range(0, len(x), _PREDICT_BLOCK):
        block = x[start : start + _PREDICT_BLOCK]
        stack = MlpModel(config, np.broadcast_to(model.flat, (len(block), len(model.flat))))
        logits, _ = _forward_batch(stack, block[:, None])
        probs[start : start + len(block)] = softmax(logits[:, 0])
    return np.argmax(probs, axis=1), probs


def _check_ranks(x: np.ndarray, config: MlpConfig, ndim: int) -> None:
    """Refuse rank vectors that are not ``ndim``-dimensional with ``d_in`` ranks each."""
    if x.ndim != ndim or x.shape[-1] != config.d_in:
        raise ValueError(
            f"rank vectors must have the model's d_in = {config.d_in} ranks, "
            f"got an array of shape {x.shape}"
        )


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
    Both classes, 0 and 1, must have at least ``k`` samples.
    """
    labels = np.asarray(labels)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.union1d(labels, (0, 1)):
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


def _step_masks(
    epoch_draws: np.ndarray, start: int, stop: int, widths: Sequence[int]
) -> list[np.ndarray]:
    """One step's per-layer views of an epoch's dropout draws.

    ``epoch_draws`` is ``(F, n_train * sum(widths))``: row ``f`` holds fold
    ``f``'s draws for the epoch, in the order the step/layer loop consumes
    them. The step over permuted samples ``[start, stop)`` owns the block
    ``[start * sum(widths), stop * sum(widths))``, and within it layer ``l``
    the next ``(stop - start) * widths[l]`` values, read as
    ``(F, stop - start, widths[l])``.
    """
    n_b = stop - start
    block = epoch_draws[:, start * sum(widths) : stop * sum(widths)]
    views, lo = [], 0
    for width in widths:
        views.append(block[:, n_b * lo : n_b * (lo + width)].reshape(len(block), n_b, width))
        lo += width
    return views


def _adam_step(
    params: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray, step: int, lr: float
) -> None:
    """One Adam update of ``params``, ``m`` and ``v`` in place; ``grad`` is
    spent as scratch. The operations and their order are those of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``params -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``.
    """
    scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grad
    v *= ADAM_BETA2
    v += scratch
    denom = np.divide(v, 1.0 - ADAM_BETA2**step, out=grad)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update = np.divide(m, 1.0 - ADAM_BETA1**step, out=scratch)
    update *= lr
    update /= denom
    params -= update


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

    Each epoch, right after its permutation, a fold's generator fills one
    reused buffer of ``n_train * sum(hidden_sizes)`` uniforms in a single
    call; the epoch's keep masks are those draws ``>= p``, and each step
    reads its per-layer views (:func:`_step_masks`). These are exactly the
    values one ``random((n_b, width))`` call per step and layer would draw.
    """
    x, y = samples_to_arrays(samples, config)
    fold_rng = np.random.default_rng(derive_seed(config.rng_seed, "folds"))
    folds = stratified_folds(y, config.folds, fold_rng)
    all_idx = np.arange(len(y))
    p = config.dropout_p
    widths = config.hidden_sizes
    per_sample = sum(widths)

    fold_accuracies = [0.0] * config.folds
    best_epochs = [0] * config.folds
    snapshots = [np.empty(0)] * config.folds
    diverged: dict[int, str] = {}
    for val_size in sorted({len(f) for f in folds}):
        members = [i for i, f in enumerate(folds) if len(f) == val_size]
        val_idx = np.stack([folds[i] for i in members])
        train_idx = np.stack([np.setdiff1d(all_idx, folds[i]) for i in members])
        x_val, y_val = x[val_idx], y[val_idx]
        n_models, n_train = train_idx.shape
        rngs = [
            np.random.default_rng(derive_seed(config.rng_seed, f"fold{i}")) for i in members
        ]
        stack = MlpModel(config, np.stack([init_model(config, rng).flat for rng in rngs]))
        m = np.zeros_like(stack.flat)
        v = np.zeros_like(stack.flat)
        step = 0
        best_acc = np.full(n_models, -1.0)
        best_epoch = np.full(n_models, -1)
        best = stack.flat.copy()
        draws = np.empty(n_train * per_sample)
        keep = np.empty((n_models, n_train * per_sample), dtype=bool)
        order = np.empty_like(train_idx)
        steps = [
            (start, min(start + config.batch_size, n_train))
            for start in range(0, n_train, config.batch_size)
        ]
        # keep is refilled in place every epoch, so each step's views stay valid.
        step_masks = [
            _step_masks(keep, start, stop, widths) if p > 0.0 else None
            for start, stop in steps
        ]
        for epoch in range(config.epochs):
            for row, rng in enumerate(rngs):
                order[row] = train_idx[row][rng.permutation(n_train)]
                if p > 0.0:
                    rng.random(out=draws)
                    np.greater_equal(draws, p, out=keep[row])
            # np.take gathers the same rows as x[order], about three times faster
            x_epoch, y_epoch = np.take(x, order, axis=0), y[order]
            for (start, stop), masks in zip(steps, step_masks):
                losses, grad = loss_and_grad(
                    stack, x_epoch[:, start:stop], y_epoch[:, start:stop], masks
                )
                for row in np.flatnonzero(~np.isfinite(losses)):
                    diverged.setdefault(
                        members[row],
                        f"non-finite loss at fold {members[row]} epoch {epoch}: "
                        f"{float(losses[row])}",
                    )
                step += 1
                _adam_step(stack.flat, m, v, grad.flat, step, config.learning_rate)
            acc = _accuracy(stack, x_val, y_val)
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
    for name, arr in final.params.items():
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
    arrays = list(model.params.items())
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
    layout = _layout(config)
    n_arrays = reader.u32()
    if n_arrays != len(layout):
        raise StoreFormatError(
            f"model file holds {n_arrays} arrays, config implies {len(layout)}"
        )
    flat = np.empty(layout[-1][3])
    for i, (name, shape, start, end) in enumerate(layout):
        found = reader.string()
        ndim = reader.take(1)[0]
        dims = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        if (found, dims) != (name, shape):
            raise StoreFormatError(
                f"model array {i} is {found!r} of shape {dims}, "
                f"config implies {name!r} of shape {shape}"
            )
        flat[start:end] = np.frombuffer(reader.take(4 * (end - start)), dtype="<f4")
    reader.end("model arrays")
    return MlpModel(config, flat)

"""Synthetic embedding stores with controllable identity structure.

Each identity gets a mean direction drawn uniformly on the unit sphere
(an isotropic Gaussian draw, normalized). Images are the mean plus
isotropic Gaussian noise, re-normalized. This is a deliberate small-bias
stand-in for a spherical cluster distribution; what matters downstream is
only that images of one identity cluster and clusters are well spread.
Each draw is used as drawn: it is nonzero in practice, and a zero vector
would stop the normalization with ``cannot normalize a zero vector``.

Generation is single-stream and ordered (groups in declared order, then
identity index, then capture index), so a fixed seed reproduces the store
bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .codec import from_dict
from .store import BLOCK_ROWS, EmbeddingStore, l2_normalize, unit_rows


@dataclass(frozen=True)
class SynthConfig:
    n_identities: int = 100
    images_per_identity: int = 5
    dimension: int = 64
    within_noise_sigma: float = 0.1
    groups: tuple[tuple[str, int], ...] = ()
    degradation_levels: tuple[tuple[str, float], ...] = ()
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_identities < 1:
            raise ValueError("n_identities must be >= 1")
        if self.images_per_identity < 1:
            raise ValueError("images_per_identity must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        check_sigma("within_noise_sigma", self.within_noise_sigma)
        raw_groups = self.groups.items() if isinstance(self.groups, dict) else self.groups
        groups = tuple((str(g), int(c)) for g, c in raw_groups)
        if not groups:
            groups = (("synth", self.n_identities),)
        object.__setattr__(self, "groups", groups)
        if any(c < 1 for _, c in groups):
            raise ValueError("every group needs a positive identity count")
        if len({g for g, _ in groups}) != len(groups):
            raise ValueError("group labels must be unique")
        total = sum(c for _, c in groups)
        if total != self.n_identities:
            raise ValueError(
                f"group counts sum to {total}, expected n_identities="
                f"{self.n_identities}"
            )
        raw_levels = (
            self.degradation_levels.items()
            if isinstance(self.degradation_levels, dict)
            else self.degradation_levels
        )
        levels = tuple((str(t), float(s)) for t, s in raw_levels)
        object.__setattr__(self, "degradation_levels", levels)
        for tier, sigma in levels:
            check_sigma(f"degradation sigma of {tier!r}", sigma)
        sigmas = [s for _, s in levels]
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError("degradation sigmas must be strictly increasing")


def generate(config: SynthConfig) -> EmbeddingStore:
    """Build the synthetic store described by ``config``."""
    rng = np.random.default_rng(config.rng_seed)
    d, k = config.dimension, config.images_per_identity
    identities = [(g, f"{g}-{i:05d}") for g, n in config.groups for i in range(n)]
    vectors = np.empty((len(identities) * k, d), dtype=np.float32)
    # Draws go into one float64 block, normalized into ``vectors`` when full.
    block = np.empty((BLOCK_ROWS, d))
    for row in range(len(vectors)):
        if row % k == 0:
            mean = l2_normalize(rng.standard_normal(d))
        block[row % BLOCK_ROWS] = mean + config.within_noise_sigma * rng.standard_normal(d)
        if row % BLOCK_ROWS == BLOCK_ROWS - 1 or row == len(vectors) - 1:
            start = row - row % BLOCK_ROWS
            vectors[start : row + 1] = unit_rows(block[: row + 1 - start])
    identity_ids, image_ids, groups, capture = [], [], [], []
    for group, identity_id in identities:
        for j in range(1, k + 1):
            identity_ids.append(identity_id)
            image_ids.append(f"im{j:03d}")
            groups.append(group)
            capture.append(j)
    return EmbeddingStore(identity_ids, image_ids, groups, capture, vectors)


def check_sigma(name: str, sigma: float) -> None:
    """Reject a noise level that is negative, NaN or infinite."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {sigma!r}")


def degrade_probe(
    vector: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Add isotropic Gaussian noise to a probe and re-normalize.

    ``sigma == 0`` returns the input unchanged (as float64), so an
    undegraded condition is bit-stable.
    """
    v = np.asarray(vector, dtype=np.float64)
    check_sigma("sigma", sigma)
    if sigma == 0:
        return v.copy()
    return l2_normalize(v + sigma * rng.standard_normal(len(v)))


def config_to_json(config: SynthConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2, sort_keys=True) + "\n")


def config_from_dict(payload: dict) -> SynthConfig:
    """Config from its JSON form; ``n_identities`` and
    ``images_per_identity`` are required, unknown keys are rejected."""
    return from_dict(
        SynthConfig,
        payload,
        "synth config",
        required=("n_identities", "images_per_identity"),
    )


def config_from_json(path) -> SynthConfig:
    return config_from_dict(json.loads(Path(path).read_text()))

import numpy as np
import pytest

from rankgate.search import build_gallery
from rankgate.seeds import derive_seed
from rankgate.store import EmbeddingStore, unit_rows
from rankgate.synth import SynthConfig, generate


def make_row(identity, image, dim=8, seed=None, group="g", capture=1, vector=None):
    """One valid row ``(identity_id, image_id, group, capture_index, vector)``;
    the unit f32 vector is drawn from the given seed, or one derived from
    the key, unless supplied."""
    if vector is None:
        if seed is None:
            seed = derive_seed(0, identity, image)
        vector = np.random.default_rng(seed).standard_normal(dim)
    vector = np.asarray(vector, dtype=np.float64)
    return (identity, image, group, capture, unit_rows(vector[None])[0])


def store_of(rows):
    """The store of ``make_row`` rows, which it sorts by key."""
    identity_ids, image_ids, groups, capture, vectors = zip(*rows)
    return EmbeddingStore(identity_ids, image_ids, groups, capture, np.stack(vectors))


def gallery_of(rows):
    """``(store, gallery)`` of ``make_row`` rows; the gallery lists them in
    the order given."""
    store = store_of(rows)
    row = {key: i for i, key in enumerate(zip(store.identity_ids, store.image_ids))}
    return store, build_gallery(store, [row[r[:2]] for r in rows])


def pairs(rows):
    """``((identity_id, image_id), vector)`` of ``make_row`` rows, for the oracles."""
    return [(r[:2], r[4]) for r in rows]


@pytest.fixture
def small_store():
    """12 identities x 5 images, dim 16, well separated clusters."""
    return generate(
        SynthConfig(
            n_identities=12,
            images_per_identity=5,
            dimension=16,
            within_noise_sigma=0.08,
            rng_seed=11,
        )
    )


@pytest.fixture
def medium_store():
    """50 identities x 5 images, dim 32: big enough for protocol statistics."""
    return generate(
        SynthConfig(
            n_identities=50,
            images_per_identity=5,
            dimension=32,
            within_noise_sigma=0.1,
            rng_seed=7,
        )
    )

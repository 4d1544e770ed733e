"""Seeded deterministic model weights (the checkpoint artifact).

The reference loads torch checkpoints once per process
(pytocr/utils/save_load.py:27-129, deploy/pytorch/run_ocr.py:100-103); here
weights are a deterministic seeded artifact: :func:`build_weights` constructs
them, :func:`save_weights` / :func:`load_weights` round-trip an ``.npz`` so
a stage ``__init__`` can load from a shared path, and :func:`put_weights`
broadcasts them ONCE via ``ray.put`` from the process that builds the
pipeline, so every worker process reads the same object-store copy instead
of re-shipping per task.
"""

from __future__ import annotations

import numpy as np

from ..functions.charset import GLYPH_SEED, build_glyphs

WEIGHT_SEED = GLYPH_SEED


def build_weights(seed: int = WEIGHT_SEED) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    # Anisotropic SEPARABLE smoothing (9 tall x 13 wide = outer(ky, kx)):
    # wide enough to bridge the 4px inter-glyph gap within a text line,
    # short enough not to merge vertically separated lines (>=28px ink gap).
    # Separability lets the det forward run as two 1-D shifted-add passes
    # (~3x faster than the FFT path for these image sizes).
    ky = np.full(9, 1.0 / 9) * (1.0 + 0.01 * rng.standard_normal(9))
    kx = np.full(13, 1.0 / 13) * (1.0 + 0.01 * rng.standard_normal(13))
    ky /= ky.sum()
    kx /= kx.sum()
    return {
        "det_ky": ky.astype(np.float64),
        "det_kx": kx.astype(np.float64),
        "det_center": np.float64(0.22),
        "det_steep": np.float64(40.0),
        "rec_templates": build_glyphs(seed),
        "rec_stride": np.int64(1),
        "rec_blank_sim": np.float64(0.87),
        "rec_temp": np.float64(30.0),
        "cls_temp": np.float64(20.0),
    }


def save_weights(path: str, seed: int = WEIGHT_SEED) -> None:
    np.savez(path, **build_weights(seed))


def load_weights(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def put_weights(seed: int = WEIGHT_SEED):
    """Broadcast the weights once: ray.put where the pipeline is built,
    ray.get in a stage __init__ (zero-copy reads from the local object store
    on every node)."""
    import ray

    return ray.put(build_weights(seed))

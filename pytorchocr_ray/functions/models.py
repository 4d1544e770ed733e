"""Deterministic numpy stand-ins for the det / rec / cls networks.

The sandbox has no torch/GPU, so the three model stages are small, seeded,
pure-numpy networks with the same I/O contracts as the reference's models:

* :class:`DetModel` — "DBNet-style" probability-map head: ink density ->
  seeded 7x7 smoothing conv -> steep sigmoid (the DB step function,
  reference pytocr/modeling/heads/det_db_head.py:57-58). Input: resized
  grayscale; output: float32 prob map at input resolution.
* :class:`RecModel` — "CRNN/CTC-style" recognizer: scale-normalized ink map
  -> sliding-window template correlation (the conv backbone analog) ->
  per-timestep softmax over [blank] + charset -> consumed by
  :func:`ctc.ctc_greedy_decode`. Instead of the reference's fixed h=32
  resize (pytocr/data/imaug/rec_img_aug.py:108-134) the scale invariance a
  trained CRNN learns is provided structurally: the crop is rescaled so its
  ink band matches the template height (documented deviation; both oracle
  and pipeline share this exact function).
* :class:`ClsModel` — 0/180 orientation classifier: template score of the
  crop vs its 180-rotation -> 2-class softmax (reference
  pytocr/modeling/heads/cls_head.py, labels configs/cls/cls_mbv3small.yml:18).

All weights come from :mod:`pytorchocr_ray.state.weights` (seeded artifact;
no downloads). Everything here is stateless math over the weight arrays —
Ray stages hold an instance per process (warm weights), the oracle holds one too.
"""

from __future__ import annotations

import numpy as np

from .charset import GLYPH_H, GLYPH_W
from .dbpost import _resize_bilinear

_EPS = 1e-8


def _conv1d_axis(img: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """'same' 1-D correlation along an axis via shifted adds, zero padding.

    For the 9/13-tap smoothing profiles this beats FFT ~3x at media-image
    sizes and is exactly deterministic (pure adds, fixed order). float32
    throughout: the stage is memory-bandwidth bound when ~30 worker
    processes run concurrently, and halving the element size nearly halves
    the contended cost.
    """
    n = img.shape[axis]
    taps = len(k)
    pad = taps // 2
    shape = list(img.shape)
    shape[axis] = n + taps - 1
    buf = np.zeros(shape, dtype=np.float32)
    sl = [slice(None)] * img.ndim
    sl[axis] = slice(pad, pad + n)
    buf[tuple(sl)] = img
    out = np.zeros(img.shape, dtype=np.float32)
    tmp = np.empty(img.shape, dtype=np.float32)  # reused per tap: the
    # naive `out += k*view` allocates a fresh image-sized temp every tap
    # (22 allocations per conv) — real cost under 30 concurrent workers
    kf = k.astype(np.float32)
    for i in range(taps):
        sl[axis] = slice(i, i + n)
        np.multiply(buf[tuple(sl)], kf[i], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _conv2d_separable(img: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    return _conv1d_axis(_conv1d_axis(img, ky, 0), kx, 1)


def ink_density(gray: np.ndarray) -> np.ndarray:
    """uint8 grayscale -> float32 ink density in [0, 1] (bg~240 -> 0, ink~32 -> 1)."""
    return np.clip((240.0 - gray.astype(np.float32)) / 208.0, 0.0, 1.0)


class DetModel:
    def __init__(self, weights: dict[str, np.ndarray]):
        self.ky = np.asarray(weights["det_ky"], dtype=np.float64)
        self.kx = np.asarray(weights["det_kx"], dtype=np.float64)
        self.center = float(weights["det_center"])
        self.steep = float(weights["det_steep"])

    def smooth(self, gray_resized: np.ndarray) -> np.ndarray:
        """Pre-activation feature map (the expensive part)."""
        ink = ink_density(gray_resized)  # float32
        return _conv2d_separable(ink, self.ky, self.kx)

    def activate(self, smooth: np.ndarray) -> np.ndarray:
        """DB step function: steep sigmoid -> probability values."""
        return (
            1.0
            / (1.0 + np.exp(np.float32(-self.steep) * (smooth - np.float32(self.center))))
        ).astype(np.float32)

    def smooth_threshold(self, prob_thresh: float) -> float:
        """The smooth-domain value equivalent to ``prob > prob_thresh``
        (sigmoid is monotone) — lets the post-process binarize without ever
        materializing the full probability map."""
        return self.center + float(np.log(prob_thresh / (1 - prob_thresh))) / self.steep

    def __call__(self, gray_resized: np.ndarray) -> np.ndarray:
        return self.activate(self.smooth(gray_resized))


_REC_MAX_ROW_GAP = 4  # rows; > intra-glyph gaps (<=4), << line gaps (>=12)


def rec_prepare(crop: np.ndarray) -> np.ndarray | None:
    """Crop -> scale-normalized ink map of height GLYPH_H, or None if blank.

    The text band is the run of NEAR-consecutive ink rows with the largest
    ink mass — unclip margins can pull slivers of a neighboring line into
    the crop, and those arrive as separate row-runs that must be ignored.
    Runs separated by <= _REC_MAX_ROW_GAP empty rows are merged: glyphs can
    contain internal empty row pairs (e.g. 'e'), and a word whose every
    glyph shares that gap ("ee") would otherwise split its own text line
    and mis-center the window; true neighbor-line slivers sit >= ~12 rows
    away (corpus band gap 28px minus ~16px unclip reach).
    """
    d = ink_density(crop)
    row_ink = (d > 0.5).sum(axis=1)
    has = np.flatnonzero(row_ink > 0)
    if has.size == 0:
        return None
    # split into runs of near-consecutive ink rows, pick max total ink
    breaks = np.flatnonzero(np.diff(has) > _REC_MAX_ROW_GAP)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [has.size - 1]])
    best = int(np.argmax([row_ink[has[s] : has[e] + 1].sum() for s, e in zip(starts, ends)]))
    r0, r1 = has[starts[best]], has[ends[best]]
    bh = r1 - r0 + 1
    if bh <= GLYPH_H + 2:
        # Near-template scale (interpolation can fatten the band by a row or
        # two): take exactly GLYPH_H rows centered on the band, no resample —
        # keeps glyph pixels bit-exact for the correlation head.
        top = max(0, min(r0 + (bh - GLYPH_H) // 2, d.shape[0] - GLYPH_H))
        if d.shape[0] < GLYPH_H:
            pad = np.zeros((GLYPH_H, d.shape[1]), dtype=d.dtype)
            pad[: d.shape[0]] = d
            return pad.astype(np.float32)
        return d[top : top + GLYPH_H].astype(np.float32)
    band = d[r0 : r1 + 1]
    scale = GLYPH_H / bh
    out_w = max(1, int(round(band.shape[1] * scale)))
    return _resize_bilinear(band.astype(np.float64), GLYPH_H, out_w).astype(
        np.float32
    )


def _window_stack(norm: np.ndarray, stride: int) -> np.ndarray:
    """(GLYPH_H, W) -> (T, GLYPH_H*GLYPH_W) sliding windows, zero-padded."""
    h, w = norm.shape
    if w < GLYPH_W:
        pad = np.zeros((h, GLYPH_W), dtype=norm.dtype)
        pad[:, :w] = norm
        norm, w = pad, GLYPH_W
    starts = np.arange(0, w - GLYPH_W + 1, stride)
    # strided view: (T, GLYPH_H, GLYPH_W)
    wins = np.lib.stride_tricks.sliding_window_view(norm, (h, GLYPH_W))[0][starts]
    return wins.reshape(len(starts), -1)


class RecModel:
    def __init__(self, weights: dict[str, np.ndarray]):
        t = np.asarray(weights["rec_templates"], dtype=np.float32)
        self.tmpl_flat = t.reshape(len(t), -1)
        self.tmpl_norm = np.linalg.norm(self.tmpl_flat, axis=1) + _EPS
        self.stride = int(weights["rec_stride"])
        self.blank_sim = float(weights["rec_blank_sim"])
        self.temp = float(weights["rec_temp"])

    def _logits(self, wins: np.ndarray) -> np.ndarray:
        """(T, GH*GW) windows -> (T, 1+C) softmax probabilities."""
        wnorm = np.linalg.norm(wins, axis=1) + _EPS
        sims = (wins @ self.tmpl_flat.T) / (wnorm[:, None] * self.tmpl_norm[None, :])
        logits = np.concatenate(
            [np.full((len(wins), 1), self.blank_sim, dtype=np.float32), sims],
            axis=1,
        )
        z = self.temp * logits
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def __call__(self, crop: np.ndarray) -> np.ndarray:
        """uint8 crop -> (T, 1+C) per-timestep probabilities."""
        norm = rec_prepare(crop)
        if norm is None:
            p = np.zeros((1, self.tmpl_flat.shape[0] + 1), dtype=np.float32)
            p[0, 0] = 1.0
            return p
        return self._logits(_window_stack(norm, self.stride))


class ClsModel:
    """0-vs-180 orientation head. Score = mean of per-timestep best template
    similarity for the crop and for its 180-rotation; softmax over the two."""

    LABELS = ("0", "180")

    def __init__(self, weights: dict[str, np.ndarray]):
        self.rec = RecModel(weights)
        self.temp = float(weights["cls_temp"])

    def _score(self, crop: np.ndarray) -> float:
        norm = rec_prepare(crop)
        if norm is None:
            return 0.0
        wins = _window_stack(norm, self.rec.stride)
        wnorm = np.linalg.norm(wins, axis=1) + _EPS
        sims = (wins @ self.rec.tmpl_flat.T) / (
            wnorm[:, None] * self.rec.tmpl_norm[None, :]
        )
        best = sims.max(axis=1)
        k = min(3, len(best))
        return float(np.sort(best)[-k:].mean())

    def __call__(self, crop: np.ndarray) -> tuple[str, float]:
        s0 = self._score(crop)
        if s0 > 0.95:
            # near-perfect upright template match — a 180-rotated random
            # glyph pattern cannot also score this high; skip the second
            # scan (the common case, ~85% of crops)
            return "0", 1.0
        s180 = self._score(np.ascontiguousarray(crop[::-1, ::-1]))
        z = self.temp * np.array([s0, s180])
        z -= z.max()
        e = np.exp(z)
        p = e / e.sum()
        i = int(np.argmax(p))
        return self.LABELS[i], float(p[i])

"""Visualization writers — the debug sink analog of the reference's
``draw_det_res`` / ``draw_ocr_res`` (ref deploy/utils.py:65-120): closed
box polylines stamped on the source image, plus (ocr mode) the recognized
text rendered above each box — the reference uses a TTF font; this engine
renders with its own glyph bank, so the overlay is dependency-free and
deterministic.

Ray shape: a warm-stage task ``map_batches`` (weights + glyph bank built
once per worker process) over media rows, emitting ``(media_ref,
vis_png)`` rows written as partition-addressed parquet — per-image loose files don't
survive object storage at 100 TB; a keyed binary column does (SURVEY §2.1
maps the per-image writers the same way).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.charset import CHARSET, GLYPH_H, GLYPH_W, build_glyphs
from ..state.weights import build_weights
from ..functions.ocr import OcrConfig, OcrEngine
from ..functions.png import decode_gray, encode_gray

BOX_VALUE = 128  # mid-gray outline (the ref's yellow, grayscale engine)
_GAP = 4  # inter-glyph gap, matches the synth renderer


def draw_polyline(img: np.ndarray, quad: np.ndarray, value: int = BOX_VALUE,
                  thickness: int = 2) -> None:
    """Stamp a closed quad outline in place (ref draw_det_res's
    cv2.polylines(..., True, thickness=2) analog): each edge is densely
    sampled and each sample stamps a thickness x thickness block."""
    h, w = img.shape
    q = np.asarray(quad, dtype=np.int64)
    for i in range(4):
        x0, y0 = q[i]
        x1, y1 = q[(i + 1) % 4]
        n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
        xs = np.rint(np.linspace(x0, x1, n)).astype(np.int64)
        ys = np.rint(np.linspace(y0, y1, n)).astype(np.int64)
        for dy in range(thickness):
            for dx in range(thickness):
                xi = np.clip(xs + dx, 0, w - 1)
                yi = np.clip(ys + dy, 0, h - 1)
                img[yi, xi] = value

def draw_text_label(img: np.ndarray, glyphs: np.ndarray, text: str,
                    x: int, y: int) -> None:
    """Stamp ``text`` as glyph-bank ink with its top-left at (x, y),
    clipped to the canvas (ref draw_ocr_res places the label at
    ``(box[0][0], box[0][1] - 10)``; same convention at the call site).
    Characters outside the engine charset are skipped."""
    h, w = img.shape
    cx = x
    for ch in text:
        try:
            g = glyphs[CHARSET.index(ch)]
        except ValueError:
            cx += GLYPH_W + _GAP
            continue
        x0, y0 = max(cx, 0), max(y, 0)
        x1, y1 = min(cx + GLYPH_W, w), min(y + GLYPH_H, h)
        if x1 > x0 and y1 > y0:
            gx0, gy0 = x0 - cx, y0 - y
            patch = g[gy0 : gy0 + (y1 - y0), gx0 : gx0 + (x1 - x0)]
            # ink is dark-on-light: stamp by darkening
            region = img[y0:y1, x0:x1]
            img[y0:y1, x0:x1] = np.minimum(
                region, (255 - patch * 255).astype(np.uint8)
            )
        cx += GLYPH_W + _GAP


def draw_det_overlay(gray: np.ndarray, boxes) -> np.ndarray:
    """draw_det_res analog: box outlines only."""
    out = gray.copy()
    for box in boxes:
        draw_polyline(out, box)
    return out


def draw_ocr_overlay(gray: np.ndarray, results, glyphs: np.ndarray) -> np.ndarray:
    """draw_ocr_res analog: outlines + recognized text above each box."""
    out = gray.copy()
    for box, text, _prob in results:
        draw_polyline(out, box)
        bx = np.asarray(box)
        draw_text_label(
            out, glyphs, text, int(bx[0][0]), max(0, int(bx[0][1]) - GLYPH_H - 2)
        )
    return out


class VisualizeStage:
    """media rows -> (media_ref, vis_png): run the engine, draw the result.

    ``mode``: "det" (outlines only) or "ocr" (outlines + text labels)."""

    def __init__(self, mode: str = "ocr"):
        if mode not in ("det", "ocr"):
            raise ValueError(f"unknown visualization mode {mode!r}")
        self.mode = mode
        self.engine = OcrEngine(build_weights(), OcrConfig())
        self.glyphs = build_glyphs()

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, pngs = [], []
        for ref, data in zip(
            batch["media_ref"].to_pylist(), batch["data"].to_pylist()
        ):
            gray = decode_gray(data) if data is not None else None
            if gray is None:
                continue  # undecodable payload: drop, like DecodeImage
            if self.mode == "det":
                vis = draw_det_overlay(gray, self.engine.detect(gray))
            else:
                vis = draw_ocr_overlay(gray, self.engine.ocr_image(gray), self.glyphs)
            refs.append(ref)
            pngs.append(encode_gray(vis))
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "vis_png": pa.array(pngs, pa.binary()),
            }
        )


def visualize_corpus(
    media_path: str, out_dir: str, concurrency: int | None = None,
    mode: str = "ocr", batch_size: int = 16,
):
    """Write (media_ref, vis_png) parquet under ``out_dir`` for every
    decodable media row. Small batches: rows carry full images. Runs on
    ``concurrency`` workers (:func:`~.warm.map_stage`)."""
    import ray.data as rd

    from .warm import map_stage

    ds = rd.read_parquet(media_path, columns=["media_ref", "data"])
    map_stage(ds, VisualizeStage, {"mode": mode}, batch_size=batch_size,
              concurrency=concurrency).write_parquet(out_dir)
    return out_dir

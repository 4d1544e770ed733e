"""Visualization writer tests (ref deploy/utils.py:65-120 analog)."""

import numpy as np
import pyarrow as pa
import pytest

from pytorchocr_ray.functions.charset import build_glyphs
from pytorchocr_ray.functions.png import decode_gray, encode_gray
from pytorchocr_ray.stages.visualize import (
    VisualizeStage,
    draw_det_overlay,
    draw_polyline,
)
from pytorchocr_ray.synth.generate import render_media


@pytest.fixture(scope="module")
def media_batch():
    rng = np.random.default_rng(5)
    img, regions = render_media(rng, build_glyphs())
    return img.astype(np.uint8), regions


def test_draw_polyline_stamps_closed_outline():
    img = np.full((40, 60), 255, dtype=np.uint8)
    quad = np.array([[5, 5], [50, 5], [50, 30], [5, 30]])
    draw_polyline(img, quad)
    # all four edges present (sample a midpoint of each)
    assert img[5, 27] == 128 and img[30, 27] == 128
    assert img[17, 5] == 128 and img[17, 50] == 128
    # interior untouched
    assert img[17, 27] == 255
    # out-of-bounds quads clip instead of raising
    draw_polyline(img, np.array([[-10, -10], [70, -10], [70, 50], [-10, 50]]))


def test_det_overlay_outlines_detected_boxes(media_batch):
    from pytorchocr_ray.functions.ocr import OcrConfig, OcrEngine
    from pytorchocr_ray.state.weights import build_weights

    img, regions = media_batch
    eng = OcrEngine(build_weights(), OcrConfig())
    boxes = eng.detect(img)
    assert len(boxes) == len(regions)
    vis = draw_det_overlay(img, boxes)
    assert vis.shape == img.shape
    for b in boxes:
        b = np.asarray(b)
        assert vis[b[0][1], b[0][0]] == 128  # top-left corner stamped
    # source image not mutated
    assert (img == media_batch[0]).all()


def test_visualize_stage_ocr_mode_drops_bad_payloads(media_batch):
    img, _regions = media_batch
    stage = VisualizeStage(mode="ocr")
    t = pa.table(
        {
            "media_ref": ["m-0", "m-bad"],
            "data": pa.array([encode_gray(img), b"not a png"], pa.binary()),
        }
    )
    out = stage(t)
    assert out.column_names == ["media_ref", "vis_png"]
    assert out["media_ref"].to_pylist() == ["m-0"]
    vis = decode_gray(out["vis_png"][0].as_py())
    assert vis.shape == img.shape
    assert (vis == 128).sum() > 100  # outlines present
    # deterministic: a second stage instance produces identical bytes
    out2 = VisualizeStage(mode="ocr")(t)
    assert out["vis_png"][0].as_py() == out2["vis_png"][0].as_py()
    with pytest.raises(ValueError, match="unknown visualization mode"):
        VisualizeStage(mode="wat")


def test_visualize_corpus_writes_parquet(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from pytorchocr_ray.stages.visualize import visualize_corpus
    from pytorchocr_ray.synth.generate import generate_corpus

    d = str(tmp_path / "corpus")
    generate_corpus(d, n_docs=6, seed=11)
    out = str(tmp_path / "vis")
    visualize_corpus(os.path.join(d, "media.parquet"), out, concurrency=2)
    t = pq.read_table(out)
    media = pq.read_table(os.path.join(d, "media.parquet"))
    assert t.num_rows == media.num_rows  # every payload decodable here
    assert sorted(t.column_names) == ["media_ref", "vis_png"]
    vis = decode_gray(t["vis_png"][0].as_py())
    assert vis is not None and vis.ndim == 2

"""Row contract of the OCR stage, driven directly (no Ray).

``OcrStage`` emits text rows in place, one tombstone per dropped media row,
and each image's regions in reading order.
"""

import numpy as np
import pyarrow as pa
import pytest

from pytorchocr_ray.functions.ocr import OcrConfig, OcrEngine
from pytorchocr_ray.functions.png import decode_gray, encode_gray
from pytorchocr_ray.stages.ocr_stage import TOMBSTONE_REGION, OcrStage
from pytorchocr_ray.state.weights import build_weights


def _page(img: np.ndarray, pad: int = 20) -> np.ndarray:
    page = np.full((img.shape[0] + 2 * pad, img.shape[1] + 2 * pad), 240, np.uint8)
    page[pad : pad + img.shape[0], pad : pad + img.shape[1]] = img
    return page


def _media_batch(ref: str) -> pa.Table:
    return pa.table(
        {
            "doc_id": ["d0"],
            "kind": ["media"],
            "text": [""],
            "media_ref": [ref],
            "offset": pa.array([0], pa.int32()),
            "span_idx": pa.array([0], pa.int32()),
            "n_spans": pa.array([1], pa.int32()),
        }
    )


@pytest.mark.parametrize("use_cls", [False, True])
def test_ocr_stage_applies_tps(use_cls):
    """use_tps must reach the stage's crops: a curved word reads as
    written, with or without the 0/180 classifier."""
    from test_tps import _render_curved_word

    media = {"img-0-0": encode_gray(_page(_render_curved_word("curved", amp=6)))}
    cfg = OcrConfig(use_tps=True, use_cls=use_cls)
    out = OcrStage(media_ref=media, config=cfg)(_media_batch("img-0-0"))
    assert out["text"].to_pylist() == ["curved"]


@pytest.fixture(scope="module")
def contract_input():
    """Hand-built doc (text, missing payload, undecodable bytes, blank
    image, real image, text) followed by a few generator docs."""
    from pytorchocr_ray.stages.spans import explode_spans, normalize_text_spans
    from pytorchocr_ray.synth.generate import generate_docs

    docs, media_t, gt, _exp = generate_docs(np.arange(5), seed=77)
    media = dict(zip(media_t["media_ref"].to_pylist(), media_t["data"].to_pylist()))
    # the image with the most text regions
    n_regions = [len(r) for r in gt["regions"].to_pylist()]
    real_ref = gt["media_ref"][int(np.argmax(n_regions))].as_py()
    media["img-9000-1"] = b"\x89PNG not really"
    media["img-9000-2"] = encode_gray(np.full((48, 96), 240, np.uint8))
    media["img-9000-3"] = media[real_ref]
    kinds = ["text", "media", "media", "media", "media", "text"]
    refs = ["", "img-9000-0", "img-9000-1", "img-9000-2", "img-9000-3", ""]
    hand = pa.table(
        {
            "doc_id": ["hand"] * 6,
            "kind": kinds,
            "text": ["first words", "", "", "", "", "last words"],
            "media_ref": refs,
            "offset": pa.array([0, 12, 13, 14, 15, 16], pa.int32()),
            "span_idx": pa.array(range(6), pa.int32()),
            "n_spans": pa.array([6] * 6, pa.int32()),
        }
    )
    batch = pa.concat_tables([hand, normalize_text_spans(explode_spans(docs))])
    return batch, media


def _expected_rows(batch: pa.Table, media: dict, engine: OcrEngine) -> list[dict]:
    """The row contract written out one input row at a time."""
    out = []
    for row in batch.to_pylist():
        base = {k: row[k] for k in ("doc_id", "offset", "kind", "span_idx", "n_spans")}
        if row["kind"] != "media":
            out.append({**base, "region_idx": 0, "text": row["text"],
                        "media_ref": "", "prob": None, "box": None})
            continue
        data = media.get(row["media_ref"])
        gray = decode_gray(data) if data is not None else None
        regions = engine.ocr_image(gray) if gray is not None else []
        if not regions:
            out.append({**base, "region_idx": TOMBSTONE_REGION, "text": "",
                        "media_ref": row["media_ref"], "prob": None, "box": None})
        for ridx, (box, text, prob) in enumerate(regions):
            out.append({**base, "region_idx": ridx, "text": text,
                        "media_ref": row["media_ref"], "prob": float(np.float32(prob)),
                        "box": box.reshape(-1).tolist()})
    return out


def test_ocr_stage_emits_the_row_contract(contract_input):
    batch, media = contract_input
    got = OcrStage(media_ref=media)(batch).to_pylist()
    assert got == _expected_rows(batch, media, OcrEngine(build_weights()))

    hand = [r for r in got if r["doc_id"] == "hand"]
    # text rows in place, untouched
    assert hand[0] == {"doc_id": "hand", "offset": 0, "region_idx": 0,
                       "kind": "text", "text": "first words", "media_ref": "",
                       "prob": None, "box": None, "span_idx": 0, "n_spans": 6}
    assert hand[-1]["text"] == "last words" and hand[-1]["span_idx"] == 5
    # missing payload, undecodable bytes, blank image: one tombstone each
    for span, ref in ((1, "img-9000-0"), (2, "img-9000-1"), (3, "img-9000-2")):
        rows = [r for r in hand if r["span_idx"] == span]
        assert len(rows) == 1
        assert rows[0]["region_idx"] == TOMBSTONE_REGION
        assert rows[0]["media_ref"] == ref and rows[0]["text"] == ""
    # the real image: its regions in the engine's reading order (checked
    # against _expected_rows above), lineage carried over
    rows = [r for r in hand if r["span_idx"] == 4]
    assert len(rows) >= 2
    assert [r["region_idx"] for r in rows] == list(range(len(rows)))
    assert all(r["offset"] == 15 and r["n_spans"] == 6 for r in rows)
    assert all(r["text"] and len(r["box"]) == 8 for r in rows)


def test_missing_lineage_columns_default_to_zero():
    batch = _media_batch("img-0-0").drop_columns(["span_idx", "n_spans"])
    out = OcrStage(media_ref={})(batch)
    assert out["span_idx"].to_pylist() == [0]
    assert out["n_spans"].to_pylist() == [0]
    assert out["region_idx"].to_pylist() == [TOMBSTONE_REGION]

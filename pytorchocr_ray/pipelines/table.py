"""Table-structure pipeline: pubtab JSONL -> decoded structure rows.

    read_pubtab_jsonl ──mb──> TableStage (encode stub -> probs ->
        TableLabelDecode with bbox denorm) ──> (filename, structure,
        n_cells, bbox_sum)

The recognition MODEL is the documented deterministic stub (one-hot probs
over the GT tokens, normalized GT bboxes as loc_preds — the same contract
a trained structure head emits, ref table_postprocess.py:38-46); the
decode + coordinate-restore path it drives is the real reference
functionality under test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.table import (
    TD_TOKENS,
    TableLabelDecode,
    resize_table_shape,
    table_bbox_encode,
)


def _decode_one(
    dec: TableLabelDecode, tokens: list[str], flat: list[float], h: int, w: int
) -> tuple[str, int, int]:
    """(tokens, flat cell boxes, src dims) -> (structure, n_cells, bbox_sum)
    through the one-hot probs + bbox normalize/denormalize decode path —
    shared by the label-driven and image-driven branches."""
    shape = resize_table_shape(int(h), int(w))
    T = len(tokens) + 1
    probs = dec.encode(tokens, T)
    bbox_preds = np.zeros((T, 4), dtype=np.float64)
    if len(flat):
        norm = table_bbox_encode(np.asarray(flat, dtype=np.float64), shape, width=4)
        ci = 0
        for t, tok in enumerate(tokens):
            if tok in TD_TOKENS and ci < len(norm):
                bbox_preds[t] = norm[ci]
                ci += 1
    structure, boxes, _score = dec.decode(probs, bbox_preds, shape)
    bsum = int(np.floor(boxes + 0.5).sum()) if boxes.size else 0
    return "".join(structure), len(boxes), bsum


def _out_table(rows: list[tuple[str, str, int, int]]) -> pa.Table:
    return pa.table(
        {
            "filename": pa.array([r[0] for r in rows], pa.string()),
            "structure": pa.array([r[1] for r in rows], pa.string()),
            "n_cells": pa.array([r[2] for r in rows], pa.int64()),
            "bbox_sum": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


class TableStage:
    """Warm stage: decode built once per worker process, vectorized-ish per
    row (each row is one table — model-call granularity, not scalar work)."""

    def __init__(self, merge_no_span_structure: bool = False):
        self.dec = TableLabelDecode(merge_no_span_structure=merge_no_span_structure)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for name, tokens, flat, h, w in zip(
            batch["img_path"].to_pylist(),
            batch["structure_tokens"].to_pylist(),
            batch["cell_bboxes"].to_pylist(),
            batch["imgh"].to_pylist(),
            batch["imgw"].to_pylist(),
        ):
            if not tokens:
                continue
            rows.append((name, *_decode_one(self.dec, tokens, flat, h, w)))
        return _out_table(rows)


class TableImageStage:
    """Image-driven branch: table PNG -> binarize -> cell-outline
    components (the det post-processor's labeller) -> structure tokens from
    cell geometry -> the same decode path as the label branch.

    Replaces the label branch's GT tokens with DETECTED geometry end to end
    (ref pytocr/data/pubtab_dataset.py:12-113 feeds an image model here; the
    model is the sanctioned out-of-scope piece, the detection analog +
    decode are real)."""

    def __init__(self, merge_no_span_structure: bool = False):
        self.dec = TableLabelDecode(merge_no_span_structure=merge_no_span_structure)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.png import decode_gray
        from ..functions.table import detect_cell_rects, structure_from_cell_rects

        rows = []
        for name, data, h, w in zip(
            batch["filename"].to_pylist(),
            batch["data"].to_pylist(),
            batch["imgh"].to_pylist(),
            batch["imgw"].to_pylist(),
        ):
            img = decode_gray(data)
            if img is None:
                continue  # undecodable payload: drop, like DecodeImage
            rects = detect_cell_rects(img)
            tokens = structure_from_cell_rects(rects)
            flat = rects.astype(np.float64).ravel().tolist()
            rows.append((name, *_decode_one(self.dec, tokens, flat, h, w)))
        return _out_table(rows)


def table_structure_ds(jsonl_path: str, concurrency: int | None = None, **params):
    from ..sources.label_files import read_pubtab_jsonl
    from ..stages.warm import map_stage

    return map_stage(read_pubtab_jsonl(jsonl_path), TableStage, params,
                     concurrency=concurrency)


def table_structure_from_images(
    images_parquet: str, concurrency: int | None = None, **params
):
    """Image-driven twin of :func:`table_structure_ds` over a parquet of
    (filename, data PNG, imgh, imgw) rows. Small batches: each row carries
    a full decoded page (fat binary payloads)."""
    import ray.data as rd

    from ..stages.warm import map_stage

    return map_stage(rd.read_parquet(images_parquet), TableImageStage, params,
                     batch_size=32, concurrency=concurrency)

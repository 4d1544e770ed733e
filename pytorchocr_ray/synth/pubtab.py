"""Seeded PubTabNet-style table-label fixture (JSONL) + ground truth.

Each line mirrors the reference's pubtab format
(pytocr/data/pubtab_dataset.py:82-99):

  {"filename": ..., "imgh": H, "imgw": W,
   "html": {"structure": {"tokens": [...]},
            "cells": [{"tokens": [...], "bbox": [x1, y1, x2, y2]}, ...]}}

plus ``expected.parquet`` with the GROUND-TRUTH decode result per sample
(filename, structure, n_cells, bbox_sum) — the driver-oracle table for the
``table_structure`` query, built from generator knowledge exactly like the
extraction corpus' expected spans.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state import cache


def _sample(
    rng: np.random.Generator,
) -> tuple[list[str], list[list[int]], list[list[int]], int, int]:
    rows = int(rng.integers(1, 4))
    cols = int(rng.integers(1, 5))
    src_h = int(rng.integers(150, 600))
    src_w = int(rng.integers(150, 600))
    tokens: list[str] = ["<html>", "<body>", "<table>"]
    cells: list[list[int]] = []
    # the label bboxes above mirror the reference pubtab quirk (colspan cells
    # keep a single-column bbox); ``rects`` are the RENDERED cell rectangles
    # (span-aware width) the image branch draws and must detect back
    rects: list[list[int]] = []
    cw, ch = src_w // (cols + 1), src_h // (rows + 1)

    def cell(r: int, c: int, span2: bool) -> None:
        if span2:
            tokens.extend(["<td", ' colspan="2"', ">", "</td>"])
        else:
            tokens.extend(["<td>", "</td>"])
        x1, y1 = c * cw + 2, r * ch + 2
        cells.append([x1, y1, x1 + cw - 4, y1 + ch - 4])
        rects.append([x1, y1, x1 + (2 * cw if span2 else cw) - 4, y1 + ch - 4])

    tokens.extend(["<thead>", "<tr>"])
    for c in range(cols):
        cell(0, c, False)
    tokens.extend(["</tr>", "</thead>", "<tbody>"])
    for r in range(1, rows):
        tokens.append("<tr>")
        c = 0
        while c < cols:
            span2 = cols - c >= 2 and rng.random() < 0.2
            cell(r, c, span2)
            c += 2 if span2 else 1
        tokens.append("</tr>")
    tokens.extend(["</tbody>", "</table>", "</body>", "</html>"])
    return tokens, cells, rects, src_h, src_w


def render_table_png(rects: list[list[int]], src_h: int, src_w: int) -> bytes:
    """Rasterize a table sample: 1-px black cell outlines on white, PNG.

    The generator's grid leaves a 4-px gutter between adjacent rects, so
    every outline is its own 8-connected component and its component bbox
    IS the drawn rect — detection can be exact."""
    from ..functions.png import encode_gray

    img = np.full((src_h, src_w), 255, dtype=np.uint8)
    for x1, y1, x2, y2 in rects:
        img[y1, x1 : x2 + 1] = 0
        img[y2, x1 : x2 + 1] = 0
        img[y1 : y2 + 1, x1] = 0
        img[y1 : y2 + 1, x2] = 0
    return encode_gray(img)


def synth_pubtab(out_dir: str, n: int, seed: int = 21) -> str:
    """Write ``table_labels.jsonl`` + ``expected.parquet`` (and the image
    branch's tables) into ``out_dir``; published once by
    :func:`~..state.cache.publish`, its marker keyed on ``(n, seed)`` and
    the sources (see :func:`pubtab_path`)."""
    return cache.publish(out_dir, lambda d: _write_pubtab(d, n, seed), _key(n, seed))


def _write_pubtab(out_dir: str, n: int, seed: int) -> None:
    from ..functions.table import (
        TableLabelDecode,
        resize_table_shape,
        table_bbox_encode,
    )

    dec = TableLabelDecode()
    names, structs, ncells, bsums = [], [], [], []
    img_bytes, img_h, img_w, img_bsums = [], [], [], []
    with open(os.path.join(out_dir, "table_labels.jsonl"), "w") as f:
        for i in range(n):
            rng = np.random.default_rng((seed << 20) + i)
            tokens, cells, rects, src_h, src_w = _sample(rng)
            name = f"tab-{i:06d}.png"
            f.write(
                json.dumps(
                    {
                        "filename": name,
                        "imgh": src_h,
                        "imgw": src_w,
                        "html": {
                            "structure": {"tokens": tokens},
                            "cells": [
                                {"tokens": ["x"], "bbox": bb} for bb in cells
                            ],
                        },
                    }
                )
                + "\n"
            )
            # GT decode result: the normalized->denormalized round trip must
            # restore the integer boxes (checked via floor(x+0.5) exactness)
            shape = resize_table_shape(src_h, src_w)
            if cells:
                norm = table_bbox_encode(np.asarray(cells), shape, width=4)
                denorm = norm.copy()
                denorm[:, 0::2] *= shape[5]
                denorm[:, 1::2] *= shape[4]
                denorm[:, 0::2] /= shape[3]
                denorm[:, 1::2] /= shape[2]
                bsum = int(np.floor(denorm + 0.5).sum())
            else:
                bsum = 0
            names.append(name)
            structs.append("".join(tokens))
            ncells.append(len(cells))
            bsums.append(bsum)
            # image branch: rendered PNG + its own expected bbox_sum (the
            # span-aware rects go through the SAME normalize->denormalize
            # round trip the decode path applies)
            img_bytes.append(render_table_png(rects, src_h, src_w))
            img_h.append(src_h)
            img_w.append(src_w)
            rnorm = table_bbox_encode(np.asarray(rects), shape, width=4)
            rden = rnorm.copy()
            rden[:, 0::2] *= shape[5]
            rden[:, 1::2] *= shape[4]
            rden[:, 0::2] /= shape[3]
            rden[:, 1::2] /= shape[2]
            img_bsums.append(int(np.floor(rden + 0.5).sum()))
    pq.write_table(
        pa.table(
            {
                "filename": pa.array(names, pa.string()),
                "data": pa.array(img_bytes, pa.binary()),
                "imgh": pa.array(img_h, pa.int32()),
                "imgw": pa.array(img_w, pa.int32()),
            }
        ),
        os.path.join(out_dir, "table_images.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "filename": pa.array(names, pa.string()),
                "structure": pa.array(structs, pa.string()),
                "n_cells": pa.array(ncells, pa.int64()),
                "bbox_sum": pa.array(img_bsums, pa.int64()),
            }
        ),
        os.path.join(out_dir, "expected_image.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "filename": pa.array(names, pa.string()),
                "structure": pa.array(structs, pa.string()),
                "n_cells": pa.array(ncells, pa.int64()),
                "bbox_sum": pa.array(bsums, pa.int64()),
            }
        ),
        os.path.join(out_dir, "expected.parquet"),
    )


def _key(n: int, seed: int) -> str:
    from ..functions import table as _table

    return cache.key((n, seed), (__file__, _table))


def pubtab_path(n: int, seed: int = 21) -> str:
    """Canonical cache dir: fresh per ``(n, seed)`` and sources."""
    return os.path.join(cache.ROOT, "pubtab", _key(n, seed))

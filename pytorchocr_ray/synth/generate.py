"""Seeded generator for the interleaved text+media corpus (FIXTURES.md).

Shapes follow the authoritative ``input_hint``:
  documents(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)
  media(media_ref, data: binary PNG, width, height)
  media_gt(media_ref, regions: list<struct<box: list<int16>[8], text>>)

Per-document RNG is seeded by (seed, doc_index) so generation is
order-independent and embarrassingly parallel — :func:`generate_corpus_ray`
fans document ranges out with ``ray.data.range().map_batches`` and writes
partitioned parquet; :func:`generate_docs` is the in-process kernel.

Rendered features (all seeded):
  * 1-6 text-line regions per media image; glyphs from the shared bank
    (functions/charset.py) at known quad positions -> GT boxes/transcripts,
  * two boxes on one visual line (|dy| < 10) to exercise the sort_boxes
    adjacent-swap path (reference pytocr/utils/utility.py:44-49),
  * tall vertical regions (h >= 1.5 w, glyphs pre-rotated 90 deg CW) to hit
    the rot90 rule (reference deploy/pytorch/run_ocr.py:190-191),
  * fully 180-rotated regions to exercise the cls stage,
  * ~20% media-heavy documents (>= 6 media spans) for skew-split tests,
    ~10% documents with zero media spans,
  * text spans with leading/trailing/run whitespace, full-width punctuation
    and ⟪boilerplate⟫ blocks for the normalization map.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import schemas
from ..functions.charset import CHARSET, GLYPH_H, GLYPH_W, build_glyphs
from ..state import cache

_GAP = 4  # inter-glyph gap px (detector smoothing must bridge it)
_PAD = 4  # ink-to-box pad px
_INK = 32
_BG = 240

_LETTERS = CHARSET[10:]  # letters only for words
_FW_PUNCT = ["：", "；", "！", "？", "（", "）"]


def _render_line(glyphs: np.ndarray, text: str) -> np.ndarray:
    """Text -> uint8 ink patch (GLYPH_H x line_w), horizontal layout."""
    w = len(text) * GLYPH_W + (len(text) - 1) * _GAP
    patch = np.zeros((GLYPH_H, w), dtype=np.float32)
    x = 0
    for ch in text:
        patch[:, x : x + GLYPH_W] = glyphs[CHARSET.index(ch)]
        x += GLYPH_W + _GAP
    return patch


def _word(rng: np.random.Generator, lo: int = 2, hi: int = 8) -> str:
    n = int(rng.integers(lo, hi + 1))
    return "".join(_LETTERS[i] for i in rng.integers(0, len(_LETTERS), n))


def render_media(
    rng: np.random.Generator, glyphs: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, str]]]:
    """One media image -> (uint8 canvas, [(gt_box (4,2) int16, text), ...]).

    GT regions are listed in reading order (top-to-bottom bands; left-to-right
    within a band).
    """
    w = int(rng.integers(4, 14)) * 32  # 128..416
    h = int(rng.integers(3, 10)) * 32  # 96..288
    canvas = np.full((h, w), float(_BG), dtype=np.float32)
    regions: list[tuple[np.ndarray, str]] = []
    y = int(rng.integers(6, 14))
    n_target = int(rng.integers(1, 7))
    while len(regions) < n_target and y + GLYPH_H + 2 * _PAD + 8 < h:
        style = rng.random()
        if style < 0.12:
            # tall vertical region: glyphs stacked, each rotated 90 deg CW so a
            # CCW rot90 of the crop restores upright text
            # >=4 glyphs so the unclipped crop still satisfies the
            # h >= 1.5*w rot90 trigger (unclip adds ~11px each side)
            text = _word(rng, 4, 6)
            gw, gh = GLYPH_H, GLYPH_W  # rotated glyph cell
            vgap = 2  # tighter than _GAP so the detector's shorter vertical
            # smoothing reach still bridges stacked glyphs
            th = len(text) * gh + (len(text) - 1) * vgap
            tw = gw
            if y + th + 2 * _PAD + 8 >= h:
                y += 4
                continue
            x0 = int(rng.integers(4, max(5, w - tw - 2 * _PAD - 4)))
            yy = y + _PAD
            for ch in text:
                g = glyphs[CHARSET.index(ch)]
                grot = np.rot90(g, -1)  # 90 deg CW
                canvas[yy : yy + gh, x0 + _PAD : x0 + _PAD + gw] = np.where(
                    grot > 0, float(_INK), canvas[yy : yy + gh, x0 + _PAD : x0 + _PAD + gw]
                )
                yy += gh + vgap
            box = np.array(
                [
                    [x0, y],
                    [x0 + tw + 2 * _PAD, y],
                    [x0 + tw + 2 * _PAD, y + th + 2 * _PAD],
                    [x0, y + th + 2 * _PAD],
                ],
                dtype=np.int16,
            )
            regions.append((box, text))
            # >=28px ink-to-ink vertical gap: unclip margins (~16px) + conv
            # smear must never reach the next band's ink
            y += th + 2 * _PAD + int(rng.integers(28, 44))
            continue
        # horizontal band: 1 or 2 side-by-side line regions (same visual line
        # -> exercises the sort_boxes adjacent-swap)
        two = rng.random() < 0.25
        band: list[tuple[np.ndarray, str]] = []
        x_cursor = int(rng.integers(4, 20))
        flipped = rng.random() < 0.15  # whole-region 180 rotation (cls path)
        for _ in range(2 if two else 1):
            max_chars = (w - x_cursor - 2 * _PAD - 8) // (GLYPH_W + _GAP)
            if max_chars < 2:
                break
            text = _word(rng, 2, min(8, max_chars))
            patch = _render_line(glyphs, text)
            ph, pw = patch.shape
            if flipped:
                patch = patch[::-1, ::-1]
            x0 = x_cursor
            # jitter y within the band by <10px so same-line order still
            # triggers the adjacent-swap quirk
            y0 = y + int(rng.integers(0, 6))
            canvas[y0 + _PAD : y0 + _PAD + ph, x0 + _PAD : x0 + _PAD + pw] = np.where(
                patch > 0,
                float(_INK),
                canvas[y0 + _PAD : y0 + _PAD + ph, x0 + _PAD : x0 + _PAD + pw],
            )
            box = np.array(
                [
                    [x0, y0],
                    [x0 + pw + 2 * _PAD, y0],
                    [x0 + pw + 2 * _PAD, y0 + ph + 2 * _PAD],
                    [x0, y0 + ph + 2 * _PAD],
                ],
                dtype=np.int16,
            )
            # GT transcript is the original text: the cls stage detects the
            # 180 rotation and the corrected crop reads upright
            band.append((box, text))
            # wide horizontal gap: each box unclips outward ~16px, crops must
            # not swallow the neighbor's glyphs
            x_cursor = x0 + pw + 2 * _PAD + int(rng.integers(30, 46))
            if x_cursor > w - 40:
                break
        # reading order within the band: left-to-right
        band.sort(key=lambda bt: int(bt[0][0][0]))
        regions.extend(band)
        y += GLYPH_H + 2 * _PAD + 6 + int(rng.integers(28, 44))
    return np.clip(np.round(canvas), 0, 255).astype(np.uint8), regions


def _text_span(rng: np.random.Generator) -> str:
    parts: list[str] = []
    for _ in range(int(rng.integers(2, 7))):
        parts.append(_word(rng))
        r = rng.random()
        if r < 0.15:
            parts.append(_FW_PUNCT[int(rng.integers(0, len(_FW_PUNCT)))])
        sep = " " * int(rng.integers(1, 4))
        parts.append(sep)
    s = "".join(parts)
    if rng.random() < 0.3:
        s = f"{s[: len(s) // 2]}⟪AD {_word(rng)}⟫{s[len(s) // 2 :]}"
    if rng.random() < 0.4:
        s = "  " + s
    if rng.random() < 0.4:
        s = s + "   "
    return s


def generate_docs(
    doc_indices: np.ndarray, seed: int = 42
) -> tuple[pa.Table, pa.Table, pa.Table, pa.Table]:
    """Generate (documents, media, media_gt, expected_flat) tables for the
    given doc ids.  ``expected_flat`` is the GROUND-TRUTH extraction result
    (doc_id, order, kind, text, media_ref) built from generator knowledge —
    normalized text spans + rendered transcripts in reading order — and is
    the independent oracle the driver's SQL check reads (the engine must
    reproduce it without ever seeing it)."""
    from ..functions.png import encode_gray
    from ..functions.text_norm import normalize_text

    glyphs = build_glyphs()
    doc_ids: list[str] = []
    doc_spans: list[list[dict]] = []
    m_refs: list[str] = []
    m_data: list[bytes] = []
    m_w: list[int] = []
    m_h: list[int] = []
    gt_refs: list[str] = []
    gt_regions: list[list[dict]] = []
    e_doc: list[str] = []
    e_order: list[int] = []
    e_kind: list[str] = []
    e_text: list[str] = []
    e_ref: list[str] = []

    for di in doc_indices:
        di = int(di)
        rng = np.random.default_rng((seed << 20) + di)
        doc_id = f"doc-{di:08d}"
        r = rng.random()
        if r < 0.10:
            n_media = 0
        elif r < 0.80:
            n_media = int(rng.integers(1, 5))
        else:
            n_media = int(rng.integers(6, 13))  # media-heavy tail (skew)
        n_text = int(rng.integers(1, 5))
        kinds = ["text"] * n_text + ["media"] * n_media
        rng.shuffle(kinds)
        kinds = kinds[:16]
        spans: list[dict] = []
        # (offset, ridx, kind, text, ref); offsets are strictly increasing
        # by construction so the (offset, ridx) sort is unambiguous
        exp_rows: list[tuple[int, int, str, str, str]] = []
        offset = 0
        mi = 0
        for kind in kinds:
            offset += int(rng.integers(1, 10))
            if kind == "text":
                raw = _text_span(rng)
                spans.append(
                    {
                        "kind": "text",
                        "text": raw,
                        "media_ref": "",
                        "offset": offset,
                    }
                )
                exp_rows.append((offset, 0, "text", normalize_text(raw), ""))
            else:
                ref = f"img-{di:08d}-{mi:02d}"
                mi += 1
                img, regions = render_media(rng, glyphs)
                m_refs.append(ref)
                m_data.append(encode_gray(img))
                m_h.append(img.shape[0])
                m_w.append(img.shape[1])
                gt_refs.append(ref)
                gt_regions.append(
                    [
                        {"box": box.reshape(-1).astype(np.int16).tolist(), "text": t}
                        for box, t in regions
                    ]
                )
                spans.append(
                    {"kind": "media", "text": "", "media_ref": ref, "offset": offset}
                )
                for ridx, (_box, text) in enumerate(regions):
                    exp_rows.append((offset, ridx, "media", text, ref))
        doc_ids.append(doc_id)
        doc_spans.append(spans)
        exp_rows.sort(key=lambda r: (r[0], r[1]))
        for order, (_off, _ridx, k, t, ref) in enumerate(exp_rows):
            e_doc.append(doc_id)
            e_order.append(order)
            e_kind.append(k)
            e_text.append(t)
            e_ref.append(ref)

    documents = pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": doc_spans}, schema=schemas.DOCUMENTS
    )
    media = pa.Table.from_pydict(
        {"media_ref": m_refs, "data": m_data, "width": m_w, "height": m_h},
        schema=schemas.MEDIA,
    )
    media_gt = pa.Table.from_pydict(
        {"media_ref": gt_refs, "regions": gt_regions}, schema=schemas.MEDIA_GT
    )
    expected = pa.table(
        {
            "doc_id": pa.array(e_doc, pa.string()),
            "order": pa.array(e_order, pa.int32()),
            "kind": pa.array(e_kind, pa.string()),
            "text": pa.array(e_text, pa.string()),
            "media_ref": pa.array(e_ref, pa.string()),
        },
        schema=schemas.EXTRACTED_FLAT,
    )
    return documents, media, media_gt, expected


def _sources() -> tuple:
    """Every source the generated bytes / GT depend on: a change to the
    generator, glyph bank, normalizer or PNG codec busts cached corpora."""
    from ..functions import charset, png, text_norm

    return (__file__, schemas, charset, png, text_norm)


def corpus_path(n_docs: int, seed: int = 42) -> str:
    """Canonical cached-corpus location: a fresh dir per size, seed and
    source version."""
    return os.path.join(cache.ROOT, "corpus", cache.key((n_docs, seed), _sources()))


def generate_corpus(out_dir: str, n_docs: int, seed: int = 42) -> str:
    """Single-process corpus write (tests / small fixtures)."""
    os.makedirs(out_dir, exist_ok=True)
    docs, media, gt, expected = generate_docs(np.arange(n_docs), seed)
    pq.write_table(docs, os.path.join(out_dir, "documents.parquet"))
    pq.write_table(media, os.path.join(out_dir, "media.parquet"))
    pq.write_table(gt, os.path.join(out_dir, "media_gt.parquet"))
    pq.write_table(expected, os.path.join(out_dir, "expected.parquet"))
    return out_dir


def generate_corpus_ray(
    out_dir: str, n_docs: int, seed: int = 42, shard_size: int = 250
) -> str:
    """Parallel corpus generation via Ray tasks -> ``out_dir``.

    Writes one parquet file per shard of documents under
    ``out_dir/documents/`` etc.  Published once by
    :func:`~..state.cache.publish`: its marker is keyed on every build
    parameter and the sources, and a dir holding another build raises.
    """
    import ray

    def build(d: str) -> None:
        for sub in ("documents", "media", "media_gt", "expected"):
            os.makedirs(os.path.join(d, sub))

        def _write(lo: int, hi: int) -> None:
            docs, media, gt, expected = generate_docs(np.arange(lo, hi), seed)
            pq.write_table(docs, os.path.join(d, "documents", f"part-{lo:08d}.parquet"))
            pq.write_table(media, os.path.join(d, "media", f"part-{lo:08d}.parquet"))
            pq.write_table(gt, os.path.join(d, "media_gt", f"part-{lo:08d}.parquet"))
            pq.write_table(expected, os.path.join(d, "expected", f"part-{lo:08d}.parquet"))

        spans = [(lo, min(lo + shard_size, n_docs)) for lo in range(0, n_docs, shard_size)]
        if ray.is_initialized():
            shard_task = ray.remote(_write)
            ray.get([shard_task.remote(lo, hi) for lo, hi in spans])
        else:
            # serial fallback (same sharded layout) so oracle-side callers can
            # materialize the corpus without owning a Ray session
            for lo, hi in spans:
                _write(lo, hi)

    stamp = cache.key((n_docs, seed, shard_size), _sources())
    return cache.publish(out_dir, build, stamp)

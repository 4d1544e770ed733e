"""Stateless span stages: explode + normalize (zero-copy Arrow kernels).

``explode_spans`` replaces the reference's per-sample dict iteration
(pytocr/data/simple_dataset.py:94-120) with pyarrow list kernels —
``list_flatten`` + ``list_parent_indices`` are O(1) metadata ops on the
offsets buffer, no Python per row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text_norm import normalize_column


def explode_spans(batch: pa.Table) -> pa.Table:
    """documents(doc_id, spans) -> flat rows (doc_id, kind, text, media_ref,
    offset, span_idx, n_spans).

    ``span_idx`` (position within the doc) and ``n_spans`` (doc's span
    count) are the per-doc lineage the block-local reassembly guard checks:
    a block whose doc is missing span indices was split mid-document by the
    engine (dynamic block splitting) and must use the shuffle plan instead.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans)
    doc_id = pc.take(batch["doc_id"], parent)
    lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int32)
    total = int(lens.sum())
    starts = np.cumsum(lens) - lens
    span_idx = np.arange(total, dtype=np.int32) - np.repeat(starts, lens).astype(
        np.int32
    )
    return pa.table(
        {
            "doc_id": doc_id,
            "kind": pc.struct_field(flat, "kind"),
            "text": pc.struct_field(flat, "text"),
            "media_ref": pc.struct_field(flat, "media_ref"),
            "offset": pc.struct_field(flat, "offset"),
            "span_idx": pa.array(span_idx),
            "n_spans": pa.array(np.repeat(lens, lens).astype(np.int32)),
        }
    )


def normalize_text_spans(batch: pa.Table) -> pa.Table:
    """Apply the normalization map to text spans (media rows untouched)."""
    is_text = pc.equal(batch["kind"], "text")
    norm = normalize_column(batch["text"])
    text = pc.if_else(is_text, norm, batch["text"])
    return batch.set_column(batch.schema.get_field_index("text"), "text", text)


def stable_bucket(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """``H(id) % n_buckets`` with pandas' stable 64-bit hash (deterministic
    across processes, unlike Python's salted ``hash``)."""
    import pandas as pd

    return (pd.util.hash_array(ids.astype(object)) % np.uint64(n_buckets)).astype(
        np.int64
    )


def add_bucket(batch: pa.Table, n_buckets: int, col: str = "doc_id") -> pa.Table:
    """Append the explicit hash-partition column ``bucket`` =
    :func:`stable_bucket` of ``col`` — the materialized partitioning key
    the north rule requires.
    """
    ids = batch[col].to_pandas().to_numpy(dtype=object)
    return batch.append_column(
        "bucket", pa.array(stable_bucket(ids, n_buckets).astype(np.int32))
    )

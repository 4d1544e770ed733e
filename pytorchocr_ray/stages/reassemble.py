"""Per-document reassembly (key: doc_id).

One close-out, :func:`reassemble_block`, over two physical plans:

* block-local (``reassemble="local"``) — the ZERO-shuffle fast path. A
  document is one row of the input table, so a whole document always lands
  in one read block (a row range, ``sources.parquet_ranges``), and every
  upstream stage (explode, normalize, OCR) is an order-preserving map over
  its block — a document's span rows are therefore contiguous within one
  output block. Reassembly is then a block-local stable sort + per-doc
  cumcount. Assumption documented here and asserted in tests; the
  partitioned runner's bucket layout provides the same guarantee at scale.
* :func:`reassemble_shuffle` — the general plan, for inputs where span rows
  arrive pre-exploded / scattered: the library's one keyed exchange,
  ``ops.co_partition`` on doc_id, brings every row of a document into one
  group, and the group closes with the same block-local reassembly.

Inside a doc: stable sort by (offset, region_idx), 0-based ``order``.
Document order is restored locally — never a global sort (SURVEY.md §2.8).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# The span columns reassembly reads.
SPAN_ROWS = pa.schema(
    [("doc_id", pa.string()), ("offset", pa.int32()), ("region_idx", pa.int32()),
     ("kind", pa.string()), ("text", pa.string()), ("media_ref", pa.string())]
)
# The block-local plan's input: the OCR stage's output minus box and prob;
# span lineage (span_idx, n_spans) feeds reassemble_block's contiguity guard.
REASSEMBLY_IN = pa.schema(
    list(SPAN_ROWS) + [("span_idx", pa.int32()), ("n_spans", pa.int32())]
)

def reassemble_block(batch: pa.Table) -> pa.Table:
    """Block-local reassembly (requires doc-contiguous blocks, see module
    docstring). Vectorized: one stable sort + factorized cumcount.

    What keeps a block doc-contiguous in an extract pass: Ray cuts a map's
    output by rows only where it passes 1.5x the Dataset's
    ``target_max_block_size``, and ``extract_dataset`` sets none on the
    pass's own context. So no block of the pass is cut, however large a
    read range turns out in memory (its bound, ``extract.RANGE_BYTES``, is
    in footer bytes, where a dictionary-encoded string counts once).

    Runtime guard (span lineage): every doc in the block must carry its
    complete span-index set {0..n_spans-1} — dropped media spans stay
    visible as tombstone rows, so an incomplete set can only mean the
    engine split the doc across blocks (dynamic block splitting) and the
    zero-shuffle plan's assumption is violated; raise with a clear
    remediation instead of silently emitting duplicate ``order`` values.
    """
    df = batch.to_pandas()
    if "span_idx" in df.columns and len(df):
        per_doc = df.groupby("doc_id", sort=False)["span_idx"].agg(
            ["nunique", "max"]
        )
        n_spans = df.groupby("doc_id", sort=False)["n_spans"].first()
        bad = per_doc[
            (per_doc["nunique"] != n_spans)
            | (per_doc["max"] != n_spans - 1)
        ]
        if len(bad):
            raise RuntimeError(
                "reassemble='local' block is missing span rows for doc(s) "
                f"{list(bad.index[:5])} — the input block was split "
                "mid-document (doc-contiguity assumption violated); rerun "
                "with reassemble='shuffle'"
            )
    # drop tombstones (dropped-media lineage rows) after the check
    if "region_idx" in df.columns:
        df = df[df["region_idx"] >= 0]
    df = df.sort_values(
        ["doc_id", "offset", "region_idx"], kind="stable", ignore_index=True
    )
    order = df.groupby("doc_id", sort=False).cumcount().to_numpy(np.int32)
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"], pa.string()),
            "order": pa.array(order, pa.int32()),
            "kind": pa.array(df["kind"], pa.string()),
            "text": pa.array(df["text"], pa.string()),
            "media_ref": pa.array(df["media_ref"], pa.string()),
        }
    )


def reassemble_shuffle(ds):
    """Reassembly of span rows in any block layout (``SPAN_ROWS``
    columns): one ``co_partition`` on doc_id, each group closed by
    :func:`reassemble_block`.  co_partition puts every row of a document
    in one group, so the block-local contiguity guard has nothing to
    check and the lineage columns are not carried."""
    from ..ops import co_partition

    def close(rows: pd.DataFrame) -> pa.Table:
        return reassemble_block(pa.Table.from_pandas(rows, preserve_index=False))

    return co_partition(close, rows=(ds, "doc_id", SPAN_ROWS))


def nest_block(batch: pa.Table) -> pa.Table:
    """Flat extracted rows -> nested EXTRACTED rows (one row per document,
    spans as list<struct>). Vectorized with Arrow list offsets; valid on any
    block whose documents are complete (true after either reassembly plan)."""
    from .. import schemas

    idx = pc.sort_indices(
        batch, sort_keys=[("doc_id", "ascending"), ("order", "ascending")]
    )
    t = batch.take(idx)
    ids = np.asarray(t["doc_id"].to_pylist(), dtype=object)
    if len(ids) == 0:
        return pa.table({"doc_id": [], "spans": []}, schema=schemas.EXTRACTED)
    new_doc = np.ones(len(ids), dtype=bool)
    new_doc[1:] = ids[1:] != ids[:-1]
    offsets = np.concatenate([np.flatnonzero(new_doc), [len(ids)]]).astype(np.int32)
    spans_struct = pa.StructArray.from_arrays(
        [
            t["kind"].combine_chunks(),
            t["text"].combine_chunks(),
            t["media_ref"].combine_chunks(),
            pc.cast(t["order"].combine_chunks(), pa.int32()),
        ],
        fields=list(schemas.OUT_SPAN_STRUCT),
    )
    spans = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), spans_struct)
    doc_ids = pa.array(ids[new_doc].tolist(), pa.string())
    return pa.table({"doc_id": doc_ids, "spans": spans}, schema=schemas.EXTRACTED)

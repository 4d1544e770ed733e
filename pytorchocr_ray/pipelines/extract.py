"""The flagship extraction pipeline, Ray-Data-first (SURVEY.md §3.1).

    documents ──mb──> explode spans ──mb──> normalize text spans
              ──mb──> OCR (decode → det → DB post → sort → crop →
                       cls → rec → CTC)         [warm OcrStage per process]
              ──mb──> block-local reassembly (or, for scattered span
                      rows, one co_partition on doc_id) ──> ordered span
                      sequence
              ──> write_parquet / Dataset

Every map is a task (``stages.warm.map_stage`` builds the OCR stage once
per worker process), and the read is one task per row range planned from
the parquet footers (``sources.parquet_ranges``), so Ray fuses the pass
into one operator from the read to the write, whatever the file count, and
every worker starts its first block at once. Zero shuffles by default:
documents stay block-contiguous through the map stages, so reassembly runs
block-local (``reassemble="local"``). Media payloads are looked up inside
the workers, from a sharded parquet store each one reads lazily (a
single-file sidecar is broadcast via ``ray.put``) — no shuffle join for the
sidecar.
"""

from __future__ import annotations

import pyarrow.parquet as pq

from ..functions.ocr import OcrConfig
from ..stages.ocr_stage import OcrStage
from ..stages.reassemble import REASSEMBLY_IN, reassemble_block, reassemble_shuffle
from ..stages.spans import explode_spans, normalize_text_spans
# default_concurrency: the OCR workers of a pass by default, for callers
from ..stages.warm import default_concurrency, map_stage, stage_workers  # noqa: F401

# The block is the unit of OCR work: the OCR stage takes each block whole
# (``batch_size=None``), one call per block. Rows that may hold media are
# read as ~8 blocks per worker, which keeps the workers busy in many waves
# (no straggler tail from media-heavy blocks); rows the footers prove
# text-only are read as one block per worker, since there a block's fixed
# cost outweighs its work. The counts scale with the workers, not the data.
BLOCKS_PER_WORKER = 8

# The pass's own DataContext sets no block size target. Ray then emits
# every map's output whole, so from the read to the write a block is one
# read range of whole documents (stages/reassemble.py relies on it). Nor
# does Ray reserve store for a task before its first output; at Ray's
# 128 MiB default it reserves 2x that per task, a second task does not fit
# the store budget of a small node, and the workers start one by one. The
# footers bound a block instead: a range holds at most RANGE_BYTES of
# uncompressed footer bytes.
RANGE_BYTES = 1 << 20


def load_media_store(media_path: str):
    """Build the media payload access handle for the OCR stage.

    * Sharded directory (``part-<lo>.parquet`` files, as written by
      generate_corpus_ray): return a descriptor; each WORKER lazily reads
      only the shards its rows touch (ShardedMediaStore) — no driver-side
      scan, no broadcast of every payload. The 100 TB-safe path.
    * Single parquet file (small sidecar): read once on the driver and
      broadcast via ``ray.put`` (every worker reads one copy).
    """
    import os

    import ray

    if os.path.isdir(media_path):
        parts = sorted(
            f for f in os.listdir(media_path) if f.startswith("part-")
        )
        if len(parts) >= 2:
            los = [int(p.split("-")[1].split(".")[0]) for p in parts[:2]]
            shard_size = los[1] - los[0]
            return {"dir": media_path, "shard_size": shard_size}
        # single shard — fall through to broadcast
    t = pq.read_table(media_path, columns=["media_ref", "data"])
    return ray.put(dict(zip(t["media_ref"].to_pylist(), t["data"].to_pylist())))


def extract_dataset(
    docs_path: str | list[str],
    media_path: str | None = None,
    *,
    media_ref=None,
    weights_ref=None,
    config: OcrConfig | None = None,
    concurrency: int | None = None,
    batch_size: int | None = None,
    reassemble: str = "local",
):
    """Build the lazy extraction Dataset (flat EXTRACTED_FLAT rows).

    ``docs_path``: a documents parquet path, or a list of parquet files.

    ``concurrency``: concurrent OCR workers (default
    :func:`~..stages.warm.default_concurrency`), a CPU limit on the
    Dataset's context that every Dataset derived from it shares;
    ``concurrency < 1`` raises ``ValueError``.

    ``batch_size``: rows per OCR call. The default ``None`` hands the stage
    a whole block (see ``BLOCKS_PER_WORKER``), so the per-call cost is paid
    once per block, not once per few rows.
    """
    from ..state.weights import put_weights

    conc = stage_workers(concurrency)
    if media_ref is None and media_path is not None:
        media_ref = load_media_store(media_path)
    if weights_ref is None:
        weights_ref = put_weights()

    # A *.lance docs path routes through the Lance reader when the lib is
    # present (import-guarded; BASELINE names a Lance table).
    from ..sources.lance_io import is_lance_path, read_table_auto
    from ..sources.parquet_ranges import read_parquet_ranges

    if isinstance(docs_path, str) and is_lance_path(docs_path):
        ds = read_table_auto(docs_path)
    else:
        ds = read_parquet_ranges(
            docs_path, workers=conc, blocks_per_worker=BLOCKS_PER_WORKER,
            max_bytes=RANGE_BYTES,
        )
    ds.context.target_max_block_size = None
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(normalize_text_spans, batch_format="pyarrow")
    ds = map_stage(
        ds, OcrStage,
        {"weights_ref": weights_ref, "media_ref": media_ref, "config": config},
        batch_size=batch_size, concurrency=conc,
    )
    if reassemble == "none":
        # raw post-OCR rows (full OCR_OUT_SCHEMA incl box/prob), no
        # projection, no reassembly — the regions-table building block
        return ds
    ds = ds.select_columns(REASSEMBLY_IN.names)
    if reassemble == "local":
        # zero-shuffle: documents are block-contiguous by construction
        # (one input row per doc + order-preserving map stages); see
        # stages/reassemble.py for the guarantee
        return ds.map_batches(reassemble_block, batch_format="pyarrow", batch_size=None)
    return reassemble_shuffle(ds)


def extract_regions(docs_path: str, media_path: str | None = None, **kw):
    """The flat ``regions`` intermediate table (SURVEY.md §1.2): one row per
    OCR'd region with its int16 box and confidence — the analog of the
    reference's per-image result rows (deploy/pytorch/run_ocr.py:263-271),
    before reassembly. Text spans are filtered out."""
    import pyarrow as pa
    import pyarrow.compute as pc

    kw["reassemble"] = "none"
    ds = extract_dataset(docs_path, media_path, **kw)
    return ds.map_batches(
        # exclude dropped-media tombstones (region_idx < 0) as well
        lambda t: t.filter(
            pc.and_(pc.equal(t["kind"], "media"), pc.greater_equal(t["region_idx"], 0))
        ),
        batch_format="pyarrow",
    ).select_columns(["doc_id", "offset", "region_idx", "media_ref", "box", "prob", "text"])


def extract_nested(docs_path: str, media_path: str | None = None, **kw):
    """Extraction with the nested output contract: one row per document,
    ``spans: list<struct<kind, text, media_ref, order>>`` (schemas.EXTRACTED)."""
    from ..stages.reassemble import nest_block

    ds = extract_dataset(docs_path, media_path, **kw)
    return ds.map_batches(nest_block, batch_format="pyarrow", batch_size=None)

"""The flagship extraction pipeline, Ray-Data-first (SURVEY.md §3.1).

    documents ──mb──> explode spans ──mb──> normalize text spans
              ──mb-actor──> OCR (decode → det → DB post → sort → crop →
                            cls → rec → CTC)            [fused actor pool]
              ──mb──> block-local reassembly (groupby(doc_id) after a
                      shuffle) ──> ordered span sequence
              ──> write_parquet / Dataset

Zero shuffles by default: documents stay block-contiguous through the map
stages, so reassembly runs block-local (``reassemble="local"``). Media
payloads are looked up inside the actors, from a sharded parquet store each
actor reads lazily (a single-file sidecar is broadcast via ``ray.put``) —
no shuffle join for the sidecar. The split det/rec plan (``fused=False``)
shows the independent GPU-pool topology at the cost of crop traffic.
"""

from __future__ import annotations

import pyarrow.parquet as pq

from ..functions.ocr import OcrConfig
from ..stages.ocr_stage import DetStage, OcrStage, RecStage
from ..stages.reassemble import reassemble_block, reassemble_group
from ..stages.spans import explode_spans, normalize_text_spans

# Block granularity: OCR costs ~10ms per media row, so a good task is O(100)
# rows. Splitting the read into ~8 blocks per actor keeps the pool busy in
# many waves (no straggler tail from media-heavy blocks); the count scales
# with the pool, not the data size.
BLOCKS_PER_ACTOR = 8


def load_media_store(media_path: str):
    """Build the media payload access handle for the actor pools.

    * Sharded directory (``part-<lo>.parquet`` files, as written by
      generate_corpus_ray): return a descriptor; each ACTOR lazily reads
      only the shards its rows touch (ShardedMediaStore) — no driver-side
      scan, no broadcast of every payload. The 100 TB-safe path.
    * Single parquet file (small sidecar): read once on the driver and
      broadcast via ``ray.put`` (every actor zero-copy reads one copy).
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


def default_concurrency() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(1, cpus - 2)  # leave headroom for read + reassembly stages


def extract_dataset(
    docs_path: str,
    media_path: str | None = None,
    *,
    media_ref=None,
    weights_ref=None,
    config: OcrConfig | None = None,
    fused: bool = True,
    concurrency: int | None = None,
    batch_size: int = 16,
    pre_filter=None,
    reassemble: str = "local",
    media_mode: str = "store",
):
    """Build the lazy extraction Dataset (flat EXTRACTED_FLAT rows).

    ``pre_filter``: optional vectorized batch->batch function applied to the
    documents table right after the read (the partitioned runner injects its
    bucket filter here; at scale this is replaced by reading only the
    partition's files).

    ``media_mode``:
      * "store" (default) — payloads fetched actor-side (broadcast dict or
        sharded store; zero shuffle of bytes),
      * "join" — a REAL hash-partitioned ``Dataset.join`` of the exploded
        span rows with the media table on ``media_ref`` (payload bytes move
        through the shuffle). The right choice when the sidecar can be
        neither broadcast nor key-addressed; destroys block/doc locality,
        so reassembly switches to the groupby plan automatically.
    """
    import ray.data as rd

    from ..state.weights import put_weights

    if media_ref is None and media_path is not None and media_mode == "store":
        media_ref = load_media_store(media_path)
    if weights_ref is None:
        weights_ref = put_weights()
    conc = concurrency or default_concurrency()

    # A *.lance docs path routes through the Lance reader when the lib is
    # present (import-guarded; BASELINE names a Lance table).
    from ..sources.lance_io import read_table_auto

    ds = read_table_auto(docs_path, override_num_blocks=conc * BLOCKS_PER_ACTOR)
    if pre_filter is not None:
        ds = ds.map_batches(pre_filter, batch_format="pyarrow")
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(normalize_text_spans, batch_format="pyarrow")
    if media_mode == "join":
        if media_path is None:
            raise ValueError("media_mode='join' requires media_path")
        media_ds = rd.read_parquet(media_path, columns=["media_ref", "data"])
        # split the CPU budget between the join's aggregator actors and the
        # OCR pool: both are fixed-size actor groups, and requesting
        # pool+aggregators > cluster CPUs deadlocks the streaming executor
        # (observed at 32 cpus: 30 OCR actors + 30 aggregators wedged)
        nparts = max(2, conc // 4)
        conc = max(1, conc - nparts - 2)
        ds = ds.join(
            media_ds,
            "left_outer",  # text rows (media_ref="") keep data=null
            num_partitions=nparts,
            on=("media_ref",),
        )
        media_ref = {}  # actors read the joined "data" column
        reassemble = "shuffle"  # the join destroyed doc-block locality
    if fused:
        ds = ds.map_batches(
            OcrStage,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=conc,
            num_cpus=1,
            fn_constructor_kwargs={
                "weights_ref": weights_ref,
                "media_ref": media_ref,
                "config": config,
            },
        )
    else:
        det_conc = max(1, conc // 2)
        rec_conc = max(1, conc - det_conc)
        ds = ds.map_batches(
            DetStage,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=det_conc,
            num_cpus=1,
            fn_constructor_kwargs={
                "weights_ref": weights_ref,
                "media_ref": media_ref,
                "config": config,
            },
        )
        ds = ds.map_batches(
            RecStage,
            batch_format="pyarrow",
            batch_size=max(batch_size * 4, 64),
            concurrency=rec_conc,
            num_cpus=1,
            fn_constructor_kwargs={
                "weights_ref": weights_ref,
                "config": config,
            },
        )
    if reassemble == "none":
        # raw post-OCR rows (full OCR_OUT_SCHEMA incl box/prob), no
        # projection, no reassembly — the regions-table building block
        return ds
    ds = ds.select_columns(
        ["doc_id", "offset", "region_idx", "kind", "text", "media_ref",
         "span_idx", "n_spans"]
    )
    if reassemble == "local":
        # zero-shuffle: documents are block-contiguous by construction
        # (one input row per doc + order-preserving map stages); see
        # stages/reassemble.py for the guarantee
        return ds.map_batches(reassemble_block, batch_format="pyarrow", batch_size=None)
    return ds.groupby("doc_id").map_groups(reassemble_group, batch_format="pyarrow")


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

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
no shuffle join for the sidecar.
"""

from __future__ import annotations

import pyarrow.parquet as pq

from ..functions.ocr import OcrConfig
from ..stages.ocr_stage import OcrStage
from ..stages.reassemble import reassemble_block, reassemble_group
from ..stages.spans import explode_spans, normalize_text_spans

# The block is the unit of OCR work: the OCR stage takes each block whole
# (``batch_size=None``), one actor call per block. Splitting the read into
# ~8 blocks per actor keeps the pool busy in many waves (no straggler tail
# from media-heavy blocks); the count scales with the pool, not the data size.
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


def pool_resources(
    cap: int | None = None, concurrency: int | None = None
) -> tuple[int, float]:
    """``(actors, num_cpus per actor)`` of an actor pool on this cluster;
    every actor-pool ``map_batches`` in the library takes its size from here.

    By default a pool runs ``cpus - 1`` actors, at most ``cap``; an explicit
    ``concurrency`` overrides both. However many actors there are, together
    they claim at most ``cpus - 2`` logical CPUs (``min(1, (cpus - 2) / n)``
    each, rounded down to Ray's 1e-4 resource unit), so the read operator and
    the task operator after the pool each keep one whole CPU. Ray Data
    reserves CPUs upstream first: a pool that claims ``cpus - 1`` whole CPUs
    leaves the last operator without its minimum, so it runs only when
    backpressure lifts or the executor's 10 s idle detector lets a task
    through. The OCR actors are CPU-bound and the tasks around
    them nearly idle, so ``cpus - 1`` processes on ``cpus - 2`` CPUs of
    accounting keep every core busy.

    At two CPUs or fewer the pool is one whole-CPU actor. An explicit pool
    of more actors than cluster CPUs (more than one at two CPUs or fewer)
    cannot run without starving the tasks around it or time-sharing cores,
    so it raises ``ValueError`` here instead of hanging the executor.

    Sizing a pool first runs Python's cyclic GC on the driver. Ray Data
    ends a finished pool by dropping its actor handles, not by killing the
    actors, and Ray's handles sit in reference cycles: until a collection
    runs, the old actors keep their CPUs, and a new pool waits for them
    until the raylet asks the driver to collect (observed ~15 s later).
    """
    import gc

    import ray

    gc.collect()
    cpus = int(ray.cluster_resources().get("CPU", 4))
    if concurrency is None:
        n = cpus - 1 if cpus > 2 else 1
        if cap is not None:
            n = min(n, cap)
    else:
        n = concurrency
        limit = cpus if cpus > 2 else 1
        if not 1 <= n <= limit:
            raise ValueError(
                f"concurrency={n} does not fit a cluster of {cpus} CPUs: "
                f"an actor pool here takes 1 to {limit} actors"
            )
    if cpus <= 2:
        return n, 1.0
    return n, min(1.0, (cpus - 2) * 10_000 // n / 10_000)


def default_concurrency() -> int:
    """Actor count of the default OCR pool: ``cpus - 1`` (one at two CPUs or
    fewer), sharing ``cpus - 2`` CPUs; see :func:`pool_resources`."""
    return pool_resources()[0]


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

    ``concurrency``: OCR actors (default :func:`default_concurrency`); their
    CPU share, and the ``ValueError`` for a pool that does not fit, come
    from :func:`pool_resources`.

    ``batch_size``: rows per OCR actor call. The default ``None`` hands each
    actor a whole block (see ``BLOCKS_PER_ACTOR``), so the per-call cost is
    paid once per block, not once per few rows.
    """
    from ..state.weights import put_weights

    conc, actor_cpus = pool_resources(concurrency=concurrency)
    if media_ref is None and media_path is not None:
        media_ref = load_media_store(media_path)
    if weights_ref is None:
        weights_ref = put_weights()

    # A *.lance docs path routes through the Lance reader when the lib is
    # present (import-guarded; BASELINE names a Lance table).
    from ..sources.lance_io import read_table_auto

    ds = read_table_auto(docs_path, override_num_blocks=conc * BLOCKS_PER_ACTOR)
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(normalize_text_spans, batch_format="pyarrow")
    ds = ds.map_batches(
        OcrStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=conc,
        num_cpus=actor_cpus,
        fn_constructor_kwargs={
            "weights_ref": weights_ref,
            "media_ref": media_ref,
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

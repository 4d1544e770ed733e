"""The OCR stage — a warm class run per worker process.

:class:`OcrStage` runs decode -> det -> DB post -> sort -> crop -> cls ->
rec -> CTC in one call (``OcrEngine``), with no decoded images or crops
shipped through the object store, and builds its output rows with
:func:`emit_rows`. ``stages.warm.map_stage`` builds it once per Ray worker
process and runs it inside the pass's one fused task operator.

Weights arrive as a ``ray.put`` ObjectRef loaded once per process, like the
reference's load-once-per-process ``OCRer.__init__``
(deploy/pytorch/run_ocr.py:51-165). Media payloads are looked up inside the
workers: by default from a sharded parquet store each one reads lazily
(:class:`ShardedMediaStore`); a small single-file sidecar is a broadcast
dict. Only media rows are iterated in Python, each a full model inference.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ocr import OcrConfig, OcrEngine
from ..functions.png import decode_gray
from ..state.weights import build_weights

OCR_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("offset", pa.int32()),
        ("region_idx", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("prob", pa.float32()),
        ("box", pa.list_(pa.int16())),
        ("span_idx", pa.int32()),
        ("n_spans", pa.int32()),
    ]
)

# a media span with no regions (missing payload, undecodable, no text) emits
# ONE tombstone row with this region_idx so the doc's span lineage stays
# complete for the reassembly guard; reassembly filters tombstones after it
TOMBSTONE_REGION = -1


def _get(maybe_ref):
    import ray

    if isinstance(maybe_ref, ray.ObjectRef):
        return ray.get(maybe_ref)
    return maybe_ref


class ShardedMediaStore:
    """Worker-side lazy payload store over a sharded parquet directory.

    ``media_ref`` encodes its shard ("img-<docidx>-<k>", shard = docidx
    rounded down to shard_size) — the same contract as object storage where
    the key embeds the partition. Each worker reads only the shards its doc
    rows touch (blocks are contiguous doc ranges, so the small LRU hits
    almost always), instead of the driver broadcasting every payload. This
    is the 100 TB-safe path; the broadcast dict remains for small sidecars.
    """

    def __init__(
        self,
        media_dir: str,
        shard_size: int,
        cache_shards: int = 4,
        value_col: str = "data",
    ):
        self.dir = media_dir
        self.shard_size = shard_size
        self.cache_shards = cache_shards
        self.value_col = value_col  # "data" for payloads, "regions" for GT
        self._cache: "dict[str, dict[str, bytes]]" = {}
        self._order: list[str] = []

    def get(self, ref: str) -> bytes | None:
        import os

        import pyarrow.parquet as pq

        try:
            di = int(ref.split("-")[1])
        except (IndexError, ValueError):
            return None
        lo = di - di % self.shard_size
        path = os.path.join(self.dir, f"part-{lo:08d}.parquet")
        d = self._cache.get(path)
        if d is None:
            if not os.path.exists(path):
                return None
            t = pq.read_table(path, columns=["media_ref", self.value_col])
            d = dict(zip(t["media_ref"].to_pylist(), t[self.value_col].to_pylist()))
            self._cache[path] = d
            self._order.append(path)
            while len(self._order) > self.cache_shards:
                self._cache.pop(self._order.pop(0), None)
        return d.get(ref)


def make_media_lookup(media_ref):
    """media_ref may be: None, a dict, a ray.ObjectRef of a dict, or a
    sharded-store descriptor {"dir": ..., "shard_size": ...}."""
    if media_ref is None:
        empty: dict[str, bytes] = {}
        return empty.get
    if isinstance(media_ref, dict) and "dir" in media_ref:
        return ShardedMediaStore(
            media_ref["dir"], int(media_ref["shard_size"])
        ).get
    return _get(media_ref).get


def media_mask(batch: pa.Table) -> np.ndarray:
    """Which rows of the batch are media spans (bool per row)."""
    return pc.equal(batch["kind"], "media").to_numpy(zero_copy_only=False)


def _media_images(batch: pa.Table, is_media: np.ndarray, lookup):
    """Decoded grayscale image, or None, for each media row of the batch,
    its payload from ``lookup(media_ref)``. A missing payload or
    undecodable bytes give None (the DecodeImage drop contract)."""
    pos = np.flatnonzero(is_media)
    for ref in batch["media_ref"].take(pos).to_pylist() if len(pos) else ():
        data = lookup(ref)
        yield decode_gray(data) if data is not None else None


# input columns copied to every output row of the input row
_CARRIED = ("doc_id", "offset", "kind", "span_idx", "n_spans")


def emit_rows(
    batch: pa.Table, is_media: np.ndarray, regions: list[list[tuple]]
) -> pa.Table:
    """Build the stage's output table (``OCR_OUT_SCHEMA``) from its input.

    ``is_media`` is :func:`media_mask` of the batch; ``regions[k]`` is
    ``OcrEngine.ocr_image``'s result for its k-th media row, a
    ``(box, text, prob)`` per region in reading order.
    In input order, a non-media row passes through (region_idx 0, media_ref
    ""), a media row becomes its regions, and a media row without any (no
    payload, undecodable, no text) becomes ONE ``TOMBSTONE_REGION`` row,
    which keeps the doc's span lineage complete for the reassembly guard.
    Input columns are moved with Arrow; Python only touches region rows.
    """
    n = batch.num_rows
    if "span_idx" not in batch.schema.names:
        zeros = pa.array(np.zeros(n, dtype=np.int32))
        batch = batch.append_column("span_idx", zeros).append_column("n_spans", zeros)
    n_regions = np.array([len(rs) for rs in regions], dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    counts[is_media] = np.maximum(n_regions, 1)
    src = np.repeat(np.arange(n), counts)
    n_out = len(src)
    taken = batch.select(_CARRIED + ("media_ref", "text"))
    if n_out != n:
        taken = taken.take(src)
    out_media = is_media[src]
    # output position of every region row, in region order, and its index
    # within its image
    first = np.repeat((np.cumsum(counts) - counts)[is_media], n_regions)
    within = np.arange(len(first)) - np.repeat(np.cumsum(n_regions) - n_regions, n_regions)
    region_pos = (first + within).tolist()
    flat = [r for rs in regions for r in rs]
    cols = {name: taken[name] for name in _CARRIED}
    ridx = np.where(out_media, TOMBSTONE_REGION, 0).astype(np.int32)
    ridx[region_pos] = within
    cols["region_idx"] = pa.array(ridx)
    # Arrow kernels release the GIL, which costs a thread switch in a busy
    # worker process: a batch without media rows makes none here
    cols["media_ref"] = pa.array([""] * n_out, pa.string())
    cols["text"] = taken["text"]
    cols["prob"] = pa.nulls(n_out, pa.float32())
    cols["box"] = pa.nulls(n_out, pa.list_(pa.int16()))
    if out_media.any():  # media rows read "" unless a region says otherwise
        cols["media_ref"] = pc.if_else(pa.array(out_media), taken["media_ref"], "")
        text: list = [None] * n_out
        for pos in np.flatnonzero(out_media).tolist():
            text[pos] = ""
        prob: list = [None] * n_out
        box: list = [None] * n_out
        for pos, (b, t, p) in zip(region_pos, flat):
            box[pos], text[pos], prob[pos] = b.reshape(-1).tolist(), t, p
        cols["text"] = pc.coalesce(pa.array(text, pa.string()), cols["text"])
        cols["prob"] = pa.array(prob, pa.float32())
        cols["box"] = pa.array(box, pa.list_(pa.int16()))
    return pa.Table.from_arrays(
        [cols[name] for name in OCR_OUT_SCHEMA.names], schema=OCR_OUT_SCHEMA
    )


class OcrStage:
    """Fused decode+det+post+crop+cls+rec stage. Input: exploded span rows;
    output: text rows passed through + one row per OCR'd region."""

    def __init__(self, weights_ref=None, media_ref=None, config: OcrConfig | None = None):
        w = _get(weights_ref) if weights_ref is not None else build_weights()
        self.engine = OcrEngine(w, config)
        self.lookup = make_media_lookup(media_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_media = media_mask(batch)
        regions = [
            self.engine.ocr_image(gray) if gray is not None else []
            for gray in _media_images(batch, is_media, self.lookup)
        ]
        return emit_rows(batch, is_media, regions)

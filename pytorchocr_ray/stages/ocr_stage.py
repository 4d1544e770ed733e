"""Stateful OCR stages (actor pools) — the map_batches callable classes.

Two physical plans over the same engine steps (``OcrEngine``) and the same
row emitter (:func:`emit_rows`):

* **Fused** (:class:`OcrStage`, the default): decode -> det -> DB post ->
  sort -> crop -> cls -> rec -> CTC in one actor pool, with no decoded
  images or crops shipped through the object store.
* **Split** (:class:`DetStage` + :class:`RecStage`): det actors emit crop
  rows, rec actors consume them — the reference's GPU-pool split
  (SURVEY.md §2.4), for det and rec on different resources, at the cost
  of crop traffic between the pools.

Weights arrive as a ``ray.put`` ObjectRef loaded once per actor, like the
reference's load-once-per-process ``OCRer.__init__``
(deploy/pytorch/run_ocr.py:51-165). Media payloads are looked up inside the
actors: by default from a sharded parquet store each actor reads lazily
(:class:`ShardedMediaStore`); a small single-file sidecar is a broadcast
dict; ``media_mode="join"`` delivers them inline as a ``data`` column.
Only media rows are iterated in Python, each a full model inference.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ocr import OcrConfig, OcrEngine
from ..functions.png import decode_gray, encode_gray
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

# DetStage -> RecStage rows: OCR_OUT_SCHEMA without prob, plus the crop
DET_OUT_SCHEMA = pa.schema(
    [f for f in OCR_OUT_SCHEMA if f.name not in ("prob", "span_idx", "n_spans")]
    + [("crop", pa.binary()), ("crop_h", pa.int32()), ("crop_w", pa.int32())]
    + [OCR_OUT_SCHEMA.field("span_idx"), OCR_OUT_SCHEMA.field("n_spans")]
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


def _make_engine(weights_ref, config: OcrConfig | None) -> OcrEngine:
    w = _get(weights_ref) if weights_ref is not None else build_weights()
    return OcrEngine(w, config)


class ShardedMediaStore:
    """Actor-side lazy payload store over a sharded parquet directory.

    ``media_ref`` encodes its shard ("img-<docidx>-<k>", shard = docidx
    rounded down to shard_size) — the same contract as object storage where
    the key embeds the partition. Each actor reads only the shards its doc
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


def _media_values(batch: pa.Table, is_media: np.ndarray, *names: str) -> list[list | None]:
    """The named columns' values on the batch's media rows only, in row
    order (None for a column the batch lacks)."""
    have = [n for n in names if n in batch.schema.names]
    pos = np.flatnonzero(is_media)
    media = batch.select(have)
    media = media.take(pos) if len(pos) else media.slice(0, 0)
    return [media[n].to_pylist() if n in have else None for n in names]


def _media_images(batch: pa.Table, is_media: np.ndarray, lookup):
    """Decoded grayscale image, or None, for each media row of the batch.

    Payloads come from the inline ``data`` column when the batch has one
    (``media_mode="join"``), else from ``lookup(media_ref)``. A missing
    payload or undecodable bytes give None (the DecodeImage drop contract).
    """
    refs, inline = _media_values(batch, is_media, "media_ref", "data")
    for k, ref in enumerate(refs):
        data = inline[k] if inline is not None else lookup(ref)
        yield decode_gray(data) if data is not None else None


# input columns copied to every output row of the input row
_CARRIED = ("doc_id", "offset", "kind", "span_idx", "n_spans")


def emit_rows(
    batch: pa.Table, is_media: np.ndarray, regions: list[list[dict]], schema: pa.Schema
) -> pa.Table:
    """Build a stage's output table (``schema``) from its input batch.

    ``is_media`` is :func:`media_mask` of the batch; ``regions[k]`` lists
    the region rows of its k-th media row as dicts of the columns not taken
    from the input (``region_idx``, ``text``, ...; missing ones are null).
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
    # output position of every region row, in region order
    first = np.repeat((np.cumsum(counts) - counts)[is_media], n_regions)
    within = np.arange(len(first)) - np.repeat(np.cumsum(n_regions) - n_regions, n_regions)
    region_pos = (first + within).tolist()
    flat = [r for rs in regions for r in rs]
    cols = {name: taken[name] for name in _CARRIED}
    ridx = np.where(out_media, TOMBSTONE_REGION, 0).astype(np.int32)
    ridx[region_pos] = [r["region_idx"] for r in flat]
    cols["region_idx"] = pa.array(ridx)
    # Arrow kernels release the GIL, which costs a thread switch in a busy
    # actor process: a batch without media rows makes none here
    cols["media_ref"] = pa.array([""] * n_out, pa.string())
    cols["text"] = taken["text"]
    if out_media.any():  # media rows read "" unless a region says otherwise
        cols["media_ref"] = pc.if_else(pa.array(out_media), taken["media_ref"], "")
        vals = [None] * n_out
        for pos in np.flatnonzero(out_media).tolist():
            vals[pos] = ""
        for pos, r in zip(region_pos, flat):
            vals[pos] = r["text"]
        cols["text"] = pc.coalesce(pa.array(vals, pa.string()), cols["text"])
    for name in schema.names:
        if name not in cols:
            typ = schema.field(name).type
            vals = [None] * n_out
            for pos, r in zip(region_pos, flat):
                vals[pos] = r.get(name)
            cols[name] = pa.array(vals, typ) if flat else pa.nulls(n_out, typ)
    return pa.Table.from_arrays([cols[name] for name in schema.names], schema=schema)


class OcrStage:
    """Fused decode+det+post+crop+cls+rec actor. Input: exploded span rows;
    output: text rows passed through + one row per OCR'd region."""

    def __init__(self, weights_ref=None, media_ref=None, config: OcrConfig | None = None):
        from ..state.bench_counter import counter_enabled, try_get

        self.engine = _make_engine(weights_ref, config)
        self.lookup = make_media_lookup(media_ref)
        # bench-only per-image CPU accounting (None in production runs)
        self._counter = try_get() if counter_enabled() else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time

        cpu0 = time.process_time() if self._counter is not None else 0.0
        n_images = 0
        is_media = media_mask(batch)
        regions = []
        for gray in _media_images(batch, is_media, self.lookup):
            found = []
            if gray is not None:
                n_images += 1
                found = self.engine.ocr_image(gray)
            regions.append(
                [
                    {"region_idx": r, "text": text, "prob": prob,
                     "box": box.reshape(-1).tolist()}
                    for r, (box, text, prob) in enumerate(found)
                ]
            )
        if self._counter is not None and n_images:
            # awaited: a fire-and-forget add could land after the bench's
            # read_and_reset (or be lost at actor-pool teardown). Cost: one
            # ~0.2 ms actor RPC per ~100 ms batch, bench-mode only.
            import ray

            ray.get(self._counter.add.remote(time.process_time() - cpu0, n_images))
        return emit_rows(batch, is_media, regions, OCR_OUT_SCHEMA)


class DetStage:
    """Split plan, stage 1: media rows -> one crop row per detected region
    (crop: PNG bytes, crop_h, crop_w); text rows pass through with null crop
    fields. Crops are PNG-compressed before leaving the actor: raw uint8
    ships ~26x more bytes through the det->rec exchange, and encode+decode
    costs ~0.1 ms per crop."""

    def __init__(self, weights_ref=None, media_ref=None, config: OcrConfig | None = None):
        self.engine = _make_engine(weights_ref, config)
        self.lookup = make_media_lookup(media_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_media = media_mask(batch)
        regions = []
        for gray in _media_images(batch, is_media, self.lookup):
            rows = []
            for r, box in enumerate(self.engine.detect(gray) if gray is not None else ()):
                crop = self.engine.crop_region(gray, box)
                rows.append(
                    {"region_idx": r, "text": "", "box": box.reshape(-1).tolist(),
                     "crop": encode_gray(crop), "crop_h": crop.shape[0],
                     "crop_w": crop.shape[1]}
                )
            regions.append(rows)
        return emit_rows(batch, is_media, regions, DET_OUT_SCHEMA)


class RecStage:
    """Split plan, stage 2: crop rows -> recognized rows (OCR_OUT_SCHEMA)."""

    def __init__(self, weights_ref=None, config: OcrConfig | None = None):
        self.engine = _make_engine(weights_ref, config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_media = media_mask(batch)
        regions = []
        for r, box, data, h, w in zip(
            *_media_values(batch, is_media, "region_idx", "box", "crop", "crop_h", "crop_w")
        ):
            if r == TOMBSTONE_REGION:
                regions.append([])
                continue
            crop = decode_gray(data)
            assert crop is not None and crop.shape == (h, w)
            text, prob = self.engine.recognize_crop(crop)
            regions.append([{"region_idx": r, "text": text, "prob": prob, "box": box}])
        return emit_rows(batch, is_media, regions, OCR_OUT_SCHEMA)

"""Image near-duplicate detection via perceptual difference-hash (dHash).

The multimodal twin of the text dedup family (``ops/dedup.py``): every
media payload (grayscale PNG) is reduced to a 64-bit dHash — an 8x8 grid
of left-vs-right block-brightness comparisons over a 8-row x 9-column
block-mean downscale — then (a) exact-hash groups are flagged with the
keep-first rule (:func:`image_dhash_dups`, like ``dedup_exact``) and
(b) NEAR-duplicate pairs at Hamming 1..3 are found by 16-bit LSH banding
(:func:`image_dhash_near`, like ``simhash_pairs``).

Determinism / parity: the downscale uses integer block SUMS and the
brightness comparison is the cross-multiplied integer inequality
``sum_l * area_r > sum_r * area_l`` (no float division anywhere), so two
independent implementations agree bit-for-bit.  The SQL twin reads a
fixture parquet of per-image hashes computed by an INDEPENDENT
single-process oracle (integral-image corner arithmetic + Python-int
compares, :func:`_oracle_dhash`) — the same fixture pattern as the
extraction ground truth and the IVF centroid tables — and performs the
duplicate grouping in SQL; a hash-verified match therefore checks BOTH
the engine's decode+hash kernel against the oracle's and the distributed
grouping against SQL semantics.

Scale shape: decode+hash is a warm-stage task ``map_batches`` over the
sharded media table (payload bytes never shuffle); the only exchange is
the ``co_partition`` on the 8-byte hash.  The synthetic corpus has no planted
byte-duplicates, so on testdata the groups are singletons (the kernel
parity is the verified substance there); the grouping logic is exercised
by the planted-duplicate unit test.

No reference analog: the reference has no dedup at all (SURVEY §2.9).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import co_partition

DHASH_ROWS = 8
DHASH_COLS = 9  # 8 comparisons per row -> 64 bits
_MIN_H, _MIN_W = DHASH_ROWS, DHASH_COLS
DHASH_EMPTY = -1  # sentinel for undecodable / sub-grid images (both sides)


def _bounds(n: int, parts: int) -> np.ndarray:
    """Integer block boundaries [floor(i*n/parts) for i in 0..parts]."""
    return (np.arange(parts + 1, dtype=np.int64) * n) // parts


def dhash_gray(img: np.ndarray) -> int:
    """Engine kernel: vectorized 64-bit dHash of a uint8 grayscale image.

    Two ``np.add.reduceat`` passes produce the 8x9 block-sum grid; the
    bit for (row i, cols j|j+1) is the exact integer cross-multiply
    ``sum_l * area_r > sum_r * area_l`` (area-weighted mean compare with
    no division).  Images smaller than the grid hash to DHASH_EMPTY.
    """
    h, w = img.shape
    if h < _MIN_H or w < _MIN_W:
        return DHASH_EMPTY
    rb = _bounds(h, DHASH_ROWS)
    cb = _bounds(w, DHASH_COLS)
    rs = np.add.reduceat(img.astype(np.int64), rb[:-1], axis=0)
    cs = np.add.reduceat(rs, cb[:-1], axis=1)  # (8, 9) block sums
    areas = np.outer(np.diff(rb), np.diff(cb))  # (8, 9) block pixel counts
    left = cs[:, :-1] * areas[:, 1:]
    right = cs[:, 1:] * areas[:, :-1]
    bits = (left > right).reshape(-1)
    val = (bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(
        dtype=np.uint64
    )
    return int(val.view(np.int64))  # two's-complement int64 view


def _oracle_dhash(img: np.ndarray) -> int:
    """Independent single-process twin of :func:`dhash_gray`: block sums
    from an INTEGRAL IMAGE (2-D prefix sum + four-corner arithmetic) and
    per-bit Python-int cross-multiplies — a different algorithm arriving
    at the same exact integers."""
    h, w = img.shape
    if h < _MIN_H or w < _MIN_W:
        return DHASH_EMPTY
    ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    ii[1:, 1:] = np.cumsum(np.cumsum(img.astype(np.int64), axis=0), axis=1)
    rb = [(i * h) // DHASH_ROWS for i in range(DHASH_ROWS + 1)]
    cb = [(j * w) // DHASH_COLS for j in range(DHASH_COLS + 1)]

    def cell(i: int, j: int) -> tuple[int, int]:
        r0, r1, c0, c1 = rb[i], rb[i + 1], cb[j], cb[j + 1]
        s = int(ii[r1, c1]) - int(ii[r0, c1]) - int(ii[r1, c0]) + int(ii[r0, c0])
        return s, (r1 - r0) * (c1 - c0)

    val = 0
    bit = 0
    for i in range(DHASH_ROWS):
        for j in range(DHASH_COLS - 1):
            sl, al = cell(i, j)
            sr, ar = cell(i, j + 1)
            if sl * ar > sr * al:
                val |= 1 << bit
            bit += 1
    if val >= 1 << 63:
        val -= 1 << 64  # int64 two's-complement view, matching the engine
    return val


def _media_files(media_dir: str) -> list[str]:
    import os

    if os.path.isfile(media_dir):
        return [media_dir]
    return [
        os.path.join(media_dir, f)
        for f in sorted(os.listdir(media_dir))
        if f.endswith(".parquet")
    ]


def oracle_dhash_fixture(media_dir: str) -> str:
    """Run the independent oracle over the media table -> fixture parquet
    (media_ref, dhash), cached by :func:`~..state.cache.cached_parquet` on
    the module source and the media files' size and mtime (regeneration
    busts it)."""
    import pyarrow.parquet as pq

    from ..state import cache

    files = _media_files(media_dir)

    def make_table() -> pa.Table:
        from ..functions.png import decode_gray

        refs: list[str] = []
        hashes: list[int] = []
        for f in files:
            t = pq.read_table(f, columns=["media_ref", "data"])
            for ref, data in zip(t["media_ref"].to_pylist(), t["data"].to_pylist()):
                img = decode_gray(data)
                refs.append(ref)
                hashes.append(DHASH_EMPTY if img is None else _oracle_dhash(img))
        return pa.table({"media_ref": pa.array(refs), "dhash": pa.array(hashes, pa.int64())})

    return cache.cached_parquet("dhash", make_table, (), (__file__,), cache.stat_sig(*files))


class DHashStage:
    """Decode+hash stage (batch in -> per-image decode, vectorized hash
    kernel per image), run like ``OcrStage`` through
    :func:`~..stages.warm.map_stage`, so it fuses with the read."""

    def __init__(self) -> None:
        from ..functions.png import decode_gray

        self._decode = decode_gray

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"].to_pylist()
        out = np.empty(len(refs), dtype=np.int64)
        for i, data in enumerate(batch["data"].to_pylist()):
            img = self._decode(data)
            out[i] = DHASH_EMPTY if img is None else dhash_gray(img)
        return pa.table(
            {"media_ref": pa.array(refs), "dhash": pa.array(out)}
        )


def image_dhash(
    media_dir: str, concurrency: int | None = None, batch_size: int = 64
):
    """(media_ref, dhash) over a media parquet table/dir — the hash pass
    alone (no shuffle), on ``concurrency`` workers
    (:func:`~..stages.warm.map_stage`)."""
    import ray.data as rd

    from ..stages.warm import map_stage

    ds = rd.read_parquet(_media_files(media_dir))
    return map_stage(ds, DHashStage, batch_size=batch_size, concurrency=concurrency)


def image_dhash_dups(media_dir: str, concurrency: int | None = None):
    """(media_ref, dhash, group_n, is_dup): exact-dHash duplicate groups
    with the keep-first rule (lowest media_ref is the retained
    representative).  One co-partition on the 8-byte hash; each group
    closes out with one sort by (dhash, media_ref), group sizes and
    keep-first flags coming from the hash-run boundaries."""
    import pandas as pd

    def mark(hashes: pd.DataFrame) -> pd.DataFrame:
        g = hashes.sort_values(["dhash", "media_ref"], kind="mergesort")
        h = g["dhash"].to_numpy(np.int64)
        first = np.ones(len(h), dtype=bool)
        first[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(first)
        run_n = np.diff(np.append(starts, len(h)))
        return pd.DataFrame(
            {
                "media_ref": g["media_ref"].to_numpy(object),
                "dhash": h,
                "group_n": np.repeat(run_n, run_n),
                "is_dup": (~first).astype(np.int64),
            }
        )

    return co_partition(
        mark,
        hashes=(
            image_dhash(media_dir, concurrency=concurrency),
            "dhash",
            {"media_ref": pa.string(), "dhash": pa.int64()},
        ),
    )


def image_dhash_dups_sql(media_dir: str) -> str:
    """DuckDB twin: the independent oracle's per-image hashes (fixture
    parquet) + SQL window grouping."""
    path = oracle_dhash_fixture(media_dir)
    return f"""
SELECT media_ref, dhash,
       CAST(count(*) OVER (PARTITION BY dhash) AS BIGINT) AS group_n,
       CAST(row_number() OVER (PARTITION BY dhash ORDER BY media_ref) > 1
            AS BIGINT) AS is_dup
FROM read_parquet('{path}')
"""


# ------------------------------------------------ near-dup (Hamming band)
#
# Perceptual NEAR-duplicate FLAGS: an image is a near-dup when another
# image with a SMALLER media_ref sits within Hamming 1..max_hamming on
# the 64-bit dHash (hamming 0 == perceptual-identical is
# image_dhash_dups' answer and is EXCLUDED here; the smallest ref of a
# near set is its retained representative — the keep-first rule used by
# every dedup op in this engine).  LSH banding: 4 bands of 16 bits — any
# pair within hamming <= 3 agrees exactly on >= 1 band (pigeonhole), so
# banding has full recall at the threshold.
#
# Output is ONE ROW PER IMAGE, not pairs: measured on the synthetic
# corpus, raw pair output is quadratic (1795 images -> 545k pairs at
# hamming <= 3 — glyph renders produce low-entropy hashes), which at
# 10^8 images is an output-mass explosion no matter how the enumeration
# is bounded.  Flags keep the result linear while the in-bucket work
# stays bounded by the guards below.
#
# dHash bands on structured images are HEAVILY skewed (75% of the
# synthetic corpus shares one band-3 key: near-uniform bottom image rows
# all compare equal), so in-bucket enumeration needs two guards, both
# SQL-mirrored exactly:
#   1. a (band, key) bucket over ``bucket_cap`` is split by the 16 bits
#      of the complementary band ((b+2) % 4) — same recall caveat as
#      simhash_pairs (a <= max_hamming pair survives unless its
#      differing bits hit the complement of every agreeing band);
#   2. a (band, key, key2) bucket STILL over the cap is dropped and
#      counted (the n-gram df-cap precedent): these are degenerate
#      perceptual pileups (near-flat images) whose quadratic pair mass
#      is spam you'd prune upstream at web scale; the skip is logged.

NEAR_BANDS = 4
NEAR_BAND_BITS = 16
NEAR_BUCKET_CAP = 4096


def image_dhash_near(
    media_dir: str,
    max_hamming: int = 3,
    bucket_cap: int = NEAR_BUCKET_CAP,
    concurrency: int | None = None,
):
    """(media_ref, dhash, near_dup): near_dup = 1 iff another image with
    a smaller media_ref sits within Hamming 1..max_hamming (see module
    note — flags, not pairs, keep the output linear).  Undecodable /
    sub-grid images (dhash == DHASH_EMPTY) are excluded.  One
    band-exploded co-partition on the (band, key, key2) bucket whose rows
    are <= ~40 bytes; payload bytes never shuffle; the per-image
    cross-band union is a second co-partition on media_ref."""
    import logging

    import pandas as pd
    import ray

    from .dedup import hot_buckets

    # materialize the (media_ref, dhash) table ONCE: it is consumed twice
    # (hot-bucket pre-pass + band explode) and re-deriving it would decode
    # every payload a second time — the decode dominates the op.  The
    # materialized table is ~40 bytes/row with NO payload bytes (4 GB at
    # 10^8 images, spread across the object store), so this is a bounded
    # materialize, not a corpus one.
    hashes = image_dhash(media_dir, concurrency=concurrency).materialize()
    mask16 = np.int64((1 << NEAR_BAND_BITS) - 1)

    def _keys(h: np.ndarray) -> np.ndarray:
        # arithmetic shift + mask extracts bits [16b, 16b+16) exactly as
        # DuckDB's (dhash >> lo) & 65535 (parity-checked on negatives)
        return np.stack(
            [(h >> np.int64(16 * b)) & mask16 for b in range(NEAR_BANDS)],
            axis=1,
        )

    # hot-bucket pre-pass: (band, key) histogram, bounded by the key
    # space (4 x 2^16 rows max) regardless of corpus size
    def band_keys(batch: pa.Table) -> np.ndarray:
        h = batch["dhash"].to_numpy()
        return _keys(h[h != DHASH_EMPTY])

    hot_ref = ray.put(hot_buckets(hashes, band_keys, bucket_cap))

    def explode(batch: pa.Table) -> pa.Table:
        h = batch["dhash"].to_numpy()
        keep = np.flatnonzero(h != DHASH_EMPTY)
        h = h[keep]
        n = len(h)
        keys = _keys(h)
        hot_ = ray.get(hot_ref)
        key2 = np.zeros((n, NEAR_BANDS), dtype=np.int64)
        for b in range(NEAR_BANDS):
            hk = hot_.get(b)
            if hk is None:
                continue
            sub = (h >> np.int64(16 * ((b + 2) % NEAR_BANDS))) & mask16
            is_hot = np.isin(keys[:, b], hk)
            key2[is_hot, b] = sub[is_hot]
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(NEAR_BANDS, dtype=np.int64), n)),
                "key": pa.array(keys.reshape(-1)),
                "key2": pa.array(key2.reshape(-1)),
                "media_ref": batch["media_ref"].take(np.repeat(keep, NEAR_BANDS)),
                "dhash": pa.array(np.repeat(h, NEAR_BANDS)),
            }
        )

    def bucket_flags(buckets: pd.DataFrame) -> pd.DataFrame:
        """All buckets of one group: sort by (bucket, media_ref), find
        segment boundaries, then per multi-member segment compute flags
        over the UNIQUE hash values only — a row is flagged iff some
        near (hamming 1..max) VALUE has an earlier min-ref, so identical
        hashes (the dominant mass in a perceptual-hash pileup: at sf0.1
        ~3 images share each hash) collapse before the quadratic
        XOR-popcount, turning n^2 per bucket into U^2 (semantics
        unchanged: hamming 0 is excluded either way).  This kernel cut
        the sf0.1 reading ~5x."""
        from .dedup import _popcount32

        g = buckets.sort_values(
            ["band", "key", "key2", "media_ref"], kind="stable"
        )
        band = g["band"].to_numpy(np.int64)
        key = g["key"].to_numpy(np.int64)
        key2 = g["key2"].to_numpy(np.int64)
        refs = g["media_ref"].to_numpy(object)
        h = g["dhash"].to_numpy(np.int64)
        n = len(g)
        flags = np.zeros(n, dtype=np.int64)
        if n:
            change = np.empty(n, dtype=bool)
            change[0] = True
            change[1:] = (
                (band[1:] != band[:-1])
                | (key[1:] != key[:-1])
                | (key2[1:] != key2[:-1])
            )
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], n)
            for s, e in zip(starts, ends):
                m = e - s
                if m <= 1:
                    continue
                if m > bucket_cap:  # guard 2: degenerate pileup
                    logging.getLogger(__name__).info(
                        "image_dhash_near: dropping degenerate bucket "
                        "of %d images",
                        m,
                    )
                    continue
                hs = h[s:e]
                # rows are ref-sorted, so np.unique's first-occurrence
                # index IS the min-ref position of each value
                uh, first_pos = np.unique(hs, return_index=True)
                u = len(uh)
                if u <= 1:
                    continue  # all identical: hamming 0 only, no flags
                inv = np.searchsorted(uh, hs)
                uu = uh.view(np.uint64)
                near_min = np.full(u, m, dtype=np.int64)
                for lo in range(0, u, 1024):
                    hi = min(lo + 1024, u)
                    x = uu[lo:hi, None] ^ uu[None, :]
                    ham = _popcount32(
                        (x & np.uint64(0xFFFFFFFF)).astype(np.uint32)
                    ) + _popcount32((x >> np.uint64(32)).astype(np.uint32))
                    fp = np.where(
                        (ham >= 1) & (ham <= max_hamming),
                        first_pos[None, :],
                        m,
                    )
                    near_min[lo:hi] = fp.min(axis=1)
                # flagged iff a near value's min-ref row precedes this row
                flags[s:e] = np.maximum(
                    flags[s:e],
                    (np.arange(m, dtype=np.int64) > near_min[inv]).astype(
                        np.int64
                    ),
                )
        return pd.DataFrame({"media_ref": refs, "dhash": h, "near_dup": flags})

    def union_flags(flags: pd.DataFrame) -> pd.DataFrame:
        return flags.groupby("media_ref", as_index=False).agg(
            dhash=("dhash", "min"), near_dup=("near_dup", "max")
        )

    flags = co_partition(
        bucket_flags,
        buckets=(
            hashes.map_batches(explode, batch_format="pyarrow"),
            ["band", "key", "key2"],
            {"band": pa.int64(), "key": pa.int64(), "key2": pa.int64(),
             "media_ref": pa.string(), "dhash": pa.int64()},
        ),
    )
    # union across bands: flagged anywhere -> flagged (dhash is constant
    # per ref, min keeps it verbatim).  A co-partition on media_ref, not
    # Ray's sort aggregate on the string key: that measured 21 s of a
    # 30 s sf0.1 run, the co-partition + pandas groupby ~1 s
    return co_partition(
        union_flags,
        flags=(flags, "media_ref",
               {"media_ref": pa.string(), "dhash": pa.int64(), "near_dup": pa.int64()}),
    )


def image_dhash_near_sql(
    media_dir: str,
    max_hamming: int = 3,
    bucket_cap: int = NEAR_BUCKET_CAP,
) -> str:
    """DuckDB twin over the independent-oracle fixture hashes, mirroring
    BOTH hot-bucket guards via window counts and the keep-first flag via
    a banded self-join EXISTS."""
    path = oracle_dhash_fixture(media_dir)
    band_rows = ", ".join(
        f"({b}, {16 * b}, {16 * ((b + 2) % NEAR_BANDS)})"
        for b in range(NEAR_BANDS)
    )
    return f"""
WITH h AS (SELECT media_ref, dhash FROM read_parquet('{path}')
           WHERE dhash != {DHASH_EMPTY}),
bands(band, lo, lo2) AS (VALUES {band_rows}),
b0 AS (SELECT media_ref, dhash, band, lo2,
              (dhash >> lo) & 65535 AS key
       FROM h CROSS JOIN bands),
b1 AS (SELECT media_ref, dhash, band, key,
              CASE WHEN count(*) OVER (PARTITION BY band, key)
                        > {bucket_cap}
                   THEN (dhash >> lo2) & 65535 ELSE 0 END AS key2
       FROM b0),
b AS (SELECT * FROM (
        SELECT media_ref, dhash, band, key, key2,
               count(*) OVER (PARTITION BY band, key, key2) AS bn
        FROM b1) WHERE bn <= {bucket_cap}),
flagged AS (
  SELECT DISTINCT x.media_ref
  FROM b x JOIN b y
    ON x.band = y.band AND x.key = y.key AND x.key2 = y.key2
   AND y.media_ref < x.media_ref
  WHERE bit_count(xor(x.dhash, y.dhash)) BETWEEN 1 AND {max_hamming})
SELECT h.media_ref, h.dhash,
       CAST(f.media_ref IS NOT NULL AS BIGINT) AS near_dup
FROM h LEFT JOIN flagged f USING (media_ref)
"""

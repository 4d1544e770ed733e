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
sharded media table (payload bytes never shuffle).  ``image_dhash_dups``'
only exchange is the ``co_partition`` on the 8-byte hash;
``image_dhash_near``'s are the shared banded-Hamming kernel's
(``dedup.hamming_buckets``: one ``co_partition`` on (band, key, key2),
plus a hot-bucket count only when the media hold more images than the
cap) and one ``reduce_by`` on media_ref.  The synthetic corpus has no
planted byte-duplicates, so on testdata the groups are singletons (the
kernel parity is the verified substance there); the grouping logic is
exercised by the planted-duplicate unit test.

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
# every dedup op in this engine).  LSH banding through the shared
# banded-Hamming kernel (``dedup.hamming_buckets``): 4 bands of 16 bits —
# any pair within hamming <= 3 agrees exactly on >= 1 band (pigeonhole),
# so banding has full recall at the threshold.
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
#      of the complementary band ((b+2) % 4) — the kernel's key2, with the
#      same recall caveat as simhash_pairs (a <= max_hamming pair survives
#      unless its differing bits hit the complement of every agreeing band);
#   2. a (band, key, key2) bucket STILL over the cap is dropped and
#      counted (the n-gram df-cap precedent): these are degenerate
#      perceptual pileups (near-flat images) whose quadratic pair mass
#      is spam you'd prune upstream at web scale; the skip is logged.

NEAR_BANDS = 4
NEAR_BUCKET_CAP = 4096
# dedup.hamming_buckets specs (word, lo, mask, word2, lo2): band b keys
# bits [16b, 16b+16) and splits when hot on band (b+2) % 4's bits
_NEAR_SPECS = [(0, 16 * b, 0xFFFF, 0, 16 * ((b + 2) % NEAR_BANDS)) for b in range(NEAR_BANDS)]


def image_dhash_near(
    media_dir: str,
    max_hamming: int = 3,
    bucket_cap: int = NEAR_BUCKET_CAP,
    concurrency: int | None = None,
):
    """(media_ref, dhash, near_dup): near_dup = 1 iff another image with
    a smaller media_ref sits within Hamming 1..max_hamming (see module
    note — flags, not pairs, keep the output linear).  Undecodable /
    sub-grid images (dhash == DHASH_EMPTY) are excluded.  The band explode
    and its (band, key, key2) co-partition are ``dedup.hamming_buckets``
    (rows <= ~40 bytes; payload bytes never shuffle; its hot-bucket count
    runs only when the media footers hold more than ``bucket_cap``
    images); the per-image union across bands is one ``reduce_by`` max on
    media_ref."""
    import logging

    import pandas as pd

    from . import footer_rows, reduce_by
    from .dedup import HAMMING_BUCKET, _bucket_pairs, hamming, hamming_buckets

    value = [*HAMMING_BUCKET, "dhash"]

    def flag(rows: pd.DataFrame) -> pd.DataFrame:
        """One flag per row, for every bucket of the group at once.  Each
        bucket collapses to its unique hash values, each carrying its
        min-ref row, before the quadratic XOR-popcount (identical hashes
        are the bulk of a perceptual-hash pileup: at sf0.1 ~3 images share
        each hash), so the pairs are U^2, not n^2, per bucket; a row is
        flagged iff a near (hamming 1..max) value of its bucket has a
        smaller min ref.  Rows of buckets over the cap get no flag
        (guard 2)."""
        fits = rows.groupby(HAMMING_BUCKET, sort=False)["dhash"].transform("size").to_numpy() <= bucket_cap
        if not fits.all():
            logging.getLogger(__name__).info(
                "image_dhash_near: dropping %d rows of degenerate buckets", int((~fits).sum()))
        g = rows[fits]
        ref = pd.factorize(g["media_ref"], sort=True)[0]  # ref order within the group
        uniq, val = np.unique(g[value].to_numpy(np.int64), axis=0, return_inverse=True)
        val = val.reshape(-1)
        first = np.full(len(uniq), len(g))
        np.minimum.at(first, val, ref)
        i, j = _bucket_pairs(pd.DataFrame(uniq, columns=value), HAMMING_BUCKET, id_col="dhash")
        d = hamming(uniq[:, -1:], i, j)
        near = (d >= 1) & (d <= max_hamming)
        i, j = i[near], j[near]
        near_min = np.full(len(uniq), len(g))
        np.minimum.at(near_min, i, first[j])
        np.minimum.at(near_min, j, first[i])
        flags = np.zeros(len(rows), dtype=np.int64)
        flags[fits] = ref > near_min[val]
        return pd.DataFrame({"media_ref": rows["media_ref"], "dhash": rows["dhash"], "near_dup": flags})

    hashes = image_dhash(media_dir, concurrency=concurrency).filter(expr=f"dhash != {DHASH_EMPTY}")
    flags = hamming_buckets(flag, hashes, ("media_ref", pa.string()), ["dhash"], _NEAR_SPECS,
                            bucket_cap, footer_rows(*_media_files(media_dir)))
    # flagged in any band -> flagged (dhash is constant per ref)
    return reduce_by(flags, "media_ref",
                     {"media_ref": pa.string(), "dhash": pa.int64(), "near_dup": pa.int64()}, "max")


def image_dhash_near_sql(
    media_dir: str,
    max_hamming: int = 3,
    bucket_cap: int = NEAR_BUCKET_CAP,
) -> str:
    """DuckDB twin over the independent-oracle fixture hashes, mirroring
    BOTH hot-bucket guards via window counts (``dedup.hamming_buckets_sql``
    and a per-(band, key, key2) count) and the keep-first flag via a
    banded self-join."""
    from .dedup import hamming_buckets_sql

    path = oracle_dhash_fixture(media_dir)
    buckets = hamming_buckets_sql("h", "media_ref, dhash", ["dhash"], _NEAR_SPECS, bucket_cap)
    return f"""
WITH h AS (SELECT media_ref, dhash FROM read_parquet('{path}')
           WHERE dhash != {DHASH_EMPTY}),
{buckets},
bb AS (SELECT * FROM (
        SELECT *, count(*) OVER (PARTITION BY band, key, key2) AS bn
        FROM b) WHERE bn <= {bucket_cap}),
flagged AS (
  SELECT DISTINCT x.media_ref
  FROM bb x JOIN bb y
    ON x.band = y.band AND x.key = y.key AND x.key2 = y.key2
   AND y.media_ref < x.media_ref
  WHERE bit_count(xor(x.dhash, y.dhash)) BETWEEN 1 AND {max_hamming})
SELECT h.media_ref, h.dhash,
       CAST(f.media_ref IS NOT NULL AS BIGINT) AS near_dup
FROM h LEFT JOIN flagged f USING (media_ref)
"""

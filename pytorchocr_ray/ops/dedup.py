"""Deduplication operators (exact, MinHash+LSH, SimHash, embedding cosine).

Scale shapes (ray_guide patterns, re-derived for this engine):
  * exact: vectorized content-hash per batch -> one exchange on the hash
    keeps the min-doc_id row (it carries (hash, doc_id) pairs only).
  * MinHash+LSH: shingle->minhash signature per batch (vectorized, one
    matmul-free universal-hash pass) -> explode to (band, band_hash) rows ->
    co-partition on the band bucket -> candidate pairs -> exact-Jaccard verify ->
    connected components -> representative per cluster.
  * SimHash: 4 x 31-bit signature words per doc; near-dup candidates via
    8 bands of 16/15 bits (the shared banded-Hamming kernel,
    :func:`hamming_buckets`, also behind imagededup.image_dhash_near),
    verified by XOR-popcount Hamming distance.
  * embedding cosine: random-hyperplane LSH buckets -> in-bucket cosine
    verify (the brute-force twin lives in ops/simsearch.py).

All hashes are process-stable AND SQL-expressible: the sketch
ops derive from the 31-bit polynomial hash in ops/hashing.py so each has
a value-exact DuckDB oracle twin; dedup_exact keeps pandas hash_array
(its oracle compares on the raw text, not the hash).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.warm import map_cached
from . import co_partition, read, reduce_by

_MERSENNE = np.uint64((1 << 61) - 1)


def _stable_hash(strings: pd.Series) -> np.ndarray:
    return pd.util.hash_array(strings.to_numpy(dtype=object))


def dedup_exact(sf_dir: str):
    """Keep the smallest doc_id per identical ``text`` -> (doc_id, n_chars).

    The exchange carries only (hash, doc_id, n_chars); the text itself
    never moves. 64-bit collisions are accepted (documented; ~1e-13 at 1e6
    docs).
    """
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def hash_stage(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table(
            {
                "h": pa.array(_stable_hash(df["text"]).astype(np.int64)),
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(df["text"].str.len().to_numpy(np.int64)),
            }
        )

    # rows sharing a hash share the text, hence n_chars — the per-hash min
    # picks the kept row's value
    return reduce_by(
        ds.map_batches(hash_stage, batch_format="pyarrow"),
        "h",
        {"h": pa.int64(), "doc_id": pa.int64(), "n_chars": pa.int64()},
        "min",
    ).select_columns(["doc_id", "n_chars"])


DEDUP_EXACT_SQL = """
SELECT doc_id, length(text) AS n_chars
FROM documents
QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
"""


# ---------------------------------------------------------------- MinHash
#
# Built on the SQL-expressible 31-bit polynomial shingle hash
# (ops/hashing.py) with permutation parameters a < 2^30 so a*h + b stays
# exact in both uint64 and BIGINT — the whole sketch (signatures, band
# keys, LSH candidates, true-Jaccard verify) has a DuckDB twin.
# Jaccard is computed over DISTINCT HASHED shingles (2^31 space; collision
# effect is negligible and identical on both sides by construction).

_P61 = np.uint64((1 << 61) - 1)
MINHASH_SEED = 7


def _token_ngrams(text: str, n: int = 3) -> list[str]:
    toks = text.split()
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def minhash_perm_params(num_perm: int = 64, seed: int = MINHASH_SEED):
    """Seeded permutation params; a < 2^30 keeps a*h+b exact in BIGINT."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 30, num_perm, dtype=np.uint64)
    b = rng.integers(0, _P61, num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """Stateful map_batches callable: seeded permutation params built once
    per worker process.  Emits per doc: the signature, the band keys, and
    the distinct shingle-hash set (for the co-partitioned verify join).
    Docs with zero shingles (tokenless) are dropped — they cannot be
    near-duplicates and have no well-defined signature."""

    def __init__(self, num_perm: int = 64, bands: int = 16, ngram: int = 3,
                 seed: int = MINHASH_SEED):
        from .hashing import B_TOK, M31

        self.a, self.b = minhash_perm_params(num_perm, seed)
        self.ngram = ngram
        self.bands = bands
        self.rows = num_perm // bands
        self.b_tok = np.uint64(B_TOK)
        self.m31 = np.uint64(M31)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .hashing import poly_hash_strings, segment_bounds

        texts = batch["text"].to_pylist()
        doc_ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        all_sh: list[str] = []
        lens = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            sh = _token_ngrams(t, self.ngram)
            all_sh.extend(sh)
            lens[i] = len(sh)
        nz = lens > 0
        if not nz.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.list_(pa.int64())),
                    "band_keys": pa.array([], pa.list_(pa.int64())),
                    "shl": pa.array([], pa.binary()),
                }
            )
        hs = poly_hash_strings(all_sh)  # < 2^31
        # (num_perm, n_shingles): a*h < 2^61, +b < 2^62 — exact in uint64
        perm = (self.a[:, None] * hs[None, :] + self.b[:, None]) % _P61
        starts, _ = segment_bounds(lens)
        sigs = np.minimum.reduceat(perm, starts[nz], axis=1).T  # (n_nz, P)
        # band keys: Horner over (sig % M31) per band — SQL list_reduce twin
        sm = (sigs % self.m31).reshape(len(sigs), self.bands, self.rows)
        key = sm[:, :, 0].copy()
        for r in range(1, self.rows):
            key = (key * self.b_tok + sm[:, :, r]) % self.m31
        # distinct shingle-hash set per doc (sorted)
        shl = [
            np.unique(hs[s : s + l]).astype(np.int64)
            for s, l in zip(starts[nz], lens[nz])
        ]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[nz]),
                "sig": pa.array(
                    list(sigs.astype(np.int64)), pa.list_(pa.int64())
                ),
                "band_keys": pa.array(
                    list(key.astype(np.int64)), pa.list_(pa.int64())
                ),
                # binary blob of the sorted int64 set: Arrow's hash join
                # rejects list-typed payload columns, bytes pass through
                "shl": pa.array([s.tobytes() for s in shl], pa.binary()),
            }
        )


def minhash_signatures(sf_dir: str, num_perm: int = 64, ngram: int = 3):
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    return map_cached(ds, MinHasher, {"num_perm": num_perm, "ngram": ngram})


def minhash_pairs(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    threshold: float = 0.5,
):
    """Near-duplicate pairs via LSH banding, verified with true Jaccard
    over distinct shingle hashes, fully distributed.

    band explode -> co-partition on (band, key) -> in-bucket pairs ->
    :func:`_verify_jaccard`.  Returns (doc_a, doc_b, jaccard_pct: int)
    with doc_a < doc_b, each pair once.
    """
    # materialize(): the signature table is consumed by BOTH the banding
    # branch and the verify exchanges; without it the lazy DAG re-executes
    # the full MinHasher pass per consumer, each one a full-size hashing
    # pass competing with the exchanges for CPUs.
    # The table is sketches only (sig + band keys + hashed shingle set —
    # ~1% of the text bytes), the standard LSH intermediate to pin.
    sig_ds = minhash_signatures(sf_dir, num_perm, ngram).materialize()

    def explode_bands(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), bands)),
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "key": pc.list_flatten(batch["band_keys"]),
            }
        )

    # NOTE: candidates are NOT pre-distincted — a groupby-aggregate on the
    # raw (doc_a, doc_b) key paid per-group Python overhead on every
    # candidate (measured ~20s of a 23s run); duplicate candidates ride the
    # verify shuffle (bounded: one per matching band) and the final
    # per-pair combine computes each pair once.
    cands = co_partition(
        lambda rows: _id_pairs(rows, ["band", "key"]),
        rows=(
            sig_ds.map_batches(explode_bands, batch_format="pyarrow"),
            ["band", "key"],
            {"doc_id": pa.int64(), "band": pa.int32(), "key": pa.int64()},
        ),
    )
    return _verify_jaccard(cands, sig_ds, threshold)


def _bucket_pairs(rows: pd.DataFrame, by: list[str], max_n: int | None = None, id_col: str = "doc_id"):
    """Row positions ``(i, j)`` into ``rows`` of every pair of rows sharing
    the int ``by`` columns, with ``id_col`` of i <= that of j, over buckets of
    2..``max_n`` members: one sort, then each row paired with every later
    row of its bucket — no Python call per bucket."""
    order = np.lexsort([rows[c].to_numpy(np.int64) for c in [id_col, *reversed(by)]])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for c in by:
        v = rows[c].to_numpy(np.int64)[order]
        new[1:] |= v[1:] != v[:-1]
    starts = np.flatnonzero(new)
    size = np.diff(np.append(starts, len(order)))
    hot = (size >= 2) & (size <= (max_n or len(order)))
    later = np.where(np.repeat(hot, size), np.repeat(starts + size, size) - np.arange(len(order)) - 1, 0)
    i = np.repeat(np.arange(len(order)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return order[i], order[j]


def _id_pairs(rows: pd.DataFrame, by: list[str], max_n: int | None = None) -> pd.DataFrame:
    """(doc_a, doc_b) with doc_a <= doc_b for every pair of rows sharing ``by``."""
    i, j = _bucket_pairs(rows, by, max_n)
    ids = rows["doc_id"].to_numpy(np.int64)
    return pd.DataFrame({"doc_a": ids[i], "doc_b": ids[j]})


def _verify_jaccard(cands, shl_ds, threshold: float):
    """Co-partitioned true-Jaccard verify WITHOUT hash-join operators:
    pair halves meet their doc's shingle set in one co-partition on
    doc_id (one vectorized pandas merge per group), then a second
    co-partition on the pair brings the two sides together.  Two
    sort-shuffles over candidate-bounded data — the same co-partitioning
    guarantee as a join, minus the per-run aggregator-actor startup cost
    that dominated at bench scale.  Shared by minhash_pairs and
    ngram_jaccard_pairs."""

    def half_rows(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, b])),
                "doc_a": pa.array(np.concatenate([a, a])),
                "doc_b": pa.array(np.concatenate([b, b])),
            }
        )

    def attach(halves: pd.DataFrame, sets: pd.DataFrame) -> pd.DataFrame:
        return halves.merge(sets, on="doc_id", how="inner")

    att = co_partition(
        attach,
        halves=(
            cands.map_batches(half_rows, batch_format="pyarrow"),
            "doc_id",
            {"doc_id": pa.int64(), "doc_a": pa.int64(), "doc_b": pa.int64()},
        ),
        sets=(shl_ds, "doc_id", {"doc_id": pa.int64(), "shl": pa.binary()}),
    )

    def combine(sides: pd.DataFrame) -> pd.DataFrame:
        """Exact-Jaccard verify of every pair in the group, fully
        vectorized: concatenate all shingle blobs once, tag each value
        with its pair ordinal, lexsort (pair, value) — an intersection
        element appears exactly twice adjacent (blobs are sorted-unique
        per doc), so one bincount of adjacent-equal runs yields every
        pair's intersection size."""
        # one row per (pair, side); duplicate candidates (one per matching
        # band) collapse here
        g = sides.drop_duplicates(subset=["doc_a", "doc_b", "doc_id"])
        g = g.sort_values(["doc_a", "doc_b", "doc_id"], kind="mergesort")
        a = g["doc_a"].to_numpy(np.int64)
        b = g["doc_b"].to_numpy(np.int64)
        new_pair = np.ones(len(g), dtype=bool)
        new_pair[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        pair_idx = np.cumsum(new_pair) - 1
        counts = np.bincount(pair_idx)
        # a complete pair has BOTH side rows (attach inner-merged each half
        # with its shingle set, so a tokenless doc's side is just absent)
        complete = counts == 2
        row_keep = complete[pair_idx]
        if not row_keep.any():
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=np.int64),
                    "doc_b": pd.Series([], dtype=np.int64),
                    "jaccard_pct": pd.Series([], dtype=np.int64),
                }
            )
        shl_k = g["shl"].to_numpy(object)[row_keep]
        # compact kept pair ordinals to 0..n-1
        pk = np.cumsum(new_pair[row_keep]) - 1
        n_pairs = pk[-1] + 1
        lens = np.fromiter(
            (len(x) for x in shl_k), dtype=np.int64, count=len(shl_k)
        ) // 8
        vals = np.frombuffer(b"".join(shl_k), dtype=np.int64)
        pair_of_val = np.repeat(pk, lens)
        order = np.lexsort((vals, pair_of_val))
        p = pair_of_val[order]
        v = vals[order]
        dup = (p[1:] == p[:-1]) & (v[1:] == v[:-1])
        inter = np.bincount(p[:-1][dup], minlength=n_pairs)
        # rows alternate a-side, b-side within each kept pair (doc_id sort
        # + doc_a < doc_b)
        uni = lens[0::2] + lens[1::2] - inter
        jac = inter / uni  # uni > 0: sets are non-empty by construction
        m = jac >= threshold
        return pd.DataFrame(
            {
                "doc_a": pd.Series(a[row_keep][0::2][m], dtype=np.int64),
                "doc_b": pd.Series(b[row_keep][0::2][m], dtype=np.int64),
                # association matches the SQL twin: (100.0*inter)/uni
                "jaccard_pct": pd.Series(
                    np.floor((100.0 * inter[m]) / uni[m] + 0.5).astype(np.int64),
                    dtype=np.int64,
                ),
            }
        )

    return co_partition(
        combine,
        sides=(
            att,
            ["doc_a", "doc_b"],
            {"doc_a": pa.int64(), "doc_b": pa.int64(), "doc_id": pa.int64(), "shl": pa.binary()},
        ),
    )


# ------------------------------------------------------- n-gram Jaccard

class ShingleSetStage:
    """documents -> (doc_id, shl binary blob of sorted distinct shingle
    hashes); tokenless docs dropped (same contract as MinHasher)."""

    def __init__(self, ngram: int = 3):
        self.ngram = ngram

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .hashing import poly_hash_strings

        texts = batch["text"].to_pylist()
        doc_ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        out_ids, out_shl = [], []
        all_sh: list[str] = []
        lens = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            sh = _token_ngrams(t, self.ngram)
            all_sh.extend(sh)
            lens[i] = len(sh)
        hs = poly_hash_strings(all_sh)
        pos = 0
        for i, l in enumerate(lens):
            if l:
                out_ids.append(int(doc_ids[i]))
                out_shl.append(np.unique(hs[pos : pos + l]).astype(np.int64).tobytes())
            pos += l
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "shl": pa.array(out_shl, pa.binary()),
            }
        )


def ngram_jaccard_pairs(
    sf_dir: str, ngram: int = 3, threshold: float = 0.3, max_df: int = 4
):
    """Near-duplicate pairs via a document-frequency-capped INVERTED INDEX
    on shingle hashes (the exact-candidate complement to minhash's LSH):
    every pair sharing at least one RARE shingle (df in [2, max_df]) is a
    candidate, verified by true Jaccard over distinct shingle hashes.

    Scale shape: explode (shingle, doc) postings -> co-partition on the
    shingle hash -> per shingle emit pairs ONLY when its df <= max_df
    (hot boilerplate shingles are skipped — they cannot identify
    near-dups and would blow up quadratically) -> co-partitioned verify.
    The shuffle carries (hash, doc_id) postings only.
    """

    shl_ds = map_cached(
        read(sf_dir, "documents", columns=["doc_id", "text"]), ShingleSetStage, {"ngram": ngram}
    ).materialize()  # consumed by postings AND the verify exchanges

    def explode_postings(batch: pa.Table) -> pa.Table:
        blobs = batch["shl"].to_pylist()
        lens = np.fromiter((len(b) // 8 for b in blobs), np.int64, len(blobs))
        return pa.table(
            {
                "h": pa.array(np.frombuffer(b"".join(blobs), dtype=np.int64)),
                "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), lens)),
            }
        )

    # candidates not pre-distincted (see minhash_pairs note); the final
    # combine computes each pair once regardless of how many rare shingles
    # it shares
    cands = co_partition(
        lambda postings: _id_pairs(postings, ["h"], max_n=max_df),
        postings=(
            shl_ds.map_batches(explode_postings, batch_format="pyarrow"),
            "h",
            {"h": pa.int64(), "doc_id": pa.int64()},
        ),
    )
    return _verify_jaccard(cands, shl_ds, threshold)


def ngram_jaccard_pairs_sql(
    ngram: int = 3, threshold: float = 0.3, max_df: int = 4
) -> str:
    """DuckDB twin of ngram_jaccard_pairs: same shingles/hash, same
    df-capped inverted index, same Jaccard verify.

    NOTE: the df cap must count df over the WHOLE corpus — identical in
    both systems because the engine's co-partition sees every posting
    of a given shingle hash in one group."""
    from .hashing import sql_char_hash

    return f"""
WITH sh AS (
  SELECT doc_id, {_sql_shingles(ngram)} AS shingles FROM documents),
shh AS (
  SELECT doc_id,
         list_distinct(list_transform(shingles, s -> {sql_char_hash('s')})) AS hl
  FROM sh WHERE len(shingles) > 0),
post AS (SELECT doc_id, unnest(hl) AS h FROM shh),
rare AS (SELECT h FROM post GROUP BY h
         HAVING count(*) BETWEEN 2 AND {max_df}),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM post a JOIN rare USING (h) JOIN post b USING (h)
  WHERE a.doc_id < b.doc_id)
SELECT doc_a, doc_b,
       CAST(floor(100.0 * inter / uni + 0.5) AS BIGINT) AS jaccard_pct
FROM (SELECT c.doc_a, c.doc_b,
             len(list_intersect(p.hl, q.hl)) AS inter,
             len(p.hl) + len(q.hl) - len(list_intersect(p.hl, q.hl)) AS uni
      FROM cand c
      JOIN shh p ON p.doc_id = c.doc_a
      JOIN shh q ON q.doc_id = c.doc_b)
WHERE CAST(inter AS DOUBLE) / uni >= {threshold}
"""


def _sql_shingles(ngram: int = 3) -> str:
    from .hashing import sql_tokens

    toks = sql_tokens("text")
    win = " || ' ' || ".join(f"({toks})[i + {j + 1}]" for j in range(ngram))
    return f"""
CASE WHEN len({toks}) >= {ngram}
     THEN list_transform(range(len({toks}) - {ngram - 1}), i -> {win})
     WHEN len({toks}) >= 1 THEN [array_to_string({toks}, ' ')]
     ELSE [] END"""


def minhash_pairs_sql(
    num_perm: int = 64, bands: int = 16, ngram: int = 3, threshold: float = 0.5
) -> str:
    """DuckDB twin of minhash_pairs: same shingles, same permutations
    (literal (k, a, b) table from the same seed), same band keys, same
    LSH candidates, same hashed-shingle Jaccard verify."""
    from .hashing import B_TOK, M31, sql_char_hash

    a, b = minhash_perm_params(num_perm)
    rows = num_perm // bands
    perm_rows = ", ".join(
        f"({k}, {int(a[k])}, {int(b[k])})" for k in range(num_perm)
    )
    p61 = (1 << 61) - 1
    return f"""
WITH sh AS (
  SELECT doc_id, {_sql_shingles(ngram)} AS shingles FROM documents),
shh AS (
  SELECT doc_id, list_transform(shingles, s -> {sql_char_hash('s')}) AS hl
  FROM sh WHERE len(shingles) > 0),
hs AS (SELECT doc_id, unnest(hl) AS h FROM shh),
perms(k, a, b) AS (VALUES {perm_rows}),
sig AS (
  SELECT doc_id, k, min((a * h + b) % {p61}) AS m
  FROM hs CROSS JOIN perms GROUP BY doc_id, k),
sigl AS (SELECT doc_id, list(m ORDER BY k) AS sigs FROM sig GROUP BY doc_id),
bk AS (
  SELECT doc_id, unnest(keys) AS key, generate_subscripts(keys, 1) - 1 AS band
  FROM (SELECT doc_id,
               list_transform(range({bands}), bi ->
                 list_reduce(
                   list_transform(sigs[bi * {rows} + 1 : bi * {rows} + {rows}],
                                  x -> x % {M31}),
                   (acc, x) -> (acc * {B_TOK} + x) % {M31})) AS keys
        FROM sigl)),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bk x JOIN bk y ON x.band = y.band AND x.key = y.key
                     AND x.doc_id < y.doc_id),
shld AS (SELECT doc_id, list_distinct(hl) AS hl FROM shh)
SELECT doc_a, doc_b,
       CAST(floor(100.0 * inter / uni + 0.5) AS BIGINT) AS jaccard_pct
FROM (SELECT c.doc_a, c.doc_b,
             len(list_intersect(p.hl, q.hl)) AS inter,
             len(p.hl) + len(q.hl) - len(list_intersect(p.hl, q.hl)) AS uni
      FROM cand c
      JOIN shld p ON p.doc_id = c.doc_a
      JOIN shld q ON q.doc_id = c.doc_b)
WHERE CAST(inter AS DOUBLE) / uni >= {threshold}
"""


# ----------------------------------------------- banded Hamming near-dup
#
# One kernel, :func:`hamming_buckets`, serves every Hamming near-dup query
# over int64 signature words (simhash_pairs here, image_dhash_near in
# ops/imagededup.py).  A band spec (word, lo, mask, word2, lo2) keys each
# row by ``(sig[word] >> lo) & mask``; with more bands than max_hamming
# and disjoint band bits, a pair within the threshold agrees exactly on
# at least one band (pigeonhole), so banding has full recall there.
#
# Hot-bucket split (the one-level case of HERO's hierarchical set
# splitting, SIGMOD 2024): a (band, key) bucket of more than ``bucket_cap``
# rows is split by key2 = ``(sig[word2] >> lo2) & 0xFFFF``, 16 bits from
# another part of the signature, dividing a degenerate pileup up to 65536
# ways — a 10^9-row worst-case bucket drops to ~15k per sub-bucket,
# bounding the in-bucket O(pop^2) pair enumeration.  Two honest limits,
# both by construction: (1) identical signatures share the subkey, so a
# flood of EXACT duplicates is not split — but those pairs ARE the answer
# and their quadratic output is the result size, not overhead; (2) a
# within-threshold pair in a split bucket survives only if it agrees on
# the subkey bits, so a pair whose differing bits hit the key2 bits of
# every band it agrees on is lost (bounded, documented recall loss under
# adversarial skew).  Counting the buckets costs a pass over the input
# and an exchange, so it runs only when the input can hold more than
# ``bucket_cap`` rows; the SQL twin (:func:`hamming_buckets_sql`)
# reproduces the split exactly, so parity holds with the cap ACTIVE
# (tested at cap=1).

HAMMING_BUCKET = ["band", "key", "key2"]
HAMMING_SUBKEY_MASK = 0xFFFF

# 16-bit popcount LUT (numpy 1.x has no bitwise_count)
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def hamming(sigs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Hamming distance between rows ``i`` and ``j`` of the int64 word
    matrix ``sigs`` (rows x words), over all 64 bits of every word (a
    negative word counts as its two's-complement bits)."""
    return _POP16[(sigs[i] ^ sigs[j]).view(np.uint16)].sum(axis=1, dtype=np.int64)


def hamming_buckets(close, ds, ids, words, bands, bucket_cap: int, n_rows):
    """Band-explode ``ds`` and close out every (band, key, key2) bucket
    with ``close``, in one :func:`co_partition`.

    ``ds`` holds the id column ``ids = (name, pa type)`` and the int64
    signature columns ``words``; ``bands`` lists the specs ``(word, lo,
    mask, word2, lo2)`` (word indexes into ``words``).  Each row becomes
    one row per band with ``key = (sig[word] >> lo) & mask`` and ``key2 =
    (sig[word2] >> lo2) & 0xFFFF`` when its (band, key) bucket holds more
    than ``bucket_cap`` rows of ``ds``, else 0 (see the note above).  The
    bucket count runs only when ``n_rows`` (an upper bound on the rows of
    ``ds``, such as a footer count, or ``None`` when unknown) exceeds
    ``bucket_cap``.  ``close(rows)`` receives a pandas frame of band, key,
    key2, the id and the words, holding every row of each of its buckets,
    and returns a frame."""
    import logging

    import ray

    id_col, id_type = ids
    schema = {"band": pa.int64(), "key": pa.int64(), "key2": pa.int64(), id_col: id_type,
              **{c: pa.int64() for c in words}}

    def sigs_keys(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        sigs = np.stack([batch[c].to_numpy() for c in words], axis=1)
        return sigs, np.stack([(sigs[:, w] >> lo) & mask for w, lo, mask, _, _ in bands], axis=1)

    hot: dict[int, np.ndarray] = {}
    if n_rows is None or n_rows > bucket_cap:
        # the count and the explode both read ds: compute it once
        ds = ds.materialize()

        def counts(batch: pa.Table) -> pd.DataFrame:
            keys = sigs_keys(batch)[1]
            return pd.DataFrame({"band": np.tile(np.arange(len(bands)), len(keys)),
                                 "key": keys.reshape(-1)}).groupby(["band", "key"], as_index=False).size()

        def hot_keys(rows: pd.DataFrame) -> pd.DataFrame:
            g = rows.groupby(["band", "key"], as_index=False, sort=False)["size"].sum()
            return g[g["size"] > bucket_cap]

        big = co_partition(hot_keys, rows=(
            ds.map_batches(counts, batch_format="pyarrow"), ["band", "key"],
            {"band": pa.int64(), "key": pa.int64(), "size": pa.int64()},
        )).to_pandas()
        if len(big):  # an exchange with no rows comes back without columns
            hot = {int(b): np.sort(g["key"].to_numpy(np.int64)) for b, g in big.groupby("band")}
            logging.getLogger(__name__).info(
                "splitting %d hot (band, key) buckets of more than %d rows", len(big), bucket_cap)
    hot_ref = ray.put(hot)

    def explode(batch: pa.Table) -> pa.Table:
        sigs, keys = sigs_keys(batch)
        key2 = np.zeros_like(keys)
        for b, hk in ray.get(hot_ref).items():
            _, _, _, w2, lo2 = bands[b]
            m = np.isin(keys[:, b], hk)
            key2[m, b] = (sigs[m, w2] >> lo2) & HAMMING_SUBKEY_MASK
        n, nb = keys.shape
        cols = {"band": np.tile(np.arange(nb), n), "key": keys.reshape(-1), "key2": key2.reshape(-1),
                id_col: batch[id_col].take(np.repeat(np.arange(n), nb))}
        return pa.table({**cols, **{c: np.repeat(sigs[:, k], nb) for k, c in enumerate(words)}})

    return co_partition(
        close, rows=(ds.map_batches(explode, batch_format="pyarrow"), HAMMING_BUCKET, schema))


def hamming_buckets_sql(src: str, cols: str, words, bands, bucket_cap: int) -> str:
    """DuckDB twin of :func:`hamming_buckets`' explode: the CTEs ``b0, b``
    where ``b`` holds ``cols`` of ``src`` with band, key and key2 (the
    hot-bucket split by a window count)."""
    rows = "\n  UNION ALL ".join(
        f"SELECT {cols}, {b} AS band, ({words[w]} >> {lo}) & {mask} AS key, "
        f"({words[w2]} >> {lo2}) & {HAMMING_SUBKEY_MASK} AS sub FROM {src}"
        for b, (w, lo, mask, w2, lo2) in enumerate(bands)
    )
    return f"""b0 AS ({rows}),
b AS (SELECT * EXCLUDE (sub),
             CASE WHEN count(*) OVER (PARTITION BY band, key) > {bucket_cap}
                  THEN sub ELSE 0 END AS key2
      FROM b0)"""


# ---------------------------------------------------------------- SimHash
#
# The signature is 4 x 31 = 124 bits — four INDEPENDENT 31-bit polynomial token hashes
# (different char bases, same M31 modulus, all SQL-expressible) each
# contributing a per-bit-majority word.  Banding splits every word into a
# 16-bit and a 15-bit band -> 8 bands with 65k/32k key spaces: bucket
# population at 10^9 docs is O(N/2^15) per band instead of a single
# 31-bit word's O(N/256) quadratic hot spot, and pairs within Hamming <= 3 still share
# at least 8-3 = 5 bands exactly (full recall at the threshold).  A hot
# bucket splits on the low 16 bits of the next word ((w+1) % 4); a pair
# whose differing bits touch <= 2 words keeps an agreeing band whose
# subkey word it also agrees on.
# Zero-token docs are DROPPED (they would all collide in one
# signature-0 bucket and are not meaningful near-dup candidates —
# mirroring MinHasher's documented contract).

SIMHASH_BITS = 31
SIMHASH_WORDS = 4
SIMHASH_CHAR_BASES = (131, 137, 139, 149)  # independent hash family members
# per-word band splits: (lo_bit, n_bits) — 2 bands/word x 4 words = 8 bands
SIMHASH_BAND_SPLITS = ((0, 16), (16, 15))
SIMHASH_BANDS = SIMHASH_WORDS * len(SIMHASH_BAND_SPLITS)
SIMHASH_BUCKET_CAP = 4096
_SIMHASH_COLS = [f"sig{w}" for w in range(SIMHASH_WORDS)]


class SimHasher:
    """documents -> (doc_id, sig0..sig3): one 31-bit per-bit-majority word
    per independent char-hash base.  Tokenizes ONCE; each base is one
    power-gather pass over the same utf-32 decode.  Zero-token docs are
    dropped (no well-defined signature)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .hashing import poly_hash_strings, segment_bounds, tokenize_batch

        texts = batch["text"].to_pylist()
        flat, lens = tokenize_batch(texts)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        nz = lens > 0
        cols: dict[str, pa.Array] = {"doc_id": pa.array(ids[nz])}
        shifts = np.arange(SIMHASH_BITS, dtype=np.uint64)
        starts, _ = segment_bounds(lens)
        for w, base in enumerate(SIMHASH_CHAR_BASES):
            if nz.any():
                th = poly_hash_strings(flat, base=base)
                # per-doc per-bit set counts via one reduceat
                bits = ((th[:, None] >> shifts) & 1).astype(np.int64)
                s = np.add.reduceat(bits, starts[nz], axis=0)  # (n_nz, 31)
                sig = ((2 * s > lens[nz, None])
                       << shifts.astype(np.int64)).sum(axis=1)
            else:
                sig = np.zeros(0, dtype=np.int64)
            cols[f"sig{w}"] = pa.array(sig)
        return pa.table(cols)


def simhash_signatures(sf_dir: str):
    return map_cached(read(sf_dir, "documents", columns=["doc_id", "text"]), SimHasher)


def _band_specs() -> list[tuple[int, int, int, int, int]]:
    """:func:`hamming_buckets` specs ``(word, lo, mask, word2, lo2)`` of
    the 8 bands: each word's 16-bit and 15-bit band, split when hot on the
    low bits of the next word."""
    return [(w, lo, (1 << nbits) - 1, (w + 1) % SIMHASH_WORDS, 0)
            for w in range(SIMHASH_WORDS) for lo, nbits in SIMHASH_BAND_SPLITS]


def simhash_pairs(
    sf_dir: str, max_hamming: int = 3, bucket_cap: int = SIMHASH_BUCKET_CAP
):
    """Near-dup pairs by SimHash banding over the 124-bit signature,
    fully distributed: :func:`hamming_buckets` over the 8 bands, each
    bucket closed by a vectorized pair enumeration with XOR-popcount
    Hamming over the 4 words, then distinct via a per-pair min.
    Signatures within Hamming <= max_hamming (< 8) share at least one band
    exactly, so banding has full recall at the threshold; buckets over
    ``bucket_cap`` are sub-split (key2; see the note above for the bounded
    recall caveat)."""
    from . import footer_rows

    def close(rows: pd.DataFrame) -> pd.DataFrame:
        i, j = _bucket_pairs(rows, HAMMING_BUCKET)
        ham = hamming(rows[_SIMHASH_COLS].to_numpy(np.int64), i, j)
        m = ham <= max_hamming
        ids = rows["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({"doc_a": ids[i[m]], "doc_b": ids[j[m]], "hamming": ham[m]})

    pairs = hamming_buckets(close, simhash_signatures(sf_dir), ("doc_id", pa.int64()), _SIMHASH_COLS,
                            _band_specs(), bucket_cap, footer_rows(f"{sf_dir}/documents.parquet"))
    # distinct across bands (hamming is identical for a given pair)
    return reduce_by(
        pairs,
        ["doc_a", "doc_b"],
        {"doc_a": pa.int64(), "doc_b": pa.int64(), "hamming": pa.int64()},
        "min",
    )


def simhash_sig_sql() -> str:
    """DuckDB twin of simhash_signatures: per-bit majority sums for each of
    the 4 independent char-hash bases; zero-token docs never appear in the
    tok CTE, so the agg inner-derives exactly the engine's kept set."""
    from .hashing import sql_char_hash, sql_tokens

    hcols = ", ".join(
        f"{sql_char_hash('t', base)} AS h{w}"
        for w, base in enumerate(SIMHASH_CHAR_BASES)
    )
    sums = ", ".join(
        f"sum(CAST((h{w} >> {j}) & 1 AS BIGINT)) AS s{w}_{j}"
        for w in range(SIMHASH_WORDS)
        for j in range(SIMHASH_BITS)
    )
    words = ", ".join(
        " + ".join(
            f"((CASE WHEN 2 * s{w}_{j} > n THEN CAST(1 AS BIGINT) ELSE 0 END) << {j})"
            for j in range(SIMHASH_BITS)
        )
        + f" AS sig{w}"
        for w in range(SIMHASH_WORDS)
    )
    return f"""
WITH tok AS (
  SELECT doc_id, unnest({sql_tokens("text")}) AS t FROM documents),
th AS (SELECT doc_id, {hcols} FROM tok),
agg AS (SELECT doc_id, count(*) AS n, {sums} FROM th GROUP BY doc_id),
sig AS (SELECT doc_id, {words} FROM agg)
"""


def simhash_pairs_sql(
    max_hamming: int = 3, bucket_cap: int = SIMHASH_BUCKET_CAP
) -> str:
    ham = " + ".join(
        f"bit_count(xor(x.sig{w}, y.sig{w}))" for w in range(SIMHASH_WORDS)
    )
    buckets = hamming_buckets_sql("sig", "doc_id, " + ", ".join(_SIMHASH_COLS), _SIMHASH_COLS,
                                  _band_specs(), bucket_cap)
    return simhash_sig_sql() + f"""
, {buckets}
SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b,
       {ham} AS hamming
FROM b x JOIN b y ON x.band = y.band AND x.key = y.key
                 AND x.key2 = y.key2 AND x.doc_id < y.doc_id
WHERE {ham} <= {max_hamming}
"""


# ------------------------------------------------- embedding near-dup (LSH)
#
# Quantized-integer random-hyperplane LSH with radius-1
# multiprobe.  Embeddings and hyperplanes are quantized to int64
# (floor(x * 1e6 + 0.5), integer hyperplane coords), so every dot product
# is EXACT in both numpy int64 and DuckDB's double (values < 2^53) — the
# bucket bits, the cosine, and the threshold compare are bit-identical
# between engine and oracle.  Multiprobe (checking buckets at Hamming
# distance <= 1) buys recall without extra hash tables; at web scale you
# add planes (buckets = 2^planes shuffle keys) rather than tables.
#
# The plane count AUTO-SCALES with
# the corpus so the expected bucket population stays ~EMB_TARGET_BUCKET
# regardless of size — a fixed 6 planes meant 64 buckets total and O((N/64)^2)
# in-bucket pair work at web scale.  The SQL twin derives the same count
# from the same parquet metadata, so parity holds at every size.

EMB_SCALE = 1_000_000
EMB_PLANES = 6  # fixed plane count; planes=None auto-scales instead
EMB_TARGET_BUCKET = 16  # desired mean docs per bucket
EMB_SEED = 5
EMB_THRESHOLD = 0.40  # tuned so the op is EXERCISED on the testdata corpus
# (its embeddings are near-orthonormal random: max pairwise cos ~0.51, so a
# production-style 0.9 threshold returns zero rows)


def auto_planes(
    n_vecs: int, target_bucket: int = EMB_TARGET_BUCKET, lo: int = 4, hi: int = 24
) -> int:
    """planes = ceil(log2(n / target_bucket)), clamped — expected bucket
    population n / 2^planes ~ target_bucket at any corpus size."""
    import math

    if n_vecs <= 0:
        return lo
    return max(lo, min(hi, math.ceil(math.log2(max(1.0, n_vecs / target_bucket)))))


def _embeddings_meta(sf_dir: str) -> tuple[int, int]:
    """(num_rows, dim) from parquet metadata + one row — a driver-side
    metadata read, not a scan."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    n = pf.metadata.num_rows
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first["embedding"][0])
    return n, dim


def embedding_planes(dim: int, planes: int = EMB_PLANES, seed: int = EMB_SEED) -> np.ndarray:
    """(dim, planes) int64 hyperplane matrix — integer coords keep every
    projection exact; embedded as a literal in the SQL twin."""
    rng = np.random.default_rng(seed)
    return rng.integers(-999, 1000, (dim, planes)).astype(np.int64)


def _quantize(emb: np.ndarray) -> np.ndarray:
    return np.floor(emb * EMB_SCALE + 0.5).astype(np.int64)


def embedding_neardup(
    sf_dir: str,
    threshold: float = EMB_THRESHOLD,
    planes: int | None = None,
    seed: int = EMB_SEED,
):
    """Cosine near-dup pairs over ``embeddings`` via quantized hyperplane
    LSH buckets with radius-1 multiprobe + in-bucket exact verify,
    fully distributed. Returns (vec_a, vec_b, cos_pct).

    ``planes=None`` (default) auto-scales the plane count to the corpus
    (see :func:`auto_planes`)."""
    if planes is None:
        planes = auto_planes(_embeddings_meta(sf_dir)[0])
    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    shifts = np.arange(planes, dtype=np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        emb = np.asarray(batch["embedding"].to_pylist(), dtype=np.float64)
        q = _quantize(emb)
        h = embedding_planes(emb.shape[1], planes, seed)
        bits = (q @ h) > 0  # exact integer dots
        home = (bits.astype(np.int64) << shifts).sum(axis=1)
        # multiprobe explode: home bucket + each single-bit flip
        probes = np.concatenate(
            [home[:, None], home[:, None] ^ (1 << shifts)[None, :]], axis=1
        )  # (n, planes+1), col 0 = home
        n, w = probes.shape
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, w)),
                "bucket": pa.array(probes.reshape(-1)),
                "is_home": pa.array(
                    np.tile(np.arange(w) == 0, n).astype(np.int8)
                ),
                "qv": pa.array(
                    [q[i].tobytes() for i in range(n) for _ in range(w)],
                    pa.binary(),
                ),
            }
        )

    def in_bucket(rows: pd.DataFrame) -> pd.DataFrame:
        i, j = _bucket_pairs(rows, ["bucket"], id_col="vec_id")
        ids = rows["vec_id"].to_numpy(np.int64)
        home = rows["is_home"].to_numpy(np.int8).astype(bool)
        # a pair within probe radius appears with >=1 home row in some
        # bucket; "at least one home" avoids pure-probe echo buckets
        m = (home[i] | home[j]) & (ids[i] != ids[j])
        i, j = i[m], j[m]
        q = np.frombuffer(b"".join(rows["qv"]), dtype=np.int64).reshape(len(rows), -1)
        qa, qb = q[i].astype(np.float64), q[j].astype(np.float64)
        cos = np.einsum("ij,ij->i", qa, qb) / (
            np.sqrt((qa**2).sum(axis=1)) * np.sqrt((qb**2).sum(axis=1))
        )
        keep = cos >= threshold
        return pd.DataFrame(
            {
                "vec_a": ids[i[keep]],
                "vec_b": ids[j[keep]],
                "cos_pct": np.floor(100.0 * cos[keep] + 0.5).astype(np.int64),
            }
        )

    pairs = co_partition(
        in_bucket,
        rows=(
            ds.map_batches(stage, batch_format="pyarrow"),
            "bucket",
            {"vec_id": pa.int64(), "bucket": pa.int64(), "is_home": pa.int8(), "qv": pa.binary()},
        ),
    )
    # distinct across probe buckets (cos_pct identical for a given pair)
    return reduce_by(
        pairs,
        ["vec_a", "vec_b"],
        {"vec_a": pa.int64(), "vec_b": pa.int64(), "cos_pct": pa.int64()},
        "min",
    )


def embedding_neardup_sql(
    dim: int = 64,
    threshold: float = EMB_THRESHOLD,
    planes: int | None = None,
    seed: int = EMB_SEED,
    sf_dir: str | None = None,
) -> str:
    """DuckDB twin: same quantization, same integer hyperplanes (literal),
    radius-1 candidate join, identical cosine expression.  Pass ``sf_dir``
    to derive (planes, dim) from the same parquet metadata the engine
    auto-scales from."""
    if sf_dir is not None:
        n, dim = _embeddings_meta(sf_dir)
        if planes is None:
            planes = auto_planes(n)
    elif planes is None:
        planes = EMB_PLANES
    h = embedding_planes(dim, planes, seed)
    plane_dots = ", ".join(
        "list_dot_product(qd, ["
        + ", ".join(f"{int(v)}.0" for v in h[:, p])
        + f"]) AS dp{p}"
        for p in range(planes)
    )
    bucket = " + ".join(
        f"(CASE WHEN dp{p} > 0 THEN {1 << p} ELSE 0 END)" for p in range(planes)
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
d AS (SELECT vec_id, qd, {plane_dots} FROM e),
b AS (SELECT vec_id, qd, CAST({bucket} AS BIGINT) AS bucket,
             list_dot_product(qd, qd) AS nsq
      FROM d)
SELECT x.vec_id AS vec_a, y.vec_id AS vec_b,
       CAST(floor(100.0 * (list_dot_product(x.qd, y.qd)
                           / (sqrt(x.nsq) * sqrt(y.nsq))) + 0.5) AS BIGINT)
         AS cos_pct
FROM b x JOIN b y
  ON x.vec_id < y.vec_id AND bit_count(xor(x.bucket, y.bucket)) <= 1
WHERE list_dot_product(x.qd, y.qd) / (sqrt(x.nsq) * sqrt(y.nsq))
      >= {threshold}
"""

# ------------------------------------------------------ near-dup clusters

# kinds of _cc_min_labels' state rows
_EDGE, _CAND, _OWN, _POINTER = np.int8(0), np.int8(1), np.int8(2), np.int8(3)


def _cc_min_labels(edges, max_rounds: int = 50):
    """Connected components over a MATERIALIZED symmetrized edge Dataset
    (u, v int64) -> (labels Dataset (node, label=component min), rounds).

    Min-label propagation WITH pointer jumping, one single-sided
    co-partition per round over a state table of (node, label, kind) rows:
    the edges (node=u, label=v) ride along every round, and a node's label
    is the min of its candidate rows (the first round's are its edges).
    Each candidate row goes into the exchange twice, keyed by its node (to
    be reduced) and keyed by its label (a pointer: the node asking its
    label's label).  So the group owning a node takes its label and
    answers, in one pass, the asks of the node's neighbours (propagation)
    and of every candidate pointing at it (pointer jumping, which doubles
    the distance covered, so convergence takes O(log diameter) rounds, not
    O(diameter)).  The answers, one min per asking node per group, are the
    next round's candidates, alongside each node's label (kind ``_OWN``).

    The ``_OWN`` rows of a round hold the labels the previous round
    produced.  A node's label is among its next candidates, so labels only
    decrease, and two rounds with the same int64 label sum have the same
    labels: a fixpoint, where each label is constant across every edge and
    so is its component's min.  The state is materialized per round
    (bounded: the edges plus one row per node and answering group), and
    one side keeps its block count fixed from round to round."""
    if edges.count() == 0:
        return edges.rename_columns({"u": "node", "v": "label"}), 0

    def first(batch: pa.Table) -> pa.Table:
        u, v = batch["u"].to_numpy(), batch["v"].to_numpy()
        kind = np.repeat(np.array([_EDGE, _CAND], np.int8), len(u))
        return pa.table({"node": np.concatenate([u, u]), "label": np.concatenate([v, np.minimum(u, v)]),
                         "kind": kind})

    def expand(batch: pa.Table) -> pa.Table:
        """Every row keyed by its node, plus each candidate keyed by its label."""
        cand = batch.filter(pc.not_equal(batch["kind"], _EDGE))
        return pa.table({
            "key": pa.concat_arrays([batch["node"].combine_chunks(), cand["label"].combine_chunks()]),
            "node": pa.concat_arrays([batch["node"].combine_chunks(), cand["node"].combine_chunks()]),
            "label": pa.concat_arrays([batch["label"].combine_chunks(), cand["label"].combine_chunks()]),
            "kind": pa.array(np.concatenate([batch["kind"].to_numpy(), np.full(len(cand), _POINTER, np.int8)])),
        })

    def resolve(rows: pd.DataFrame) -> pd.DataFrame:
        """Each owned node's label, plus an answer to every ask: an edge
        (u, v) is v asking u, a pointer (node, label) is node asking label."""
        kind = rows["kind"].to_numpy()
        edges = rows[kind == _EDGE]
        pointers = rows[kind == _POINTER]
        own = rows[(kind == _CAND) | (kind == _OWN)].groupby("node", as_index=False, sort=False)["label"].min()
        ask = pd.DataFrame({
            "node": np.concatenate([edges["node"].to_numpy(), pointers["label"].to_numpy()]),
            "asker": np.concatenate([edges["label"].to_numpy(), pointers["node"].to_numpy()]),
        }).merge(own, on="node")
        answers = ask.groupby("asker", as_index=False, sort=False)["label"].min()
        return pd.concat(
            [answers.rename(columns={"asker": "node"}).assign(kind=_CAND),
             own.assign(kind=_OWN), edges[["node", "label", "kind"]]],
            ignore_index=True,
        ).astype({"kind": np.int8})

    def own_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["kind"], _OWN)).select(["node", "label"])

    def own_sum(batch: pa.Table) -> pa.Table:
        return pa.table({"s": [pc.sum(own_rows(batch)["label"]).as_py() or 0]})

    state = edges.map_batches(first, batch_format="pyarrow")
    prev_sum = None
    for rounds in range(1, max_rounds + 1):
        state = co_partition(
            resolve,
            rows=(state.map_batches(expand, batch_format="pyarrow"), "key",
                  {"key": pa.int64(), "node": pa.int64(), "label": pa.int64(), "kind": pa.int8()}),
        ).materialize()
        # summed on the driver: one int per block
        cur_sum = int(state.map_batches(own_sum, batch_format="pyarrow").to_pandas()["s"].sum())
        if cur_sum == prev_sum:
            return state.map_batches(own_rows, batch_format="pyarrow"), rounds
        prev_sum = cur_sum
    raise RuntimeError(f"_cc_min_labels did not converge in {max_rounds} rounds")


def dedup_clusters(sf_dir: str, threshold: float = 0.5, max_rounds: int = 50):
    """Near-duplicate CLUSTERS: connected components over the
    :func:`minhash_pairs` dup graph -> one (doc_id, cluster_id) row per
    document, cluster_id = the smallest doc_id in its component
    (singletons cluster with themselves).

    Distributed shape: :func:`_cc_min_labels` (min-label propagation +
    pointer jumping, O(log diameter) co-partition rounds), then the
    corpus doc_ids co-partition with the label table and attach their
    component label with a vectorized left-merge — nothing driver-side,
    so a dup-heavy corpus streams like any other."""
    pairs = minhash_pairs(sf_dir, threshold=threshold)

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b])),
                "v": pa.array(np.concatenate([b, a])),
            }
        )

    # edges are re-read every propagation round: pin them (bounded, 2x pairs)
    edges = pairs.map_batches(symmetrize, batch_format="pyarrow").materialize()
    labels, _rounds = _cc_min_labels(edges, max_rounds)

    def fill(docs: pd.DataFrame, labels: pd.DataFrame) -> pd.DataFrame:
        m = docs.merge(labels, left_on="doc_id", right_on="node", how="left")
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].to_numpy(np.int64),
                "cluster_id": m["label"].fillna(m["doc_id"]).to_numpy(np.int64),
            }
        )

    return co_partition(
        fill,
        docs=(read(sf_dir, "documents", columns=["doc_id"]), "doc_id", {"doc_id": pa.int64()}),
        labels=(labels, "node", {"node": pa.int64(), "label": pa.int64()}),
    )


def dedup_clusters_sql(threshold: float = 0.5) -> str:
    """DuckDB twin: the same minhash pair graph, component minima via a
    recursive reachability CTE, singletons filled from ``documents``."""
    pairs_sql = minhash_pairs_sql(threshold=threshold)
    return f"""
WITH RECURSIVE
pairs AS (SELECT doc_a, doc_b FROM ({pairs_sql})),
edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs),
reach (node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.label FROM reach r JOIN edges e ON e.u = r.node),
labels AS (SELECT node, min(label) AS cluster_id FROM reach GROUP BY node)
SELECT d.doc_id AS doc_id, coalesce(l.cluster_id, d.doc_id) AS cluster_id
FROM documents d LEFT JOIN labels l ON l.node = d.doc_id
"""


# ------------------------------------ incremental dedup (Bloom filter)
#
# Every other dedup op here is WITHIN-corpus; real pipelines also need
# the incremental question — "is this new document already in the corpus
# snapshot we processed last month?" — without re-shuffling the old
# corpus.  A Bloom filter answers it in fixed memory: the reference
# side's fingerprints set k bit positions in an m-bit array (a DISTINCT
# over <= m ints — bounded regardless of corpus size, ~8 KB/2^16 bits,
# broadcastable at any practical m), and the new side checks its k
# positions against the broadcast bitset.  Everything is integer
# arithmetic over the SQL-expressible fingerprint, so the flag column is
# value-exact against the DuckDB twin.  No false negatives by
# construction; false-positive rate ~ (set_bits/m)^k.

BLOOM_M = 65536  # bits
BLOOM_HASHES = ((1, 0), (31, 7), (69069, 5))  # (a_j, c_j)


def _bloom_bits(fp: "np.ndarray", m: int) -> "np.ndarray":
    """(n, k) bit positions for int64 fingerprints."""
    from .hashing import M31

    return np.stack(
        [((a * fp + c) % M31) % m for a, c in BLOOM_HASHES], axis=1
    )


def bloom_incremental_dedup(sf_dir: str, m: int = BLOOM_M):
    """(doc_id, fp, flagged): split the corpus deterministically
    (doc_id % 2 == 0 -> reference snapshot, == 1 -> new batch), build a
    Bloom bitset over the reference fingerprints, and flag each new doc
    whose fingerprint hits all k reference bits (flagged=1 => possible
    duplicate of the snapshot; 0 => definitely new).  Exact twin in
    :func:`bloom_incremental_dedup_sql`."""
    import ray

    from ..ops import read
    from .hashing import poly_hash_segments, poly_hash_strings, tokenize_batch

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp_batch(batch: pa.Table) -> pa.Table:
        flat, lens = tokenize_batch(batch["text"].to_pylist())
        th = poly_hash_strings(flat)
        fps = poly_hash_segments(th, lens).astype(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "fp": pa.array(fps)}
        )

    fps = ds.map_batches(fp_batch, batch_format="pyarrow")

    def ref_bits(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        fp = np.asarray(batch["fp"].to_pylist(), dtype=np.int64)
        fp = fp[ids % 2 == 0]
        bits = np.unique(_bloom_bits(fp, m)) if len(fp) else np.array([], np.int64)
        return pa.table({"bit": pa.array(bits.astype(np.int64))})

    # the fp table feeds BOTH the bitset build and the flag pass (diamond
    # DAG): materialize once (16 B/doc — ~1% of text bytes, spills fine)
    # instead of re-fingerprinting the corpus per consumer; each block's
    # distinct bits are bounded at <= m ints regardless of corpus size, so
    # the driver sets them with no exchange
    fps = fps.materialize()
    bitset = np.zeros(m, dtype=bool)
    bdf = fps.map_batches(ref_bits, batch_format="pyarrow").to_pandas()
    if len(bdf):
        bitset[bdf["bit"].to_numpy(np.int64)] = True
    bits_ref = ray.put(bitset)

    def flag(batch: pa.Table) -> pa.Table:
        bs = ray.get(bits_ref)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        fp = np.asarray(batch["fp"].to_pylist(), dtype=np.int64)
        new_mask = ids % 2 == 1
        ids, fp = ids[new_mask], fp[new_mask]
        flagged = (
            bs[_bloom_bits(fp, m)].all(axis=1).astype(np.int64)
            if len(fp)
            else np.array([], np.int64)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "fp": pa.array(fp),
                "flagged": pa.array(flagged),
            }
        )

    return fps.map_batches(flag, batch_format="pyarrow")


def bloom_incremental_dedup_sql(m: int = BLOOM_M) -> str:
    from ..ops.textstats import fingerprint_sql
    from .hashing import M31

    bit = "(({a} * fp + {c}) % " + str(M31) + ") % " + str(m)
    ref_arms = "\nUNION\n".join(
        f"SELECT DISTINCT {bit.format(a=a, c=c)} AS bit FROM ref"
        for a, c in BLOOM_HASHES
    )
    hits = " AND ".join(
        f"{bit.format(a=a, c=c)} IN (SELECT bit FROM bits)"
        for a, c in BLOOM_HASHES
    )
    return f"""
WITH fp AS ({fingerprint_sql()}),
ref AS (SELECT fp FROM fp WHERE doc_id % 2 = 0),
bits AS ({ref_arms})
SELECT doc_id, fp, CAST(({hits}) AS BIGINT) AS flagged
FROM fp WHERE doc_id % 2 = 1
"""

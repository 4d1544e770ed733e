"""Deduplication operators (exact, MinHash+LSH, SimHash, embedding cosine).

Scale shapes (ray_guide patterns, re-derived for this engine):
  * exact: vectorized content-hash per batch -> groupby(hash) -> keep the
    min-doc_id row per group (one shuffle over (hash, doc_id) pairs only).
  * MinHash+LSH: shingle->minhash signature per batch (vectorized, one
    matmul-free universal-hash pass) -> explode to (band, band_hash) rows ->
    groupby band bucket -> candidate pairs -> exact-Jaccard verify ->
    connected components -> representative per cluster.
  * SimHash: 31-bit signature per doc; near-dup candidates via 4x8-bit
    band blocking, verified by XOR-popcount Hamming distance.
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

from . import co_partition, read

_MERSENNE = np.uint64((1 << 61) - 1)


def _stable_hash(strings: pd.Series) -> np.ndarray:
    return pd.util.hash_array(strings.to_numpy(dtype=object))


def dedup_exact(sf_dir: str):
    """Keep the smallest doc_id per identical ``text`` -> (doc_id, n_chars).

    Shuffle carries only (hash, doc_id, n_chars); the text itself never
    moves. 64-bit collisions are accepted (documented; ~1e-13 at 1e6 docs).
    """
    from ray.data.aggregate import Min

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

    # pure Min aggregate (no per-group Python call): rows sharing a hash
    # share the text, hence n_chars — Min picks the kept row's value
    out = (
        ds.map_batches(hash_stage, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"), Min("n_chars", alias_name="n_chars"))
    )
    return out.select_columns(["doc_id", "n_chars"])


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
    per actor.  Emits per doc: the signature, the band keys, and the
    distinct shingle-hash set (for the co-partitioned verify join).
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


_HASHER_CACHE: dict = {}


def _cached(cls, **kw):
    """Per-worker-process singleton for trivially-cheap hasher state.

    These stages' setup (a seeded rng draw) costs microseconds, so a task
    pool with a module-level cache beats an actor pool: worker processes
    are reused across tasks and runs, while each actor pool pays a
    multi-second spin-up per query execution (measured: ~3s of a 10s
    minhash run)."""
    key = (cls.__name__, tuple(sorted(kw.items())))
    if key not in _HASHER_CACHE:
        _HASHER_CACHE[key] = cls(**kw)
    return _HASHER_CACHE[key]


def minhash_signatures(sf_dir: str, num_perm: int = 64, ngram: int = 3):
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(MinHasher, num_perm=num_perm, ngram=ngram)(batch)

    return ds.map_batches(fn, batch_format="pyarrow")


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
    # the full MinHasher pass per consumer, and two simultaneous full-size
    # actor pools starve the exchanges of CPUs (observed deadlock).
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
        lambda rows: _bucket_pairs(rows, ["band", "key"]),
        rows=(
            sig_ds.map_batches(explode_bands, batch_format="pyarrow"),
            ["band", "key"],
            {"doc_id": pa.int64(), "band": pa.int32(), "key": pa.int64()},
        ),
    )
    return _verify_jaccard(cands, sig_ds, threshold)


def _bucket_pairs(rows: pd.DataFrame, by: list[str], max_n: int | None = None) -> pd.DataFrame:
    """(doc_a, doc_b) with doc_a < doc_b for every pair of rows sharing
    ``by``, over buckets of 2..``max_n`` members (buckets with >=2
    members are rare, so only those are enumerated)."""
    n = rows.groupby(by, sort=False)["doc_id"].transform("size").to_numpy()
    hot = (n >= 2) & (n <= (max_n or len(rows)))
    a_out: list[np.ndarray] = [np.zeros(0, np.int64)]
    b_out: list[np.ndarray] = [np.zeros(0, np.int64)]
    for _k, bucket in rows[hot].groupby(by, sort=False):
        ids = np.sort(bucket["doc_id"].to_numpy(np.int64))
        ii, jj = np.triu_indices(len(ids), 1)
        a_out.append(ids[ii])
        b_out.append(ids[jj])
    return pd.DataFrame({"doc_a": np.concatenate(a_out), "doc_b": np.concatenate(b_out)})


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

    def shingle_fn(batch: pa.Table) -> pa.Table:
        return _cached(ShingleSetStage, ngram=ngram)(batch)

    shl_ds = (
        read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(shingle_fn, batch_format="pyarrow")
        .materialize()  # consumed by postings AND the verify exchanges
    )

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
        lambda postings: _bucket_pairs(postings, ["h"], max_n=max_df),
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


# ---------------------------------------------------------------- SimHash
#
# The signature is 4 x 31 = 124 bits — four INDEPENDENT 31-bit polynomial token hashes
# (different char bases, same M31 modulus, all SQL-expressible) each
# contributing a per-bit-majority word.  Banding splits every word into a
# 16-bit and a 15-bit band -> 8 bands with 65k/32k key spaces: bucket
# population at 10^9 docs is O(N/2^15) per band instead of a single
# 31-bit word's O(N/256) quadratic hot spot, and pairs within Hamming <= 3 still share
# at least 8-3 = 5 bands exactly (full recall at the threshold).
# Zero-token docs are DROPPED (they would all collide in one
# signature-0 bucket and are not meaningful near-dup candidates —
# mirroring MinHasher's documented contract).

SIMHASH_BITS = 31
SIMHASH_WORDS = 4
SIMHASH_CHAR_BASES = (131, 137, 139, 149)  # independent hash family members
# per-word band splits: (lo_bit, n_bits) — 2 bands/word x 4 words = 8 bands
SIMHASH_BAND_SPLITS = ((0, 16), (16, 15))
SIMHASH_BANDS = SIMHASH_WORDS * len(SIMHASH_BAND_SPLITS)

# 16-bit popcount LUT (numpy 1.x has no bitwise_count)
_POP16 = np.array(
    [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
)


def _popcount32(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint32)
    return (_POP16[x & 0xFFFF].astype(np.int64)
            + _POP16[x >> 16].astype(np.int64))


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
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(SimHasher)(batch)

    return ds.map_batches(fn, batch_format="pyarrow")


def _band_specs() -> list[tuple[int, int, int, int]]:
    """[(band, word, lo_bit, mask)] for the 8 per-word band splits."""
    specs = []
    band = 0
    for w in range(SIMHASH_WORDS):
        for lo, nbits in SIMHASH_BAND_SPLITS:
            specs.append((band, w, lo, (1 << nbits) - 1))
            band += 1
    return specs


# Hot-bucket cap: a (band, key) bucket whose
# population exceeds the cap is split by the LOW 16 BITS OF THE
# COMPLEMENTARY WORD's signature (word (w+1) % 4 for a band over word
# w), dividing a degenerate pileup up to 65536 ways — a 10^9-doc
# worst-case bucket drops to ~15k per sub-bucket, bounding the in-bucket
# O(pop^2) pair enumeration.  Two honest limits, both by construction:
# (1) identical signatures share the subkey, so a flood of EXACT
# duplicates is not split — but those pairs ARE the answer and their
# quadratic output is the result size, not overhead; (2) a
# within-threshold pair in a split bucket survives only if it agrees on
# the subkey bits — it differs in <= max_hamming bits total across all
# four words, so at least one of its >= 8 - max_hamming agreeing bands
# draws its subkey from a word the pair agrees on whenever the
# differing bits touch <= 2 words (3 differing words can in principle
# cover all complements: bounded, documented recall loss under
# adversarial skew).  The cap is inert below bucket_cap docs (the
# oracle corpora) and the SQL twin reproduces the split exactly, so
# parity holds with the cap ACTIVE (tested at cap=1).

SIMHASH_BUCKET_CAP = 4096
SIMHASH_SUBKEY_BITS = 16


def simhash_pairs(
    sf_dir: str, max_hamming: int = 3, bucket_cap: int = SIMHASH_BUCKET_CAP
):
    """Near-dup pairs by SimHash banding over the 124-bit signature,
    fully distributed: band-explode (8 bands, 15/16-bit keys) ->
    groupby(band, key, key2) -> vectorized in-bucket pair enumeration
    with XOR-popcount Hamming over the 4 words -> distinct via
    aggregate.  Signatures within Hamming <= max_hamming (< 8) share at
    least one band exactly, so banding has full recall at the threshold;
    buckets over ``bucket_cap`` are sub-split on complementary-word bits
    (key2; see the module note above for the bounded recall caveat)."""
    import logging

    import ray
    from ray.data.aggregate import Min

    sig_ds = simhash_signatures(sf_dir)
    specs = _band_specs()
    sig_cols = [f"sig{w}" for w in range(SIMHASH_WORDS)]
    sub_mask = (1 << SIMHASH_SUBKEY_BITS) - 1

    def _keys(ids, sigs):
        n = len(ids)
        nb = len(specs)
        keys = np.empty((n, nb), dtype=np.int64)
        for band, w, lo, mask in specs:
            keys[:, band] = (sigs[:, w] >> lo) & mask
        return keys

    def _sigs_of(batch: pa.Table) -> np.ndarray:
        if len(batch) == 0:
            return np.zeros((0, SIMHASH_WORDS), dtype=np.int64)
        return np.stack(
            [np.asarray(batch[c].to_pylist(), dtype=np.int64) for c in sig_cols],
            axis=1,
        )

    # hot-bucket pre-pass: per-block partial (band, key) counts -> one
    # small groupby-sum.  The histogram is bounded by the KEY SPACE
    # (8 bands x <= 2^16 keys = 512k rows max, independent of corpus
    # size), so the driver materialize is justified; skipped entirely
    # when the corpus can't exceed the cap.
    from . import table_rows

    hot: set[tuple[int, int]] = set()
    n_docs = table_rows(sf_dir, "documents")
    if n_docs is None or n_docs > bucket_cap:
        def key_counts(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
            keys = _keys(ids, _sigs_of(batch))
            nb = len(specs)
            bands = np.tile(np.arange(nb, dtype=np.int64), len(ids))
            flat = keys.reshape(-1)
            df = pd.DataFrame({"band": bands, "key": flat})
            g = df.groupby(["band", "key"], as_index=False).size()
            g = g.rename(columns={"size": "c"})
            g["c"] = g["c"].astype(np.int64)
            return pa.Table.from_pandas(g, preserve_index=False)

        cnt = (
            sig_ds.map_batches(key_counts, batch_format="pyarrow")
            .groupby(["band", "key"])
            .sum("c")
            .to_pandas()
        )
        over = cnt[cnt["sum(c)"] > bucket_cap]
        hot = set(zip(over["band"].astype(int), over["key"].astype(int)))
        if hot:
            logging.getLogger(__name__).info(
                "simhash_pairs: splitting %d hot buckets (> %d docs)",
                len(hot),
                bucket_cap,
            )
    # per-band sorted hot-key arrays: the worker-side membership test is
    # one vectorized np.isin per band, not a Python set probe per row
    hot_by_band = {
        b: np.asarray(sorted(k for bb, k in hot if bb == b), dtype=np.int64)
        for b in range(len(specs))
        if any(bb == b for bb, _ in hot)
    }
    hot_ref = ray.put(hot_by_band)

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        sigs = _sigs_of(batch)
        n = len(ids)
        nb = len(specs)
        keys = _keys(ids, sigs)
        # subkey per band: low bits of the complementary word, applied
        # only where (band, key) is hot
        hot_ = ray.get(hot_ref)
        key2 = np.zeros((n, nb), dtype=np.int64)
        if hot_:
            for band, w, lo, mask in specs:
                hk = hot_.get(band)
                if hk is None:
                    continue
                w2 = (w + 1) % SIMHASH_WORDS
                sub = sigs[:, w2] & sub_mask
                is_hot = np.isin(keys[:, band], hk, assume_unique=False)
                key2[is_hot, band] = sub[is_hot]
        cols = {
            "band": pa.array(np.tile(np.arange(nb, dtype=np.int32), n)),
            "key": pa.array(keys.reshape(-1)),
            "key2": pa.array(key2.reshape(-1)),
            "doc_id": pa.array(np.repeat(ids, nb)),
        }
        for w, c in enumerate(sig_cols):
            cols[c] = pa.array(np.repeat(sigs[:, w], nb))
        return pa.table(cols)

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = group["doc_id"].to_numpy(np.int64)
        sigs = np.stack([group[c].to_numpy(np.int64) for c in sig_cols], axis=1)
        order = np.argsort(ids)
        ids, sigs = ids[order], sigs[order]
        ii, jj = np.triu_indices(len(ids), k=1)
        ham = np.zeros(len(ii), dtype=np.int64)
        for w in range(SIMHASH_WORDS):
            ham += _popcount32(
                np.bitwise_xor(sigs[ii, w], sigs[jj, w]).astype(np.uint32)
            )
        m = ham <= max_hamming
        return pd.DataFrame(
            {
                "doc_a": ids[ii[m]],
                "doc_b": ids[jj[m]],
                "hamming": ham[m],
            }
        )

    pairs = (
        sig_ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["band", "key", "key2"])
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    # distinct across bands (hamming is identical for a given pair)
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming")
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


SIMHASH_SIGS_SQL_TAIL = "SELECT doc_id, sig0, sig1, sig2, sig3 FROM sig"


def simhash_pairs_sql(
    max_hamming: int = 3, bucket_cap: int = SIMHASH_BUCKET_CAP
) -> str:
    specs = _band_specs()
    # word2 = complementary word supplying the hot-bucket subkey bits
    band_rows = ", ".join(
        f"({b}, {w}, {lo}, {mask}, {(w + 1) % SIMHASH_WORDS})"
        for b, w, lo, mask in specs
    )
    word_case = (
        "CASE word WHEN 0 THEN sig0 WHEN 1 THEN sig1 "
        "WHEN 2 THEN sig2 ELSE sig3 END"
    )
    word2_case = (
        "CASE word2 WHEN 0 THEN sig0 WHEN 1 THEN sig1 "
        "WHEN 2 THEN sig2 ELSE sig3 END"
    )
    sub_mask = (1 << SIMHASH_SUBKEY_BITS) - 1
    ham = " + ".join(
        f"bit_count(xor(x.sig{w}, y.sig{w}))" for w in range(SIMHASH_WORDS)
    )
    return simhash_sig_sql() + f"""
, bands(band, word, lo, mask, word2) AS (VALUES {band_rows}),
b0 AS (SELECT doc_id, sig0, sig1, sig2, sig3, band,
              (({word_case}) >> lo) & mask AS key,
              ({word2_case}) & {sub_mask} AS sub
       FROM sig CROSS JOIN bands),
b AS (SELECT doc_id, sig0, sig1, sig2, sig3, band, key,
             CASE WHEN count(*) OVER (PARTITION BY band, key) > {bucket_cap}
                  THEN sub ELSE 0 END AS key2
      FROM b0)
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
    from ray.data.aggregate import Min

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

    def in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "vec_a": pd.Series([], dtype=np.int64),
                "vec_b": pd.Series([], dtype=np.int64),
                "cos_pct": pd.Series([], dtype=np.int64),
            }
        )
        if len(group) < 2:
            return empty
        ids = group["vec_id"].to_numpy(np.int64)
        home = group["is_home"].to_numpy(np.int8).astype(bool)
        q = np.vstack([np.frombuffer(b, dtype=np.int64) for b in group["qv"]])
        order = np.argsort(ids)
        ids, home, q = ids[order], home[order], q[order]
        ii, jj = np.triu_indices(len(ids), k=1)
        # a pair within probe radius appears with >=1 home row in some
        # group; "at least one home" avoids pure-probe echo groups
        m = (home[ii] | home[jj]) & (ids[ii] != ids[jj])
        ii, jj = ii[m], jj[m]
        if not len(ii):
            return empty
        num = np.einsum("ij,ij->i", q[ii].astype(np.float64), q[jj].astype(np.float64))
        na = np.sqrt((q[ii].astype(np.float64) ** 2).sum(axis=1))
        nb = np.sqrt((q[jj].astype(np.float64) ** 2).sum(axis=1))
        cos = num / (na * nb)
        keep = cos >= threshold
        return pd.DataFrame(
            {
                "vec_a": ids[ii[keep]],
                "vec_b": ids[jj[keep]],
                "cos_pct": np.floor(100.0 * cos[keep] + 0.5).astype(np.int64),
            }
        )

    pairs = (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(in_bucket, batch_format="pandas")
    )
    # distinct across probe buckets (cos_pct identical for a given pair)
    return pairs.groupby(["vec_a", "vec_b"]).aggregate(
        Min("cos_pct", alias_name="cos_pct")
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


def _cc_min_labels(edges, max_rounds: int = 50):
    """Connected components over a MATERIALIZED symmetrized edge Dataset
    (u, v int64) -> (labels Dataset (node, label=component min), rounds).

    Min-label propagation WITH pointer jumping: every round each node
    takes the min over (a) its neighbors' labels and (b) its label's
    label (label compression).  (b) doubles the distance already covered,
    so convergence is O(log diameter) rounds, not O(diameter) — a
    1M-node chain needs ~20 rounds, not 1M.  Propagate and jump share
    ONE co-partition per round (two separate shuffles doubled the
    per-round fixed cost); per-node minima ride Ray's vectorized Min
    aggregate.  Labels are materialized per round (bounded: one row per
    dup-graph node) and the convergence probe is a scalar sum aggregate
    (labels decrease monotonically)."""
    node_label = {"node": pa.int64(), "label": pa.int64()}

    def init_labels(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        m = batch["min(v)"].to_numpy()
        return pa.table(
            {"node": pa.array(u), "label": pa.array(np.minimum(u, m))}
        )

    labels = (
        edges.groupby("u")
        .min("v")
        .map_batches(init_labels, batch_format="pyarrow")
        .materialize()
    )
    if labels.count() == 0:
        return labels, 0

    def resolve(owners: pd.DataFrame, edges: pd.DataFrame, jumps=None) -> pd.DataFrame:
        """Answer every ask with the asked node's label, plus the owners'
        own keep-rows.  An edge (u, v) is v asking u (propagation); a
        jump row is a node asking its label's owner (pointer jumping)."""
        key, asker = [edges["u"].to_numpy()], [edges["v"].to_numpy()]
        if jumps is not None:
            key.append(jumps["label"].to_numpy())
            asker.append(jumps["node"].to_numpy())
        ask = pd.DataFrame({"node": np.concatenate(key), "asker": np.concatenate(asker)})
        m = ask.merge(owners, on="node", how="inner")
        return pd.DataFrame(
            {
                "node": np.concatenate([m["asker"].to_numpy(), owners["node"].to_numpy()]),
                "label": np.concatenate([m["label"].to_numpy(), owners["label"].to_numpy()]),
            }
        )

    def finish_min(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "label": batch["min(label)"]})

    # block-count discipline: every round's exchange unions several
    # inputs, so the label table's block count would roughly DOUBLE per
    # round and per-block fixed costs explode (measured: 0.3s -> 29s ->
    # 150s rounds on a 32-node path).  Pin it to the edge table's count.
    n_blocks = max(edges.num_blocks(), 1)
    prev_sum = labels.sum("label")
    for rounds in range(1, max_rounds + 1):
        sides = {
            "owners": (labels, "node", node_label),
            "edges": (edges, "u", {"u": pa.int64(), "v": pa.int64()}),
        }
        # jump skipped in the first iteration: init labels are 1-hop
        # minima, so the first jump adds nothing for the common shallow
        # dup graph
        if rounds > 1:
            sides["jumps"] = (labels, "label", node_label)
        labels = (
            co_partition(resolve, **sides)
            .groupby("node")
            .min("label")
            .map_batches(finish_min, batch_format="pyarrow")
            .repartition(n_blocks)
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # per-node labels only decrease
            return labels, rounds
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
    # instead of re-fingerprinting the corpus per consumer; the bits
    # table below is bounded at <= m distinct ints regardless of corpus
    # size, so pulling it to the driver is justified
    fps = fps.materialize()
    bit_rows = (
        fps.map_batches(ref_bits, batch_format="pyarrow").groupby("bit").count()
    )
    bitset = np.zeros(m, dtype=bool)
    bdf = bit_rows.to_pandas()
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

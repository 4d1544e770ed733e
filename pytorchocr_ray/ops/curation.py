"""Corpus-curation operators for LLM training-data pipelines.

Operators the reference has no analog for (SURVEY §2.9 "beyond the
reference" family), each with a value-exact DuckDB twin:

- :func:`repetition_stats` — Gopher-style repetition quality signals
  (most-frequent token / 2-gram multiplicity, duplicated-5-gram mass)
  per document, from one vectorized windowed-hash pass.
- :func:`decontaminate` — benchmark-overlap flagging: a document is
  contaminated when it shares any word 8-gram with the held-out
  benchmark slice.  Benchmark gram set is broadcast (eval suites are
  MB-scale even when the corpus is 100 TB).
- :func:`pack_sequences` — concat-and-chunk sequence packing: the
  global token offset of every document (a distributed exclusive
  prefix sum over per-block summaries) and the training chunks it
  lands in.
- :func:`lang_rebalance` — temperature-based multilingual downsampling
  (keep rate sqrt(n_min/n_lang), the XLM-R / mT5 α=0.5 mixing rule)
  with a deterministic LCG keep decision instead of an RNG.
- :func:`semdedup` — SemDeDup semantic near-dup flagging: k-means
  cluster assignment (trained IVF centroid fixture) then in-cluster
  quantized-cosine pairwise flags with the keep-first rule.

Hashing follows ops/hashing.py: 31-bit polynomial char hash per token,
Horner combination with B_TOK across the gram window — identical on the
SQL side, so gram-hash collisions (merging two distinct grams) are rare
AND bit-identical in both systems.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import _head_k, co_partition, read
from .hashing import B_TOK, M31, TOKEN_SPLIT_RE, poly_hash_strings, sql_char_hash, sql_tokens, tokenize_batch

_M = np.uint64(M31)
_B = np.uint64(B_TOK)


def _doc_token_hashes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(flat token char-hashes, tokens-per-doc) for a batch of texts."""
    flat, lens = tokenize_batch(texts)
    return poly_hash_strings(flat), lens


def _windowed_hashes(
    h: np.ndarray, lens: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n-gram Horner hashes per doc segment (no window crosses a doc).

    Returns (flat gram hashes, grams-per-doc); a doc with fewer than n
    tokens contributes zero grams.  Fully vectorized: n-1 shifted
    multiply-adds over the flat token-hash array, then a gather of the
    in-segment window starts.
    """
    gcnt = np.maximum(lens - n + 1, 0)
    gcnt[lens == 0] = 0
    total = len(h)
    if total < n or gcnt.sum() == 0:
        return np.zeros(0, dtype=np.uint64), gcnt
    acc = h[: total - n + 1].copy()
    for j in range(1, n):
        acc = (acc * _B + h[j : total - n + 1 + j]) % _M
    starts = np.cumsum(lens) - lens
    out_starts = np.cumsum(gcnt) - gcnt
    idx = np.arange(int(gcnt.sum()), dtype=np.int64) + np.repeat(
        starts - out_starts, gcnt
    )
    return acc[idx], gcnt


def _per_doc_multiplicity(
    doc_ix: np.ndarray, keys: np.ndarray, n_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (max key multiplicity, #items whose key repeats in-doc).

    One lexsort + run-length encode over the (doc, key) pairs — no
    per-doc Python loop.
    """
    maxc = np.zeros(n_docs, dtype=np.int64)
    dupc = np.zeros(n_docs, dtype=np.int64)
    if len(doc_ix) == 0:
        return maxc, dupc
    order = np.lexsort((keys, doc_ix))
    d = doc_ix[order]
    k = keys[order]
    new_run = np.empty(len(d), dtype=bool)
    new_run[0] = True
    new_run[1:] = (d[1:] != d[:-1]) | (k[1:] != k[:-1])
    run_starts = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_starts, len(d)))
    run_doc = d[run_starts]
    np.maximum.at(maxc, run_doc, run_len)
    np.add.at(dupc, run_doc, np.where(run_len >= 2, run_len, 0))
    return maxc, dupc


# ------------------------------------------------- repetition quality stats

def repetition_stats(sf_dir: str):
    """Gopher-style repetition signals per document (all-integer):

    (doc_id, n_tokens, max_tok_cnt, max_2gram_cnt, dup_5gram_cnt,
    repetitive) where ``repetitive`` fires when the top 2-gram covers
    >= 20% of token positions (10 * max_2gram_cnt >= n_tokens) — the
    "fraction of characters in most common 2-gram" prune of Rae et al.
    2021 (Gopher), token-count form for integer exactness.

    Shuffle-free: one map_batches pass; the (doc, gram) multiset never
    leaves the block.
    """
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_docs = len(texts)
        h, lens = _doc_token_hashes(texts)
        doc_of_tok = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        max_tok, _ = _per_doc_multiplicity(doc_of_tok, h.view(np.int64), n_docs)
        g2, c2 = _windowed_hashes(h, lens, 2)
        max_2g, _ = _per_doc_multiplicity(
            np.repeat(np.arange(n_docs, dtype=np.int64), c2),
            g2.view(np.int64),
            n_docs,
        )
        g5, c5 = _windowed_hashes(h, lens, 5)
        _, dup_5g = _per_doc_multiplicity(
            np.repeat(np.arange(n_docs, dtype=np.int64), c5),
            g5.view(np.int64),
            n_docs,
        )
        repetitive = ((lens >= 2) & (10 * max_2g >= lens)).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens),
                "max_tok_cnt": pa.array(max_tok),
                "max_2gram_cnt": pa.array(max_2g),
                "dup_5gram_cnt": pa.array(dup_5g),
                "repetitive": pa.array(repetitive),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_stats_sql() -> str:
    ch = sql_char_hash("t")
    return f"""
WITH hl AS (
  SELECT doc_id, len(ts) AS n_tokens,
         list_transform(ts, t -> {ch}) AS hl
  FROM (SELECT doc_id, regexp_extract_all(text, '{TOKEN_SPLIT_RE}') AS ts
        FROM documents)),
g1 AS (SELECT doc_id, unnest(hl) AS g FROM hl),
g2 AS (
  SELECT doc_id,
         unnest(list_transform(range(len(hl) - 1),
                               i -> (hl[i+1] * {B_TOK} + hl[i+2]) % {M31})) AS g
  FROM hl WHERE len(hl) >= 2),
g5 AS (
  SELECT doc_id,
         unnest(list_transform(range(len(hl) - 4),
                               i -> list_reduce(hl[i+1:i+5],
                                                (a, c) -> (a * {B_TOK} + c) % {M31}))) AS g
  FROM hl WHERE len(hl) >= 5),
c1 AS (SELECT doc_id, max(c) AS m
       FROM (SELECT doc_id, g, count(*) AS c FROM g1 GROUP BY 1, 2) GROUP BY 1),
c2 AS (SELECT doc_id, max(c) AS m
       FROM (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2) GROUP BY 1),
c5 AS (SELECT doc_id, sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS s
       FROM (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY 1, 2) GROUP BY 1)
SELECT hl.doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(COALESCE(c1.m, 0) AS BIGINT) AS max_tok_cnt,
       CAST(COALESCE(c2.m, 0) AS BIGINT) AS max_2gram_cnt,
       CAST(COALESCE(c5.s, 0) AS BIGINT) AS dup_5gram_cnt,
       CAST(n_tokens >= 2 AND 10 * COALESCE(c2.m, 0) >= n_tokens
            AS BIGINT) AS repetitive
FROM hl
LEFT JOIN c1 USING (doc_id)
LEFT JOIN c2 USING (doc_id)
LEFT JOIN c5 USING (doc_id)
"""


# ------------------------------------------------------- decontamination

DECON_NGRAM = 8
DECON_EVERY = 50  # doc_id % DECON_EVERY == 0 is the held-out benchmark slice


def decontaminate(sf_dir: str, n: int = DECON_NGRAM, every: int = DECON_EVERY):
    """Flag training documents sharing any word ``n``-gram with the
    benchmark slice (docs where doc_id % every == 0) — the standard
    eval-decontamination pass (GPT-3 appendix C / PaLM style).

    Returns (doc_id, contaminated) for NON-benchmark docs only.

    Scale shape: the benchmark gram set is collected to the driver and
    broadcast once via ``ray.put`` — sound because the benchmark is an
    eval suite (MBs) regardless of corpus size; the 100-TB training side
    streams through one map_batches with a per-batch ``np.isin``
    (searchsorted) membership test.  Docs with fewer than ``n`` tokens
    have no n-grams and are never flagged (both sides).
    """
    import ray

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        keep = ids % every == 0
        texts = [t for t, k in zip(batch["text"].to_pylist(), keep) if k]
        h, lens = _doc_token_hashes(texts)
        g, _ = _windowed_hashes(h, lens, n)
        return pa.table({"g": pa.array(np.unique(g.view(np.int64)))})

    # bounded driver materialize: per-batch-distinct benchmark grams only
    bench_tbl = ds.map_batches(bench_grams, batch_format="pyarrow").to_pandas()
    bench = np.unique(bench_tbl["g"].to_numpy(np.int64))
    bench_ref = ray.put(bench)

    def flag(batch: pa.Table) -> pa.Table:
        ref = ray.get(bench_ref)  # zero-copy from the local object store
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        keep = ids % every != 0
        texts = [t for t, k in zip(batch["text"].to_pylist(), keep) if k]
        n_docs = len(texts)
        h, lens = _doc_token_hashes(texts)
        g, gcnt = _windowed_hashes(h, lens, n)
        hit = np.zeros(n_docs, dtype=np.int64)
        if len(g) and len(ref):
            pos = np.searchsorted(ref, g.view(np.int64))
            member = (pos < len(ref)) & (
                ref[np.minimum(pos, len(ref) - 1)] == g.view(np.int64)
            )
            np.add.at(hit, np.repeat(np.arange(n_docs, dtype=np.int64), gcnt), member)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep]),
                "contaminated": pa.array((hit > 0).astype(np.int64)),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def decontaminate_sql(n: int = DECON_NGRAM, every: int = DECON_EVERY) -> str:
    ch = sql_char_hash("t")
    return f"""
WITH hl AS (
  SELECT doc_id, list_transform(ts, t -> {ch}) AS hl
  FROM (SELECT doc_id, regexp_extract_all(text, '{TOKEN_SPLIT_RE}') AS ts
        FROM documents)),
g AS (
  SELECT doc_id,
         unnest(list_transform(range(len(hl) - {n - 1}),
                               i -> list_reduce(hl[i+1:i+{n}],
                                                (a, c) -> (a * {B_TOK} + c) % {M31}))) AS g
  FROM hl WHERE len(hl) >= {n}),
bench AS (SELECT DISTINCT g FROM g WHERE doc_id % {every} = 0),
hits AS (
  SELECT g.doc_id, count(b.g) AS nhit
  FROM g LEFT JOIN bench b USING (g)
  WHERE g.doc_id % {every} != 0
  GROUP BY 1)
SELECT d.doc_id,
       CAST(COALESCE(h.nhit, 0) > 0 AS BIGINT) AS contaminated
FROM documents d
LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % {every} != 0
"""


# --------------------------------------------- concat-and-chunk packing

PACK_SEQ_LEN = 256


def pack_sequences(sf_dir: str, seq_len: int = PACK_SEQ_LEN):
    """Concat-and-chunk sequence packing: documents concatenated in
    doc_id order, chunked every ``seq_len`` tokens (the standard LM
    pretraining layout).  Per doc: its global token offset, the chunk
    its first token lands in, and how many chunks it spans.

    Distributed exclusive PREFIX SUM, not a sort: pass 1 reduces each
    block to one (min_doc, max_doc, n_rows, sum_tokens) summary row
    (#blocks rows reach the driver — bounded by cluster size, not
    corpus size); the driver orders the summaries, verifies the blocks
    are disjoint doc_id ranges, and computes per-block base offsets;
    pass 2 re-streams the same blocks adding base + in-block cumsum.
    Relies on the read producing doc_id-range-partitioned blocks
    (sorted parquet, no shuffle in between) — pass 2 ASSERTS every
    block matches a pass-1 summary exactly, so blocking drift fails
    loudly instead of mispacking.
    """
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def summarize(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        if len(ids) == 0:
            return pa.table(
                {"min_doc": pa.array([], pa.int64()),
                 "max_doc": pa.array([], pa.int64()),
                 "n_rows": pa.array([], pa.int64()),
                 "sum_tokens": pa.array([], pa.int64())}
            )
        nt = pc.cast(
            pc.count_substring_regex(batch["text"], TOKEN_SPLIT_RE), pa.int64()
        ).to_numpy()
        return pa.table(
            {
                "min_doc": pa.array([int(ids.min())]),
                "max_doc": pa.array([int(ids.max())]),
                "n_rows": pa.array([len(ids)]),
                "sum_tokens": pa.array([int(nt.sum())]),
            }
        )

    sm = (
        ds.map_batches(summarize, batch_size=None, batch_format="pyarrow")
        .to_pandas()  # bounded: one row per block
        .sort_values("min_doc")
        .reset_index(drop=True)
    )
    if len(sm) > 1 and not (
        sm["max_doc"].to_numpy()[:-1] < sm["min_doc"].to_numpy()[1:]
    ).all():
        raise AssertionError(
            "pack_sequences: blocks are not disjoint doc_id ranges "
            "(input not sorted by doc_id, or shuffled upstream)"
        )
    bases = np.cumsum(sm["sum_tokens"].to_numpy(np.int64)) - sm[
        "sum_tokens"
    ].to_numpy(np.int64)
    block_info = {
        int(md): (int(base), int(mx), int(nr), int(st))
        for md, mx, nr, st, base in zip(
            sm["min_doc"], sm["max_doc"], sm["n_rows"], sm["sum_tokens"], bases
        )
    }

    import ray

    info_ref = ray.put(block_info)
    S = int(seq_len)

    def assign(batch: pa.Table) -> pa.Table:
        info = ray.get(info_ref)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        if len(ids) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64()),
                 "start_tok": pa.array([], pa.int64()),
                 "chunk_id": pa.array([], pa.int64()),
                 "n_chunks": pa.array([], pa.int64())}
            )
        nt = pc.cast(
            pc.count_substring_regex(batch["text"], TOKEN_SPLIT_RE), pa.int64()
        ).to_numpy()
        order = np.argsort(ids, kind="stable")
        ids, nt = ids[order], nt[order]
        key = int(ids[0])
        if key not in info:
            raise AssertionError(
                f"pack_sequences: pass-2 block starting at doc {key} has no "
                "pass-1 summary (block boundaries drifted between passes)"
            )
        base, mx, nr, st = info[key]
        if int(ids[-1]) != mx or len(ids) != nr or int(nt.sum()) != st:
            raise AssertionError(
                "pack_sequences: pass-2 block content differs from its "
                f"pass-1 summary (doc range {ids[0]}..{ids[-1]})"
            )
        start = base + np.cumsum(nt) - nt
        chunk_id = start // S
        last = np.where(nt > 0, (start + np.maximum(nt, 1) - 1) // S, chunk_id)
        n_chunks = np.where(nt > 0, last - chunk_id + 1, 0)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(nt),
                "start_tok": pa.array(start),
                "chunk_id": pa.array(chunk_id),
                "n_chunks": pa.array(n_chunks.astype(np.int64)),
            }
        )

    return ds.map_batches(assign, batch_size=None, batch_format="pyarrow")


# --------------------------------------- temperature language rebalance

REBAL_M = 2147483647  # shared with ops/sampling SAMPLE_M / hashing M31
REBAL_A = 1103515245
REBAL_C = 12345


def lang_rebalance(sf_dir: str):
    """Temperature-based language rebalancing (the multilingual-mixing
    downsample of XLM-R / mT5: sampling share proportional to n_lang^α,
    α = 0.5): keep each document of language *l* with probability
    ``r_l = sqrt(n_min / n_l)`` — the rarest language keeps everything,
    the head language is square-root-damped.  Determinism: the keep
    decision is ``LCG(doc_id) mod M < floor(r_l * M)``, not an RNG, so
    the kept set is reproducible across runs/cluster sizes and value-
    exact against the SQL twin (sqrt/divide/floor are single IEEE ops,
    bit-identical in numpy and DuckDB).

    Scale shape: pass 1 reduces each block to per-language partial
    counts (#langs x #blocks rows to the driver — language sets are
    O(100) at any corpus size); the per-language keep thresholds are
    broadcast as a tiny map; pass 2 streams the corpus through one
    vectorized filter.  No shuffle at all.
    """
    ds = read(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        langs, counts = np.unique(
            np.asarray(batch["lang"].to_pylist()), return_counts=True
        )
        return pa.table(
            {"lang": pa.array(langs.tolist()), "n": pa.array(counts)}
        )

    cnt = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .to_pandas()  # bounded: #langs x #blocks rows
        .groupby("lang")["n"]
        .sum()
    )
    nmin = int(cnt.min())
    thr = {
        lang: int(np.floor(np.sqrt(nmin / float(n)) * REBAL_M))
        for lang, n in cnt.items()
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        # same precondition as sample_per_group: id*A must not wrap int64
        if len(ids) and int(ids.max()) >= 1 << 32:
            raise ValueError(
                "lang_rebalance requires doc_id < 2^32 (got "
                f"{int(ids.max())}); pre-reduce ids mod {REBAL_M}"
            )
        langs = batch["lang"].to_pylist()
        t = np.fromiter((thr[l] for l in langs), dtype=np.int64, count=len(langs))
        h = (ids * REBAL_A + REBAL_C) % REBAL_M
        return batch.select(["doc_id", "lang"]).filter(pa.array(h < t))

    return ds.map_batches(keep, batch_format="pyarrow")


def lang_rebalance_sql() -> str:
    return f"""
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY 1),
m AS (SELECT min(n) AS nmin FROM c),
r AS (SELECT lang,
             CAST(floor(sqrt(CAST(nmin AS DOUBLE) / n) * {REBAL_M}) AS BIGINT)
               AS thr
      FROM c, m)
SELECT d.doc_id, d.lang
FROM documents d JOIN r USING (lang)
WHERE (CAST(d.doc_id AS BIGINT) * {REBAL_A} + {REBAL_C}) % {REBAL_M} < r.thr
"""


# ----------------------------------------------------- semantic dedup

SEMDEDUP_THRESHOLD = 0.40  # see ops/dedup.EMB_THRESHOLD: the synthetic
# embeddings are near-orthonormal (max pairwise cos ~0.51); a production
# 0.95+ threshold would return zero flags and leave the op unexercised.
SEMDEDUP_CENTROIDS = 16


def _clusters(sf_dir: str, n_centroids: int, qd: bool = False):
    """(vec_id, cid) per embedding, plus its quantized vector ``qd`` when
    asked: the nearest trained IVF centroid by exact-integer cosine, the
    lowest cid on ties; a broadcast argmax per batch, no shuffle."""
    import ray

    from .simsearch import _load_centroids, _qcos, _quantize, train_ivf_centroids

    cent_ref = ray.put(_load_centroids(train_ivf_centroids(sf_dir, n_centroids)))

    def assign(batch: pa.Table) -> pa.Table:
        emb = _quantize(np.asarray(batch["embedding"].to_pylist(), dtype=np.float64))
        cid = _qcos(emb, ray.get(cent_ref)).argmax(axis=1)  # first max = lowest cid on ties
        cols = {"vec_id": pc.cast(batch["vec_id"], pa.int64()), "cid": pa.array(cid.astype(np.int64))}
        if qd:
            cols["qd"] = pa.array(emb.tolist(), pa.list_(pa.int64()))
        return pa.table(cols)

    return read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )


def semdedup(
    sf_dir: str,
    threshold: float = SEMDEDUP_THRESHOLD,
    n_centroids: int = SEMDEDUP_CENTROIDS,
):
    """SemDeDup (Abbas et al. 2023): k-means-cluster the embedding space,
    then flag near-duplicates ONLY within each cluster — pairwise cost
    drops from O(N^2) to sum of O(|cluster|^2), and the cluster count is
    the scale knob (the paper uses k ~ sqrt(N); here k rides the trained
    IVF centroid fixture shared with ``topk_ivf``).

    Returns (vec_id, cid, n_similar, is_dup): ``n_similar`` counts
    LOWER-vec_id same-cluster neighbors with quantized cosine >=
    threshold (the keep-first rule: the lowest id of a duplicate set is
    its retained representative, ``is_dup = n_similar > 0``).

    Scale shape: centroid assignment is a broadcast argmax per batch (no
    shuffle); one co-partition on cid co-locates each cluster's vectors
    once; in-cluster pairwise cosine runs in fixed-size row chunks so
    memory is O(chunk x (chunk + |cluster|)), never O(|cluster|^2)
    floats at once.
    Assignment tie-break (lowest cid) and ranking are bit-identical to
    the DuckDB twin via the exact integer-quantized cosine.
    """
    import pandas as pd

    from .simsearch import _qcos

    def in_cluster(rows: pd.DataFrame) -> pd.DataFrame:
        rows = rows.sort_values(["cid", "vec_id"], kind="stable")
        cid = rows["cid"].to_numpy(np.int64)
        q = np.asarray(rows["qd"].tolist(), dtype=np.int64)
        start = np.searchsorted(cid, cid)  # first row of each row's cluster
        n_sim = np.zeros(len(cid), dtype=np.int64)
        chunk = 512
        for lo in range(0, len(cid), chunk):
            hi = min(lo + chunk, len(cid))
            col = np.arange(start[lo], hi)
            # lower-vec_id neighbors of the same cluster only (rows sorted
            # by cid, then vec_id)
            near = (_qcos(q[lo:hi], q[col]) >= threshold) & (col >= start[lo:hi, None])
            n_sim[lo:hi] = (near & (col < np.arange(lo, hi)[:, None])).sum(axis=1)
        return pd.DataFrame(
            {
                "vec_id": rows["vec_id"].to_numpy(np.int64),
                "cid": cid,
                "n_similar": n_sim,
                "is_dup": (n_sim > 0).astype(np.int64),
            }
        )

    return co_partition(
        in_cluster,
        rows=(_clusters(sf_dir, n_centroids, qd=True), "cid",
              {"vec_id": pa.int64(), "cid": pa.int64(), "qd": pa.list_(pa.int64())}),
    )


def semdedup_sql(
    sf_dir: str = "/root/testdata/sf0.01",
    threshold: float = SEMDEDUP_THRESHOLD,
    n_centroids: int = SEMDEDUP_CENTROIDS,
) -> str:
    """DuckDB twin: same trained centroid parquet, same quantization,
    same assignment tie-break and exact-integer cosine threshold."""
    from .simsearch import EMB_SCALE, train_ivf_centroids

    cent_path = train_ivf_centroids(sf_dir, n_centroids)
    cos = (
        "list_dot_product({a}.qd, {b}.qd) "
        "/ (sqrt(list_dot_product({a}.qd, {a}.qd)) "
        "* sqrt(list_dot_product({b}.qd, {b}.qd)))"
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
cent AS (SELECT cid, list_transform(qd, x -> CAST(x AS DOUBLE)) AS qd
         FROM read_parquet('{cent_path}')),
assign AS (
  SELECT vec_id, cid, qd FROM (
    SELECT v.vec_id, c.cid, v.qd,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY {cos.format(a='v', b='c')} DESC, c.cid ASC) AS rn
    FROM e v CROSS JOIN cent c) WHERE rn = 1)
SELECT x.vec_id, x.cid,
       CAST(count(y.vec_id) AS BIGINT) AS n_similar,
       CAST(count(y.vec_id) > 0 AS BIGINT) AS is_dup
FROM assign x
LEFT JOIN assign y
  ON y.cid = x.cid AND y.vec_id < x.vec_id
 AND {cos.format(a='x', b='y')} >= {threshold}
GROUP BY 1, 2
"""


# -------------------------------------- per-source budget + interleave
#
# Both ops need every document of one source co-located with its whole
# source (a running ordering within the source): one co-partition on
# the source name, so each group holds a handful of complete sources and the per-source work runs vectorized on
# sorted segments — one skinny shuffle of ~40-byte rows, never a group
# per source (web corpora have 10^7 domains) and never text.  Ordering
# within a source is the deterministic LCG scramble of doc_id (ties
# broken by doc_id), reproducible across runs and cluster sizes.

# default sized to BITE on the synthetic corpus (per-source totals run
# ~1.1-1.7k tokens at every sf): roughly the top-half of each source
# fits, so the cap branch is exercised corpus-wide, not just in tests
BUDGET_TOKENS = 800
MIX_SCALE = 1 << 20


def _source_side(ds):
    """(source, doc_id, h, n_tokens) skinny rows for the per-source ops,
    as a :func:`co_partition` side keyed on the source."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        return pa.table(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"],
                "h": pa.array((ids * REBAL_A + REBAL_C) % REBAL_M),
                "n_tokens": pc.count_substring_regex(batch["text"], TOKEN_SPLIT_RE),
            }
        )

    return (
        ds.map_batches(fn, batch_format="pyarrow"),
        "source",
        {"source": pa.string(), "doc_id": pa.int64(), "h": pa.int64(), "n_tokens": pa.int64()},
    )


def _source_segments(docs) -> tuple:
    """Sort a group's docs by (source, h, doc_id) and return the sorted
    columns plus segment (start, end) bounds per source."""
    g = docs.sort_values(["source", "h", "doc_id"], kind="stable")
    src = g["source"].to_numpy(object)
    n = len(g)
    change = np.empty(n, dtype=bool)
    if n:
        change[0] = True
        change[1:] = src[1:] != src[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    return g, src, starts, ends


def source_budget_cap(sf_dir: str, budget_tokens: int = BUDGET_TOKENS):
    """Per-source token-budget cap: documents of each source are taken
    in LCG-scrambled order until the source's cumulative token count
    would exceed ``budget_tokens`` (the per-domain cap of web-corpus
    curation — C4 / RefinedWeb style domain limiting, token-budget
    form).  Returns (doc_id, source, n_tokens, kept); a doc is kept iff
    the running total INCLUDING it stays within budget (later docs can
    still fit — the rule is the windowed cumulative, not first-overflow
    stop, exactly the SQL running-sum semantics)."""
    import pandas as pd

    ds = read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def cap(docs: pd.DataFrame) -> pa.Table:
        g, src, starts, ends = _source_segments(docs)
        nt = g["n_tokens"].to_numpy(np.int64)
        cum = np.cumsum(nt)
        seg_base = np.repeat(cum[starts] - nt[starts], ends - starts)
        kept = ((cum - seg_base) <= budget_tokens).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
                "source": pa.array(src.tolist(), pa.string()),
                "n_tokens": pa.array(nt),
                "kept": pa.array(kept),
            }
        )

    return co_partition(cap, docs=_source_side(ds))


def source_budget_cap_sql(budget_tokens: int = BUDGET_TOKENS) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, source,
         len(regexp_extract_all(text, '{TOKEN_SPLIT_RE}')) AS n_tokens,
         (CAST(doc_id AS BIGINT) * {REBAL_A} + {REBAL_C}) % {REBAL_M} AS h
  FROM documents)
SELECT doc_id, source, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(sum(n_tokens) OVER (
              PARTITION BY source ORDER BY h, doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
            <= {budget_tokens} AS BIGINT) AS kept
FROM t
"""


def interleave_mix(sf_dir: str):
    """Deterministic weighted interleave schedule across sources — the
    mixing step that turns N curated sources into ONE training stream
    (datasets.interleave_datasets / Gopher data-mixing, made
    reproducible): source weight w_s = max(1, floor(sqrt(n_s)))
    (square-root temperature, the lang_rebalance convention), document
    rank r = its position in the source's LCG-scrambled order, and
    mixing priority = (r+1) * 2^20 // w_s — stride scheduling (weighted
    fair queuing): consuming rows by ascending priority yields each
    source at a rate proportional to its weight.  Returns (doc_id,
    source, src_rank, priority); the schedule is fully determined by
    the priority column, so no global dense rank (an extra all-to-all
    sort) is materialized."""
    import pandas as pd

    ds = read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def mix(docs: pd.DataFrame) -> pa.Table:
        g, src, starts, ends = _source_segments(docs)
        n = len(g)
        seg_len = ends - starts
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, seg_len)
        # IEEE sqrt + floor, bit-identical to the SQL twin
        w = np.maximum(
            1, np.floor(np.sqrt(seg_len.astype(np.float64))).astype(np.int64)
        )
        prio = (rank + 1) * MIX_SCALE // np.repeat(w, seg_len)
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
                "source": pa.array(src.tolist(), pa.string()),
                "src_rank": pa.array(rank),
                "priority": pa.array(prio),
            }
        )

    return co_partition(mix, docs=_source_side(ds))


def interleave_mix_sql() -> str:
    return f"""
WITH c AS (SELECT source,
                  greatest(1, CAST(floor(sqrt(CAST(count(*) AS DOUBLE)))
                                   AS BIGINT)) AS w
           FROM documents GROUP BY 1),
r AS (SELECT doc_id, source,
             row_number() OVER (
               PARTITION BY source
               ORDER BY (CAST(doc_id AS BIGINT) * {REBAL_A} + {REBAL_C})
                        % {REBAL_M}, doc_id) - 1 AS src_rank
      FROM documents)
SELECT r.doc_id, r.source, CAST(src_rank AS BIGINT) AS src_rank,
       CAST((src_rank + 1) * {MIX_SCALE} // w AS BIGINT) AS priority
FROM r JOIN c USING (source)
"""


# ------------------------------------------- passage-level exact dedup

PASSAGE_LEN = 10


def passage_dedup(sf_dir: str, p: int = PASSAGE_LEN):
    """Corpus-level duplicated-passage removal — the ExactSubstr dedup of
    Lee et al. 2022 ("Deduplicating Training Data Makes Language Models
    Better") approximated with fixed NON-overlapping ``p``-token windows
    instead of a suffix array: a passage (window) is duplicated when its
    hash occurs >= 2 times anywhere in the corpus (same doc included),
    and every occurrence is removed from the rebuilt text.

    Returns (doc_id, n_chunks, n_dup_chunks, clean_text) for every
    document; ``clean_text`` is the kept tokens joined by single spaces
    (both sides rebuild from tokens, so whitespace is canonical).

    Scale shape: TWO co-partitions, both bounded —
      1. chunk instances (chash, doc_id, idx) are ~24-byte rows grouped
         on the chunk hash (a whole hash class lands in one group);
         duplicate instances are found by one argsort + run-length pass
         per group, never a per-hash Ray group;
      2. the flagged (doc_id, idx) rows meet the document text rows on
         doc_id for the rebuild — the only exchange that carries text,
         and the output itself is that text.
    No driver-side materialization of the duplicated-hash set (corpus-
    scale at 100 TB); the driver never sees anything but the plan.
    """
    import pandas as pd

    from .hashing import poly_hash_segments

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunk_rows(batch: pa.Table) -> pa.Table:
        h, lens = _doc_token_hashes(batch["text"].to_pylist())
        ccnt = -(-lens // p)  # ceil; 0 chunks for empty docs
        total = int(ccnt.sum())
        clen = np.full(total, p, dtype=np.int64)
        ends = np.cumsum(ccnt)
        nz = ccnt > 0
        clen[ends[nz] - 1] = lens[nz] - (ccnt[nz] - 1) * p  # last partial
        starts = ends - ccnt
        return pa.table(
            {
                "chash": pa.array(poly_hash_segments(h, clen).view(np.int64)),
                "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), ccnt)),
                "idx": pa.array(np.arange(total, dtype=np.int64) - np.repeat(starts, ccnt)),
            }
        )

    def flag_dups(chunks: pd.DataFrame) -> pd.DataFrame:
        ch = chunks["chash"].to_numpy(np.int64)
        order = np.argsort(ch, kind="stable")
        cs = ch[order]
        new_run = np.ones(len(cs), dtype=bool)
        new_run[1:] = cs[1:] != cs[:-1]
        run_id = np.cumsum(new_run) - 1
        dup = np.bincount(run_id)[run_id] >= 2
        return chunks.iloc[order[dup]][["doc_id", "idx"]]

    flagged = co_partition(
        flag_dups,
        chunks=(
            ds.map_batches(chunk_rows, batch_format="pyarrow"),
            "chash",
            {"chash": pa.int64(), "doc_id": pa.int64(), "idx": pa.int64()},
        ),
    )

    def rebuild(docs: pd.DataFrame, flags: pd.DataFrame) -> pa.Table:
        bad: dict[int, np.ndarray] = {
            int(d): g["idx"].to_numpy(np.int64)
            for d, g in flags.groupby("doc_id")
        }
        out_id, out_nc, out_nd, out_txt = [], [], [], []
        for doc_id, text in zip(
            docs["doc_id"].to_numpy(np.int64), docs["text"].tolist()
        ):
            toks = text.split()
            nch = -(-len(toks) // p)
            b = bad.get(int(doc_id))
            if b is None or len(b) == 0:
                clean, nd = " ".join(toks), 0
            else:
                keep = ~np.isin(np.arange(len(toks), dtype=np.int64) // p, b)
                clean = " ".join(t for t, k in zip(toks, keep) if k)
                nd = len(b)
            out_id.append(int(doc_id))
            out_nc.append(nch)
            out_nd.append(nd)
            out_txt.append(clean)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_chunks": pa.array(out_nc, pa.int64()),
                "n_dup_chunks": pa.array(out_nd, pa.int64()),
                "clean_text": pa.array(out_txt, pa.string()),
            }
        )

    return co_partition(
        rebuild,
        docs=(ds, "doc_id", {"doc_id": pa.int64(), "text": pa.string()}),
        flags=(flagged, "doc_id", {"doc_id": pa.int64(), "idx": pa.int64()}),
    )


def passage_dedup_sql(p: int = PASSAGE_LEN) -> str:
    ch = sql_char_hash("t")
    return f"""
WITH hl AS (
  SELECT doc_id, ts, list_transform(ts, t -> {ch}) AS hl
  FROM (SELECT doc_id, regexp_extract_all(text, '{TOKEN_SPLIT_RE}') AS ts
        FROM documents)),
cix AS (SELECT doc_id, ts, hl,
               unnest(range((len(hl) + {p - 1}) // {p})) AS idx
        FROM hl WHERE len(hl) > 0),
c2 AS (SELECT doc_id, idx,
              list_reduce(hl[idx * {p} + 1 : least((idx + 1) * {p}, len(hl))],
                          (a, c) -> (a * {B_TOK} + c) % {M31}) AS chash,
              array_to_string(
                ts[idx * {p} + 1 : least((idx + 1) * {p}, len(ts))], ' ')
                AS ctext
       FROM cix),
cnt AS (SELECT chash, count(*) AS c FROM c2 GROUP BY 1),
agg AS (SELECT c2.doc_id,
               count(*) AS n_chunks,
               sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS n_dup,
               string_agg(ctext, ' ' ORDER BY idx) FILTER (WHERE c < 2)
                 AS clean
        FROM c2 JOIN cnt USING (chash) GROUP BY 1)
SELECT d.doc_id,
       CAST(COALESCE(n_chunks, 0) AS BIGINT) AS n_chunks,
       CAST(COALESCE(n_dup, 0) AS BIGINT) AS n_dup_chunks,
       COALESCE(clean, '') AS clean_text
FROM documents d LEFT JOIN agg USING (doc_id)
"""


def pack_sequences_sql(seq_len: int = PACK_SEQ_LEN) -> str:
    return f"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '{TOKEN_SPLIT_RE}')) AS n_tokens
  FROM documents),
c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(sum(n_tokens) OVER (
             ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS start_tok
  FROM t)
SELECT doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       start_tok,
       start_tok // {seq_len} AS chunk_id,
       CASE WHEN n_tokens = 0 THEN CAST(0 AS BIGINT)
            ELSE (start_tok + n_tokens - 1) // {seq_len}
                 - start_tok // {seq_len} + 1 END AS n_chunks
FROM c
"""

# ---------------------------------------- content-defined chunking dedup

CDC_W = 4  # rolling-window width (tokens) for the boundary rule
CDC_KBITS = 3  # boundary when window hash % 2^kbits == 0 (~w-1+8 tok chunks)


def cdc_dedup(sf_dir: str, w: int = CDC_W, kbits: int = CDC_KBITS):
    """Content-defined chunking dedup (the FastCDC / LBFS idea applied to
    token streams): a chunk boundary falls AFTER token j whenever the
    rolling hash of the last ``w`` tokens is 0 mod 2^kbits, so chunk
    boundaries are decided by CONTENT, not position — unlike
    :func:`passage_dedup`'s fixed windows, inserting one token near the
    head of a document shifts only the chunk it lands in, and every
    downstream repeated passage still chunks (and hashes) identically.
    A chunk is duplicated when its hash occurs >= 2 times corpus-wide.

    Returns (doc_id, n_tokens, n_chunks, n_dup_chunks, dup_tokens) for
    every document (zeros for empty docs).

    Scale shape: TWO co-partitions, both over <= ~32-byte integer
    rows — (1) chunk instances grouped on the chunk hash (a whole hash
    class lands in one group; dup runs found by one argsort +
    run-length pass, then reduced to PER-DOC PARTIAL sums inside the
    group), (2) the per-doc partials meet every doc_id on doc_id and are
    summed.  Text never shuffles; the driver never materializes the
    chunk-hash set.  The doc-final window is never a boundary, so no
    empty chunks exist by construction.
    """
    import pandas as pd

    from .hashing import poly_hash_segments

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    modv = np.uint64(1 << kbits)
    counts = ["n_tokens", "n_chunks", "n_dup_chunks", "dup_tokens"]

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        n_docs = len(texts)
        h, lens = _doc_token_hashes(texts)
        total = len(h)
        g, gcnt = _windowed_hashes(h, lens, w)
        gstarts = np.cumsum(gcnt) - gcnt
        if len(g):
            glocal = np.arange(len(g), dtype=np.int64) - np.repeat(
                gstarts, gcnt
            )
            # boundary after token j = i + w - 1 for gram i; the doc-final
            # gram (j = len-1) never bounds — nothing follows it
            bnd = (g % modv == 0) & (glocal < np.repeat(gcnt, gcnt) - 1)
            c = np.cumsum(bnd.astype(np.int64))
            safe = np.minimum(gstarts, len(g) - 1)
            base = c[safe] - bnd[safe].astype(np.int64)
            # cb[i] (per doc) = #boundaries at grams <= i
            cb = c - np.repeat(base, gcnt)
        else:
            bnd = np.zeros(0, dtype=bool)
            cb = np.zeros(0, dtype=np.int64)
        tstarts = np.cumsum(lens) - lens
        tlocal = np.arange(total, dtype=np.int64) - np.repeat(tstarts, lens)
        doc_tok = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        # chunk of token p = #boundaries at j <= p-1, i.e. grams i <= p-w
        tok_chunk = np.zeros(total, dtype=np.int64)
        sel = tlocal >= w
        if sel.any():
            gs_tok = np.repeat(gstarts, lens)
            tok_chunk[sel] = cb[(gs_tok + tlocal - w)[sel]]
        # chunks are contiguous token runs -> run-length encode
        new = np.ones(total, dtype=bool)
        new[1:] = (doc_tok[1:] != doc_tok[:-1]) | (
            tok_chunk[1:] != tok_chunk[:-1]
        )
        rstarts = np.flatnonzero(new)
        clen = np.diff(np.append(rstarts, total))
        cdoc = ids[doc_tok[rstarts]]
        return pa.table(
            {
                "doc_id": pa.array(cdoc),
                "chash": pa.array(poly_hash_segments(h, clen).view(np.int64)),
                "clen": pa.array(clen),
            }
        )

    def flag_and_partial(chunks: pd.DataFrame) -> pd.DataFrame:
        """A group holds entire chunk-hash classes: mark runs of >= 2
        equal hashes as duplicated, then collapse to per-doc partial
        sums (the group never leaves more than its doc count)."""
        ch = chunks["chash"].to_numpy(np.int64)
        order = np.argsort(ch, kind="stable")
        cs = ch[order]
        new_run = np.ones(len(cs), dtype=bool)
        new_run[1:] = cs[1:] != cs[:-1]
        run_id = np.cumsum(new_run) - 1
        dup = np.zeros(len(cs), dtype=bool)
        dup[order] = np.bincount(run_id)[run_id] >= 2
        clen = chunks["clen"].to_numpy(np.int64)
        uids, inv = np.unique(chunks["doc_id"].to_numpy(np.int64), return_inverse=True)
        return pd.DataFrame(
            {
                "doc_id": uids,
                "n_tokens": np.bincount(inv, weights=clen).astype(np.int64),
                "n_chunks": np.bincount(inv).astype(np.int64),
                "n_dup_chunks": np.bincount(inv, weights=dup).astype(np.int64),
                "dup_tokens": np.bincount(inv, weights=clen * dup).astype(np.int64),
            }
        )

    partials = co_partition(
        flag_and_partial,
        chunks=(
            ds.map_batches(chunk_rows, batch_format="pyarrow"),
            "chash",
            {"doc_id": pa.int64(), "chash": pa.int64(), "clen": pa.int64()},
        ),
    )

    def total(docs: pd.DataFrame, partials: pd.DataFrame) -> pd.DataFrame:
        # every doc gets a row: empty docs have no chunks, hence no partial
        zeros = docs.assign(**{c: np.int64(0) for c in counts})
        return pd.concat([zeros, partials]).groupby("doc_id", as_index=False)[counts].sum()

    return co_partition(
        total,
        docs=(read(sf_dir, "documents", columns=["doc_id"]), "doc_id", {"doc_id": pa.int64()}),
        partials=(partials, "doc_id", {"doc_id": pa.int64(), **{c: pa.int64() for c in counts}}),
    )


def cdc_dedup_sql(w: int = CDC_W, kbits: int = CDC_KBITS) -> str:
    ch = sql_char_hash("t")
    m = 1 << kbits
    return f"""
WITH hl AS (
  SELECT doc_id, list_transform(regexp_extract_all(text, '{TOKEN_SPLIT_RE}'),
                                t -> {ch}) AS hl
  FROM documents),
pos AS (SELECT doc_id, hl, unnest(range(len(hl))) AS j
        FROM hl WHERE len(hl) > 0),
b AS (SELECT doc_id, j, hl[j+1] AS th,
        CASE WHEN j >= {w - 1} AND j < len(hl) - 1
               AND list_reduce(hl[greatest(j - {w - 2}, 1) : j + 1],
                               (a, c) -> (a * {B_TOK} + c) % {M31}) % {m} = 0
        THEN 1 ELSE 0 END AS bnd
      FROM pos),
cid AS (SELECT doc_id, j, th,
        CAST(COALESCE(sum(bnd) OVER (PARTITION BY doc_id ORDER BY j
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
          AS chunk_id
      FROM b),
chunks AS (SELECT doc_id, chunk_id,
        list_reduce(list(th ORDER BY j), (a, c) -> (a * {B_TOK} + c) % {M31})
          AS chash,
        count(*) AS clen
      FROM cid GROUP BY 1, 2),
cnt AS (SELECT chash, count(*) AS c FROM chunks GROUP BY 1),
agg AS (SELECT doc_id,
               sum(clen) AS n_tokens,
               count(*) AS n_chunks,
               sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS n_dup,
               sum(CASE WHEN c >= 2 THEN clen ELSE 0 END) AS dup_toks
        FROM chunks JOIN cnt USING (chash) GROUP BY 1)
SELECT d.doc_id,
       CAST(COALESCE(n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(n_chunks, 0) AS BIGINT) AS n_chunks,
       CAST(COALESCE(n_dup, 0) AS BIGINT) AS n_dup_chunks,
       CAST(COALESCE(dup_toks, 0) AS BIGINT) AS dup_tokens
FROM documents d LEFT JOIN agg USING (doc_id)
"""


# ------------------------------------------- deterministic epoch shuffle

EPOCH_SHARDS = 64  # training reader count; sized to the cluster in prod


def epoch_shuffle(sf_dir: str, epoch: int = 1, n_shards: int = EPOCH_SHARDS):
    """Deterministic per-epoch global shuffle -> training shard + order.

    Every epoch a training run needs a DIFFERENT but REPRODUCIBLE global
    permutation of the corpus, split into ``n_shards`` reader shards.
    The shuffle key is the LCG scramble k = (doc_id*A + epoch*C) mod M —
    a new pseudo-random total order per epoch with no RNG state, so any
    shard can be re-materialized bit-identically after a failure (and
    the SQL twin reproduces it row for row).  Returns
    (doc_id, shard, pos): shard = k mod n_shards, pos = rank of k
    (doc_id tie-break) within the shard.

    Scale shape: ONE hash-keyed exchange of 24-byte rows (the shuffle a
    global permutation genuinely requires); each shard sorts locally —
    n_shards is the training reader count, so group sizes are corpus/
    readers by construction and no group outgrows a worker.
    """
    import pandas as pd

    ds = read(sf_dir, "documents", columns=["doc_id"])
    off = (epoch * REBAL_C) % REBAL_M

    def key_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        if len(ids) and int(ids.max()) >= 1 << 32:
            raise ValueError(
                "epoch_shuffle requires doc_id < 2^32 (got "
                f"{int(ids.max())}); pre-reduce ids mod {REBAL_M}"
            )
        k = (ids * REBAL_A + off) % REBAL_M
        return pa.table(
            {
                "shard": pa.array(k % n_shards),
                "k": pa.array(k),
                "doc_id": pa.array(ids),
            }
        )

    def order_shard(rows: pd.DataFrame) -> pa.Table:
        t = pa.Table.from_pandas(rows, preserve_index=False)
        t = _head_k(t, ["shard"], [("k", True), ("doc_id", True)], t.num_rows)
        return pa.table({"doc_id": t["doc_id"], "shard": t["shard"], "pos": pc.subtract(t["rank"], 1)})

    return co_partition(
        order_shard,
        rows=(ds.map_batches(key_rows, batch_format="pyarrow"), "shard",
              {"shard": pa.int64(), "k": pa.int64(), "doc_id": pa.int64()}),
    )


def epoch_shuffle_sql(epoch: int = 1, n_shards: int = EPOCH_SHARDS) -> str:
    off = (epoch * REBAL_C) % REBAL_M
    return f"""
WITH k AS (
  SELECT doc_id,
         (CAST(doc_id AS BIGINT) * {REBAL_A} + {off}) % {REBAL_M} AS k
  FROM documents)
SELECT doc_id,
       k % {n_shards} AS shard,
       CAST(row_number() OVER (PARTITION BY k % {n_shards}
                               ORDER BY k, doc_id) - 1 AS BIGINT) AS pos
FROM k
"""


# ----------------------------------------- corpus-LM perplexity filter
#
# CCNet-style quality filtering: train a bigram language model ON the
# corpus itself, score every document by its per-bigram log-probability
# under that model, drop the worst tail (docs whose token transitions
# are unusual for the corpus — boilerplate, mangled extractions, noise).
# All-integer so the DuckDB twin is value-exact:
#
#     q(w1,w2)  = (c(w1,w2) << LM_QBITS) // c(w1,*)      in [1, 2^QBITS]
#     logq      = bit_length(q) - 1 = floor(log2 q)      in [0, QBITS]
#     ll(doc)   = sum over doc bigram occurrences of logq
#     avg_mlp   = (ll * 1000) // n_bigrams     ("milli-log-prob" per bigram)
#     kept      = avg_mlp >= exact pct-th percentile of avg_mlp
#
# floor(log2) is computed by integer shifts (lexsearch.bit_length_u64 —
# exact past 2^53, unlike float log2) and as length(bin(q)) - 1 in SQL.
#
# Scale shape: the model is NEVER materialized on the driver.  Per-batch
# partial bigram counts and per-doc bigram rows meet in ONE co-partition
# on w1: every bigram starting with w1 lands in one group, so c(w1,*)
# is a local sum, and each group builds its slice of the model and
# attaches logq to its doc rows with one vectorized merge.  A
# co-partition on doc_id closes per-doc totals.  The scored table is
# pinned via materialize() for the histogram + flag passes — it is 4
# ints per document (~32 B/doc, sketches-only, the same bound class as
# minhash's pinned signature table).  Docs with < 2 tokens have no
# bigram and are absent from the output (both sides).

LM_QBITS = 20
LM_AVG_SCALE = 1000


def lm_perplexity_filter(sf_dir: str, pct: int = 10):
    """(doc_id, n_bigrams, ll, avg_mlp, kept): corpus-trained bigram-LM
    score per document plus the bottom-``pct``-percentile drop flag.
    Value-exact DuckDB twin in :func:`lm_perplexity_filter_sql`."""
    import pandas as pd

    from .lexsearch import bit_length_u64
    from .textstats import quantile_threshold

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def _batch_bigrams(batch: pa.Table):
        """(doc_ids_per_bigram, w1, w2) object arrays for a batch."""
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy()
        flat, lens = tokenize_batch(texts)
        flat = np.asarray(flat, dtype=object)
        nb = np.maximum(lens - 1, 0)
        if not len(flat):
            e = np.zeros(0, dtype=np.int64)
            return e, flat[:0], flat[:0]
        ends = np.cumsum(lens)
        # bigram start positions: every token index except each doc's last
        pos = np.arange(len(flat), dtype=np.int64)
        is_last = np.zeros(len(flat), dtype=bool)
        is_last[ends[lens > 0] - 1] = True
        p1 = pos[~is_last & (np.repeat(lens, lens) > 0)]
        doc_of = np.repeat(ids, nb)
        return doc_of, flat[p1], flat[p1 + 1]

    def count_partial(batch: pa.Table) -> pa.Table:
        _, w1, w2 = _batch_bigrams(batch)
        g = (
            pd.DataFrame({"w1": w1, "w2": w2})
            .groupby(["w1", "w2"], as_index=False)
            .size()
            .rename(columns={"size": "c"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def doc_rows(batch: pa.Table) -> pa.Table:
        doc_of, w1, w2 = _batch_bigrams(batch)
        g = (
            pd.DataFrame({"doc_id": doc_of, "w1": w1, "w2": w2})
            .groupby(["doc_id", "w1", "w2"], as_index=False)
            .size()
            .rename(columns={"size": "occ"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def score(counts: pd.DataFrame, bigrams: pd.DataFrame) -> pd.DataFrame:
        model = counts.groupby(["w1", "w2"], as_index=False)["c"].sum()
        c1 = model.groupby("w1")["c"].transform("sum").to_numpy(np.int64)
        q = ((model["c"].to_numpy(np.int64) << LM_QBITS) // c1).astype(np.uint64)
        model["logq"] = bit_length_u64(q) - 1
        m = bigrams.merge(model[["w1", "w2", "logq"]], on=["w1", "w2"], how="inner")
        m["ll"] = m["occ"] * m["logq"]
        out = m.groupby("doc_id", as_index=False).agg(
            n_bigrams=("occ", "sum"), ll=("ll", "sum")
        )
        out["n_bigrams"] = out["n_bigrams"].astype(np.int64)
        out["ll"] = out["ll"].astype(np.int64)
        return out

    def per_doc(partials: pd.DataFrame) -> pd.DataFrame:
        g = partials.groupby("doc_id", as_index=False).agg(
            n_bigrams=("n_bigrams", "sum"), ll=("ll", "sum")
        )
        nb = g["n_bigrams"].to_numpy(np.int64)
        ll = g["ll"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "n_bigrams": nb,
                "ll": ll,
                "avg_mlp": (ll * LM_AVG_SCALE) // nb,
            }
        )

    partials = co_partition(
        score,
        counts=(
            ds.map_batches(count_partial, batch_format="pyarrow"),
            "w1",
            {"w1": pa.string(), "w2": pa.string(), "c": pa.int64()},
        ),
        bigrams=(
            ds.map_batches(doc_rows, batch_format="pyarrow"),
            "w1",
            {"doc_id": pa.int64(), "w1": pa.string(), "w2": pa.string(), "occ": pa.int64()},
        ),
    )
    # per-doc close-out as a co-partition on doc_id: Ray's groupby.sum()
    # aggregate measured 18 s on these 86k rows at sf0.1 where the
    # co-partition takes ~1 s
    scored = co_partition(
        per_doc,
        partials=(partials, "doc_id",
                  {"doc_id": pa.int64(), "n_bigrams": pa.int64(), "ll": pa.int64()}),
    ).materialize()  # 4 ints/doc — sketches-only pin, see header

    def hist_partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            np.asarray(batch["avg_mlp"].to_pylist(), dtype=np.int64),
            return_counts=True,
        )
        return pa.table({"v": pa.array(v), "c": pa.array(c.astype(np.int64))})

    hist = (
        scored.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: avg_mlp domain is [0, QBITS * 1000] per block
        .groupby("v")["c"]
        .sum()
    )
    thr = quantile_threshold(hist.index.to_numpy(np.int64), hist.to_numpy(np.int64), pct)

    def flag(batch: pa.Table) -> pa.Table:
        avg = np.asarray(batch["avg_mlp"].to_pylist(), dtype=np.int64)
        return batch.append_column("kept", pa.array(avg >= thr))

    return scored.map_batches(flag, batch_format="pyarrow")


def lm_perplexity_filter_sql(pct: int = 10) -> str:
    return f"""
WITH tk AS (
  SELECT doc_id, {sql_tokens('text')} AS ts FROM documents),
tok AS (
  SELECT doc_id, unnest(ts) AS w, generate_subscripts(ts, 1) AS ord
  FROM tk),
bg AS (
  SELECT a.doc_id, a.w AS w1, b.w AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1),
c2 AS (SELECT w1, w2, count(*) AS c2 FROM bg GROUP BY 1, 2),
c1 AS (SELECT w1, CAST(sum(c2) AS BIGINT) AS c1 FROM c2 GROUP BY 1),
model AS (
  SELECT w1, w2, length(bin((c2 * {1 << LM_QBITS}) // c1)) - 1 AS logq
  FROM c2 JOIN c1 USING (w1)),
sc AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
         CAST(sum(logq) AS BIGINT) AS ll
  FROM bg JOIN model USING (w1, w2) GROUP BY 1),
a AS (
  SELECT doc_id, n_bigrams, ll,
         (ll * {LM_AVG_SCALE}) // n_bigrams AS avg_mlp FROM sc),
h AS (SELECT avg_mlp AS v, count(*) AS c FROM a GROUP BY 1),
t AS (
  SELECT v AS thr FROM (
    SELECT v, sum(c) OVER (ORDER BY v) AS cum,
           (SELECT sum(c) FROM h) AS n
    FROM h)
  WHERE 100 * cum >= {pct} * n ORDER BY v LIMIT 1)
SELECT a.doc_id, a.n_bigrams, a.ll, CAST(a.avg_mlp AS BIGINT) AS avg_mlp,
       (a.avg_mlp >= t.thr) AS kept
FROM a, t
"""


# ----------------------------------------------- k-means clustering
#
# Clustering as a first-class output (semdedup above USES the
# assignment; this op REPORTS it): per-cluster membership size and a
# polynomial fingerprint of the full sorted member list, so the result
# stays k-bounded while every assignment value-verifies — the
# inverted_index posting-fingerprint trick applied to cluster members.
# Assignment is the same broadcast argmax over the trained IVF centroid
# fixture (lowest-cid tie rule); one co-partition on cid closes out,
# one sort and one segment hash over every cluster of a group.


def kmeans_clusters(sf_dir: str, n_centroids: int = SEMDEDUP_CENTROIDS):
    """(cid, n_vectors, members_fp): trained k-means cluster membership
    over the embeddings table.  Value-exact DuckDB twin in
    :func:`kmeans_clusters_sql`."""
    import pandas as pd

    from .hashing import poly_hash_segments

    def per_cluster(rows: pd.DataFrame) -> pd.DataFrame:
        rows = rows.sort_values(["cid", "vec_id"], kind="stable")
        cid = rows["cid"].to_numpy(np.int64)
        new = np.ones(len(cid), dtype=bool)
        new[1:] = cid[1:] != cid[:-1]
        size = np.diff(np.append(np.flatnonzero(new), len(cid)))
        vids = rows["vec_id"].to_numpy(np.int64)
        fp = poly_hash_segments((vids % M31).astype(np.uint64), size)
        return pd.DataFrame({"cid": cid[new], "n_vectors": size, "members_fp": fp.astype(np.int64)})

    return co_partition(
        per_cluster,
        rows=(_clusters(sf_dir, n_centroids), "cid", {"vec_id": pa.int64(), "cid": pa.int64()}),
    )


def kmeans_clusters_sql(
    sf_dir: str = "/root/testdata/sf0.01",
    n_centroids: int = SEMDEDUP_CENTROIDS,
) -> str:
    from .simsearch import EMB_SCALE, train_ivf_centroids

    cent_path = train_ivf_centroids(sf_dir, n_centroids)
    cos = (
        "list_dot_product({a}.qd, {b}.qd) "
        "/ (sqrt(list_dot_product({a}.qd, {a}.qd)) "
        "* sqrt(list_dot_product({b}.qd, {b}.qd)))"
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
cent AS (SELECT cid, list_transform(qd, x -> CAST(x AS DOUBLE)) AS qd
         FROM read_parquet('{cent_path}')),
assign AS (
  SELECT vec_id, cid FROM (
    SELECT v.vec_id, c.cid,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY {cos.format(a='v', b='c')} DESC, c.cid ASC) AS rn
    FROM e v CROSS JOIN cent c) WHERE rn = 1)
SELECT cid, CAST(count(*) AS BIGINT) AS n_vectors,
       CAST(list_reduce(list_transform(list_sort(list(vec_id)),
                                       d -> d % {M31}),
                        (a, d) -> (a * {B_TOK} + d) % {M31})
            AS BIGINT) AS members_fp
FROM assign GROUP BY 1
"""

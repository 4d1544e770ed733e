"""Similarity search over the ``embeddings`` table (list<float> column).

* :func:`topk_bruteforce` — the exact baseline: the (tiny) query matrix is
  broadcast via ``ray.put``; every batch does ONE numpy matmul against it and
  emits only its local top-k per query (partial top-k), so the shuffle to the
  final per-query merge carries k rows per (query, batch) instead of the
  whole score matrix.
* :func:`topk_ivf` — the scale path: vectors are bucketed by nearest of C
  seeded centroids (an IVF coarse quantizer); queries probe the ``nprobe``
  nearest centroid buckets only. Recall vs the brute-force baseline is
  asserted in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state import cache
from . import read, top_k


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-12)


def _load_queries(sf_dir: str, nq: int) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    # predicate pushdown: only the nq query vectors leave storage
    # (vec_ids are dense 0..n-1 in this corpus; a sparse-id table would
    # need a two-pass min-k instead)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", nq)],
    )
    df = t.to_pandas().sort_values("vec_id").head(nq)
    q = _normalize(np.asarray(df["embedding"].tolist(), dtype=np.float64))
    return df["vec_id"].to_numpy(np.int64), q


def _pairs(qids, vids, scores, name="score", mask=None) -> pa.Table:
    """One (query_id, vec_id, ``name``) row per cell of a (nq, B) score
    matrix, only where ``mask`` holds."""
    qi, vi = np.nonzero(np.ones(scores.shape, bool) if mask is None else mask)
    return pa.table({"query_id": qids[qi], "vec_id": vids[vi], name: scores[qi, vi]})


def _rank_per_query(scored, k: int, name: str, typ, ascending: bool):
    """(query_id, vec_id, rank): each query's ``k`` best vectors by
    ``name``, ties broken by vec_id ascending."""
    schema = {"query_id": pa.int64(), "vec_id": pa.int64(), name: typ}
    ranked = top_k(scored, "query_id", [(name, ascending), ("vec_id", True)], k, schema)
    return ranked.select_columns(["query_id", "vec_id", "rank"])


def _probe_mask(qc: np.ndarray, nprobe: int) -> np.ndarray:
    """(nq, C) bool: each query's ``nprobe`` most similar centroids, ties
    to the lowest cid (the SQL twins' ORDER BY cos DESC, cid ASC)."""
    mask = np.zeros(qc.shape, dtype=bool)
    near = np.argsort(-qc, axis=1, kind="stable")[:, :nprobe]
    np.put_along_axis(mask, near, True, axis=1)
    return mask


def topk_bruteforce(sf_dir: str, k: int = 5, nq: int = 8):
    """Exact cosine top-k for the first ``nq`` vectors as queries.

    Returns (query_id, vec_id, rank) — integer-only for stable comparison;
    ordering ties broken by vec_id ascending (same rule in the SQL oracle).
    """
    import ray

    qids, qmat = _load_queries(sf_dir, nq)
    q_ref = ray.put((qids, qmat))
    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids, q = ray.get(q_ref)
        emb = _normalize(np.asarray(batch["embedding"].to_pylist(), dtype=np.float64))
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        return _pairs(ids, vids, q @ emb.T)

    scored = ds.map_batches(score, batch_format="pyarrow")
    return _rank_per_query(scored, k, "score", pa.float64(), ascending=False)


def topk_bruteforce_sql(k: int = 5, nq: int = 8) -> str:
    return f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  ORDER BY vec_id LIMIT {nq}
)
SELECT query_id, vec_id,
       CAST(row_number() OVER (
            PARTITION BY query_id
            ORDER BY list_cosine_similarity(qe, e.embedding) DESC, vec_id ASC
       ) AS BIGINT) AS rank
FROM q CROSS JOIN embeddings e
QUALIFY rank <= {k}
"""


EMB_SCALE = 1_000_000  # shared with ops/dedup.py embedding quantization


def _quantize(emb: np.ndarray) -> np.ndarray:
    return np.floor(emb * EMB_SCALE + 0.5).astype(np.int64)


def _qcos(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Exact-deterministic cosine between int64-quantized vector sets:
    every dot is an exact integer in float64, the division is one IEEE op —
    bit-identical to DuckDB's ``dot/(sqrt(na)*sqrt(nb))``. (qa: (n,d),
    qb: (m,d)) -> (n, m)."""
    num = qa.astype(np.float64) @ qb.astype(np.float64).T
    na = np.sqrt((qa.astype(np.float64) ** 2).sum(axis=1))
    nb = np.sqrt((qb.astype(np.float64) ** 2).sum(axis=1))
    return num / (na[:, None] * nb[None, :])


def _load_quantized(sf_dir: str, upto: int) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", upto)],
    )
    df = t.to_pandas().sort_values("vec_id")
    return (
        df["vec_id"].to_numpy(np.int64),
        _quantize(np.asarray(df["embedding"].tolist(), dtype=np.float64)),
    )


# 512 rows: the strided sampler spreads these rows over the whole
# corpus instead of consuming the head, and the k-means cost
# (sample x C) stays trivial; still a bounded driver-side sample at 100 TB
IVF_SAMPLE = 512
IVF_ITERS = 8


def _load_train_sample(sf_dir: str, sample_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Corpus-wide deterministic training sample: stride over the dense
    vec_id space (keep ``vec_id % stride == 0``) so every id range
    contributes rows — a corpus sorted/clustered by source no
    longer trains the quantizers on one stratum, and the sample is still
    a pure function of the corpus (no RNG), so the trained fixtures stay
    SQL-twinnable.  The scan is one column-pruned streaming pass with the
    modulo filter applied per record batch (memory bounded by the kept
    rows)."""
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    n = pq.ParquetFile(path).metadata.num_rows
    # ceiling stride: floor would degenerate to stride 1 (= head sample,
    # just truncated) whenever sample_n > n/2; with the ceiling the kept
    # rows always span the full id range at ~n/stride <= sample_n rows
    stride = max(1, -(-n // sample_n))
    # dataset expressions have no modulo kernel: stream record batches and
    # filter each with numpy (memory bounded by the ~sample_n kept rows)
    kept = []
    for b in pds.dataset(path).to_batches(columns=["vec_id", "embedding"]):
        mask = (b.column("vec_id").to_numpy() % stride) == 0
        if mask.any():
            kept.append(pa.Table.from_batches([b]).filter(pa.array(mask)))
    t = pa.concat_tables(kept)
    df = t.to_pandas().sort_values("vec_id").head(sample_n)
    return (
        df["vec_id"].to_numpy(np.int64),
        _quantize(np.asarray(df["embedding"].tolist(), dtype=np.float64)),
    )


def _trained(name: str, sf_dir: str, params, make_table) -> str:
    """``make_table()``'s parquet, cached on ``params``, this module's
    source and the size and mtime of the corpus embeddings (an in-place
    regeneration busts it)."""
    sig = cache.stat_sig(f"{sf_dir}/embeddings.parquet")
    return cache.cached_parquet(name, make_table, params, (__file__,), sig)


def train_ivf_centroids(
    sf_dir: str,
    n_centroids: int = 16,
    sample_n: int = IVF_SAMPLE,
    iters: int = IVF_ITERS,
) -> str:
    """Deterministic Lloyd's k-means over a strided corpus-wide sample
    -> centroids parquet path (``cid``, ``qd list<int64>``).

    Trained centroids replace a first-``n_centroids``-rows quantizer,
    which is honest but skew-blind, and the training sample strides the
    whole corpus instead of taking the head rows.  Fully deterministic
    (strided sample, first-k init, fixed iteration count,
    integer-quantized updates) so the DuckDB twin can read the SAME
    centroid table from this parquet and reproduce assignment, probing
    and ranking value-exactly.  Cached by :func:`_trained` —
    training is driver-side on the bounded sample; at 100 TB the sample
    read is still one column-pruned streaming scan."""

    def build() -> pa.Table:
        _ids, x = _load_train_sample(sf_dir, sample_n)
        k = min(n_centroids, len(x))
        cent = x[:k].astype(np.float64)  # first-k init, deterministic
        for _ in range(iters):
            # assignment ties -> lowest cid (argmax returns the first max),
            # matching the SQL ORDER BY cos DESC, cid ASC
            assign = _qcos(x, cent).argmax(axis=1)
            for c in range(k):
                members = x[assign == c]
                if len(members):
                    # integer-quantized update: the stored centroid is exactly
                    # what the SQL twin reads back.  Guard: a
                    # floored mean that cancels to the zero vector would make
                    # _qcos emit NaN (0/0) and silently diverge from the SQL
                    # twin's NULL ordering — keep the previous centroid.
                    upd = np.floor(members.mean(axis=0) + 0.5)
                    if np.any(upd):
                        cent[c] = upd
        return pa.table(
            {
                "cid": pa.array(np.arange(k, dtype=np.int64)),
                "qd": pa.array(
                    [row.astype(np.int64) for row in cent], pa.list_(pa.int64())
                ),
            }
        )

    return _trained("centroids", sf_dir, (n_centroids, sample_n, iters), build)


def _load_centroids(path: str) -> np.ndarray:
    import pyarrow.parquet as pq

    df = pq.read_table(path).to_pandas().sort_values("cid")
    return np.asarray(df["qd"].tolist(), dtype=np.int64)


def topk_ivf(
    sf_dir: str, k: int = 5, nq: int = 8, n_centroids: int = 16, nprobe: int = 4
):
    """IVF-style ANN: coarse-quantize vectors to a TRAINED centroid set
    (deterministic sampled k-means, :func:`train_ivf_centroids`), search
    only the query's ``nprobe`` nearest buckets.

    All similarities use the exact quantized cosine — the whole pipeline
    (training, assignment, probing, ranking) has a value-exact DuckDB
    twin that reads the same centroid parquet.
    """
    import ray

    qids, qmat = _load_quantized(sf_dir, nq)
    cent = _load_centroids(train_ivf_centroids(sf_dir, n_centroids))
    state = ray.put((qids, qmat, cent, _probe_mask(_qcos(qmat, cent), nprobe)))

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign_and_score(batch: pa.Table) -> pa.Table:
        ids, q, c, pmask = ray.get(state)
        emb = _quantize(np.asarray(batch["embedding"].to_pylist(), dtype=np.float64))
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        # first max = lowest centroid id on ties (matches SQL ORDER BY
        # cos DESC, cid ASC LIMIT 1)
        vb = _qcos(emb, c).argmax(axis=1)
        # every dot is an exact integer, so one (nq, B) matrix scores each
        # pair bit-identically to a per-query call
        return _pairs(ids, vids, _qcos(q, emb), mask=pmask[:, vb])

    scored = ds.map_batches(assign_and_score, batch_format="pyarrow")
    return _rank_per_query(scored, k, "score", pa.float64(), ascending=False)


def topk_ivf_sql(
    sf_dir: str = "/root/testdata/sf0.01",
    k: int = 5,
    nq: int = 8,
    n_centroids: int = 16,
    nprobe: int = 4,
) -> str:
    """DuckDB twin of topk_ivf: identical quantization, the SAME trained
    centroid parquet (fixture-backed, like the extraction oracles),
    assignment tie-break, probe set, and ranking order."""
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
q AS (SELECT vec_id AS query_id, qd FROM e WHERE vec_id < {nq}),
assign AS (
  SELECT vec_id, cid FROM (
    SELECT v.vec_id, c.cid,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY {cos.format(a='v', b='c')} DESC, c.cid ASC) AS rn
    FROM e v CROSS JOIN cent c) WHERE rn = 1),
probe AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (
             PARTITION BY q.query_id
             ORDER BY {cos.format(a='q', b='c')} DESC, c.cid ASC) AS rn
    FROM q CROSS JOIN cent c) WHERE rn <= {nprobe})
SELECT query_id, vec_id, rank FROM (
  SELECT q.query_id, v.vec_id,
         CAST(row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY {cos.format(a='q', b='v')} DESC, v.vec_id ASC)
         AS BIGINT) AS rank
  FROM q
  JOIN probe p ON p.query_id = q.query_id
  JOIN assign a ON a.cid = p.cid
  JOIN e v ON v.vec_id = a.vec_id)
WHERE rank <= {k}
"""


# ------------------------------------------------ scalar quantization


SQ_SCALE = 127  # int8 range: 4x less data movement than float32 at scale


def _quantize_sq(emb: np.ndarray) -> np.ndarray:
    """float embedding -> int8-range int64 codes (components clipped to
    [-1, 1]; the corpus is unit-norm so clipping is a no-op guard)."""
    return np.floor(np.clip(emb, -1.0, 1.0) * SQ_SCALE + 0.5).astype(np.int64)


def topk_sq(sf_dir: str, k: int = 5, nq: int = 8):
    """Approximate top-k by INTEGER dot product of int8-quantized vectors —
    the memory-bandwidth scale path: codes are 4x smaller than float32, the
    per-batch score kernel is an integer matmul, and scores are exact ints
    so the distributed partial-top-k merge has no float-association issues.
    Ordering ties broken by vec_id; recall vs the exact baseline is
    asserted in tests (quantization is the only approximation)."""
    import ray

    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", nq)],
    )
    df = t.to_pandas().sort_values("vec_id").head(nq)
    qids = df["vec_id"].to_numpy(np.int64)
    qmat = _quantize_sq(np.asarray(df["embedding"].tolist(), dtype=np.float64))
    q_ref = ray.put((qids, qmat))
    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids, q = ray.get(q_ref)
        emb = _quantize_sq(
            np.asarray(batch["embedding"].to_pylist(), dtype=np.float64)
        )
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        # exact int64 (|q|,|e| <= 127, d=64 -> < 2^21)
        return _pairs(ids, vids, q @ emb.T)

    scored = ds.map_batches(score, batch_format="pyarrow")
    return _rank_per_query(scored, k, "score", pa.int64(), ascending=False)


def topk_sq_sql(k: int = 5, nq: int = 8) -> str:
    """DuckDB twin: identical int8 quantization + integer dot ordering."""
    code = (
        "list_transform(embedding, x -> CAST(floor(greatest(-1.0, "
        f"least(1.0, CAST(x AS DOUBLE))) * {SQ_SCALE} + 0.5) AS BIGINT))"
    )
    return f"""
WITH c AS (SELECT vec_id, {code} AS q8 FROM embeddings),
q AS (SELECT vec_id AS query_id, q8 AS qq FROM c ORDER BY vec_id LIMIT {nq})
SELECT query_id, vec_id,
       CAST(row_number() OVER (
            PARTITION BY query_id
            ORDER BY list_dot_product(qq, c.q8) DESC, vec_id ASC
       ) AS BIGINT) AS rank
FROM q CROSS JOIN c
QUALIFY rank <= {k}
"""


# ----------------------------------------------- product quantization
#
# The classic ANN memory-bandwidth scale path: each vector compresses to
# M one-byte codes (32x smaller than float64 at M=16 on 64-dim), queries
# score via a precomputed (query, subspace, code) lookup table — one
# integer gather + sum per candidate instead of a d-dim dot product.
# Codebooks are deterministic sampled Lloyd's per subspace (same trainer
# discipline as the IVF quantizer, plus farthest-point init — measured
# +0.17 recall over first-k init on this corpus) in the EMB_SCALE integer
# domain, so every distance is an exact integer and the DuckDB twin
# reproduces assignment, ADC scores and ranking value-exactly from the
# same codebook parquet.

PQ_M = 16  # subspaces (4-dim subvectors on the 64-dim corpus)
PQ_K = 256  # codes per subspace (one byte, the classic PQ code width)
PQ_SAMPLE = 2048  # training sample (head rows, deterministic)


def _sub_l2(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact squared-L2 between int64 subvector sets (n,d)x(k,d)->(n,k):
    every term < 2^45, the 3-term sum is exact in float64 (same exactness
    argument as _qcos)."""
    xf = x.astype(np.float64)
    cf = c.astype(np.float64)
    return (
        (xf * xf).sum(axis=1)[:, None]
        - 2.0 * (xf @ cf.T)
        + (cf * cf).sum(axis=1)[None, :]
    )


def _fp_init(xs: np.ndarray, k: int) -> np.ndarray:
    """Deterministic farthest-point init: seed at row 0, then repeatedly
    take the point farthest from the chosen set (ties -> lowest row, via
    argmax-first-max). Spreads centroids where first-k init collapses
    onto near-duplicate head rows."""
    idx = [0]
    d = _sub_l2(xs, xs[0:1])[:, 0]
    for _ in range(k - 1):
        i = int(d.argmax())
        idx.append(i)
        d = np.minimum(d, _sub_l2(xs, xs[i : i + 1])[:, 0])
    return xs[idx].astype(np.float64)


def _kmeans_codebooks(x: np.ndarray, m: int, k: int, iters: int):
    """Per-subspace deterministic k-means (farthest-point init, first-min
    tie rule, integer-quantized updates) over the rows of ``x`` —
    shared by the global-PQ and residual-PQ trainers.  Returns the
    (sub, code, qd) column lists for the codebook parquet."""
    dim = x.shape[1]
    if dim % m:
        raise ValueError(f"embedding dim {dim} not divisible by m={m}")
    d = dim // m
    subs, codes, vecs = [], [], []
    for s in range(m):
        xs = x[:, s * d : (s + 1) * d]
        kk = min(k, len(xs))
        cent = _fp_init(xs, kk)
        for _ in range(iters):
            # ties -> lowest code (argmin returns the first minimum),
            # matching the SQL ORDER BY dist ASC, code ASC
            assign = _sub_l2(xs, cent).argmin(axis=1)
            for c in range(kk):
                members = xs[assign == c]
                if len(members):
                    cent[c] = np.floor(members.mean(axis=0) + 0.5)
        for c in range(kk):
            subs.append(s)
            codes.append(c)
            vecs.append(cent[c].astype(np.int64))
    return subs, codes, vecs


def _codebooks_table(subs, codes, vecs) -> pa.Table:
    return pa.table(
        {
            "sub": pa.array(subs, pa.int64()),
            "code": pa.array(codes, pa.int64()),
            "qd": pa.array([v for v in vecs], pa.list_(pa.int64())),
        }
    )


def train_pq_codebooks(
    sf_dir: str,
    m: int = PQ_M,
    k: int = PQ_K,
    sample_n: int = PQ_SAMPLE,
    iters: int = IVF_ITERS,
) -> str:
    """Per-subspace deterministic k-means -> codebook parquet path
    (``sub``, ``code``, ``qd list<int64>``); cached like the IVF
    centroids; trains on the strided corpus-wide sample."""

    def build() -> pa.Table:
        _ids, x = _load_train_sample(sf_dir, sample_n)
        return _codebooks_table(*_kmeans_codebooks(x, m, k, iters))

    return _trained("codebooks", sf_dir, (m, k, sample_n, iters), build)


def train_residual_codebooks(
    sf_dir: str,
    n_centroids: int = 16,
    m: int = PQ_M,
    k: int = PQ_K,
    sample_n: int = PQ_SAMPLE,
    iters: int = IVF_ITERS,
) -> str:
    """Residual PQ codebooks for IVFADC (FAISS ``by_residual=true``): the per-subspace k-means trains on
    (vector − assigned IVF centroid) residuals instead of raw vectors.
    Residuals of vectors in the same bucket concentrate near the origin,
    so the same 256 codes per subspace spend their resolution on the
    *local* displacement — the standard recall upgrade at high
    compression.  Residuals of exact ints are exact ints, so the whole
    fixture stays value-exactly SQL-twinnable (the twin expands every
    residual distance into dot products of the original lists)."""

    def build() -> pa.Table:
        cent = _load_centroids(train_ivf_centroids(sf_dir, n_centroids))
        _ids, x = _load_train_sample(sf_dir, sample_n)
        # same assignment rule as search time: first max = lowest cid
        assign = _qcos(x, cent).argmax(axis=1)
        resid = x - cent[assign]
        return _codebooks_table(*_kmeans_codebooks(resid, m, k, iters))

    params = (n_centroids, m, k, sample_n, iters)
    return _trained("residual_codebooks", sf_dir, params, build)


def _load_codebooks(path: str, m: int, k: int) -> np.ndarray:
    import pyarrow.parquet as pq

    df = pq.read_table(path).to_pandas()
    sub, code = df["sub"].to_numpy(np.int64), df["code"].to_numpy(np.int64)
    qd = np.stack(df["qd"].to_numpy())
    # kk from the data, not the k param — a corpus smaller than k trains
    # fewer codes, and a zero-padded phantom codeword would win argmin
    # ties the SQL twin (which only sees real rows) can't see
    out = np.zeros((m, int(code.max()) + 1, qd.shape[1]), dtype=np.int64)
    out[sub, code] = qd
    return out


def topk_pq(sf_dir: str, k: int = 5, nq: int = 8, m: int = PQ_M, pq_k: int = PQ_K):
    """Approximate top-k via PQ asymmetric distance (ADC): vectors encode
    to ``m`` codes against the trained codebooks; each query precomputes
    an (m, pq_k) exact-integer distance table once, and scoring a
    candidate is one gather+sum over its codes.  Rank ascending distance,
    ties by vec_id — distributed as per-batch partial top-k like the
    other simsearch variants.  Recall vs the exact baseline asserted in
    tests; value-exact DuckDB twin in :func:`topk_pq_sql`."""
    import ray

    qids, qmat = _load_quantized(sf_dir, nq)
    books = _load_codebooks(train_pq_codebooks(sf_dir, m, pq_k), m, pq_k)
    dim = qmat.shape[1]
    d = dim // m
    # per-query LUT: lut[qi, s, c] = exact L2(q_sub, codeword) as int64
    lut = np.zeros((len(qids), m, books.shape[1]), dtype=np.int64)
    for s in range(m):
        lut[:, s, :] = _sub_l2(qmat[:, s * d : (s + 1) * d], books[s]).astype(
            np.int64
        )
    state = ray.put((qids, lut, books))

    def score(batch: pa.Table) -> pa.Table:
        ids, lut_, books_ = ray.get(state)
        emb = _quantize(np.asarray(batch["embedding"].to_pylist(), dtype=np.float64))
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        m_, k_, d_ = books_.shape
        # encode: per subspace, exact-L2 argmin (first min = lowest code)
        codes = np.zeros((len(vids), m_), dtype=np.int64)
        for s in range(m_):
            codes[:, s] = _sub_l2(emb[:, s * d_ : (s + 1) * d_], books_[s]).argmin(
                axis=1
            )
        # ADC: gather each query's LUT at each vector's codes and sum
        dist = lut_[:, np.arange(m_)[None, :], codes].sum(axis=2)
        return _pairs(ids, vids, dist, "dist")

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    scored = ds.map_batches(score, batch_format="pyarrow")
    return _rank_per_query(scored, k, "dist", pa.int64(), ascending=True)


def topk_pq_sql(
    sf_dir: str = "/root/testdata/sf0.01",
    k: int = 5,
    nq: int = 8,
    m: int = PQ_M,
    pq_k: int = PQ_K,
) -> str:
    """DuckDB twin of topk_pq: same codebook parquet, same exact-integer
    L2 assignment (dist ASC, code ASC tie-break), same ADC sum and
    ranking order."""
    cb_path = train_pq_codebooks(sf_dir, m, pq_k)
    # subvector width from the trained books (embedding dim / m)
    import pyarrow.parquet as pq_

    d = len(pq_.read_table(cb_path).to_pandas()["qd"].iloc[0])
    l2 = (
        "(list_dot_product({a}, {a}) - 2 * list_dot_product({a}, {b})"
        " + list_dot_product({b}, {b}))"
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
sub AS (
  SELECT vec_id, s, qd[(s * {d} + 1):(s * {d} + {d})] AS sq
  FROM e, (SELECT unnest(range({m})) AS s)),
cb AS (SELECT sub AS s, code,
              list_transform(qd, x -> CAST(x AS DOUBLE)) AS cq
       FROM read_parquet('{cb_path}')),
asn AS (
  SELECT vec_id, s, code FROM (
    SELECT sub.vec_id, sub.s, cb.code,
           row_number() OVER (
             PARTITION BY sub.vec_id, sub.s
             ORDER BY {l2.format(a='sq', b='cq')} ASC, cb.code ASC) AS rn
    FROM sub JOIN cb ON cb.s = sub.s) WHERE rn = 1),
q AS (SELECT vec_id AS query_id, s, sq AS qsq FROM sub WHERE vec_id < {nq}),
dist AS (
  SELECT q.query_id, a.vec_id,
         CAST(sum({l2.format(a='qsq', b='cq')}) AS BIGINT) AS dist
  FROM q
  JOIN asn a ON a.s = q.s
  JOIN cb ON cb.s = a.s AND cb.code = a.code
  GROUP BY 1, 2)
SELECT query_id, vec_id,
       CAST(row_number() OVER (
            PARTITION BY query_id ORDER BY dist ASC, vec_id ASC
       ) AS BIGINT) AS rank
FROM dist
QUALIFY rank <= {k}
"""


# ------------------------------------------------- IVF + PQ (IVFADC)
#
# The combination both variants exist for: the IVF coarse quantizer
# bounds WHICH vectors a query touches (nprobe buckets), the PQ codes
# bound WHAT each touch costs (m one-byte gathers instead of a d-dim
# dot).  This is the classic billion-scale ANN layout (IVFADC).  Codes
# are RESIDUAL by default (encoded against codebooks trained on vector −
# assigned-centroid residuals, FAISS ``by_residual=true``) — the standard
# recall upgrade at high compression; ``by_residual=False`` keeps the
# global-codebook variant.  Everything stays value-exactly SQL-twinned: bucket
# assignment/probing reuses the IVF cosine rule, and every residual L2
# expands into dot products of the original integer lists (residuals of
# exact ints are exact ints), over the same parquet fixtures.


def topk_ivfpq(
    sf_dir: str,
    k: int = 5,
    nq: int = 8,
    n_centroids: int = 16,
    nprobe: int = 4,
    m: int = PQ_M,
    pq_k: int = PQ_K,
    by_residual: bool = True,
):
    """Approximate top-k: probe the query's ``nprobe`` nearest IVF
    buckets, score only their members by PQ asymmetric distance (exact
    integers), rank (dist ASC, vec_id ASC).  Distributed as per-batch
    partial top-k; both quantizers' training is the cached deterministic
    k-means of their standalone variants.  With ``by_residual`` (the
    default) vectors encode their displacement from their bucket's
    centroid and the query's ADC table is per (query, probed bucket)."""
    import ray

    qids, qmat = _load_quantized(sf_dir, nq)
    cent = _load_centroids(train_ivf_centroids(sf_dir, n_centroids))
    if by_residual:
        books = _load_codebooks(
            train_residual_codebooks(sf_dir, n_centroids, m, pq_k), m, pq_k
        )
    else:
        books = _load_codebooks(train_pq_codebooks(sf_dir, m, pq_k), m, pq_k)
    dim = qmat.shape[1]
    d = dim // m
    C = cent.shape[0]
    if by_residual:
        # residual ADC: the query LUT depends on the candidate's bucket —
        # lut[qi, cid, s, code] = exact L2((q - cent_cid)_sub, codeword).
        # nq x C x m x pq_k int64 (a few MB) — built once, ray.put once.
        lut = np.zeros((len(qids), C, m, books.shape[1]), dtype=np.int64)
        for cid in range(C):
            qres = qmat - cent[cid]
            for s in range(m):
                lut[:, cid, s, :] = _sub_l2(
                    qres[:, s * d : (s + 1) * d], books[s]
                ).astype(np.int64)
    else:
        lut = np.zeros((len(qids), m, books.shape[1]), dtype=np.int64)
        for s in range(m):
            lut[:, s, :] = _sub_l2(
                qmat[:, s * d : (s + 1) * d], books[s]
            ).astype(np.int64)
    # probe sets fit on the driver (nq x C); ship one bool mask per query
    probe_mask = _probe_mask(_qcos(qmat, cent), nprobe)
    state = ray.put((qids, lut, books, cent, probe_mask, by_residual))

    def score(batch: pa.Table) -> pa.Table:
        ids, lut_, books_, cent_, pmask, resid = ray.get(state)
        emb = _quantize(np.asarray(batch["embedding"].to_pylist(), dtype=np.float64))
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        m_, _, d_ = books_.shape
        # one bucket per vector (first max = lowest cid, the IVF rule)
        vb = _qcos(emb, cent_).argmax(axis=1)
        enc = emb - cent_[vb] if resid else emb
        codes = np.zeros((len(vids), m_), dtype=np.int64)
        for s in range(m_):
            codes[:, s] = _sub_l2(enc[:, s * d_ : (s + 1) * d_], books_[s]).argmin(
                axis=1
            )
        sub_idx = np.arange(m_)[None, :]
        if resid:
            # per-candidate gather through its bucket's LUT slab
            dist = lut_[:, vb[:, None], sub_idx, codes].sum(axis=2)
        else:
            dist = lut_[:, sub_idx, codes].sum(axis=2)
        return _pairs(ids, vids, dist, "dist", mask=pmask[:, vb])

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    scored = ds.map_batches(score, batch_format="pyarrow")
    return _rank_per_query(scored, k, "dist", pa.int64(), ascending=True)


def topk_ivfpq_sql(
    sf_dir: str = "/root/testdata/sf0.01",
    k: int = 5,
    nq: int = 8,
    n_centroids: int = 16,
    nprobe: int = 4,
    m: int = PQ_M,
    pq_k: int = PQ_K,
    by_residual: bool = True,
) -> str:
    """DuckDB twin of topk_ivfpq: IVF assignment/probing (cosine DESC,
    cid ASC) from the centroid parquet x PQ code assignment + ADC sums
    (L2 ASC, code ASC) from the codebook parquet, composed.  In residual
    mode every L2 over (point − centroid) residuals expands into dot
    products of the original lists:
    ``|a-b-c|^2 = a.a - 2a.b + b.b - 2a.c + 2b.c + c.c`` — each dot an
    exact integer, so the twin stays value-exact."""
    cent_path = train_ivf_centroids(sf_dir, n_centroids)
    if by_residual:
        cb_path = train_residual_codebooks(sf_dir, n_centroids, m, pq_k)
    else:
        cb_path = train_pq_codebooks(sf_dir, m, pq_k)
    import pyarrow.parquet as pq_

    d = len(pq_.read_table(cb_path).to_pandas()["qd"].iloc[0])
    cos = (
        "list_dot_product({a}.qd, {b}.qd) "
        "/ (sqrt(list_dot_product({a}.qd, {a}.qd)) "
        "* sqrt(list_dot_product({b}.qd, {b}.qd)))"
    )
    l2 = (
        "(list_dot_product({a}, {a}) - 2 * list_dot_product({a}, {b})"
        " + list_dot_product({b}, {b}))"
    )
    # L2 between residual (a - b) and codeword c, all-dot-product form
    l2r = (
        "(list_dot_product({a}, {a}) - 2 * list_dot_product({a}, {b})"
        " + list_dot_product({b}, {b}) - 2 * list_dot_product({a}, {c})"
        " + 2 * list_dot_product({b}, {c}) + list_dot_product({c}, {c}))"
    )
    if by_residual:
        return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
cent AS (SELECT cid, list_transform(qd, x -> CAST(x AS DOUBLE)) AS qd
         FROM read_parquet('{cent_path}')),
cb AS (SELECT sub AS s, code,
              list_transform(qd, x -> CAST(x AS DOUBLE)) AS cq
       FROM read_parquet('{cb_path}')),
qv AS (SELECT vec_id AS query_id, qd FROM e WHERE vec_id < {nq}),
bkt AS (
  SELECT vec_id, cid FROM (
    SELECT v.vec_id, c.cid,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY {cos.format(a='v', b='c')} DESC, c.cid ASC) AS rn
    FROM e v CROSS JOIN cent c) WHERE rn = 1),
probe AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (
             PARTITION BY q.query_id
             ORDER BY {cos.format(a='q', b='c')} DESC, c.cid ASC) AS rn
    FROM qv q CROSS JOIN cent c) WHERE rn <= {nprobe}),
cand AS (
  SELECT p.query_id, b.vec_id, b.cid
  FROM probe p JOIN bkt b ON b.cid = p.cid),
csub AS (
  SELECT cid, s, qd[(s * {d} + 1):(s * {d} + {d})] AS cs
  FROM cent, (SELECT unnest(range({m})) AS s)),
sub AS (
  SELECT vec_id, s, qd[(s * {d} + 1):(s * {d} + {d})] AS sq
  FROM e, (SELECT unnest(range({m})) AS s)),
asn AS (
  SELECT vec_id, s, code FROM (
    SELECT sub.vec_id, sub.s, cb.code,
           row_number() OVER (
             PARTITION BY sub.vec_id, sub.s
             ORDER BY {l2r.format(a='sq', b='cs', c='cq')} ASC,
                      cb.code ASC) AS rn
    FROM sub
    JOIN bkt ON bkt.vec_id = sub.vec_id
    JOIN csub ON csub.cid = bkt.cid AND csub.s = sub.s
    JOIN cb ON cb.s = sub.s) WHERE rn = 1),
qs AS (SELECT vec_id AS query_id, s, sq AS qsq FROM sub WHERE vec_id < {nq}),
dist AS (
  SELECT c2.query_id, c2.vec_id,
         CAST(sum({l2r.format(a='qsq', b='cs', c='cq')}) AS BIGINT) AS dist
  FROM cand c2
  JOIN qs ON qs.query_id = c2.query_id
  JOIN csub ON csub.cid = c2.cid AND csub.s = qs.s
  JOIN asn a ON a.vec_id = c2.vec_id AND a.s = qs.s
  JOIN cb ON cb.s = a.s AND cb.code = a.code
  GROUP BY 1, 2)
SELECT query_id, vec_id,
       CAST(row_number() OVER (
            PARTITION BY query_id ORDER BY dist ASC, vec_id ASC
       ) AS BIGINT) AS rank
FROM dist
QUALIFY rank <= {k}
"""
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {EMB_SCALE} + 0.5)) AS qd
  FROM embeddings),
cent AS (SELECT cid, list_transform(qd, x -> CAST(x AS DOUBLE)) AS qd
         FROM read_parquet('{cent_path}')),
cb AS (SELECT sub AS s, code,
              list_transform(qd, x -> CAST(x AS DOUBLE)) AS cq
       FROM read_parquet('{cb_path}')),
qv AS (SELECT vec_id AS query_id, qd FROM e WHERE vec_id < {nq}),
bkt AS (
  SELECT vec_id, cid FROM (
    SELECT v.vec_id, c.cid,
           row_number() OVER (
             PARTITION BY v.vec_id
             ORDER BY {cos.format(a='v', b='c')} DESC, c.cid ASC) AS rn
    FROM e v CROSS JOIN cent c) WHERE rn = 1),
probe AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (
             PARTITION BY q.query_id
             ORDER BY {cos.format(a='q', b='c')} DESC, c.cid ASC) AS rn
    FROM qv q CROSS JOIN cent c) WHERE rn <= {nprobe}),
cand AS (
  SELECT p.query_id, b.vec_id FROM probe p JOIN bkt b ON b.cid = p.cid),
sub AS (
  SELECT vec_id, s, qd[(s * {d} + 1):(s * {d} + {d})] AS sq
  FROM e, (SELECT unnest(range({m})) AS s)),
asn AS (
  SELECT vec_id, s, code FROM (
    SELECT sub.vec_id, sub.s, cb.code,
           row_number() OVER (
             PARTITION BY sub.vec_id, sub.s
             ORDER BY {l2.format(a='sq', b='cq')} ASC, cb.code ASC) AS rn
    FROM sub JOIN cb ON cb.s = sub.s) WHERE rn = 1),
qs AS (SELECT vec_id AS query_id, s, sq AS qsq FROM sub WHERE vec_id < {nq}),
dist AS (
  SELECT c2.query_id, c2.vec_id,
         CAST(sum({l2.format(a='qsq', b='cq')}) AS BIGINT) AS dist
  FROM cand c2
  JOIN qs ON qs.query_id = c2.query_id
  JOIN asn a ON a.vec_id = c2.vec_id AND a.s = qs.s
  JOIN cb ON cb.s = a.s AND cb.code = a.code
  GROUP BY 1, 2)
SELECT query_id, vec_id,
       CAST(row_number() OVER (
            PARTITION BY query_id ORDER BY dist ASC, vec_id ASC
       ) AS BIGINT) AS rank
FROM dist
QUALIFY rank <= {k}
"""


# ------------------------------------- random projection (JL transform)

RP_DIMS = 8
RP_A = 1103515245
RP_C = 12345
RP_M = 2147483647


def random_projection(sf_dir: str, k: int = RP_DIMS):
    """Johnson-Lindenstrauss SIGN projection of the embedding column to
    ``k`` dimensions (Achlioptas 2003 database-friendly form, ±1
    entries) — the dimensionality-reduction stage a billion-vector
    pipeline runs before indexing: distances are preserved within
    (1±eps) while index memory shrinks dim/k-fold.

    The projection matrix is never stored or broadcast: entry (j, i) is
    the PARITY of an LCG of the flat index j*k+i, regenerated inside
    every batch (O(dim x k) ints) and reproduced term-by-term in the
    SQL twin.  Components are the engine's exact-integer quantization
    (EMB_SCALE), so every projected coordinate is an exact int64 —
    (vec_id, p0..p{k-1}) hash-verifies directly, no fingerprint needed.
    One shuffle-free vectorized pass (a single int matmul per batch).
    """
    from . import read

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def fn(batch: pa.Table) -> pa.Table:
        q = _quantize(
            np.asarray(batch["embedding"].to_pylist(), dtype=np.float64)
        )
        d = q.shape[1]
        jk = np.arange(d, dtype=np.int64)[:, None] * k + np.arange(
            k, dtype=np.int64
        )[None, :]
        s = np.where(((jk * RP_A + RP_C) % RP_M) % 2 == 0, 1, -1).astype(
            np.int64
        )
        p = q @ s
        cols = {"vec_id": batch["vec_id"]}
        for i in range(k):
            cols[f"p{i}"] = pa.array(p[:, i])
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def random_projection_sql(k: int = RP_DIMS) -> str:
    cols = ",\n       ".join(
        "CAST(list_sum(list_transform(range(len(qd)), "
        f"j -> qd[j + 1] * (CASE WHEN ((j * {k} + {i}) * {RP_A} + {RP_C}) "
        f"% {RP_M} % 2 = 0 THEN 1 ELSE -1 END))) AS BIGINT) AS p{i}"
        for i in range(k)
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         -- CAST to DOUBLE FIRST: DuckDB multiplies FLOAT * INT at
         -- float32, the engine at float64 — raw projected sums expose
         -- every one-ulp floor flip the flag-valued ops never surface
         list_transform(embedding,
                        x -> CAST(floor(CAST(x AS DOUBLE) * {EMB_SCALE}
                                        + 0.5) AS BIGINT))
           AS qd
  FROM embeddings)
SELECT vec_id,
       {cols}
FROM e
"""

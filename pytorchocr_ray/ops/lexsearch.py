"""Lexical (keyword) retrieval over the documents table — BM25 top-k.

The retrieval counterpart of ``ops/simsearch.py``: where that module
ranks by embedding distance, this one ranks by term statistics, the
other half of a hybrid search stack for training-data curation (e.g.
"find the corpus documents most like this benchmark prompt" before
decontamination, or seed selection for targeted dedup).

Scoring is classic BM25 (Robertson/Sparck Jones) re-expressed in exact
integer arithmetic so the DuckDB twin matches value-for-value:

    idf(t)   = floor(log2((N << IDF_BITS) / df_t))        [exact: bit length]
    dlnorm   = S - BS + (BS * dl) // avgdl                [avgdl = total // N]
    tfpart   = (tf * (K1S + S) * S) // (tf * S + (K1S * dlnorm) // S)
    score(d) = sum_t idf(t) * tfpart(t, d)

with S = 1000 scaling k1 = K1S/S = 1.2 and b = BS/S = 0.75.  The bit
length is computed by integer shifts (not float log2/frexp, which round
above 2^53 — N << 20 exceeds that on a trillion-document corpus); the
DuckDB side is ``length(bin(x)) - 1``, exact for any BIGINT.

Scale shape (no all-to-all):
  * one streamed stats pass -> a <= |Q|+1-row aggregate (per-term df,
    total token count, doc count) — |Q| is the QUERY size, a constant,
    so the driver collect is O(1), unlike a vocabulary materialize;
  * one streamed scoring pass with a per-block partial top-k, so the
    final exact top-k sort sees <= k rows per block, never the corpus.

No reference twin: DYJNG/PyTorchOCR has no retrieval operators
(SURVEY.md §2.9) — this extends the engine for corpus curation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import co_partition, read, top_k
from .hashing import sql_tokens

S = 1000  # fixed-point scale for k1 / b
K1S = 1200  # k1 = 1.2
BS = 750  # b = 0.75
IDF_BITS = 20  # idf resolution: floor(log2(N * 2^20 / df))

# Default query: mid-frequency corpus terms so idf actually varies.
BM25_QUERY = ("merge", "window", "scan", "stream")


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64 (0 -> 0); shift cascade, no floats.

    frexp (the HLL trick) is exact only below 2^53; idf's N << 20 can
    pass that on a large corpus, so this op takes the 6-pass branchless
    route instead.
    """
    x = np.asarray(x, dtype=np.uint64)
    out = np.zeros(x.shape, dtype=np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << s)
        out[m] += s
        v[m] >>= np.uint64(s)
    out[x > 0] += 1
    return out


def _doc_term_counts(
    texts: pa.ChunkedArray | pa.Array, terms: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(dl[n_docs], tf[n_terms, n_docs]) — whitespace tokens, vectorized.

    Splitting on \\s+ leaves empty strings at text edges; they are
    excluded from dl and can never equal a query term.
    """
    toks = pc.split_pattern_regex(texts, r"\s+")
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(np.int64)
    nonempty = (flat != "").astype(np.int64)
    dl = _seg_sum(nonempty, starts, lens)
    tf = np.zeros((len(terms), len(lens)), dtype=np.int64)
    for i, t in enumerate(terms):
        tf[i] = _seg_sum((flat == t).astype(np.int64), starts, lens)
    return dl, tf


def _seg_sum(vals: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    out = np.zeros(len(starts), dtype=np.int64)
    nz = lens > 0
    if vals.size:
        out[nz] = np.add.reduceat(vals, starts[nz])
    return out


def bm25_search(sf_dir: str, terms: tuple[str, ...] = BM25_QUERY, k: int = 10):
    """Top-``k`` documents by integer-exact BM25 for the query ``terms``.

    Returns (rank, doc_id, score); rank by (score DESC, doc_id ASC).
    Value-exact DuckDB twin in :func:`bm25_search_sql`.
    """
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats_partial(batch: pa.Table) -> pa.Table:
        dl, tf = _doc_term_counts(batch["text"], terms)
        rows_term = list(terms) + [""]
        df = (tf > 0).sum(axis=1)
        return pa.table(
            {
                "term": pa.array(rows_term),
                "df": pa.array(np.concatenate([df, [0]]).astype(np.int64)),
                "dl": pa.array(
                    np.concatenate([np.zeros(len(terms), np.int64), [dl.sum()]])
                ),
                "nd": pa.array(
                    np.concatenate(
                        [np.zeros(len(terms), np.int64), [len(dl)]]
                    )
                ),
            }
        )

    # summed on the driver: |query terms| + 1 rows per block, not vocabulary
    stats = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("term")[["df", "dl", "nd"]]
        .sum()
    )
    n_docs = int(stats.at["", "nd"])
    avgdl = max(1, int(stats.at["", "dl"]) // max(1, n_docs))
    df_map = stats["df"].astype(int).to_dict()
    live = [t for t in terms if df_map.get(t, 0) > 0]
    idf = {
        t: int(
            bit_length_u64(
                np.array([(n_docs << IDF_BITS) // df_map[t]], np.uint64)
            )[0]
            - 1
        )
        for t in live
    }

    def score_block(batch: pa.Table) -> pa.Table:
        dl, tf = _doc_term_counts(batch["text"], tuple(live))
        dlnorm = S - BS + (BS * dl) // avgdl
        score = np.zeros(len(dl), dtype=np.int64)
        for i, t in enumerate(live):
            tfi = tf[i]
            # den >= (K1S * (S - BS)) // S > 0 even at tf == 0
            den = tfi * S + (K1S * dlnorm) // S
            part = (tfi * (K1S + S) * S) // den
            score += idf[t] * part
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        keep = score > 0
        return pa.table({"doc_id": ids[keep], "score": score[keep]})

    return top_k(
        ds.map_batches(score_block, batch_format="pyarrow"),
        None,
        [("score", False), ("doc_id", True)],
        k,
        {"doc_id": pa.int64(), "score": pa.int64()},
    ).select_columns(["rank", "doc_id", "score"])


def bm25_search_sql(
    terms: tuple[str, ...] = BM25_QUERY, k: int = 10
) -> str:
    vals = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH q(term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id, unnest({sql_tokens('text')}) AS term FROM documents),
d AS (
  SELECT doc_id, len({sql_tokens('text')}) AS dl FROM documents),
st AS (SELECT count(*) AS n, sum(dl) AS total FROM d),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM tok JOIN q USING (term) GROUP BY 1),
tf AS (
  SELECT doc_id, term, count(*) AS tf
  FROM tok JOIN q USING (term) GROUP BY 1, 2),
sc AS (
  SELECT tf.doc_id,
         CAST(sum(
           (length(bin((st.n * {1 << IDF_BITS}) // df.df)) - 1) *
           ((tf.tf * {(K1S + S) * S}) //
            (tf.tf * {S} +
             ({K1S} * ({S} - {BS} + ({BS} * d.dl) //
                       (GREATEST(1, st.total // st.n)))) // {S}))
         ) AS BIGINT) AS score
  FROM tf JOIN df USING (term) JOIN d USING (doc_id) CROSS JOIN st
  GROUP BY 1)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM sc WHERE score > 0)
WHERE rank <= {k}
"""


# ----------------------------------------- inverted-index construction
#
# The index-build half of lexical search: one row per distinct corpus
# token with its document frequency, total term frequency, a polynomial
# fingerprint of the FULL sorted posting list, and the first
# SAMPLE_K doc ids as a preview.  The fingerprint stands in for
# materializing unbounded posting lists in the result table (the same
# trick as vocab_encode's ids_fp): the driver-visible output stays
# vocabulary-bounded while still hash-verifying every posting.
#
# Scale shape: per-batch distinct (token, doc_id, tf) rows -> ONE
# co-partition on the token (all rows of a token co-locate, so df /
# total_tf / the sorted posting fingerprint are local to the group).
# Output is vocabulary-sized, never corpus-sized.

SAMPLE_K = 5


def inverted_index(sf_dir: str, sample_k: int = SAMPLE_K):
    """(token, df, total_tf, postings_fp, sample_docs) per distinct
    corpus token; ``postings_fp`` is the 31-bit polynomial fingerprint of
    the doc_id-ascending posting list (ids reduced mod M31), and
    ``sample_docs`` the first ``sample_k`` ids comma-joined.  Value-exact
    DuckDB twin in :func:`inverted_index_sql`."""
    from .hashing import M31, poly_hash_segments, tokenize_batch

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_rows(batch: pa.Table) -> pa.Table:
        flat, lens = tokenize_batch(batch["text"].to_pylist())
        g = (
            pd.DataFrame(
                {
                    "token": np.asarray(flat, dtype=object),
                    "doc_id": np.repeat(batch["doc_id"].to_numpy(), lens),
                }
            )
            .groupby(["token", "doc_id"], as_index=False)
            .size()
            .rename(columns={"size": "tf"})
        )
        g["tf"] = g["tf"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def index_group(tf: pd.DataFrame) -> pd.DataFrame:
        # rows arrive distinct per (token, doc_id) — each doc lives in
        # exactly one batch — but a re-blocked upstream could split one;
        # the groupby close-out keeps the op correct either way
        g = tf.groupby(["token", "doc_id"], as_index=False)["tf"].sum()
        g = g.sort_values(["token", "doc_id"], kind="mergesort")
        toks = g["token"].to_numpy(object)
        ids = g["doc_id"].to_numpy(np.int64)
        tfs = g["tf"].to_numpy(np.int64)
        new = np.ones(len(g), dtype=bool)
        new[1:] = toks[1:] != toks[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(g)))
        fp = poly_hash_segments((ids % M31).astype(np.uint64), lens)
        tf_sums = np.add.reduceat(tfs, starts)
        sample = [
            ",".join(str(d) for d in ids[s : s + min(sample_k, l)])
            for s, l in zip(starts, lens)
        ]
        return pd.DataFrame(
            {
                "token": toks[starts],
                "df": lens.astype(np.int64),
                "total_tf": tf_sums.astype(np.int64),
                "postings_fp": fp.astype(np.int64),
                "sample_docs": sample,
            }
        )

    return co_partition(
        index_group,
        tf=(
            ds.map_batches(tf_rows, batch_format="pyarrow"),
            "token",
            {"token": pa.string(), "doc_id": pa.int64(), "tf": pa.int64()},
        ),
    )


def inverted_index_sql(sample_k: int = SAMPLE_K) -> str:
    from .hashing import B_TOK, M31

    return f"""
WITH tok AS (
  SELECT doc_id, unnest({sql_tokens('text')}) AS token FROM documents),
tf AS (
  SELECT token, doc_id, count(*) AS tf FROM tok GROUP BY 1, 2),
agg AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df,
         CAST(sum(tf) AS BIGINT) AS total_tf,
         list_sort(list(doc_id)) AS ids
  FROM tf GROUP BY 1)
SELECT token, df, total_tf,
       CAST(list_reduce(list_transform(ids, d -> d % {M31}),
                        (a, d) -> (a * {B_TOK} + d) % {M31})
            AS BIGINT) AS postings_fp,
       array_to_string(ids[1:{sample_k}], ',') AS sample_docs
FROM agg
"""

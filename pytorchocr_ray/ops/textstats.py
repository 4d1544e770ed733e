"""Text-analysis operators over the ``documents`` table.

Each operator is a vectorized ``map_batches`` stage; the matching DuckDB SQL
(used by the driver-side oracle) is defined next to it so the two can never
drift apart silently. Token regex and stopword lists are shared constants.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text_norm import NORMALIZE_SQL, normalize_column
from . import co_partition, read, reduce_by, top_k

TOKEN_RE = "[A-Za-z0-9]+"

# language-ID stopword lists (tiny n-gram-free heuristic; the SQL twin
# reproduces the exact same scoring, ties broken by this fixed order)
LANG_STOPWORDS: dict[str, list[str]] = {
    "en": ["the", "a", "of", "and", "is", "to", "in"],
    "de": ["der", "die", "das", "und", "ist", "ein"],
    "fr": ["le", "la", "les", "et", "est", "un"],
    "es": ["el", "los", "las", "y", "es", "un"],
}
CJK_RE = "[\\x{4e00}-\\x{9fff}]"  # RE2 syntax used by both pyarrow and duckdb


def _count_re(col, pattern: str):
    return pc.count_substring_regex(col, pattern)


def normalize_docs(sf_dir: str):
    """(doc_id, norm_text) — the boilerplate-strip/normalization map."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "norm_text": normalize_column(batch["text"])}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


NORMALIZE_DOCS_SQL = (
    "SELECT doc_id, " + NORMALIZE_SQL.format(col="text") + " AS norm_text "
    "FROM documents"
)


PUNCT_RE = "[.,;:!?]"
# a page of solid punctuation is boilerplate/noise: cap the punct share at
# 1 mark per 2 tokens (integer form below keeps the SQL twin exact)
PUNCT_MAX_PER_2_TOKENS = 1


def doc_stats(sf_dir: str):
    """(doc_id, n_chars, n_tokens, n_stop, n_punct, quality) — quality
    scoring over length + stopword + punctuation-ratio signals,
    all-integer outputs for stable comparison."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    stop_pat = "\\b(" + "|".join(LANG_STOPWORDS["en"]) + ")\\b"

    def fn(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.utf8_length(text)
        n_tokens = _count_re(text, TOKEN_RE)
        n_stop = _count_re(text, stop_pat)
        n_punct = _count_re(text, PUNCT_RE)
        quality = pc.and_(
            pc.and_(
                pc.and_(
                    pc.greater_equal(n_tokens, 5), pc.less_equal(n_tokens, 100000)
                ),
                pc.greater(n_stop, 0),
            ),
            # punct ratio: 2 * n_punct <= n_tokens (integer-exact both sides)
            pc.less_equal(
                pc.multiply(pc.cast(n_punct, pa.int64()), 2),
                pc.cast(n_tokens, pa.int64()),
            ),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pc.cast(n_chars, pa.int64()),
                "n_tokens": pc.cast(n_tokens, pa.int64()),
                "n_stop": pc.cast(n_stop, pa.int64()),
                "n_punct": pc.cast(n_punct, pa.int64()),
                "quality": pc.cast(quality, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


DOC_STATS_SQL = f"""
SELECT doc_id,
       length(text) AS n_chars,
       len(regexp_extract_all(text, '{TOKEN_RE}')) AS n_tokens,
       len(regexp_extract_all(text, '\\b({"|".join(LANG_STOPWORDS["en"])})\\b')) AS n_stop,
       len(regexp_extract_all(text, '{PUNCT_RE.replace("'", "''")}')) AS n_punct,
       CAST(len(regexp_extract_all(text, '{TOKEN_RE}')) BETWEEN 5 AND 100000
            AND len(regexp_extract_all(text, '\\b({"|".join(LANG_STOPWORDS["en"])})\\b')) > 0
            AND 2 * len(regexp_extract_all(text, '{PUNCT_RE.replace("'", "''")}'))
                <= len(regexp_extract_all(text, '{TOKEN_RE}'))
            AS BIGINT) AS quality
FROM documents
"""


# BPE-ish pre-tokenizer (GPT-2 style, RE2-safe subset: contraction
# suffixes, space-prefixed letter runs, digit runs, symbol runs — RE2 has
# no lookahead, so the trailing-space alternations are dropped; both
# pyarrow and DuckDB run RE2, so the count is bit-identical).  The tokens
# a BPE vocab would merge FROM — the standard training-cost proxy when the
# real tokenizer isn't in the data plane.
BPE_ISH_RE = "'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+"


def bpe_token_count(sf_dir: str):
    """(doc_id, n_chars, n_words, n_bpe, chars_per_bpe_milli) — token
    counting by BOTH rules the brief names: whitespace words (TOKEN_RE)
    and a BPE-ish pre-tokenizer regex.  ``chars_per_bpe_milli`` =
    floor(1000 * n_chars / n_bpe) (integer-exact compression-rate proxy;
    0 when the doc is empty).  One shuffle-free vectorized pass."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy()
        n_words = pc.cast(_count_re(text, TOKEN_RE), pa.int64()).to_numpy()
        n_bpe = pc.cast(_count_re(text, BPE_ISH_RE), pa.int64()).to_numpy()
        milli = np.where(n_bpe > 0, (1000 * n_chars) // np.maximum(n_bpe, 1), 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "n_bpe": pa.array(n_bpe),
                "chars_per_bpe_milli": pa.array(milli.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def bpe_token_count_sql() -> str:
    pat = BPE_ISH_RE.replace("'", "''")
    return f"""
SELECT doc_id,
       length(text) AS n_chars,
       len(regexp_extract_all(text, '{TOKEN_RE}')) AS n_words,
       len(regexp_extract_all(text, '{pat}')) AS n_bpe,
       CASE WHEN len(regexp_extract_all(text, '{pat}')) > 0
            THEN (1000 * length(text))
                 // len(regexp_extract_all(text, '{pat}'))
            ELSE 0 END AS chars_per_bpe_milli
FROM documents
"""


def lang_id(sf_dir: str):
    """(doc_id, pred_lang) — stopword-hit argmax with fixed tie order
    en > de > fr > es > zh > und."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        scores = {}
        for lang, words in LANG_STOPWORDS.items():
            pat = "\\b(" + "|".join(words) + ")\\b"
            scores[lang] = _count_re(text, pat).to_numpy(zero_copy_only=False)
        scores["zh"] = _count_re(text, CJK_RE).to_numpy(zero_copy_only=False)
        order = ["en", "de", "fr", "es", "zh"]
        mat = np.stack([scores[l] for l in order], axis=1)
        best = mat.argmax(axis=1)  # first max wins = fixed tie order
        pred = np.array(order, dtype=object)[best]
        pred[mat.max(axis=1) == 0] = "und"
        return pa.table(
            {"doc_id": batch["doc_id"], "pred_lang": pa.array(pred, pa.string())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _lang_count_sql(lang: str) -> str:
    words = "|".join(LANG_STOPWORDS[lang])
    return f"len(regexp_extract_all(text, '\\b({words})\\b'))"


LANG_ID_SQL = f"""
WITH c AS (
  SELECT doc_id,
         {_lang_count_sql("en")} AS en, {_lang_count_sql("de")} AS de,
         {_lang_count_sql("fr")} AS fr, {_lang_count_sql("es")} AS es,
         len(regexp_extract_all(text, '{CJK_RE}')) AS zh
  FROM documents)
SELECT doc_id,
       CASE WHEN greatest(en, de, fr, es, zh) = 0 THEN 'und'
            WHEN en >= de AND en >= fr AND en >= es AND en >= zh THEN 'en'
            WHEN de >= fr AND de >= es AND de >= zh THEN 'de'
            WHEN fr >= es AND fr >= zh THEN 'fr'
            WHEN es >= zh THEN 'es'
            ELSE 'zh' END AS pred_lang
FROM c
"""


def term_freq(sf_dir: str, k: int = 20):
    """Top-k corpus tokens: per-batch partial counts (map_batches) -> one
    keyed exchange sums them -> global :func:`ops.top_k`. The canonical
    pre-aggregate-then-exchange shape."""
    ds = read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # tokenize by splitting on non-token chars (== extracting TOKEN_RE
        # matches), then count within the batch — all Arrow kernels
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch["text"], "[^A-Za-z0-9]+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = toks.value_counts()
        return pa.table(
            {
                "token": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return _top_counts(partials, "token", "cnt", k).drop_columns(["rank"])


def _top_counts(partials, key: str, count: str, k: int):
    """The ``k`` keys of the largest summed ``count`` (ties by key, ascending)
    from per-block (key, count) partials: one keyed exchange sums them, a
    global :func:`ops.top_k` keeps the k, ranked 1..k in ``rank``."""
    schema = {key: pa.string(), count: pa.int64()}
    return top_k(reduce_by(partials, key, schema), None, [(count, False), (key, True)], k, schema)


def term_freq_sql(k: int = 20) -> str:
    return f"""
SELECT t AS token, count(*) AS cnt
FROM (SELECT unnest(regexp_extract_all(text, '{TOKEN_RE}')) AS t FROM documents)
GROUP BY t ORDER BY cnt DESC, token ASC LIMIT {k}
"""


def fingerprint(sf_dir: str):
    """(doc_id, fp) — polynomial rolling hash over the token stream
    (document fingerprinting).  Re-based on the SQL-expressible 31-bit
    polynomial hash (ops/hashing.py) so the DuckDB oracle can verify it;
    fully vectorized (no per-token Python loop): one char-level hash pass
    over the batch's tokens, one segment-Horner pass per document."""
    from .hashing import poly_hash_segments, poly_hash_strings, tokenize_batch

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        flat, lens = tokenize_batch(batch["text"].to_pylist())
        th = poly_hash_strings(flat)
        fps = poly_hash_segments(th, lens)
        return pa.table(
            {"doc_id": batch["doc_id"], "fp": pa.array(fps.astype(np.int64))}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def fingerprint_sql() -> str:
    from .hashing import B_TOK, M31, sql_char_hash, sql_tokens

    toks = sql_tokens("text")
    return f"""
SELECT doc_id,
       CASE WHEN len({toks}) = 0 THEN 0
            ELSE list_reduce(
                   list_transform({toks}, t -> {sql_char_hash('t')}),
                   (a, h) -> (a * {B_TOK} + h) % {M31})
       END AS fp
FROM documents
"""


# ------------------------------------------- distributed quantile filter
#
# The standard quality-threshold prune of an LLM-data pipeline: "drop the
# bottom pct% of documents by token count".  A global quantile normally
# needs a full sort; over an INTEGER-valued signal it reduces to a
# histogram: per-batch value counts (partial aggregation, one row per
# distinct value per block, not per document), summed on the driver with
# no exchange, and a threshold scan there.  The driver's share is bounded
# per block by the number of DISTINCT token counts —
# <= max document length regardless of corpus size (a 100 TB corpus with
# 100k-token docs yields <= 100k rows a block) — so this is a justified
# driver materialize, and the threshold broadcasts back as a plain
# closure int.
# Two streamed passes over the pruned (doc_id, text) columns beat one
# pass + a corpus-sized (doc_id, n_tokens) materialize at scale.


def quantile_threshold(values: np.ndarray, counts: np.ndarray, pct: int) -> int:
    """Exact pct-th percentile over an integer histogram: the smallest v
    with 100 * cum_count(v) >= pct * N (all-integer; equals
    ``np.percentile(expanded, pct, method="inverted_cdf")`` — the
    hypothesis property test pins that equivalence).  ``values`` must be
    sorted ascending with positive ``counts``."""
    cum = counts.astype(np.int64).cumsum()
    n = int(cum[-1])
    idx = int(np.searchsorted(100 * cum, pct * n, side="left"))
    return int(values[idx])


def token_quantile_filter(sf_dir: str, pct: int = 10):
    """Keep documents at or above the exact ``pct``-th percentile of
    token count: threshold = smallest v with 100*cum_count(v) >= pct*N
    (all-integer, tie rows at the threshold kept).  Returns
    (doc_id, n_tokens) for the surviving documents; value-exact DuckDB
    twin in :func:`token_quantile_filter_sql`."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def hist_partial(batch: pa.Table) -> pa.Table:
        n = pc.cast(_count_re(batch["text"], TOKEN_RE), pa.int64()).to_numpy()
        v, c = np.unique(n, return_counts=True)
        return pa.table(
            {"v": pa.array(v), "c": pa.array(c.astype(np.int64))}
        )

    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: distinct token counts per block
        .groupby("v")["c"]
        .sum()
    )
    thr = quantile_threshold(hist.index.to_numpy(np.int64), hist.to_numpy(np.int64), pct)


    def filter_stage(batch: pa.Table) -> pa.Table:
        n = pc.cast(_count_re(batch["text"], TOKEN_RE), pa.int64())
        t = pa.table({"doc_id": batch["doc_id"], "n_tokens": n})
        return t.filter(pc.greater_equal(n, thr))

    return ds.map_batches(filter_stage, batch_format="pyarrow")


def token_quantile_filter_sql(pct: int = 10) -> str:
    return f"""
WITH s AS (
  SELECT doc_id, len(regexp_extract_all(text, '{TOKEN_RE}')) AS n_tokens
  FROM documents),
h AS (SELECT n_tokens AS v, count(*) AS c FROM s GROUP BY 1),
t AS (
  SELECT v AS thr FROM (
    SELECT v, sum(c) OVER (ORDER BY v) AS cum,
           (SELECT sum(c) FROM h) AS n
    FROM h)
  WHERE 100 * cum >= {pct} * n ORDER BY v LIMIT 1)
SELECT s.doc_id, CAST(s.n_tokens AS BIGINT) AS n_tokens
FROM s, t WHERE s.n_tokens >= t.thr
"""


# ------------------------------------------ distinct-count sketch (HLL)
#
# Cardinality estimation without the exact-distinct shuffle: a
# HyperLogLog register table over the corpus's token hashes.  The whole
# sketch is DETERMINISTIC — the register update is max(), which is
# associative, commutative and idempotent, so the result is independent
# of batching/block order and hash-verifiable against a DuckDB twin
# computing the same registers from the same polynomial hash.  At scale
# this replaces `count(DISTINCT token)`'s full shuffle with one
# m-row aggregate (partial max per batch, then one bucket-keyed max).
# Bit length parity: numpy frexp's exponent == len(DuckDB bin(w)) for
# w >= 1 (both are the IEEE exponent of an exactly-representable int).

HLL_BUCKETS = 64


def _hll_maxbits(m: int) -> int:
    from .hashing import M31

    return ((M31 - 1) // m).bit_length()


def distinct_token_sketch(sf_dir: str, m: int = HLL_BUCKETS):
    """(bucket, rho): HyperLogLog registers over distinct-token hashes —
    bucket = h % m, rho = leading-zero rank of w = h // m within its
    ``maxbits`` domain (all-zero w -> maxbits + 1).  Only observed
    buckets appear (same in the twin).  The estimate derived from these
    registers is tested within tolerance of the exact distinct count."""
    from .hashing import poly_hash_strings, tokenize_batch

    maxbits = _hll_maxbits(m)
    ds = read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = tokenize_batch(batch["text"].to_pylist())
        if not flat:
            return pa.table(
                {"bucket": pa.array([], pa.int64()), "rho": pa.array([], pa.int64())}
            )
        h = poly_hash_strings(flat)
        bucket = h % m
        w = h // m
        bl = np.frexp(w.astype(np.float64))[1].astype(np.int64)
        rho = np.where(w == 0, maxbits + 1, maxbits - bl + 1)
        df = pd.DataFrame({"bucket": bucket, "rho": rho})
        g = df.groupby("bucket", as_index=False)["rho"].max()
        return pa.Table.from_pandas(g, preserve_index=False)

    return reduce_by(
        ds.map_batches(partial, batch_format="pyarrow"),
        "bucket",
        {"bucket": pa.int64(), "rho": pa.int64()},
        "max",
    )


def distinct_token_sketch_sql(m: int = HLL_BUCKETS) -> str:
    from .hashing import sql_char_hash, sql_tokens

    maxbits = _hll_maxbits(m)
    toks = sql_tokens("text")
    return f"""
WITH t AS (
  SELECT unnest({toks}) AS tok FROM documents),
h AS (SELECT {sql_char_hash('tok')} AS h FROM t)
SELECT h % {m} AS bucket,
       CAST(max(CASE WHEN h // {m} = 0 THEN {maxbits + 1}
                ELSE {maxbits} - length(bin(h // {m})) + 1 END) AS BIGINT)
         AS rho
FROM h GROUP BY 1
"""


def hll_estimate(registers: dict[int, int], m: int = HLL_BUCKETS) -> float:
    """Standard HLL estimator from a (bucket -> rho) register table
    (missing buckets count as rho = 0), with the small-range
    linear-counting correction."""
    import math

    alpha = 0.7213 / (1.0 + 1.079 / m)
    s = sum(2.0 ** -registers.get(b, 0) for b in range(m))
    est = alpha * m * m / s
    zeros = sum(1 for b in range(m) if b not in registers)
    if est < 2.5 * m and zeros:
        est = m * math.log(m / zeros)
    return est


# ----------------------------------------- frequency sketch (Count-Min)
#
# Approximate per-token frequencies in FIXED memory: d independent hash
# rows x w counters, each counter a sum — and sums, like HLL's max, are
# order-independent, so the sketch table is deterministic and
# hash-verified exactly like the exact operators.  At scale this bounds
# the "term frequency" shuffle at d*w rows instead of the vocabulary
# size; point estimates read min over rows (always >= truth; the
# overestimate bound is tested against exact counts).

CM_ROWS = ((1, 0), (31, 7), (1103515245, 12345), (69069, 5))  # (a_i, b_i)
CM_WIDTH = 1024


def countmin_sketch(sf_dir: str, w: int = CM_WIDTH):
    """(row, col, cnt): the Count-Min table over corpus token hashes —
    col = ((a_i * h + b_i) % M31) % w per row i.  Deterministic; exact
    DuckDB twin in :func:`countmin_sketch_sql`."""
    from .hashing import M31, poly_hash_strings, tokenize_batch

    ds = read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = tokenize_batch(batch["text"].to_pylist())
        if not flat:
            return pa.table(
                {
                    "row": pa.array([], pa.int64()),
                    "col": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        h = poly_hash_strings(flat).astype(np.int64)
        rows, cols, cnts = [], [], []
        for i, (a, b) in enumerate(CM_ROWS):
            col = ((a * h + b) % M31) % w
            bc = np.bincount(col, minlength=0)
            nz = np.nonzero(bc)[0]
            rows.append(np.full(len(nz), i, dtype=np.int64))
            cols.append(nz.astype(np.int64))
            cnts.append(bc[nz].astype(np.int64))
        return pa.table(
            {
                "row": pa.array(np.concatenate(rows)),
                "col": pa.array(np.concatenate(cols)),
                "cnt": pa.array(np.concatenate(cnts)),
            }
        )

    return reduce_by(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["row", "col"],
        {"row": pa.int64(), "col": pa.int64(), "cnt": pa.int64()},
    )


def countmin_sketch_sql(w: int = CM_WIDTH) -> str:
    from .hashing import M31, sql_char_hash, sql_tokens

    arms = "\nUNION ALL\n".join(
        f"SELECT {i} AS row, ((({a} * h + {b}) % {M31}) % {w}) AS col FROM h"
        for i, (a, b) in enumerate(CM_ROWS)
    )
    return f"""
WITH t AS (SELECT unnest({sql_tokens("text")}) AS tok FROM documents),
h AS (SELECT {sql_char_hash('tok')} AS h FROM t),
arms AS ({arms})
SELECT row, col, count(*) AS cnt FROM arms GROUP BY 1, 2
"""


def countmin_estimate(table: pd.DataFrame, token: str, w: int = CM_WIDTH) -> int:
    """Point-estimate a token's frequency: min over the d rows of the
    counter its hash lands in (0 if a row has no entry).  Always >= the
    true count; the collision overestimate is bounded by n/w per row."""
    from .hashing import M31, poly_hash_strings

    h = int(poly_hash_strings([token])[0])
    lut = {(int(r), int(c)): int(v) for r, c, v in table.itertuples(index=False)}
    return min(
        lut.get((i, ((a * h + b) % M31) % w), 0) for i, (a, b) in enumerate(CM_ROWS)
    )


# ---------------------------------------- TF-IDF keyword extraction
#
# Per-document top terms by TF-IDF — the keyword-extraction /
# doc-representation primitive.  The IDF uses an INTEGER surrogate,
# idf_q = (N * 1000) // df (monotone in ln(N/df)), because a float ln
# would make the oracle comparison hinge on libm last-ulp agreement;
# with the surrogate every score is an exact int64 and the DuckDB twin
# is value-exact.  Shape: the per-batch (doc, token, tf) explode is
# shuffle-free (a doc lives in one batch, so the pairs are globally
# distinct), then ONE co-partition on the token: because df is a pure
# function of the token group and every row of a token lands in the
# same group, each group counts its own tokens' df AND scores its rows
# locally — the vocabulary never materializes on the driver.  A second
# co-partition on doc_id closes out the per-doc top-k.

IDF_SCALE = 1000


def tfidf_top_terms(sf_dir: str, k: int = 3):
    """(doc_id, token, score, rank): each document's top-k tokens by
    tf * ((N * {IDF_SCALE}) // df), rank by (score DESC, token ASC).
    Exact twin in :func:`tfidf_top_terms_sql`."""
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_rows(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"], "[^A-Za-z0-9]+")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = np.repeat(batch["doc_id"].to_numpy(), lens)
        flat = pc.list_flatten(toks).to_pandas()
        df = pd.DataFrame({"doc_id": ids, "token": flat})
        df = df[df["token"] != ""]
        g = df.groupby(["doc_id", "token"], as_index=False).size()
        g = g.rename(columns={"size": "tf"})
        g["tf"] = g["tf"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    n_docs = read(sf_dir, "documents", columns=["doc_id"]).count()

    def score(tf: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc_id, token) pairs, so df == rows-per-token
        df = tf.groupby("token")["doc_id"].transform("size").to_numpy(
            np.int64
        )
        out = tf[["doc_id", "token"]].copy()
        out["score"] = tf["tf"].to_numpy(np.int64) * (
            (n_docs * IDF_SCALE) // df
        )
        return out

    scores = co_partition(
        score,
        tf=(
            ds.map_batches(tf_rows, batch_format="pyarrow"),
            "token",
            {"doc_id": pa.int64(), "token": pa.string(), "tf": pa.int64()},
        ),
    )
    return top_k(
        scores,
        "doc_id",
        [("score", False), ("token", True)],
        k,
        {"doc_id": pa.int64(), "token": pa.string(), "score": pa.int64()},
    )


def tfidf_top_terms_sql(k: int = 3) -> str:
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '{TOKEN_RE}')) AS token
  FROM documents),
tf AS (SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
n AS (SELECT count(*) AS n FROM documents)
SELECT doc_id, token, CAST(score AS BIGINT) AS score,
       CAST(rank AS BIGINT) AS rank
FROM (
  SELECT tf.doc_id, tf.token,
         tf.tf * ((n.n * {IDF_SCALE}) // df.df) AS score,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * ((n.n * {IDF_SCALE}) // df.df) DESC,
                    tf.token ASC) AS rank
  FROM tf JOIN df USING (token) CROSS JOIN n)
WHERE rank <= {k}
"""


# ------------------------------------------ vocabulary build + encoding

VOCAB_K = 24  # < the corpus' ~31 distinct tokens, so the OOV path is
# exercised corpus-wide (a production K of 10^5 would make every token
# in-vocab here and leave the unk branch untested)


def vocab_encode(sf_dir: str, k: int = VOCAB_K):
    """Frequency-ranked vocabulary build + token-id encoding — the
    word-level tokenizer-training stage of an LM data pipeline: the
    top-``k`` corpus tokens by frequency (ties broken lexicographically)
    become ids 0..k-1, everything else the unk id ``k``; each document
    is encoded and summarized as (doc_id, n_tokens, n_oov, ids_fp) where
    ``ids_fp`` is the 31-bit polynomial fingerprint of the (id+1)
    sequence — the sequence itself, value-verified without shipping a
    list column through the driver's hash compare.

    Scale shape: pass 1 pre-aggregates token counts per block, one
    vocabulary-bounded exchange sums them, and a global top-k keeps only
    K rows — the driver materializes exactly K (token, id) pairs, never
    the vocabulary; the broadcast dict is O(K).  Pass 2 is one shuffle-free
    vectorized encode (pandas C-level dict gather + segment Horner).
    """
    import ray

    from .hashing import B_TOK, M31, poly_hash_segments, tokenize_batch

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = tokenize_batch(batch["text"].to_pylist())
        t, c = np.unique(np.asarray(flat, dtype=object), return_counts=True)
        return pa.table(
            {"t": pa.array(t.tolist(), pa.string()), "c": pa.array(c)}
        )

    vocab = (
        _top_counts(ds.map_batches(partial, batch_format="pyarrow"), "t", "c", k)
        .to_pandas()  # bounded: exactly K rows
        .sort_values("rank")
    )
    ids = {tok: i for i, tok in enumerate(vocab["t"].tolist())}
    ids_ref = ray.put(ids)

    def encode(batch: pa.Table) -> pa.Table:
        ref = ray.get(ids_ref)
        texts = batch["text"].to_pylist()
        flat, lens = tokenize_batch(texts)
        tid = (
            pd.Series(flat, dtype=object).map(ref).fillna(k).to_numpy(np.int64)
        )
        n_oov = np.zeros(len(texts), dtype=np.int64)
        np.add.at(
            n_oov,
            np.repeat(np.arange(len(texts), dtype=np.int64), lens),
            tid == k,
        )
        fp = poly_hash_segments((tid + 1).astype(np.uint64), lens, B_TOK)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens),
                "n_oov": pa.array(n_oov),
                "ids_fp": pa.array(fp.view(np.int64)),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


def vocab_encode_sql(k: int = VOCAB_K) -> str:
    from .hashing import B_TOK, M31, TOKEN_SPLIT_RE

    return f"""
WITH tokd AS (
  SELECT doc_id, regexp_extract_all(text, '{TOKEN_SPLIT_RE}') AS ts
  FROM documents),
cnt AS (SELECT t, count(*) AS c
        FROM (SELECT unnest(ts) AS t FROM tokd) GROUP BY 1),
vocab AS (SELECT t, row_number() OVER (ORDER BY c DESC, t) - 1 AS id
          FROM cnt ORDER BY c DESC, t LIMIT {k}),
e AS (SELECT doc_id, unnest(ts) AS t, unnest(range(len(ts))) AS i
      FROM tokd),
enc AS (SELECT e.doc_id, e.i, COALESCE(v.id, {k}) AS id
        FROM e LEFT JOIN vocab v USING (t)),
fp AS (SELECT doc_id,
              CAST(count(*) AS BIGINT) AS n_tokens,
              CAST(sum(CASE WHEN id = {k} THEN 1 ELSE 0 END) AS BIGINT)
                AS n_oov,
              list_reduce(list(id + 1 ORDER BY i),
                          (a, c) -> (a * {B_TOK} + c) % {M31}) AS ids_fp
       FROM enc GROUP BY 1)
SELECT d.doc_id,
       COALESCE(n_tokens, 0) AS n_tokens,
       COALESCE(n_oov, 0) AS n_oov,
       CAST(COALESCE(ids_fp, 0) AS BIGINT) AS ids_fp
FROM documents d LEFT JOIN fp USING (doc_id)
"""

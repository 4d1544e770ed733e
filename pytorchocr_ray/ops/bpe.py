"""BPE tokenizer training + encoding over the documents table.

The tokenizer-training stage of an LM data pipeline (Sennrich et al.
2016), structured the way production trainers (e.g. HF tokenizers)
actually run at corpus scale:

1. ONE distributed pass builds the word-frequency table — BPE training
   needs only (word, count), never the corpus — capped to the top
   ``max_words`` by (count DESC, word ASC) so the driver materialize is
   K-bounded like ``vocab_encode``'s (the cap is the honest scale
   contract; a 100 TB corpus has an unbounded tail of hapax words that
   real trainers also drop).
2. The merge loop runs serially on that K-bounded table (pair counts
   over at most K short words per iteration — this is in-memory work in
   every real BPE trainer; distributing it would shuffle per iteration
   for no benefit).
3. A second distributed pass ENCODES every document with the trained
   merge ranks broadcast in the closure, emitting per-doc symbol counts
   and a polynomial fingerprint of the final symbol sequence so the
   full encoding value-verifies without materializing list columns.

Determinism spec (engine and the independent serial reference in
:func:`bpe_reference` must agree by construction):
  * words = whitespace tokens (``str.split``, the house rule), each
    ending with the end-of-word marker symbol ``</w>``;
  * pair counts weigh each ADJACENT symbol pair once per occurrence in
    a word, times the word's corpus count;
  * best pair = max by (count DESC, left ASC, right ASC);
  * merging replaces occurrences LEFT-TO-RIGHT, non-overlapping
    ("aaa" + merge (a,a) -> "aa","a");
  * encoding applies trained merges in RANK order, each to exhaustion.

Oracle: there is no SQL for an iterative merge loop, so the driver twin
is an INDEPENDENT SERIAL REFERENCE (plain dict-and-list Python, no
numpy, no shared helpers) materialized to fixture parquet — the same
oracle pattern as the image-dHash fixture.  The SQL side just reads the
fixture, so rows+schema+hash still verify the full distributed result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import co_partition, read

EOW = "</w>"
N_MERGES = 12
MAX_WORDS = 4096


# ------------------------------------------------------- shared spec

def _best_pair(counts: dict[tuple[str, str], int]) -> tuple[str, str]:
    return min(counts, key=lambda p: (-counts[p], p[0], p[1]))


def _merge_word(
    sym: tuple[str, ...], left: str, right: str
) -> tuple[str, ...]:
    out: list[str] = []
    i = 0
    while i < len(sym):
        if i + 1 < len(sym) and sym[i] == left and sym[i + 1] == right:
            out.append(left + right)
            i += 2  # left-to-right, non-overlapping
        else:
            out.append(sym[i])
            i += 1
    return tuple(out)


def _train_merges(
    word_counts: list[tuple[str, int]], n_merges: int
) -> list[tuple[str, str, int]]:
    """[(left, right, freq)] in rank order, from (word, count) pairs."""
    words: list[tuple[tuple[str, ...], int]] = [
        (tuple(w) + (EOW,), c) for w, c in word_counts
    ]
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for sym, c in words:
            for a, b in zip(sym, sym[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + c
        if not counts:
            break
        left, right = _best_pair(counts)
        merges.append((left, right, counts[(left, right)]))
        words = [(_merge_word(s, left, right), c) for s, c in words]
    return merges


def _encode_word(
    word: str, ranks: dict[tuple[str, str], int]
) -> tuple[str, ...]:
    sym = tuple(word) + (EOW,)
    # rank order, each merge applied to exhaustion (spec above)
    for (left, right), _ in sorted(ranks.items(), key=lambda kv: kv[1]):
        if len(sym) < 2:
            break
        prev = None
        while prev != sym:
            prev = sym
            sym = _merge_word(sym, left, right)
    return sym


# --------------------------------------------------- distributed ops

def _word_counts(sf_dir: str, max_words: int) -> list[tuple[str, int]]:
    """Top-``max_words`` (word, count) by (count DESC, word ASC): per-
    batch partials -> one co-partition on the word -> per-group top-k ->
    a K-bounded driver sort (the vocab_encode collect pattern)."""
    ds = read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch["text"].to_pylist():
            toks.extend(t.split())
        w, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.table({"word": pa.array(w, pa.string()), "c": pa.array(c.astype(np.int64))})

    def topk_group(words: pd.DataFrame) -> pd.DataFrame:
        g = words.groupby("word", as_index=False)["c"].sum()
        g = g.sort_values(["c", "word"], ascending=[False, True]).head(
            max_words
        )
        g["c"] = g["c"].astype(np.int64)
        return g[["word", "c"]]

    rows = (
        co_partition(
            topk_group,
            words=(
                ds.map_batches(partial, batch_format="pyarrow"),
                "word",
                {"word": pa.string(), "c": pa.int64()},
            ),
        )
        .to_pandas()  # <= max_words per group; K-bounded collect
        .sort_values(["c", "word"], ascending=[False, True])
        .head(max_words)
    )
    return list(zip(rows["word"].tolist(), rows["c"].astype(int).tolist()))


def bpe_merges(
    sf_dir: str, n_merges: int = N_MERGES, max_words: int = MAX_WORDS
):
    """(rank, lhs, rhs, freq): the trained merge table.  Oracle =
    independent serial reference fixture (:func:`bpe_merges_sql`)."""
    import ray.data as rd

    merges = _train_merges(_word_counts(sf_dir, max_words), n_merges)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "rank": np.arange(len(merges), dtype=np.int64),
                "lhs": [m[0] for m in merges],
                "rhs": [m[1] for m in merges],
                "freq": np.array([m[2] for m in merges], dtype=np.int64),
            }
        )
    )


def bpe_encode(
    sf_dir: str, n_merges: int = N_MERGES, max_words: int = MAX_WORDS
):
    """(doc_id, n_chars, n_bpe, seq_fp): every document encoded with the
    trained merges — n_chars counts pre-merge symbols (chars + one EOW
    per word), n_bpe the post-merge symbols, seq_fp the polynomial
    fingerprint of the symbol-hash sequence.  Encoding is per-batch with
    a per-DISTINCT-word memo (Zipf: a batch re-encodes few words)."""
    merges = _train_merges(_word_counts(sf_dir, max_words), n_merges)
    ranks = {(l, r): i for i, (l, r, _) in enumerate(merges)}
    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(batch: pa.Table) -> pa.Table:
        from .hashing import M31, poly_hash_segments, poly_hash_strings

        memo: dict[str, tuple[str, ...]] = {}
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        n_chars = np.zeros(len(ids), dtype=np.int64)
        n_bpe = np.zeros(len(ids), dtype=np.int64)
        flat_syms: list[str] = []
        lens = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            syms: list[str] = []
            for w in t.split():
                enc = memo.get(w)
                if enc is None:
                    enc = memo[w] = _encode_word(w, ranks)
                n_chars[i] += len(w) + 1  # + the EOW marker symbol
                syms.extend(enc)
            n_bpe[i] = len(syms)
            lens[i] = len(syms)
            flat_syms.extend(syms)
        sym_h = poly_hash_strings(flat_syms)
        fp = poly_hash_segments(sym_h % np.uint64(M31), lens)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_chars": pa.array(n_chars),
                "n_bpe": pa.array(n_bpe),
                "seq_fp": pa.array(fp.astype(np.int64)),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


# -------------------------------------- independent reference oracle

def bpe_reference(sf_dir: str, n_merges: int, max_words: int):
    """Serial reference implementing the determinism spec FROM SCRATCH:
    plain dicts/lists over the raw parquet, its own merge/encode loops
    (no numpy, no shared engine kernels), so an engine bug cannot hide
    behind a shared helper.  Returns (merge_rows, encode_rows)."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    counts: dict[str, int] = {}
    for t in tbl["text"].to_pylist():
        for w in t.split():
            counts[w] = counts.get(w, 0) + 1
    wc = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_words]

    def merge_once(seq: list[str], a: str, b: str) -> list[str]:
        res: list[str] = []
        j = 0
        while j < len(seq):
            if j < len(seq) - 1 and seq[j] == a and seq[j + 1] == b:
                res.append(a + b)
                j += 2
            else:
                res.append(seq[j])
                j += 1
        return res

    words = [(list(w) + [EOW], c) for w, c in wc]
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pc_: dict[tuple[str, str], int] = {}
        for seq, c in words:
            for j in range(len(seq) - 1):
                k = (seq[j], seq[j + 1])
                pc_[k] = pc_.get(k, 0) + c
        if not pc_:
            break
        best = None
        for k, v in pc_.items():
            cand = (-v, k[0], k[1])
            if best is None or cand < best[0]:
                best = (cand, k, v)
        (_, (a, b), f) = best
        merges.append((a, b, f))
        words = [(merge_once(seq, a, b), c) for seq, c in words]

    merge_rows = [
        {"rank": i, "lhs": l, "rhs": r, "freq": f}
        for i, (l, r, f) in enumerate(merges)
    ]

    def ref_encode(word: str) -> list[str]:
        seq = list(word) + [EOW]
        for a, b, _ in merges:  # rank order; each to exhaustion
            while True:
                nxt = merge_once(seq, a, b)
                if nxt == seq:
                    break
                seq = nxt
        return seq

    # serial per-symbol Horner hashes (independent of ops/hashing numpy)
    M31, B_CHAR, B_TOK = 2147483647, 131, 1000003

    def chash(s: str) -> int:
        h = 0
        for ch in s:
            h = (h * B_CHAR + ord(ch)) % M31
        return h

    encode_rows = []
    memo: dict[str, list[str]] = {}
    for doc_id, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        syms: list[str] = []
        n_chars = 0
        for w in t.split():
            n_chars += len(w) + 1
            if w not in memo:
                memo[w] = ref_encode(w)
            syms.extend(memo[w])
        fp = 0
        for s in syms:
            fp = (fp * B_TOK + chash(s)) % M31
        encode_rows.append(
            {
                "doc_id": doc_id,
                "n_chars": n_chars,
                "n_bpe": len(syms),
                "seq_fp": fp,
            }
        )
    return merge_rows, encode_rows


def _fixture_dir(sf_dir: str, n_merges: int, max_words: int) -> str:
    """Expected tables from the serial reference, cached by
    :func:`~..state.cache.cached` on the module source, parameters and
    corpus CONTENT (a rewrite that keeps the file's size and mtime still
    gets a fresh fixture)."""
    import os
    from pathlib import Path

    import pyarrow.parquet as pq

    from ..state import cache

    def build(d: str) -> None:
        merge_rows, encode_rows = bpe_reference(sf_dir, n_merges, max_words)
        assert merge_rows, "corpus yields at least one merge"
        pq.write_table(pa.Table.from_pylist(merge_rows), os.path.join(d, "merges.parquet"))
        pq.write_table(pa.Table.from_pylist(encode_rows), os.path.join(d, "encodes.parquet"))

    doc = Path(f"{sf_dir}/documents.parquet").read_bytes()
    return cache.cached("bpe", build, (n_merges, max_words), (__file__,), doc)


def bpe_merges_sql(
    sf_dir: str, n_merges: int = N_MERGES, max_words: int = MAX_WORDS
) -> str:
    d = _fixture_dir(sf_dir, n_merges, max_words)
    return (
        "SELECT CAST(rank AS BIGINT) AS rank, lhs, rhs, "
        "CAST(freq AS BIGINT) AS freq "
        f"FROM read_parquet('{d}/merges.parquet')"
    )


def bpe_encode_sql(
    sf_dir: str, n_merges: int = N_MERGES, max_words: int = MAX_WORDS
) -> str:
    d = _fixture_dir(sf_dir, n_merges, max_words)
    return (
        "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
        "CAST(n_bpe AS BIGINT) AS n_bpe, CAST(seq_fp AS BIGINT) AS seq_fp "
        f"FROM read_parquet('{d}/encodes.parquet')"
    )

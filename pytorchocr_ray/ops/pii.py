"""PII redaction over document text — the scrubbing pass every public
web-corpus pipeline runs before training (emails / phone numbers / IP
addresses; the BigScience ROOTS / CCNet-style regex family).

The engine kernel is one vectorized ``map_batches`` over Arrow string
columns: per-pattern match COUNTS via ``pyarrow.compute
.count_substring_regex`` on the ORIGINAL text, then sequential
``replace_substring_regex`` rewrites (email -> phone -> ip, fixed
order).  Both pyarrow and DuckDB compile the same RE2 syntax, so the
DuckDB twin (``regexp_extract_all`` lengths + nested ``regexp_replace
(..., 'g')``) is value-exact on counts AND the redacted string — the
same two-engines-one-regex discipline as ``bpe_token_count``.

The shipped synthetic corpus contains no PII-shaped strings (letters
only), so the op's INPUT is a fixture table derived from it: the same
documents with deterministic doc_id-keyed PII tokens spliced in at
LCG-chosen token positions (~3/4 of docs get one, ~1/5 of those a
second).  Both the engine and the SQL twin read the SAME fixture
parquet — the fixture is the input contract, not the oracle — cached
by ``state.cache`` on the source table's size and mtime and this
module's source.  At production scale
the op runs directly over the raw documents table; everything
Ray-side (column pruning, batch kernel, zero shuffles) is the real
deployment shape.

No reference analog (SURVEY §2.9 "beyond the reference" family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# RE2-safe (no lookaround, no backrefs) — compiled by BOTH pyarrow and
# DuckDB.  Email first: its domain part would otherwise survive as an
# IP-like dotted token in no generated case, but the fixed order makes
# the sequential rewrite well-defined regardless.
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+1-[0-9]{3}-[0-9]{4}"
IP_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"

_PATTERNS = (
    ("n_emails", EMAIL_RE, "[EMAIL]"),
    ("n_phones", PHONE_RE, "[PHONE]"),
    ("n_ips", IP_RE, "[IP]"),
)

_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2147483647


def _pii_token(doc_id: int, which: int) -> str:
    if which == 0:
        return f"user{doc_id}@example{doc_id % 7}.com"
    if which == 1:
        return f"+1-{200 + doc_id % 700}-{doc_id % 10000:04d}"
    return f"10.{doc_id % 256}.{(doc_id // 256) % 256}.{doc_id % 254 + 1}"


def synth_pii_parquet(sf_dir: str) -> str:
    """Fixture (doc_id, text): the sf documents with deterministic PII
    splices.  Cached by :func:`~..state.cache.cached_parquet` on this
    module's source and the documents file's size and mtime."""
    import os

    import pyarrow.parquet as pq

    from ..state import cache

    src_path = os.path.join(sf_dir, "documents.parquet")

    def make_table() -> pa.Table:
        t = pq.read_table(src_path, columns=["doc_id", "text"])
        ids = t["doc_id"].to_numpy()
        out = []
        for doc_id, text in zip(ids, t["text"].to_pylist()):
            h1 = (int(doc_id) * _LCG_A + _LCG_C) % _LCG_M
            toks = text.split()
            kinds = []
            if h1 % 4 != 3:  # ~3/4 of docs carry PII
                kinds.append(h1 % 4)
                if (h1 // 7) % 5 == 0:  # some carry a second, different kind
                    kinds.append((h1 + 1) % 3)
            for j, k in enumerate(kinds):
                pos = ((h1 // 11) + 13 * j) % (len(toks) + 1)
                toks.insert(pos, _pii_token(int(doc_id), k))
            out.append(" ".join(toks))
        return pa.table({"doc_id": t["doc_id"], "text": pa.array(out, pa.string())})

    return cache.cached_parquet("pii", make_table, (), (__file__,), cache.stat_sig(src_path))


def pii_redact(sf_dir: str):
    """(doc_id, n_emails, n_phones, n_ips, redacted) over the planted-PII
    document table: per-pattern counts on the original text, sequential
    redaction rewrites.  One shuffle-free vectorized pass."""
    import ray.data as rd

    path = synth_pii_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        cols: dict[str, pa.Array] = {"doc_id": batch["doc_id"]}
        red = text
        for name, pat, repl in _PATTERNS:
            cols[name] = pc.cast(pc.count_substring_regex(text, pat), pa.int64())
            red = pc.replace_substring_regex(red, pat, repl)
        cols["redacted"] = red
        return pa.table(cols)

    return ds.map_batches(scrub, batch_format="pyarrow")


def pii_redact_sql(sf_dir: str) -> str:
    path = synth_pii_parquet(sf_dir)
    red = "text"
    for _, pat, repl in _PATTERNS:
        red = f"regexp_replace({red}, '{pat}', '{repl}', 'g')"
    counts = ",\n       ".join(
        f"CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS {name}"
        for name, pat, _ in _PATTERNS
    )
    return f"""
SELECT doc_id,
       {counts},
       {red} AS redacted
FROM read_parquet('{path}')
"""


# ------------------------------------------------- entity extraction
#
# The EXPLODE shape over unstructured text: one input document fans out
# to one row per extracted entity occurrence — the flat_map contract
# (pii_redact above summarizes counts; this op EMITS the matches).
# Distinct (doc, kind, entity) occurrences collapse to an ``occ`` count
# per batch so duplicate entities inside one document don't multiply
# rows through the pipeline.  Shuffle-free: pure per-batch kernel.
#
# Python's `re` and DuckDB share the RE2-safe pattern subset used here,
# and the per-doc findall is the same per-row cost class as the
# house-wide tokenize_batch str.split (pyarrow.compute has no
# extract-ALL kernel to vectorize with).

_ENTITY_KINDS = tuple(
    (name.removeprefix("n_").rstrip("s"), pat) for name, pat, _ in _PATTERNS
)


def extract_entities(sf_dir: str):
    """(doc_id, kind, entity, occ): every email/phone/IP occurrence in
    the planted-PII table, one row per distinct entity per document.
    Value-exact DuckDB twin in :func:`extract_entities_sql`."""
    import re

    import pandas as pd
    import ray.data as rd

    path = synth_pii_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    compiled = [(kind, re.compile(pat)) for kind, pat in _ENTITY_KINDS]

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        out_id: list[int] = []
        out_kind: list[str] = []
        out_ent: list[str] = []
        for kind, rx in compiled:
            for i, t in zip(ids, texts):
                for m in rx.findall(t):
                    out_id.append(i)
                    out_kind.append(kind)
                    out_ent.append(m)
        g = (
            pd.DataFrame(
                {"doc_id": out_id, "kind": out_kind, "entity": out_ent}
            )
            .groupby(["doc_id", "kind", "entity"], as_index=False)
            .size()
            .rename(columns={"size": "occ"})
        )
        g["doc_id"] = g["doc_id"].astype(np.int64)
        g["occ"] = g["occ"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return ds.map_batches(explode, batch_format="pyarrow")


def extract_entities_sql(sf_dir: str) -> str:
    path = synth_pii_parquet(sf_dir)
    arms = "\nUNION ALL\n".join(
        f"SELECT doc_id, '{kind}' AS kind,"
        f" unnest(regexp_extract_all(text, '{pat}')) AS entity"
        f" FROM read_parquet('{path}')"
        for kind, pat in _ENTITY_KINDS
    )
    return f"""
WITH hits AS (
{arms})
SELECT doc_id, kind, entity, CAST(count(*) AS BIGINT) AS occ
FROM hits GROUP BY 1, 2, 3
"""

"""Sampling / shuffle / split wrappers (SURVEY.md §2.9).

Maps the reference's seeded sampling utilities to Ray Data natives:
  * ``ratio_list`` per-source subsampling (simple_dataset.py:45-57)
    -> :func:`sample_ratio` (``ds.random_sample`` with a fixed seed),
  * epoch shuffle (simple_dataset.py:59-62) -> :func:`seeded_shuffle`,
  * train/val split (tools/data/gen_json_label.py:93-106)
    -> :func:`train_val_split` (``ds.split_proportionately``).
"""

from __future__ import annotations


def sample_ratio(ds, ratio: float, seed: int = 2022):
    """Seeded Bernoulli subsample — the streaming analog of the reference's
    ``random.sample(lines, round(n*ratio))`` (exact-count sampling would
    need a global pass; at scale the Bernoulli form is the right trade)."""
    return ds.random_sample(ratio, seed=seed)


def seeded_shuffle(ds, seed: int = 2022):
    """Full random shuffle (an all-to-all exchange — use only when order
    randomization is genuinely required, e.g. training epochs)."""
    return ds.random_shuffle(seed=seed)


def train_val_split(ds, val_ratio: float = 0.1, seed: int = 2022):
    """Seeded shuffle + proportional split -> (train_ds, val_ds)."""
    shuffled = ds.random_shuffle(seed=seed)
    train, val = shuffled.split_proportionately([1.0 - val_ratio])
    return train, val


# ------------------------------------------ per-group deterministic sample
#
# "k examples per domain" — the stratified-sampling primitive a training
# pipeline uses to cap any one source's contribution.  Determinism comes
# from ordering by an LCG scramble of doc_id instead of an RNG, which
# makes the sample reproducible across runs/cluster sizes AND value-exact
# against a SQL twin.  Distribution shape: :func:`ops.top_k` on the
# language (the shuffle carries <= k rows per (key, block), never the
# corpus).

SAMPLE_A = 1103515245  # classic LCG multiplier (glibc)
SAMPLE_C = 12345
SAMPLE_M = 2147483647  # 2^31 - 1, shared with ops/hashing's M31


def sample_per_group(sf_dir: str, k: int = 10):
    """(doc_id, lang, rn): the k documents per language with the smallest
    scrambled-id order — a deterministic stratified sample.  Exact twin
    in :func:`sample_per_group_sql`."""
    import numpy as np
    import pyarrow as pa

    from . import read, top_k

    ds = read(sf_dir, "documents", columns=["doc_id", "lang"])

    def scramble(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        # precondition enforced: id*A must stay < 2^63 — beyond it numpy
        # int64 wraps silently while the DuckDB twin raises on BIGINT
        # overflow, a quiet engine/oracle divergence.  For wider id
        # spaces reduce ids mod SAMPLE_M first (both sides).
        if len(ids) and int(ids.max()) >= 1 << 32:
            raise ValueError(
                "sample_per_group requires doc_id < 2^32 (got "
                f"{int(ids.max())}); pre-reduce ids mod {SAMPLE_M}"
            )
        return batch.append_column("h", pa.array((ids * SAMPLE_A + SAMPLE_C) % SAMPLE_M))

    ranked = top_k(
        ds.map_batches(scramble, batch_format="pyarrow"),
        "lang",
        [("h", True), ("doc_id", True)],
        k,
        {"doc_id": pa.int64(), "lang": pa.string(), "h": pa.int64()},
    )
    return ranked.rename_columns({"rank": "rn"}).select_columns(["doc_id", "lang", "rn"])


def sample_per_group_sql(k: int = 10) -> str:
    return f"""
SELECT doc_id, lang, CAST(rn AS BIGINT) AS rn FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (doc_id * {SAMPLE_A} + {SAMPLE_C}) % {SAMPLE_M} ASC,
                    doc_id ASC) AS rn
  FROM documents)
WHERE rn <= {k}
"""


# --------------------------------------------- weighted priority sample
#
# Deterministic WEIGHTED sampling without replacement — the companion to
# sample_per_group's uniform stratified draw: pick k documents with
# probability increasing in a weight column (here n_chars, i.e. prefer
# longer documents), reproducibly.  This is priority sampling (Duffield,
# Lund & Thorup, JACM 2007): each item gets priority u_i / w_i for a
# uniform u_i and the k SMALLEST priorities win.  The uniform is the
# deterministic LCG scramble of doc_id (shared with sample_per_group),
# and the priority stays an exact integer (hash // weight) so the
# DuckDB twin matches value-for-value — no float u^(1/w) drift.
#
# Scale shape: zero shuffle of the corpus — :func:`ops.top_k` keeps only
# each block's own k smallest priorities, so the close-out sees
# <= k x blocks rows.  Zero-length docs get weight 1 (division guard,
# both sides).


def weighted_sample(sf_dir: str, k: int = 100):
    """(rank, doc_id, n_chars, priority): k documents drawn by integer
    priority sampling weighted by n_chars; rank by (priority ASC,
    doc_id ASC).  Value-exact DuckDB twin in
    :func:`weighted_sample_sql`."""
    import numpy as np
    import pyarrow as pa

    from . import read, top_k

    ds = read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def priority(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        if len(ids) and int(ids.max()) >= 1 << 32:
            raise ValueError(
                "weighted_sample requires doc_id < 2^32 (LCG product "
                "must stay inside int64; reduce ids mod SAMPLE_M first)"
            )
        n_chars = np.asarray(batch["n_chars"].to_pylist(), dtype=np.int64)
        h = (ids * SAMPLE_A + SAMPLE_C) % SAMPLE_M
        return pa.table(
            {"doc_id": ids, "n_chars": n_chars, "priority": h // np.maximum(1, n_chars)}
        )

    return top_k(
        ds.map_batches(priority, batch_format="pyarrow"),
        None,
        [("priority", True), ("doc_id", True)],
        k,
        {"doc_id": pa.int64(), "n_chars": pa.int64(), "priority": pa.int64()},
    ).select_columns(["rank", "doc_id", "n_chars", "priority"])


def weighted_sample_sql(k: int = 100) -> str:
    return f"""
SELECT CAST(row_number() OVER (ORDER BY priority ASC, doc_id ASC)
            AS BIGINT) AS rank,
       doc_id, n_chars, priority
FROM (
  SELECT doc_id, n_chars,
         ((CAST(doc_id AS BIGINT) * {SAMPLE_A} + {SAMPLE_C})
          % {SAMPLE_M}) // GREATEST(1, n_chars) AS priority
  FROM documents)
ORDER BY priority ASC, doc_id ASC
LIMIT {k}
"""

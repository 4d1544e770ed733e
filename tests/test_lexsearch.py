"""Engine-vs-DuckDB parity + unit coverage for the round-5 session-3
operators: BM25 lexical search, inverted-index build, the corpus-LM
perplexity filter, BPE tokenizer training/encoding, and the relational
additions (range join, anti-join, cumulative window, pivot, funnel).

The synthetic fixture plants term-frequency and doc-length contrast so
BM25's tf saturation and length normalization both move scores, plus
edge docs (empty / single-token / unique-vocab) for the LM bigram path;
the funnel test crafts partial/out-of-order/tied event streams the real
testdata never produces.
"""

import datetime as dt
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def lex_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("lexsearch")
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)] + ["merge", "window", "scan"]
    texts = [
        " ".join(rng.choice(vocab, int(n)))
        for n in rng.integers(5, 60, size=40)
    ]
    # doc 3: query-term stuffing (tf saturation should cap its win)
    texts[3] = " ".join(["merge"] * 30)
    # doc 4: short doc with one query term (length norm boosts it)
    texts[4] = "merge w0 w1"
    # doc 5: every query term once, long doc
    texts[5] = "merge window scan " + " ".join(["w2"] * 80)
    # doc 6: gibberish transitions never seen elsewhere -> low LM score
    texts[6] = "w11 w11 w11 zzq zzq w11 zzq"
    # edge docs for the LM bigram path
    texts[7] = ""  # no tokens -> absent from LM output
    texts[8] = "solo"  # one token, no bigram -> absent
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    return str(d)


@pytest.fixture(scope="module")
def con(lex_dir):
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{lex_dir}/documents.parquet')"
    )
    return c


def test_bit_length_exact_above_2_53():
    from pytorchocr_ray.ops.lexsearch import bit_length_u64

    xs = np.array(
        [0, 1, 2, 3, 4, (1 << 53) - 1, 1 << 53, (1 << 57) - 1, 1 << 57,
         (1 << 63) + 5],
        dtype=np.uint64,
    )
    got = bit_length_u64(xs)
    want = np.array([int(x).bit_length() for x in xs], dtype=np.int64)
    assert (got == want).all()


def test_bm25_parity(ray_session, lex_dir, con):
    from pytorchocr_ray.ops.lexsearch import bm25_search, bm25_search_sql

    e = bm25_search(lex_dir, k=40).to_pandas()
    o = con.sql(bm25_search_sql(k=40)).df()
    e = e.sort_values("rank").reset_index(drop=True)
    o = o[e.columns].sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(e, o, check_dtype=False)
    scores = dict(zip(e["doc_id"], e["score"]))
    # tf saturation: 30x term stuffing (doc 3, the corpus-max tf) still
    # loses to multi-term docs with single-digit tf
    assert scores[3] < e["score"].max() // 2
    # docs with zero query terms are absent entirely
    assert 7 not in scores


def test_bm25_corpus_parity(ray_session, con):
    from pytorchocr_ray.ops.lexsearch import bm25_search, bm25_search_sql

    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/documents.parquet')"
    )
    e = bm25_search(SF_DIR).to_pandas().sort_values("rank")
    o = c.sql(bm25_search_sql()).df().sort_values("rank")
    pd.testing.assert_frame_equal(
        e.reset_index(drop=True),
        o[e.columns].reset_index(drop=True),
        check_dtype=False,
    )


def test_bm25_absent_term_ignored(ray_session, lex_dir, con):
    """A query term with df == 0 contributes nothing (and must not crash)."""
    from pytorchocr_ray.ops.lexsearch import bm25_search, bm25_search_sql

    terms = ("merge", "notinthecorpus")
    e = bm25_search(lex_dir, terms=terms, k=5).to_pandas()
    o = con.sql(bm25_search_sql(terms=terms, k=5)).df()
    pd.testing.assert_frame_equal(
        e.sort_values("rank").reset_index(drop=True),
        o[e.columns].sort_values("rank").reset_index(drop=True),
        check_dtype=False,
    )
    assert len(e) == 5


def test_lm_filter_parity(ray_session, lex_dir, con):
    from pytorchocr_ray.ops.curation import (
        lm_perplexity_filter,
        lm_perplexity_filter_sql,
    )

    e = lm_perplexity_filter(lex_dir, pct=20).to_pandas()
    o = con.sql(lm_perplexity_filter_sql(pct=20)).df()
    e = e.sort_values("doc_id").reset_index(drop=True)
    o = o[e.columns].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(e, o, check_dtype=False)
    by_id = e.set_index("doc_id")
    # tokenless / single-token docs have no bigram -> absent
    assert 7 not in by_id.index and 8 not in by_id.index
    # doc 4 strings COMMON words through transitions the corpus never
    # repeats ("merge w0", "w0 w1") -> lowest avg log-prob, dropped.
    # (Note the self-trained-LM property the fixture documents: doc 6's
    # gibberish tokens appear ONLY in doc 6, so its self-transitions are
    # near-deterministic and score HIGH — a corpus LM penalizes unusual
    # continuations of common contexts, not unseen vocabulary.)
    assert not by_id.loc[4, "kept"]
    assert by_id.loc[4, "avg_mlp"] == e["avg_mlp"].min()
    # quantile semantics: ~pct% dropped
    assert (~e["kept"]).sum() <= max(1, len(e) * 25 // 100)


def test_lm_filter_keep_fraction(ray_session, lex_dir):
    """pct=0 keeps everything (threshold = min avg)."""
    from pytorchocr_ray.ops.curation import lm_perplexity_filter

    e = lm_perplexity_filter(lex_dir, pct=0).to_pandas()
    assert e["kept"].all()


def test_inverted_index_parity(ray_session, lex_dir, con):
    from pytorchocr_ray.ops.lexsearch import inverted_index, inverted_index_sql

    e = inverted_index(lex_dir).to_pandas()
    o = con.sql(inverted_index_sql()).df()
    e = e.sort_values("token").reset_index(drop=True)
    o = o[e.columns].sort_values("token").reset_index(drop=True)
    pd.testing.assert_frame_equal(e, o, check_dtype=False)
    # every planted token appears once; df <= corpus size
    assert e["token"].is_unique
    assert (e["df"] <= 40).all() and (e["total_tf"] >= e["df"]).all()


def test_inverted_index_fingerprint_is_posting_hash(ray_session, lex_dir):
    """The fingerprint equals a direct serial Horner hash of the token's
    sorted posting list, computed independently of the engine's
    vectorized segment kernel and of the SQL twin."""
    from pytorchocr_ray.ops.hashing import B_TOK, M31
    from pytorchocr_ray.ops.lexsearch import inverted_index

    import pyarrow.parquet as pq

    e = inverted_index(lex_dir).to_pandas().set_index("token")
    docs = pq.read_table(f"{lex_dir}/documents.parquet").to_pandas()
    tok = "merge"
    ids = sorted(
        {
            int(r.doc_id)
            for r in docs.itertuples()
            if tok in str(r.text).split()
        }
    )
    fp = 0
    for d in ids:
        fp = (fp * B_TOK + (d % M31)) % M31
    assert int(e.loc[tok, "postings_fp"]) == fp
    assert int(e.loc[tok, "df"]) == len(ids)
    assert e.loc[tok, "sample_docs"] == ",".join(str(d) for d in ids[:5])


def test_range_join_tiers_parity(ray_session):
    """Non-equi interval join vs DuckDB on real testdata: tier bins,
    gap rows (no matching interval) dropped on both sides."""
    from pytorchocr_ray.ops.relational import (
        VALUE_TIERS,
        range_join_tiers,
        range_join_tiers_sql,
    )

    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/events.parquet')"
    )
    e = range_join_tiers(SF_DIR).to_pandas()
    o = c.sql(range_join_tiers_sql()).df()
    e = e.sort_values("lo_cents").reset_index(drop=True)
    o = o[e.columns].sort_values("lo_cents").reset_index(drop=True)
    pd.testing.assert_frame_equal(e, o, check_dtype=False)
    # the deliberate [150_00, 200_00) gap really drops rows
    n_total = c.sql("SELECT count(*) FROM events").fetchone()[0]
    assert e["n_events"].sum() < n_total
    assert set(e["tier"]) <= {t[0] for t in VALUE_TIERS}


def test_range_join_tier_sums_exact_past_2_53():
    """Per-batch tier sums are exact int64: a float64 accumulator rounds
    2^53 + 1 + 1 back to 2^53."""
    from pytorchocr_ray.ops.relational import _bin_tiers

    big = 1 << 53
    los = np.array([0, 20], dtype=np.int64)
    his = np.array([10, 1 << 62], dtype=np.int64)
    cents = np.array([big, 1, 1, 15, 5], dtype=np.int64)  # 15 is in the gap
    n, s = _bin_tiers(cents, los, his)
    assert n.tolist() == [3, 1]
    assert s.tolist() == [7, big]
    n, s = _bin_tiers(np.array([big, 21, 21], dtype=np.int64), los, his)
    assert s.tolist() == [0, big + 42]


def test_customers_without_orders_parity(ray_session):
    """Distributed anti-join (Q22 shape) vs NOT EXISTS, on real testdata
    where the filtered anti set is provably non-empty."""
    from pytorchocr_ray.ops.relational import (
        customers_without_orders,
        customers_without_orders_sql,
    )

    c = duckdb.connect()
    for t in ("customer", "orders"):
        c.sql(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF_DIR}/{t}.parquet')"
        )
    e = customers_without_orders(SF_DIR).to_pandas()
    o = c.sql(customers_without_orders_sql()).df()
    ks = list(e.columns)
    pd.testing.assert_frame_equal(
        e.sort_values(ks).reset_index(drop=True),
        o[ks].sort_values(ks).reset_index(drop=True),
        check_dtype=False,
    )
    assert e["n_customers"].sum() > 0  # the filter keeps the set non-trivial
    # and excludes most of the table (it IS an anti-join, not a copy)
    n_cust = c.sql("SELECT count(*) FROM customer").fetchone()[0]
    assert e["n_customers"].sum() < n_cust // 2


def test_user_running_total_parity(ray_session):
    from pytorchocr_ray.ops.relational import (
        user_running_total,
        user_running_total_sql,
    )

    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/events.parquet')"
    )
    e = user_running_total(SF_DIR).to_pandas()
    o = c.sql(user_running_total_sql()).df()
    ks = list(e.columns)
    pd.testing.assert_frame_equal(
        e.sort_values(ks).reset_index(drop=True),
        o[ks].sort_values(ks).reset_index(drop=True),
        check_dtype=False,
    )
    # running totals are per-user non-decreasing over event time
    ev = c.sql("SELECT event_id, user_id, ts FROM events").df()
    m = e.merge(ev, on=["event_id", "user_id"])
    m = m.sort_values(["user_id", "ts", "event_id"])
    d = m.groupby("user_id")["cum_cents"].diff().dropna()
    assert (d >= 0).all()


def test_events_pivot_parity(ray_session):
    """Wide pivot equals the long events_hourly totals row-for-row."""
    from pytorchocr_ray.ops.relational import (
        EVENT_TYPES,
        events_pivot,
        events_pivot_sql,
    )

    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/events.parquet')"
    )
    e = events_pivot(SF_DIR).to_pandas()
    o = c.sql(events_pivot_sql()).df()
    ks = list(e.columns)
    pd.testing.assert_frame_equal(
        e.sort_values(ks).reset_index(drop=True),
        o[ks].sort_values(ks).reset_index(drop=True),
        check_dtype=False,
    )
    # this corpus has only known types, and wide counts cover all events
    assert (e["n_other"] == 0).all()
    n_total = c.sql("SELECT count(*) FROM events").fetchone()[0]
    assert int(e[[f"n_{t}" for t in EVENT_TYPES]].to_numpy().sum()) == n_total


def test_bpe_fixture_keyed_on_content(tmp_path):
    """A corpus rewritten with the same size and mtime but different
    text must not reuse the cached reference fixture."""
    from pytorchocr_ray.ops.bpe import _fixture_dir, bpe_reference

    path = tmp_path / "documents.parquet"

    def write(texts):
        pq.write_table(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}),
            path, compression="none", use_dictionary=False, write_statistics=False,
        )

    write(["aa ab aa ab", "ab ab ba"])
    st = os.stat(path)
    d1 = _fixture_dir(str(tmp_path), 2, 16)
    write(["ba ba ab ba", "aa aa ab"])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.path.getsize(path) == st.st_size
    assert os.stat(path).st_mtime_ns == st.st_mtime_ns
    d2 = _fixture_dir(str(tmp_path), 2, 16)
    assert d1 != d2
    merges = pq.read_table(os.path.join(d2, "merges.parquet")).to_pylist()
    assert merges == bpe_reference(str(tmp_path), 2, 16)[0]


def test_bpe_merges_and_encode_parity(ray_session):
    """Distributed BPE vs the independent serial reference fixture on
    real testdata, plus spec sanity on the merge table itself."""
    from pytorchocr_ray.ops.bpe import (
        bpe_encode,
        bpe_encode_sql,
        bpe_merges,
        bpe_merges_sql,
    )

    m = bpe_merges(SF_DIR).to_pandas()
    om = duckdb.sql(bpe_merges_sql(SF_DIR)).df()
    pd.testing.assert_frame_equal(
        m.sort_values("rank").reset_index(drop=True),
        om[m.columns].sort_values("rank").reset_index(drop=True),
        check_dtype=False,
    )
    # merge freq is non-increasing only per symbol generation — but a
    # later merge can never beat the pair it was built from at the time
    # it was chosen; minimal invariant: all freqs positive, ranks dense
    assert (m["freq"] > 0).all()
    assert list(m["rank"]) == list(range(len(m)))

    e = bpe_encode(SF_DIR).to_pandas()
    oe = duckdb.sql(bpe_encode_sql(SF_DIR)).df()
    ks = list(e.columns)
    pd.testing.assert_frame_equal(
        e.sort_values(ks).reset_index(drop=True),
        oe[ks].sort_values(ks).reset_index(drop=True),
        check_dtype=False,
    )
    # merging strictly compresses: every doc has fewer BPE symbols than
    # characters, and at least as many as words (EOW can't merge away
    # past the word count)
    assert (e["n_bpe"] < e["n_chars"]).all()
    assert (e["n_bpe"] > 0).all()


def test_bpe_merge_word_spec():
    """Left-to-right non-overlapping merge: 'aaa' + (a,a) -> ('aa','a')."""
    from pytorchocr_ray.ops.bpe import _merge_word

    assert _merge_word(("a", "a", "a"), "a", "a") == ("aa", "a")
    assert _merge_word(("a", "a", "a", "a"), "a", "a") == ("aa", "aa")
    assert _merge_word(("x", "a", "a"), "a", "a") == ("x", "aa")
    assert _merge_word(("a",), "a", "a") == ("a",)


def test_funnel_steps_parity_and_edges(ray_session, tmp_path):
    """Funnel parity on a crafted stream exercising every branch the
    real testdata can't (there every user completes all 3 steps):
    partial funnels, a purchase BEFORE its click (must not count), and
    a click sharing the view's exact microsecond (strict-time 'after'
    -> must not count)."""
    from pytorchocr_ray.ops.sessions import funnel_steps, funnel_steps_sql

    t0 = dt.datetime(2024, 1, 1)
    us = lambda n: t0 + dt.timedelta(microseconds=n)
    rows = [
        # user 1: full funnel
        (1, us(10), "view"), (1, us(20), "click"), (1, us(30), "purchase"),
        # user 2: view only
        (2, us(10), "view"),
        # user 3: purchase BEFORE click -> stops at step 2
        (3, us(10), "view"), (3, us(15), "purchase"), (3, us(20), "click"),
        # user 4: click at the SAME microsecond as view -> not after
        (4, us(10), "view"), (4, us(10), "click"),
        # user 5: no view at all -> reached 0
        (5, us(10), "click"), (5, us(20), "purchase"),
        # user 6: second click after purchase-less first -> still step 2
        (6, us(10), "view"), (6, us(20), "click"), (6, us(25), "click"),
    ]
    # the same stream at microsecond and nanosecond resolution: the
    # engine must read both as int64 microseconds, like the twin's epoch_us
    for unit in ("us", "ns"):
        sf = os.path.join(str(tmp_path), unit)
        os.makedirs(sf)
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(len(rows)), pa.int64()),
                    "user_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts": pa.array([r[1] for r in rows], pa.timestamp(unit)),
                    "event_type": pa.array([r[2] for r in rows]),
                    "value": pa.array([1.0] * len(rows)),
                    "props": pa.array([""] * len(rows)),
                }
            ),
            os.path.join(sf, "events.parquet"),
        )
        c = duckdb.connect()
        c.sql(
            "CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')"
        )
        e = funnel_steps(sf).to_pandas().sort_values("user_id").reset_index(drop=True)
        o = c.sql(funnel_steps_sql()).df()
        pd.testing.assert_frame_equal(
            e, o[e.columns].sort_values("user_id").reset_index(drop=True),
            check_dtype=False,
        )
        by = e.set_index("user_id")["reached"].to_dict()
        assert by == {1: 3, 2: 1, 3: 2, 4: 1, 5: 0, 6: 2}
        # absent steps are -1 on both sides
        assert e.set_index("user_id").loc[2, "t2_us"] == -1
        epoch_us = int((t0 - dt.datetime(1970, 1, 1)).total_seconds()) * 10**6
        assert e.set_index("user_id").loc[1, "t3_us"] == epoch_us + 30


@pytest.mark.parametrize(
    "event_type, ts",
    [("", dt.datetime(2024, 1, 1)), ("view", dt.datetime(1969, 12, 31, 23))],
)
def test_events_rollup_rejects_sentinel_keys(ray_session, tmp_path, event_type, ts):
    """A real event_type '' or an hour before 1970 would merge into the
    rollup's '' / -1 subtotal rows: fail loudly instead."""
    from pytorchocr_ray.ops.relational import events_rollup

    pq.write_table(
        pa.table(
            {
                "ts": pa.array([dt.datetime(2024, 1, 1), ts], pa.timestamp("us")),
                "event_type": ["view", event_type],
                "value": [1.0, 2.0],
            }
        ),
        os.path.join(str(tmp_path), "events.parquet"),
    )
    # raised inside a Ray task, so it arrives wrapped with its message intact
    with pytest.raises(Exception, match="collides with the rollup"):
        events_rollup(str(tmp_path)).materialize()


def test_events_rollup_parity(ray_session):
    """ROLLUP parity: detail + per-type subtotal + grand total levels
    reconcile internally and against GROUP BY ROLLUP."""
    from pytorchocr_ray.ops.relational import events_rollup, events_rollup_sql

    c = duckdb.connect()
    c.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/events.parquet')"
    )
    e = events_rollup(SF_DIR).to_pandas()
    o = c.sql(events_rollup_sql()).df()
    ks = list(e.columns)
    pd.testing.assert_frame_equal(
        e.sort_values(ks).reset_index(drop=True),
        o[ks].sort_values(ks).reset_index(drop=True),
        check_dtype=False,
    )
    detail = e[(e["event_type"] != "") & (e["hour"] != -1)]
    subtot = e[(e["event_type"] != "") & (e["hour"] == -1)]
    grand = e[(e["event_type"] == "") & (e["hour"] == -1)]
    assert len(grand) == 1
    n_total = c.sql("SELECT count(*) FROM events").fetchone()[0]
    assert int(grand["n"].iloc[0]) == n_total
    assert int(detail["n"].sum()) == n_total == int(subtot["n"].sum())
    assert int(detail["sum_cents"].sum()) == int(grand["sum_cents"].iloc[0])

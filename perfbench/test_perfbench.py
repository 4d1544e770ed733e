"""Unit tests for the benchmark's pure helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from perfbench import check, host, inputs, metrics, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------ /proc readers

PROC_STAT = """cpu  100 10 50 1000 20 5 5 8 3 0
cpu0 50 5 25 500 10 2 3 4 0 0
intr 12345
"""


def test_parse_proc_stat_busy_steal_total():
    t = host.parse_proc_stat(PROC_STAT, hz=100.0)
    assert t.busy == pytest.approx((100 + 10 + 50 + 5 + 5) / 100)
    assert t.steal == pytest.approx(0.08)
    # guest (3) is inside user already and is not counted twice
    assert t.total == pytest.approx((170 + 1000 + 20 + 8) / 100)


def test_cpu_times_delta_and_steal_pct():
    a = host.parse_proc_stat(PROC_STAT, hz=100.0)
    b = host.parse_proc_stat("cpu  200 10 50 1080 20 5 5 18 0 0\n", hz=100.0)
    d = b - a
    assert d.busy == pytest.approx(1.0)
    assert d.steal == pytest.approx(0.1)
    assert d.steal_pct == pytest.approx(100 * 0.1 / 1.9)


def test_steal_free_removes_the_stolen_share_of_the_wall():
    # 30 busy + 10 stolen CPU-seconds: a quarter of the demand was taken
    assert host.steal_free(20.0, 30.0, 10.0) == pytest.approx(15.0)
    assert host.steal_free(20.0, 30.0, 0.0) == 20.0
    assert host.steal_free(20.0, 0.0, 0.0) == 20.0


def test_parse_proc_stat_rejects_text_without_cpu_line():
    with pytest.raises(ValueError):
        host.parse_proc_stat("intr 1\n")


def test_parse_ppid_with_spaces_and_parens_in_comm():
    assert host.parse_ppid("123 (ray::IDLE (x) y) S 45 123 123 0") == 45


def test_tree_rss_counts_this_process():
    assert host.tree_rss_bytes(os.getpid()) > 0


# ------------------------------------------------------------ comparator


def _rows(doc, spans):
    return pd.DataFrame(
        [(doc, i, k, t, r) for i, (k, t, r) in enumerate(spans)],
        columns=check.SPAN_COLS,
    )


WANT = pd.concat([
    _rows("d1", [("text", "hello", ""), ("media", "ab", "img-1-00"),
                 ("media", "cd", "img-1-00")]),
    _rows("d2", [("media", "xy", "img-2-00")]),
])


def test_bad_docs_accepts_identical_output_in_any_row_order():
    assert check.bad_docs(WANT.iloc[::-1], WANT) == set()


def test_bad_docs_catches_swapped_order():
    got = WANT.copy()
    got.loc[(got.doc_id == "d1") & (got.order == 1), "order"] = 99
    got.loc[(got.doc_id == "d1") & (got.order == 2), "order"] = 1
    got.loc[got.order == 99, "order"] = 2
    assert check.bad_docs(got, WANT) == {"d1"}


def test_bad_docs_catches_wrong_media_ref():
    got = WANT.copy()
    got.loc[got.doc_id == "d2", "media_ref"] = "img-2-01"
    assert check.bad_docs(got, WANT) == {"d2"}


def test_bad_docs_catches_missing_extra_and_duplicated_rows():
    assert check.bad_docs(WANT[WANT.doc_id == "d1"], WANT) == {"d2"}
    extra = pd.concat([WANT, _rows("d3", [("text", "t", "")])])
    assert check.bad_docs(extra, WANT) == {"d3"}
    dup = pd.concat([WANT, WANT[WANT.doc_id == "d2"]])
    assert check.bad_docs(dup, WANT) == {"d2"}


def test_same_result_ignores_row_order_and_int_width():
    a = pd.DataFrame({"k": np.array([2, 1], np.int32), "v": [0.5, 1.25]})
    b = pd.DataFrame({"v": [1.25, 0.5], "k": np.array([1, 2], np.int64)})
    assert check.same_result(a, b)
    assert not check.same_result(a, b.assign(v=[1.25, 0.75]))


# ------------------------------------------------------------ input builders

DOCS = pa.Table.from_pylist(
    [
        {"doc_id": "doc-00000001", "spans": [
            {"kind": "text", "text": " a ", "media_ref": "", "offset": 1},
            {"kind": "media", "text": "", "media_ref": "img-00000001-00", "offset": 3},
            {"kind": "text", "text": "b", "media_ref": "", "offset": 5},
        ]},
        {"doc_id": "doc-00000002", "spans": [
            {"kind": "media", "text": "", "media_ref": "img-00000002-00", "offset": 2},
            {"kind": "text", "text": "c", "media_ref": "", "offset": 4},
        ]},
    ],
    schema=pa.schema([
        ("doc_id", pa.string()),
        ("spans", pa.list_(pa.struct([("kind", pa.string()), ("text", pa.string()),
                                      ("media_ref", pa.string()), ("offset", pa.int32())]))),
    ]),
)
EXPECTED = pd.concat([
    _rows("doc-00000001", [("text", "a", ""), ("media", "R1", "img-00000001-00"),
                           ("media", "R2", "img-00000001-00"), ("text", "b", "")]),
    _rows("doc-00000002", [("media", "R3", "img-00000002-00"), ("text", "c", "")]),
], ignore_index=True)


def test_strip_media_drops_media_and_renumbers_text_rows():
    docs, want = inputs.strip_media(DOCS, EXPECTED, copies=3)
    assert docs.num_rows == 6
    assert len(set(docs["doc_id"].to_pylist())) == 6
    kinds = {s["kind"] for spans in docs["spans"].to_pylist() for s in spans}
    assert kinds == {"text"}
    assert (want["kind"] == "text").all()
    for doc, g in want.groupby("doc_id"):
        assert g.sort_values("order")["order"].tolist() == list(range(len(g)))
    first = want[want.doc_id == "doc-00000001~t000"].sort_values("order")
    assert first["text"].tolist() == ["a", "b"]
    assert set(want["doc_id"]) == set(docs["doc_id"].to_pylist())


def test_replicate_expected_renames_only_doc_id():
    out = inputs.replicate_expected(EXPECTED, {"new": "doc-00000002"})
    src = EXPECTED[EXPECTED.doc_id == "doc-00000002"].drop(columns="doc_id")
    assert out["doc_id"].unique().tolist() == ["new"]
    pd.testing.assert_frame_equal(out.drop(columns="doc_id").reset_index(drop=True),
                                  src.reset_index(drop=True))


def test_mix_quota_sums_and_stratified_indices_fill_it():
    for n in (7, 120, 500):
        assert sum(inputs.mix_quota(n).values()) == n
    picked = inputs.stratified_indices(5, 40)
    counts = sorted(inputs.media_count(5, int(i)) for i in picked)
    want = sorted(k for k, q in inputs.mix_quota(40).items() for _ in range(q))
    assert counts == want


def test_media_count_matches_the_generator():
    from pytorchocr_ray.synth.generate import generate_docs

    idx = np.arange(12)
    docs, _media, _gt, _exp = generate_docs(idx, seed=3)
    got = inputs.media_refs_per_doc(docs).tolist()
    assert got == [inputs.media_count(3, int(i)) for i in idx]


def test_ops_tables_are_seeded(tmp_path):
    import pyarrow.parquet as pq

    a = inputs.ops_tables(str(tmp_path / "a"), seed=9, n_docs=50, n_events=100,
                          n_customers=20, n_orders=60)
    b = inputs.ops_tables(str(tmp_path / "b"), seed=9, n_docs=50, n_events=100,
                          n_customers=20, n_orders=60)
    for t in ("documents", "events", "customer", "orders"):
        assert pq.read_table(f"{a}/{t}.parquet").equals(pq.read_table(f"{b}/{t}.parquet"))


@pytest.fixture(scope="module")
def ray_local():
    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False)
    yield ray
    ray.shutdown()


def test_skew_copies_split_the_hot_bucket(tmp_path, ray_local):
    from pytorchocr_ray.pipelines.runner import plan_partitions, stable_bucket
    from pytorchocr_ray.synth.generate import generate_docs

    docs, _media, _gt, expected = generate_docs(np.arange(60), seed=11)
    expected = expected.to_pandas()
    extra = int(1.5 * inputs.media_refs_per_doc(docs).sum())
    skewed, want = inputs.skew_copies(docs, expected, n_buckets=3, hot=0,
                                      extra_media=extra)
    new_ids = np.array(skewed["doc_id"].to_pylist()[docs.num_rows:], dtype=object)
    assert len(new_ids) and (stable_bucket(new_ids, 3) == 0).all()
    assert set(want["doc_id"]) == set(skewed["doc_id"].to_pylist())
    path = inputs.write_table(skewed, str(tmp_path / "skew"))
    parts = plan_partitions(path, 3)
    hot = [p for p in parts if p.bucket == 0]
    assert hot and hot[0].n_subs > 1
    assert all(p.n_subs == 1 for p in parts if p.bucket != 0)


# ------------------------------------------------------------ tracing


def test_self_time_subtracts_covered_part_of_children():
    assert trace.self_time(0.0, 10.0, []) == 10.0
    assert trace.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # overlapping children count once; parts outside the parent are clipped
    assert trace.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == \
        pytest.approx(10.0 - 4.0 - 1.0)
    assert trace.self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0


def test_recorder_nests_spans_and_flushes_per_root(tmp_path):
    rec = trace.Recorder(str(tmp_path))
    rec.call("root", lambda: rec.call("child", lambda: 1, (), {}), (), {})
    assert not os.path.exists(rec.path)  # inactive: no flag file
    trace.set_active(str(tmp_path), True)
    rec.call("root", lambda: rec.call("child", lambda: 1, (), {}), (), {},
             observe=lambda r, a, out: r.count("roots"))
    rec.call("root", lambda: None, (), {})
    trace.set_active(str(tmp_path), False)
    with open(rec.path) as f:
        lines = f.readlines()
    assert len(lines) == 2
    spans, counts = trace.merge_lines(lines)
    assert spans["root"][0] == 2 and spans["child"][0] == 1
    assert spans["root"][2] <= spans["root"][1]
    assert spans["child"][1] == pytest.approx(spans["child"][2])
    assert counts == {"roots": 1}


def test_partition_walls_pair_starts_with_commits():
    assert workloads.partition_walls([3.0, 1.0], [2.5, 4.5]) == [1.5, 1.5]


def test_min_label_clusters():
    labels = workloads.min_label_clusters([1, 2, 3, 4, 5], [(4, 2), (2, 5)])
    assert labels == {1: 1, 2: 2, 3: 3, 4: 2, 5: 2}


# ------------------------------------------------------------ manifest


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

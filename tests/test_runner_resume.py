import json
import os

import pandas as pd
import pytest


def _canon(df):
    return (
        df[["doc_id", "order", "kind", "text", "media_ref"]]
        .sort_values(["doc_id", "order"])
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def paths(small_corpus):
    return (
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
    )


def test_plan_covers_all_docs(ray_session, paths):
    import pyarrow.parquet as pq

    from pytorchocr_ray.pipelines.runner import plan_partitions

    docs_path, _ = paths
    parts = plan_partitions(docs_path, n_buckets=4)
    n_docs = pq.read_table(docs_path).num_rows
    # every doc hashes into exactly one (bucket, sub); planned docs sum over
    # buckets (subs of one bucket share the same planned_docs count)
    seen = {(p.bucket) for p in parts}
    total = sum(
        {p.bucket: p.planned_docs for p in parts}[b] for b in seen
    )
    assert total == n_docs


def test_skew_split_triggers(ray_session, paths):
    from pytorchocr_ray.pipelines.runner import plan_partitions

    docs_path, _ = paths
    # absurdly low skew factor forces splits
    parts = plan_partitions(docs_path, n_buckets=2, skew_factor=0.5)
    assert any(p.n_subs > 1 for p in parts)


def test_partitioned_run_matches_single_run(ray_session, paths, tmp_path, small_corpus):
    from pytorchocr_ray.pipelines.extract import extract_dataset
    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    out = str(tmp_path / "out")
    summary = run_partitioned(
        docs_path, media_path, out, n_buckets=4, concurrency=2
    )
    assert summary["skipped"] == []
    assert len(summary["lineage"]) == len(summary["ran"])
    got = _canon(read_extracted(out))
    want = _canon(
        extract_dataset(docs_path, media_path, concurrency=2).to_pandas()
    )
    pd.testing.assert_frame_equal(got, want)
    # lineage sanity
    for rec in summary["lineage"]:
        assert rec["output_rows"] >= rec["output_docs"] >= 0
        assert rec["checksum"].startswith("0x")


def test_output_invariant_to_bucket_count(ray_session, paths, tmp_path):
    """Partitioning is a physical choice: the union of all partitions must
    be identical for any n_buckets."""
    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    out2 = str(tmp_path / "b2")
    out5 = str(tmp_path / "b5")
    run_partitioned(docs_path, media_path, out2, n_buckets=2, concurrency=2)
    run_partitioned(docs_path, media_path, out5, n_buckets=5, concurrency=2)
    pd.testing.assert_frame_equal(
        _canon(read_extracted(out2)), _canon(read_extracted(out5))
    )


def test_resume_after_injected_failure(ray_session, paths, tmp_path):
    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    out = str(tmp_path / "out_resume")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_partitioned(
            docs_path, media_path, out, n_buckets=4, concurrency=2, fail_after=2
        )
    committed = [f for f in os.listdir(out) if f.startswith("_COMMITTED_")]
    assert len(committed) == 2
    partial = read_extracted(out)

    summary = run_partitioned(
        docs_path, media_path, out, n_buckets=4, concurrency=2
    )
    assert len(summary["skipped"]) == 2  # finished work not redone
    full = read_extracted(out)
    assert len(full) > len(partial)

    # byte-identical to a clean full run
    out2 = str(tmp_path / "out_clean")
    run_partitioned(docs_path, media_path, out2, n_buckets=4, concurrency=2)
    pd.testing.assert_frame_equal(_canon(full), _canon(read_extracted(out2)))
    # per-partition checksums identical between resumed and clean runs
    def marker_sums(d):
        sums = {}
        for f in sorted(os.listdir(d)):
            if f.startswith("_COMMITTED_"):
                with open(os.path.join(d, f)) as fh:
                    rec = json.load(fh)
                sums[rec["partition"]] = rec["checksum"]
        return sums

    assert marker_sums(out) == marker_sums(out2)


def _markers(d):
    recs = {}
    for f in sorted(os.listdir(d)):
        if f.startswith("_COMMITTED_"):
            with open(os.path.join(d, f)) as fh:
                rec = json.load(fh)
            recs[rec["partition"]] = rec
    return recs


def test_markers_match_committed_dirs(ray_session, paths, tmp_path):
    """Each marker's lineage, summed from per-block partials in the same
    pass that wrote the rows, equals a recount of its committed dir."""
    import pyarrow.parquet as pq

    from pytorchocr_ray.pipelines.runner import result_checksum, run_partitioned

    docs_path, media_path = paths
    out = str(tmp_path / "out")
    summary = run_partitioned(
        docs_path, media_path, out, n_buckets=4, skew_factor=0.5, concurrency=2
    )
    assert any(r["n_subs"] > 1 for r in summary["lineage"])
    recs = _markers(out)
    assert sorted(recs) == summary["ran"]
    for name, rec in recs.items():
        df = pq.read_table(os.path.join(out, name)).to_pandas()
        assert rec["output_rows"] == len(df), name
        if len(df) == 0:
            assert rec["checksum"] == hex(0), name
            continue
        assert rec["output_docs"] == int((df["order"] == 0).sum()), name
        assert rec["ocr_regions"] == int((df["kind"] == "media").sum()), name
        assert rec["checksum"] == result_checksum(df), name


def test_empty_subpartition_commits_readable_dir(ray_session, paths, tmp_path):
    """A skew sub-partition that receives no documents still commits an
    (empty) dir, read_extracted reads the run, and a resume trusts it."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pytorchocr_ray.pipelines.extract import extract_dataset
    from pytorchocr_ray.pipelines.runner import (
        read_extracted,
        run_partitioned,
        stable_bucket,
    )

    docs_path, media_path = paths
    src = pq.read_table(docs_path)
    ids = np.asarray(src["doc_id"].to_pylist(), dtype=object)
    buckets = stable_bucket(ids, 2)
    media = np.array(
        [sum(s["kind"] == "media" for s in spans) for spans in src["spans"].to_pylist()]
    )
    # one media-heavy doc alone in bucket 0 and the lightest doc of bucket 1:
    # bucket 0 splits into >= 2 subs that share one document
    heavy = int(np.flatnonzero(buckets == 0)[np.argmax(media[buckets == 0])])
    light = int(np.flatnonzero(buckets == 1)[np.argmin(media[buckets == 1])])
    assert media[heavy] > media[light]
    path = str(tmp_path / "docs.parquet")
    pq.write_table(src.take(pa.array([heavy, light])), path)

    out = str(tmp_path / "out")
    summary = run_partitioned(
        path, media_path, out, n_buckets=2, skew_factor=0.5, concurrency=2
    )
    empty = [r["partition"] for r in summary["lineage"] if r["output_rows"] == 0]
    assert empty, summary["lineage"]
    for name in empty:
        assert os.path.isdir(os.path.join(out, name))
    want = extract_dataset(path, media_path, concurrency=2).to_pandas()
    pd.testing.assert_frame_equal(_canon(read_extracted(out)), _canon(want))

    again = run_partitioned(
        path, media_path, out, n_buckets=2, skew_factor=0.5, concurrency=2
    )
    assert again["ran"] == [] and len(again["skipped"]) == len(summary["ran"])


def test_resume_reruns_partition_missing_a_file(ray_session, paths, tmp_path, caplog):
    """Resume checks each marker against its dir's parquet footers: a
    committed partition that lost a file is re-run (with a warning), and
    only that one; the result equals the clean run's."""
    import logging

    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    out = str(tmp_path / "out")
    run_partitioned(docs_path, media_path, out, n_buckets=4, concurrency=2)
    clean_rows = _canon(read_extracted(out))
    clean = {k: r["checksum"] for k, r in _markers(out).items()}

    victim = next(k for k, r in _markers(out).items() if r["output_rows"] > 0)
    files = sorted(os.listdir(os.path.join(out, victim)))
    os.remove(os.path.join(out, victim, files[0]))

    with caplog.at_level(logging.WARNING, logger="pytorchocr_ray.pipelines.runner"):
        summary = run_partitioned(docs_path, media_path, out, n_buckets=4, concurrency=2)
    assert summary["ran"] == [victim]
    assert victim in caplog.text
    pd.testing.assert_frame_equal(_canon(read_extracted(out)), clean_rows)
    assert {k: r["checksum"] for k, r in _markers(out).items()} == clean


def test_one_dataset_per_run_commits_in_plan_order(ray_session, paths, tmp_path, monkeypatch):
    """Every pending partition, skew sub-splits included, runs through one
    Dataset (one OCR pool), and the markers land in plan order."""
    from pytorchocr_ray.pipelines import runner

    docs_path, media_path = paths
    built = []
    build = runner.extract_dataset
    monkeypatch.setattr(
        runner, "extract_dataset", lambda *a, **k: built.append(a) or build(*a, **k)
    )
    out = str(tmp_path / "out")
    summary = runner.run_partitioned(
        docs_path, media_path, out, n_buckets=4, skew_factor=0.5, concurrency=2
    )
    plan = runner.plan_partitions(docs_path, 4, 0.5)
    assert len(plan) >= 3 and any(p.n_subs > 1 for p in plan)
    assert summary["ran"] == sorted(p.name for p in plan)
    assert len(built) == 1
    mtimes = [os.stat(os.path.join(out, p.marker)).st_mtime_ns for p in plan]
    assert mtimes == sorted(mtimes)


def test_crashed_run_frees_its_pool(ray_session, paths, tmp_path):
    """A run that stops after its first commit wrote no other partition's
    rows, gives its actors' CPUs back within seconds (a pass whose iterator
    or actor handles linger would hold them), and an immediate resume
    equals the clean run, per-partition checksums included."""
    import time

    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    kw = dict(n_buckets=4, skew_factor=0.5, concurrency=2)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_partitioned(docs_path, media_path, out, fail_after=1, **kw)
    assert not [f for f in os.listdir(out) if f.startswith("_tmp_")]
    cpus = ray_session.cluster_resources()["CPU"]
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if ray_session.available_resources().get("CPU", 0) == cpus:
            break
        time.sleep(0.05)
    assert ray_session.available_resources().get("CPU", 0) == cpus

    summary = run_partitioned(docs_path, media_path, out, **kw)
    assert len(summary["skipped"]) == 1
    clean = str(tmp_path / "clean")
    run_partitioned(docs_path, media_path, clean, **kw)
    pd.testing.assert_frame_equal(
        _canon(read_extracted(out)), _canon(read_extracted(clean))
    )
    assert {k: r["checksum"] for k, r in _markers(out).items()} == {
        k: r["checksum"] for k, r in _markers(clean).items()
    }


def test_killed_run_leaves_only_committed_partitions(ray_session, paths, tmp_path):
    """SIGKILL the driver process once its first marker appears: every
    marker's dir holds its rows, no partition dir lacks its marker (a commit
    is two back-to-back renames), and a resume equals the clean run."""
    import subprocess
    import sys
    import time

    import pyarrow.parquet as pq

    from pytorchocr_ray.pipelines.runner import read_extracted, run_partitioned

    docs_path, media_path = paths
    kw = dict(n_buckets=8, skew_factor=0.5, concurrency=2)
    out = str(tmp_path / "out")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import ray, sys\n"
        f"ray.init(address={ray_session.get_runtime_context().gcs_address!r},"
        " logging_level='ERROR')\n"
        "from pytorchocr_ray.pipelines.runner import run_partitioned\n"
        f"run_partitioned({docs_path!r}, {media_path!r}, {out!r}, **{kw!r})\n"
    )
    log = open(tmp_path / "driver.log", "w")
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=root,
                            env={**os.environ, "PYTHONPATH": root},
                            stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 240
    try:
        while not (os.path.isdir(out) and any(
                f.startswith("_COMMITTED_") for f in os.listdir(out))):
            assert proc.poll() is None and time.monotonic() < deadline, (
                (tmp_path / "driver.log").read_text()[-3000:])
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait()
        log.close()

    recs = _markers(out)
    assert recs
    for name, rec in recs.items():
        pdir = os.path.join(out, name)
        rows = sum(pq.read_metadata(os.path.join(pdir, f)).num_rows
                   for f in os.listdir(pdir))
        assert rows == rec["output_rows"], name
    dirs = {f for f in os.listdir(out) if f.startswith("part=")}
    assert dirs <= set(recs)

    summary = run_partitioned(docs_path, media_path, out, **kw)
    assert sorted(summary["skipped"]) == sorted(recs)
    clean = str(tmp_path / "clean")
    run_partitioned(docs_path, media_path, clean, **kw)
    pd.testing.assert_frame_equal(
        _canon(read_extracted(out)), _canon(read_extracted(clean))
    )
    assert {k: r["checksum"] for k, r in _markers(out).items()} == {
        k: r["checksum"] for k, r in _markers(clean).items()
    }

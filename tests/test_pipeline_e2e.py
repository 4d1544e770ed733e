import os

import pandas as pd
import pyarrow.parquet as pq
import pytest


def _golden(corpus_dir):
    from pytorchocr_ray.oracle.extract import oracle_extract

    docs = pq.read_table(os.path.join(corpus_dir, "documents.parquet"))
    media_t = pq.read_table(os.path.join(corpus_dir, "media.parquet"))
    media = dict(zip(media_t["media_ref"].to_pylist(), media_t["data"].to_pylist()))
    return oracle_extract(docs, media)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df[["doc_id", "order", "kind", "text", "media_ref"]]
        .sort_values(["doc_id", "order"])
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def golden(small_corpus):
    return _canon(_golden(small_corpus).to_pandas())


def test_concurrency_is_a_cpu_limit(ray_session, small_corpus, monkeypatch):
    """``concurrency`` is the number of concurrent stage workers: a CPU
    limit on the Dataset's own context (the global context untouched),
    ``cpus - 1`` (at least one) by default, and below one it raises."""
    import ray
    from ray.data import DataContext

    from pytorchocr_ray.pipelines.extract import default_concurrency, extract_dataset

    docs = os.path.join(small_corpus, "documents.parquet")
    media = os.path.join(small_corpus, "media.parquet")
    for n in (1, 2, 7):
        ds = extract_dataset(docs, media, concurrency=n)
        assert ds.context.execution_options.resource_limits.cpu == n
    ds = extract_dataset(docs, media)
    assert ds.context.execution_options.resource_limits.cpu == default_concurrency()
    assert DataContext.get_current().execution_options.resource_limits.cpu == float("inf")
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"concurrency={bad}"):
            extract_dataset(docs, media, concurrency=bad)

    for cpus in range(1, 65):
        monkeypatch.setattr(ray, "cluster_resources", lambda c=float(cpus): {"CPU": c})
        assert default_concurrency() == max(1, cpus - 1)


def test_reassemble_guard_detects_split_doc():
    """A block missing some of a doc's span rows (mid-document block split)
    must raise; tombstoned (dropped-media) spans must NOT trip the guard."""
    import pyarrow as pa
    import pytest as _pytest

    from pytorchocr_ray.stages.reassemble import reassemble_block

    def block(rows):
        cols = ["doc_id", "offset", "region_idx", "kind", "text", "media_ref",
                "span_idx", "n_spans"]
        return pa.table({c: [r[i] for r in rows] for i, c in enumerate(cols)})

    complete = block([
        ("d1", 1, 0, "text", "a", "", 0, 2),
        ("d1", 2, -1, "media", "", "m0", 1, 2),  # dropped media tombstone
    ])
    out = reassemble_block(complete).to_pandas()
    assert list(out["text"]) == ["a"]  # tombstone filtered, order intact

    split = block([
        ("d1", 1, 0, "text", "a", "", 0, 2),  # span 1 of 2 landed elsewhere
    ])
    with _pytest.raises(RuntimeError, match="split"):
        reassemble_block(split)


def test_oracle_matches_generator_ground_truth(small_corpus, golden):
    """The engine-side oracle must equal the generator's GROUND-TRUTH span
    table (expected.parquet) — the independent truth the driver's SQL
    oracle reads.  Any engine misread (e.g. the 'ee' intra-glyph band-split
    regression) breaks this, not just the Ray-vs-oracle equality."""
    expected = _canon(
        pq.read_table(os.path.join(small_corpus, "expected.parquet")).to_pandas()
    )
    pd.testing.assert_frame_equal(expected, golden)


def test_fused_pipeline_matches_oracle(ray_session, small_corpus, golden):
    from pytorchocr_ray.pipelines.extract import extract_dataset

    ds = extract_dataset(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=2,
    )
    got = _canon(ds.to_pandas())
    pd.testing.assert_frame_equal(got, golden)


def test_shuffle_reassembly_matches_oracle(ray_session, small_corpus, golden):
    """The general groupby(doc_id) path must agree with the zero-shuffle
    block-local path (which the other tests cover as the default)."""
    from pytorchocr_ray.pipelines.extract import extract_dataset

    ds = extract_dataset(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=2,
        reassemble="shuffle",
    )
    got = _canon(ds.to_pandas())
    pd.testing.assert_frame_equal(got, golden)


def test_regions_table(ray_session, small_corpus, golden):
    """extract_regions exposes the per-region intermediate (box + prob)."""
    import numpy as np

    from pytorchocr_ray.pipelines.extract import extract_regions

    df = extract_regions(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=2,
    ).to_pandas()
    media_golden = golden[golden["kind"] == "media"]
    assert len(df) == len(media_golden)
    # every region has an 8-value int16 box and a confidence in [0, 1]
    assert all(len(b) == 8 for b in df["box"])
    assert ((df["prob"] >= 0) & (df["prob"] <= 1)).all()
    # same texts as the reassembled output (as multisets)
    assert sorted(df["text"]) == sorted(media_golden["text"])


def test_nested_output_matches_flat(ray_session, small_corpus, golden):
    """extract_nested emits one row per doc with the EXTRACTED schema and
    the same span content as the flat plan."""
    from pytorchocr_ray.pipelines.extract import extract_nested

    ds = extract_nested(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=2,
    )
    rows = ds.to_pandas()
    flat = []
    for r in rows.itertuples():
        for s in r.spans:
            flat.append(
                {
                    "doc_id": r.doc_id,
                    "order": s["order"],
                    "kind": s["kind"],
                    "text": s["text"],
                    "media_ref": s["media_ref"],
                }
            )
    got = _canon(pd.DataFrame(flat))
    got["order"] = got["order"].astype("int32")
    pd.testing.assert_frame_equal(got, golden)
    # per-row spans sorted by order
    for r in rows.itertuples():
        assert [s["order"] for s in r.spans] == list(range(len(r.spans)))


def test_pse_pipeline_matches_pse_oracle(ray_session, small_corpus):
    """Alternate det post-process keeps the same parity contract."""
    import pyarrow.parquet as pq

    from pytorchocr_ray.functions.ocr import OcrConfig
    from pytorchocr_ray.oracle.extract import oracle_extract
    from pytorchocr_ray.pipelines.extract import extract_dataset

    cfg = OcrConfig(det_postprocess="pse")
    docs = pq.read_table(os.path.join(small_corpus, "documents.parquet"))
    media_t = pq.read_table(os.path.join(small_corpus, "media.parquet"))
    media = dict(zip(media_t["media_ref"].to_pylist(), media_t["data"].to_pylist()))
    golden_pse = _canon(oracle_extract(docs, media, config=cfg).to_pandas())
    ds = extract_dataset(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=2,
        config=cfg,
    )
    pd.testing.assert_frame_equal(_canon(ds.to_pandas()), golden_pse)


def test_pipeline_deterministic_across_batch_sizes(ray_session, small_corpus, golden):
    from pytorchocr_ray.pipelines.extract import extract_dataset

    ds = extract_dataset(
        os.path.join(small_corpus, "documents.parquet"),
        os.path.join(small_corpus, "media.parquet"),
        concurrency=3,
        batch_size=5,
    )
    got = _canon(ds.to_pandas())
    pd.testing.assert_frame_equal(got, golden)


_FULL_POOL = """
import os, sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
from pytorchocr_ray.pipelines.extract import extract_dataset
corpus, out = sys.argv[1:]
try:
    ds = extract_dataset(os.path.join(corpus, "documents.parquet"),
                         os.path.join(corpus, "media.parquet"), concurrency=4)
    ds.write_parquet(out)
except ValueError as e:
    print("REFUSED", e)
ray.shutdown()
"""


def _log_excerpt(log: str, n: int = 3000) -> str:
    """A failed subprocess's log for an assertion message: its last ``n``
    characters, and before them its first traceback (its first error, which
    the tail loses when a later crash floods the log)."""
    import re

    first = re.search(r"Traceback \(most recent call last\)|Fatal Python error|\*\*\* SIG", log)
    if first is None or first.start() >= len(log) - n:
        return log[-n:]
    return f"first traceback:\n{log[first.start():first.start() + n]}\n...\nlast lines:\n{log[-n:]}"


def test_pool_of_every_cpu_finishes_or_refuses(small_corpus, golden, tmp_path):
    """A pool asking for every cluster CPU must finish or refuse, never
    hang: 4 whole-CPU actors on 4 CPUs wedged the executor (no pass in
    300 s). Own 4-CPU cluster in a subprocess, killed at 180 s."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-c", _FULL_POOL, small_corpus, str(out)],
        cwd=root, env={**os.environ, "PYTHONPATH": root},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extract_dataset(concurrency=4) on 4 CPUs ran past 180 s")
    assert proc.returncode == 0, _log_excerpt(log)
    if "REFUSED" not in log:
        got = _canon(pd.read_parquet(out))
        pd.testing.assert_frame_equal(got, golden)


def test_text_passes_do_not_stall(ray_session, small_corpus, tmp_path):
    """Text-only extraction at the default pool, run after the other
    pools of this module: each of 6 passes ends well inside the streaming
    executor's 10 s idle interval. A pass that waits for CPUs held by
    another operator, or by a finished pool's actors, runs past it."""
    import time

    import pyarrow as pa

    from pytorchocr_ray.pipelines.extract import extract_dataset

    src = pq.read_table(os.path.join(small_corpus, "documents.parquet"))
    docs, copies = src.to_pylist(), 50
    text = [[s for s in d["spans"] if s["kind"] != "media"] for d in docs]
    table = pa.Table.from_pydict({
        "doc_id": [f"{d['doc_id']}~{j}" for j in range(copies) for d in docs],
        "spans": text * copies,
    }, schema=src.schema)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(table, path)
    n_spans = copies * sum(len(t) for t in text)
    for i in range(6):
        out = str(tmp_path / f"out{i}")
        t0 = time.perf_counter()
        extract_dataset(path).write_parquet(out)
        wall = time.perf_counter() - t0
        assert pq.read_table(out).num_rows == n_spans
        assert wall < 10.0, f"pass {i} took {wall:.1f} s"


def test_no_block_cut_splits_a_document(ray_session, small_corpus, tmp_path, monkeypatch):
    """Text-only documents whose strings repeat, so that their footer bytes
    understate their size in memory. With the range byte cap patched small
    the read plans more ranges than one per worker; with the global block
    size target set tiny the pass still equals the oracle, because the
    pass's own context sets no target and Ray cuts none of its blocks."""
    import re

    import pyarrow as pa
    from ray.data import DataContext

    from pytorchocr_ray.oracle.extract import oracle_extract
    from pytorchocr_ray.pipelines import extract

    src = pq.read_table(os.path.join(small_corpus, "documents.parquet"))
    docs, copies = src.to_pylist(), 10
    table = pa.Table.from_pydict({
        "doc_id": [f"{d['doc_id']}~{j}" for j in range(copies) for d in docs],
        "spans": [[s for s in d["spans"] if s["kind"] != "media"] for d in docs] * copies,
    }, schema=src.schema)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(table, path)
    footer = pq.read_metadata(path).row_group(0).total_byte_size
    assert table.nbytes > 2 * footer
    monkeypatch.setattr(extract, "RANGE_BYTES", footer // 8)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 4096)
    ds = extract.extract_dataset(path, os.path.join(small_corpus, "media.parquet"),
                                 concurrency=2)
    got = _canon(ds.to_pandas())
    tasks = int(re.search(r"ReadParquetRanges.*?: (\d+) tasks executed", ds.stats()).group(1))
    assert tasks >= 8
    pd.testing.assert_frame_equal(got, _canon(oracle_extract(table, {}).to_pandas()))


def test_finished_pool_frees_its_cpus_for_the_next(ray_session, small_corpus):
    """A finished pass gives every CPU back within seconds, even when
    Python's automatic GC has not run."""
    import gc
    import time

    import ray

    from pytorchocr_ray.pipelines.extract import extract_dataset

    total = ray.cluster_resources()["CPU"]
    gc.disable()
    try:
        extract_dataset(
            os.path.join(small_corpus, "documents.parquet"),
            os.path.join(small_corpus, "media.parquet"),
            concurrency=3,
        ).to_pandas()
        deadline = time.monotonic() + 5
        while ray.available_resources().get("CPU", 0) < total and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ray.available_resources().get("CPU", 0) == total
    finally:
        gc.enable()

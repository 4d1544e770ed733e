"""stages.warm: every warm-model stage runs as a Ray task, built once per
worker process, inside one fused operator."""

import ast
import os
import pathlib
import re

import pyarrow.parquet as pq
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "pytorchocr_ray"


def _split_docs(small_corpus, out_dir, n_files):
    """The corpus's documents as ``n_files`` parquet files."""
    docs = pq.read_table(os.path.join(small_corpus, "documents.parquet"))
    os.makedirs(out_dir)
    step = -(-docs.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(docs.slice(i * step, step), os.path.join(out_dir, f"{i:02d}.parquet"))
    return str(out_dir)


@pytest.mark.parametrize("n_files", [16, 1])
def test_extract_pass_is_one_fused_operator(ray_session, small_corpus, tmp_path, n_files):
    """An extract pass written to parquet runs as ONE task operator from
    the read to the write, with the OCR stage inside it, whatever the file
    count: no actor pool and no split read cuts it into separate
    operators."""
    from pytorchocr_ray.pipelines.extract import extract_dataset

    docs = _split_docs(small_corpus, tmp_path / "docs", n_files)
    ds = extract_dataset(docs, os.path.join(small_corpus, "media.parquet"), concurrency=2)
    ds.write_parquet(str(tmp_path / "out"))
    ops = re.findall(r"^Operator \d+ (.+?): \d+ tasks executed", ds.stats(), re.M)
    assert len(ops) == 1, ops
    assert all(word in ops[0] for word in ("ReadParquet", "MapBatches(OcrStage)", "Write"))
    assert "ActorPool" not in ds.stats()


def test_warm_stages_only_through_map_stage():
    """Every stage class reaches Ray through stages.warm.map_stage: no other
    module passes a class to ``.map_batches(`` or constructor kwargs."""
    classes = set()
    trees = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        trees[path] = tree = ast.parse(path.read_text())
        classes |= {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    sites = []
    for path, tree in trees.items():
        if path == PACKAGE / "stages" / "warm.py":
            continue
        name = str(path.relative_to(PACKAGE))
        if "fn_constructor_kwargs" in path.read_text():
            sites.append((name, "fn_constructor_kwargs"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches" and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in classes):
                sites.append((name, node.args[0].id))
    assert sites == []


def test_stage_cache_builds_once_per_map_and_stays_bounded(monkeypatch):
    """In one process a map's stage is built on its first batch and reused
    for the rest; stages of older maps are dropped past the bound."""
    from pytorchocr_ray.stages import warm

    monkeypatch.setattr(warm, "_STAGES", {})
    built = []

    class Stage:
        def __init__(self, k):
            built.append(k)

        def __call__(self, batch):
            return batch

    for k in range(warm._MAX_STAGES + 2):
        for batch in range(3):
            assert warm._run_stage(f"map{k}", Stage, {"k": k}, batch) == batch
    assert built == list(range(warm._MAX_STAGES + 2))
    assert list(warm._STAGES) == [f"map{k}" for k in range(2, warm._MAX_STAGES + 2)]


def test_ocr_stage_built_once_per_worker_process(ray_session, small_corpus, tmp_path,
                                                 monkeypatch):
    """A pass of 16 blocks on 2 workers builds its OCR stage at most once
    in each worker process, however many blocks that process runs."""
    import pandas as pd

    from pytorchocr_ray.pipelines import extract
    from pytorchocr_ray.stages.ocr_stage import OcrStage

    log = tmp_path / "built"
    log.mkdir()
    log_dir = str(log)

    class RecordingOcrStage(OcrStage):  # defined here: pickled by value
        def __init__(self, **kw):
            import uuid

            open(os.path.join(log_dir, f"{os.getpid()}-{uuid.uuid4().hex}"), "w").close()
            super().__init__(**kw)

    monkeypatch.setattr(extract, "OcrStage", RecordingOcrStage)
    docs = os.path.join(small_corpus, "documents.parquet")
    ds = extract.extract_dataset(docs, os.path.join(small_corpus, "media.parquet"),
                                 concurrency=2)
    got = ds.to_pandas()
    tasks = int(re.search(r"MapBatches\(RecordingOcrStage\).*?: (\d+) tasks executed",
                          ds.stats()).group(1))
    pids = pd.Series([f.split("-")[0] for f in os.listdir(log_dir)])
    assert tasks >= 16
    assert 1 <= len(pids) < tasks
    assert pids.value_counts().max() == 1, pids.value_counts()
    assert got["doc_id"].nunique() == pq.read_table(docs).num_rows

"""Partitioned, resumable extraction runs (north-rule requirements).

* **Explicit partitioning**: ``bucket = stable_hash(doc_id) % B`` (pandas'
  process-stable 64-bit string hash, never Python's salted ``hash``).
* **Skew-aware split**: a planning scan pre-aggregates media-span counts per
  bucket (partial agg inside map_batches -> tiny groupby); buckets above
  ``skew_factor x mean`` are split into sub-partitions by a secondary hash
  so one media-heavy bucket cannot straggle the run.
* **Checkpoint / resume**: each partition is one Ray Data pass whose last
  map writes its blocks to a temp dir and returns lineage partials (no
  materialize, no second write or lineage pass); the dir is atomically
  renamed to ``part=<b>.<s>``, then a ``_COMMITTED_<b>_<s>.json`` lineage
  marker is written. A restarted run skips a partition only if its marker's
  row count matches its parquet footers — the batch-pipeline form of the
  reference's epoch checkpoints (pytocr/utils/save_load.py:104-129,
  tools/program.py:387-410).
* **Bucketed input layout**: one pass writes the documents table
  hash-partitioned to ``out_dir/_input/bucket=<b>/``; every partition job
  then reads ONLY its own files — each input byte is read once for
  planning and once for extraction, with no per-partition full-table
  re-read. This is the same layout a 100 TB deployment would keep as its
  canonical storage partitioning.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.ocr import OcrConfig
from .extract import extract_dataset


def stable_bucket(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    return (pd.util.hash_array(ids.astype(object)) % np.uint64(n_buckets)).astype(
        np.int64
    )


def stable_subpart(ids: np.ndarray, n_buckets: int, n_subs: int) -> np.ndarray:
    h = pd.util.hash_array(ids.astype(object))
    return ((h // np.uint64(n_buckets)) % np.uint64(n_subs)).astype(np.int64)


@dataclass
class Partition:
    bucket: int
    sub: int
    n_subs: int
    planned_docs: int
    planned_media_spans: int

    @property
    def name(self) -> str:
        return f"part={self.bucket}.{self.sub}"

    @property
    def marker(self) -> str:
        return f"_COMMITTED_{self.bucket}_{self.sub}.json"


def plan_partitions(
    docs_path: str, n_buckets: int, skew_factor: float = 2.0
) -> list[Partition]:
    """Planning scan: per-bucket doc + media-span counts (pre-aggregated per
    batch inside map_batches, then a tiny groupby over <= B rows per block)."""
    import ray.data as rd

    def per_batch_counts(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=object)
        buckets = stable_bucket(ids, n_buckets)
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        kinds = pc.struct_field(pc.list_flatten(spans), "kind")
        parent = pc.list_parent_indices(spans).to_numpy()
        is_media = pc.equal(kinds, "media").to_numpy(zero_copy_only=False)
        media_per_doc = np.zeros(len(batch), dtype=np.int64)
        np.add.at(media_per_doc, parent[is_media], 1)
        df = pd.DataFrame({"bucket": buckets, "media": media_per_doc, "docs": 1})
        agg = df.groupby("bucket", as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = (
        rd.read_parquet(docs_path)
        .map_batches(per_batch_counts, batch_format="pyarrow")
        .to_pandas()
        .groupby("bucket", as_index=False)
        .sum()
    )
    by_bucket = {int(r.bucket): (int(r.docs), int(r.media)) for r in parts.itertuples()}
    mean_media = max(1.0, np.mean([m for _, m in by_bucket.values()] or [1]))
    out: list[Partition] = []
    for b in range(n_buckets):
        docs, media = by_bucket.get(b, (0, 0))
        if docs == 0:
            continue
        n_subs = 1
        if media > skew_factor * mean_media:
            n_subs = int(np.ceil(media / mean_media))
        for s in range(n_subs):
            out.append(Partition(b, s, n_subs, docs, media))
    return out


def _partition_filter(n_buckets: int, part: Partition, bucketed: bool):
    """Row filter for one partition job.  With the bucketed input layout
    the bucket predicate is already satisfied by reading only the
    partition's files; only skew sub-splits still filter rows."""
    if bucketed and part.n_subs == 1:
        return None

    def fn(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=object)
        if bucketed:
            mask = np.ones(len(ids), dtype=bool)
        else:
            mask = stable_bucket(ids, n_buckets) == part.bucket
        if part.n_subs > 1:
            mask &= stable_subpart(ids, n_buckets, part.n_subs) == part.sub
        return batch.filter(pa.array(mask))

    return fn


def write_bucketed_input(
    docs_path: str, out_dir: str, n_buckets: int
) -> str | None:
    """One pass over the documents table -> hash-partitioned copy under
    ``out_dir/_input/bucket=<b>/`` so each partition job reads ONLY its own
    files, instead of a full-table re-read + filter per partition (a B-fold
    read amplification).

    Crash-safe and idempotent: the layout is written to a temp dir and
    atomically renamed only after the marker lands inside it —
    a crash mid-write leaves only the temp dir (removed on retry), never a
    half-written ``_input`` that a resumed run would silently append a
    second copy of every document to.  A pre-existing ``_input`` whose
    marker doesn't match this ``n_buckets`` (stale layout from a previous
    bucketing) is replaced wholesale.  Returns the layout dir, or None if
    the write fails (callers fall back to filtered full reads)."""
    import ray.data as rd

    input_dir = os.path.join(out_dir, "_input")
    marker_name = f"_SUCCESS_{n_buckets}"
    if os.path.exists(os.path.join(input_dir, marker_name)):
        return input_dir
    tmp_dir = os.path.join(out_dir, "_input_tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    from ..stages.spans import add_bucket

    try:
        ds = rd.read_parquet(docs_path).map_batches(
            lambda b: add_bucket(b, n_buckets), batch_format="pyarrow"
        )
        ds.write_parquet(tmp_dir, partition_cols=["bucket"])
        with open(os.path.join(tmp_dir, marker_name), "w") as f:
            f.write("ok")
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        return None
    # replace any stale/partial layout atomically (rename, not copy)
    if os.path.exists(input_dir):
        shutil.rmtree(input_dir)
    os.rename(tmp_dir, input_dir)
    return input_dir


def result_checksum(df: pd.DataFrame) -> str:
    """Order-insensitive deterministic checksum of the extracted rows."""
    canon = df[["doc_id", "order", "kind", "text", "media_ref"]].sort_values(
        ["doc_id", "order"]
    )
    h = pd.util.hash_pandas_object(canon.reset_index(drop=True), index=False)
    return hex(int(h.sum() & np.uint64(0xFFFFFFFFFFFFFFFF)))


def _commit_block(batch: pa.Table, tmp_dir: str) -> pa.Table:
    """Last map of a partition's pass: write a non-empty block to its own
    parquet file in ``tmp_dir`` and return its lineage partial: the file's
    name, rows, first spans, media rows and the wrapping uint64 sum of the
    row hashes (order-insensitive, so the partials of a partition sum to
    :func:`result_checksum` of its rows)."""
    df = batch.to_pandas()[["doc_id", "order", "kind", "text", "media_ref"]]
    h = pd.util.hash_pandas_object(df, index=False).to_numpy(np.uint64)
    name = f"{uuid.uuid4().hex}.parquet" if len(df) else ""
    if name:
        pq.write_table(batch, os.path.join(tmp_dir, name))
    return pa.table({
        "file": [name],
        "rows": [len(df)],
        "docs_first": [int((df["order"] == 0).sum())],
        "regions": [int((df["kind"] == "media").sum())],
        # uint64 bits carried as int64 (wrapping final sum in run_partitioned)
        "hash_sum": [int(h.sum(dtype=np.uint64).astype(np.int64))],
    })


def _is_committed(out_dir: str, part: Partition) -> bool:
    """True when the partition's marker exists and the parquet footers under
    its dir (no data pages are read) hold the marker's ``output_rows``."""
    marker = os.path.join(out_dir, part.marker)
    if not os.path.exists(marker):
        return False
    with open(marker) as f:
        want = json.load(f)["output_rows"]
    pdir = os.path.join(out_dir, part.name)
    try:
        got = sum(pq.read_metadata(os.path.join(pdir, f)).num_rows
                  for f in os.listdir(pdir))
    except (OSError, pa.ArrowException):  # missing dir or unreadable footer
        got = None
    if got != want:
        logging.getLogger(__name__).warning(
            "%s: marker records %d rows, its dir holds %s; re-running it",
            part.name, want, got)
    return got == want


def run_partitioned(
    docs_path: str,
    media_path: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
    skew_factor: float = 2.0,
    resume: bool = True,
    config: OcrConfig | None = None,
    concurrency: int | None = None,
    fail_after: int | None = None,
    max_parallel: int = 2,
) -> dict:
    """Run extraction partition-by-partition with commit markers.

    Each partition is one Ray Data pass ending in :func:`_commit_block`;
    nothing is materialized, written after it or retried: this process sums
    the lineage partials, renames the temp dir and writes the marker.

    ``max_parallel`` partitions run CONCURRENTLY: a strictly sequential
    driver loop serializes B x n_subs jobs, and at 100 TB the per-job
    ramp/teardown tail would dominate.  The actor budget (``concurrency``,
    default :func:`~.extract.default_concurrency`) is split across in-flight
    jobs, ``budget // n_jobs`` actors each, sized by
    :func:`~.extract.pool_resources` (one whole-CPU actor per job for two
    jobs on 4 CPUs).  Each job's executor reserves CPUs against the whole
    cluster, not its share, so the jobs' read and write tasks compete for
    the CPUs their pools leave.  Partitions' output dirs, lineage records
    and markers are independent, so concurrency cannot change committed
    bytes; the returned lists are sorted for determinism.

    ``fail_after=k`` injects a crash after k partitions commit (resume
    tests); it forces sequential execution so "k committed" is exact.

    Returns a summary: partitions run / skipped, total rows, lineage list.
    """
    from ..state.weights import put_weights
    from .extract import default_concurrency, load_media_store

    os.makedirs(out_dir, exist_ok=True)
    parts = plan_partitions(docs_path, n_buckets, skew_factor)
    input_dir = write_bucketed_input(docs_path, out_dir, n_buckets)
    media_ref = load_media_store(media_path)
    weights_ref = put_weights()

    if fail_after is not None:
        max_parallel = 1  # deterministic commit count for the injection
    todo: list[Partition] = []
    skipped: list[str] = []
    for part in parts:
        if resume and _is_committed(out_dir, part):
            skipped.append(part.name)
        else:
            todo.append(part)
    n_jobs = min(max_parallel, max(1, len(todo)))
    budget = concurrency or default_concurrency()
    per_job = max(1, budget // n_jobs)

    build_lock = threading.Lock()

    def run_one(part: Partition) -> dict:
        part_docs = (
            os.path.join(input_dir, f"bucket={part.bucket}")
            if input_dir
            else docs_path
        )
        # dataset CONSTRUCTION is serialized (concurrent read_parquet path
        # resolution races on fsspec's optional-module probe); execution —
        # the expensive part — runs fully concurrently
        with build_lock:
            ds = extract_dataset(
                part_docs,
                media_ref=media_ref,
                weights_ref=weights_ref,
                config=config,
                concurrency=per_job,
                pre_filter=_partition_filter(
                    n_buckets, part, bucketed=input_dir is not None
                ),
            )
        final = os.path.join(out_dir, part.name)
        tmp = os.path.join(out_dir, f"_tmp_{part.bucket}_{part.sub}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        partials = (
            ds.map_batches(
                _commit_block,
                fn_kwargs={"tmp_dir": tmp},
                batch_format="pyarrow",
                batch_size=None,
            )
            .to_pandas()
            .reindex(columns=["file", "rows", "docs_first", "regions", "hash_sum"])
        )
        # a file no partial names is a retried task's leftover
        for f in set(os.listdir(tmp)) - set(partials["file"]):
            os.remove(os.path.join(tmp, f))
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        hash_total = partials["hash_sum"].to_numpy(np.int64).view(np.uint64)
        record = {
            "partition": part.name,
            "bucket": part.bucket,
            "sub": part.sub,
            "n_subs": part.n_subs,
            "planned_docs": part.planned_docs,
            "planned_media_spans": part.planned_media_spans,
            "output_rows": int(partials["rows"].sum()),
            "output_docs": int(partials["docs_first"].sum()),
            "ocr_regions": int(partials["regions"].sum()),
            "checksum": hex(int(hash_total.sum(dtype=np.uint64))),
        }
        marker_path = os.path.join(out_dir, part.marker)
        tmp_marker = marker_path + ".tmp"
        with open(tmp_marker, "w") as f:
            json.dump(record, f)
        os.replace(tmp_marker, marker_path)
        return record

    ran, lineage = [], []
    if n_jobs <= 1:
        for part in todo:
            lineage.append(run_one(part))
            ran.append(part.name)
            if fail_after is not None and len(ran) >= fail_after:
                raise RuntimeError(
                    f"injected failure after {fail_after} partitions"
                )
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            lineage = list(pool.map(run_one, todo))
        ran = [p.name for p in todo]
    lineage.sort(key=lambda r: (r["bucket"], r["sub"]))
    return {
        "ran": sorted(ran),
        "skipped": sorted(skipped),
        "lineage": lineage,
        "out_dir": out_dir,
        "n_partitions": len(parts),
    }


def read_extracted(out_dir: str) -> pd.DataFrame:
    """Read all committed partitions back as one DataFrame."""
    frames = []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("_COMMITTED_"):
            continue
        with open(os.path.join(out_dir, name)) as f:
            rec = json.load(f)
        pdir = os.path.join(out_dir, rec["partition"])
        frames.append(pq.read_table(pdir).to_pandas())
    if not frames:
        return pd.DataFrame(columns=["doc_id", "order", "kind", "text", "media_ref"])
    return pd.concat(frames, ignore_index=True)

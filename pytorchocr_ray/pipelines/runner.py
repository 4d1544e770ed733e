"""Partitioned, resumable extraction runs (north-rule requirements).

* **Explicit partitioning**: ``bucket = stable_hash(doc_id) % B`` (pandas'
  process-stable 64-bit string hash, never Python's salted ``hash``).
* **Skew-aware split**: a planning scan pre-aggregates media-span counts per
  bucket (partial agg inside map_batches -> tiny groupby); buckets above
  ``skew_factor x mean`` are split into sub-partitions by a secondary hash
  so one media-heavy bucket cannot straggle the run.
* **Plan-keyed input layout**: one pass writes the documents table to
  ``out_dir/_input/part=<b>.<s>/`` (bucket and skew sub-split applied once;
  its ``_SUCCESS`` marker records the plan). Each input byte is read once
  for planning and once for extraction.
* **One pass, ordered commit**: every pending partition runs through ONE
  Ray Data pass, one fused operator with warm OCR stages, reading the
  partitions' files in plan order with block order preserved. Each
  partition is committed (temp dir renamed to ``part=<b>.<s>``, then a
  ``_COMMITTED_<b>_<s>.json`` lineage marker) as soon as the pass moves on
  to a later one. A restarted run skips a partition only if its marker's
  row count matches its parquet footers — the batch-pipeline form of the
  reference's epoch checkpoints (pytocr/utils/save_load.py:104-129,
  tools/program.py:387-410).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import uuid
from dataclasses import asdict, dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.ocr import OcrConfig
from ..stages.spans import stable_bucket
from .extract import extract_dataset


def stable_subpart(ids: np.ndarray, n_buckets: int, n_subs) -> np.ndarray:
    """Sub-partition of each id; ``n_subs`` is a count or one count per id."""
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


def _tmp_dir(out_dir: str, bucket: int, sub: int) -> str:
    """Where a partition's files are written until it commits."""
    return os.path.join(out_dir, f"_tmp_{bucket}_{sub}")


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


def partition_of(
    ids: np.ndarray, n_buckets: int, subs: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(bucket, sub)`` of each document id under a plan whose bucket ``b``
    has ``subs[b]`` sub-partitions."""
    n_subs = np.ones(n_buckets, dtype=np.int64)
    n_subs[list(subs)] = list(subs.values())
    bucket = stable_bucket(ids, n_buckets)
    return bucket, stable_subpart(ids, n_buckets, n_subs[bucket])


def _add_part(batch: pa.Table, n_buckets: int, subs: dict[int, int]) -> pa.Table:
    ids = np.asarray(batch["doc_id"].to_pylist(), dtype=object)
    bucket, sub = partition_of(ids, n_buckets, subs)
    return batch.append_column("part", pa.array([f"{b}.{s}" for b, s in zip(bucket, sub)]))


def write_bucketed_input(
    docs_path: str, out_dir: str, n_buckets: int, parts: list[Partition]
) -> str:
    """One pass over the documents table -> a copy split by the plan under
    ``out_dir/_input/part=<b>.<s>/``, so the extraction pass reads each
    partition's own files and no row is filtered after the read.

    Crash-safe and idempotent: the layout is written to a temp dir, renamed
    only after its ``_SUCCESS`` marker lands inside it. The marker records
    ``n_buckets`` and the plan's ``(bucket, n_subs)`` list; a layout whose
    marker records another split is replaced. A failed write raises."""
    import ray.data as rd

    input_dir = os.path.join(out_dir, "_input")
    subs = {p.bucket: p.n_subs for p in parts}
    key = json.dumps({"n_buckets": n_buckets, "plan": sorted(subs.items())})
    marker = os.path.join(input_dir, "_SUCCESS")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == key:
                return input_dir
    tmp_dir = os.path.join(out_dir, "_input_tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    # one block per input file: each writes one file per partition it holds
    # (Ray would split a small table into many blocks, each writing its own)
    files = pq.ParquetDataset(docs_path).files
    rd.read_parquet(files, override_num_blocks=len(files)).map_batches(
        _add_part, fn_kwargs={"n_buckets": n_buckets, "subs": subs},
        batch_format="pyarrow",
    ).write_parquet(tmp_dir, partition_cols=["part"])
    with open(os.path.join(tmp_dir, "_SUCCESS"), "w") as f:
        f.write(key)
    # replace any stale layout atomically (rename, not copy)
    shutil.rmtree(input_dir, ignore_errors=True)
    os.rename(tmp_dir, input_dir)
    return input_dir


def result_checksum(df: pd.DataFrame) -> str:
    """Order-insensitive deterministic checksum of the extracted rows."""
    canon = df[["doc_id", "order", "kind", "text", "media_ref"]].sort_values(
        ["doc_id", "order"]
    )
    h = pd.util.hash_pandas_object(canon.reset_index(drop=True), index=False)
    return hex(int(h.sum() & np.uint64(0xFFFFFFFFFFFFFFFF)))


# one row per (block, partition); hash_sum carries uint64 bits as int64
# (wrapping final sum in _commit)
_PARTIAL = pa.schema([("bucket", pa.int64()), ("sub", pa.int64()), ("file", pa.string())]
                     + [(k, pa.int64()) for k in ("rows", "docs_first", "regions", "hash_sum")])


def _commit_block(
    batch: pa.Table, out_dir: str, n_buckets: int, subs: dict[int, int]
) -> pa.Table:
    """Last map of the pass: split a block by partition (recomputed from
    ``doc_id`` under the plan's ``subs``), write each slice to its own
    parquet file in that partition's temp dir, and return one lineage
    partial per partition, in plan order: the file's name, rows, first
    spans, media rows and the wrapping uint64 sum of the row hashes
    (order-insensitive, so the partials of a partition sum to
    :func:`result_checksum` of its rows)."""
    df = batch.to_pandas()[["doc_id", "order", "kind", "text", "media_ref"]]
    h = pd.util.hash_pandas_object(df, index=False).to_numpy(np.uint64)
    bucket, sub = partition_of(df["doc_id"].to_numpy(object), n_buckets, subs)
    partials = []
    for b, s in sorted(set(zip(bucket.tolist(), sub.tolist()))):
        mask = (bucket == b) & (sub == s)
        name = f"{uuid.uuid4().hex}.parquet"
        pq.write_table(
            batch.filter(pa.array(mask)),
            os.path.join(_tmp_dir(out_dir, b, s), name),
        )
        partials.append({
            "bucket": b, "sub": s, "file": name, "rows": int(mask.sum()),
            "docs_first": int((df["order"].to_numpy()[mask] == 0).sum()),
            "regions": int((df["kind"].to_numpy()[mask] == "media").sum()),
            "hash_sum": int(h[mask].sum(dtype=np.uint64).astype(np.int64)),
        })
    return pa.Table.from_pylist(partials, schema=_PARTIAL)


def _ordered_partials(batches, todo: list[Partition]):
    """Yield ``(partition, its partials)`` for each pending partition in plan
    order, as soon as a partial of a later partition (or the stream's end)
    shows that its rows are all written."""
    index = {(p.bucket, p.sub): i for i, p in enumerate(todo)}
    got: list[list[dict]] = [[] for _ in todo]
    done = 0
    for batch in batches:
        for rec in batch.to_pylist():
            i = index[rec["bucket"], rec["sub"]]
            if i < done:
                raise RuntimeError(f"rows of {todo[i].name} came after its commit")
            while done < i:
                yield todo[done], got[done]
                done += 1
            got[i].append(rec)
    for i in range(done, len(todo)):
        yield todo[i], got[i]


def _commit(out_dir: str, part: Partition, partials: list[dict]) -> dict:
    """Rename the partition's temp dir into place, then its marker: two
    renames back to back, so a kill between them (the only state with a
    ``part=`` dir and no marker) has a window of microseconds; resume
    re-runs such a partition."""
    tmp = _tmp_dir(out_dir, part.bucket, part.sub)
    # a file no partial names is a retried task's leftover
    for f in set(os.listdir(tmp)) - {p["file"] for p in partials}:
        os.remove(os.path.join(tmp, f))
    total = {k: int(sum(p[k] for p in partials)) for k in ("rows", "docs_first", "regions")}
    hash_total = np.array([p["hash_sum"] for p in partials], dtype=np.int64)
    record = {
        "partition": part.name,
        **asdict(part),
        "output_rows": total["rows"],
        "output_docs": total["docs_first"],
        "ocr_regions": total["regions"],
        "checksum": hex(int(hash_total.view(np.uint64).sum(dtype=np.uint64))),
    }
    tmp_marker = os.path.join(out_dir, f"_tmp{part.marker}")
    with open(tmp_marker, "w") as f:
        json.dump(record, f)
    final = os.path.join(out_dir, part.name)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    os.replace(tmp_marker, os.path.join(out_dir, part.marker))
    return record


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
) -> dict:
    """Run extraction over hash partitions, committing each with a marker.

    Every pending partition goes through ONE Ray Data pass on
    ``concurrency`` workers (default :func:`~.extract.default_concurrency`).
    The pass reads the partitions' files from the plan-keyed layout
    (:func:`write_bucketed_input`) as one list in plan order and keeps
    block order, so a partition's rows all leave it before the next one's.
    Its last map, :func:`_commit_block`, writes the rows; this process
    commits a partition (:func:`_commit`: rename, then marker) once a
    partial of a later one arrives, and the rest when the stream ends. An
    empty sub-partition commits an empty dir.

    ``fail_after=k`` injects a crash after exactly k commits (resume tests);
    the pass then reads only the first k pending partitions, so the crash
    wastes no OCR. However the pass ends, its iterator is closed so that
    its tasks free their CPUs. Returns a summary: partitions run /
    skipped, lineage list.
    """
    from ..state.weights import put_weights
    from .extract import load_media_store

    os.makedirs(out_dir, exist_ok=True)
    parts = plan_partitions(docs_path, n_buckets, skew_factor)
    input_dir = write_bucketed_input(docs_path, out_dir, n_buckets, parts)
    skipped = [p.name for p in parts if resume and _is_committed(out_dir, p)]
    todo = [p for p in parts if p.name not in skipped][:fail_after]
    files = []
    for part in todo:
        tmp = _tmp_dir(out_dir, part.bucket, part.sub)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pdir = os.path.join(input_dir, part.name)
        if os.path.isdir(pdir):  # an empty sub-partition has no input dir
            files += [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))]

    batches = (b for b in ())  # nothing to read: only empty partitions
    if files:
        ds = extract_dataset(
            files, media_ref=load_media_store(media_path), weights_ref=put_weights(),
            config=config, concurrency=concurrency,
        ).map_batches(
            _commit_block, batch_format="pyarrow", batch_size=None,
            fn_kwargs={"out_dir": out_dir, "n_buckets": n_buckets,
                       "subs": {p.bucket: p.n_subs for p in parts}},
        )
        ds.context.execution_options.preserve_order = True
        batches = iter(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        del ds  # the iterator holds the pass; closing it ends the pass
    commits = _ordered_partials(batches, todo)
    lineage = []
    try:
        for part, partials in commits:
            lineage.append(_commit(out_dir, part, partials))
        if fail_after is not None and len(lineage) == fail_after:
            raise RuntimeError(f"injected failure after {fail_after} partitions")
    finally:
        # closing the iterator ends the pass and frees its CPUs
        commits.close()
        batches.close()
    return {
        "ran": sorted(r["partition"] for r in lineage),
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

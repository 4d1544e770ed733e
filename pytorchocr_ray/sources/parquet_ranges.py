"""Documents read as row ranges planned from the parquet footers.

:func:`plan_ranges` cuts the rows of a documents table (``schemas.DOCUMENTS``
in one or more parquet files) into ranges from the footers alone: row
counts, uncompressed bytes and the min / max of each row group's span
``kind``. No data page is read to plan. :class:`ParquetRangesDatasource`
hands Ray one read task per range, each returning one block, so
``read_parquet_ranges`` is a single ``ReadParquetRanges`` operator with no
split factor, and Ray fuses it with the maps after it whatever the file
count.

* Ranges follow file order and never cross a file, so a pass that keeps
  block order emits one file's rows before the next one's.
* A range is whole documents (one document is one row), so every block a
  pass starts from is document-contiguous.
* A range that starts inside a row group reads that group from its start
  and drops the rows before the range. The documents table carries media
  refs, not payloads, so a row group is small.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


@dataclass(frozen=True)
class RowRange:
    """``rows`` rows of ``path`` starting ``skip`` rows into the first of
    ``row_groups``; ``nbytes`` is their share of the footer's uncompressed
    bytes."""

    path: str
    row_groups: tuple[int, ...]
    skip: int
    rows: int
    nbytes: int


def _kind_column(schema: pq.ParquetSchema) -> int | None:
    """Index of the span ``kind`` leaf (``spans.<list>.<element>.kind``)."""
    for j in range(len(schema)):
        parts = schema.column(j).path.split(".")
        if parts[0] == "spans" and parts[-1] == "kind":
            return j
    return None


def _text_only(group: pq.RowGroupMetaData, kind: int | None) -> bool:
    """The footer proves every span of the group is ``"text"``: its kind
    statistics read min == max == "text" ("media" sorts below "text", so a
    group holding any media span has min "media"). No statistics, no proof."""
    stats = group.column(kind).statistics if kind is not None else None
    return bool(stats is not None and stats.has_min_max
                and stats.min == stats.max == "text")


def plan_ranges(paths: list[str], *, workers: int, blocks_per_worker: int,
                max_bytes: int) -> list[RowRange]:
    """Row ranges over ``paths`` (files, in order), from the footers only.

    The rows of text-only row groups (:func:`_text_only`) share ``workers``
    ranges: a text span costs little, so one block per worker is enough. The
    rest share ``workers * blocks_per_worker``: media OCR cost varies by
    image, so smaller blocks keep every worker busy to the end. No range
    holds more than ``max_bytes`` of the footer's uncompressed bytes (short
    of a single row that alone is larger).

    Each row carries a cost: its class's share of one range, or its share
    of ``max_bytes``, whichever is larger. A file is cut into
    ``ceil(cost)`` ranges of equal cost; ranges span row groups of one
    file but never two files.
    """
    files = []  # per file: (row group, rows, bytes, text-only) of each non-empty group
    for path in paths:
        md = pq.read_metadata(path)
        kind = _kind_column(md.schema)
        groups = [md.row_group(g) for g in range(md.num_row_groups)]
        files.append([(g, rg.num_rows, rg.total_byte_size, _text_only(rg, kind))
                      for g, rg in enumerate(groups) if rg.num_rows])
    rows_of = {c: sum(r for groups in files for _, r, _, t in groups if t == c)
               for c in (True, False)}
    share = {True: workers, False: workers * blocks_per_worker}
    ranges = []
    for path, groups in zip(paths, files):
        if not groups:
            continue
        rows = np.array([r for _, r, _, _ in groups], np.int64)
        nbytes = np.array([b for _, _, b, _ in groups], np.int64)
        cost = np.array([max(share[t] * r / rows_of[t], b / max_bytes)
                         for _, r, b, t in groups])
        row_at = np.concatenate([[0], np.cumsum(rows)])
        bytes_at = np.concatenate([[0], np.cumsum(nbytes)])
        cost_at = np.concatenate([[0.0], np.cumsum(cost)])
        n = min(math.ceil(cost_at[-1] - 1e-9), int(row_at[-1]))
        cuts = np.unique(np.floor(np.interp(
            np.linspace(0.0, cost_at[-1], n + 1), cost_at, row_at)).astype(np.int64))
        cuts[-1] = row_at[-1]
        cut_bytes = np.interp(cuts, row_at, bytes_at)
        for lo, hi, b_lo, b_hi in zip(cuts[:-1], cuts[1:], cut_bytes[:-1], cut_bytes[1:]):
            first = int(np.searchsorted(row_at, lo, side="right")) - 1
            last = int(np.searchsorted(row_at, hi, side="left"))
            ranges.append(RowRange(
                path, tuple(groups[i][0] for i in range(first, last)),
                int(lo - row_at[first]), int(hi - lo), round(b_hi - b_lo)))
    return ranges


def read_range(r: RowRange) -> pa.Table:
    """The rows of one range, streamed from its row groups and stopped at
    its end."""
    f = pq.ParquetFile(r.path)
    batches, skip, left = [], r.skip, r.rows
    if left:
        for b in f.iter_batches(row_groups=list(r.row_groups)):
            if skip >= b.num_rows:
                skip -= b.num_rows
                continue
            b = b.slice(skip, left)
            skip, left = 0, left - b.num_rows
            batches.append(b)
            if not left:
                break
    return pa.Table.from_batches(batches, schema=f.schema_arrow)


class ParquetRangesDatasource(Datasource):
    """One Ray read task, and one block, per planned :class:`RowRange`."""

    def __init__(self, ranges: list[RowRange], schema: pa.Schema):
        self._ranges, self._schema = ranges, schema

    def estimate_inmemory_data_size(self) -> int:
        return sum(r.nbytes for r in self._ranges)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        # the plan fixes the task count; read_parquet_ranges asks for it
        return [
            ReadTask(functools.partial(_read_blocks, r),
                     BlockMetadata(num_rows=r.rows, size_bytes=r.nbytes,
                                   input_files=[r.path], exec_stats=None),
                     schema=self._schema)
            for r in self._ranges
        ]


def _read_blocks(r: RowRange) -> list[pa.Table]:
    return [read_range(r)]


def read_parquet_ranges(path: str | list[str], *, workers: int, blocks_per_worker: int,
                        max_bytes: int):
    """``ray.data`` Dataset of the documents at ``path`` (a parquet file, a
    directory of them or a list of files), one block per range of
    :func:`plan_ranges`."""
    import ray.data as rd

    files = pq.ParquetDataset(path).files
    ranges = plan_ranges(files, workers=workers, blocks_per_worker=blocks_per_worker,
                         max_bytes=max_bytes)
    if not ranges:  # no rows: one empty block keeps the schema
        ranges = [RowRange(files[0], (), 0, 0, 0)]
    source = ParquetRangesDatasource(ranges, pq.read_schema(files[0]))
    return rd.read_datasource(source, override_num_blocks=len(ranges))

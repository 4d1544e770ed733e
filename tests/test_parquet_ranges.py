"""sources.parquet_ranges: the row-range plan of a documents table, read
from the parquet footers alone (no Ray)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pytorchocr_ray.schemas import DOCUMENTS
from pytorchocr_ray.sources.parquet_ranges import plan_ranges, read_range

BIG = 1 << 40  # a byte cap that never binds


def _docs(prefix, n, media):
    """``n`` documents of two text spans, plus one media span each when
    ``media``."""
    rows = []
    for i in range(n):
        spans = [{"kind": "text", "text": f"{prefix} {i} lorem ipsum", "media_ref": "",
                  "offset": k} for k in range(2)]
        if media:
            spans.append({"kind": "media", "text": "", "media_ref": f"m{i}", "offset": 2})
        rows.append({"doc_id": f"{prefix}-{i:05d}", "spans": spans})
    return pa.Table.from_pylist(rows, schema=DOCUMENTS)


def _write(path, table, **kw):
    pq.write_table(table, path, **kw)
    return str(path)


def _plan(paths, workers=3, blocks_per_worker=8, max_bytes=BIG):
    return plan_ranges(paths, workers=workers, blocks_per_worker=blocks_per_worker,
                       max_bytes=max_bytes)


def test_ranges_cover_every_row_once_in_file_order(tmp_path):
    """Files of mixed row groups (text-only and media, uneven sizes, one
    empty file): reading the ranges in plan order gives every file's rows
    once, in order, and no range crosses a file."""
    tables = [
        pa.concat_tables([_docs("a", 130, False), _docs("b", 70, True)]),
        _docs("c", 0, True),
        _docs("d", 45, True),
        pa.concat_tables([_docs("e", 20, True), _docs("f", 300, False)]),
    ]
    paths = [_write(tmp_path / f"{i}.parquet", t, row_group_size=50)
             for i, t in enumerate(tables)]
    ranges = _plan(paths)
    assert [r.path for r in ranges] == sorted((r.path for r in ranges), key=paths.index)
    assert all(r.rows > 0 for r in ranges)
    for path, table in zip(paths, tables):
        mine = [read_range(r) for r in ranges if r.path == path]
        got = pa.concat_tables(mine) if mine else table.slice(0, 0)
        assert got.equals(table.cast(got.schema))
        assert sum(r.rows for r in ranges if r.path == path) == table.num_rows


@pytest.mark.parametrize("media, want", [(False, 3), (True, 3 * 8)])
def test_range_count_follows_the_footer_kind(tmp_path, media, want):
    """A row group whose kind statistics prove it text-only gets one range
    per worker; one that may hold media gets blocks_per_worker per worker."""
    path = _write(tmp_path / "d.parquet", _docs("d", 600, media))
    ranges = _plan([path], workers=3, blocks_per_worker=8)
    assert len(ranges) == want
    assert sorted({r.rows for r in ranges}) in ([600 // want], [600 // want, 600 // want + 1])


def test_text_and_media_groups_of_one_file(tmp_path):
    """In one file, the text-only group's rows share ``workers`` ranges and
    the media group's rows ``workers * blocks_per_worker``."""
    table = pa.concat_tables([_docs("t", 400, False), _docs("m", 400, True)])
    path = _write(tmp_path / "d.parquet", table, row_group_size=400)
    ranges = _plan([path], workers=2, blocks_per_worker=4)
    text = [r for r in ranges if r.row_groups == (0,)]
    media = [r for r in ranges if r.row_groups == (1,)]
    assert (len(text), len(media), len(ranges)) == (2, 8, 10)


def test_file_without_statistics_counts_as_media(tmp_path):
    path = _write(tmp_path / "d.parquet", _docs("d", 600, False), write_statistics=False)
    assert len(_plan([path], workers=3, blocks_per_worker=8)) == 24


def test_byte_cap_splits_a_large_text_file(tmp_path):
    """The cap on footer bytes per range cuts a text-only file into more
    ranges than one per worker, each under the cap."""
    path = _write(tmp_path / "d.parquet", _docs("d", 4000, False))
    nbytes = pq.read_metadata(path).row_group(0).total_byte_size
    cap = nbytes // 10
    ranges = _plan([path], workers=3, max_bytes=cap)
    assert len(_plan([path], workers=3)) == 3
    assert len(ranges) >= 10
    assert all(r.nbytes <= cap for r in ranges)
    assert sum(r.rows for r in ranges) == 4000


def test_planning_reads_no_data_page(tmp_path, monkeypatch):
    """The plan comes from the footers: every data-page read of ParquetFile
    raises while it runs."""
    paths = [_write(tmp_path / f"{i}.parquet", _docs(str(i), 100, i % 2 == 0),
                    row_group_size=30) for i in range(3)]

    def refuse(*a, **k):
        raise AssertionError("a data page was read while planning")

    for name in ("read", "read_row_group", "read_row_groups", "iter_batches"):
        monkeypatch.setattr(pq.ParquetFile, name, refuse)
    monkeypatch.setattr(pq, "read_table", refuse)
    ranges = _plan(paths)
    assert sum(r.rows for r in ranges) == 300

"""sessions.sessionize and asof_last_view against their DuckDB twins on a
crafted events table where one co_partition group holds several users, so
a close-out that lets a session or an as-of match cross a user boundary
reads a different answer."""

import datetime as dt
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _same_group_users(n: int) -> list[int]:
    """``n`` user ids that co_partition sends to one group."""
    from pytorchocr_ray.ops import _key_hash, salt_count

    ids = np.arange(1, 10_000, dtype=np.int64)
    salt = _key_hash(pa.table({"user_id": ids}), ["user_id"]) & np.uint64(salt_count() - 1)
    return ids[salt == salt[0]][:n].tolist()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype(np.float64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_sessions_and_asof_do_not_cross_users(ray_session, tmp_path):
    from pytorchocr_ray.ops.sessions import (
        ASOF_LAST_VIEW_SQL,
        asof_last_view,
        sessionize,
        sessionize_sql,
    )

    a, b, c, d = _same_group_users(4)
    t0 = dt.datetime(2024, 1, 1)
    m = lambda n: t0 + dt.timedelta(minutes=n)
    rows = [
        # A: one session, last event at +10
        (a, m(0), "view"), (a, m(10), "view"),
        # B: first event 5 min after A's last (inside the 30 min gap),
        # then a second session; its purchase at +12 has no earlier view
        # of its own, only A's
        (b, m(12), "purchase"), (b, m(15), "view"), (b, m(100), "click"),
        # C: a purchase whose only earlier view is B's, then its own view
        # and a purchase matching it exactly at the same timestamp
        (c, m(20), "purchase"), (c, m(40), "view"), (c, m(40), "purchase"),
        # D: interleaved with everyone, one session per event
        (d, m(5), "click"), (d, m(50), "purchase"), (d, m(90), "view"),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "event_type": pa.array([r[2] for r in rows]),
                "value": pa.array([1.0] * len(rows)),
                "props": pa.array([""] * len(rows)),
            }
        ),
        os.path.join(str(tmp_path), "events.parquet"),
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")

    s = sessionize(str(tmp_path)).to_pandas()
    pd.testing.assert_frame_equal(_canon(s), _canon(con.sql(sessionize_sql()).df()))
    assert s.groupby("user_id")["session_idx"].max().to_dict() == {a: 0, b: 1, c: 0, d: 2}

    v = asof_last_view(str(tmp_path)).to_pandas()
    pd.testing.assert_frame_equal(_canon(v), _canon(con.sql(ASOF_LAST_VIEW_SQL).df()))
    no_view = v[v["view_epoch"].isna()]
    assert sorted(no_view["user_id"]) == [b, c, d]
    assert len(v) == 4

"""Session windows over the events stream — a custom windowed aggregate
Ray Data lacks natively (SURVEY.md §2.9 notes the reference has no
streaming ops; the engine contract requires windowed aggregates anyway).

Semantics: per user, events sorted by ts; a new session starts when the gap
to the previous event exceeds ``gap``.  Every operator here is one
:func:`co_partition` on ``user_id`` with a close-out vectorized over all
users of its group: ONE mergesort (on ``(user_id, ts)``; on ``ts`` for
the as-of join, which merges by user), then column operations that never
let a session, an as-of match or a funnel step cross a user boundary.  Partitioning assumption: one user's events fit
one group (for a pathological single-user firehose the key would need
salting plus a session-merge pass).  Timestamps are cast to int64
microseconds on the way in (the twins' ``epoch_us``).

The DuckDB oracle expresses the identical windowing with LAG + a running
sum — the standard SQL sessionization idiom.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import co_partition, read

GAP_MINUTES = 30


def _events(sf_dir: str, columns: list[str]):
    """``co_partition`` side of the events table on ``user_id``; any Arrow
    timestamp unit is cast to microseconds (a finer unit with
    sub-microsecond digits raises)."""
    types = {"user_id": pa.int64(), "ts": pa.timestamp("us"), "event_type": pa.string()}
    return read(sf_dir, "events", columns=columns), "user_id", {c: types[c] for c in columns}


def _by_user(events: pd.DataFrame):
    """``events`` in (user_id, ts) order, its int64 user ids and ts
    microseconds, and where each user's run starts."""
    g = events.sort_values(["user_id", "ts"], kind="mergesort")
    u = g["user_id"].to_numpy(np.int64)
    new = np.ones(len(u), dtype=bool)
    new[1:] = u[1:] != u[:-1]
    return g, u, g["ts"].to_numpy("datetime64[us]").view(np.int64), new


def sessionize(sf_dir: str, gap_minutes: int = GAP_MINUTES):
    """-> (user_id, session_idx, n_events, start_epoch, end_epoch) ints."""
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def sessions(events: pd.DataFrame) -> pd.DataFrame:
        _g, u, ts, new_user = _by_user(events)
        new = new_user.copy()
        new[1:] |= np.diff(ts) > gap_us
        sid = np.cumsum(new)
        # sessions counted from 0 again at every user's first event
        first = np.maximum.accumulate(np.where(new_user, sid, 0))
        df = pd.DataFrame({"user_id": u, "session_idx": sid - first, "t": ts // 1_000_000})
        return df.groupby(["user_id", "session_idx"], as_index=False).agg(
            n_events=("t", "size"), start_epoch=("t", "min"), end_epoch=("t", "max")
        )

    return co_partition(sessions, events=_events(sf_dir, ["user_id", "ts"]))


def asof_last_view(sf_dir: str):
    """As-of join: for every 'purchase' event, the most recent 'view' by
    the same user at or before it (one ``pd.merge_asof`` backward, by
    user). NULL view_epoch when no prior view.

    -> (user_id, purchase_epoch, view_epoch nullable), epoch = floor seconds.
    """

    def last_view(events: pd.DataFrame) -> pd.DataFrame:
        ts = events["ts"].to_numpy("datetime64[us]").view(np.int64)
        e = events.assign(ts=ts, epoch=ts // 1_000_000).sort_values("ts", kind="mergesort")
        cols = ["user_id", "ts", "epoch"]
        buys = e.loc[e["event_type"] == "purchase", cols].rename(columns={"epoch": "purchase_epoch"})
        views = e.loc[e["event_type"] == "view", cols].rename(columns={"epoch": "view_epoch"})
        m = pd.merge_asof(buys, views, on="ts", by="user_id", direction="backward")
        # view_epoch carried as float64 (NaN = no prior view): pandas
        # nullable Int64 does not survive the Arrow conversion, and epoch
        # seconds are exact in float64
        return m.astype({"view_epoch": np.float64})[["user_id", "purchase_epoch", "view_epoch"]]

    return co_partition(last_view, events=_events(sf_dir, ["user_id", "ts", "event_type"]))


ASOF_LAST_VIEW_SQL = """
WITH m AS (
  SELECT user_id, ts, event_type,
         max(CASE WHEN event_type = 'view' THEN ts END)
             OVER (PARTITION BY user_id ORDER BY ts
                   RANGE UNBOUNDED PRECEDING) AS last_view
  FROM events)
SELECT user_id,
       CAST(floor(epoch(ts)) AS BIGINT) AS purchase_epoch,
       CAST(floor(epoch(last_view)) AS BIGINT) AS view_epoch
FROM m WHERE event_type = 'purchase'
"""


def sessionize_sql(gap_minutes: int = GAP_MINUTES) -> str:
    return f"""
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {gap_minutes} MINUTE
              OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events),
numbered AS (
  SELECT user_id, ts,
         SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
  FROM marked)
SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
       count(*) AS n_events,
       CAST(floor(epoch(min(ts))) AS BIGINT) AS start_epoch,
       CAST(floor(epoch(max(ts))) AS BIGINT) AS end_epoch
FROM numbered GROUP BY user_id, session_idx
"""


# ------------------------------------------------- funnel analysis
#
# Sequential pattern matching over event streams (SQL MATCH_RECOGNIZE's
# most common real use): how far does each user get through the
# view -> click -> purchase funnel, with each step strictly AFTER the
# previous one?  The missing event-sequence shape next to sessionize
# (gaps) and asof (latest-before).
#
# Distributed form: one co-partition on user_id co-locates each user's
# events; inside a group ONE mergesort orders every user's stream and a
# per-step vectorized scan resolves all users at once: the rows of the
# step's event type later than the user's previous step, and each user's
# first such row.  Timestamps stay int64 microseconds end-to-end (exact,
# no tz/unit drift), absent steps are -1.

FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_steps(sf_dir: str):
    """(user_id, reached, t1_us, t2_us, t3_us): first 'view', first
    'click' after it, first 'purchase' after that, per user; ``reached``
    counts completed steps (0..3), missing steps are -1.  Value-exact
    DuckDB twin in :func:`funnel_steps_sql`."""

    def steps(events: pd.DataFrame) -> pd.DataFrame:
        g, u, ts, new = _by_user(events)
        et = g["event_type"].to_numpy(object)
        user = np.cumsum(new) - 1  # each row's user, numbered 0..
        t = np.full((len(FUNNEL_STEPS), int(new.sum())), -1, dtype=np.int64)
        prev = np.full(t.shape[1], np.iinfo(np.int64).min)
        for step, name in enumerate(FUNNEL_STEPS):
            # "after" is STRICT TIME (ts > previous step's ts), matching
            # the SQL twin even when events share a microsecond
            rows = np.flatnonzero((et == name) & (ts > prev[user]))
            found, first = np.unique(user[rows], return_index=True)
            t[step, found] = ts[rows[first]]
            prev = np.full(t.shape[1], np.iinfo(np.int64).max)  # a missed step ends the funnel
            prev[found] = t[step, found]
        return pd.DataFrame(
            {
                "user_id": u[new],
                "reached": (t >= 0).sum(axis=0).astype(np.int64),
                "t1_us": t[0],
                "t2_us": t[1],
                "t3_us": t[2],
            }
        )

    return co_partition(steps, events=_events(sf_dir, ["user_id", "ts", "event_type"]))


def funnel_steps_sql() -> str:
    return """
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us, event_type
  FROM events),
s1 AS (
  SELECT user_id, min(ts_us) AS t1 FROM e
  WHERE event_type = 'view' GROUP BY 1),
s2 AS (
  SELECT e.user_id, min(e.ts_us) AS t2
  FROM e JOIN s1 USING (user_id)
  WHERE e.event_type = 'click' AND e.ts_us > s1.t1 GROUP BY 1),
s3 AS (
  SELECT e.user_id, min(e.ts_us) AS t3
  FROM e JOIN s2 USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts_us > s2.t2 GROUP BY 1)
SELECT u.user_id,
       CAST((s1.t1 IS NOT NULL)::INT + (s2.t2 IS NOT NULL)::INT
            + (s3.t3 IS NOT NULL)::INT AS BIGINT) AS reached,
       COALESCE(s1.t1, -1) AS t1_us,
       COALESCE(s2.t2, -1) AS t2_us,
       COALESCE(s3.t3, -1) AS t3_us
FROM (SELECT DISTINCT user_id FROM e) u
LEFT JOIN s1 USING (user_id)
LEFT JOIN s2 USING (user_id)
LEFT JOIN s3 USING (user_id)
"""

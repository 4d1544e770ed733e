"""Session windows over the events stream — a custom windowed aggregate
Ray Data lacks natively (SURVEY.md §2.9 notes the reference has no
streaming ops; the engine contract requires windowed aggregates anyway).

Semantics: per user, events sorted by ts; a new session starts when the gap
to the previous event exceeds ``gap``. Implemented as
``groupby(user_id).map_groups`` with a vectorized in-group pass —
partitioning assumption: one user's events fit one group (holds by
construction of the groupby; for a pathological single-user firehose the
key would need salting plus a session-merge pass).

The DuckDB oracle expresses the identical windowing with LAG + a running
sum — the standard SQL sessionization idiom.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import co_partition, read

GAP_MINUTES = 30


def sessionize(sf_dir: str, gap_minutes: int = GAP_MINUTES):
    """-> (user_id, session_idx, n_events, start_epoch, end_epoch) ints."""
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    ds = read(sf_dir, "events", columns=["user_id", "ts"])

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(group["ts"].to_numpy("datetime64[us]")).astype(np.int64)
        new_session = np.ones(len(ts), dtype=np.int64)
        new_session[1:] = (np.diff(ts) > gap_us).astype(np.int64)
        sid = np.cumsum(new_session) - 1
        df = pd.DataFrame({"session_idx": sid, "t": ts})
        agg = df.groupby("session_idx", as_index=False).agg(
            n_events=("t", "size"), start=("t", "min"), end=("t", "max")
        )
        return pd.DataFrame(
            {
                "user_id": np.int64(group["user_id"].iloc[0]),
                "session_idx": agg["session_idx"].to_numpy(np.int64),
                "n_events": agg["n_events"].to_numpy(np.int64),
                "start_epoch": agg["start"].to_numpy(np.int64) // 1_000_000,
                "end_epoch": agg["end"].to_numpy(np.int64) // 1_000_000,
            }
        )

    return ds.groupby("user_id").map_groups(per_user, batch_format="pandas")


def asof_last_view(sf_dir: str):
    """As-of join: for every 'purchase' event, the most recent 'view' by
    the same user at or before it (ray_guide as-of pattern: sort within the
    user group, pd.merge_asof backward). NULL view_epoch when no prior view.

    -> (user_id, purchase_epoch, view_epoch nullable), epoch = floor seconds.
    Partitioning assumption: one user's events fit one group (same as
    sessionize).
    """
    ds = read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("ts", kind="stable")
        purchases = g[g["event_type"] == "purchase"][["ts"]]
        views = g[g["event_type"] == "view"][["ts"]].rename(columns={"ts": "view_ts"})
        if purchases.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "purchase_epoch": pd.Series([], dtype=np.int64),
                    "view_epoch": pd.Series([], dtype=np.float64),
                }
            )
        merged = pd.merge_asof(
            purchases, views, left_on="ts", right_on="view_ts", direction="backward"
        )

        def to_epoch(s):
            return s.astype("datetime64[us]").astype("int64") // 1_000_000

        # view_epoch carried as float64 (NaN = no prior view): pandas
        # nullable Int64 does not survive the Arrow conversion, and epoch
        # seconds are exact in float64
        ve = to_epoch(merged["view_ts"].fillna(pd.Timestamp(0))).astype(np.float64)
        ve[merged["view_ts"].isna().to_numpy()] = np.nan
        return pd.DataFrame(
            {
                "user_id": np.int64(group["user_id"].iloc[0]),
                "purchase_epoch": to_epoch(merged["ts"]).astype(np.int64),
                "view_epoch": ve.to_numpy(),
            }
        )

    return ds.groupby("user_id").map_groups(per_user, batch_format="pandas")


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
# per-step vectorized scan (segment-first 'view', then searchsorted for
# the first later 'click', then 'purchase') resolves all users at once.
# Timestamps stay int64 microseconds end-to-end (exact, no tz/unit
# drift), absent steps are -1.

FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_steps(sf_dir: str):
    """(user_id, reached, t1_us, t2_us, t3_us): first 'view', first
    'click' after it, first 'purchase' after that, per user; ``reached``
    counts completed steps (0..3), missing steps are -1.  Value-exact
    DuckDB twin in :func:`funnel_steps_sql`."""

    def per_user(events: pd.DataFrame) -> pd.DataFrame:
        g = events.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy(object)
        new = np.ones(len(u), dtype=bool)
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(u))
        users = u[starts]
        t = np.full((3, len(users)), -1, dtype=np.int64)
        # per-user slices; steps resolved with boolean masks (user
        # streams are short — the heavy lifting was the exchange).
        # "After" is STRICT TIME (ts > previous step's ts), matching the
        # SQL twin even when events share a microsecond.
        for k, (s, e) in enumerate(zip(starts, ends)):
            prev = np.int64(-(1 << 62))  # before any real timestamp
            for step, name in enumerate(FUNNEL_STEPS):
                idx = np.flatnonzero(
                    (et[s:e] == name) & (ts[s:e] > prev)
                )
                if len(idx) == 0:
                    break
                t[step, k] = ts[s + idx[0]]
                prev = t[step, k]
        reached = (t >= 0).sum(axis=0).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": users,
                "reached": reached,
                "t1_us": t[0],
                "t2_us": t[1],
                "t3_us": t[2],
            }
        )

    # any Arrow timestamp unit is cast to microseconds (the twin's
    # epoch_us); a finer unit with sub-microsecond digits raises
    return co_partition(
        per_user,
        events=(
            read(sf_dir, "events", columns=["user_id", "ts", "event_type"]),
            "user_id",
            {"user_id": pa.int64(), "ts": pa.timestamp("us"), "event_type": pa.string()},
        ),
    )


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

"""Relational operator coverage over the TPC-H-ish tables.

Demonstrates the engine's generic query shapes with exact DuckDB oracles:
keyed aggregates over per-block partials (q1), broadcast hash join
(revenue by segment), global and per-group top-k, distinct counting, and
event-time windowed aggregation.  Every keyed aggregate is one
:func:`ops.reduce_by` or :func:`ops.co_partition` exchange.
Float aggregates are rounded to 2 decimals on BOTH sides (sum order differs
between engines; doubles carry ~15 digits so cents-rounding is stable).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import co_partition, read, reduce_by, top_k


def _cents(col) -> np.ndarray:
    """float column -> int64 cents, floor(x*100+0.5) (the repo-wide
    quantize idiom, same expression as every SQL twin)."""
    return np.floor(col.to_numpy() * 100.0 + 0.5).astype(np.int64)


def _round2(df: pd.DataFrame) -> pd.DataFrame:
    """Every float column rounded to cents, as the SQL twins' round(x, 2)."""
    return df.round(2)


def _hour(ts: pd.Series) -> pd.Series:
    """1h window key as int64 epoch seconds: engine-neutral, so Arrow and
    DuckDB outputs cannot disagree on a timestamp unit."""
    return ts.dt.floor("h").astype("datetime64[s]").astype("int64").astype(np.int64)


def q1_pricing(sf_dir: str):
    """Pricing summary: per-block partial aggregates, one keyed exchange."""
    ds = read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["disc_price"] = df["l_extendedprice"] * (1 - df["l_discount"])
        return df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc_price=("disc_price", "sum"),
            count_order=("l_quantity", "size"),
        )

    return reduce_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {"l_returnflag": pa.string(), "l_linestatus": pa.string(), "sum_qty": pa.float64(),
         "sum_base_price": pa.float64(), "sum_disc_price": pa.float64(),
         "count_order": pa.int64()},
    ).map_batches(_round2, batch_format="pandas")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def _segment_revenue(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby("c_mktsegment", as_index=False).agg(
        revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
    )


def _sum_segments(partials):
    return reduce_by(
        partials,
        "c_mktsegment",
        {"c_mktsegment": pa.string(), "revenue": pa.float64(), "n_orders": pa.int64()},
    ).map_batches(_round2, batch_format="pandas")


def revenue_by_segment(sf_dir: str):
    """orders x customer broadcast hash join -> revenue per market segment.
    The customer side is ray.put once; each batch does a vectorized pandas
    merge against it — no shuffle join for a dimension table."""
    import ray
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    cust_ref = ray.put(cust)

    ds = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def join_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.merge(ray.get(cust_ref), left_on="o_custkey", right_on="c_custkey", how="inner")
        return _segment_revenue(df)

    return _sum_segments(ds.map_batches(join_partial, batch_format="pandas"))


REVENUE_BY_SEGMENT_SQL = """
SELECT c_mktsegment,
       round(sum(o_totalprice), 2) AS revenue,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def revenue_by_segment_join(sf_dir: str, num_partitions: int = 8):
    """Same query via the native hash-partitioned ``Dataset.join`` — the
    both-sides-large plan (broadcast twin above shows the small-side plan).
    """
    orders = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = orders.join(
        cust,
        "inner",
        num_partitions=num_partitions,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    return _sum_segments(joined.map_batches(_segment_revenue, batch_format="pandas"))


def top_customers(sf_dir: str, k: int = 10):
    """Global top-k customers by account balance through :func:`ops.top_k`:
    each block keeps its own k, so the input is never sorted whole."""
    ds = read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])

    def round_balance(batch: pa.Table) -> pa.Table:
        # in Arrow: a pandas round trip of every customer row costs more
        # than the top-k
        i = batch.schema.get_field_index("c_acctbal")
        return batch.set_column(i, "c_acctbal", pc.round(batch["c_acctbal"], 2))

    return top_k(
        ds.map_batches(round_balance, batch_format="pyarrow"),
        None,
        [("c_acctbal", False), ("c_custkey", True)],
        k,
        {"c_custkey": pa.int64(), "c_name": pa.string(), "c_acctbal": pa.float64()},
    ).drop_columns(["rank"])


def top_customers_sql(k: int = 10) -> str:
    return f"""
SELECT c_custkey, c_name, round(c_acctbal, 2) AS c_acctbal
FROM customer ORDER BY c_acctbal DESC, c_custkey ASC LIMIT {k}
"""


def top_orders_per_customer(sf_dir: str, k: int = 2):
    """Per-group top-k (the ROW_NUMBER window shape): each customer's k
    highest-value orders, through :func:`ops.top_k` — never a global sort.
    Ranks on the raw price and rounds only after: rounding first would
    change which order wins a tie."""
    ds = read(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def round_price(batch: pd.DataFrame) -> pd.DataFrame:
        batch["o_totalprice"] = batch["o_totalprice"].round(2)
        return batch

    ranked = top_k(
        ds,
        "o_custkey",
        [("o_totalprice", False), ("o_orderkey", True)],
        k,
        {"o_custkey": pa.int64(), "o_orderkey": pa.int64(), "o_totalprice": pa.float64()},
    )
    return ranked.map_batches(round_price, batch_format="pandas")


def top_orders_per_customer_sql(k: int = 2) -> str:
    return f"""
SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
       CAST(row_number() OVER (
            PARTITION BY o_custkey
            ORDER BY o_totalprice DESC, o_orderkey ASC) AS BIGINT) AS rank
FROM orders QUALIFY rank <= {k}
"""


def events_hourly(sf_dir: str):
    """Event-time tumbling window (1h) aggregate — Ray Data has no native
    windows, so the window key is computed vectorized per batch and the
    aggregation is one keyed exchange (ray_guide streaming-shaped pattern)."""
    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["hour"] = _hour(df["ts"])
        return df.groupby(["event_type", "hour"], as_index=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )

    return reduce_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour"],
        {"event_type": pa.string(), "hour": pa.int64(), "n": pa.int64(), "sum_value": pa.float64()},
    ).map_batches(_round2, batch_format="pandas")


EVENTS_HOURLY_SQL = """
SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour,
       count(*) AS n, round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def user_activity(sf_dir: str):
    """Per-user activity profile incl. an exact distinct count.

    Per-batch partial aggregation of (user_id, event_type) pairs, then one
    exchange on user_id whose close-out sums each pair and rolls the pairs
    up per user, where the distinct count is a plain row count: every user
    of the group at once, no Python call per user on this
    high-cardinality key."""
    ds = read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )

    def per_user(pairs: pd.DataFrame) -> pd.DataFrame:
        g = pairs.groupby(["user_id", "event_type"], as_index=False, sort=False).sum()
        return _round2(g.groupby("user_id", as_index=False, sort=False).agg(
            n_events=("n", "sum"), n_types=("n", "size"), sum_value=("sum_value", "sum")
        ))

    return co_partition(
        per_user,
        pairs=(
            ds.map_batches(partial, batch_format="pandas"),
            "user_id",
            {"user_id": pa.int64(), "event_type": pa.string(), "n": pa.int64(),
             "sum_value": pa.float64()},
        ),
    )


USER_ACTIVITY_SQL = """
SELECT user_id, count(*) AS n_events,
       count(DISTINCT event_type) AS n_types,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY user_id
"""


def supplier_nation(sf_dir: str):
    """supplier x nation broadcast join -> per-nation supplier stats."""
    import ray
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nation_ref = ray.put(nation)

    ds = read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey", "s_acctbal"])

    def join_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.merge(ray.get(nation_ref), left_on="s_nationkey", right_on="n_nationkey", how="inner")
        return df.groupby("n_name", as_index=False).agg(
            n_suppliers=("s_suppkey", "size"), sum_acctbal=("s_acctbal", "sum")
        )

    return reduce_by(
        ds.map_batches(join_partial, batch_format="pandas"),
        "n_name",
        {"n_name": pa.string(), "n_suppliers": pa.int64(), "sum_acctbal": pa.float64()},
    ).map_batches(_round2, batch_format="pandas")


SUPPLIER_NATION_SQL = """
SELECT n_name, count(*) AS n_suppliers, round(sum(s_acctbal), 2) AS sum_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


def events_sliding(sf_dir: str, window_s: int = 3600, hop_s: int = 900):
    """Event-time SLIDING (hopping) window aggregate: every event lands in
    ``window_s / hop_s`` overlapping windows aligned to the hop grid.

    Same distributed shape as :func:`events_hourly` — window membership is
    enumerated vectorized per batch (np.repeat over the fixed window
    count; with hop | window every event belongs to exactly window/hop
    windows, the general-membership proof mirrors the audio framing), then
    partial counts ride one keyed exchange.  Window keys are epoch-second
    ints derived from exact microsecond arithmetic, matching DuckDB's
    ``epoch_us`` bigint on the oracle side."""
    if window_s % hop_s:
        raise ValueError("hop must divide window for exact membership")
    nwin = window_s // hop_s
    hop_us = hop_s * 1_000_000

    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        base = t_us // hop_us
        k = np.tile(np.arange(nwin, dtype=np.int64), len(df))
        win = (np.repeat(base, nwin) - k) * hop_us // 1_000_000
        # quantize to integer cents BEFORE summing: float sums depend on
        # association order, and a sliding window re-associates every
        # partial differently from the SQL engine — integer sums are exact
        # on both sides (floor(x*100+0.5), the repo-wide quantize idiom)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].to_numpy(), nwin),
                "win_start": win,
                "cents": np.repeat(cents, nwin),
            }
        ).groupby(["event_type", "win_start"], as_index=False).agg(
            n=("cents", "size"), sum_cents=("cents", "sum")
        )

    return reduce_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "win_start"],
        {"event_type": pa.string(), "win_start": pa.int64(), "n": pa.int64(),
         "sum_cents": pa.int64()},
    )


def events_sliding_sql(window_s: int = 3600, hop_s: int = 900) -> str:
    nwin = window_s // hop_s
    hop_us = hop_s * 1_000_000
    # hop-grid base via FLOOR division in exact integer arithmetic
    # (e - ((e % h + h) % h)) // h: DuckDB's // truncates toward zero while
    # the engine's numpy // floors, so the keys would diverge for
    # pre-1970 timestamps; the mod-correction makes both sides floor.
    # The later w // 1000000 stays trunc-safe: w is an exact multiple.
    return f"""
SELECT event_type,
       CAST(w // 1000000 AS BIGINT) AS win_start,
       count(*) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents
FROM (
  SELECT event_type, value,
         unnest(list_transform(range({nwin}),
                k -> ((e - ((e % {hop_us} + {hop_us}) % {hop_us})) // {hop_us}
                      - k) * {hop_us})) AS w
  FROM (SELECT event_type, value, epoch_us(ts) AS e FROM events))
GROUP BY 1, 2
"""


# ---------------------------------------------- per-group exact quantile
#
# The per-key sibling of ops.textstats.token_quantile_filter: an exact
# percentile PER GROUP with NO driver step at all — per-batch
# (key, value) histogram partials, then one co-partition on the key whose
# close-out sums each key's histogram and scans it for the threshold,
# every key of the group at once.  The shuffle carries one row per
# distinct (key, quantized value) per block; a key's close-out is
# bounded by that key's distinct values, never its row count — the
# shape that survives a skewed 100 TB keyspace.


def _key_quantiles(hist: pd.DataFrame, key: str, pct: int) -> pd.DataFrame:
    """(key, p_cents, n) from (key, cents, c) histogram rows in any order,
    repeats summed: ``textstats.quantile_threshold`` of every key at once
    (the first cents whose running count reaches ``pct`` percent)."""
    h = hist.groupby([key, "cents"], as_index=False, sort=True)["c"].sum()
    by_key = h.groupby(key)["c"]
    n = by_key.transform("sum")
    at = h[100 * by_key.cumsum() >= pct * n].drop_duplicates(key)
    return pd.DataFrame(
        {key: at[key], "p_cents": at["cents"].astype(np.int64), "n": n[at.index].astype(np.int64)}
    )


def events_value_quantile(sf_dir: str, pct: int = 90):
    """(event_type, p_cents, n): the exact ``pct``-th percentile of
    integer-cents event value per event type — smallest cents c with
    100 * cum_count(c) >= pct * n_group — plus the group count.
    Value-exact DuckDB twin in :func:`events_value_quantile_sql`."""
    ds = read(sf_dir, "events", columns=["event_type", "value"])

    def hist_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # floor(x*100+0.5): the repo-wide float->int-cents convention
        # (matches DuckDB floor, which rounds toward -inf)
        df["cents"] = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(
            np.int64
        )
        g = df.groupby(["event_type", "cents"], as_index=False).agg(
            c=("cents", "size")
        )
        g["c"] = g["c"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return co_partition(
        lambda hist: _key_quantiles(hist, "event_type", pct),
        hist=(
            ds.map_batches(hist_partial, batch_format="pyarrow"),
            "event_type",
            {"event_type": pa.string(), "cents": pa.int64(), "c": pa.int64()},
        ),
    )


def events_value_quantile_sql(pct: int = 90) -> str:
    return f"""
WITH s AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events),
h AS (SELECT event_type, cents, count(*) AS c FROM s GROUP BY 1, 2),
w AS (
  SELECT event_type, cents,
         sum(c) OVER (PARTITION BY event_type ORDER BY cents) AS cum,
         sum(c) OVER (PARTITION BY event_type) AS n
  FROM h)
SELECT event_type, CAST(min(cents) AS BIGINT) AS p_cents,
       CAST(min(n) AS BIGINT) AS n
FROM w WHERE 100 * cum >= {pct} * n GROUP BY 1
"""


# ------------------------------------- mergeable float-quantile sketch
#
# A mergeable quantile sketch over NON-integer signals.  KLL and
# fixed-point t-digest are not hash-verifiable in this engine: both
# compact as a function of merge ORDER, and Ray's block/merge order is
# nondeterministic — the same corpus yields
# different (equally valid) sketch states run to run, which the
# driver's value-hash gate would flag as a mismatch.  The deterministic
# order-independent mergeable alternative used here is a bottom-k-by-
# hash uniform sample (KMV-style): score every row with the LCG
# scramble u = (event_id * A + C) % M (the sample_per_group constants)
# and keep the k smallest (u, event_id) rows.  Bottom-k of a union is
# associative, commutative and idempotent, so the sketch is a pure
# function of the row SET — hash-verified exactly like the HLL/CMS
# sketches — and two sketches merge by re-taking bottom-k (tested).
# The kept rows carry the RAW FLOAT value untouched (no cents
# quantization), so quantile estimates work on any float signal;
# estimator rank error is the uniform-sample bound O(sqrt(q(1-q)/k)).
# KLL beats that per byte but cannot be value-verified under
# nondeterministic merge order — a documented trade, not an oversight.
# Scale shape: per-batch partial bottom-k (the shuffle carries <= k
# rows per block), one single-group merge bounded at k * n_blocks rows.

SKETCH_K = 256


def value_quantile_sketch(sf_dir: str, k: int = SKETCH_K):
    """(rn, event_id, u, value): the k events with the smallest LCG-
    scrambled id — a deterministic uniform value sample for float
    quantile estimation.  Exact twin in
    :func:`value_quantile_sketch_sql`; estimator in
    :func:`sketch_quantile`."""
    from .sampling import SAMPLE_A, SAMPLE_C, SAMPLE_M

    ds = read(sf_dir, "events", columns=["event_id", "value"])

    def scramble(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy()
        # same enforced precondition as sample_per_group: id*A must not
        # wrap int64 where the DuckDB twin would raise instead
        if len(ids) and int(ids.max()) >= 1 << 32:
            raise ValueError(
                "value_quantile_sketch requires event_id < 2^32 (got "
                f"{int(ids.max())}); pre-reduce ids mod {SAMPLE_M}"
            )
        return batch.append_column("u", pa.array((ids * SAMPLE_A + SAMPLE_C) % SAMPLE_M))

    ranked = top_k(
        ds.map_batches(scramble, batch_format="pyarrow"),
        None,
        [("u", True), ("event_id", True)],
        k,
        {"event_id": pa.int64(), "u": pa.int64(), "value": pa.float64()},
    )
    return ranked.rename_columns({"rank": "rn"}).select_columns(["rn", "event_id", "u", "value"])


def value_quantile_sketch_sql(k: int = SKETCH_K) -> str:
    from .sampling import SAMPLE_A, SAMPLE_C, SAMPLE_M

    return f"""
SELECT CAST(rn AS BIGINT) AS rn, event_id, CAST(u AS BIGINT) AS u, value
FROM (
  SELECT event_id, (event_id * {SAMPLE_A} + {SAMPLE_C}) % {SAMPLE_M} AS u,
         value,
         row_number() OVER (
           ORDER BY (event_id * {SAMPLE_A} + {SAMPLE_C}) % {SAMPLE_M} ASC,
                    event_id ASC) AS rn
  FROM events)
WHERE rn <= {k}
"""


def sketch_quantile(values: np.ndarray, pct: int) -> float:
    """Quantile estimate from the sketch's value sample: the same
    inverted-CDF rule as :func:`pytorchocr_ray.ops.textstats.quantile_threshold`
    applied to the uniform sample (each kept row stands for n/k rows)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    idx = int(np.searchsorted(100 * np.arange(1, n + 1), pct * n, side="left"))
    return float(v[min(idx, n - 1)])


# ------------------------------------------------- non-equi range join
#
# Interval (theta) join: events priced into static value tiers — the one
# join shape the equality-keyed coverage above can't express
# (ON v >= lo AND v < hi).  The tier table is a literal constant, so the
# distributed form is a BROADCAST range lookup: every block bins its own
# rows with one searchsorted against the sorted tier bounds — no
# shuffle at all; the close-out aggregate is tier-bounded (|tiers| rows
# per block).  At 100 TB this is the canonical small-side non-equi join:
# the big side streams, the range side rides the closure.
#
# Tiers are half-open [lo, hi) in integer cents (the repo-wide
# floor(x*100+0.5) convention) and deliberately leave a GAP (no tier
# covers [150_00, 200_00)) so the anti-join path — rows matching no
# interval are dropped — is exercised, exactly as SQL's inner join
# semantics require.

VALUE_TIERS = (
    # (tier, lo_cents, hi_cents)
    ("micro", 0, 5_00),
    ("small", 5_00, 20_00),
    ("mid", 20_00, 80_00),
    ("large", 80_00, 150_00),
    ("jumbo", 200_00, 1 << 31),
)


def _bin_tiers(cents: np.ndarray, los: np.ndarray, his: np.ndarray):
    """(n, sum) per tier of the half-open [lo, hi) tiers sorted by lo;
    rows in no tier are dropped (inner-join semantics).  The sums are
    exact int64, past 2^53 too."""
    # searchsorted gives the candidate tier, the hi check drops gap rows
    idx = np.searchsorted(los, cents, side="right") - 1
    ok = (idx >= 0) & (cents < his[np.clip(idx, 0, len(his) - 1)])
    idx, cents = idx[ok], cents[ok]
    s = np.zeros(len(los), dtype=np.int64)
    np.add.at(s, idx, cents)
    return np.bincount(idx, minlength=len(los)).astype(np.int64), s


def range_join_tiers(sf_dir: str):
    """(tier, lo_cents, hi_cents, n_events, sum_cents) per value tier:
    events inner-joined to the static tier intervals on
    lo <= cents < hi.  Value-exact DuckDB twin in
    :func:`range_join_tiers_sql`."""
    ds = read(sf_dir, "events", columns=["value"])
    los = np.array([t[1] for t in VALUE_TIERS], dtype=np.int64)
    his = np.array([t[2] for t in VALUE_TIERS], dtype=np.int64)
    names = np.array([t[0] for t in VALUE_TIERS], dtype=object)

    def bin_partial(batch: pa.Table) -> pa.Table:
        n, s = _bin_tiers(_cents(batch["value"]), los, his)
        nz = n > 0
        return pa.table(
            {
                "tier": pa.array(names[nz]),
                "lo_cents": pa.array(los[nz]),
                "hi_cents": pa.array(his[nz]),
                "n_events": pa.array(n[nz]),
                "sum_cents": pa.array(s[nz]),
            }
        )

    return reduce_by(
        ds.map_batches(bin_partial, batch_format="pyarrow"),
        ["tier", "lo_cents", "hi_cents"],
        {"tier": pa.string(), "lo_cents": pa.int64(), "hi_cents": pa.int64(),
         "n_events": pa.int64(), "sum_cents": pa.int64()},
    )


def range_join_tiers_sql() -> str:
    vals = ", ".join(f"('{t}', {lo}, {hi})" for t, lo, hi in VALUE_TIERS)
    return f"""
WITH tiers(tier, lo, hi) AS (VALUES {vals}),
e AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents FROM events)
SELECT t.tier,
       CAST(t.lo AS BIGINT) AS lo_cents,
       CAST(t.hi AS BIGINT) AS hi_cents,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(e.cents) AS BIGINT) AS sum_cents
FROM e JOIN tiers t ON e.cents >= t.lo AND e.cents < t.hi
GROUP BY 1, 2, 3
"""


# -------------------------------------------------- distributed anti-join
#
# TPC-H Q22's shape: customers with NO order in a filtered order class
# (here: no order with status 'P'), rolled up by market segment.  The
# missing join flavor in this file's coverage — broadcast joins attach,
# range joins bin, and this one EXCLUDES.  (Like the real Q22, the
# right side is filtered — in this corpus every customer has SOME
# order, so the unfiltered anti set would be empty everywhere.)
#
# Distributed form: both sides meet in ONE co-partition on custkey.  The
# orders side sheds everything but a DISTINCT custkey per batch before
# the exchange (per-batch dedup partial), so the shuffled volume is
# bounded by distinct customers, not order count.  Each group then
# anti-sets locally (np.isin) and emits per-segment partials; a second,
# segment-bounded (5 rows) exchange sums them.

ANTI_STATUS = "P"


def customers_without_orders(sf_dir: str, status: str = ANTI_STATUS):
    """(c_mktsegment, n_customers, sum_acctbal_cents) over customers with
    no ``status``-class order.  Value-exact DuckDB twin in
    :func:`customers_without_orders_sql`."""
    def cust_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch["c_custkey"],
                "segment": batch["c_mktsegment"],
                "cents": pa.array(_cents(batch["c_acctbal"])),
            }
        )

    def order_keys(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["o_orderstatus"], status))
        return pa.table({"custkey": pa.array(np.unique(batch["o_custkey"].to_numpy()))})

    def anti_partial(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        lone = cust[~np.isin(cust["custkey"].to_numpy(), orders["custkey"].to_numpy())]
        return lone.groupby("segment", as_index=False).agg(
            n_customers=("custkey", "size"), sum_acctbal_cents=("cents", "sum")
        ).rename(columns={"segment": "c_mktsegment"})

    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    partials = co_partition(
        anti_partial,
        cust=(
            cust.map_batches(cust_rows, batch_format="pyarrow"),
            "custkey",
            {"custkey": pa.int64(), "segment": pa.string(), "cents": pa.int64()},
        ),
        orders=(
            orders.map_batches(order_keys, batch_format="pyarrow"),
            "custkey",
            {"custkey": pa.int64()},
        ),
    )
    return reduce_by(
        partials,
        "c_mktsegment",
        {"c_mktsegment": pa.string(), "n_customers": pa.int64(), "sum_acctbal_cents": pa.int64()},
    )


def customers_without_orders_sql(status: str = ANTI_STATUS) -> str:
    return f"""
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(CAST(floor(c.c_acctbal * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_acctbal_cents
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey AND o.o_orderstatus = '{status}')
GROUP BY 1
"""


# ---------------------------------------------- running-total window
#
# The cumulative window shape (SUM OVER PARTITION ORDER BY) none of the
# tumbling/hopping/quantile windows above cover: each user's running
# spend over their event stream.  Distributed form: users co-locate via
# a co-partition on user_id; inside a group one mergesort + segment cumsum
# handles every user vectorized (no per-user Python loop, the
# source_budget_cap segment pattern).  Output is event-sized, exactly
# like the SQL window it mirrors.

def user_running_total(sf_dir: str):
    """(event_id, user_id, cum_cents): per-user running total of value
    in cents, ordered by (ts, event_id).  Value-exact DuckDB twin in
    :func:`user_running_total_sql`."""
    def key_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "cents": pa.array(_cents(batch["value"])),
            }
        )

    def running(events: pd.DataFrame) -> pd.DataFrame:
        g = events.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        u = g["user_id"].to_numpy(np.int64)
        c = g["cents"].to_numpy(np.int64)
        cum = np.cumsum(c)
        # subtract each user-segment's preceding prefix (vectorized
        # per-segment cumsum reset)
        new = np.ones(len(u), dtype=bool)
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(u)))
        seg_base = np.concatenate(([0], cum[starts[1:] - 1]))
        base = np.repeat(seg_base, lens)  # sign-safe (no max-fill trick)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                "user_id": u,
                "cum_cents": cum - base,
            }
        )

    ds = read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    return co_partition(
        running,
        events=(
            ds.map_batches(key_rows, batch_format="pyarrow"),
            "user_id",
            {"user_id": pa.int64(), "event_id": pa.int64(),
             "ts": pa.timestamp("us"), "cents": pa.int64()},
        ),
    )


def user_running_total_sql() -> str:
    return """
SELECT event_id, user_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_cents
FROM events
"""


# --------------------------------------------------- pivot aggregate
#
# Long-to-wide reshaping: one row per hour with a COLUMN per event type
# (the classic reporting pivot; events_hourly above is the long form).
# The type set is a static enum, so the pivot is a per-batch crosstab
# partial followed by one hour-keyed exchange — no second pass and
# no dynamic schema discovery (at 100 TB a dynamic pivot would need a
# distinct-key pre-pass; a fixed enum is the honest contract here, and
# unknown types are counted into ``n_other`` rather than dropped so
# nothing is silently lost).

EVENT_TYPES = ("view", "click", "purchase", "signup", "error")


def events_pivot(sf_dir: str):
    """(hour, n_view, n_click, n_purchase, n_signup, n_error, n_other,
    sum_cents): hourly counts per event type, wide.  Value-exact DuckDB
    twin in :func:`events_pivot_sql`."""
    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])
    cols = [f"n_{t}" for t in EVENT_TYPES] + ["n_other"]

    def crosstab(df: pd.DataFrame) -> pd.DataFrame:
        df["hour"] = _hour(df["ts"])
        df["sum_cents"] = np.floor(
            df["value"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        tcol = df["event_type"].to_numpy(object)
        for t in EVENT_TYPES:
            df[f"n_{t}"] = (tcol == t).astype(np.int64)
        df["n_other"] = (~np.isin(tcol, EVENT_TYPES)).astype(np.int64)
        return df.groupby("hour", as_index=False)[cols + ["sum_cents"]].sum()

    return reduce_by(
        ds.map_batches(crosstab, batch_format="pandas"),
        "hour",
        {"hour": pa.int64(), **{c: pa.int64() for c in cols + ["sum_cents"]}},
    )


def events_pivot_sql() -> str:
    per_type = ",\n       ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT)"
        f" AS n_{t}"
        for t in EVENT_TYPES
    )
    in_list = ", ".join(f"'{t}'" for t in EVENT_TYPES)
    return f"""
SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour,
       {per_type},
       CAST(count(*) FILTER (WHERE event_type NOT IN ({in_list}))
            AS BIGINT) AS n_other,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents
FROM events GROUP BY 1
"""


# ------------------------------------------------- rollup subtotals
#
# GROUP BY ROLLUP — the grouping-sets shape: (event_type, hour) detail
# rows PLUS per-type subtotals PLUS a grand total in one result.  Each
# block emits its partials for all three levels at once (the subtotal and
# total partials re-aggregate the block's own detail partial, so they are
# bounded by its (type, hour) count), and one keyed exchange sums every
# level: no second exchange over the detail aggregate, no extra pass over
# the corpus.  NULL grouping keys are encoded as '' / -1 sentinels so the
# result hash-verifies (the SQL twin COALESCEs identically).

def events_rollup(sf_dir: str):
    """(event_type, hour, n, sum_cents) at three grouping levels:
    detail, per-type subtotal (hour = -1), grand total (type = '',
    hour = -1).  Value-exact DuckDB twin in :func:`events_rollup_sql`."""
    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["hour"] = _hour(df["ts"])
        if ((df["event_type"] == "") | (df["hour"] < 0)).any():
            raise ValueError(
                "events_rollup: an event_type of '' or an hour before 1970 "
                "collides with the rollup's '' / -1 subtotal keys"
            )
        df["cents"] = np.floor(
            df["value"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        detail = df.groupby(["event_type", "hour"], as_index=False).agg(
            n=("cents", "size"), sum_cents=("cents", "sum")
        )
        by_type = detail.groupby("event_type", as_index=False)[["n", "sum_cents"]].sum()
        total = pd.DataFrame(
            {"event_type": [""], "n": [detail["n"].sum()], "sum_cents": [detail["sum_cents"].sum()]}
        )
        return pd.concat([detail, by_type.assign(hour=-1), total.assign(hour=-1)], ignore_index=True)

    return reduce_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour"],
        {"event_type": pa.string(), "hour": pa.int64(), "n": pa.int64(), "sum_cents": pa.int64()},
    )


def events_rollup_sql() -> str:
    return """
SELECT COALESCE(event_type, '') AS event_type,
       COALESCE(hour, -1) AS hour,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents
FROM (
  SELECT event_type,
         CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events)
GROUP BY ROLLUP (event_type, hour)
"""

"""Relational operator coverage over the TPC-H-ish tables.

Demonstrates the engine's generic query shapes with exact DuckDB oracles:
pre-aggregated groupby (q1), broadcast hash join (revenue by segment),
sort+limit top-k, distinct counting, and event-time windowed aggregation.
Float aggregates are rounded to 2 decimals on BOTH sides (sum order differs
between engines; doubles carry ~15 digits so cents-rounding is stable).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import co_partition, read, top_k


def _cents(col) -> np.ndarray:
    """float column -> int64 cents, floor(x*100+0.5) (the repo-wide
    quantize idiom, same expression as every SQL twin)."""
    return np.floor(col.to_numpy() * 100.0 + 0.5).astype(np.int64)


def _round2(col):
    return pc.round(col, ndigits=2)


def q1_pricing(sf_dir: str):
    """Pricing summary: per-batch partial aggregation -> tiny groupby."""
    from ray.data.aggregate import Sum

    ds = read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["disc_price"] = df["l_extendedprice"] * (1 - df["l_discount"])
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                sum_base_price=("l_extendedprice", "sum"),
                sum_disc_price=("disc_price", "sum"),
                count_order=("l_quantity", "size"),
            )
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_disc_price", alias_name="sum_disc_price"),
            Sum("count_order", alias_name="count_order"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": _round2(batch["sum_qty"]),
                "sum_base_price": _round2(batch["sum_base_price"]),
                "sum_disc_price": _round2(batch["sum_disc_price"]),
                "count_order": pc.cast(batch["count_order"], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def revenue_by_segment(sf_dir: str):
    """orders x customer broadcast hash join -> revenue per market segment.
    The customer side is ray.put once; each batch does a vectorized pandas
    merge against it — no shuffle join for a dimension table."""
    import ray
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    cust_ref = ray.put(cust)

    ds = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def join_partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cust_ref)
        df = batch.to_pandas().merge(
            c, left_on="o_custkey", right_on="c_custkey", how="inner"
        )
        g = df.groupby("c_mktsegment", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(join_partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue", alias_name="revenue"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "revenue": _round2(batch["revenue"]),
                "n_orders": pc.cast(batch["n_orders"], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


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
    from ray.data.aggregate import Sum

    orders = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = orders.join(
        cust,
        "inner",
        num_partitions=num_partitions,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("c_mktsegment", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue", alias_name="revenue"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "revenue": _round2(batch["revenue"]),
                "n_orders": pc.cast(batch["n_orders"], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def top_customers(sf_dir: str, k: int = 10):
    """sort + limit: top-k customers by account balance."""
    ds = read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])

    def prep(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("c_acctbal"),
            "c_acctbal",
            _round2(batch["c_acctbal"]),
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .sort(["c_acctbal", "c_custkey"], descending=[True, False])
        .limit(k)
    )


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
    aggregation is a plain groupby (ray_guide streaming-shaped pattern)."""
    from ray.data.aggregate import Sum

    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # window key as epoch seconds (int64) — engine-neutral, avoids
        # timestamp-unit mismatches between Arrow and DuckDB outputs
        df["hour"] = (
            df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        ).astype(np.int64)
        g = df.groupby(["event_type", "hour"], as_index=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour": batch["hour"],
                "n": pc.cast(batch["n"], pa.int64()),
                "sum_value": _round2(batch["sum_value"]),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_HOURLY_SQL = """
SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour,
       count(*) AS n, round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def user_activity(sf_dir: str):
    """Per-user activity profile incl. an exact distinct count.

    Pure aggregate shape — per-batch partial aggregation of
    (user_id, event_type) pairs, a small groupby-sum on that composite
    key, then a per-user roll-up where the distinct count is a plain row
    count; no Python call per user on this high-cardinality key."""
    from ray.data.aggregate import Count, Sum

    ds = read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.to_pandas()
            .groupby(["user_id", "event_type"], as_index=False)
            .agg(n=("value", "size"), sum_value=("value", "sum"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    per_type = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
    )
    per_user = per_type.groupby("user_id").aggregate(
        Sum("n", alias_name="n_events"),
        Count(alias_name="n_types"),
        Sum("sum_value", alias_name="sum_value"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "n_events": pc.cast(batch["n_events"], pa.int64()),
                "n_types": pc.cast(batch["n_types"], pa.int64()),
                "sum_value": _round2(batch["sum_value"]),
            }
        )

    return per_user.map_batches(finish, batch_format="pyarrow")


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

    def join_stage(batch: pa.Table) -> pa.Table:
        n = ray.get(nation_ref)
        df = batch.to_pandas().merge(
            n, left_on="s_nationkey", right_on="n_nationkey", how="inner"
        )
        g = df.groupby("n_name", as_index=False).agg(
            n_suppliers=("s_suppkey", "size"), sum_acctbal=("s_acctbal", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(join_stage, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(
            Sum("n_suppliers", alias_name="n_suppliers"),
            Sum("sum_acctbal", alias_name="sum_acctbal"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch["n_name"],
                "n_suppliers": pc.cast(batch["n_suppliers"], pa.int64()),
                "sum_acctbal": _round2(batch["sum_acctbal"]),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


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
    partial counts ride one groupby Sum.  Window keys are epoch-second
    ints derived from exact microsecond arithmetic, matching DuckDB's
    ``epoch_us`` bigint on the oracle side."""
    from ray.data.aggregate import Sum

    if window_s % hop_s:
        raise ValueError("hop must divide window for exact membership")
    nwin = window_s // hop_s
    hop_us = hop_s * 1_000_000

    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        t_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        base = t_us // hop_us
        k = np.tile(np.arange(nwin, dtype=np.int64), len(df))
        win = (np.repeat(base, nwin) - k) * hop_us // 1_000_000
        # quantize to integer cents BEFORE summing: float sums depend on
        # association order, and a sliding window re-associates every
        # partial differently from the SQL engine — integer sums are exact
        # on both sides (floor(x*100+0.5), the repo-wide quantize idiom)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        g = pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].to_numpy(), nwin),
                "win_start": win,
                "cents": np.repeat(cents, nwin),
            }
        ).groupby(["event_type", "win_start"], as_index=False).agg(
            n=("cents", "size"), sum_cents=("cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "win_start"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_cents", alias_name="sum_cents"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "win_start": batch["win_start"],
                "n": pc.cast(batch["n"], pa.int64()),
                "sum_cents": pc.cast(batch["sum_cents"], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


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
# (key, value) histogram partials, one (key, value) groupby-sum, then a
# per-key map_groups that scans its own (tiny) histogram for the
# threshold.  The shuffle carries one row per distinct (key, quantized
# value) per block; the per-key group is bounded by that key's distinct
# values, never its row count — the shape that survives a skewed
# 100 TB keyspace.


def events_value_quantile(sf_dir: str, pct: int = 90):
    """(event_type, p_cents, n): the exact ``pct``-th percentile of
    integer-cents event value per event type — smallest cents c with
    100 * cum_count(c) >= pct * n_group — plus the group count.
    Value-exact DuckDB twin in :func:`events_value_quantile_sql`."""
    from ray.data.aggregate import Sum

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

    def group_threshold(group: pd.DataFrame) -> pd.DataFrame:
        from .textstats import quantile_threshold

        g = group.sort_values("cents")
        c = g["c"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "p_cents": np.array(
                    [quantile_threshold(g["cents"].to_numpy(np.int64), c, pct)]
                ),
                "n": np.array([int(c.sum())], dtype=np.int64),
            }
        )

    return (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("c", alias_name="c"))
        .groupby("event_type")
        .map_groups(group_threshold, batch_format="pandas")
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

    def close(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tier": batch["tier"],
                "lo_cents": batch["lo_cents"],
                "hi_cents": batch["hi_cents"],
                "n_events": batch["sum(n_events)"],
                "sum_cents": batch["sum(sum_cents)"],
            }
        )

    return (
        ds.map_batches(bin_partial, batch_format="pyarrow")
        .groupby(["tier", "lo_cents", "hi_cents"])
        .sum(["n_events", "sum_cents"])
        .map_batches(close, batch_format="pyarrow")
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
# anti-sets locally (np.isin) and emits per-segment partials; the
# close-out groupby is segment-bounded (5 rows).

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
        g = lone.groupby("segment", as_index=False).agg(
            n_customers=("custkey", "size"), sum_acctbal_cents=("cents", "sum")
        )
        g["n_customers"] = g["n_customers"].astype(np.int64)
        g["sum_acctbal_cents"] = g["sum_acctbal_cents"].astype(np.int64)
        return g

    def close(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch["segment"],
                "n_customers": batch["sum(n_customers)"],
                "sum_acctbal_cents": batch["sum(sum_acctbal_cents)"],
            }
        )

    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    return (
        co_partition(
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
        .groupby("segment")
        .sum(["n_customers", "sum_acctbal_cents"])
        .map_batches(close, batch_format="pyarrow")
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
# partial followed by an hour-bounded groupby sum — no second pass and
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

    def crosstab(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = (
            df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        ).astype(np.int64)
        df["cents"] = np.floor(
            df["value"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        tcol = df["event_type"].to_numpy(object)
        for t in EVENT_TYPES:
            df[f"n_{t}"] = (tcol == t).astype(np.int64)
        df["n_other"] = (~np.isin(tcol, EVENT_TYPES)).astype(np.int64)
        g = df.groupby("hour", as_index=False)[cols + ["cents"]].sum()
        g = g.rename(columns={"cents": "sum_cents"})
        return pa.Table.from_pandas(g, preserve_index=False)

    def close(batch: pa.Table) -> pa.Table:
        out = {"hour": batch["hour"]}
        for c in cols + ["sum_cents"]:
            out[c] = pc.cast(batch[f"sum({c})"], pa.int64())
        return pa.table(out)

    return (
        ds.map_batches(crosstab, batch_format="pyarrow")
        .groupby("hour")
        .sum(cols + ["sum_cents"])
        .map_batches(close, batch_format="pyarrow")
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
# rows PLUS per-type subtotals PLUS a grand total in one result.  At
# scale the subtotal levels are derived by RE-AGGREGATING THE DETAIL
# AGGREGATE (hour-bounded, tiny), never by extra passes over the
# corpus: one crosstab-style partial pass feeds all three levels.
# NULL grouping keys are encoded as '' / -1 sentinels so the result
# hash-verifies (the SQL twin COALESCEs identically).

def events_rollup(sf_dir: str):
    """(event_type, hour, n, sum_cents) at three grouping levels:
    detail, per-type subtotal (hour = -1), grand total (type = '',
    hour = -1).  Value-exact DuckDB twin in :func:`events_rollup_sql`."""
    ds = read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = (
            df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        ).astype(np.int64)
        if ((df["event_type"] == "") | (df["hour"] < 0)).any():
            raise ValueError(
                "events_rollup: an event_type of '' or an hour before 1970 "
                "collides with the rollup's '' / -1 subtotal keys"
            )
        df["cents"] = np.floor(
            df["value"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        g = df.groupby(["event_type", "hour"], as_index=False).agg(
            n=("cents", "size"), sum_cents=("cents", "sum")
        )
        g["n"] = g["n"].astype(np.int64)
        g["sum_cents"] = g["sum_cents"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    detail = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .sum(["n", "sum_cents"])
    )

    def levels(batch: pa.Table) -> pa.Table:
        # batch = a slice of the (type, hour)-bounded detail aggregate;
        # emit detail rows plus RE-AGGREGATION PARTIALS for the rollup
        # levels keyed by the sentinels (closed out by one tiny groupby)
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "hour": batch["hour"].to_pylist(),
                "n": batch["sum(n)"].to_pylist(),
                "sum_cents": batch["sum(sum_cents)"].to_pylist(),
            }
        )
        by_type = df.groupby("event_type", as_index=False)[
            ["n", "sum_cents"]
        ].sum()
        by_type["hour"] = np.int64(-1)
        total = pd.DataFrame(
            {
                "event_type": [""],
                "hour": np.array([-1], dtype=np.int64),
                "n": [df["n"].sum()],
                "sum_cents": [df["sum_cents"].sum()],
            }
        )
        out = pd.concat(
            [df, by_type[df.columns], total[df.columns]], ignore_index=True
        )
        out["hour"] = out["hour"].astype(np.int64)
        out["n"] = out["n"].astype(np.int64)
        out["sum_cents"] = out["sum_cents"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def close(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour": batch["hour"],
                "n": pc.cast(batch["sum(n)"], pa.int64()),
                "sum_cents": pc.cast(batch["sum(sum_cents)"], pa.int64()),
            }
        )

    return (
        detail.map_batches(levels, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .sum(["n", "sum_cents"])
        .map_batches(close, batch_format="pyarrow")
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

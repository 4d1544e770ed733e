"""Large-scale training-data operators over generic Arrow tables.

Everything here follows the same scale discipline as the extraction
pipeline: column-pruned reads, vectorized per-batch kernels, per-block
partial aggregation before the exchange, broadcast for small sides.

:func:`co_partition` is the one keyed exchange: every operator that needs
all rows of a key in one place (a join side, a hash class, a user's
events, a keyed aggregate) goes through it, and only it decides the group
count, the key hash, how the sides are tagged and the block format.
:func:`reduce_by` is the keyed aggregate built on it (per-key sum, min or
max of block partials), and :func:`top_k` the ranked selection: the first
``k`` rows of each key (or of the whole input) by an ordering, with a
1-based ``rank``.  An aggregate whose result is bounded and goes straight
to the driver (a histogram over a small domain) sums its block partials
there instead, with no exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_SMALL_FILE_BYTES = 64 * 1024 * 1024
_BYTES_PER_BLOCK = 64 * 1024


def read(sf_dir: str, table: str, columns=None):
    """Column-pruned parquet read with a size-aware block count.

    Ray's default parallelism (~2x cluster CPUs) shatters a small file into
    tiny blocks, and every downstream exchange then pays per-block
    overhead on all of them — measured 3x wall-time on minhash_pairs at
    sf0.1 (64 blocks of ~9 KB; two verify shuffles dominated by per-block
    fixed cost). Small files get ~64 KiB-of-parquet blocks clamped to
    [4, cpus/2] — enough map parallelism, far fewer shuffle slivers. Files
    over 64 MiB keep Ray's default, which already scales block count with
    byte size."""
    import os

    import ray
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    kw = {}
    try:
        # getsize() on a DIRECTORY returns the inode size (~4 KiB) — without
        # the isfile gate a directory dataset would be clamped to 4 blocks
        # instead of falling through to Ray's default.
        if not os.path.isfile(path):
            raise OSError(path)
        nbytes = os.path.getsize(path)
        if nbytes <= _SMALL_FILE_BYTES:
            cpus = int(ray.cluster_resources().get("CPU", 4))
            lo, hi = 4, max(4, cpus // 2)
            want = -(-nbytes // _BYTES_PER_BLOCK)
            kw["override_num_blocks"] = int(min(hi, max(lo, want)))
    except OSError:
        pass  # directories / remote paths: leave Ray's default
    return rd.read_parquet(path, columns=columns, **kw)


def footer_rows(*paths: str):
    """Total rows of the parquet files ``paths`` from their FOOTERS (no
    data read), or None when one is not a local file or has no readable
    footer (the caller then takes its conservative path): a cheap upper
    bound for can-this-exceed-a-cap gates."""
    import os

    import pyarrow.parquet as pq

    if not all(os.path.isfile(p) for p in paths):
        return None
    try:
        return sum(pq.read_metadata(p).num_rows for p in paths)
    except Exception:
        return None


def salt_count(cpus: int | None = None) -> int:
    """Group count of a :func:`co_partition` exchange, derived from the
    cluster: ~2 groups per CPU keeps every worker busy across two waves
    while each group stays large enough to amortize its Python call; a
    power of two, clamped to [16, 1024]."""
    if cpus is None:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 4))
    want = max(1, 2 * cpus)
    return max(16, min(1024, 1 << (want - 1).bit_length()))


_SALT = "__salt"
_SIDE = "__side"
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _key_hash(t: pa.Table, key: list[str]) -> np.ndarray:
    """uint64 mix of the key columns: equal keys hash equally on every
    side; string columns go through the polynomial hash first."""
    from .hashing import poly_hash_strings

    h = np.zeros(t.num_rows, dtype=np.uint64)
    for k in key:
        col = t[k]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = poly_hash_strings(col.to_pylist())
        else:
            v = col.to_numpy().astype(np.int64).view(np.uint64)
        h = (h ^ v) * _MIX
        h ^= h >> np.uint64(32)
    return h


def co_partition(fn, **sides):
    """Salted sort-shuffle that brings every row of a key together.

    Each side is ``name=(ds, key, schema)``: ``key`` is a column name or a
    list of them (int64 or string), ``schema`` the side's columns as a
    ``pa.schema`` or a ``{name: type}`` dict (input columns are selected
    and cast to it).  Rows are grouped on a hash of the key into
    :func:`salt_count` groups, so one ``fn`` call covers many keys and
    every row of a key, from every side, lands in the same call.  ``fn``
    receives one pandas frame per side (``fn(**frames)``) holding exactly
    that side's declared columns and types, empty when the group has no
    rows of it, and returns a pandas frame or an Arrow table.

    The sides are padded to one schema with typed nulls before the union
    and split again in Arrow: Ray would otherwise null-pad them itself
    (int64 arriving as float64 in pandas, which breaks 64-bit hashes) and
    drop a side's columns from groups without its rows."""
    salts = salt_count()
    # (name, schema) only: the closures below ship to every worker
    layout = [(name, pa.schema(schema)) for name, (_ds, _key, schema) in sides.items()]
    types: dict[str, pa.DataType] = {}
    for _name, schema in layout:
        for f in schema:
            if types.setdefault(f.name, f.type) != f.type:
                raise ValueError(f"co_partition: column {f.name!r} has two types")

    def tagger(i: int, key: list[str], schema: pa.Schema):
        def tag(batch: pa.Table) -> pa.Table:
            t = batch.select(schema.names)
            if not t.schema.equals(schema):
                t = t.cast(schema)
            n = t.num_rows
            salt = _key_hash(t, key) & np.uint64(salts - 1)
            cols = {_SALT: pa.array(salt.astype(np.int64)),
                    _SIDE: pa.array(np.full(n, i, dtype=np.int8))}
            for c, typ in types.items():
                cols[c] = t[c] if c in schema.names else pa.nulls(n, typ)
            return pa.table(cols)

        return tag

    tagged = [
        ds.map_batches(
            tagger(i, [key] if isinstance(key, str) else list(key), schema),
            batch_format="pyarrow",
        )
        for i, ((ds, key, _schema), (_name, schema)) in enumerate(zip(sides.values(), layout))
    ]
    u = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def close(group: pa.Table):
        side = group[_SIDE].to_numpy()
        frames = {}
        for i, (name, schema) in enumerate(layout):
            t = group if len(layout) == 1 else group.filter(pa.array(side == i))
            frames[name] = t.select(schema.names).to_pandas()
        return fn(**frames)

    return u.groupby(_SALT).map_groups(close, batch_format="pyarrow")


def reduce_by(ds, key, schema, how="sum"):
    """Per-key ``how`` ("sum", "min" or "max", a pandas aggregation) of
    every non-key column of ``schema``, one row per key, in one
    :func:`co_partition` exchange.  Fed per-block partials (rows already
    reduced per key within the block), the exchange carries one row per
    key and block; int64 sums stay exact."""
    key = [key] if isinstance(key, str) else list(key)
    return co_partition(
        lambda rows: rows.groupby(key, as_index=False, sort=False, dropna=False).agg(how),
        rows=(ds, key, schema),
    )


def _head_k(t: pa.Table, key: list[str], order, k: int) -> pa.Table:
    """The first ``k`` rows of every key by ``order``, numbered 1.. in an
    int64 ``rank``: one stable sort on key + order, then each row's
    position within its key's run; no Python call per key."""
    by = [(c, "ascending") for c in key]
    by += [(c, "ascending" if asc else "descending") for c, asc in order]
    t = t.take(pc.sort_indices(t, sort_keys=by))  # Arrow's sort is stable
    run_start = np.zeros(t.num_rows, dtype=bool)
    run_start[:1] = True
    for c in key:
        v = t[c].to_numpy()
        run_start[1:] |= v[1:] != v[:-1]
    row = np.arange(t.num_rows)
    pos = row - np.maximum.accumulate(np.where(run_start, row, 0))
    keep = pos < k
    return t.filter(pa.array(keep)).append_column("rank", pa.array(pos[keep] + 1))


def top_k(ds, key, order, k: int, schema):
    """The first ``k`` rows of each ``key`` by ``order``, ranked 1..k.

    ``key`` is a column, a list of columns (int64 or string) or ``None``
    for one global top-k; ``order`` a list of ``(column, ascending)``
    pairs, ending with an id column that breaks every tie; ``schema`` the
    input columns as :func:`co_partition` takes them.  Every block keeps
    only its own top-k per key, so the exchange carries at most ``k`` rows
    per (key, block), and one :func:`co_partition` call closes the rest
    out with the same head-k.  A global top-k needs no exchange: its at
    most ``k`` rows per block are gathered into one block and closed
    there.  Returns the schema's columns plus an int64 ``rank``."""
    key = [] if key is None else [key] if isinstance(key, str) else list(key)
    schema = pa.schema(schema)

    def partial(batch: pa.Table) -> pa.Table:
        return _head_k(batch.select(schema.names).cast(schema), key, order, k)

    if not key:
        return ds.map_batches(partial, batch_format="pyarrow").repartition(1).map_batches(
            partial, batch_format="pyarrow", batch_size=None
        )

    def close(rows) -> pa.Table:
        # no pandas metadata: Ray cannot hash a schema that carries it
        rows = pa.Table.from_pandas(rows, schema=schema, preserve_index=False)
        return _head_k(rows.replace_schema_metadata(), key, order, k)

    return co_partition(
        close,
        rows=(ds.map_batches(partial, batch_format="pyarrow"), key, schema),
    )

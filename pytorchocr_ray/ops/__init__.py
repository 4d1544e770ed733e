"""Large-scale training-data operators over generic Arrow tables.

Everything here follows the same scale discipline as the extraction
pipeline: column-pruned reads, vectorized per-batch kernels, partial
aggregation before any groupby shuffle, broadcast for small sides.
"""


_SMALL_FILE_BYTES = 64 * 1024 * 1024
_BYTES_PER_BLOCK = 64 * 1024


def read(sf_dir: str, table: str, columns=None):
    """Column-pruned parquet read with a size-aware block count.

    Ray's default parallelism (~2x cluster CPUs) shatters a small file into
    tiny blocks, and every downstream sort/groupby then pays per-block
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


def table_rows(sf_dir: str, table: str):
    """Row count from parquet FOOTER METADATA (no data read) — None when
    the table isn't a single local file (sharded dirs: caller falls back
    to its conservative path).  Used for cheap can-this-exceed-a-cap
    gates like simhash_pairs' hot-bucket pre-pass."""
    import os

    path = f"{sf_dir}/{table}.parquet"
    if not os.path.isfile(path):
        return None
    import pyarrow.parquet as pq

    try:
        return pq.ParquetFile(path).metadata.num_rows
    except Exception:
        return None


def pool_size(cap: int = 8) -> int:
    """Actor-pool size that always leaves CPUs for the read/shuffle stages —
    a pool reserving every CPU starves upstream tasks and stalls the
    streaming executor: the extract pipeline's rule, capped at ``cap``."""
    from ..pipelines.extract import default_concurrency

    return min(cap, default_concurrency())

"""Lance table IO, import-guarded (contract fidelity).

The BASELINE contract text names a Lance table as the canonical input
shape; this sandbox does not ship the ``lance`` package, so the branch is
guarded: with the lib present, ``read_table_auto`` routes ``*.lance``
paths through ``ray.data.read_lance`` (and ``write_lance`` mirrors
``write_parquet``); without it, a ``.lance`` path raises a clear
NotImplementedError instead of a confusing parquet parse failure.
Parquet remains the default for every other path.
"""

from __future__ import annotations


def have_lance() -> bool:
    try:
        import lance  # noqa: F401  (optional dep, absent in this sandbox)

        return True
    except ImportError:
        return False


def is_lance_path(path: str) -> bool:
    return str(path).rstrip("/").endswith(".lance")


def read_table_auto(path: str, columns=None, **read_kwargs):
    """``ray.data`` read with format routing: ``*.lance`` -> Lance dataset
    (columns pushed down), anything else -> parquet.

    ``read_kwargs`` are forwarded to the parquet reader only — Lance
    manages its own fragment-level parallelism."""
    import ray.data as rd

    if is_lance_path(path):
        if not have_lance():
            raise NotImplementedError(
                f"{path} is a Lance table but the 'lance' package is not "
                "installed; install pylance or convert to parquet"
            )
        return rd.read_lance(path, columns=columns)
    return rd.read_parquet(path, columns=columns, **read_kwargs)


def write_lance(ds, path: str):
    """Write a Dataset to a Lance table (distributed, like write_parquet)."""
    if not have_lance():
        raise NotImplementedError(
            "the 'lance' package is not installed; use write_parquet"
        )
    ds.write_lance(path)
    return path

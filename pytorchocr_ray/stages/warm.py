"""Warm-model stages run as Ray tasks, built once per worker process.

A stage class (``OcrStage``, ``DHashStage``, the eval, visualize, audio,
video and table stages) holds warm state: weights, a glyph bank, a media
shard cache. :func:`map_stage` runs it as a plain task ``map_batches``
whose function builds ``cls(**params)`` the first time a worker process
sees the map, keeps it in this module's cache and calls it on every batch
that process runs. The weights stay warm per process, as in the
reference's load-once ``OCRer.__init__`` (deploy/pytorch/run_ocr.py:51-165),
and Ray reuses its worker processes across passes. Because the map is a
task, Ray fuses it with the maps around it, so a pass is one operator from
read to write, with no pool to start and no hand-off between operators.

``concurrency`` is a CPU limit on the Dataset's own context.
``concurrency=`` on the map itself would cut the pass into separate
operators again. :func:`map_cached` is the same cached map without that
limit, for cheap stateful stages (the dedup hashers) inside queries that
must keep every CPU for their exchanges.
"""

from __future__ import annotations

import uuid

# Stages built in this process, by the token of the map that built them.
# The cache lives in this module, which Ray pickles by reference: a closure
# is pickled by value, so a cache it held would start empty in every task.
# A reused worker process keeps stages of finished passes; the oldest goes
# first once more than _MAX_STAGES are held.
_STAGES: dict[str, object] = {}
_MAX_STAGES = 4


def default_concurrency() -> int:
    """Concurrent stage workers of a pass by default: ``cpus - 1`` of the
    cluster (at least one), leaving a CPU to the process that runs the
    pass."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 4)) - 1)


def stage_workers(concurrency: int | None = None) -> int:
    """``concurrency``, or :func:`default_concurrency` for ``None``; below
    one it raises ``ValueError``."""
    n = default_concurrency() if concurrency is None else concurrency
    if n < 1:
        raise ValueError(f"concurrency={n}: a pass needs at least one worker")
    return n


def _run_stage(token: str, cls: type, params: dict, batch):
    stage = _STAGES.get(token)
    if stage is None:
        stage = cls(**params)
        if len(_STAGES) >= _MAX_STAGES:
            del _STAGES[next(iter(_STAGES))]
        _STAGES[token] = stage
    return stage(batch)


def map_cached(ds, cls: type, params: dict | None = None, *, batch_size="default"):
    """``ds.map_batches`` of the stage ``cls(**params)`` on pyarrow batches,
    built at most once per worker process (see the module docstring)."""
    token, params = uuid.uuid4().hex, params or {}

    def run(batch):
        return _run_stage(token, cls, params, batch)

    run.__name__ = cls.__name__  # Ray names the operator after it
    return ds.map_batches(run, batch_format="pyarrow", batch_size=batch_size)


def map_stage(ds, cls: type, params: dict | None = None, *,
              batch_size="default", concurrency: int | None = None):
    """:func:`map_cached` on at most :func:`stage_workers` CPUs, a limit set
    on the Dataset's own context, which every Dataset derived from ``ds``
    shares."""
    opts = ds.context.execution_options
    opts.resource_limits = opts.resource_limits.copy(cpu=stage_workers(concurrency))
    return map_cached(ds, cls, params, batch_size=batch_size)

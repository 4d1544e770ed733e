"""Named stage registry + declarative pipeline builder (SURVEY.md §2.10).

The reference instantiates operator chains from YAML via ``eval``
(pytocr/data/imaug/__init__.py:30-48) and whitelisted component builders.
Here the extension surface is an explicit dict of stage factories — no
``eval`` — and a pipeline spec is a list of steps:

    spec = [
        {"stage": "explode_spans"},
        {"stage": "normalize_text"},
        {"stage": "ocr", "params": {"media_ref": ...}, "compute": {"batch_size": 16, "concurrency": 8}},
        {"stage": "project", "params": {"columns": [...]}},
        {"stage": "reassemble_local"},
    ]
    ds = build_pipeline(rd.read_parquet(path), spec)

Registered stages: ``explode_spans``, ``normalize_text``, ``add_bucket``,
``ocr`` (the fused :class:`~.stages.ocr_stage.OcrStage`, the one OCR plan),
``project``, ``reassemble_local`` (block-local) and ``reassemble_shuffle``
(one ``ops.co_partition`` on doc_id, closed by the same block-local
reassembly).

A stage factory receives its ``params`` and returns one of
``("batches", fn, map_batches_kwargs)``, ``("stage", cls, cls_kwargs)`` — a
warm class run by :func:`~.stages.warm.map_stage`, whose ``batch_size`` and
``concurrency`` come from the step's ``compute`` — or ``("dataset", fn)``
where fn maps Dataset -> Dataset (for an exchange etc.). Users register their
own with :func:`register_stage`.
"""

from __future__ import annotations

from typing import Any, Callable

STAGES: dict[str, Callable[..., tuple]] = {}


def register_stage(name: str):
    def deco(factory):
        STAGES[name] = factory
        return factory

    return deco


@register_stage("explode_spans")
def _explode(**_params):
    from .stages.spans import explode_spans

    return ("batches", explode_spans, {"batch_format": "pyarrow"})


@register_stage("normalize_text")
def _normalize(**_params):
    from .stages.spans import normalize_text_spans

    return ("batches", normalize_text_spans, {"batch_format": "pyarrow"})


@register_stage("add_bucket")
def _bucket(n_buckets: int = 16, **_params):
    from .stages.spans import add_bucket

    return (
        "batches",
        lambda t: add_bucket(t, n_buckets),
        {"batch_format": "pyarrow"},
    )


@register_stage("ocr")
def _ocr(**params):
    from .stages.ocr_stage import OcrStage

    return ("stage", OcrStage, params)


@register_stage("project")
def _project(columns=None, **_params):
    return ("dataset", lambda ds: ds.select_columns(list(columns)))


@register_stage("reassemble_local")
def _reassemble_local(**_params):
    from .stages.reassemble import reassemble_block

    return (
        "batches",
        reassemble_block,
        {"batch_format": "pyarrow", "batch_size": None},
    )


@register_stage("reassemble_shuffle")
def _reassemble_shuffle(**_params):
    from .stages.reassemble import reassemble_shuffle

    return ("dataset", reassemble_shuffle)


def build_pipeline(ds, spec: list[dict[str, Any]]):
    """Apply a declarative stage spec to a Dataset."""
    for step in spec:
        name = step["stage"]
        if name not in STAGES:
            raise KeyError(
                f"unknown stage {name!r}; registered: {sorted(STAGES)}"
            )
        kind, fn, *rest = STAGES[name](**step.get("params", {}))
        kwargs = rest[0] if rest else {}
        compute = step.get("compute", {})
        if kind == "dataset":
            ds = fn(ds)
        elif kind == "stage":
            from .stages.warm import map_stage

            ds = map_stage(ds, fn, kwargs, **compute)
        else:
            ds = ds.map_batches(fn, **{**kwargs, **compute})
    return ds

"""Single-process oracle for the engine-evaluation metrics, so the
evaluation query has a driver oracle like every other row.

Loops the corpus media serially through the SAME pure per-image counter
kernel the Ray stage uses (ops/evaluate.py:media_eval_counters), sums the
integer counters, and combines them with the identical final expression —
so the distributed partial+final aggregation in
:func:`~pytorchocr_ray.ops.evaluate.evaluate_corpus` must reproduce the
1-row metrics table bit-for-bit (integer sums are order-independent; the
per-pair rec similarity is quantized to micro-units for exactly this
reason).  The written parquet is what the driver's DuckDB oracle reads —
the same pattern as the extraction ground-truth oracle (SURVEY.md §5).

Reference twin: the eval loop tools/program.py:421-473 +
DetMetric.combine_results pytocr/metrics/det_metric.py:41-55.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.ocr import OcrEngine
from ..functions.png import decode_gray
from ..ops.evaluate import COUNTER_COLS, combine_counter_sums, media_eval_counters
from ..state.weights import build_weights

METRIC_COLS = ["precision", "recall", "hmean", "acc", "norm_edit_sim"]


def _media_paths(corpus_dir: str, sharded: bool) -> tuple[str, str]:
    """The corpus media and GT: shard dirs, or single files."""
    suffix = "" if sharded else ".parquet"
    return f"{corpus_dir}/media{suffix}", f"{corpus_dir}/media_gt{suffix}"


def oracle_evaluate(corpus_dir: str, sharded: bool = False) -> dict[str, float]:
    """Serial det P/R/hmean + rec accuracy over the corpus media vs GT."""
    media_path, gt_path = _media_paths(corpus_dir, sharded)
    gt_t = pq.read_table(gt_path)
    gt = dict(zip(gt_t["media_ref"].to_pylist(), gt_t["regions"].to_pylist()))
    engine = OcrEngine(build_weights())
    sums = dict.fromkeys(COUNTER_COLS, 0)
    media = pq.read_table(media_path, columns=["media_ref", "data"])
    for ref, data in zip(
        media["media_ref"].to_pylist(), media["data"].to_pylist()
    ):
        gt_regions = gt.get(ref)
        gray = decode_gray(data) if data is not None else None
        if gray is None or gt_regions is None:
            continue
        for col, v in zip(COUNTER_COLS, media_eval_counters(engine, gray, gt_regions)):
            sums[col] += v
    return combine_counter_sums(sums)


def expected_metrics_parquet(corpus_dir: str, sharded: bool = False) -> str:
    """Compute (or reuse cached) expected metrics for the corpus and return
    the 1-row parquet path for the driver's DuckDB oracle to read.  Cached
    by :func:`~..state.cache.cached_parquet` on every source the metric
    values depend on (engine model / postprocess changes must bust it) and
    the corpus media and GT files' size and mtime."""
    from ..functions import ctc, dbpost, geometry, metrics, models, ocr, png
    from ..ops import evaluate
    from ..state import cache, weights

    def make_table() -> pa.Table:
        m = oracle_evaluate(corpus_dir, sharded=sharded)
        return pa.table({c: pa.array([m[c]], pa.float64()) for c in METRIC_COLS})

    sources = (__file__, evaluate, metrics, ocr, models, dbpost, geometry, ctc, png, weights)
    inputs = cache.stat_sig(*_media_paths(corpus_dir, sharded))
    return cache.cached_parquet("metrics", make_table, sharded, sources, inputs)

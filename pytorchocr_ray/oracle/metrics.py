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

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.ocr import OcrEngine
from ..functions.png import decode_gray
from ..ops.evaluate import COUNTER_COLS, combine_counter_sums, media_eval_counters
from ..state.weights import build_weights

METRIC_COLS = ["precision", "recall", "hmean", "acc", "norm_edit_sim"]


def oracle_evaluate(corpus_dir: str, sharded: bool = False) -> dict[str, float]:
    """Serial det P/R/hmean + rec accuracy over the corpus media vs GT."""
    gt_path = (
        f"{corpus_dir}/media_gt" if sharded else f"{corpus_dir}/media_gt.parquet"
    )
    media_path = (
        f"{corpus_dir}/media" if sharded else f"{corpus_dir}/media.parquet"
    )
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


def _metrics_version() -> str:
    """Cache token over every source the metric values depend on — engine
    model/postprocess changes must invalidate cached expected metrics."""
    import hashlib
    import sys

    from ..functions import ctc, dbpost, geometry, metrics, models, ocr, png
    from ..ops import evaluate
    from ..state import weights

    h = hashlib.sha256()
    for mod in (
        sys.modules[__name__], evaluate, metrics, ocr, models, dbpost,
        geometry, ctc, png, weights,
    ):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:10]


def expected_metrics_parquet(corpus_dir: str, sharded: bool = False) -> str:
    """Compute (or reuse cached) expected metrics for the corpus and return
    the 1-row parquet path for the driver's DuckDB oracle to read."""
    path = os.path.join(
        corpus_dir, f"expected_metrics_{_metrics_version()}.parquet"
    )
    if os.path.exists(path):
        return path
    m = oracle_evaluate(corpus_dir, sharded=sharded)
    t = pa.table({c: pa.array([m[c]], pa.float64()) for c in METRIC_COLS})
    tmp = path + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, path)
    return path

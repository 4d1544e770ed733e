"""Model-evaluation ops — the reference's eval loop (tools/program.py:421-473)
recast as Ray partial+final aggregation.

Per media image a worker computes the counter triple/tuple (a cheap partial);
``Dataset.sum`` over the counter columns is the only reduction; the final
ratios are computed on the driver from 3 numbers — the textbook shape of
``DetMetric.combine_results`` (pytocr/metrics/det_metric.py:41-55).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.metrics import (
    det_counters,
    det_match_pairs,
    rec_counters,
)
from ..functions.ocr import OcrEngine
from ..functions.png import decode_gray
from ..state.weights import build_weights

# per-pair rec similarity is quantized to integer micro-units BEFORE any
# aggregation: integer sums are exact and order-independent, so the
# distributed Ray Sum and the serial oracle sum produce bit-identical
# totals (float partial sums would differ in the last bits depending on
# block combine order) — the basis of the evaluate_engine oracle
REC_SIM_SCALE = 1_000_000

COUNTER_COLS = ["gt_care", "det_care", "matched", "rec_exact", "rec_sim_u", "rec_n"]


def media_eval_counters(
    engine: OcrEngine, gray: np.ndarray, gt_regions: list[dict]
) -> tuple[int, int, int, int, int, int]:
    """One image -> (gt_care, det_care, matched, rec_exact, rec_sim_u,
    rec_n) integer counters.  Pure per-image kernel shared by the Ray
    stage and the single-process oracle (oracle/metrics.py) so both
    sides sum the exact same integers."""
    results = engine.ocr_image(gray)
    # the det stage emits unclip-expanded boxes BY CONSTRUCTION
    # (db_postprocess unclip, ratio 1.5); inflate the tight GT quads
    # identically so IoU measures localization, not the known margin
    from ..functions.geometry import unclip

    gt_polys = [
        unclip(
            np.asarray(r["box"], np.float64).reshape(4, 2),
            engine.cfg.unclip_ratio,
        )
        for r in gt_regions
    ]
    det_polys = [b.astype(np.float64) for b, _t, _p in results]
    g, d, m = det_counters(gt_polys, [False] * len(gt_polys), det_polys)
    # rec accuracy over IoU-MATCHED (gt, det) pairs — positional zip()
    # silently mis-scores every pair after a missed/extra/reordered
    # detection; unmatched GT counts as a rec failure
    ex = sim_u = n = 0
    match = dict(det_match_pairs(gt_polys, det_polys))
    for gi, r in enumerate(gt_regions):
        if gi in match:
            e, s, c = rec_counters(results[match[gi]][1], r["text"])
        else:
            e, s, c = 0, 0.0, 1
        ex += e
        sim_u += int(np.floor(s * REC_SIM_SCALE + 0.5))
        n += c
    return g, d, m, ex, sim_u, n


def combine_counter_sums(sums: dict[str, int]) -> dict[str, float]:
    """Final counters -> metrics; the EXACT expression shared by engine and
    oracle (float division associativity must match for hash equality)."""
    det, gt, m = sums["det_care"], sums["gt_care"], sums["matched"]
    precision = m / det if det else 0.0
    recall = m / gt if gt else 0.0
    hmean = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    n = sums["rec_n"]
    return {
        "precision": precision,
        "recall": recall,
        "hmean": hmean,
        "acc": (sums["rec_exact"] / n) if n else 0.0,
        "norm_edit_sim": (sums["rec_sim_u"] / REC_SIM_SCALE / n) if n else 0.0,
    }


class _EvalStage:
    """media rows + GT lookup -> one row of the batch's metric counter
    sums.

    ``gt_ref`` is either a (broadcast) dict / ObjectRef of one — the
    small-sidecar path — or a ``{"dir", "shard_size"}`` descriptor, in
    which case each worker fetches only the GT shards its rows touch
    (same key-addressed store as the media payloads; the 100 TB path)."""

    def __init__(self, gt_ref=None):
        import ray

        from ..stages.ocr_stage import ShardedMediaStore

        self.engine = OcrEngine(build_weights())
        if isinstance(gt_ref, dict) and "dir" in gt_ref:
            self.gt = ShardedMediaStore(
                gt_ref["dir"], int(gt_ref["shard_size"]), value_col="regions"
            )
        else:
            gt = (
                ray.get(gt_ref) if isinstance(gt_ref, ray.ObjectRef) else (gt_ref or {})
            )
            self.gt: dict[str, list[dict]] = gt

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"].to_pylist()
        datas = batch["data"].to_pylist()
        sums = dict.fromkeys(COUNTER_COLS, 0)
        for ref, data in zip(refs, datas):
            gt_regions = self.gt.get(ref)
            gray = decode_gray(data) if data is not None else None
            if gray is None or gt_regions is None:
                continue
            for col, v in zip(
                COUNTER_COLS, media_eval_counters(self.engine, gray, gt_regions)
            ):
                sums[col] += v
        return pa.table({k: pa.array([v], pa.int64()) for k, v in sums.items()})


def evaluate_corpus(
    corpus_dir: str,
    concurrency: int | None = None,
    sharded: bool = False,
    shard_size: int = 250,
) -> dict:
    """Detection P/R/hmean + recognition accuracy of the engine against the
    generator's ground truth, computed distributed.

    ``sharded=True`` reads the ``media``/``media_gt`` parquet DIRECTORIES
    produced by generate_corpus_ray instead of single files.
    """
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ..stages.warm import map_stage

    media_path = f"{corpus_dir}/media" if sharded else f"{corpus_dir}/media.parquet"
    if sharded:
        # key-addressed GT shards fetched worker-side: a whole-dict ray.put
        # broadcast grows without bound with the evaluated corpus
        gt_ref = {"dir": f"{corpus_dir}/media_gt", "shard_size": shard_size}
    else:
        gt_t = pq.read_table(f"{corpus_dir}/media_gt.parquet")
        gt = dict(zip(gt_t["media_ref"].to_pylist(), gt_t["regions"].to_pylist()))
        gt_ref = ray.put(gt)

    ds = rd.read_parquet(media_path, columns=["media_ref", "data"])
    counters = map_stage(ds, _EvalStage, {"gt_ref": gt_ref}, batch_size=16,
                         concurrency=concurrency)
    # ONE pass for all six counters, one row per batch summed on the driver
    # with no exchange; integer sums are exact, so the result is
    # bit-identical to the serial oracle
    sums = counters.to_pandas().reindex(columns=COUNTER_COLS).sum()
    return combine_counter_sums({c: int(sums[c]) for c in COUNTER_COLS})

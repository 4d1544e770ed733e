"""Job entry point for ``ray job submit`` / standalone runs.

    ray job submit -- python -m pytorchocr_ray \
        --docs /data/documents --media /data/media --out /data/extracted \
        --buckets 64 [--no-resume] [--pse] [--skew-factor F] [--num-cpus N]

Owns its Ray session (guarded — never re-inits inside a driver-managed
session). Runs the partitioned resumable extraction and prints the summary
JSON (partitions run/skipped + lineage) to stdout.
"""

from __future__ import annotations

import argparse
import json


def main() -> None:
    p = argparse.ArgumentParser(prog="pytorchocr_ray")
    p.add_argument("--docs", required=True, help="documents parquet file/dir")
    p.add_argument("--media", required=True, help="media parquet file/dir")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--buckets", type=int, default=16)
    p.add_argument("--skew-factor", type=float, default=2.0)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--pse", action="store_true", help="PSE det post-process")
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from .functions.ocr import OcrConfig
    from .pipelines.runner import run_partitioned

    cfg = OcrConfig(det_postprocess="pse" if args.pse else "db")
    summary = run_partitioned(
        args.docs,
        args.media,
        args.out,
        n_buckets=args.buckets,
        skew_factor=args.skew_factor,
        resume=not args.no_resume,
        config=cfg,
    )
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()

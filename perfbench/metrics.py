"""Metric names, units and the computation of one run's report."""

from __future__ import annotations

from .host import HIGH_STEAL_PCT
from .workloads import OPS_DOCS, OPS_QUERIES, median

END_TO_END = {
    "docs_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_OP_FIELDS = {"wall_s": "s", "cpu_s": "s", "rows_out": "count",
              "bytes_out": "B", "peak_heap_mb": "MB"}

PER_LAYER = {
    "ocr.lookup_ms_per_image": "ms",
    "ocr.shard_reads_per_kimage": "count",
    "ocr.decode_ms_per_image": "ms",
    "ocr.det_conv_ms_per_image": "ms",
    "ocr.dbpost_ms_per_image": "ms",
    "ocr.sort_ms_per_image": "ms",
    "ocr.rec_ms_per_region": "ms",
    "ocr.stage_self_ms_per_krow": "ms",
    "ocr.actor_init_s": "s",
    "ocr.images": "count",
    "ocr.regions": "count",
    "ocr.rows_per_batch": "count",
    "ocr.tombstones.no_payload": "count",
    "ocr.tombstones.undecodable": "count",
    "ocr.tombstones.no_text": "count",
    "spans.explode_ms_per_kspan": "ms",
    "spans.normalize_ms_per_kspan": "ms",
    "reassemble.ms_per_krow": "ms",
    "reassemble.rows_dropped": "count",
    **{f"op.{op}.{f}": u for op in ("read", "ocr", "reassemble_write")
       for f, u in _OP_FIELDS.items()},
    "extract.scaling_eff": "ratio",
    "setup.ray_init_s": "s",
    "setup.put_weights_s": "s",
    "setup.media_store_s": "s",
    "setup.dataset_build_s": "s",
    "runner.plan_s": "s",
    "runner.bucketed_input_s": "s",
    "runner.partitions": "count",
    "runner.skew_subparts": "count",
    "runner.partition_s.p50": "s",
    "runner.partition_s.max": "s",
    "runner.bytes_written_per_input_byte": "ratio",
    "runner.resume_skipped": "count",
    "runner.resume_s": "s",
    **{f"ops.{q}.{f}": "s" for q in OPS_QUERIES
       for f in ("wall_s", "cpu_s", "top_op_s")},
    "ops.sweep_s": "s",
    "ops.dhash.decode_ms_per_image": "ms",
    "ops.dhash.hash_ms_per_image": "ms",
    "ops.dhash.stage_self_ms_per_image": "ms",
    "ops.image_dhash_dups.hash_op_s": "s",
    "ops.image_dhash_near.hash_op_s": "s",
    "fail_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "host.cpus": "count",
    "host.ray_cpus": "count",
    "host.steal_pct": "%",
}


# Ray operators of the fused extract plan, by a word of their name: Ray
# fuses explode -> normalize -> OcrStage into one operator and reassembly
# into the write
_OP_KEYS = {"read": "Read", "ocr": "OcrStage", "reassemble_write": "Write"}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def per_query_median(sweeps, key: str) -> float:
    """Sum over queries of each query's median ``key`` across sweeps, so a
    steal burst in one sweep moves only the queries it hit, and only if
    it hit them in most sweeps."""
    queries = sweeps[0].extra["out"]
    return sum(median(p.extra["out"][q][key] for p in sweeps) for q in queries)


def scaling_eff(ctx, passes) -> float:
    """docs/s at the default pool / (pool size x docs/s at one actor)."""
    full = median((p.docs - p.failed) / p.free_s for p in passes if p.kind == "default")
    one = median((p.docs - p.failed) / p.free_s for p in passes if p.kind == "pool1")
    return _per(full, ctx.notes.get("pool", 1) * one)


def layer_metrics(ctx, workload: str, spans, counts, checks: dict) -> dict[str, float]:
    """Per-layer values from the traced pass(es); 0 where a layer is idle."""
    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    c = counts.get
    images, regions, rows = c("ocr.images", 0), c("ocr.regions", 0), c("ocr.rows", 0)
    m = {
        "ocr.lookup_ms_per_image": _per(total("ocr.lookup"), images, 1e3),
        "ocr.shard_reads_per_kimage": _per(c("ocr.shard_reads", 0), images, 1e3),
        "ocr.decode_ms_per_image": _per(total("ocr.decode"), images, 1e3),
        "ocr.det_conv_ms_per_image": _per(total("ocr.det_conv"), images, 1e3),
        "ocr.dbpost_ms_per_image": _per(total("ocr.dbpost"), images, 1e3),
        "ocr.sort_ms_per_image": _per(total("ocr.sort"), images, 1e3),
        "ocr.rec_ms_per_region": _per(total("ocr.rec"), regions, 1e3),
        "ocr.stage_self_ms_per_krow": _per(spans.get("ocr.stage", [0, 0, 0])[2], rows, 1e6),
        "ocr.actor_init_s": _per(total("ocr.actor_init"), calls("ocr.actor_init")),
        "ocr.images": images,
        "ocr.regions": regions,
        "ocr.rows_per_batch": _per(rows, c("ocr.batches", 0)),
        "ocr.tombstones.no_payload": c("ocr.tombstones.no_payload", 0),
        "ocr.tombstones.undecodable": c("ocr.tombstones.undecodable", 0),
        "ocr.tombstones.no_text": c("ocr.tombstones.no_text", 0),
        "spans.explode_ms_per_kspan": _per(total("spans.explode"),
                                           c("spans.explode_rows", 0), 1e6),
        "spans.normalize_ms_per_kspan": _per(total("spans.normalize"),
                                             c("spans.normalize_rows", 0), 1e6),
        "reassemble.ms_per_krow": _per(total("reassemble"), c("reassemble.rows_in", 0), 1e6),
        "reassemble.rows_dropped": c("reassemble.rows_in", 0) - c("reassemble.rows_out", 0),
        "runner.plan_s": total("runner.plan"),
        "runner.bucketed_input_s": total("runner.bucketed_input"),
        "ops.dhash.decode_ms_per_image": _per(total("dhash.decode"), c("dhash.images", 0), 1e3),
        "ops.dhash.hash_ms_per_image": _per(total("dhash.hash"), c("dhash.images", 0), 1e3),
        "ops.dhash.stage_self_ms_per_image": _per(spans.get("dhash.stage", [0, 0, 0])[2],
                                                  c("dhash.images", 0), 1e3),
    }
    for key in ("ray_init_s", "put_weights_s", "media_store_s", "dataset_build_s"):
        m[f"setup.{key}"] = ctx.setup.get(key, 0.0)

    traced = [p for p in ctx.passes if p.traced]
    main = next(p for p in traced if p.kind in ("default", "sweep"))
    ops = main.extra.get("ops", {})
    for key, word in _OP_KEYS.items():
        name = next((n for n in ops if word in n), None)
        for f in ("wall_s", "cpu_s", "rows_out", "bytes_out", "peak_heap_mb"):
            m[f"op.{key}.{f}"] = ops[name][f] if name else 0.0
    m["extract.scaling_eff"] = scaling_eff(ctx, traced) if workload == "extract_media" else 0.0

    walls = main.extra.get("partition_s", [])
    m["runner.partitions"] = main.extra.get("partitions", 0)
    m["runner.skew_subparts"] = main.extra.get("skew_subparts", 0)
    m["runner.partition_s.p50"] = median(walls)
    m["runner.partition_s.max"] = max(walls, default=0.0)
    m["runner.bytes_written_per_input_byte"] = main.extra.get("bytes_per_input_byte", 0.0)
    m["runner.resume_skipped"] = main.extra.get("resume_skipped", 0)
    m["runner.resume_s"] = main.extra.get("resume_s", 0.0)

    per_query = main.extra["out"] if main.kind == "sweep" else {}
    for q in OPS_QUERIES:
        r = per_query.get(q, {"wall_s": 0.0, "cpu_s": 0.0, "ops": {}})
        m[f"ops.{q}.wall_s"] = r["wall_s"]
        m[f"ops.{q}.cpu_s"] = r["cpu_s"]
        m[f"ops.{q}.top_op_s"] = max((o["wall_s"] for o in r["ops"].values()), default=0.0)
    for q in ("image_dhash_dups", "image_dhash_near"):
        r = per_query.get(q, {"ops": {}})
        m[f"ops.{q}.hash_op_s"] = sum(o["wall_s"] for n, o in r["ops"].items()
                                      if "DHashStage" in n)
    m["ops.sweep_s"] = main.wall_s if main.kind == "sweep" else 0.0

    ref = next(p for p in ctx.passes if not p.traced and p.kind == main.kind)
    m["trace.overhead_frac"] = main.wall_s / ref.wall_s - 1.0
    checks["ocr.images"] = images == c("ocr.tombstones.no_text", 0) + sum(
        p.extra.get("images_out", 0) for p in traced)
    checks["ocr.regions"] = regions == sum(p.extra.get("regions_out", 0) for p in traced)
    if "checksum_matches_uninterrupted" in main.extra:
        checks["runner.checksum"] = main.extra["checksum_matches_uninterrupted"]
    return m


def report(ctx, workload: str) -> tuple[dict, dict]:
    """(result line, context line) for one run."""
    from . import trace
    from .host import host_cpus

    import ray

    attempted = sum(p.docs for p in ctx.passes)
    failed = sum(p.failed for p in ctx.passes)
    steal = sum(p.steal_s for p in ctx.passes)
    total = sum(p.total_s for p in ctx.passes)
    steal_pct = _per(steal, total, 100.0)
    host = {"host.cpus": host_cpus(),
            "host.ray_cpus": int(ray.cluster_resources().get("CPU", 0)),
            "host.steal_pct": steal_pct}
    kind = "sweep" if workload == "ops_exchange" else "default"
    runs = [p for p in ctx.passes if not p.traced and p.kind == kind]
    context = {
        "workload": workload, "seed": ctx.seed, "trace": int(ctx.trace),
        "host": host, "high_steal": steal_pct > HIGH_STEAL_PCT,
        "passes": len(ctx.passes),
        "unit_wall_s": [round(p.wall_s, 4) for p in runs],
        "fail_frac": _per(failed, attempted),
        "gt_deviations_reproduced": ctx.notes.get("gt_deviations_reproduced", 0),
    }
    if workload == "partitioned_skewed":
        context["resume_s"] = median(p.extra["resume_s"] for p in runs)
        context["partitions"] = [p.extra["partitions"] for p in runs]
    if workload == "ops_exchange":
        context["sweep_s"] = median(p.wall_s for p in runs)
        context["queries"] = {
            q: [(round(p.extra["out"][q]["wall_s"], 3), round(p.extra["out"][q]["steal_pct"], 2))
                for p in runs] for q in runs[0].extra["out"]}

    checks: dict[str, bool] = {}
    if ctx.trace:
        spans, counts = trace.collect(ctx.trace_dir)
        values = layer_metrics(ctx, workload, spans, counts, checks)
        values.update(host)
        values["fail_frac"] = _per(failed, attempted)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        main = next(p for p in ctx.passes if p.traced)
        if main.kind == "sweep":
            context["top_op"] = {
                q: max(r["ops"], key=lambda n: r["ops"][n]["wall_s"], default="")
                for q, r in main.extra["out"].items()}
            context["dhash_ops"] = {
                q: {n: {"wall_s": round(o["wall_s"], 3), "span_s": round(o["span_s"], 3)}
                    for n, o in main.extra["out"][q]["ops"].items()}
                for q in ("image_dhash_dups", "image_dhash_near")}
        context["layer_checks"] = checks
    else:
        if workload == "ops_exchange":
            docs_per_s = OPS_DOCS / per_query_median(runs, "free_s")
            context["docs_per_wall_s"] = OPS_DOCS / per_query_median(runs, "wall_s")
            cpu_s = per_query_median(runs, "cpu_s")
        else:
            docs_per_s = median((p.docs - p.failed) / p.free_s for p in runs)
            context["docs_per_wall_s"] = median((p.docs - p.failed) / p.wall_s for p in runs)
            cpu_s = median(p.cpu_s for p in runs)
        values = {
            "docs_per_s": docs_per_s,
            "cpu_s": cpu_s,
            "setup_s": ctx.setup["ray_init_s"] + ctx.setup["program_s"],
            "peak_rss_mb": ctx.rss.peak / 2**20,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, context

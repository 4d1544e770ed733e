"""The four workloads: inputs, timed passes, correctness and metrics.

Each workload is a closed loop with one client: the driver thread runs one
pipeline (or query) at a time and starts the next only when the previous
one has returned.  It repeats its timed pass until ``seconds`` have passed
(at least once) and reports medians over passes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import pyarrow.parquet as pq

from . import check, inputs
from .host import RssSampler, Window, steal_free

# extract_media corpus size: stratified to the generator's
# media mix, so every seed gives the same 3544 images (1000 docs); at this
# size the 2-actor vs 1-actor pass clears the fixed per-pass start-up cost
# enough for scaling_eff to be read against its 0.8 contract
MEDIA_DOCS = 1000
# extract_text: 500 documents of the same mix, media stripped, 40 copies each
# (20 000 documents: a pass takes ~5 s, so a run's median is over more than
# one pass); first a warm-up pass over one copy, checked but not timed
TEXT_DOCS, TEXT_COPIES = 500, 40
# partitioned_skewed: 240 documents plus copies of media-heavy ones in one
# bucket of three, carrying 1.5x the base media spans -> the hot bucket
# splits into sub-partitions; media in shards of 25 generator documents, so
# each partition's documents scatter over more shards than the store caches
PART_DOCS, PART_BUCKETS, PART_HOT, PART_SKEW, PART_SHARD = 240, 3, 0, 1.5, 25
# ops_exchange: a documents table the size of the repo's sf0.01 test data,
# and a 100-document media corpus (355 images) for the dHash queries
OPS_DOCS, OPS_MEDIA_DOCS = 500, 100

OPS_QUERIES = [
    "minhash_pairs", "dedup_clusters", "passage_dedup", "cdc_dedup",
    "lm_perplexity_filter", "source_budget_cap", "funnel_steps",
    "customers_without_orders", "inverted_index", "user_running_total",
    "epoch_shuffle", "image_dhash_dups", "image_dhash_near",
]


@dataclass
class Pass:
    kind: str  # which timed unit ("default", "pool1", "sweep", ...)
    wall_s: float
    cpu_s: float
    steal_s: float
    total_s: float
    docs: int = 0
    failed: int = 0
    traced: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def free_s(self) -> float:
        """The pass's wall without the host's steal (host.steal_free)."""
        return steal_free(self.wall_s, self.cpu_s, self.steal_s)


@dataclass
class Ctx:
    work: str
    seed: int
    seconds: float
    trace: bool
    trace_dir: str
    rss: RssSampler
    passes: list = field(default_factory=list)
    setup: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def timed(self, kind: str, fn, traced: bool = False) -> Pass:
        """Run ``fn`` as one timed pass; tracing is switched on around it
        only for traced passes."""
        from . import trace

        if self.trace:
            trace.set_active(self.trace_dir, traced)
        self.rss.window(True)
        with Window() as w:
            out = fn()
        self.rss.window(False)
        if self.trace:
            trace.set_active(self.trace_dir, False)
        p = Pass(kind, w.wall_s, w.cpu.busy, w.cpu.steal, w.cpu.total,
                 traced=traced, extra={"out": out})
        self.passes.append(p)
        return p

    def loop(self, one_unit) -> None:
        """Closed loop: untraced units while the next one, taking as long as
        the last, still ends inside ``seconds`` (at least one unit).  The
        traced run does one untraced unit (the overhead reference) and one
        traced unit instead."""
        if self.trace:
            one_unit(False)
            one_unit(True)
            return
        t0 = time.perf_counter()
        while True:
            u0 = time.perf_counter()
            one_unit(False)
            now = time.perf_counter()
            if now - t0 + (now - u0) > self.seconds:
                return


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


# ------------------------------------------------------------ setup


def timed_setup(ctx: Ctx, media_dir: str | None, build, reps: int = 3) -> None:
    """The program's own set-up before a pass: weights broadcast, media
    store handle, dataset build.  Repeated ``reps`` times; medians kept of
    each part's steal-free wall (the repetition's steal share applied)."""
    from pytorchocr_ray.pipelines.extract import load_media_store
    from pytorchocr_ray.state.weights import put_weights

    rows = []
    for _ in range(reps):
        with Window() as win:
            t0 = time.perf_counter()
            w = put_weights()
            t1 = time.perf_counter()
            m = load_media_store(media_dir) if media_dir else None
            t2 = time.perf_counter()
            build(w, m)
            t3 = time.perf_counter()
        share = win.free_s / win.wall_s
        rows.append((share * (t1 - t0), share * (t2 - t1), share * (t3 - t2)))
    ctx.setup["put_weights_s"] = median(r[0] for r in rows)
    ctx.setup["media_store_s"] = median(r[1] for r in rows)
    ctx.setup["dataset_build_s"] = median(r[2] for r in rows)
    ctx.setup["program_s"] = median(sum(r) for r in rows)


# ------------------------------------------------------------ checking

# The engine misreads a few ground-truth documents in every corpus (about
# 0.5%: "da"/"Ja" read with an extra "i", and same-line boxes in swapped
# order).  Such a document still counts as correct when the single-process
# reference (oracle/extract.py, the same kernels run serially) writes
# exactly what the pipeline wrote -- but only while these stay below this
# share of the source documents, so a broken kernel cannot pass.
GT_DEVIATION_ALLOWANCE = 0.02


def count_failed(ctx: Ctx, got, want, docs, media_dir: str) -> int:
    """Documents whose written span sequence is wrong or missing."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pytorchocr_ray.oracle.extract import oracle_extract

    bad = check.bad_docs(got, want)
    # copies share their source's deviation: count sources ("<id>~<copy>")
    sources = {d.split("~")[0] for d in bad}
    n_sources = want["doc_id"].str.split("~").str[0].nunique()
    if not bad or len(sources) > GT_DEVIATION_ALLOWANCE * n_sources:
        return len(bad)
    sub = docs.filter(pc.is_in(docs["doc_id"], pa.array(sorted(bad))))
    refs = [s["media_ref"] for spans in sub["spans"].to_pylist()
            for s in spans if s["kind"] == "media"]
    media = pq.read_table(media_dir, columns=["media_ref", "data"],
                          filters=[("media_ref", "in", refs)]) if refs else None
    payloads = dict(zip(media["media_ref"].to_pylist(),
                        media["data"].to_pylist())) if refs else {}
    ref = oracle_extract(sub, payloads).to_pandas()
    still_bad = check.bad_docs(got[got["doc_id"].isin(bad)], ref)
    ctx.notes["gt_deviations_reproduced"] = (
        ctx.notes.get("gt_deviations_reproduced", 0) + len(bad) - len(still_bad))
    return len(still_bad)


def output_counts(got) -> dict[str, int]:
    """Images and regions the written output implies: one region per media
    row, one image per (document, media_ref) with at least one region."""
    media = got[got["kind"] == "media"]
    return {"regions_out": len(media),
            "images_out": len(media[["doc_id", "media_ref"]].drop_duplicates())}


# ------------------------------------------------------------ extract


def _extract_pass(ctx: Ctx, docs, docs_dir, media_dir, want, conc, kind, traced, tag):
    from pytorchocr_ray.pipelines.extract import extract_dataset, load_media_store
    from pytorchocr_ray.state.weights import put_weights

    out_dir = os.path.join(ctx.work, f"out_{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)

    def run():
        ds = extract_dataset(
            docs_dir,
            media_ref=load_media_store(media_dir),
            weights_ref=put_weights(),
            concurrency=conc,
        )
        ds.write_parquet(out_dir)
        return ds

    p = ctx.timed(kind, run, traced)
    got = pq.read_table(out_dir).to_pandas()
    p.docs = want["doc_id"].nunique()
    p.failed = count_failed(ctx, got, want, docs, media_dir)
    if traced:
        p.extra["ops"] = operator_stats(p.extra["out"])
        p.extra.update(output_counts(got))
    shutil.rmtree(out_dir, ignore_errors=True)
    return p


def extract_media(ctx: Ctx) -> None:
    from pytorchocr_ray.pipelines.extract import default_concurrency, extract_dataset

    docs, media_dir, want = inputs.corpus(ctx.work, ctx.seed, MEDIA_DOCS)
    docs_dir = inputs.write_table(docs, os.path.join(ctx.work, "docs_media"))
    timed_setup(ctx, media_dir, lambda w, m: extract_dataset(
        docs_dir, media_ref=m, weights_ref=w))
    conc = default_concurrency()
    ctx.notes["pool"] = conc
    n = [0]

    def unit(traced):
        n[0] += 1
        _extract_pass(ctx, docs, docs_dir, media_dir, want, conc, "default", traced, n[0])
        if traced:  # scaling_eff is a per-layer metric: traced run only
            _extract_pass(ctx, docs, docs_dir, media_dir, want, 1, "pool1", traced, f"{n[0]}p1")

    ctx.loop(unit)


def extract_text(ctx: Ctx) -> None:
    from pytorchocr_ray.pipelines.extract import extract_dataset

    base, media_dir, want = inputs.corpus(ctx.work, ctx.seed, TEXT_DOCS)
    docs, want_all = inputs.strip_media(base, want, TEXT_COPIES)
    docs_dir = inputs.write_table(docs, os.path.join(ctx.work, "docs_text"))
    timed_setup(ctx, media_dir, lambda w, m: extract_dataset(
        docs_dir, media_ref=m, weights_ref=w))
    # worker processes and imports warmed before the first timed pass
    one, want_one = inputs.strip_media(base, want, 1)
    one_dir = inputs.write_table(one, os.path.join(ctx.work, "docs_text_warm"))
    _extract_pass(ctx, one, one_dir, media_dir, want_one, None, "warmup", False, "warm")
    n = [0]

    def unit(traced):
        n[0] += 1
        _extract_pass(ctx, docs, docs_dir, media_dir, want_all, None, "default", traced, n[0])

    ctx.loop(unit)


def operator_stats(ds) -> dict[str, dict[str, float]]:
    """Per-operator totals from ``ds.stats()``, parents included."""
    # a write keeps its stats on the write dataset, an iteration (to_pandas)
    # on its executor; both are where Dataset.stats() itself looks
    if getattr(ds, "_write_ds", None) is not None:
        summary = ds._write_ds._get_stats_summary()
    elif ds._current_executor is not None:
        summary = ds._current_executor.get_stats().to_summary()
    else:
        summary = ds._get_stats_summary()
    out: dict[str, dict[str, float]] = {}
    todo = [summary]
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        for op in s.operators_stats:
            out[op.operator_name] = {
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "rows_out": (op.output_num_rows or {}).get("sum", 0.0),
                "bytes_out": (op.output_size_bytes or {}).get("sum", 0.0),
                "peak_heap_mb": (op.memory or {}).get("max", 0.0),
                "span_s": op.time_total_s,
            }
    return out


# ------------------------------------------------------------ partitioned


def partitioned_skewed(ctx: Ctx) -> None:
    from pytorchocr_ray.pipelines import runner
    from pytorchocr_ray.pipelines.extract import extract_dataset

    base, media_dir, want = inputs.corpus(ctx.work, ctx.seed, PART_DOCS,
                                          shard_size=PART_SHARD)
    extra = int(PART_SKEW * inputs.media_refs_per_doc(base).sum())
    docs, want = inputs.skew_copies(base, want, PART_BUCKETS, PART_HOT, extra)
    docs_dir = inputs.write_table(docs, os.path.join(ctx.work, "docs_skew"))
    in_bytes = _du(docs_dir)
    timed_setup(ctx, media_dir, lambda w, m: extract_dataset(
        docs_dir, media_ref=m, weights_ref=w))
    parts = runner.plan_partitions(docs_dir, PART_BUCKETS)
    half = max(1, len(parts) // 2)  # crash after half the partitions commit
    n = [0]

    def check_out(p, out_dir):
        got = runner.read_extracted(out_dir)
        p.docs = want["doc_id"].nunique()
        p.failed = count_failed(ctx, got, want, docs, media_dir)
        p.extra["checksum"] = runner.result_checksum(got)
        p.extra["bytes_per_input_byte"] = _du(out_dir) / in_bytes
        p.extra.update(output_counts(got))

    def unit(traced):
        from . import trace

        n[0] += 1
        out_dir = os.path.join(ctx.work, f"parts_{n[0]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        trace.PARTITION_STARTS.clear()

        def crash_and_resume():
            try:
                runner.run_partitioned(docs_dir, media_dir, out_dir,
                                       n_buckets=PART_BUCKETS, fail_after=half)
            except RuntimeError as e:
                if "injected failure" not in str(e):
                    raise
            else:
                raise RuntimeError("fail_after did not interrupt the run")
            t1 = time.perf_counter()
            res = runner.run_partitioned(docs_dir, media_dir, out_dir,
                                         n_buckets=PART_BUCKETS)
            return {"resume_s": time.perf_counter() - t1, "result": res}

        p = ctx.timed("default", crash_and_resume, traced)
        res = p.extra["out"]["result"]
        p.extra.update(
            resume_s=p.extra["out"]["resume_s"],
            partitions=len(parts),
            skew_subparts=sum(q.n_subs > 1 for q in parts),
            resume_skipped=len(res["skipped"]),
            partition_s=_partition_walls(out_dir, list(trace.PARTITION_STARTS)),
        )
        check_out(p, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            # the per-document check above already implies it; the traced
            # run also compares against a real uninterrupted run
            ref_dir = os.path.join(ctx.work, f"parts_{n[0]}_ref")
            runner.run_partitioned(docs_dir, media_dir, ref_dir,
                                   n_buckets=PART_BUCKETS)
            got = runner.read_extracted(ref_dir)
            p.extra["checksum_matches_uninterrupted"] = (
                runner.result_checksum(got) == p.extra["checksum"])
            shutil.rmtree(ref_dir, ignore_errors=True)

    ctx.loop(unit)


def _partition_walls(out_dir: str, starts: list[float]) -> list[float]:
    commits = sorted(
        os.stat(os.path.join(out_dir, f)).st_mtime
        for f in os.listdir(out_dir) if f.startswith("_COMMITTED_")
    )
    return partition_walls(starts, commits)


def partition_walls(starts: list[float], commits: list[float]) -> list[float]:
    """Per-partition wall: the i-th partition build start paired with the
    i-th commit marker (exact when partitions run one at a time)."""
    return [c - s for s, c in zip(sorted(starts), sorted(commits))]


def _du(path: str) -> int:
    total = 0
    for d, _subdirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


# ------------------------------------------------------------ ops


def _dhash_fixture(media_dir: str, path: str) -> str:
    """The library's independent dHash oracle, written inside the work dir."""
    import pyarrow as pa

    from pytorchocr_ray.functions.png import decode_gray
    from pytorchocr_ray.ops import imagededup

    refs, hashes = [], []
    for f in imagededup._media_files(media_dir):
        t = pq.read_table(f, columns=["media_ref", "data"])
        for ref, data in zip(t["media_ref"].to_pylist(), t["data"].to_pylist()):
            img = decode_gray(data)
            refs.append(ref)
            hashes.append(imagededup.DHASH_EMPTY if img is None
                          else imagededup._oracle_dhash(img))
    pq.write_table(pa.table({"media_ref": refs,
                             "dhash": pa.array(hashes, pa.int64())}), path)
    return path


def ops_plan(sf_dir: str, media_dir: str):
    """(engine callable, DuckDB twin SQL) per swept query.  Text, event and
    relational queries come from the registry; the dHash queries run on the
    benchmark's media corpus."""
    import __ray_entry__ as entry
    from pytorchocr_ray.ops import curation, dedup, imagededup, lexsearch, relational, sessions

    reg = entry.queries()
    sql = {
        "minhash_pairs": dedup.minhash_pairs_sql,
        "dedup_clusters": None,  # see ops_expected
        "passage_dedup": curation.passage_dedup_sql,
        "cdc_dedup": curation.cdc_dedup_sql,
        "lm_perplexity_filter": curation.lm_perplexity_filter_sql,
        "source_budget_cap": curation.source_budget_cap_sql,
        "funnel_steps": sessions.funnel_steps_sql,
        "customers_without_orders": relational.customers_without_orders_sql,
        "inverted_index": lexsearch.inverted_index_sql,
        "user_running_total": relational.user_running_total_sql,
        "epoch_shuffle": curation.epoch_shuffle_sql,
        "image_dhash_dups": lambda: imagededup.image_dhash_dups_sql(media_dir),
        "image_dhash_near": lambda: imagededup.image_dhash_near_sql(media_dir),
    }
    run = {q: (lambda fn=reg[q]: fn(sf_dir)) for q in OPS_QUERIES[:-2]}
    run["image_dhash_dups"] = lambda: imagededup.image_dhash_dups(media_dir)
    run["image_dhash_near"] = lambda: imagededup.image_dhash_near(media_dir)
    return [(q, run[q], sql[q]) for q in OPS_QUERIES]


def min_label_clusters(doc_ids, pairs) -> dict:
    """Connected components of the pair graph, each labelled by its
    smallest doc_id (singletons label themselves)."""
    parent = {d: d for d in doc_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {d: find(d) for d in doc_ids}


def ops_expected(con, plan) -> dict:
    """DuckDB results of each query's twin.  dedup_clusters is the one
    exception: its twin's recursive reachability CTE takes ~17 s here, so
    its expected clusters are the min-label components of the twin
    minhash pair graph, computed with a union-find."""
    import pandas as pd

    want = {q: con.execute(sql()).fetchdf() for q, _run, sql in plan if sql}
    ids = con.execute("SELECT doc_id FROM documents").fetchdf()["doc_id"].tolist()
    pairs = zip(want["minhash_pairs"]["doc_a"], want["minhash_pairs"]["doc_b"])
    labels = min_label_clusters(ids, pairs)
    want["dedup_clusters"] = pd.DataFrame(
        {"doc_id": list(labels), "cluster_id": list(labels.values())})
    return want


def ops_exchange(ctx: Ctx) -> None:
    import duckdb
    import ray.data

    from pytorchocr_ray.ops import imagededup

    sf_dir = inputs.ops_tables(os.path.join(ctx.work, "ops_sf"), ctx.seed, n_docs=OPS_DOCS)
    _docs, media_dir, _want = inputs.corpus(ctx.work, ctx.seed, OPS_MEDIA_DOCS)
    fixture = _dhash_fixture(media_dir, os.path.join(ctx.work, "dhash_oracle.parquet"))
    imagededup.oracle_dhash_fixture = lambda _media_dir: fixture

    con = duckdb.connect()
    for t in ("documents", "events", "customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(sf_dir, t)}.parquet')")
    with Window() as w:
        plan = ops_plan(sf_dir, media_dir)
    ctx.setup["program_s"] = w.free_s
    want = ops_expected(con, plan)

    # warm the session's task workers (its first Ray Data execution) untimed
    dict((q, run) for q, run, _sql in plan)["epoch_shuffle"]().to_pandas()

    def unit(traced):
        def sweep():
            per_query = {}
            for q, run, _sql in plan:
                with Window() as w:
                    res = run()
                    df = res.to_pandas() if isinstance(res, ray.data.Dataset) else res
                per_query[q] = {"wall_s": w.wall_s, "free_s": w.free_s, "cpu_s": w.cpu.busy,
                                "steal_pct": w.cpu.steal_pct, "df": df,
                                "ops": operator_stats(res)
                                if traced and isinstance(res, ray.data.Dataset) else {}}
            return per_query

        p = ctx.timed("sweep", sweep, traced)
        p.docs = len(plan)
        p.failed = sum(not check.same_result(r["df"], want[q])
                       for q, r in p.extra["out"].items())
        for r in p.extra["out"].values():
            del r["df"]

    ctx.loop(unit)


WORKLOADS = {
    "extract_media": extract_media,
    "extract_text": extract_text,
    "partitioned_skewed": partitioned_skewed,
    "ops_exchange": ops_exchange,
}

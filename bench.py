#!/usr/bin/env python
"""Benchmark harness.

Runs the headline interleaved-extraction pipeline plus representative ops
queries over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) under
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and
prints ONE JSON line:

  {"metric": "e2e_extract_sec", "value": <sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ..., "ocr_cpu_ms_per_image": ...}

The headline extract is the MEDIAN of three timed runs (r4; min-of-2
before), and every run also reports OCR CPU ms per media span: the OCR
operator's CPU time from ``ds.stats()`` over the corpus's media spans —
the host-noise-insensitive signal: stable CPU ms with inflated wall time
means host noise, moved CPU ms means a real regression (VERDICT r3 #1).
Each run additionally reports the hypervisor CPU-steal share over its
window (``steal_pct``, from /proc/stat): this sandbox runs in a VM whose
host takes up to ~17% of CPU in bursts (measured 2026-08-18), which inflates wall time 20-40%
with byte-identical code — steal is THE resolved explanation for the
r3 driver-vs-builder 1.31x headline discrepancy.

``--scaling`` re-runs the harness in fresh subprocesses (num_cpus=8 and 32)
on the same input and reports throughput at both plus scaling efficiency
= (t_8 / t_32) / (32 / 8).  The efficiency is the MEDIAN of three
independent 8/32 pairs (round 3: four same-code round-2 runs spread
0.66-0.925 from host noise — a single pair is not a reproducible
measurement).  Pair 1 runs the full harness (its per-query tables land in
BASELINE.md); pairs 2-3 set BENCH_EXTRACT_ONLY=1, which skips the ops
queries so a repeat pair only pays the headline extract.  It also
refreshes the measured-results section in BASELINE.md.

r5 (VERDICT r4 #5): pairs are STEAL-GATED — a pair whose in-band
/proc/stat steal exceeds BENCH_STEAL_GATE (default 5%) is redrawn up to
BENCH_STEAL_REDRAWS (default 2) times; every raw attempt (including the
rejected ones) is recorded in the output and in BASELINE.md, so the
filtering is auditable.  If retries exhaust under sustained steal the
lowest-steal attempt is counted and flagged.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow.parquet as pq

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


DOCS_FACTOR = int(os.environ.get("BENCH_DOCS_FACTOR", "8"))


def _proc_stat() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate /proc/stat cpu line —
    (0, 0) when unavailable (non-Linux)."""
    try:
        with open("/proc/stat") as f:
            vals = [int(v) for v in f.readline().split()[1:]]
        return (vals[7] if len(vals) > 7 else 0), sum(vals)
    except (OSError, ValueError, IndexError):
        return 0, 0


def corpus_docs_for(sf_dir: str) -> int:
    """Corpus size = 8x the sf's documents rows: large enough that model
    compute dominates the fixed per-run costs (actor spawn, media shard
    reads, scheduling ramp) at 32 cpus — the regime the scaling criterion
    measures."""
    n = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return n * DOCS_FACTOR


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from perfbench.inputs import media_refs_per_doc
    from perfbench.workloads import operator_stats
    from pytorchocr_ray.ops import dedup, relational, simsearch, textstats
    from pytorchocr_ray.pipelines.extract import extract_dataset
    from pytorchocr_ray.synth.generate import corpus_path, generate_corpus_ray

    n_docs = corpus_docs_for(SF_DIR)
    corpus = generate_corpus_ray(corpus_path(n_docs, 42), n_docs=n_docs, seed=42)
    n_media = int(media_refs_per_doc(
        pq.read_table(os.path.join(corpus, "documents"), columns=["spans"])).sum())

    # warm the page cache (untimed): one pass over the inputs
    for name in ("lineitem", "documents", "embeddings", "events"):
        pq.read_table(os.path.join(SF_DIR, f"{name}.parquet"))

    timings: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    out_dir = "/tmp/bench_extract_out"
    shutil.rmtree(out_dir, ignore_errors=True)

    # untimed warmup: a small end-to-end extract warms worker-import page
    # cache, weight construction, and the media shard files — the cold-run
    # share of these was the main suspect for the round-1 driver-vs-builder
    # bench spread (VERDICT r1 #4)
    warm_n = max(200, n_docs // 20)
    warm_corpus = generate_corpus_ray(
        corpus_path(warm_n, 42), n_docs=warm_n, seed=42
    )
    extract_dataset(
        os.path.join(warm_corpus, "documents"),
        os.path.join(warm_corpus, "media"),
    ).write_parquet(out_dir + "_warm")
    shutil.rmtree(out_dir + "_warm", ignore_errors=True)

    # a cache-miss corpus generation writes GBs to /tmp right before the
    # timed runs; flush the dirty pages NOW so writeback doesn't steal
    # bandwidth mid-measurement (a prime suspect for the r3 driver-vs-
    # builder 1.31x headline spread: the driver always regenerates after a
    # code change, the builder usually has a warm cache)
    os.sync()
    time.sleep(2)

    def run_extract():
        ds = extract_dataset(
            os.path.join(corpus, "documents"),
            os.path.join(corpus, "media"),
        )
        ds.write_parquet(out_dir)
        return ds

    # median-of-3 (VERDICT r3 #1: min-of-2 left the driver reading exposed
    # to host noise); per-run OCR CPU ms per media span recorded alongside
    # so a noisy-host run is self-diagnosing (stable CPU ms + inflated wall
    # time = host noise, moved CPU ms = real regression)
    cpu_ms_runs: list[float] = []
    steal_runs: list[float] = []
    runs = []
    for i in (1, 2, 3):
        shutil.rmtree(out_dir, ignore_errors=True)
        st0, tot0 = _proc_stat()
        ds = timed(f"extract_run{i}", run_extract)
        st1, tot1 = _proc_stat()
        steal_runs.append(round(100.0 * (st1 - st0) / max(tot1 - tot0, 1), 2))
        runs.append(timings[f"extract_run{i}"])
        ocr_cpu_s = sum(o["cpu_s"] for n, o in operator_stats(ds).items() if "OcrStage" in n)
        cpu_ms_runs.append(round(1000.0 * ocr_cpu_s / max(n_media, 1), 3))
    timings["extract"] = sorted(runs)[1]
    ocr_cpu_ms = sorted(cpu_ms_runs)[1]
    steal_pct = sorted(steal_runs)[1]

    if os.environ.get("BENCH_EXTRACT_ONLY"):
        extract_sec = timings["extract"]
        ray.shutdown()
        return {
            "metric": "e2e_extract_sec",
            "value": extract_sec,
            "unit": "sec",
            "queries": timings,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "n_docs": n_docs,
            "docs_per_sec": round(n_docs / extract_sec, 2),
            "ocr_cpu_ms_per_image": ocr_cpu_ms,
            "ocr_cpu_ms_runs": cpu_ms_runs,
            "steal_pct": steal_pct,
            "steal_pct_runs": steal_runs,
        }

    timed("q1_pricing", lambda: relational.q1_pricing(SF_DIR).to_pandas())
    timed("dedup_exact", lambda: dedup_exact_count(dedup, SF_DIR))
    timed("minhash_pairs", lambda: dedup.minhash_pairs(SF_DIR).count())
    timed("simsearch_topk", lambda: simsearch.topk_bruteforce(SF_DIR).to_pandas())
    timed("simsearch_pq", lambda: simsearch.topk_pq(SF_DIR).to_pandas())
    # r5: residual IVFADC (the changed default) + the new float-quantile
    # sketch + the native compressed-audio path — every r5 op benched
    timed("simsearch_ivfpq", lambda: simsearch.topk_ivfpq(SF_DIR).to_pandas())
    timed(
        "value_quantile_sketch",
        lambda: relational.value_quantile_sketch(SF_DIR).to_pandas(),
    )
    timed("simhash_pairs", lambda: dedup.simhash_pairs(SF_DIR).count())

    def run_adpcm():
        import ray.data as rd

        from pytorchocr_ray.stages.multimodal import (
            audio_features,
            real_audio_decode,
        )
        from pytorchocr_ray.synth.multimodal import synth_adpcm_audio_parquet

        d = synth_adpcm_audio_parquet(100, seed=2024)
        ds = rd.read_parquet(
            os.path.join(d, "payload.parquet"), override_num_blocks=8
        )
        audio_features(ds, decoder=real_audio_decode).count()

    run_adpcm()  # untimed: builds the fixture on first call
    timed("audio_adpcm", run_adpcm)
    timed(
        "token_quantile_filter",
        lambda: textstats.token_quantile_filter(SF_DIR).count(),
    )
    timed(
        "distinct_token_sketch",
        lambda: textstats.distinct_token_sketch(SF_DIR).count(),
    )
    timed("tfidf_top_terms", lambda: textstats.tfidf_top_terms(SF_DIR).count())
    timed(
        "bloom_incremental",
        lambda: dedup.bloom_incremental_dedup(SF_DIR).count(),
    )
    # r5 curation ops: repetition prune signals, benchmark-overlap
    # decontamination, concat-and-chunk packing (two-pass prefix sum)
    from pytorchocr_ray.ops import curation

    timed(
        "repetition_stats", lambda: curation.repetition_stats(SF_DIR).count()
    )
    timed("decontaminate", lambda: curation.decontaminate(SF_DIR).count())
    timed("pack_sequences", lambda: curation.pack_sequences(SF_DIR).count())
    timed("lang_rebalance", lambda: curation.lang_rebalance(SF_DIR).count())
    timed("semdedup", lambda: curation.semdedup(SF_DIR).count())
    timed(
        "kmeans_clusters", lambda: curation.kmeans_clusters(SF_DIR).count()
    )
    timed("passage_dedup", lambda: curation.passage_dedup(SF_DIR).count())
    timed("cdc_dedup", lambda: curation.cdc_dedup(SF_DIR).count())
    timed("epoch_shuffle", lambda: curation.epoch_shuffle(SF_DIR).count())
    timed(
        "lm_perplexity_filter",
        lambda: curation.lm_perplexity_filter(SF_DIR).count(),
    )

    from pytorchocr_ray.ops import lexsearch as _lex

    timed("bm25_search", lambda: _lex.bm25_search(SF_DIR).to_pandas())
    timed("inverted_index", lambda: _lex.inverted_index(SF_DIR).count())
    timed(
        "range_join_tiers",
        lambda: relational.range_join_tiers(SF_DIR).to_pandas(),
    )
    timed(
        "customers_without_orders",
        lambda: relational.customers_without_orders(SF_DIR).to_pandas(),
    )
    timed(
        "user_running_total",
        lambda: relational.user_running_total(SF_DIR).count(),
    )
    timed("events_pivot", lambda: relational.events_pivot(SF_DIR).count())
    timed(
        "events_rollup", lambda: relational.events_rollup(SF_DIR).count()
    )

    from pytorchocr_ray.ops import sessions as _sessions

    timed(
        "funnel_steps", lambda: _sessions.funnel_steps(SF_DIR).count()
    )

    from pytorchocr_ray.ops import sampling as _sampling

    timed(
        "weighted_sample",
        lambda: _sampling.weighted_sample(SF_DIR).to_pandas(),
    )

    from pytorchocr_ray.ops import pii as _pii

    _pii.synth_pii_parquet(SF_DIR)  # untimed: fixture build on first call
    timed("pii_redact", lambda: _pii.pii_redact(SF_DIR).count())
    timed(
        "extract_entities", lambda: _pii.extract_entities(SF_DIR).count()
    )
    timed(
        "source_budget_cap",
        lambda: curation.source_budget_cap(SF_DIR).count(),
    )
    timed("interleave_mix", lambda: curation.interleave_mix(SF_DIR).count())
    timed("vocab_encode", lambda: textstats.vocab_encode(SF_DIR).count())
    timed(
        "random_projection",
        lambda: simsearch.random_projection(SF_DIR).count(),
    )
    # image perceptual-hash dedup over the interleaved corpus media table
    from pytorchocr_ray.ops import imagededup as _imgdd

    timed(
        "image_dhash_dups",
        lambda: _imgdd.image_dhash_dups(os.path.join(corpus, "media")).count(),
    )
    timed(
        "image_dhash_near",
        lambda: _imgdd.image_dhash_near(os.path.join(corpus, "media")).count(),
    )
    timed("bpe_token_count", lambda: textstats.bpe_token_count(SF_DIR).count())

    from pytorchocr_ray.ops import bpe as _bpe

    timed("bpe_merges", lambda: _bpe.bpe_merges(SF_DIR).count())
    timed("bpe_encode", lambda: _bpe.bpe_encode(SF_DIR).count())

    # G.711 mu-law decode + features (second native compressed codec)
    def run_mulaw():
        import ray.data as rd

        from pytorchocr_ray.stages.multimodal import (
            audio_features,
            real_audio_decode,
        )
        from pytorchocr_ray.synth.multimodal import synth_mulaw_audio_parquet

        d = synth_mulaw_audio_parquet(100, seed=2024)
        ds = rd.read_parquet(
            os.path.join(d, "payload.parquet"), override_num_blocks=8
        )
        audio_features(ds, decoder=real_audio_decode).count()

    run_mulaw()  # untimed: builds the fixture on first call
    timed("audio_mulaw", run_mulaw)
    timed("term_freq", lambda: textstats.term_freq(SF_DIR).to_pandas())
    timed("events_hourly", lambda: relational.events_hourly(SF_DIR).to_pandas())
    timed("doc_stats", lambda: textstats.doc_stats(SF_DIR).to_pandas())
    timed(
        "ngram_jaccard_pairs", lambda: dedup.ngram_jaccard_pairs(SF_DIR).count()
    )
    timed("dedup_clusters", lambda: dedup.dedup_clusters(SF_DIR).count())

    # visualization sink over the (small) warmup corpus media
    from pytorchocr_ray.stages.visualize import visualize_corpus

    vis_out = "/tmp/bench_vis_out"
    shutil.rmtree(vis_out, ignore_errors=True)
    timed(
        "visualize",
        lambda: visualize_corpus(os.path.join(warm_corpus, "media"), vis_out),
    )
    shutil.rmtree(vis_out, ignore_errors=True)

    extract_sec = timings["extract"]
    result = {
        "metric": "e2e_extract_sec",
        "value": extract_sec,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / extract_sec, 2) if extract_sec else None,
        "ocr_cpu_ms_per_image": ocr_cpu_ms,
        "ocr_cpu_ms_runs": cpu_ms_runs,
        "steal_pct": steal_pct,
        "steal_pct_runs": steal_runs,
    }
    ray.shutdown()
    return result


def dedup_exact_count(dedup, sf_dir):
    return dedup.dedup_exact(sf_dir).count()


SCALING_PAIRS = int(os.environ.get("BENCH_SCALING_PAIRS", "3"))
# steal gate (r5, VERDICT r4 #5): a pair whose in-band hypervisor steal
# exceeds this share is re-drawn (bounded retries) — the r4 evidence
# showed pair efficiencies ordering exactly by their steal windows, so
# counting a 17%-steal pair measures the hypervisor, not the code.  All
# raw attempts are still recorded unfiltered in the result.
STEAL_GATE_PCT = float(os.environ.get("BENCH_STEAL_GATE", "5"))
STEAL_REDRAWS = int(os.environ.get("BENCH_STEAL_REDRAWS", "2"))


def _pick_attempt(attempts: list[dict]) -> dict:
    """Steal-gate pair selection: the first non-gated attempt counts; if
    retries exhausted under sustained steal, count the lowest-steal
    attempt, flagged — never silently drop a pair slot."""
    clean = [x for x in attempts if not x["gated"]]
    return clean[0] if clean else min(attempts, key=lambda x: x["steal"])


def run_scaling() -> dict:
    def run_once(ncpu: int, extract_only: bool) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        if extract_only:
            env["BENCH_EXTRACT_ONLY"] = "1"
        else:
            env.pop("BENCH_EXTRACT_ONLY", None)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        time.sleep(5)  # let raylet teardown finish before the next session
        return json.loads(out.strip().splitlines()[-1])

    lo_cpus, hi_cpus = 8, 32
    # each pair is (lo, hi) back-to-back in fresh processes so both levels
    # see the same host conditions; only the very first attempt pays the
    # full query sweep (its tables land in BASELINE.md)
    pairs = []
    raw_attempts = []
    full_lo = full_hi = None
    for i in range(SCALING_PAIRS):
        attempts = []
        for a in range(1 + STEAL_REDRAWS):
            full = i == 0 and a == 0
            lo = run_once(lo_cpus, extract_only=not full)
            hi = run_once(hi_cpus, extract_only=not full)
            if full:
                full_lo, full_hi = lo, hi
            eff = (lo["value"] / hi["value"]) / (hi_cpus / lo_cpus)
            steal = max(lo.get("steal_pct") or 0.0, hi.get("steal_pct") or 0.0)
            att = {"lo": lo, "hi": hi, "eff": round(eff, 3),
                   "steal": steal, "gated": steal >= STEAL_GATE_PCT}
            attempts.append(att)
            raw_attempts.append(
                {"pair": i + 1, "attempt": a + 1, "eff": att["eff"],
                 "steal": steal, "gated": att["gated"]}
            )
            if not att["gated"]:
                break
        pairs.append(_pick_attempt(attempts))
    effs = sorted(p["eff"] for p in pairs)
    median = effs[len(effs) // 2]
    med_pair = next(p for p in pairs if p["eff"] == median)
    res = {
        "metric": "scaling_efficiency",
        "value": median,
        "unit": "ratio",
        "pair_efficiencies": [p["eff"] for p in pairs],
        "pair_steals": [p["steal"] for p in pairs],
        "pairs_gated": [p["gated"] for p in pairs],
        "steal_gate_pct": STEAL_GATE_PCT,
        "raw_attempts": raw_attempts,
        "sec_lo": med_pair["lo"]["value"],
        "sec_hi": med_pair["hi"]["value"],
        "cpus_lo": lo_cpus,
        "cpus_hi": hi_cpus,
        "docs_per_sec_lo": med_pair["lo"]["docs_per_sec"],
        "docs_per_sec_hi": med_pair["hi"]["docs_per_sec"],
        "steal_pct_lo": med_pair["lo"].get("steal_pct"),
        "steal_pct_hi": med_pair["hi"].get("steal_pct"),
        "n_docs": full_hi["n_docs"],
        "sf": SF_DIR,
    }
    _update_baseline_md(res, full_lo, full_hi)
    return res


def _update_baseline_md(res: dict, lo: dict, hi: dict, path: str | None = None) -> None:
    if path is None:
        path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BASELINE.md"
        )
    marker = "## Measured results (bench.py --scaling)"
    block = f"""{marker}

| metric | value |
|---|---|
| corpus | {res['n_docs']} interleaved docs (seed 42) from {res['sf']} |
| extract sec @ {res['cpus_lo']} cpus (median pair) | {res['sec_lo']} ({res['docs_per_sec_lo']} docs/s) |
| extract sec @ {res['cpus_hi']} cpus (median pair) | {res['sec_hi']} ({res['docs_per_sec_hi']} docs/s) |
| scaling efficiency ({res['cpus_lo']}->{res['cpus_hi']}), median of {len(res['pair_efficiencies'])} pairs | {res['value']} (pairs: {res['pair_efficiencies']}) |
| per-pair in-band steal % (gate: redraw when > {res.get('steal_gate_pct')}%) | {res.get('pair_steals')} (gated-in: {res.get('pairs_gated')}) |
| raw attempts incl. redrawn (eff @ steal%) | {', '.join(f"{a['eff']} @ {a['steal']}%{' X' if a['gated'] else ''}" for a in res.get('raw_attempts', []))} |
| hypervisor CPU steal during median pair (lo / hi cpus) | {res.get('steal_pct_lo')}% / {res.get('steal_pct_hi')}% |

Per-query seconds @ {res['cpus_hi']} cpus: `{json.dumps(hi['queries'])}`
Per-query seconds @ {res['cpus_lo']} cpus: `{json.dumps(lo['queries'])}`
"""
    try:
        with open(path) as f:
            text = f.read()
        if marker in text:
            # replace ONLY the measured block: it runs from the marker to
            # the next "### " heading (measurement-notes sections appended
            # after the block must survive a refresh)
            start = text.index(marker)
            rest = text[start:]
            nxt = rest.find("\n### ")
            tail = rest[nxt:] if nxt != -1 else "\n"
            text = text[:start].rstrip() + "\n\n" + block + tail
        else:
            text = text.rstrip() + "\n\n" + block
        with open(path, "w") as f:
            f.write(text)
    except OSError:
        pass


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))

#!/usr/bin/env python
"""Benchmark harness: a thin front over ``__ray_entry__.queries()`` and
``perfbench``.  ``python bench.py`` prints ONE JSON line (BENCH.md has the
keys and how to read them).

It times the headline interleaved extraction, the median of three passes
after an untimed warm-up pass, then every registered query but
``extract_interleaved``, over ``$GRAFT_SF_DIR`` with Ray ``num_cpus =
$RAY_GRAFT_CPUS``.  Each timed block is a ``perfbench.host.Window``: its wall
goes into ``queries``, its hypervisor CPU-steal share into
``query_steal_pct``.

``--scaling`` runs the harness in fresh processes at 8 and 32 CPUs and
reports efficiency = (t_8 / t_32) / (32 / 8), the median of SCALING_PAIRS
pairs; only the first pair times the queries (the others set
BENCH_EXTRACT_ONLY=1).  A pair whose steal reaches STEAL_GATE_PCT is
redrawn up to STEAL_REDRAWS times; every attempt is recorded, and if all
sat under steal the lowest-steal one counts, flagged.  The run rewrites
the measured block of BASELINE.md.  On a host with fewer than 32 CPUs it
refuses before any pass, naming the host's CPU count.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow.parquet as pq

import __ray_entry__
from perfbench.host import Window

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# corpus = DOCS_FACTOR x the sf's documents rows: large enough that model
# compute dominates the fixed per-pass costs at 32 CPUs
DOCS_FACTOR = 8
SCALING_PAIRS = 3
# pair efficiencies ordered exactly by their steal windows, so a pair over
# the gate measures the hypervisor, not the code
STEAL_GATE_PCT = 5.0
STEAL_REDRAWS = 2
OUT_DIR = "/tmp/bench_extract_out"


def timed_queries() -> dict:
    """The registry's queries that the sweep times, in registry order."""
    return {n: fn for n, fn in __ray_entry__.queries().items() if n != "extract_interleaved"}


def _window(name: str, fn, walls: dict, steals: dict):
    with Window() as w:
        out = fn()
    walls[name] = round(w.wall_s, 3)
    steals[name] = round(w.cpu.steal_pct, 2)
    return out


def _materialize(res):
    # as tests/test_entry_queries.py does: a Dataset or Arrow table to pandas
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from perfbench.inputs import media_refs_per_doc
    from perfbench.workloads import operator_stats
    from pytorchocr_ray.pipelines.extract import extract_dataset
    from pytorchocr_ray.synth.generate import corpus_path, generate_corpus_ray

    def corpus_of(n_docs: int) -> str:
        return generate_corpus_ray(corpus_path(n_docs, 42), n_docs=n_docs, seed=42)

    def extract_pass(corpus: str, out_dir: str):
        ds = extract_dataset(os.path.join(corpus, "documents"), os.path.join(corpus, "media"))
        ds.write_parquet(out_dir)
        return ds

    n_docs = DOCS_FACTOR * pq.ParquetFile(os.path.join(SF_DIR, "documents.parquet")).metadata.num_rows
    corpus = corpus_of(n_docs)
    spans = pq.read_table(os.path.join(corpus, "documents"), columns=["spans"])
    n_media = int(media_refs_per_doc(spans).sum())
    for name in ("lineitem", "documents", "embeddings", "events"):
        pq.read_table(os.path.join(SF_DIR, f"{name}.parquet"))  # warm the page cache

    # untimed warm-up pass: worker imports, weights and media shard reads
    extract_pass(corpus_of(max(200, n_docs // 20)), OUT_DIR + "_warm")
    shutil.rmtree(OUT_DIR + "_warm", ignore_errors=True)
    # flush a freshly generated corpus's dirty pages before the timed passes
    os.sync()
    time.sleep(2)

    walls: dict[str, float] = {}
    steals: dict[str, float] = {}
    cpu_ms_runs = []
    for i in (1, 2, 3):
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        ds = _window(f"extract_run{i}", lambda: extract_pass(corpus, OUT_DIR), walls, steals)
        ocr_cpu_s = sum(o["cpu_s"] for n, o in operator_stats(ds).items() if "OcrStage" in n)
        cpu_ms_runs.append(round(1000.0 * ocr_cpu_s / max(n_media, 1), 3))
    steal_runs = [steals[f"extract_run{i}"] for i in (1, 2, 3)]
    extract_sec = walls["extract"] = sorted(walls[f"extract_run{i}"] for i in (1, 2, 3))[1]

    if not os.environ.get("BENCH_EXTRACT_ONLY"):
        for name, fn in timed_queries().items():
            _window(name, lambda: _materialize(fn(SF_DIR)), walls, steals)
    ray.shutdown()
    return {
        "metric": "e2e_extract_sec",
        "value": extract_sec,
        "unit": "sec",
        "queries": walls,
        "query_steal_pct": steals,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / extract_sec, 2) if extract_sec else None,
        "ocr_cpu_ms_per_image": sorted(cpu_ms_runs)[1],
        "ocr_cpu_ms_runs": cpu_ms_runs,
        "steal_pct": sorted(steal_runs)[1],
        "steal_pct_runs": steal_runs,
    }


def _pick_attempt(attempts: list[dict]) -> dict:
    """Steal-gate pair selection: the first non-gated attempt counts; if
    retries exhausted under sustained steal, count the lowest-steal
    attempt, flagged — never silently drop a pair slot."""
    clean = [x for x in attempts if not x["gated"]]
    return clean[0] if clean else min(attempts, key=lambda x: x["steal"])


def run_scaling() -> dict:
    lo_cpus, hi_cpus = 8, 32
    if (os.cpu_count() or 0) < hi_cpus:
        # below its upper level the efficiency measures oversubscription
        raise SystemExit(
            f"bench.py --scaling needs {hi_cpus} CPUs for its upper level; "
            f"this host has {os.cpu_count()}: no pass run, BASELINE.md unchanged"
        )

    def run_once(ncpu: int, extract_only: bool) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        env.pop("BENCH_EXTRACT_ONLY", None)
        if extract_only:
            env["BENCH_EXTRACT_ONLY"] = "1"
        here = os.path.dirname(os.path.abspath(__file__))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True, cwd=here,
        ).stdout
        time.sleep(5)  # let raylet teardown finish before the next session
        return json.loads(out.strip().splitlines()[-1])

    # each pair is (lo, hi) back-to-back in fresh processes so both levels
    # see the same host conditions; only the very first attempt pays the
    # full query sweep (its tables land in BASELINE.md)
    pairs, raw_attempts = [], []
    for i in range(SCALING_PAIRS):
        attempts = []
        for a in range(1 + STEAL_REDRAWS):
            full = i == 0 and a == 0
            lo = run_once(lo_cpus, extract_only=not full)
            hi = run_once(hi_cpus, extract_only=not full)
            if full:
                full_lo, full_hi = lo, hi
            steal = max(lo["steal_pct"], hi["steal_pct"])
            eff = round((lo["value"] / hi["value"]) / (hi_cpus / lo_cpus), 3)
            att = {"lo": lo, "hi": hi, "eff": eff, "steal": steal, "gated": steal >= STEAL_GATE_PCT}
            attempts.append(att)
            raw_attempts.append({"pair": i + 1, "attempt": a + 1, "eff": eff, "steal": steal, "gated": att["gated"]})
            if not att["gated"]:
                break
        pairs.append(_pick_attempt(attempts))
    median = sorted(p["eff"] for p in pairs)[len(pairs) // 2]
    med = next(p for p in pairs if p["eff"] == median)
    res = {
        "metric": "scaling_efficiency",
        "value": median,
        "unit": "ratio",
        "pair_efficiencies": [p["eff"] for p in pairs],
        "pair_steals": [p["steal"] for p in pairs],
        "pairs_gated": [p["gated"] for p in pairs],
        "steal_gate_pct": STEAL_GATE_PCT,
        "raw_attempts": raw_attempts,
        "sec_lo": med["lo"]["value"],
        "sec_hi": med["hi"]["value"],
        "cpus_lo": lo_cpus,
        "cpus_hi": hi_cpus,
        "docs_per_sec_lo": med["lo"]["docs_per_sec"],
        "docs_per_sec_hi": med["hi"]["docs_per_sec"],
        "steal_pct_lo": med["lo"]["steal_pct"],
        "steal_pct_hi": med["hi"]["steal_pct"],
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
    print(json.dumps(run_scaling() if "--scaling" in sys.argv else run_bench()))

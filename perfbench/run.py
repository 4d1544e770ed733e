"""Benchmark of the pytorchocr_ray extraction engine.

    python3 perfbench/run.py --workload extract_media --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why):
``extract_media``, ``extract_text``, ``partitioned_skewed``, ``ops_exchange``.
Inputs are generated from ``--seed`` into ``.pbw/`` under the
checkout; the Ray session gets ``num_cpus`` equal to the cores this process
may run on.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones:

* ``docs_per_s`` -- documents whose full span sequence was written, per
  second of a pass at the default OCR pool (extract workloads); per second
  of the crash + resume pair (partitioned_skewed); rows of the swept
  documents table per second of the 13-query sweep (ops_exchange).
  Median over passes.  The seconds are steal-free: each pass's wall is
  scaled by busy / (busy + steal) CPU time from /proc/stat
  (``host.steal_free``), because a shared host's steal comes in
  minutes-long stretches that slow the same work by 20-40%.  The raw
  wall-clock figure is ``docs_per_wall_s`` on the line before the result.
* ``cpu_s`` -- busy CPU-seconds of the machine during one such pass
  (/proc/stat user+nice+system+irq+softirq; steal and idle excluded).
* ``setup_s`` -- Ray session start plus the program's own set-up before a
  pass (weights broadcast, media store handle, dataset build; for
  ops_exchange the query registry), the latter the median of three; both
  steal-free like ``docs_per_s``.
* ``peak_rss_mb`` -- peak summed RSS of the driver and every process of its
  Ray session while passes run.

With ``--trace 1`` the run does one untraced and one traced pass (plus a
traced 1-actor pass on extract_media and an uninterrupted run on
partitioned_skewed) and reports the per-layer metrics of BENCHMARK.json; a
metric of a layer the workload does not exercise reads 0.  A line before the result carries the
host context (cores, Ray CPUs, steal %); a run whose steal exceeds
``host.HIGH_STEAL_PCT`` is flagged there, never dropped.

Exit codes: 0 on a completed run (``correct`` says whether outputs matched),
2 when the program under test is not present in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.getcwd()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _ray_temp_dir(work: str) -> str | None:
    """Ray's session dir under the checkout when its socket paths fit the
    107-byte Unix limit (session dir + sockets/plasma_store add ~64);
    otherwise None, and Ray uses its default temp dir."""
    path = os.path.join(work, "r")
    return path if len(path) + 64 < 107 else None


def start_ray(work: str, trace_dir: str, trace: bool):
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    from perfbench import trace as tr

    os.environ[tr.TRACE_DIR_ENV] = trace_dir
    kw = {}
    temp = _ray_temp_dir(work)
    if temp:
        kw["_temp_dir"] = temp
    if trace:
        kw["runtime_env"] = {"worker_process_setup_hook": "perfbench.trace.install_worker"}
    from perfbench.host import Window, host_cpus

    with Window() as w:
        ray.init(
            address="local",
            num_cpus=host_cpus(),
            include_dashboard=False,
            object_store_memory=768 * 2**20,
            log_to_driver=False,
            **kw,
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
    return w.free_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "pytorchocr_ray")):
        print("perfbench: run from a checkout holding pytorchocr_ray/", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT]
    from perfbench import metrics, workloads
    from perfbench.host import RssSampler

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import shutil

    import ray

    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    rss = RssSampler().start()
    ctx = workloads.Ctx(work, args.seed, args.seconds, bool(args.trace), trace_dir, rss)
    try:
        ctx.setup["ray_init_s"] = start_ray(work, trace_dir, ctx.trace)
        if ctx.trace:
            from perfbench import trace as tr

            tr.install_driver()
        workloads.WORKLOADS[args.workload](ctx)
        result, context = metrics.report(ctx, args.workload)
    finally:
        rss.stop()
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around the program's public calls, for the traced run only.

Wrappers are installed from the benchmark's side: in every Ray worker
through ``worker_process_setup_hook`` (:func:`install_worker`) and in the
driver (:func:`install_driver`).  Each process keeps its spans in memory and
appends one JSON line per root span (one line per OCR batch) to
``$PERFBENCH_TRACE_DIR/<pid>.jsonl``, so nothing is lost when an actor pool
is torn down.  Recording is on only while the flag file ``ACTIVE`` exists in
that directory, checked once per root span: the traced run measures an
untraced pass and a traced pass in one session.
"""

from __future__ import annotations

import glob
import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ACTIVE_FLAG = "ACTIVE"


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part of it the child spans cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


class Recorder:
    """Per-process span stack plus per-name totals since the last flush."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, f"{os.getpid()}.jsonl")
        self.stack: list[tuple[float, list[tuple[float, float]]]] = []
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.active = False

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, args, kwargs, observe=None):
        if not self.stack:
            self.active = os.path.exists(os.path.join(self.out_dir, ACTIVE_FLAG))
        if not self.active:
            return fn(*args, **kwargs)
        children: list[tuple[float, float]] = []
        start = time.perf_counter()
        self.stack.append((start, children))
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_time(start, end, children)
            if self.stack:
                self.stack[-1][1].append((start, end))
        if observe is not None:
            observe(self, args, out)
        if not self.stack:
            self.flush()
        return out

    def flush(self) -> None:
        if not self.spans and not self.counts:
            return
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(self.path, "a") as f:
            f.write(line + "\n")
        self.spans, self.counts = {}, {}


_REC: Recorder | None = None


def _recorder() -> Recorder:
    global _REC
    if _REC is None:
        _REC = Recorder(os.environ[TRACE_DIR_ENV])
    return _REC


def _wrap(owner, attr: str, name: str, observe=None) -> None:
    orig = getattr(owner, attr)
    if getattr(orig, "_perfbench_span", None):
        return

    def traced(*args, **kwargs):
        return _recorder().call(name, orig, args, kwargs, observe)

    # keep the name Ray Data shows for map_batches operators; module and
    # qualname stay this module's, so Ray ships the wrapper by value
    traced.__name__ = orig.__name__
    traced._perfbench_span = name
    setattr(owner, attr, traced)


def _batch_rows(rec, args, out) -> None:
    rec.count("ocr.rows", args[1].num_rows)
    rec.count("ocr.batches")


def _decoded(rec, args, out) -> None:
    rec.count("ocr.images" if out is not None else "ocr.tombstones.undecodable")


def _dhash_decoded(rec, args, out) -> None:
    rec.count("dhash.images")


def _sorted_boxes(rec, args, out) -> None:
    if len(out) == 0:
        rec.count("ocr.tombstones.no_text")


def _region(rec, args, out) -> None:
    rec.count("ocr.regions")


def _rows_out(key: str):
    def observe(rec, args, out) -> None:
        rec.count(key, out.num_rows)

    return observe


def _reassembled(rec, args, out) -> None:
    rec.count("reassemble.rows_in", args[0].num_rows)
    rec.count("reassemble.rows_out", out.num_rows)


def _wrap_store_get(store_cls) -> None:
    """ShardedMediaStore.get: a span per lookup, plus a count of shard-file
    reads (a read appends a fresh path to the store's LRU order list)."""
    orig = store_cls.get
    if getattr(orig, "_perfbench_span", None):
        return

    def get(self, ref):
        last = self._order[-1] if self._order else None
        rec = _recorder()
        out = rec.call("ocr.lookup", orig, (self, ref), {})
        if rec.active:
            if self._order and self._order[-1] is not last:
                rec.count("ocr.shard_reads")
            if out is None:
                rec.count("ocr.tombstones.no_payload")
        return out

    get._perfbench_span = "ocr.lookup"
    store_cls.get = get


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the OCR and dHash layers."""
    # import every module before patching: ocr_stage binds decode_gray from
    # functions.png at import time and must keep the unwrapped original
    from pytorchocr_ray.functions import models, ocr, png
    from pytorchocr_ray.ops import imagededup
    from pytorchocr_ray.stages import ocr_stage

    _wrap(ocr_stage.OcrStage, "__call__", "ocr.stage", _batch_rows)
    _wrap(ocr_stage.OcrStage, "__init__", "ocr.actor_init")
    _wrap_store_get(ocr_stage.ShardedMediaStore)
    _wrap(ocr_stage, "decode_gray", "ocr.decode", _decoded)
    _wrap(models.DetModel, "smooth", "ocr.det_conv")
    _wrap(ocr, "boxes_from_bitmap", "ocr.dbpost")
    _wrap(ocr, "sort_boxes", "ocr.sort", _sorted_boxes)
    _wrap(ocr.OcrEngine, "crop_and_recognize", "ocr.rec", _region)
    _wrap(imagededup.DHashStage, "__call__", "dhash.stage")
    _wrap(png, "decode_gray", "dhash.decode", _dhash_decoded)
    _wrap(imagededup, "dhash_gray", "dhash.hash")


# build start of each partition job (wall clock), appended from the runner's
# worker threads in the driver
PARTITION_STARTS: list[float] = []


def install_driver() -> None:
    """Wrap the stateless stage functions where the pipeline builder looks
    them up (Ray ships the wrappers to the workers that run them), and the
    partitioned runner's planning and input-layout steps."""
    from pytorchocr_ray.pipelines import extract, runner

    _wrap(extract, "explode_spans", "spans.explode", _rows_out("spans.explode_rows"))
    _wrap(extract, "normalize_text_spans", "spans.normalize",
          _rows_out("spans.normalize_rows"))
    _wrap(extract, "reassemble_block", "reassemble", _reassembled)
    _wrap(runner, "plan_partitions", "runner.plan")
    _wrap(runner, "write_bucketed_input", "runner.bucketed_input")

    build = runner.extract_dataset
    if getattr(build, "_perfbench_span", None):
        return

    def extract_dataset(*args, **kwargs):
        PARTITION_STARTS.append(time.time())
        return build(*args, **kwargs)

    extract_dataset._perfbench_span = "runner.partition_start"
    runner.extract_dataset = extract_dataset


def set_active(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, ACTIVE_FLAG)
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def merge_lines(lines) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Sum flushed JSON lines into per-name span totals and counts."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, (calls, total, self_s) in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return spans, counts


def collect(trace_dir: str) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Read and remove every process's flushed lines."""
    lines: list[str] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.jsonl"))):
        with open(path) as f:
            lines.extend(f.readlines())
        os.remove(path)
    return merge_lines(lines)

"""Unit tests for bench.py (no Ray, no timing).

bench.py is the driver-visible measurement surface; these pin the pieces a
broken edit would silently corrupt: the steal reader it times with, the
BASELINE.md measured-block replacement (which must preserve appended "### "
measurement-notes sections), and that its query sweep is the registry's,
not a second list."""

import ast
import importlib.util
import os

_spec = importlib.util.spec_from_file_location(
    "bench_module",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py"),
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_proc_stat_shape():
    from perfbench.host import read_cpu_times

    cpu = read_cpu_times()
    # the aggregate cpu line must parse; steal is a component of the total
    assert cpu.total > 0
    assert 0 <= cpu.steal <= cpu.total


def test_sweep_is_the_registry():
    """bench.py times every registered query but the extraction the
    headline already times, and keeps no query list of its own."""
    import __ray_entry__

    assert set(bench.timed_queries()) == set(__ray_entry__.queries()) - {"extract_interleaved"}
    tree = ast.parse(open(bench.__file__).read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert not [m for m in imported if m.startswith("pytorchocr_ray.ops")], imported


def _fake(res_extra=None):
    res = {
        "n_docs": 100,
        "sf": "/tmp/sf",
        "cpus_lo": 8,
        "cpus_hi": 32,
        "sec_lo": 10.0,
        "sec_hi": 3.0,
        "docs_per_sec_lo": 10.0,
        "docs_per_sec_hi": 33.3,
        "value": 0.83,
        "pair_efficiencies": [0.8, 0.83, 0.9],
        "steal_pct_lo": 1.0,
        "steal_pct_hi": 2.0,
    }
    res.update(res_extra or {})
    lo = {"queries": {"extract": 10.0}}
    hi = {"queries": {"extract": 3.0}}
    return res, lo, hi


def test_update_baseline_md_inserts_and_replaces(tmp_path):
    path = str(tmp_path / "BASELINE.md")
    with open(path, "w") as f:
        f.write("# Title\n\nintro text\n")
    res, lo, hi = _fake()
    bench._update_baseline_md(res, lo, hi, path=path)
    text1 = open(path).read()
    assert "## Measured results (bench.py --scaling)" in text1
    assert "0.83" in text1 and "steal" in text1
    # appended notes section must survive a refresh; block must replace
    with open(path, "a") as f:
        f.write("\n### My notes (must survive)\n\n- a note\n")
    res2, lo2, hi2 = _fake({"value": 0.91})
    bench._update_baseline_md(res2, lo2, hi2, path=path)
    text2 = open(path).read()
    assert "0.91" in text2
    assert text2.count("## Measured results") == 1
    assert "### My notes (must survive)" in text2
    assert "- a note" in text2


def test_pick_attempt_steal_gate():
    """r5 (VERDICT r4 #5): the first sub-gate attempt counts; when every
    redraw sat under steal, the lowest-steal attempt counts (flagged) —
    a pair slot is never silently dropped."""
    import bench

    a1 = {"eff": 0.5, "steal": 12.0, "gated": True}
    a2 = {"eff": 0.95, "steal": 1.2, "gated": False}
    a3 = {"eff": 0.9, "steal": 2.0, "gated": False}
    assert bench._pick_attempt([a1, a2, a3]) is a2  # first clean wins
    assert bench._pick_attempt([a2]) is a2
    b1 = {"eff": 0.5, "steal": 12.0, "gated": True}
    b2 = {"eff": 0.7, "steal": 8.0, "gated": True}
    assert bench._pick_attempt([b1, b2]) is b2  # lowest steal, flagged
    assert bench._pick_attempt([b1, b2])["gated"] is True


def test_scaling_refuses_below_its_upper_level(monkeypatch):
    """On a host with fewer CPUs than its 32-CPU level, --scaling would
    measure oversubscription: it refuses before any pass, names the host's
    CPU count and leaves BASELINE.md as it was."""
    import pytest

    path = os.path.join(os.path.dirname(bench.__file__), "BASELINE.md")
    before = open(path, "rb").read()

    def no_pass(*args, **kwargs):
        raise AssertionError("a scaling pass started")

    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(bench.subprocess, "run", no_pass)
    with pytest.raises(SystemExit) as refused:
        bench.run_scaling()
    assert "this host has 4" in str(refused.value)
    assert open(path, "rb").read() == before

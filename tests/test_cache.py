"""state.cache: the one build-then-rename protocol every cached fixture uses."""

import os
import pathlib
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def cache(tmp_path, monkeypatch):
    from pytorchocr_ray.state import cache

    monkeypatch.setattr(cache, "ROOT", str(tmp_path / "cache"))
    return cache


def _writer(text):
    def build(d):
        with open(os.path.join(d, "out.txt"), "w") as f:
            f.write(text)

    return build


def test_concurrent_builders_return_one_complete_artifact(cache):
    both_building = threading.Barrier(2)

    def build(d):
        both_building.wait(timeout=10)  # neither publishes before both build
        with open(os.path.join(d, "out.txt"), "w") as f:
            f.write(os.path.basename(d))

    with ThreadPoolExecutor(2) as pool:
        paths = list(pool.map(lambda _: cache.cached("race", build, 1), range(2)))
    assert paths[0] == paths[1]
    assert sorted(os.listdir(paths[0])) == [cache.MARKER, "out.txt"]
    with open(os.path.join(paths[0], "out.txt")) as f:
        assert f.read().startswith(os.path.basename(paths[0]) + ".tmp-")
    # the loser dropped its temp dir
    assert os.listdir(os.path.join(cache.ROOT, "race")) == [os.path.basename(paths[0])]


def test_key_covers_params_sources_and_inputs(cache, tmp_path):
    src = tmp_path / "src.py"
    src.write_text("A = 1\n")
    data = tmp_path / "data.bin"
    data.write_bytes(b"x" * 8)
    built = []

    def build(d):
        built.append(d)

    def path(params):
        return cache.cached("k", build, params, (str(src),), cache.stat_sig(str(data)))

    p = path((1, 2))
    assert path((1, 2)) == p and len(built) == 1  # reused, not rebuilt
    assert path((1, 3)) != p
    src.write_text("A = 2\n")
    p_src = path((1, 2))
    assert p_src != p
    st = os.stat(data)
    os.utime(data, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
    assert path((1, 2)) not in (p, p_src)
    # a bytes signature keys on content: same size and mtime, other bytes
    assert cache.key((), (), b"aa") != cache.key((), (), b"ab")


def test_failed_build_publishes_nothing(cache):
    def build(d):
        _writer("half")(d)
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        cache.cached("fail", build, ())
    assert os.listdir(os.path.join(cache.ROOT, "fail")) == []
    p = cache.cached("fail", _writer("whole"), ())
    with open(os.path.join(p, "out.txt")) as f:
        assert f.read() == "whole"


def test_publish_into_a_given_dir(cache, tmp_path):
    """An empty dir is replaced; a dir holding another build raises
    instead of being reused or overwritten."""
    out = tmp_path / "out"
    out.mkdir()
    assert cache.publish(str(out), _writer("a"), "key-a") == str(out)
    assert cache.publish(str(out), _writer("b"), "key-a") == str(out)
    assert (out / "out.txt").read_text() == "a"
    with pytest.raises(OSError):
        cache.publish(str(out), _writer("b"), "key-b")
    assert (out / "out.txt").read_text() == "a"
    assert sorted(os.listdir(tmp_path)) == ["out"]  # no temp dir left


# The resumable run keeps its own commit protocol: its partition commit and
# plan-keyed ``_input`` layout are the resume contract, and they sit on the
# timed path of the partitioned benchmark workload.
LEFT_ALONE = {"pipelines/runner.py"}


def test_every_cached_artifact_goes_through_the_helper():
    """Digests, markers and replace-renames appear only in the helper and
    in the runner's resume protocol."""
    package = pathlib.Path(__file__).resolve().parents[1] / "pytorchocr_ray"
    hits = {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"hashlib|_SUCCESS|os\.replace", path.read_text())
    }
    assert hits == {"state/cache.py"} | LEFT_ALONE

"""Image perceptual-hash dedup: engine-vs-independent-oracle kernel
parity, SQL-twin parity on planted duplicates, and edge cases."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pytorchocr_ray.ops.imagededup import (
    DHASH_EMPTY,
    _oracle_dhash,
    dhash_gray,
    image_dhash_dups,
    image_dhash_dups_sql,
    image_dhash_near,
    image_dhash_near_sql,
)


def test_dhash_kernel_matches_independent_oracle():
    """The vectorized reduceat kernel and the integral-image scalar
    oracle agree bit-for-bit across sizes, including non-divisible
    dimensions and flat / gradient / random content."""
    rng = np.random.default_rng(7)
    cases = [
        rng.integers(0, 256, (h, w), dtype=np.uint8)
        for h, w in [(8, 9), (96, 128), (97, 131), (288, 416), (10, 300)]
    ]
    cases.append(np.full((64, 64), 200, dtype=np.uint8))  # flat -> 0 bits
    cases.append(np.tile(np.arange(90, dtype=np.uint8), (40, 1)))  # gradient
    for img in cases:
        assert dhash_gray(img) == _oracle_dhash(img), img.shape
    assert dhash_gray(np.full((64, 64), 200, dtype=np.uint8)) == 0


def test_dhash_sub_grid_sentinel():
    tiny = np.zeros((4, 4), dtype=np.uint8)
    assert dhash_gray(tiny) == DHASH_EMPTY
    assert _oracle_dhash(tiny) == DHASH_EMPTY


def test_dhash_negative_int64_view():
    """An image bright on the left of every pair sets bit 63 -> the
    int64 two's-complement view must go negative identically on both
    sides (the parquet/SQL carrier type is int64)."""
    img = np.tile(np.repeat(np.arange(9, 0, -1, dtype=np.uint8) * 20, 16), (32, 1))
    e, o = dhash_gray(img), _oracle_dhash(img)
    assert e == o
    assert e < 0  # all-ones hash is -1 in int64


@pytest.fixture(scope="module")
def media_dir(tmp_path_factory):
    """Small media table with PLANTED byte-duplicates (the synthetic
    corpus has none): imgs 0 and 3 share a payload, 1/4/5 share another."""
    from pytorchocr_ray.functions.png import encode_gray

    d = tmp_path_factory.mktemp("media")
    rng = np.random.default_rng(11)
    imgs = [rng.integers(0, 256, (48, 64), dtype=np.uint8) for _ in range(6)]
    imgs[3] = imgs[0].copy()
    imgs[4] = imgs[1].copy()
    imgs[5] = imgs[1].copy()
    pq.write_table(
        pa.table(
            {
                "media_ref": pa.array([f"img-{i:02d}" for i in range(6)]),
                "data": pa.array([encode_gray(im) for im in imgs], pa.binary()),
            }
        ),
        os.path.join(str(d), "part-0.parquet"),
    )
    return str(d)


def test_image_dhash_dups_parity_and_groups(ray_session, media_dir):
    e = (
        image_dhash_dups(media_dir, concurrency=2)
        .to_pandas()
        .sort_values("media_ref")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    o = (
        con.sql(image_dhash_dups_sql(media_dir))
        .df()
        .sort_values("media_ref")
        .reset_index(drop=True)
    )
    for col in ("media_ref", "dhash", "group_n", "is_dup"):
        assert e[col].tolist() == o[col].tolist(), col
    r = e.set_index("media_ref")
    # keep-first rule on the planted groups
    assert r.loc["img-00", "is_dup"] == 0 and r.loc["img-03", "is_dup"] == 1
    assert r.loc["img-00", "group_n"] == 2
    assert r.loc["img-01", "is_dup"] == 0
    assert r.loc["img-04", "is_dup"] == 1 and r.loc["img-05", "is_dup"] == 1
    assert r.loc["img-01", "group_n"] == 3
    assert r.loc["img-02", "group_n"] == 1 and r.loc["img-02", "is_dup"] == 0


@pytest.fixture(scope="module")
def near_dir(tmp_path_factory):
    """Media table with a planted NEAR pair: img-01 is img-00 with one
    block's brightness nudged (small Hamming distance, not identical);
    img-03 copies img-02 exactly (hamming 0 — must NOT appear in the
    near output); img-04 is unrelated."""
    from pytorchocr_ray.functions.png import encode_gray

    d = tmp_path_factory.mktemp("near")
    rng = np.random.default_rng(29)
    base = rng.integers(0, 256, (64, 72), dtype=np.uint8)
    near = base.copy()
    near[0:8, 0:8] = 255  # flip a handful of top-left comparisons
    other = rng.integers(0, 256, (64, 72), dtype=np.uint8)
    imgs = [base, near, other, other.copy(),
            rng.integers(0, 256, (48, 60), dtype=np.uint8)]
    pq.write_table(
        pa.table(
            {
                "media_ref": pa.array([f"img-{i:02d}" for i in range(len(imgs))]),
                "data": pa.array([encode_gray(im) for im in imgs], pa.binary()),
            }
        ),
        os.path.join(str(d), "part-0.parquet"),
    )
    # make sure the plant really is a near (1..6) pair at the hash level
    hams = bin(
        int(np.int64(dhash_gray(base)).view(np.uint64))
        ^ int(np.int64(dhash_gray(near)).view(np.uint64))
    ).count("1")
    assert 1 <= hams <= 6, hams
    return str(d), hams


def _near_match(media_dir, con, **kw):
    e = (
        image_dhash_near(media_dir, concurrency=2, **kw)
        .to_pandas()
        .sort_values("media_ref")
        .reset_index(drop=True)
    )
    o = (
        con.sql(image_dhash_near_sql(media_dir, **kw))
        .df()
        .sort_values("media_ref")
        .reset_index(drop=True)
    )
    assert e["media_ref"].tolist() == o["media_ref"].tolist()
    assert e["dhash"].astype(np.int64).tolist() == o["dhash"].astype(
        np.int64
    ).tolist()
    assert e["near_dup"].astype(np.int64).tolist() == o["near_dup"].astype(
        np.int64
    ).tolist()
    return e.set_index("media_ref")


def test_image_dhash_near_parity(ray_session, near_dir):
    media_dir, ham = near_dir
    con = duckdb.connect()
    r = _near_match(media_dir, con, max_hamming=max(3, ham))
    # planted near pair: img-01 (larger ref) is flagged, img-00 (the
    # retained representative) is not
    assert r.loc["img-01", "near_dup"] == 1
    assert r.loc["img-00", "near_dup"] == 0
    # hamming-0 (exact copy img-03 of img-02) is image_dhash_dups'
    # answer: NOT flagged here
    assert r.loc["img-03", "near_dup"] == 0
    assert r.loc["img-04", "near_dup"] == 0  # unrelated image


def test_image_dhash_near_cap_parity(ray_session, near_dir):
    """Both hot-bucket guards active (cap=1 forces split + drop on every
    multi-member bucket) — engine and SQL must agree exactly."""
    media_dir, ham = near_dir
    con = duckdb.connect()
    _near_match(media_dir, con, max_hamming=max(3, ham), bucket_cap=1)


def _gate_run(monkeypatch, run, forced: bool):
    """(sorted result of ``run()``, names of the close-outs the banded
    kernel ran through co_partition); ``forced`` hides the footer count, so
    the kernel must count the hot buckets."""
    import pytorchocr_ray.ops as ops
    from pytorchocr_ray.ops import dedup

    names = []
    real = dedup.co_partition

    def spy(fn, **sides):
        names.append(fn.__name__)
        return real(fn, **sides)

    with monkeypatch.context() as m:
        m.setattr(dedup, "co_partition", spy)
        if forced:
            m.setattr(ops, "footer_rows", lambda *paths: None)
        df = run().to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True), names


@pytest.mark.parametrize("query", ["simhash_pairs", "image_dhash_near"])
def test_hot_bucket_gate_is_exact(ray_session, near_dir, tmp_path, monkeypatch, query):
    """At the default cap, skipping the hot-bucket count because the
    footers hold fewer rows than the cap returns the same table as running
    it (no bucket can be hot), and the skip really drops that exchange."""
    from functools import partial

    from pytorchocr_ray.ops.dedup import simhash_pairs

    if query == "simhash_pairs":
        rng = np.random.default_rng(3)
        texts = [" ".join(rng.choice([f"w{i}" for i in range(80)], 40)) for _ in range(12)]
        texts.append(texts[4])  # an exact copy: a hamming-0 pair
        pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                                 "text": texts}), str(tmp_path / "documents.parquet"))
        run = partial(simhash_pairs, str(tmp_path))
    else:
        run = partial(image_dhash_near, near_dir[0], concurrency=2)
    gated, gated_names = _gate_run(monkeypatch, run, forced=False)
    forced, forced_names = _gate_run(monkeypatch, run, forced=True)
    assert len(gated) and gated.equals(forced)
    # hot_keys: the kernel's hot-bucket count
    assert "hot_keys" in forced_names and "hot_keys" not in gated_names, (forced_names, gated_names)

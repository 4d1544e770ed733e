"""ops.top_k: the per-block partial and the co-partitioned close-out that
every ranked selection in ops/ goes through."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

BIG = (1 << 53) + 1

SCHEMA = {"g": pa.int64(), "score": pa.int64(), "id": pa.int64()}
ORDER = [("score", False), ("id", True)]


def _ds(*blocks: pa.Table):
    import ray.data as rd

    return rd.from_arrow(list(blocks))


def _rows(ds) -> list[tuple]:
    df = ds.to_pandas()
    return sorted(df.itertuples(index=False, name=None))


def _reference(df: pd.DataFrame, key: list[str], order, k: int) -> pd.DataFrame:
    """Single-frame pandas: sort, head(k) per key, rank by position."""
    s = df.sort_values(
        key + [c for c, _ in order],
        ascending=[True] * len(key) + [a for _, a in order],
    )
    if key:
        s = s.groupby(key).head(k)
        rank = s.groupby(key).cumcount() + 1
    else:
        s = s.head(k)
        rank = np.arange(1, len(s) + 1)
    return s.assign(rank=np.asarray(rank, dtype=np.int64))


def test_tie_across_blocks_broken_by_id(ray_session):
    from pytorchocr_ray.ops import top_k

    # every 7 ties; the two lowest ids win, one from each block, so the
    # per-block partial must already break ties by id
    a = pa.table({"g": [1, 1, 1, 1], "score": [7, 7, 3, 7], "id": [9, 8, 1, 3]})
    b = pa.table({"g": [1, 1], "score": [7, 5], "id": [4, 2]})
    out = top_k(_ds(a, b), "g", ORDER, 2, SCHEMA)
    assert list(out.columns()) == ["g", "score", "id", "rank"]
    assert _rows(out) == [(1, 7, 3, 1), (1, 7, 4, 2)]


def test_k_larger_than_group_and_key_in_one_block(ray_session):
    from pytorchocr_ray.ops import top_k

    a = pa.table({"g": [1, 1, 2], "score": [1, 2, 5], "id": [1, 2, 3]})
    b = pa.table({"g": [1, 3], "score": [3, 4], "id": [4, 5]})
    got = _rows(top_k(_ds(a, b), "g", ORDER, 10, SCHEMA))
    assert got == [(1, 1, 1, 3), (1, 2, 2, 2), (1, 3, 4, 1), (2, 5, 3, 1), (3, 4, 5, 1)]


def test_string_and_composite_keys(ray_session):
    from pytorchocr_ray.ops import top_k

    schema = {"lang": pa.string(), "src": pa.int64(), "h": pa.int64(), "id": pa.int64()}
    a = pa.table({"lang": ["en", "en", "de", "en"], "src": [0, 1, 0, 0],
                  "h": [5, 5, 1, 2], "id": [1, 2, 3, 4]})
    b = pa.table({"lang": ["de", "en"], "src": [0, 0], "h": [0, 3], "id": [5, 6]})
    asc = [("h", True), ("id", True)]
    by_lang = _rows(top_k(_ds(a, b), "lang", asc, 1, schema))
    assert by_lang == [("de", 0, 0, 5, 1), ("en", 0, 2, 4, 1)]
    by_both = _rows(top_k(_ds(a, b), ["lang", "src"], asc, 2, schema))
    assert by_both == [("de", 0, 0, 5, 1), ("de", 0, 1, 3, 2), ("en", 0, 2, 4, 1),
                       ("en", 0, 3, 6, 2), ("en", 1, 5, 2, 1)]


def test_global_top_k(ray_session):
    from pytorchocr_ray.ops import top_k

    schema = {"score": pa.int64(), "id": pa.int64()}
    blocks = [pa.table({"score": np.arange(i, 40, 4, dtype=np.int64),
                        "id": np.arange(i, 40, 4, dtype=np.int64)}) for i in range(4)]
    out = top_k(_ds(*blocks), None, ORDER, 3, schema).to_pandas()
    assert out.sort_values("rank")[["id", "rank"]].values.tolist() == [[39, 1], [38, 2], [37, 3]]


def test_int64_scores_past_2_53_kept_exact(ray_session):
    from pytorchocr_ray.ops import top_k

    # BIG and BIG + 1 are one float64; ranking through a float would tie
    # them and hand rank 1 to the lower id
    a = pa.table({"g": [0, 0], "score": [BIG, 1], "id": [1, 2]})
    b = pa.table({"g": [0], "score": [BIG + 1], "id": [3]})
    out = top_k(_ds(a, b), "g", ORDER, 2, SCHEMA).to_pandas()
    assert out["score"].dtype == np.int64
    assert _rows(top_k(_ds(a, b), "g", ORDER, 2, SCHEMA)) == [(0, BIG, 1, 2), (0, BIG + 1, 3, 1)]


def test_empty_input_returns_no_rows(ray_session):
    from pytorchocr_ray.ops import top_k

    empty = pa.table({"g": pa.array([], pa.int64()), "score": pa.array([], pa.int64()),
                      "id": pa.array([], pa.int64())})
    assert top_k(_ds(empty), "g", ORDER, 3, SCHEMA).count() == 0
    assert top_k(_ds(empty), None, ORDER, 3, SCHEMA).count() == 0
    some = pa.table({"g": [1], "score": [1], "id": [1]})
    filtered = _ds(some).filter(lambda r: r["id"] > 1)
    assert len(top_k(filtered, "g", ORDER, 3, SCHEMA).to_pandas()) == 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 60),
    n_keys=st.integers(1, 5),
    k=st.integers(1, 6),
    cuts=st.lists(st.integers(0, 60), max_size=4),
    global_key=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_matches_single_frame_reference(ray_session, n, n_keys, k, cuts, global_key, seed):
    from pytorchocr_ray.ops import top_k

    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "g": rng.integers(0, n_keys, n).astype(np.int64),
        # few distinct scores, so ties are common and the id decides
        "score": rng.integers(-3, 3, n).astype(np.int64),
        "id": rng.permutation(n).astype(np.int64),
    })
    t = pa.Table.from_pandas(df, preserve_index=False)
    bounds = sorted({0, n, *(min(c, n) for c in cuts)})
    blocks = [t.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])] or [t]
    key = [] if global_key else ["g"]
    got = top_k(_ds(*blocks), None if global_key else "g", ORDER, k, SCHEMA).to_pandas()
    want = _reference(df, key, ORDER, k)
    assert len(got) == len(want)
    if len(want):
        cols = ["g", "score", "id", "rank"]
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)

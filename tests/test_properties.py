"""Property-based tests (hypothesis) for the exactness-critical kernels."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pytorchocr_ray.functions.charset import CHARSET
from pytorchocr_ray.functions.ctc import ctc_greedy_decode
from pytorchocr_ray.functions.geometry import (
    convex_hull,
    min_area_rect,
    polygon_area_perimeter,
    sort_boxes,
    unclip,
)
from pytorchocr_ray.functions.png import decode_gray, encode_gray

points_strategy = st.lists(
    st.tuples(
        st.floats(-500, 500, allow_nan=False), st.floats(-500, 500, allow_nan=False)
    ),
    min_size=3,
    max_size=40,
).map(lambda pts: np.array(pts, dtype=np.float64))


@settings(max_examples=80, deadline=None)
@given(points_strategy)
def test_min_area_rect_contains_all_points(pts):
    corners, _ = min_area_rect(pts)
    if len(np.unique(pts, axis=0)) < 3:
        return
    # every point inside the rect up to numerical slack
    c = corners.mean(axis=0)
    u = corners[1] - corners[0]
    v = corners[3] - corners[0]
    # relative slack: near-degenerate hulls (points ~1e-7 apart) make edge
    # directions ill-conditioned; product inputs are integer-ish pixel
    # coords where this never matters
    tol = 1e-6 * (1.0 + float(np.abs(pts).max()))
    for axis in (u, v):
        n = np.linalg.norm(axis)
        if n < 1e-9:
            continue
        proj = (pts - c) @ (axis / n)
        assert proj.max() <= n / 2 + tol
        assert proj.min() >= -n / 2 - tol


@settings(max_examples=80, deadline=None)
@given(points_strategy)
def test_hull_is_subset_and_contains_extremes(pts):
    hull = convex_hull(pts)
    pts_set = {(round(x, 9), round(y, 9)) for x, y in pts}
    for x, y in hull:
        assert (round(x, 9), round(y, 9)) in pts_set
    assert pts[:, 0].min() in hull[:, 0] and pts[:, 0].max() in hull[:, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(5, 200),
    st.floats(5, 200),
    st.floats(0.5, 3.0),
)
def test_unclip_grows_rectangle(w, h, ratio):
    rect = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=float)
    out = unclip(rect, ratio)
    a0, _ = polygon_area_perimeter(rect)
    a1, _ = polygon_area_perimeter(out)
    assert a1 > a0
    # expected offset d = area*ratio/perimeter on each side
    d = a0 * ratio / (2 * (w + h))
    assert abs(out[:, 0].min() - (-d)) < 1e-6
    assert abs(out[:, 0].max() - (w + d)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)),
        min_size=1,
        max_size=12,
    )
)
def test_sort_boxes_permutation_invariant(tls):
    """The reference algorithm starts from a (y, x)-sorted list, so its
    output must not depend on input order."""
    boxes = np.array(
        [[[x, y], [x + 10, y], [x + 10, y + 5], [x, y + 5]] for x, y in tls]
    )
    a = sort_boxes(boxes)
    rng = np.random.default_rng(0)
    b = sort_boxes(boxes[rng.permutation(len(boxes))])
    np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(8, 60),
    st.integers(8, 60),
    st.floats(0.8, 2.5),
)
def test_closed_form_unclip_matches_general(x0, y0, w, h, ratio):
    """The snapped-path shortcut in boxes_from_bitmap (rect grown by d per
    side, skip min_area_rect) must equal unclip + get_mini_boxes."""
    from pytorchocr_ray.functions.geometry import get_mini_boxes, unclip

    rect = np.array(
        [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]], dtype=float
    )
    general, sside_g = get_mini_boxes(unclip(rect, ratio))
    d = (w * h) * ratio / (2.0 * (w + h))
    closed = np.array(
        [
            [x0 - d, y0 - d],
            [x0 + w + d, y0 - d],
            [x0 + w + d, y0 + h + d],
            [x0 - d, y0 + h + d],
        ]
    )
    np.testing.assert_allclose(general, closed, atol=1e-8)
    assert abs(sside_g - (min(w, h) + 2 * d)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40), st.integers(0, 2**32 - 1))
def test_box_score_fast_path_is_region_mean(w, h, seed):
    from pytorchocr_ray.functions.dbpost import _box_score

    rng = np.random.default_rng(seed)
    prob = rng.random((h + 10, w + 10)).astype(np.float32)
    box = np.array([[3, 4], [3 + w, 4], [3 + w, 4 + h], [3, 4 + h]], dtype=float)
    got = _box_score(prob, box)
    want = float(prob[4 : 4 + h + 1, 3 : 3 + w + 1].mean())
    assert abs(got - want) < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_png_roundtrip_random(h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    out = decode_gray(encode_gray(img))
    np.testing.assert_array_equal(out, img)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, len(CHARSET)), min_size=1, max_size=30),
    st.floats(0.5, 0.99),
)
def test_ctc_decode_no_blank_no_adjacent_repeat(indices, conf):
    c = len(CHARSET) + 1
    probs = np.full((len(indices), c), (1 - conf) / (c - 1), dtype=np.float64)
    for t, i in enumerate(indices):
        probs[t, i] = conf
    text, p = ctc_greedy_decode(probs)
    # decoded text never contains adjacent repeats from a single run
    collapsed = []
    prev = None
    for i in indices:
        if i != 0 and i != prev:
            collapsed.append(CHARSET[i - 1])
        prev = i
    assert text == "".join(collapsed)
    assert 0.0 <= p <= 1.0


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=200),
    st.integers(1, 100),
)
def test_quantile_threshold_matches_inverted_cdf(xs, pct):
    """r4: the shared histogram-threshold rule (token_quantile_filter,
    events_value_quantile) is exactly numpy's inverted-CDF percentile —
    the textbook definition 'smallest x with CDF(x) >= q'."""
    from pytorchocr_ray.ops.textstats import quantile_threshold

    arr = np.asarray(xs, dtype=np.int64)
    v, c = np.unique(arr, return_counts=True)
    thr = quantile_threshold(v, c, pct)
    want = int(np.percentile(arr, pct, method="inverted_cdf"))
    assert thr == want
    # defining inequalities, straight from the rule
    n = len(arr)
    assert 100 * (arr <= thr).sum() >= pct * n
    assert 100 * (arr < thr).sum() < pct * n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_sub_l2_exact_integer(n, k, d, seed):
    """r4: the PQ distance kernel promises exact integers in float64 for
    quantization-range inputs — check against arbitrary-precision ints."""
    from pytorchocr_ray.ops.simsearch import _sub_l2

    rng = np.random.default_rng(seed)
    lim = 2_000_000  # 2x EMB_SCALE headroom
    x = rng.integers(-lim, lim, (n, d)).astype(np.int64)
    c = rng.integers(-lim, lim, (k, d)).astype(np.int64)
    got = _sub_l2(x, c)
    for i in range(n):
        for j in range(k):
            want = sum(
                (int(a) - int(b)) ** 2 for a, b in zip(x[i], c[j])
            )  # python ints: no overflow
            assert int(got[i, j]) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_fp_init_picks_distinct_input_rows(n, k, seed):
    """r4: farthest-point init must return k rows of the input, starting
    at row 0, and never pick the same point twice while distinct points
    remain."""
    from pytorchocr_ray.ops.simsearch import _fp_init

    rng = np.random.default_rng(seed)
    xs = rng.integers(-100, 100, (n, 4)).astype(np.int64)
    k = min(k, n)
    out = _fp_init(xs, k)
    assert out.shape == (k, 4)
    assert (out[0] == xs[0]).all()
    rows = {tuple(r) for r in xs.tolist()}
    for r in out.tolist():
        assert tuple(int(v) for v in r) in rows
    n_distinct_in = len(rows)
    n_distinct_out = len({tuple(r) for r in out.tolist()})
    assert n_distinct_out == min(k, n_distinct_in)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 1600),
    seed=st.integers(0, 10**6),
    scale=st.sampled_from([50, 3000, 32768]),
)
def test_adpcm_decoders_agree_property(n, seed, scale):
    """r5: the block-vectorized numpy ADPCM decoder and the per-sample
    reference decoder are independent implementations of an integer-exact
    codec — they must agree bit-for-bit on arbitrary int16 signals of any
    length (partial blocks, single-sample payloads, rail-clipped walks)."""
    from pytorchocr_ray.stages.multimodal import adpcm_wav_decode
    from pytorchocr_ray.synth.multimodal import (
        ima_adpcm_encode_wav,
        ima_adpcm_reference_decode,
    )

    rng = np.random.default_rng(seed)
    samples = np.clip(
        np.cumsum(rng.integers(-scale, scale + 1, size=n)), -32768, 32767
    )
    data = ima_adpcm_encode_wav(samples.astype(np.int64), 8000)
    ref = ima_adpcm_reference_decode(data)
    eng, rate = adpcm_wav_decode(data)
    assert rate == 8000
    assert len(eng) == n
    assert np.array_equal(ref, eng)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 400),
    k=st.integers(1, 64),
    pct=st.integers(1, 100),
    seed=st.integers(0, 10**6),
)
# np.percentile(method="inverted_cdf") computes 0.55 * 100 in floats as
# 55.00000000000001 and returns the 56th value; the true point is the 55th
@example(n=100, k=64, pct=55, seed=0)
def test_sketch_quantile_on_full_sample_is_exact(n, k, pct, seed):
    """r5: when the sketch holds EVERY row (k >= n), sketch_quantile must
    equal the exact inverted-CDF percentile of the data: the
    ceil(pct * n / 100)-th smallest value, in integer arithmetic."""
    from pytorchocr_ray.ops.relational import sketch_quantile

    rng = np.random.default_rng(seed)
    vals = rng.normal(0, 100, size=n)
    est = sketch_quantile(vals, pct)
    exact = float(np.sort(vals)[-(-pct * n // 100) - 1])
    assert est == exact


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 20)), max_size=40),
    st.sampled_from([None, 2, 3, 5]),
)
def test_bucket_pairs_match_per_bucket_triu(rows, max_n):
    """dedup._bucket_pairs, one vectorized pass over every bucket, yields
    exactly the per-bucket upper triangle over doc_id-sorted members of
    every bucket with 2..max_n rows."""
    import pandas as pd

    from pytorchocr_ray.ops.dedup import _bucket_pairs

    df = pd.DataFrame(rows, columns=["band", "key", "doc_id"], dtype=np.int64)
    i, j = _bucket_pairs(df, ["band", "key"], max_n)
    ids = df["doc_id"].to_numpy()
    assert (df["band"].to_numpy()[i] == df["band"].to_numpy()[j]).all()
    got = sorted(zip(ids[i].tolist(), ids[j].tolist()))
    want = []
    for _k, b in df.groupby(["band", "key"]):
        if 2 <= len(b) <= (max_n or len(df)):
            s = np.sort(b["doc_id"].to_numpy())
            a, c = np.triu_indices(len(s), 1)
            want += zip(s[a].tolist(), s[c].tolist())
    assert got == sorted(want)


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda w: st.lists(
            st.lists(st.one_of(_INT64, st.sampled_from([-1, -(2**63), 2**63 - 1, 0])),
                     min_size=w, max_size=w),
            min_size=1, max_size=12,
        )
    ),
    st.data(),
)
def test_hamming_counts_every_bit_of_every_word(words, data):
    """dedup.hamming, the popcount of every banded-Hamming close-out,
    equals Python's bit count of each word's 64-bit XOR pattern summed over
    the words, negative words (dHash's two's-complement view) and bit 63
    included."""
    from pytorchocr_ray.ops.dedup import hamming

    sigs = np.array(words, dtype=np.int64)
    idx = st.lists(st.integers(0, len(words) - 1), max_size=20)
    i = np.array(data.draw(idx), dtype=np.int64)
    j = np.array(data.draw(st.lists(st.integers(0, len(words) - 1),
                                    min_size=len(i), max_size=len(i))), dtype=np.int64)
    want = [sum(bin((a ^ b) & (2**64 - 1)).count("1") for a, b in zip(words[p], words[q]))
            for p, q in zip(i.tolist(), j.tolist())]
    assert hamming(sigs, i, j).tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(-50, 50), st.integers(1, 9)),
             min_size=1, max_size=60),
    st.integers(1, 100),
)
def test_key_quantiles_match_quantile_threshold(hist, pct):
    """relational._key_quantiles, every key at once over unsorted,
    repeated histogram rows, equals textstats.quantile_threshold per key."""
    import pandas as pd

    from pytorchocr_ray.ops.relational import _key_quantiles
    from pytorchocr_ray.ops.textstats import quantile_threshold

    df = pd.DataFrame(hist, columns=["k", "cents", "c"])
    got = _key_quantiles(df, "k", pct).set_index("k")
    for k, g in df.groupby("k"):
        h = g.groupby("cents")["c"].sum()
        want = quantile_threshold(h.index.to_numpy(np.int64), h.to_numpy(np.int64), pct)
        assert got.loc[k, "p_cents"] == want
        assert got.loc[k, "n"] == h.sum()
    assert len(got) == df["k"].nunique()

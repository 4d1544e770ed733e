"""The vectorized OCR kernels return exactly what the scalar reference
kernels in ``reference_kernels.py`` return: PNG unfilter, connected
components, convex hull, and through them DB / PSE / PAN post-processing."""

import contextlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from pytorchocr_ray.functions import dbpost, geometry, panpost, psepost
from pytorchocr_ray.functions.png import (
    _SIG,
    _chunk,
    _unfilter,
    decode_gray,
)


@contextlib.contextmanager
def reference_kernels():
    """Run the library's post-processing on the scalar reference kernels."""
    saved = (
        dbpost.connected_components,
        psepost.connected_components,
        panpost.connected_components,
        geometry.convex_hull,
    )
    dbpost.connected_components = ref.connected_components
    psepost.connected_components = ref.connected_components
    panpost.connected_components = ref.connected_components
    geometry.convex_hull = ref.convex_hull
    try:
        yield
    finally:
        (
            dbpost.connected_components,
            psepost.connected_components,
            panpost.connected_components,
            geometry.convex_hull,
        ) = saved


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------ PNG


def png_from_filtered(raw: np.ndarray) -> bytes:
    """Wrap already-filtered (h, w+1) scanlines into a grayscale PNG."""
    h, stride = raw.shape
    ihdr = struct.pack(">IIBBBBB", stride - 1, h, 8, 0, 0, 0, 0)
    return (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes()))
        + _chunk(b"IEND", b"")
    )


@st.composite
def filtered_scanlines(draw, max_filter=4):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, (h, w + 1), dtype=np.uint8)
    raw[:, 0] = draw(
        st.lists(st.integers(0, max_filter), min_size=h, max_size=h)
    )
    return raw


@settings(max_examples=300, deadline=None)
@given(filtered_scanlines())
@example(np.array([[4, 200]], dtype=np.uint8))  # 1x1
@example(np.array([[3, 1, 2, 250, 7, 9]], dtype=np.uint8))  # 1xN
@example(np.array([[1, 5], [2, 9], [3, 200], [4, 77], [0, 3]], dtype=np.uint8))
def test_unfilter_matches_reference(raw):
    h, stride = raw.shape
    want = ref.unfilter(raw.ravel(), h, stride - 1)
    assert_same_array(_unfilter(raw.ravel(), h, stride - 1), want)
    assert_same_array(decode_gray(png_from_filtered(raw)), want)


@settings(max_examples=60, deadline=None)
@given(filtered_scanlines(max_filter=4), st.integers(5, 255), st.data())
def test_bad_filter_byte_returns_none(raw, bad, data):
    raw[data.draw(st.integers(0, raw.shape[0] - 1)), 0] = bad
    assert decode_gray(png_from_filtered(raw)) is None


def test_long_and_short_filter_runs_match_reference():
    # long runs of one filter between short ones, each run starting from
    # the last row of the run above
    runs = [(4, 120), (1, 3), (3, 110), (2, 1), (4, 5), (0, 2), (3, 60), (4, 29)]
    rng = np.random.default_rng(11)
    raw = rng.integers(0, 256, (330, 201), dtype=np.uint8)
    raw[:, 0] = np.repeat([f for f, _ in runs], [n for _, n in runs])
    assert_same_array(
        decode_gray(png_from_filtered(raw)), ref.unfilter(raw.ravel(), 330, 200)
    )


@pytest.mark.parametrize("ftype", [3, 4])
def test_foreign_400x300_average_and_paeth_match_reference(ftype):
    rng = np.random.default_rng(ftype)
    raw = rng.integers(0, 256, (300, 401), dtype=np.uint8)
    raw[:, 0] = ftype
    assert_same_array(
        decode_gray(png_from_filtered(raw)), ref.unfilter(raw.ravel(), 300, 400)
    )


# ----------------------------------------------------- connected components


def assert_same_components(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert isinstance(g, tuple) and len(g) == 2
            assert_same_array(g[0], w[0])
            assert_same_array(g[1], w[1])
        else:
            assert_same_array(g, w)


@st.composite
def bitmaps(draw):
    h = draw(st.integers(0, 24))
    w = draw(st.integers(0, 24))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((h, w)) < density


def diagonal_mask(n: int, anti: bool) -> np.ndarray:
    m = np.eye(n, dtype=bool)
    return m[:, ::-1] if anti else m


@settings(max_examples=300, deadline=None)
@given(bitmaps(), st.booleans())
@example(np.zeros((0, 5), dtype=bool), False)
@example(np.zeros((6, 9), dtype=bool), True)
@example(np.ones((6, 9), dtype=bool), True)
@example(np.ones((1, 1), dtype=bool), False)
@example(diagonal_mask(7, anti=False), True)
@example(diagonal_mask(7, anti=True), False)
@example(np.indices((8, 8)).sum(axis=0) % 2 == 0, True)  # checkerboard
def test_connected_components_match_reference(mask, with_runs):
    assert_same_components(
        dbpost.connected_components(mask, with_runs=with_runs),
        ref.connected_components(mask, with_runs=with_runs),
    )


def test_diagonal_touches_join_one_component():
    for anti in (False, True):
        comps = dbpost.connected_components(diagonal_mask(9, anti))
        assert len(comps) == 1 and len(comps[0]) == 18


# ------------------------------------------------------------- convex hull


@st.composite
def integer_points(draw):
    k = draw(st.integers(1, 12))
    coord = st.integers(-k, k)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=0, max_size=40))
    # collinear runs along a random integer direction
    for _ in range(draw(st.integers(0, 3))):
        ox, oy, dx, dy = (draw(st.integers(-6, 6)) for _ in range(4))
        n = draw(st.integers(1, 8))
        pts += [(ox + i * dx, oy + i * dy) for i in range(n)]
    pts += pts[: draw(st.integers(0, len(pts)))]  # duplicates
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


@settings(max_examples=400, deadline=None)
@given(integer_points())
@example(np.zeros((0, 2)))
@example(np.array([[3.0, 3.0], [3.0, 3.0]]))
@example(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]]))
@example(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]]))
@example(np.array([[0.0, 4.0], [0.0, 0.0], [0.0, 2.0]]))
def test_convex_hull_matches_reference(pts):
    assert_same_array(geometry.convex_hull(pts), ref.convex_hull(pts))


# ------------------------------------------------------------ DB / PSE / PAN


def assert_same_boxes(prob, **kw):
    src_h, src_w = prob.shape[0] + 7, prob.shape[1] * 2
    boxes, scores = dbpost.boxes_from_bitmap(prob, src_h, src_w, **kw)
    with reference_kernels():
        want_boxes, want_scores = dbpost.boxes_from_bitmap(prob, src_h, src_w, **kw)
    assert_same_array(boxes, want_boxes)
    assert scores == want_scores


@st.composite
def blob_maps(draw):
    """Probability maps of random (partly overlapping, some tilted) bars
    plus speckle."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = int(rng.integers(16, 64)), int(rng.integers(16, 96))
    prob = rng.random((h, w)) * draw(st.sampled_from([0.2, 0.35, 0.6]))
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(int(rng.integers(0, 7))):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        half_w, half_h = rng.uniform(2, w / 2), rng.uniform(1, 8)
        t = rng.uniform(-0.6, 0.6)
        u = (xx - cx) * np.cos(t) + (yy - cy) * np.sin(t)
        v = -(xx - cx) * np.sin(t) + (yy - cy) * np.cos(t)
        inside = (np.abs(u) <= half_w) & (np.abs(v) <= half_h)
        prob[inside] = rng.uniform(0.4, 1.0)
    return prob.astype(np.float32)


@settings(max_examples=120, deadline=None)
@given(blob_maps(), st.sampled_from(["box", "poly"]), st.booleans())
def test_boxes_from_bitmap_match_reference(prob, score_mode, use_dilation):
    assert_same_boxes(prob, score_mode=score_mode, use_dilation=use_dilation)


@pytest.fixture(scope="module")
def synth_smooth_maps():
    from pytorchocr_ray.functions.charset import build_glyphs
    from pytorchocr_ray.functions.models import DetModel
    from pytorchocr_ray.state.weights import build_weights
    from pytorchocr_ray.synth.generate import render_media

    det = DetModel(build_weights())
    rng = np.random.default_rng(7)
    glyphs = build_glyphs()
    maps = [det.smooth(render_media(rng, glyphs)[0]) for _ in range(12)]
    return det, maps


@pytest.mark.parametrize("score_mode", ["box", "poly"])
@pytest.mark.parametrize("use_dilation", [False, True])
def test_boxes_from_bitmap_match_reference_on_synth(
    synth_smooth_maps, score_mode, use_dilation
):
    det, maps = synth_smooth_maps
    pre = (det.activate, det.smooth_threshold(0.3))
    for smooth in maps:
        assert_same_boxes(
            smooth,
            pre_activation=pre,
            score_mode=score_mode,
            use_dilation=use_dilation,
        )


def rendered_smooth(seed: int, n: int):
    from pytorchocr_ray.functions.charset import build_glyphs
    from pytorchocr_ray.functions.models import DetModel
    from pytorchocr_ray.state.weights import build_weights
    from pytorchocr_ray.synth.generate import render_media

    det = DetModel(build_weights())
    rng = np.random.default_rng(seed)
    glyphs = build_glyphs()
    t = det.smooth_threshold(0.3)
    return t, [det.smooth(render_media(rng, glyphs)[0]) for _ in range(n)]


def test_pse_progressive_expand_matches_reference():
    # the rendered fixture of test_psepost.py::test_pse_detects_rendered_lines
    t, maps = rendered_smooth(21, 8)
    for smooth in maps:
        kernels = [smooth > lvl for lvl in (t + 0.04, t + 0.02, t)]
        labels = psepost.progressive_expand(kernels)
        with reference_kernels():
            want = psepost.progressive_expand(kernels)
        assert labels.max() > 0
        assert_same_array(labels, want)


def test_pan_label_map_matches_reference():
    # the rendered fixture of test_panpost.py::test_pan_full_ocr_path
    t, maps = rendered_smooth(31, 15)
    for smooth in maps:
        args = (smooth > t + 0.04, smooth > t, smooth, 0.2)
        labels = panpost.aggregate_pixels(*args)
        with reference_kernels():
            want = panpost.aggregate_pixels(*args)
        assert labels.max() > 0
        assert_same_array(labels, want)

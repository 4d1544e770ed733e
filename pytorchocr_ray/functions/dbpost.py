"""DBNet-style detection post-processing, from spec, in pure numpy.

Reimplements the semantics of the reference's ``DBPostProcess`` /
``boxes_from_bitmap`` chain (reference pytocr/postprocess/db_postprocess.py:
40-144; C++ twin db_postprocess_fast/src/db_postprocess.cpp:231-317) without
cv2/pyclipper:

  1. ``segmentation = prob_map > thresh`` (default 0.3),
  2. connected components (8-connectivity, labelled in numpy over the row-run
     graph) stand in for ``cv2.findContours``; components are visited in
     (first_row, first_col) discovery order, capped at ``max_candidates``
     (1000),
  3. per component: :func:`geometry.get_mini_boxes` -> drop if
     ``sside < min_size`` (3); score = mean prob inside the filled mini-box
     (score_mode="box", db_postprocess.py:178-194) -> drop if
     ``score < box_thresh`` (0.5); :func:`geometry.unclip` by
     ``area*unclip_ratio/perimeter`` (1.5) -> get_mini_boxes again -> drop if
     ``sside < min_size + 2``,
  4. rescale to source coords ``round(x * src/W)`` clipped, cast **int16**
     (db_postprocess.py:137-143).

Also holds :func:`det_resize` — the ``DetResizeForTest`` analog
(reference pytocr/data/imaug/operators.py:155-275): ratio resize bounded by
``limit_side_len`` with H, W rounded to multiples of 32 (min 32), emitting
``(src_h, src_w, ratio_h, ratio_w)``.
"""

from __future__ import annotations

import numpy as np

from .geometry import get_mini_boxes, unclip


def det_resize(
    img: np.ndarray, limit_side_len: int = 736, limit_type: str = "max"
) -> tuple[np.ndarray, tuple[int, int, float, float]]:
    """Resize keeping aspect, round dims to multiples of 32 (min 32).

    limit_type="max": shrink so the longer side <= limit_side_len (never
    upscales small images, the economical choice for a synthetic corpus of
    <=736px media); "min": grow so the shorter side >= limit_side_len (the
    reference eval default). Returns (resized, (src_h, src_w, ratio_h, ratio_w)).
    """
    src_h, src_w = img.shape[:2]
    if limit_type == "max":
        ratio = min(1.0, limit_side_len / max(src_h, src_w))
    else:
        ratio = max(1.0, limit_side_len / min(src_h, src_w))
    resize_h = max(32, int(round(src_h * ratio / 32) * 32))
    resize_w = max(32, int(round(src_w * ratio / 32) * 32))
    if (resize_h, resize_w) == (src_h, src_w):
        out = img
    else:
        out = _resize_bilinear(img, resize_h, resize_w)
    return out, (src_h, src_w, resize_h / src_h, resize_w / src_w)


def det_resize_fixed(
    img: np.ndarray, image_h: int, image_w: int
) -> tuple[np.ndarray, tuple[int, int, float, float]]:
    """DetResizeForTest mode 1: resize to a fixed ``image_shape``
    (reference pytocr/data/imaug/operators.py:216-227)."""
    src_h, src_w = img.shape[:2]
    out = _resize_bilinear(img, image_h, image_w)
    return out, (src_h, src_w, image_h / src_h, image_w / src_w)


def det_resize_long(
    img: np.ndarray, resize_long: int = 960
) -> tuple[np.ndarray, tuple[int, int, float, float]]:
    """DetResizeForTest mode 2: scale so the LONG side equals
    ``resize_long``, then round H and W UP to multiples of 128
    (reference pytocr/data/imaug/operators.py:229-260)."""
    src_h, src_w = img.shape[:2]
    ratio = resize_long / max(src_h, src_w)
    rh, rw = int(src_h * ratio), int(src_w * ratio)
    rh = max(128, ((rh + 127) // 128) * 128)
    rw = max(128, ((rw + 127) // 128) * 128)
    out = _resize_bilinear(img, rh, rw)
    return out, (src_h, src_w, rh / src_h, rw / src_w)


def det_resize_padding(
    img: np.ndarray, target_size: int = 736, pad_value: int = 240
) -> tuple[np.ndarray, tuple[int, int]]:
    """Padding-resize preprocess: scale the LONG side to ``target_size``
    keeping aspect, paste centered on a (target, target) square canvas —
    the preprocess whose coordinates DBPostProcess restores through the
    affine path (``use_padding_resize``, ref db_postprocess.py:126-140).
    ``pad_value`` defaults to the corpus background gray so the padding is
    ink-free for this engine's density-based detector (the reference pads
    with warpAffine's 0 because its CNN is trained on that).
    Returns (canvas, (src_h, src_w))."""
    src_h, src_w = img.shape[:2]
    ratio = target_size / max(src_h, src_w)
    rh = max(1, int(round(src_h * ratio)))
    rw = max(1, int(round(src_w * ratio)))
    resized = _resize_bilinear(img, rh, rw)
    canvas = np.full((target_size, target_size), pad_value, dtype=img.dtype)
    y0 = (target_size - rh) // 2
    x0 = (target_size - rw) // 2
    canvas[y0 : y0 + rh, x0 : x0 + rw] = resized
    return canvas, (src_h, src_w)


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a 2-D uint8/float image (align-corners=False)."""
    h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    f = img.astype(np.float64)
    val = (
        f[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + f[np.ix_(y0, x1)] * (1 - fy) * fx
        + f[np.ix_(y1, x0)] * fy * (1 - fx)
        + f[np.ix_(y1, x1)] * fy * fx
    )
    if img.dtype == np.uint8:
        return np.clip(np.round(val), 0, 255).astype(np.uint8)
    return val.astype(img.dtype)


def connected_components(
    mask: np.ndarray, with_runs: bool = False
) -> list[np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """8-connected components of a boolean mask, labelled over its row-runs.

    Returns one (N, 2) float64 array of (x, y) *run-endpoint* points per
    component (leftmost + rightmost pixel of every row-run, in row-major run
    order — the component's convex hull support set, all min_area_rect
    needs), ordered by the component's first (row, col) appearance.  With
    ``with_runs`` each entry is ``(points, runs)`` where runs is (R, 3) int32
    rows ``(y, start, end_exclusive)`` — the exact pixel support
    score_mode='poly' averages over.

    Runs come from one pass over the flattened row diffs.  A run touches the
    runs of the previous row whose span reaches within one column of it
    (8-connectivity); two ``searchsorted`` calls over the run keys
    ``row * (w + 1) + col`` find that contiguous range for every run.  Labels
    are the minimum run id of each component, by min-label propagation with
    pointer jumping over those edges, so sorting them gives discovery order.
    """
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # each row starts and ends outside a run, so flips alternate start, end
    flips = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    if flips.size == 0:
        return []
    start_key, end_key = flips[0::2], flips[1::2]
    stride = w + 1
    row = start_key // stride
    start = start_key - row * stride
    end = end_key - row * stride

    # runs of row y-1 overlapping run (y, s, e) within one column: the
    # previous row's runs with end >= s and start <= e, a contiguous range
    lo = np.searchsorted(end_key, start_key - stride, side="left")
    hi = np.searchsorted(start_key, end_key - stride, side="right")
    n_adj = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(row.size), n_adj)
    # run i's edges go to lo[i], lo[i] + 1, ..., hi[i] - 1
    dst = np.arange(n_adj.sum()) - np.repeat(np.cumsum(n_adj) - n_adj - lo, n_adj)

    label = np.arange(row.size)
    while True:
        # hook the larger root of every edge onto the smaller, then jump
        # pointers until every run points at its root
        ra, rb = label[src], label[dst]
        differ = ra != rb
        if not differ.any():
            break
        np.minimum.at(label, np.maximum(ra, rb)[differ], np.minimum(ra, rb)[differ])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped

    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    ys = row[order].astype(np.float64)
    points = np.empty((order.size, 2, 2))
    points[:, 0, 0] = start[order]
    points[:, 1, 0] = end[order] - 1
    points[:, :, 1] = ys[:, None]
    comps = np.split(points.reshape(-1, 2), cuts * 2)
    if not with_runs:
        return comps
    runs = np.stack([row, start, end], axis=1).astype(np.int32)[order]
    return list(zip(comps, np.split(runs, cuts)))


def _box_score(prob_map: np.ndarray, box: np.ndarray, activate=None) -> float:
    """Mean probability inside the filled quadrilateral (score_mode='box').
    With ``activate``, prob_map holds pre-activation values and the
    activation runs only on this bbox subregion (bit-identical result,
    no full-image sigmoid)."""
    h, w = prob_map.shape
    xmin = int(np.clip(np.floor(box[:, 0].min()), 0, w - 1))
    xmax = int(np.clip(np.ceil(box[:, 0].max()), 0, w - 1))
    ymin = int(np.clip(np.floor(box[:, 1].min()), 0, h - 1))
    ymax = int(np.clip(np.ceil(box[:, 1].max()), 0, h - 1))
    if xmax < xmin or ymax < ymin:
        return 0.0
    region = prob_map[ymin : ymax + 1, xmin : xmax + 1]
    # axis-aligned [tl,tr,br,bl] rect == its own bbox: every bbox pixel is
    # inside (edge pixels have cross == 0), so the mask is all-true — skip
    # the meshgrid/cross-product rasterization entirely
    if (
        box[0][1] == box[1][1]
        and box[2][1] == box[3][1]
        and box[0][0] == box[3][0]
        and box[1][0] == box[2][0]
    ):
        if activate is not None:
            region = activate(region)
        return float(region.mean())
    xs, ys = np.meshgrid(
        np.arange(xmin, xmax + 1), np.arange(ymin, ymax + 1)
    )
    inside = np.ones(xs.shape, dtype=bool)
    for i in range(4):
        x1, y1 = box[i]
        x2, y2 = box[(i + 1) % 4]
        cross = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        inside &= cross >= 0
    if not inside.any():
        return 0.0
    if activate is not None:
        region = activate(region)
    return float(region[inside].mean())


def _poly_score(prob_map: np.ndarray, runs: np.ndarray, activate=None) -> float:
    """Mean probability over the component's exact pixel support
    (score_mode='poly').  The reference fills the outer contour polygon
    (db_postprocess.py:109-111,178-194); the run set is this engine's
    contour-interior analog — documented deviation: interior holes are not
    filled (no effect on the solid glyph-band components DB produces)."""
    total = 0.0
    n = 0
    for y, s, e in runs:
        seg = prob_map[y, s:e]
        if activate is not None:
            seg = activate(seg)
        total += float(seg.sum())
        n += e - s
    return total / n if n else 0.0


def dilate_mask(mask: np.ndarray) -> np.ndarray:
    """cv2.dilate with the reference's 2x2 all-ones kernel
    (db_postprocess.py:34-35,52-55): anchor at (1,1), so each set pixel
    spreads one step right, down, and down-right."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:, 1:] |= mask[:, :-1]
    out[1:, 1:] |= mask[:-1, :-1]
    return out


def boxes_from_bitmap(
    prob_map: np.ndarray,
    src_h: int,
    src_w: int,
    thresh: float = 0.3,
    box_thresh: float = 0.5,
    max_candidates: int = 1000,
    unclip_ratio: float = 1.5,
    min_size: int = 3,
    pre_activation=None,
    use_dilation: bool = False,
    score_mode: str = "box",
    use_padding_resize: bool = False,
) -> tuple[np.ndarray, list[float]]:
    """prob map -> (boxes (K,4,2) int16 in source coords, scores).

    ``pre_activation=(activate_fn, smooth_thresh)``: prob_map holds
    PRE-activation values; binarize at the equivalent smooth-domain
    threshold and activate only inside candidate boxes for scoring —
    numerically identical, skips the full-image sigmoid.
    ``use_dilation`` / ``score_mode`` mirror the reference's DBPostProcess
    options (db_postprocess.py:19-20,34-35,109-111).
    ``use_padding_resize``: the prob map came from det_resize_padding (a
    centered square); restore coordinates through the inverse affine
    (transform_preds) instead of the per-axis ratio — ref
    db_postprocess.py:126-140.
    """
    if score_mode not in ("box", "poly"):
        raise ValueError(
            f"score_mode must be 'box' or 'poly', got {score_mode!r}"
        )
    height, width = prob_map.shape
    if pre_activation is not None:
        activate, smooth_thresh = pre_activation
        mask = prob_map > smooth_thresh
    else:
        activate = None
        mask = prob_map > thresh
    if use_dilation:
        mask = dilate_mask(mask)
    want_runs = score_mode == "poly"
    comps = connected_components(mask, with_runs=want_runs)[:max_candidates]
    boxes: list[np.ndarray] = []
    scores: list[float] = []
    for comp in comps:
        pts, runs = comp if want_runs else (comp, None)
        box, sside = get_mini_boxes(pts)
        if sside < min_size:
            continue
        # Axis-snap: glyph-density contours are ragged, so min_area_rect tilts
        # a few degrees on genuinely horizontal text; when the component's
        # axis-aligned bbox is nearly as tight as the rotated rect, prefer it
        # (keeps downstream perspective crops exact pixel copies).
        edge = box[1] - box[0]
        angle = abs(np.degrees(np.arctan2(edge[1], edge[0])))
        tilt = min(angle % 90.0, 90.0 - (angle % 90.0))
        snapped = tilt < 15.0
        if snapped:
            xmin, ymin = pts.min(axis=0)
            xmax, ymax = pts.max(axis=0)
            box = np.array(
                [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]],
                dtype=np.float64,
            )
            sside = float(min(xmax - xmin, ymax - ymin))
            if sside < min_size:
                continue
        # Ensure clockwise orientation for the score / unclip helpers.
        if score_mode == "poly":
            score = _poly_score(prob_map, runs, activate)
        else:
            score = _box_score(prob_map, _clockwise(box), activate)
        if score < box_thresh:
            continue
        if snapped:
            # unclip of an axis-aligned rect is the rect grown by d on each
            # side, and its min-area rect is itself — skip both general
            # helpers (dominant path; identical math)
            w_box = xmax - xmin
            h_box = ymax - ymin
            d = (w_box * h_box) * unclip_ratio / (2.0 * (w_box + h_box))
            box2 = np.array(
                [
                    [xmin - d, ymin - d],
                    [xmax + d, ymin - d],
                    [xmax + d, ymax + d],
                    [xmin - d, ymax + d],
                ]
            )
            sside2 = min(w_box, h_box) + 2.0 * d
        else:
            expanded = unclip(_clockwise(box), unclip_ratio)
            box2, sside2 = get_mini_boxes(expanded)
        if sside2 < min_size + 2:
            continue
        out = box2.copy()
        if use_padding_resize:
            from .affine import transform_preds

            center = np.array([src_w / 2.0, src_h / 2.0])
            out = transform_preds(out, center, float(max(src_w, src_h)), float(height))
            out[:, 0] = np.clip(np.round(out[:, 0]), 0, src_w)
            out[:, 1] = np.clip(np.round(out[:, 1]), 0, src_h)
        else:
            out[:, 0] = np.clip(np.round(out[:, 0] / width * src_w), 0, src_w)
            out[:, 1] = np.clip(np.round(out[:, 1] / height * src_h), 0, src_h)
        boxes.append(out.astype(np.int16))
        scores.append(score)
    if not boxes:
        return np.zeros((0, 4, 2), dtype=np.int16), []
    return np.array(boxes, dtype=np.int16), scores


def _clockwise(box: np.ndarray) -> np.ndarray:
    """Make a quad clockwise in screen coords (y down).

    With shoelace sum(x_i*y_{i+1} - x_{i+1}*y_i), the screen-clockwise order
    [tl, tr, br, bl] yields a POSITIVE signed area (y axis points down).
    """
    x, y = box[:, 0], box[:, 1]
    signed = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0
    return box if signed >= 0 else box[::-1]

"""Geometry / ordering kernels (pure numpy; no cv2 in this sandbox).

Reimplements, from spec, the reference's geometry helpers:
  * :func:`order_points_clockwise` — corner canonicalization by coord-sum /
    coord-diff (reference pytocr/utils/utility.py:21-29),
  * :func:`min_area_rect` — minimum-area bounding rectangle of a point set
    (convex hull + rotating calipers; the cv2.minAreaRect twin used by
    boxes_from_bitmap, reference pytocr/postprocess/db_postprocess.py:155-176),
  * :func:`get_mini_boxes` — the reference's corner ordering quirk: sort the 4
    rect corners by x, then disambiguate top/bottom by y,
  * :func:`unclip` — convex polygon outward offset by
    ``area * unclip_ratio / perimeter`` (the pyclipper offset of
    db_postprocess.py:146-153; exact for convex polygons since a following
    min_area_rect erases pyclipper's rounded corners),
  * :func:`sort_boxes` — THE reading-order quirk: sort by (top_left.y,
    top_left.x) then ONE single linear adjacent-swap pass (|dy|<10 and x
    inverted) — deliberately NOT a full two-key sort
    (reference pytocr/utils/utility.py:32-50),
  * :func:`get_part_img` — axis-aligned bbox crop + perspective warp of the 4
    points onto the bbox rectangle, replicate border, bilinear
    (reference pytocr/utils/utility.py:53-78),
  * :func:`maybe_rot90` — tall-crop rotation rule h >= 1.5*w -> np.rot90 CCW
    (reference deploy/pytorch/run_ocr.py:190-191).
"""

from __future__ import annotations

import numpy as np


def order_points_clockwise(pts: np.ndarray) -> np.ndarray:
    """4 points -> [top-left, top-right, bottom-right, bottom-left]."""
    pts = np.asarray(pts, dtype=np.float64)
    s = pts.sum(axis=1)
    d = np.diff(pts, axis=1).ravel()  # y - x
    rect = np.zeros((4, 2), dtype=pts.dtype)
    rect[0] = pts[np.argmin(s)]
    rect[2] = pts[np.argmax(s)]
    rect[1] = pts[np.argmin(d)]
    rect[3] = pts[np.argmax(d)]
    return rect


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain. points (N,2) -> hull (M,2).

    Only the leftmost and the rightmost point of a row ``y`` can be a hull
    corner, so numpy cuts the points to those, sorted by (x, y) and
    deduplicated.  The chain then runs over Python floats: per-point numpy
    calls would cost more than the arithmetic.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        return np.empty(0)
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    new_row = pts[1:, 1] != pts[:-1, 1]
    pts = pts[np.append(True, new_row) | np.append(new_row, True)]
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.append(True, (pts[1:] != pts[:-1]).any(axis=1))]
    if len(pts) <= 2:
        return pts
    pts = pts.tolist()

    def half(seq):
        out = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.float64)


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-area rectangle around a point set (rotating calipers).

    Returns (corners (4,2) float64 unordered, min_side_length) — the analog of
    cv2.minAreaRect + boxPoints as consumed by the reference's
    get_mini_boxes (min side = its ``sside`` filter value).
    """
    hull = convex_hull(points)
    if len(hull) == 0:
        return np.zeros((4, 2)), 0.0
    if len(hull) == 1:
        return np.repeat(hull, 4, axis=0), 0.0
    if len(hull) == 2:
        # Degenerate: zero-thickness rect along the segment.
        p0, p1 = hull
        corners = np.array([p0, p1, p1, p0], dtype=np.float64)
        return corners, 0.0
    edges = np.roll(hull, -1, axis=0) - hull
    lens = np.hypot(edges[:, 0], edges[:, 1])
    u = edges / lens[:, None]  # unit edge dirs
    v = np.stack([-u[:, 1], u[:, 0]], axis=1)  # normals
    # project all hull points on each edge frame: (E, N)
    pu = u @ hull.T
    pv = v @ hull.T
    du = pu.max(axis=1) - pu.min(axis=1)
    dv = pv.max(axis=1) - pv.min(axis=1)
    areas = du * dv
    i = int(np.argmin(areas))
    u0, v0 = u[i], v[i]
    umin, umax = pu[i].min(), pu[i].max()
    vmin, vmax = pv[i].min(), pv[i].max()
    corners = np.array(
        [
            u0 * umin + v0 * vmin,
            u0 * umax + v0 * vmin,
            u0 * umax + v0 * vmax,
            u0 * umin + v0 * vmax,
        ]
    )
    return corners, float(min(du[i], dv[i]))


def get_mini_boxes(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Rect corners ordered the reference way: x-sort then y-disambiguate.

    Output order is [tl, tr, br, bl] (clockwise from top-left).
    """
    corners, sside = min_area_rect(points)
    idx = np.argsort(corners[:, 0], kind="stable")
    pts = corners[idx]
    # left pair: pts[0], pts[1]; right pair: pts[2], pts[3]
    if pts[0][1] <= pts[1][1]:
        tl, bl = pts[0], pts[1]
    else:
        tl, bl = pts[1], pts[0]
    if pts[2][1] <= pts[3][1]:
        tr, br = pts[2], pts[3]
    else:
        tr, br = pts[3], pts[2]
    return np.array([tl, tr, br, bl]), sside


def polygon_area_perimeter(poly: np.ndarray) -> tuple[float, float]:
    x, y = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    area = abs(float(np.sum(x * y2 - x2 * y))) / 2.0
    perim = float(np.sum(np.hypot(x2 - x, y2 - y)))
    return area, perim


def unclip(poly: np.ndarray, unclip_ratio: float) -> np.ndarray:
    """Offset a convex polygon outward by d = area*ratio/perimeter.

    Edge-shift-and-intersect construction: each edge is translated outward by
    d along its normal; adjacent shifted edges are intersected to produce the
    offset polygon. For the rectangles produced by get_mini_boxes this equals
    the pyclipper result after the subsequent min_area_rect.
    """
    poly = np.asarray(poly, dtype=np.float64)
    area, perim = polygon_area_perimeter(poly)
    if perim == 0:
        return poly
    d = area * unclip_ratio / perim
    n = len(poly)
    # signed area to determine orientation (outward normal side); in screen
    # coords (y down) the clockwise order [tl,tr,br,bl] has POSITIVE signed
    # area under this shoelace convention, and (edge.y, -edge.x) is outward.
    x, y = poly[:, 0], poly[:, 1]
    signed = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0
    sign = 1.0 if signed > 0 else -1.0
    edges = np.roll(poly, -1, axis=0) - poly
    lens = np.hypot(edges[:, 0], edges[:, 1])
    lens[lens == 0] = 1.0
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lens[:, None] * sign
    shifted_p = poly + normals * d  # a point on each shifted edge
    out = np.zeros_like(poly)
    for i in range(n):
        # intersection of shifted edge i-1 and shifted edge i
        p1, d1 = shifted_p[i - 1], edges[i - 1]
        p2, d2 = shifted_p[i], edges[i]
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(denom) < 1e-12:
            out[i] = p2
        else:
            t = ((p2[0] - p1[0]) * d2[1] - (p2[1] - p1[1]) * d2[0]) / denom
            out[i] = p1 + t * d1
    return out


def sort_boxes(boxes: np.ndarray) -> np.ndarray:
    """Reading-order sort with the reference's single-pass adjacent swap.

    boxes: (K, 4, 2). Sort by (tl.y, tl.x), then one linear pass swapping
    adjacent entries when |y_{i+1}-y_i| < 10 and x_{i+1} < x_i. A clean
    lexicographic sort would diverge on 3+ boxes sharing a visual line —
    the quirk is part of the parity contract.
    """
    boxes = np.asarray(boxes)
    if len(boxes) == 0:
        return boxes.reshape(0, 4, 2)
    order = sorted(range(len(boxes)), key=lambda i: (boxes[i][0][1], boxes[i][0][0]))
    _boxes = [boxes[i] for i in order]
    for i in range(len(_boxes) - 1):
        if (
            abs(_boxes[i + 1][0][1] - _boxes[i][0][1]) < 10
            and _boxes[i + 1][0][0] < _boxes[i][0][0]
        ):
            _boxes[i], _boxes[i + 1] = _boxes[i + 1], _boxes[i]
    return np.array(_boxes)


def _perspective_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3x3 homography H with dst ~ H @ src (both (4,2))."""
    a = np.zeros((8, 8), dtype=np.float64)
    b = np.zeros(8, dtype=np.float64)
    for i in range(4):
        sx, sy = src[i]
        dx, dy = dst[i]
        a[2 * i] = [sx, sy, 1, 0, 0, 0, -sx * dx, -sy * dx]
        a[2 * i + 1] = [0, 0, 0, sx, sy, 1, -sx * dy, -sy * dy]
        b[2 * i] = dx
        b[2 * i + 1] = dy
    h = np.linalg.solve(a, b)
    return np.array(
        [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]]
    )


def warp_perspective_gray(
    img: np.ndarray, src_pts: np.ndarray, out_w: int, out_h: int
) -> np.ndarray:
    """Sample src quad onto an (out_h, out_w) rectangle.

    Bilinear interpolation, replicate border (coords clipped to the image) —
    the cv2.warpPerspective(..., BORDER_REPLICATE, INTER_LINEAR) twin for
    grayscale images.
    """
    # Corner convention [0..w] (not the reference's [0..w-1]): for an
    # axis-aligned integer box this makes the warp an exact pixel copy
    # (identity sampling), which the template-correlation recognizer needs;
    # the reference's trained CNN tolerates its slight stretch, ours is
    # exactness-sensitive. Documented deviation from utility.py:66-71.
    dst_pts = np.array(
        [[0, 0], [out_w, 0], [out_w, out_h], [0, out_h]],
        dtype=np.float64,
    )
    # inverse map: dst pixel -> src coords
    hinv = _perspective_matrix(dst_pts, np.asarray(src_pts, dtype=np.float64))
    xs, ys = np.meshgrid(np.arange(out_w), np.arange(out_h))
    ones = np.ones_like(xs)
    pts = np.stack([xs, ys, ones], axis=0).reshape(3, -1).astype(np.float64)
    m = hinv @ pts
    sx = m[0] / m[2]
    sy = m[1] / m[2]
    h, w = img.shape
    sx = np.clip(sx, 0, w - 1)
    sy = np.clip(sy, 0, h - 1)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    imgf = img.astype(np.float64)
    val = (
        imgf[y0, x0] * (1 - fx) * (1 - fy)
        + imgf[y0, x1] * fx * (1 - fy)
        + imgf[y1, x0] * (1 - fx) * fy
        + imgf[y1, x1] * fx * fy
    )
    return np.clip(np.round(val), 0, 255).astype(np.uint8).reshape(out_h, out_w)


def _is_axis_aligned_int_rect(pts: np.ndarray) -> bool:
    """True when the quad is an integer axis-aligned rectangle in
    [tl, tr, br, bl] order — the common case after the det axis-snap."""
    if not np.all(pts == np.round(pts)):
        return False
    tl, tr, br, bl = pts
    return (
        tl[1] == tr[1]
        and bl[1] == br[1]
        and tl[0] == bl[0]
        and tr[0] == br[0]
        and tr[0] > tl[0]
        and bl[1] > tl[1]
    )


def get_part_img(img: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Crop the quad's axis-aligned bbox then warp the 4 points onto it.

    Fast path: for integer axis-aligned rectangles the warp is an exact
    pixel copy, so slice directly (replicate border via index clipping) —
    identical output to the warp path, ~10x cheaper.
    """
    pts = np.asarray(pts, dtype=np.float64)
    left = int(np.min(pts[:, 0]))
    right = int(np.max(pts[:, 0]))
    top = int(np.min(pts[:, 1]))
    bottom = int(np.max(pts[:, 1]))
    h, w = img.shape
    if _is_axis_aligned_int_rect(pts):
        ys = np.clip(np.arange(top, max(bottom, top + 1)), 0, h - 1)
        xs = np.clip(np.arange(left, max(right, left + 1)), 0, w - 1)
        return img[np.ix_(ys, xs)]
    left_c, right_c = max(0, left), min(w, right)
    top_c, bottom_c = max(0, top), min(h, bottom)
    crop = img[top_c:bottom_c, left_c:right_c]
    out_w = max(1, right - left)
    out_h = max(1, bottom - top)
    if crop.size == 0:
        return np.zeros((out_h, out_w), dtype=np.uint8)
    local = pts - np.array([left_c, top_c], dtype=np.float64)
    return warp_perspective_gray(crop, local, out_w, out_h)


def maybe_rot90(crop: np.ndarray) -> np.ndarray:
    """Rotate tall crops 90 deg CCW before recognition (h >= 1.5 * w)."""
    h, w = crop.shape
    if h >= 1.5 * w:
        return np.ascontiguousarray(np.rot90(crop, 1))
    return crop

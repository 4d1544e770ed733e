"""Scalar reference kernels for the vectorized OCR kernels.

These are the per-pixel / per-run Python implementations that
``functions/png.py``, ``functions/dbpost.py`` and ``functions/geometry.py``
used before they were vectorized.  Nothing in the library calls them; the
property tests in ``test_kernel_reference.py`` check that the library kernels
return exactly what these return.
"""

from __future__ import annotations

import numpy as np


def unfilter(raw: np.ndarray, h: int, w: int) -> np.ndarray:
    """Undo PNG row filters for bpp=1 (grayscale), one pixel at a time."""
    stride = w + 1
    rows = raw.reshape(h, stride)
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        ftype = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(w, np.int32)
        if ftype == 0:
            out[y] = line.astype(np.uint8)
        elif ftype == 2:  # Up
            out[y] = ((line + prev) & 0xFF).astype(np.uint8)
        elif ftype == 1:  # Sub (sequential in-row)
            acc = 0
            cur = np.empty(w, np.uint8)
            for x in range(w):
                acc = (line[x] + acc) & 0xFF
                cur[x] = acc
            out[y] = cur
        elif ftype == 3:  # Average
            cur = np.empty(w, np.uint8)
            left = 0
            for x in range(w):
                left_v = left if x > 0 else 0
                cur[x] = (line[x] + ((left_v + prev[x]) >> 1)) & 0xFF
                left = cur[x]
            out[y] = cur
        elif ftype == 4:  # Paeth
            cur = np.empty(w, np.uint8)
            for x in range(w):
                a = int(cur[x - 1]) if x > 0 else 0
                b = int(prev[x])
                c = int(prev[x - 1]) if (x > 0 and y > 0) else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[x] = (line[x] + pred) & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"bad filter {ftype}")
    return out


def connected_components(
    mask: np.ndarray, with_runs: bool = False
) -> list[np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """8-connected components by a per-run Python union-find; same contract
    as ``dbpost.connected_components``."""
    h, w = mask.shape
    parent: list[int] = []

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    # extract ALL runs in one vectorized pass (per-row flatnonzero calls
    # cost ~40us of numpy dispatch each and dominated the profile)
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask.astype(np.int8)
    diffs = np.diff(padded, axis=1)
    srow, scol = np.nonzero(diffs == 1)
    _erow, ecol = np.nonzero(diffs == -1)  # aligned with starts row-by-row
    row_bounds = np.searchsorted(srow, np.arange(h + 1))

    runs_by_row: list[list[tuple[int, int, int]]] = []
    for y in range(h):
        lo, hi = row_bounds[y], row_bounds[y + 1]
        starts = scol[lo:hi]
        ends = ecol[lo:hi]
        row_runs = []
        prev = runs_by_row[y - 1] if y > 0 else []
        pi = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            rid = len(parent)
            parent.append(rid)
            row_runs.append((int(s), int(e), rid))
            # merge with overlapping runs in the previous row (8-conn: +/-1)
            while pi > 0 and prev[pi - 1][1] >= s:  # step back if needed
                pi -= 1
            j = pi
            while j < len(prev):
                ps, pe, prid = prev[j]
                if ps > e:  # strictly beyond (8-conn touch is ps <= e)
                    break
                if pe >= s:  # overlap or diagonal touch
                    union(rid, prid)
                j += 1
            pi = max(0, j - 1)
        runs_by_row.append(row_runs)

    if not parent:
        return []

    # gather run-endpoint points per root, keep discovery (row, col) order
    comp_points: dict[int, list[tuple[float, float]]] = {}
    comp_runs: dict[int, list[tuple[int, int, int]]] = {}
    comp_order: list[int] = []
    for y in range(h):
        for s, e, rid in runs_by_row[y]:
            root = find(rid)
            if root not in comp_points:
                comp_points[root] = []
                comp_runs[root] = []
                comp_order.append(root)
            comp_points[root].append((float(s), float(y)))
            comp_points[root].append((float(e - 1), float(y)))
            if with_runs:
                comp_runs[root].append((y, s, e))
    if with_runs:
        return [
            (np.array(comp_points[r]), np.array(comp_runs[r], dtype=np.int32))
            for r in comp_order
        ]
    return [np.array(comp_points[r]) for r in comp_order]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over the deduplicated, sorted point set."""
    pts = sorted({(float(x), float(y)) for x, y in np.asarray(points)})
    if len(pts) <= 2:
        return np.asarray(pts, dtype=np.float64)

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


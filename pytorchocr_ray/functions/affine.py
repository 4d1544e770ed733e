"""Padding-resize affine coordinate restore (reference
pytocr/postprocess/utils.py:4-43, used by DBPostProcess when
``use_padding_resize`` — db_postprocess.py:126-140).

The reference builds the 2x3 affine with cv2.getAffineTransform from three
correspondence points (image center, a point half the max side below it,
and the padded square's origin); here the same three-point system is
solved directly in numpy — identical matrix, no cv2.
"""

from __future__ import annotations

import numpy as np


def get_affine_transform(
    center: np.ndarray, img_maxsize: float, target_size: float, inv: int = 0
) -> np.ndarray:
    """2x3 affine mapping the source image into the (target_size,
    target_size) padded square (``inv=1``: the square back to the source).
    Points per the reference: center -> square center; center + (0,
    maxsize/2) -> square bottom-center; the third pins the square's
    top-left to the padded origin along the short axis."""
    center = np.asarray(center, dtype=np.float64)
    src = np.zeros((3, 2))
    dst = np.zeros((3, 2))
    src[0] = center
    src[1] = center + (0.0, img_maxsize / 2.0)
    dst[0] = (target_size / 2.0, target_size / 2.0)
    dst[1] = dst[0] + (0.0, target_size / 2.0)
    if center[0] >= center[1]:  # wider than tall
        src[2] = (0.0, center[1] - center[0])
    else:
        src[2] = (center[0] - center[1], 0.0)
    if inv:
        src, dst = dst, src
    # solve P @ X = dst for the 3-point system (cv2.getAffineTransform twin)
    P = np.concatenate([src, np.ones((3, 1))], axis=1)
    return np.linalg.solve(P, dst).T  # (2, 3)


def transform_preds(
    coords: np.ndarray, center: np.ndarray, img_maxsize: float, target_size: float
) -> np.ndarray:
    """(N, 2) padded-square coords -> source-image coords, vectorized
    (the reference loops per point, utils.py:40-43)."""
    trans = get_affine_transform(center, img_maxsize, target_size, inv=1)
    hom = np.concatenate([coords, np.ones((len(coords), 1))], axis=1)
    return hom @ trans.T

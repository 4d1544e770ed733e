"""Single-image OCR composition: detect -> order -> crop -> (cls) -> recognize.

This is the shared core that BOTH the Ray OCR stages and the single-process
oracle call — parity by construction. It mirrors the reference's per-image
flow (deploy/pytorch/run_ocr.py:168-231):

  decode -> DetResizeForTest -> det forward -> DBPostProcess -> sort_boxes ->
  per box: get_part_img -> rot90 if tall -> optional cls (rotate 180) ->
  rec forward -> CTC greedy decode -> (box, text, prob) in reading order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import ctc_greedy_decode
from .dbpost import boxes_from_bitmap, det_resize, det_resize_padding
from .geometry import get_part_img, maybe_rot90, sort_boxes
from .models import ClsModel, DetModel, RecModel


@dataclass
class OcrConfig:
    thresh: float = 0.3
    box_thresh: float = 0.5
    max_candidates: int = 1000
    unclip_ratio: float = 1.5
    limit_side_len: int = 736
    limit_type: str = "max"
    use_cls: bool = True
    det_postprocess: str = "db"  # "db" | "pse" | "pan" (post-process family)
    # DBPostProcess option parity (ref db_postprocess.py:19-20); engine
    # default score_mode is "box" (the reference class defaults to "poly"
    # but its shipped det configs score boxes) — both paths are exact here
    use_dilation: bool = False
    score_mode: str = "box"  # "box" | "poly"
    # TPS spatial transformer ahead of recognition, on the rec path
    # (reference configs/rec/rec_vgg_tps_bilstm_ctc.yml:27-30).
    # Curvature-gated: identity on straight crops, full TPS on curved ones
    # (functions/tps.py:tps_rectify_curved)
    use_tps: bool = False


class OcrEngine:
    """Holds warm det/rec/cls models; one instance per worker process / per oracle."""

    def __init__(self, weights: dict[str, np.ndarray], config: OcrConfig | None = None):
        self.cfg = config or OcrConfig()
        self.det = DetModel(weights)
        self.rec = RecModel(weights)
        self.cls = ClsModel(weights)

    def detect(self, gray: np.ndarray) -> np.ndarray:
        """Image -> sorted (K, 4, 2) int16 boxes in source coords."""
        padding = self.cfg.limit_type == "padding"
        if padding:
            # square side = native long side capped by limit_side_len: the
            # reference's CNN is scale-trained so it always maps to a fixed
            # square; this engine's density detector is tuned at native
            # glyph scale, so padding never UPSCALES (the affine restore is
            # the same code path either way)
            target = min(self.cfg.limit_side_len, max(gray.shape[:2]))
            resized, (src_h, src_w) = det_resize_padding(gray, target)
        else:
            resized, (src_h, src_w, _rh, _rw) = det_resize(
                gray, self.cfg.limit_side_len, self.cfg.limit_type
            )
        # work in the pre-activation domain: binarize smooth directly and
        # activate only inside candidate boxes (identical results, no
        # full-image sigmoid — the stage is memory-bandwidth bound)
        smooth = self.det.smooth(resized)
        if self.cfg.det_postprocess == "pan":
            from .panpost import pan_boxes_from_smooth

            t = self.det.smooth_threshold(self.cfg.thresh)
            boxes, _scores = pan_boxes_from_smooth(
                smooth,
                self.det.activate,
                src_h,
                src_w,
                kernel_thresh=t + 0.04,
                text_thresh=t,
                score_thresh=self.cfg.box_thresh,
            )
        elif self.cfg.det_postprocess not in ("db", "pse"):
            raise ValueError(
                f"unknown det_postprocess {self.cfg.det_postprocess!r}; "
                "choose 'db', 'pse' or 'pan'"
            )
        elif self.cfg.det_postprocess == "pse":
            from .psepost import pse_boxes_from_smooth

            t = self.det.smooth_threshold(self.cfg.thresh)
            boxes, _scores = pse_boxes_from_smooth(
                smooth,
                self.det.activate,
                src_h,
                src_w,
                thresh_levels=(t + 0.04, t + 0.02, t),
                score_thresh=self.cfg.box_thresh,
            )
        else:
            boxes, _scores = boxes_from_bitmap(
                smooth,
                src_h,
                src_w,
                thresh=self.cfg.thresh,
                box_thresh=self.cfg.box_thresh,
                max_candidates=self.cfg.max_candidates,
                unclip_ratio=self.cfg.unclip_ratio,
                pre_activation=(
                    self.det.activate,
                    self.det.smooth_threshold(self.cfg.thresh),
                ),
                use_dilation=self.cfg.use_dilation,
                score_mode=self.cfg.score_mode,
                use_padding_resize=padding,
            )
        return sort_boxes(boxes)

    def crop_region(self, gray: np.ndarray, box: np.ndarray) -> np.ndarray:
        """Perspective crop of one box, rotated upright if tall, then the
        curvature-gated TPS rectification when ``use_tps`` is on."""
        part = maybe_rot90(get_part_img(gray, box.astype(np.float64)))
        if self.cfg.use_tps:
            from .tps import tps_rectify_curved

            return tps_rectify_curved(part)
        return part

    def recognize_crop(self, part: np.ndarray) -> tuple[str, float]:
        """Optional 0/180 cls -> rec -> CTC on one crop, sharing ONE
        window/similarity pass between cls and rec.

        The cls orientation score and the rec logits are both functions of
        the same sliding-window template similarities; computing them once
        (and only re-scanning when the crop is actually 180-rotated) gives
        the outputs of ``cls`` then ``rec`` at ~60% of the matmul cost.
        Exactness: for the upright path the reused sims are the exact
        arrays rec(crop) would compute.
        """
        from .models import _window_stack, rec_prepare

        if not self.cfg.use_cls:
            return ctc_greedy_decode(self.rec(part))
        norm = rec_prepare(part)
        if norm is None:
            return "", 0.0
        wins = _window_stack(norm, self.rec.stride)
        wnorm = np.linalg.norm(wins, axis=1) + 1e-8
        sims = (wins @ self.rec.tmpl_flat.T) / (
            wnorm[:, None] * self.rec.tmpl_norm[None, :]
        )
        best = sims.max(axis=1)
        k = min(3, len(best))
        s0 = float(np.sort(best)[-k:].mean())
        if s0 <= 0.95:
            rot = np.ascontiguousarray(part[::-1, ::-1])
            s180 = self.cls._score(rot)
            if s180 > s0:
                return ctc_greedy_decode(self.rec(rot))
        probs = self.rec._logits(wins.reshape(len(wins), -1))
        return ctc_greedy_decode(probs)

    def crop_and_recognize(
        self, gray: np.ndarray, box: np.ndarray
    ) -> tuple[str, float]:
        """One region of ``gray``: :meth:`crop_region` then
        :meth:`recognize_crop`."""
        return self.recognize_crop(self.crop_region(gray, box))

    def ocr_image(self, gray: np.ndarray) -> list[tuple[np.ndarray, str, float]]:
        """Full chain on one image -> [(box (4,2) int16, text, prob), ...] in
        reading order."""
        out = []
        for box in self.detect(gray):
            text, prob = self.crop_and_recognize(gray, box)
            out.append((box, text, prob))
        return out

"""Table-structure decoding + metric (reference table branch, v2).

* :class:`TableLabelDecode` — the analog of the reference's
  ``TableLabelDecode`` (pytocr/postprocess/table_postprocess.py:7-124):
  attention-framed token vocabulary ([sos] + tokens + [eos]), per-step
  argmax, stop at eos, skip special tokens, collect one bbox per cell
  token (``<td>`` family), and denormalize bboxes back to source-image
  coordinates through the (ratio, dst) shape record.
  ``merge_no_span_structure`` folds ``<td></td>``
  into the vocabulary and drops ``<td>`` exactly like the reference.
* :func:`table_structure_counters` / :func:`combine_table_counters` — the
  ``TableStructureMetric`` analog (pytocr/metrics/table_metric.py:4-52):
  exact-match accuracy over joined structure strings with the optional
  thead/tbody deletion, as partial+final counters for Ray aggregation.

The table-recognition MODEL stays out of scope (SURVEY.md §2.2): the
pipeline exercises the decode against deterministic probability tensors
(one-hot over the GT tokens), which is the documented model stub.
"""

from __future__ import annotations

import numpy as np

# Structure-token vocabulary (PubTabNet-style); the reference loads this
# from a dict file — a fixed list keeps the synthetic branch hermetic.
TABLE_VOCAB: list[str] = [
    "<html>", "<body>", "<table>", "</table>", "<thead>", "</thead>",
    "<tbody>", "</tbody>", "<tr>", "</tr>", "<td>", "</td>", "<td",
    ' colspan="2"', ' rowspan="2"', ">", "</body>", "</html>",
]
TD_TOKENS = ("<td>", "<td", "<td></td>")  # ref table_postprocess.py:33
SOS = "sos"
EOS = "eos"


class TableLabelDecode:
    """structure_probs (T, C) + bbox_preds (T, 8) + shape -> decoded table.

    ``shape`` = (src_h, src_w, ratio_h, ratio_w, dst_h, dst_w) — the
    ResizeTableImage record; bbox_preds are normalized to the padded dst
    frame and come back in source-image pixels
    (ref table_postprocess.py:85-93).
    """

    def __init__(self, vocab: list[str] | None = None,
                 merge_no_span_structure: bool = False):
        chars = list(vocab if vocab is not None else TABLE_VOCAB)
        if merge_no_span_structure:
            if "<td></td>" not in chars:
                chars.append("<td></td>")
            if "<td>" in chars:
                chars.remove("<td>")
        # attention framing: [sos] + tokens + [eos] (AttnLabelDecode
        # add_special_char, rec_postprocess.py:128-198)
        self.character = [SOS] + chars + [EOS]
        self.dict = {c: i for i, c in enumerate(self.character)}
        self.end_idx = self.dict[EOS]
        self.ignored = (self.dict[SOS],)

    def encode(self, tokens: list[str], max_len: int) -> np.ndarray:
        """GT tokens -> one-hot (max_len, C) probs: the deterministic
        model stub driving the decode in the synthetic branch."""
        T, C = max_len, len(self.character)
        probs = np.zeros((T, C), dtype=np.float32)
        idxs = [self.dict[t] for t in tokens] + [self.end_idx]
        for t in range(T):
            probs[t, idxs[t] if t < len(idxs) else self.end_idx] = 1.0
        return probs

    def decode(
        self,
        structure_probs: np.ndarray,
        bbox_preds: np.ndarray,
        shape: tuple[float, ...],
    ) -> tuple[list[str], np.ndarray, float]:
        """-> (structure tokens, (n_cells, 8) denormalized bboxes, score)."""
        idx = structure_probs.argmax(axis=1)
        conf = structure_probs.max(axis=1)
        structure: list[str] = []
        bboxes: list[np.ndarray] = []
        scores: list[float] = []
        for t in range(len(idx)):
            ci = int(idx[t])
            if t > 0 and ci == self.end_idx:
                break
            if ci in self.ignored:
                continue
            tok = self.character[ci]
            if tok in TD_TOKENS:
                bboxes.append(self._bbox_decode(bbox_preds[t].copy(), shape))
            structure.append(tok)
            scores.append(float(conf[t]))
        box_arr = (
            np.stack(bboxes) if bboxes else np.zeros((0, bbox_preds.shape[1]))
        )
        return structure, box_arr, float(np.mean(scores)) if scores else 0.0

    @staticmethod
    def _bbox_decode(bbox: np.ndarray, shape: tuple[float, ...]) -> np.ndarray:
        """Normalized padded-frame coords -> source pixels
        (ref table_postprocess.py:85-93)."""
        _src_h, _src_w, ratio_h, ratio_w, dst_h, dst_w = shape
        bbox[0::2] *= dst_w
        bbox[1::2] *= dst_h
        bbox[0::2] /= ratio_w
        bbox[1::2] /= ratio_h
        return bbox


def table_bbox_encode(
    bboxes: np.ndarray, shape: tuple[float, ...], width: int = 8
) -> np.ndarray:
    """Source-pixel cell boxes -> normalized padded-frame coords (the
    inverse of ``_bbox_decode``; what ResizeTableImage + the label encoder
    produce for training)."""
    _src_h, _src_w, ratio_h, ratio_w, dst_h, dst_w = shape
    out = np.asarray(bboxes, dtype=np.float64).reshape(-1, width).copy()
    out[:, 0::2] *= ratio_w
    out[:, 1::2] *= ratio_h
    out[:, 0::2] /= dst_w
    out[:, 1::2] /= dst_h
    return out


def resize_table_shape(
    src_h: int, src_w: int, max_len: int = 488
) -> tuple[float, ...]:
    """ResizeTableImage semantics (pytocr/data/imaug/operators.py style):
    scale the longer side to ``max_len`` keeping aspect, pad to
    (max_len, max_len); returns the shape record decode needs."""
    ratio = max_len / max(src_h, src_w)
    return (src_h, src_w, ratio, ratio, float(max_len), float(max_len))


def table_structure_counters(
    pred_tokens: list[str], gt_tokens: list[str], del_thead_tbody: bool = False
) -> tuple[int, int]:
    """(correct, total) — TableStructureMetric's exact-match counters
    (pytocr/metrics/table_metric.py:20-38)."""
    p = "".join(pred_tokens)
    g = "".join(gt_tokens)
    if del_thead_tbody:
        for t in ("<thead>", "</thead>", "<tbody>", "</tbody>"):
            p = p.replace(t, "")
            g = g.replace(t, "")
    return (int(p == g), 1)


def combine_table_counters(counters) -> dict[str, float]:
    n = sum(c[1] for c in counters)
    return {"acc": (sum(c[0] for c in counters) / n) if n else 0.0}


# ------------------------------------------------------ image-driven branch
#
# The reference's table branch starts from a table IMAGE
# (pytocr/data/pubtab_dataset.py:12-113 feeds a structure model). The model
# itself is sanctioned out of scope, so this is the cell-DETECTION analog:
# binarize the rendered page (the same role as DBNet's probability map) and
# recover each cell outline as an 8-connected component via the detection
# post-processor's labeller (``dbpost.connected_components``) — then
# reconstruct the token sequence from cell geometry.


def detect_cell_rects(img: np.ndarray, thresh: int = 128) -> np.ndarray:
    """Grayscale table image -> (N, 4) int64 cell rects [x1, y1, x2, y2]
    in reading order (top-to-bottom, left-to-right by rect origin).

    Each cell outline must be its own component (the synth renderer keeps a
    4-px gutter between rects); the component's run-endpoint bbox is then
    exactly the drawn rectangle."""
    from .dbpost import connected_components

    comps = connected_components(img < thresh)
    if not comps:
        return np.zeros((0, 4), dtype=np.int64)
    rects = np.array(
        [
            [pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max()]
            for pts in comps
        ],
        dtype=np.int64,
    )
    return rects[np.lexsort((rects[:, 0], rects[:, 1]))]


def structure_from_cell_rects(rects: np.ndarray) -> list[str]:
    """Detected cell rects -> PubTabNet structure tokens.

    Grid assumptions (documented, matching the synth layout): rows share an
    exact top edge y1; the base column width is the narrowest cell's
    ``x2 - x1 + 4`` (gutter-inclusive pitch); a cell spanning ~k columns
    emits ``<td colspan="k">``. The first row band is ``<thead>``, the rest
    ``<tbody>`` — the PubTabNet convention the synth fixture follows."""
    tokens = ["<html>", "<body>", "<table>"]
    if len(rects):
        pitch = int((rects[:, 2] - rects[:, 0] + 4).min())
        row_tops = np.unique(rects[:, 1])
        for band, y1 in enumerate(row_tops):
            row = rects[rects[:, 1] == y1]
            if band == 0:
                tokens.append("<thead>")
            if band == 1:
                tokens.append("<tbody>")
            tokens.append("<tr>")
            for x1, _y1, x2, _y2 in row[np.argsort(row[:, 0])]:
                k = int(round((x2 - x1 + 4) / pitch))
                if k > 1:
                    tokens.extend(["<td", f' colspan="{k}"', ">", "</td>"])
                else:
                    tokens.extend(["<td>", "</td>"])
            tokens.append("</tr>")
            if band == 0:
                tokens.append("</thead>")
        if len(row_tops) == 1:
            tokens.append("<tbody>")
        tokens.append("</tbody>")
    tokens.extend(["</table>", "</body>", "</html>"])
    return tokens

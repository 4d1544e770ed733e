"""CTC greedy decode (reference pytocr/postprocess/rec_postprocess.py:35-93).

Per timestep: argmax class + its probability. Keep a step iff its argmax is
not blank (index 0) AND (when remove_duplicate) differs from the previous
step's argmax — the exact dedupe-then-blank selection order of the reference.
Text = joined dict chars of kept steps; prob = mean of kept-step
probabilities. When every step is blank the reference hits np.mean([]) = NaN;
we return prob 0.0 for the empty text (documented deviation: NaN poisons
Arrow/SQL comparisons).
"""

from __future__ import annotations

import numpy as np

from .charset import CHARSET


def ctc_greedy_decode(
    probs: np.ndarray, remove_duplicate: bool = True
) -> tuple[str, float]:
    """probs: (T, C) post-softmax with C = 1 + len(CHARSET). -> (text, prob)."""
    idx = probs.argmax(axis=1)
    conf = probs[np.arange(len(idx)), idx]
    keep = idx != 0
    if remove_duplicate and len(idx) > 1:
        dup = np.ones(len(idx), dtype=bool)
        dup[1:] = idx[1:] != idx[:-1]
        keep &= dup
    kept = idx[keep]
    if kept.size == 0:
        return "", 0.0
    text = "".join(CHARSET[i - 1] for i in kept)
    return text, float(conf[keep].mean())


# Attention-head decode (reference AttnLabelDecode,
# pytocr/postprocess/rec_postprocess.py:128-198): the class alphabet is
# framed as [sos, charset..., eos]; greedy argmax per step, stop at eos,
# no blank/dedupe semantics.
ATTN_SOS = 0
ATTN_EOS = len(CHARSET) + 1


def attn_greedy_decode(probs: np.ndarray) -> tuple[str, float]:
    """probs: (T, C) with C = len(CHARSET) + 2 ([sos] + chars + [eos])."""
    idx = probs.argmax(axis=1)
    conf = probs[np.arange(len(idx)), idx]
    chars: list[str] = []
    confs: list[float] = []
    for i, c in zip(idx, conf):
        if i == ATTN_EOS:
            break
        if i == ATTN_SOS:
            continue
        chars.append(CHARSET[i - 1])
        confs.append(float(c))
    if not chars:
        return "", 0.0
    return "".join(chars), float(np.mean(confs))


def ctc_label_encode(
    text: str, max_text_len: int = 25
) -> tuple[np.ndarray, int] | None:
    """Text -> (padded dict-index array, length) for CTC training targets.

    Mirrors the reference's CTCLabelEncode (label_ops.py:147-177): None when
    empty or over max length; unknown chars silently skipped
    (label_ops.py:136-141); zero-padded to ``max_text_len``.
    """
    from .charset import char_to_index

    if len(text) == 0 or len(text) > max_text_len:
        return None
    idxs = [i for i in (char_to_index(c) for c in text) if i is not None]
    if not idxs:
        return None
    out = np.zeros(max_text_len, dtype=np.int64)
    out[: len(idxs)] = idxs
    return out, len(idxs)


def attn_label_encode(
    text: str, max_text_len: int = 25
) -> tuple[np.ndarray, int] | None:
    """Text -> attention-head training target (reference AttnLabelEncode,
    label_ops.py:302-331): char indices shifted +1 for the [sos] slot,
    framed ``[sos=0] + idxs + [eos=C-1]``, zero-padded to max_text_len;
    None when empty or len >= max_text_len."""
    from .charset import CHARSET, char_to_index

    if len(text) == 0 or len(text) >= max_text_len:
        return None
    idxs = [i + 1 for i in (char_to_index(c) for c in text) if i is not None]
    if not idxs:
        return None
    n_classes = len(CHARSET) + 2  # [sos] + chars + [eos]
    framed = [0] + idxs + [n_classes - 1]
    out = np.zeros(max_text_len, dtype=np.int64)
    out[: len(framed)] = framed
    return out, len(idxs)


def table_label_encode(
    tokens: list[str], vocab: list[str], max_len: int = 500
) -> tuple[np.ndarray, int] | None:
    """Structure tokens -> attention-framed index target (reference
    TableLabelEncode, label_ops.py:334+): same [sos]/[eos] framing over the
    structure-token vocabulary; None for empty/over-long sequences or
    unknown tokens."""
    if len(tokens) == 0 or len(tokens) >= max_len:
        return None
    lookup = {t: i + 1 for i, t in enumerate(vocab)}
    try:
        idxs = [lookup[t] for t in tokens]
    except KeyError:
        return None
    n_classes = len(vocab) + 2
    framed = [0] + idxs + [n_classes - 1]
    out = np.zeros(max_len, dtype=np.int64)
    out[: len(framed)] = framed
    return out, len(idxs)


def structure_greedy_decode(
    probs: np.ndarray, vocab: list[str], eos: str = "</html>"
) -> list[str]:
    """Minimal table-structure token decode (the TableLabelDecode analog,
    pytocr/postprocess/table_postprocess.py:7-124): per-step argmax into a
    token vocabulary, stop at the eos token. The table-recognition models
    themselves are out of v1 scope (SURVEY.md §2.2)."""
    idx = probs.argmax(axis=1)
    out: list[str] = []
    for i in idx:
        tok = vocab[int(i)]
        if tok == eos:
            break
        out.append(tok)
    return out

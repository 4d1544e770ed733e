"""Output checks: per-document span-sequence equality and query-result parity."""

from __future__ import annotations

import numpy as np
import pandas as pd

SPAN_COLS = ["doc_id", "order", "kind", "text", "media_ref"]


def _rows(df: pd.DataFrame) -> pd.DataFrame:
    out = df[SPAN_COLS].copy()
    out["order"] = out["order"].astype(np.int64)
    for c in ("doc_id", "kind", "text", "media_ref"):
        out[c] = out[c].astype(str)
    return out


def bad_docs(got: pd.DataFrame, want: pd.DataFrame) -> set[str]:
    """Documents whose written span sequence differs from the expected one on
    ``(kind, text, media_ref, order)``, including documents missing from or
    unexpected in ``got``."""
    g, w = _rows(got), _rows(want)
    m = g.merge(w, on=["doc_id", "order"], how="outer", suffixes=("_g", "_w"),
                indicator=True)
    differs = m["_merge"] != "both"
    for c in ("kind", "text", "media_ref"):
        differs |= m[f"{c}_g"] != m[f"{c}_w"]
    dup = g.duplicated(["doc_id", "order"], keep=False)
    return set(m.loc[differs, "doc_id"]) | set(g.loc[dup, "doc_id"])


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Order-insensitive canonical form of a query result (the repo's
    oracle-parity convention: sorted columns and rows, floats to 6 places)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer) or df[c].dtype == bool:
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def same_result(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Engine result equals its DuckDB twin up to row order and dtype width."""
    try:
        pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    except AssertionError:
        return False
    return True

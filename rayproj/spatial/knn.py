"""kNN of a small anchor set against a large point table.

Scale pattern (SURVEY.md M6): anchors are broadcast; every batch
computes a vectorized distance matrix and keeps only its local top-k
per anchor (partial top-k inside map_batches), then a driver merge of
the (n_batches × anchors × k) partials produces the global answer — no
all-to-all shuffle of the big side. Hot-cell skew never arises because
the merge is bounded by anchors×k.

Ties break on (distance, point_id) for a deterministic result that an
ANSI-SQL window-function oracle reproduces exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def partial_topk(
    point_ids: np.ndarray,
    lon: np.ndarray,
    lat: np.ndarray,
    anchors_lon: np.ndarray,
    anchors_lat: np.ndarray,
    k: int,
) -> pd.DataFrame:
    """Local top-k per anchor for one batch → small DataFrame
    (anchor_id, point_id, dist), dist in squared degrees: pure +−×
    arithmetic, bit-identical to the SQL oracle, so ordering (and hence
    top-k) matches exactly."""
    dx = lon[None, :] - anchors_lon[:, None]
    dy = lat[None, :] - anchors_lat[:, None]
    d = dx * dx + dy * dy
    n = d.shape[1]
    kk = min(k, n)
    # argpartition finds the k-th distance; keep EVERY point at or
    # below it so exact ties at the boundary survive to the
    # (dist, point_id) sort — truncating before the tie-break would
    # drop boundary ties arbitrarily and diverge from the SQL
    # ROW_NUMBER() oracle.
    part = np.argpartition(d, kk - 1, axis=1)[:, :kk]
    rows = []
    for a in range(d.shape[0]):
        kth = d[a, part[a]].max()
        idx = np.nonzero(d[a] <= kth)[0]
        dd = d[a, idx]
        order = np.lexsort((point_ids[idx], dd))[:kk]
        sel = idx[order]
        rows.append(
            pd.DataFrame(
                {
                    "anchor_id": np.int64(a),
                    "point_id": point_ids[sel],
                    "dist": d[a, sel],
                }
            )
        )
    return pd.concat(rows, ignore_index=True)


def merge_topk(partials: pd.DataFrame, k: int) -> pd.DataFrame:
    """Merge partial top-k lists → global top-k per anchor."""
    df = partials.sort_values(["anchor_id", "dist", "point_id"], kind="mergesort")
    return df.groupby("anchor_id", sort=True).head(k).reset_index(drop=True)

"""Exact top-k kernels and nearest-neighbor search over embeddings.

Every ranked query shares one contract, SQL's ``ROW_NUMBER() OVER
(PARTITION BY key ORDER BY score DESC, id) <= k``: ``topk_rows`` keeps
each batch's top-k per query row (``topk_window``, exact on ties), and
``top_k_per_key`` re-applies the contract to the collected partials on
the driver — no shuffle, the merge is bounded by keys × k × batches.
Scale path: IVF-style coarse quantizer (deterministic centroids)
bucketing vectors so each query only scans its probe buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms == 0, 1.0, norms)


def emb_matrix(data, id_col: str = "vec_id", vec_col: str = "embedding"):
    """(ids int64, matrix float64 (N, D)) from an Arrow table/batch whose
    ``vec_col`` is ``list<float>`` — read through the flat child value
    buffer (one reshape), never per-row Python materialization. Raises
    on ragged rows (reshape fails), which is the contract: embeddings
    are fixed-dimension."""
    import pyarrow as pa

    col = data.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if col.null_count:
        # ListArray.flatten() silently drops null rows, which would
        # misalign every row after the first null — fail loudly instead
        raise ValueError(
            f"embedding column {vec_col!r} has {col.null_count} null "
            "rows; fixed-dimension non-null embeddings are the contract")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if n and flat.size % n:
        raise ValueError(
            f"ragged embedding column {vec_col!r}: {flat.size} values "
            f"across {n} rows is not a fixed dimension")
    mat = flat.astype(np.float64, copy=False).reshape(n, -1) if n else \
        np.empty((0, 0), dtype=np.float64)
    ids = data.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    ids = ids.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    return ids, mat


def topk_window(sims: np.ndarray, ids: np.ndarray, k: int):
    """Exact top-k (values, ids) per row of a (Q, N) similarity matrix,
    tie-broken (cosine desc, id asc) — the SQL ROW_NUMBER contract.
    Rows shorter than k are padded with (-inf, int64 max).

    argpartition to a k+64 window, exact lexsort inside it; a row falls
    back to a full-row sort only when the window floor ties the kth
    value (>= 65-way exact float tie), so the fast path is O(N + k log k)
    per row instead of the O(N log N) full lexsort."""
    q, n = sims.shape
    if n < k:
        pad_s = np.full((q, k - n), -np.inf)
        pad_i = np.full((q, k - n), np.iinfo(np.int64).max, dtype=np.int64)
        s, i = topk_window(sims, ids, n) if n else (sims, ids)
        return (np.concatenate([s, pad_s], axis=1) if n else pad_s,
                np.concatenate([i, pad_i], axis=1) if n else pad_i)
    kk = min(n, k + 64)
    if kk == n:
        order = np.lexsort((np.broadcast_to(ids, sims.shape), -sims), axis=1)
        order = order[:, :k]
        return np.take_along_axis(sims, order, axis=1), ids[order]
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    psims = np.take_along_axis(sims, part, axis=1)
    pids = ids[part]
    order = np.lexsort((pids, -psims), axis=1)
    psims_sorted = np.take_along_axis(psims, order, axis=1)
    out_s = psims_sorted[:, :k].copy()
    out_i = np.take_along_axis(pids, order, axis=1)[:, :k]
    # window floor == kth value → outside ties possible → exact fallback
    unsafe = np.flatnonzero(psims_sorted[:, kk - 1] >= psims_sorted[:, k - 1])
    for r in unsafe:
        full = np.lexsort((ids, -sims[r]))[:k]
        out_s[r] = sims[r, full]
        out_i[r] = ids[full]
    return out_s, out_i


def topk_rows(sims: np.ndarray, ids: np.ndarray, k: int):
    """``(query, id, score)`` arrays of the exact top-k per row of a
    (Q, N) score matrix (``topk_window``). ``-inf`` entries — masked
    candidates and short-row padding — are dropped."""
    s, i = topk_window(sims, ids, k)
    keep = s > -np.inf
    q = np.broadcast_to(np.arange(len(s), dtype=np.int64)[:, None], s.shape)
    return q[keep], i[keep], s[keep]


def top_k_per_key(df: pd.DataFrame, key: str, score: str, id_col: str,
                  k: int) -> pd.DataFrame:
    """First ``k`` rows per ``key`` ordered by (``score`` desc,
    ``id_col`` asc), with an int64 1-based ``rank``. On one batch it is
    the partial; on the concatenated partials, the exact answer."""
    df = df.sort_values([key, score, id_col], ascending=[True, False, True],
                        kind="mergesort")
    rank = df.groupby(key, sort=False, dropna=False).cumcount().to_numpy(np.int64) + 1
    return df.assign(rank=rank)[rank <= k].reset_index(drop=True)


class ExactPrunedKNN:
    """Exact kNN self-join with IVF bucket pruning — the 100-TB shape.

    Corpus vectors are bucketed by an IVF coarse quantizer; each bucket
    stores (ids, normalized sub-matrix, angular radius r_c = max angle
    of a member to its centroid). A query visits buckets in descending
    upper-bound order, where bound(q, c) = cos(max(theta_qc - r_c, 0))
    + eps >= any member's cosine, and stops once the bound falls below
    its current kth-best — a branch-and-bound that returns EXACTLY the
    brute-force answer (same oracle) while scanning a fraction of the
    corpus when buckets are tight. State is built once and shipped via
    ``ray.put``; batches probe it read-only (zero-copy numpy views).
    """

    _EPS = 1e-9  # covers arccos/cos round-trip float error in the bound

    def __init__(self, ids: np.ndarray, mat: np.ndarray, n_centroids: int):
        matn = _normalize(mat.astype(np.float64))
        index = IVFIndex.train(mat, n_centroids)
        assign = index.assign(mat)
        self.centroids = index.centroids
        order = np.argsort(assign, kind="stable")
        self.bucket_ids, self.bucket_mats, radii = [], [], []
        bounds = np.searchsorted(assign[order], np.arange(n_centroids + 1))
        for c in range(n_centroids):
            sel = order[bounds[c]:bounds[c + 1]]
            sub = matn[sel]
            self.bucket_ids.append(ids[sel])
            self.bucket_mats.append(sub)
            if len(sel):
                cos_to_c = np.clip(sub @ self.centroids[c], -1.0, 1.0)
                radii.append(float(np.arccos(cos_to_c).max()))
            else:
                radii.append(0.0)
        self.radii = np.asarray(radii)

    def query(self, qids: np.ndarray, qmat: np.ndarray, k: int,
              exclude_self: bool = True) -> np.ndarray:
        """(Q, k) neighbor ids, ties (cosine desc, id asc), exact."""
        qn = _normalize(qmat.astype(np.float64))
        nq, c = len(qn), len(self.centroids)
        theta = np.arccos(np.clip(qn @ self.centroids.T, -1.0, 1.0))
        bound = np.cos(np.maximum(theta - self.radii[None, :], 0.0)) + self._EPS
        bound[:, [len(b) == 0 for b in self.bucket_ids]] = -np.inf
        visit = np.argsort(-bound, axis=1, kind="stable")
        best_sim = np.full((nq, k), -np.inf)
        best_id = np.full((nq, k), np.iinfo(np.int64).max, dtype=np.int64)
        active = np.arange(nq)
        for j in range(c):
            if not len(active):
                break
            kth = best_sim[active, k - 1]
            bkt = visit[active, j]
            still = bound[active, bkt] >= kth
            active = active[still]
            if not len(active):
                break
            bkt = bkt[still]
            for cb in np.unique(bkt):
                rows = active[bkt == cb]
                sims = np.einsum("qd,nd->qn", qn[rows], self.bucket_mats[cb])
                cids = self.bucket_ids[cb]
                if exclude_self:
                    sims[qids[rows][:, None] == cids[None, :]] = -np.inf
                new_s, new_i = topk_window(sims, cids, k)
                cand_s = np.concatenate([best_sim[rows], new_s], axis=1)
                cand_i = np.concatenate([best_id[rows], new_i], axis=1)
                sel = np.lexsort((cand_i, -cand_s), axis=1)[:, :k]
                best_sim[rows] = np.take_along_axis(cand_s, sel, axis=1)
                best_id[rows] = np.take_along_axis(cand_i, sel, axis=1)
        return best_id


class IVFIndex:
    """IVF-style bucketing: deterministic centroids (first C distinct
    vectors, normalized), nprobe-bucket search. Assignment runs per
    batch (map_batches); the index is broadcast read-only state."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(centroids.astype(np.float64))

    @classmethod
    def train(cls, sample: np.ndarray, n_centroids: int, iters: int = 5):
        cents = _normalize(sample[:n_centroids].astype(np.float64))
        data = _normalize(sample.astype(np.float64))
        for _ in range(iters):
            assign = np.argmax(data @ cents.T, axis=1)
            for c in range(len(cents)):
                members = data[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
            cents = _normalize(cents)
        return cls(cents)

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        return np.argmax(_normalize(vectors.astype(np.float64)) @ self.centroids.T, axis=1)

    def probe_lists(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        sims = _normalize(queries.astype(np.float64)) @ self.centroids.T
        # stable: ties resolve to the lower centroid id (matches the
        # SQL oracle's ORDER BY cosine DESC, centroid_id)
        return np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]

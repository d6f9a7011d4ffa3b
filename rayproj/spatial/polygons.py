"""Synthetic admin-polygon layer + point-in-polygon index.

Polygon layer (FIXTURES.md F4): deterministic regular k-gons seeded by
polygon id — convex, non-degenerate, so the driver's SQL oracle can
verify containment with a cross-product sign test while the engine
uses the generic even-odd crossing test.

PolygonIndex is the actor-held side input (pattern: the reference's
tinshift quadtree → candidate triangles → exact test,
/root/reference/src/transformations/tinshift_impl.hpp:405-470): a
coarse-cell bucket map prunes candidates, then the exact test runs
vectorized per candidate polygon over the masked point subset.
"""

from __future__ import annotations

import numpy as np


def make_polygons(n_polys: int = 60, seed: int = 42, n_vertices: int = 6):
    """Deterministic convex polygon layer.

    Returns dict of arrays: poly_id:int32, cx, cy, radius_deg:float64,
    plus vertex rings verts[(P, V, 2)] (closed implicitly). Centers are
    spread by integer arithmetic on poly_id (reproducible in SQL)."""
    pid = np.arange(n_polys, dtype=np.int64)
    # integer-arithmetic placement: deterministic and SQL-expressible
    cx = ((pid * 9973 + seed) % 3400) / 10.0 - 170.0
    cy = ((pid * 7919 + seed) % 1500) / 10.0 - 75.0
    radius = 2.0 + (pid % 7)  # 2..8 degrees
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    # vertex angle offset varies per polygon (still SQL-expressible)
    off = (pid % 12) * (2.0 * np.pi / 24.0)
    angs = off[:, None] + ang[None, :]
    verts = np.stack(
        [cx[:, None] + radius[:, None] * np.cos(angs),
         cy[:, None] + radius[:, None] * np.sin(angs)],
        axis=2,
    )
    return {
        "poly_id": pid.astype(np.int32),
        "cx": cx,
        "cy": cy,
        "radius": radius.astype(np.float64),
        "n_vertices": n_vertices,
        "verts": verts,
    }


def point_in_ring(verts: np.ndarray, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Generic even-odd crossing test, vectorized over points."""
    inside = np.zeros(len(lon), dtype=bool)
    V = len(verts)
    for i in range(V):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % V]
        crosses = (y1 > lat) != (y2 > lat)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (lon < xint)
    return inside


class PolygonIndex:
    """Actor-held PIP index: coarse-cell → candidate polygon ids.

    Built once in an actor's __init__ (or per worker on first batch);
    ``assign`` is fully vectorized. At 100 TB scale the polygon layer is
    broadcast via ray.put once and each actor builds the bucket map from
    it — no shuffle; points never move.
    """

    def __init__(self, polys: dict, index_level: int = 4):
        self.polys = polys
        self.level = index_level
        buckets: dict[int, list[int]] = {}
        verts = polys["verts"]
        n = 1 << index_level
        for p in range(len(polys["poly_id"])):
            vx = verts[p, :, 0]
            vy = verts[p, :, 1]
            x0 = int(np.floor((vx.min() + 180.0) / 360.0 * n))
            x1 = int(np.floor((vx.max() + 180.0) / 360.0 * n))
            y0 = int(np.floor((vy.min() + 90.0) / 180.0 * n))
            y1 = int(np.floor((vy.max() + 90.0) / 180.0 * n))
            for cx in range(max(x0, 0), min(x1, n - 1) + 1):
                for cy in range(max(y0, 0), min(y1, n - 1) + 1):
                    key = (cx << 32) | cy
                    buckets.setdefault(key, []).append(p)
        # dense CSR grid over the n×n cells: per-cell candidate count +
        # offset into one flat ascending candidate array — pair
        # expansion in assign() becomes pure repeat/cumsum arithmetic
        # (no argsort of the point keys, no per-bucket Python loop)
        counts = np.zeros(n * n, dtype=np.int64)
        offsets = np.zeros(n * n + 1, dtype=np.int64)
        flat: list = []
        for cell in range(n * n):
            key = ((cell // n) << 32) | (cell % n)
            cands = buckets.get(key)
            offsets[cell] = len(flat)
            if cands:
                counts[cell] = len(cands)
                flat.extend(cands)
        offsets[n * n] = len(flat)
        self._grid_counts = counts
        self._grid_offsets = offsets[:-1]
        self._grid_flat = np.asarray(flat, dtype=np.int64)

    def assign(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Per-point polygon id (lowest matching poly_id), −1 if none.

        Pair expansion is pure index arithmetic against the dense CSR
        cell grid (per-point candidate count + offset into one flat
        ascending candidate array) — no argsort of the point keys, no
        per-bucket Python loop; the (point, candidate) pairs across
        ALL cells are then tested in a SINGLE vectorized even-odd
        sweep over the ring edges. Lowest-id wins via minimum.at
        (cell candidate lists are ascending, so this equals the
        first-match-in-order contract)."""
        n = 1 << self.level
        cx = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
        cy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
        cell = cx * n
        cell += cy
        out = np.full(len(lon), -1, dtype=np.int32)
        verts = self.polys["verts"]
        pids = self.polys["poly_id"]
        nc = self._grid_counts[cell]
        total = int(nc.sum())
        if total == 0:
            return out
        # P: point index repeated per candidate; Q: flat[offset + rank]
        P = np.repeat(np.arange(len(lon), dtype=np.int64), nc)
        ends = np.cumsum(nc)
        rank = np.arange(total, dtype=np.int64)
        rank -= np.repeat(ends - nc, nc)
        Q = self._grid_flat[np.repeat(self._grid_offsets[cell], nc) + rank]
        # bounding-circle prefilter: every polygon is a k-gon whose
        # vertices lie ON the circle (cx, cy, radius), so a point
        # outside that circle cannot be inside the ring — dropping
        # those pairs is outcome-identical and skips the 6-edge
        # even-odd sweep (≈9 array passes per edge) for the ~75% of
        # candidate pairs a coarse 16×16 bucket can't reject itself
        px = lon[P]
        py = lat[P]
        dx = px - self.polys["cx"][Q]
        dy = py - self.polys["cy"][Q]
        rq = self.polys["radius"][Q]
        keep = dx * dx + dy * dy <= rq * rq
        P = P[keep]
        Q = Q[keep]
        px = px[keep]
        py = py[keep]
        V = verts.shape[1]
        inside = np.zeros(len(P), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(V):
                x1 = verts[Q, i, 0]
                y1 = verts[Q, i, 1]
                x2 = verts[Q, (i + 1) % V, 0]
                y2 = verts[Q, (i + 1) % V, 1]
                crosses = (y1 > py) != (y2 > py)
                xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                inside ^= crosses & (px < xint)
        hit = np.flatnonzero(inside)
        if len(hit):
            best = np.full(len(lon), np.iinfo(np.int32).max, dtype=np.int32)
            np.minimum.at(best, P[hit], pids[Q[hit]])
            found = best != np.iinfo(np.int32).max
            out[found] = best[found]
        return out

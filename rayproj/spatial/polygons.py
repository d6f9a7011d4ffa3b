"""Synthetic admin-polygon layer + point-in-polygon index.

Polygon layer (FIXTURES.md F4): deterministic regular k-gons seeded by
polygon id — convex, non-degenerate, so the driver's SQL oracle can
verify containment with a cross-product sign test while the engine
uses the generic even-odd crossing test.

PolygonIndex is a covering-cell index (GeoBlocks, EDBT 2021): a grid
whose level comes from the layer covers each polygon's bounding box.
A cell that lies wholly inside a polygon is *interior* to it and
answers with no ray-cast; only the *boundary* candidates that could
beat a cell's lowest interior id run the exact test, vectorized over
(point, candidate) pairs. ``layer_index`` keeps one index per worker
process.
"""

from __future__ import annotations

import functools

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


# Sentinel "no interior polygon" id: above every real id, so a boundary
# candidate can always beat it.
_NONE = np.iinfo(np.int32).max
# Interior cells are tested grown by this margin, so a point that
# rounds into a cell from just outside it is still inside the polygon;
# bounding circles are grown by it too.
_MARGIN = 1e-9


def _grid_xy(lon: np.ndarray, lat: np.ndarray, n: int):
    """Float column and row of the n×n grid cell holding each point,
    clipped into the grid. Points and polygon bounding boxes both use
    this, so a point inside a bbox always lands in one of its cells."""
    cx = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1)
    cy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1)
    return cx, cy


def _expand(a: np.ndarray, b: np.ndarray):
    """Enumerate an a[k] × b[k] block per polygon k with no Python
    loop: returns each entry's polygon k and position r in its block
    (the block's (r // b[k], r % b[k]) entry), and each block's start
    in the flat enumeration."""
    size = a * b
    start = np.cumsum(size) - size
    k = np.repeat(np.arange(len(size)), size)
    r = np.arange(int(size.sum())) - start[k]
    return k, r, start


def _pairs_inside(verts: np.ndarray, q: np.ndarray, px: np.ndarray,
                  py: np.ndarray) -> np.ndarray:
    """``point_in_ring``'s even-odd test of each point (px[i], py[i])
    against ring ``verts[q[i]]``, in one sweep over the ring edges."""
    V = verts.shape[1]
    inside = np.zeros(len(q), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(V):
            x1 = verts[q, i, 0]
            y1 = verts[q, i, 1]
            x2 = verts[q, (i + 1) % V, 0]
            y2 = verts[q, (i + 1) % V, 1]
            crosses = (y1 > py) != (y2 > py)
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (px < xint)
    return inside


class PolygonIndex:
    """Covering-cell PIP index over a polygon layer.

    Ids are row positions in the layer (``poly_id`` is ``arange``), and
    ``radius`` bounds each ring around (``cx``, ``cy``). The grid level
    is the smallest whose cell side is at most half the median polygon
    bbox width, clipped to 4..10: finer grids make more cells interior
    but the build grows with the cell count. Each cell stores its
    lowest interior id in ``_win`` and, in one CSR, the boundary
    candidates below it in ascending order. Cell ``n*n`` is an empty
    cell that non-finite points map to.
    """

    def __init__(self, polys: dict):
        self.polys = polys
        verts = polys["verts"]
        V = verts.shape[1]
        vx, vy = verts[:, :, 0], verts[:, :, 1]
        xmin, xmax = vx.min(axis=1), vx.max(axis=1)
        half = np.median(xmax - xmin) / 2 if len(verts) else 180.0
        with np.errstate(divide="ignore"):
            level = np.ceil(np.log2(360.0 / half))
        self.level = int(np.clip(level, 4, 10))
        n = 1 << self.level
        wx, wy = 360.0 / n, 180.0 / n
        x0, y0 = (a.astype(np.int64) for a in _grid_xy(xmin, vy.min(axis=1), n))
        x1, y1 = (a.astype(np.int64) for a in _grid_xy(xmax, vy.max(axis=1), n))
        nx, ny = x1 - x0 + 1, y1 - y0 + 1

        # even-odd test of every bbox grid vertex, once per polygon
        k, r, vstart = _expand(nx + 1, ny + 1)
        gx = -180.0 + (x0[k] + r // (ny[k] + 1)) * wx
        gy = -90.0 + (y0[k] + r % (ny[k] + 1)) * wy
        inside = _pairs_inside(verts, k, gx, gy)

        # every (polygon, bbox cell) pair; interior needs 4 inside corners
        k, r, _ = _expand(nx, ny)
        i, j = r // ny[k], r % ny[k]
        up = ny[k] + 1
        corner = vstart[k] + i * up + j
        col, row = x0[k] + i, y0[k] + j
        # a clipped edge cell also holds points beyond the grid, which
        # its corners say nothing about
        cand = np.flatnonzero(
            inside[corner] & inside[corner + 1]
            & inside[corner + up] & inside[corner + up + 1]
            & (col > 0) & (col < n - 1) & (row > 0) & (row < n - 1))
        # ... and no ring edge may touch the grown cell: bbox overlap,
        # and the cell's corners not all on one side of the edge's line
        kc = k[cand]
        bx0 = -180.0 + col[cand] * wx - _MARGIN
        by0 = -90.0 + row[cand] * wy - _MARGIN
        bx1, by1 = bx0 + wx + 2 * _MARGIN, by0 + wy + 2 * _MARGIN
        touched = np.zeros(len(cand), dtype=bool)
        for e in range(V):
            ax, ay = verts[kc, e, 0], verts[kc, e, 1]
            bx, by = verts[kc, (e + 1) % V, 0], verts[kc, (e + 1) % V, 1]
            hit = ((np.minimum(ax, bx) <= bx1) & (np.maximum(ax, bx) >= bx0)
                   & (np.minimum(ay, by) <= by1) & (np.maximum(ay, by) >= by0))
            dx, dy = bx - ax, by - ay
            side = [dx * (py - ay) - dy * (px - ax)
                    for px in (bx0, bx1) for py in (by0, by1)]
            above = (side[0] > 0) & (side[1] > 0) & (side[2] > 0) & (side[3] > 0)
            below = (side[0] < 0) & (side[1] < 0) & (side[2] < 0) & (side[3] < 0)
            touched |= hit & ~above & ~below
        interior = cand[~touched]

        cell = col * n + row
        win = np.full(n * n + 1, _NONE, dtype=np.int32)
        np.minimum.at(win, cell[interior], k[interior].astype(np.int32))
        boundary = np.ones(len(k), dtype=bool)
        boundary[interior] = False
        boundary &= k < win[cell]
        bcell = cell[boundary]
        # pairs run in ascending polygon order, so a stable sort by cell
        # keeps each cell's candidates ascending
        order = np.argsort(bcell, kind="stable")
        self._win = win
        self._counts = np.bincount(bcell, minlength=n * n + 1)
        self._offsets = np.cumsum(self._counts) - self._counts
        self._flat = k[boundary][order]

    def assign(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Per-point polygon id (lowest matching poly_id), −1 if none.

        Each point starts from its cell's lowest interior id. Then only
        the cell's boundary candidates, all below that id, go through
        the bounding-circle prefilter and one vectorized even-odd sweep
        over the ring edges, and any hit wins via ``minimum.at``.
        Non-finite points map to the empty cell, so they get −1, as
        ``point_in_ring`` gives them."""
        n = 1 << self.level
        cx, cy = _grid_xy(lon, lat, n)
        cell = cx * n + cy
        cell[~(np.isfinite(lon) & np.isfinite(lat))] = n * n
        cell = cell.astype(np.int64)
        best = self._win[cell]
        nc = self._counts[cell]
        total = int(nc.sum())
        # P: point index repeated per candidate; Q: flat[offset + rank]
        P = np.repeat(np.arange(len(lon), dtype=np.int64), nc)
        ends = np.cumsum(nc)
        rank = np.arange(total, dtype=np.int64)
        rank -= np.repeat(ends - nc, nc)
        Q = self._flat[np.repeat(self._offsets[cell], nc) + rank]
        # a point outside a ring's bounding circle cannot be inside
        # it; the margin keeps vertices that round outside the circle
        px = lon[P]
        py = lat[P]
        dx = px - self.polys["cx"][Q]
        dy = py - self.polys["cy"][Q]
        rq = self.polys["radius"][Q] + _MARGIN
        keep = dx * dx + dy * dy <= rq * rq
        P = P[keep]
        Q = Q[keep]
        px = px[keep]
        py = py[keep]
        hit = np.flatnonzero(_pairs_inside(self.polys["verts"], Q, px, py))
        np.minimum.at(best, P[hit], Q[hit].astype(np.int32))
        return np.where(best == _NONE, np.int32(-1), best)


@functools.cache
def layer_index(n_polys: int) -> PolygonIndex:
    """This worker process's index over ``make_polygons(n_polys)``: the
    flagship stage and the spatial queries build it once per worker,
    not once per batch."""
    return PolygonIndex(make_polygons(n_polys))

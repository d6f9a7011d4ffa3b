"""Web-mercator (slippy-map) tile assignment.

Standard XYZ tiling: tile_x = floor((lon+180)/360·2^z),
tile_y = floor((1 − asinh(tan φ)/π)/2 · 2^z), y clamped to the valid
range (web-mercator cuts at ±85.051129°). Fully vectorized and exactly
reproducible in ANSI SQL (asinh(t) = ln(t + sqrt(1+t²))) — that is the
tile-assignment oracle used by the driver's correctness gate.
"""

from __future__ import annotations

import numpy as np


def tile_xy(lon_deg: np.ndarray, lat_deg: np.ndarray, zoom: int):
    n = np.int64(1) << zoom
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    x = np.floor((lon + 180.0) / 360.0 * n).astype(np.int64)
    phi = np.radians(lat)
    y = np.floor((1.0 - np.arcsinh(np.tan(phi)) / np.pi) / 2.0 * n).astype(np.int64)
    np.clip(x, 0, n - 1, out=x)
    np.clip(y, 0, n - 1, out=y)
    return x, y


def tile_id(lon_deg: np.ndarray, lat_deg: np.ndarray, zoom: int) -> np.ndarray:
    """Pack (zoom, x, y) into one int64: zoom<<58 | x<<29 | y."""
    x, y = tile_xy(lon_deg, lat_deg, zoom)
    return (np.int64(zoom) << np.int64(58)) | (x << np.int64(29)) | y

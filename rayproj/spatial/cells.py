"""Hierarchical cell ids (S2/H3-style, own scheme over lon/lat bits).

A cell id packs (level, morton(x, y)) where x, y quantize lon/lat on a
2^level × 2^level grid. Morton interleaving makes sorting by cell id
give good spatial locality for range shuffles (SURVEY.md §4).

All functions are vectorized uint64 NumPy bit math.
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 28


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v into even bit positions."""
    v = v.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def cell_xy(lon_deg: np.ndarray, lat_deg: np.ndarray, level: int):
    n = np.int64(1) << level
    x = np.floor((np.asarray(lon_deg, dtype=np.float64) + 180.0) / 360.0 * n).astype(np.int64)
    y = np.floor((np.asarray(lat_deg, dtype=np.float64) + 90.0) / 180.0 * n).astype(np.int64)
    np.clip(x, 0, n - 1, out=x)
    np.clip(y, 0, n - 1, out=y)
    return x, y


def cell_id(lon_deg: np.ndarray, lat_deg: np.ndarray, level: int) -> np.ndarray:
    """Encode points to cell ids at `level` (0 ≤ level ≤ 28)."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} out of range")
    x, y = cell_xy(lon_deg, lat_deg, level)
    morton = _part1by1(x) | (_part1by1(y) << np.uint64(1))
    return (np.uint64(level) << np.uint64(58)) | morton

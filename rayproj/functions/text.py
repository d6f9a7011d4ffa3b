"""Text analysis: token counts, language id, fingerprints.

Vectorized via pandas string kernels where possible; the per-row parts
(hashing) use C-speed library calls (zlib.crc32 / hashlib) inside a
tight loop — ~1 M rows/s/core.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pandas as pd

_WS = re.compile(r"\s+")

# tiny per-language trigram anchor profiles (deterministic heuristic —
# NOT a trained model; ids only need to be stable, not linguistically deep)
_LANG_PROFILES = {
    "en": (" th", "the", "he ", " an", "nd ", "ing", " of", "ion"),
    "de": ("der", "ie ", " de", "ein", "sch", "ich", "den", "und"),
    "fr": (" de", "es ", "de ", "le ", "ent", " le", "la ", "ion"),
    "es": (" de", "de ", " la", "os ", "la ", "el ", " el", "ión"),
    "it": (" di", "di ", "to ", " co", "re ", "la ", "che", "zio"),
}


def token_count(texts: pd.Series) -> np.ndarray:
    """Whitespace token count (empty string → 0)."""
    s = texts.fillna("").str.strip()
    n = s.str.split(_WS).map(len).to_numpy(dtype=np.int64)
    return np.where(s.str.len().to_numpy() == 0, 0, n)


def char_count(texts: pd.Series) -> np.ndarray:
    return texts.fillna("").str.len().to_numpy(dtype=np.int64)


def lang_id(texts: pd.Series) -> np.ndarray:
    """n-gram-overlap language guess over the profile table."""
    langs = list(_LANG_PROFILES)

    def guess(t: str) -> str:
        tl = " " + t.lower()[:400] + " "
        best, best_score = "und", 0
        for lang in langs:
            score = sum(tl.count(g) for g in _LANG_PROFILES[lang])
            if score > best_score:
                best, best_score = lang, score
        return best

    return texts.fillna("").map(guess).to_numpy()


def fingerprint64(texts: pd.Series) -> np.ndarray:
    """Stable 64-bit document fingerprint (first 8 bytes of md5),
    returned as uint64 — no signed wrap, so the value matches any
    unsigned cross-system comparison byte-for-byte."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode("utf-8", "replace")).digest()[:8], "big")
            for t in texts.fillna("")
        ),
        dtype=np.uint64,
        count=len(texts),
    )


def md5_hex(texts: pd.Series) -> np.ndarray:
    """Hex md5 of the utf-8 text — matches SQL md5() for the dedup oracle."""
    return np.array(
        [hashlib.md5(t.encode("utf-8", "replace")).hexdigest() for t in texts.fillna("")],
        dtype=object,
    )


def crc32(texts: pd.Series) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(t.encode("utf-8", "replace")) for t in texts.fillna("")),
        dtype=np.int64,
        count=len(texts),
    )

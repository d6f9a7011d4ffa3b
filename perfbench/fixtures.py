"""Seeded input tables. The same seed always gives the same bytes.

Page keys are unique int64 doc ids below 2**31, so every sum the SQL
oracles take stays exact in float64 and BIGINT.

``documents`` and ``events`` follow the shape of the repository's sf0.1
test tables (the ones the query oracle tests read), column for column
where the ``query_mix`` queries read them. Measured on sf0.1:

* documents: 5,000 rows, ``doc_id`` = 0..4999 in order; ``lang`` en
  41%, zh/es/fr/de 14-15% each.
* events: 100,000 rows over the 30 days from 2024-01-01, sorted by
  ``ts``. The gaps between events look exponential with a 25.9 s mean
  (median 17.8 s, max 344 s), which is what sorted uniform times give.
  ``event_type`` is uniform over five types, ``user_id`` uniform over
  1,500 users, ``value`` exponential with a 50 mean, 2 decimals.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# language mix with a Zipf-like head (en most common), as in a web crawl
LANGS = np.array(["en", "de", "fr", "es", "ja", "ru", "zh", "pt", "it", "nl"])
LANG_P = 1.0 / np.arange(1, len(LANGS) + 1)
LANG_P /= LANG_P.sum()
# the sf0.1 mixes
SF_LANGS = np.array(["en", "zh", "es", "fr", "de"])
SF_LANG_P = np.array([0.4, 0.15, 0.15, 0.15, 0.15])
SF_EVENT_TYPES = np.array(["signup", "purchase", "view", "click", "error"])
SF_USERS = 1500
SF_DAYS = 30


def doc_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct ids in random order: a shuffled walk of random gaps."""
    ids = np.cumsum(rng.integers(1, 2048, n, dtype=np.int64))
    rng.shuffle(ids)
    return ids


def langs(rng: np.random.Generator, n: int) -> pa.Array:
    return pa.array(LANGS[rng.choice(len(LANGS), n, p=LANG_P)])


def ascii_text(rng: np.random.Generator, n: int, lo: int = 40, hi: int = 120) -> pa.Array:
    """n lowercase-word strings of lo..hi bytes, built as one Arrow
    buffer (no per-row Python)."""
    lengths = rng.integers(lo, hi + 1, n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    data = rng.integers(ord("a"), ord("z") + 1, int(offsets[-1]), dtype=np.uint8)
    data[rng.random(len(data)) < 0.15] = ord(" ")
    return pa.StringArray.from_buffers(n, pa.py_buffer(offsets), pa.py_buffer(data))


def pages(seed: int, n: int, with_text: bool = False) -> pa.Table:
    """(doc_id, lang[, text]) page table for the flagship path."""
    rng = np.random.default_rng([seed, 1])
    cols = {"doc_id": pa.array(doc_ids(rng, n)), "lang": langs(rng, n)}
    if with_text:
        cols["text"] = ascii_text(rng, n)
    return pa.table(cols)


def documents(seed: int, n: int) -> pa.Table:
    """sf0.1-shaped ``documents``: ids 0..n-1 in order, seeded langs."""
    rng = np.random.default_rng([seed, 5])
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "lang": pa.array(SF_LANGS[rng.choice(len(SF_LANGS), n, p=SF_LANG_P)]),
    })


def events(seed: int, n: int) -> pa.Table:
    """sf0.1-shaped ``events``: n sorted uniform times over SF_DAYS days
    (the sf0.1 density at n = 100,000), uniform types and users."""
    rng = np.random.default_rng([seed, 2])
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    span_us = SF_DAYS * 86_400 * 10**6
    ts = t0 + np.sort(rng.integers(0, span_us, n, dtype=np.int64))
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, SF_USERS, n, dtype=np.int64)),
        "event_type": pa.array(SF_EVENT_TYPES[rng.integers(0, len(SF_EVENT_TYPES), n)]),
        "value": pa.array(np.round(rng.exponential(50.0, n), 2)),
    })

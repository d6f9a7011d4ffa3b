"""Deterministic Common-Crawl-style page table (FIXTURES.md F1).

Schema per BASELINE.json input_hint:
(url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string).
Every column is a pure function of (seed, row_id) — any shard can be
regenerated independently, which is what makes lineage/retry cheap.
The ``text`` column is a deterministic extract of ``html`` and is the
byte-identity invariant the whole pipeline must preserve per url.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

LANGS = np.array(
    ["en", "en", "en", "en", "en", "en", "de", "de", "fr", "fr",
     "es", "es", "it", "pt", "nl", "ru", "ja", "zh", "pl", "sv"]
)  # Zipf-ish skew: en dominates

_WORDS = (
    "the data engine stream batch shuffle arrow ray projection mercator "
    "grid datum helmert coordinate latitude longitude tile cell polygon "
    "page crawl web text token index query vector hash cluster partition"
).split() + [
    # entity-bearing tokens: literal & < > " ' must round-trip through
    # html escaping byte-identically (the extractor decodes them back)
    "r&d", "<tag>", 'say "hi"', "it's", "a<b>c", "x&y&z",
]

# escape/unescape table: order matters — '&' first on escape, last on
# decode (the standard well-formed-entity round trip)
_ESCAPES = [
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
    ('"', "&quot;"), ("'", "&#39;"),
]


def _rng_for(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def make_pages_block(seed: int, start: int, n: int) -> pa.Table:
    """Generate rows [start, start+n) deterministically."""
    rng = _rng_for(seed, start)
    row_id = np.arange(start, start + n, dtype=np.int64)
    lang = LANGS[row_id % len(LANGS)]
    host_hash = (row_id.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(
        0xFFFFFFFF
    )
    urls = [
        f"https://{l}.example-{h:08x}.com/p/{r}"
        for l, h, r in zip(lang, host_hash, row_id)
    ]
    warc_ts = np.datetime64("2024-01-01T00:00:00", "us") + row_id * np.timedelta64(997, "ms")

    n_words = 20 + (row_id % 300)
    word_idx = rng.integers(0, len(_WORDS), size=int(n_words.sum()))

    # fully vectorized assembly: list-of-words → binary_join, prefixes
    # via np.char, html via element-wise concat — no per-row Python
    import pyarrow.compute as pc

    # dictionary-decode the word stream at C speed (no 10^7 Python strs)
    flat_words = pc.cast(
        pa.DictionaryArray.from_arrays(
            pa.array(word_idx.astype(np.int32)), pa.array(_WORDS)
        ),
        pa.string(),
    )
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_words, out=offsets[1:])
    body = pc.binary_join(pa.ListArray.from_arrays(offsets, flat_words), " ")

    ids_s = row_id.astype("U")
    prefix = pa.array(np.char.add(np.char.add("page ", ids_s), ": "))
    text = pc.binary_join_element_wise(prefix, body, "")

    escaped = text
    for raw, ent in _ESCAPES:
        escaped = pc.replace_substring(escaped, raw, ent)
    head = pa.array(
        np.char.add(
            np.char.add(np.char.add("<html><head><title>p", ids_s),
                        np.char.add("</title><script>var id=", ids_s)),
            np.char.add(
                np.char.add(";</script></head><body><nav>home | ",
                            lang.astype("U")),
                " | about</nav><p>",
            ),
        )
    )
    foot = pa.array(
        np.char.add(
            np.char.add("</p><footer>&copy; example-",
                        np.char.mod("%08x", host_hash)),
            "</footer></body></html>",
        )
    )
    html = pc.binary_join_element_wise(head, escaped, foot, "")
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(warc_ts),
            "html": pc.cast(html, pa.binary()),
            "text": text,
            "lang": pa.array(lang, type=pa.string()),
            "row_id": pa.array(row_id, type=pa.int64()),
        }
    )


def extract_text_from_html(html: bytes) -> str:
    """Scalar reference extractor: content of the first <p> element with
    the five standard entities decoded. Re-running it on ``html`` must
    reproduce ``text`` byte-identically (the per-url invariant)."""
    s = html.decode()
    start = s.index("<p>") + 3
    end = s.index("</p>", start)
    frag = s[start:end]
    for raw, ent in _ESCAPES[1:]:
        frag = frag.replace(ent, raw)
    return frag.replace("&amp;", "&")


def extract_text_arrow(html_col: "pa.Array | pa.ChunkedArray"):
    """Vectorized extractor over an Arrow binary column — the map_batches
    kernel. split_pattern('<p>') → element 1 → split_pattern('</p>') →
    element 0, then chained replace_substring entity decodes ('&amp;'
    last). All pyarrow.compute — single-pass C++ kernels over the
    pool-recycled Arrow buffers. (A flat-buffer numpy sweep was
    prototyped and measured SLOWER here: every numpy op allocates
    fresh pages and this class of host demand-pages first-touch memory
    at ~10 MB/s, while Arrow's memory pool recycles hot pages; keep
    kernels chained, not hand-rolled.)"""
    return _extract_arrow_kernels(html_col)


def _extract_arrow_kernels(html_col) -> pa.Array:
    import pyarrow.compute as pc

    s = pc.cast(html_col, pa.string())
    after_p = pc.list_element(pc.split_pattern(s, "<p>", max_splits=1), 1)
    frag = pc.list_element(pc.split_pattern(after_p, "</p>", max_splits=1), 0)
    for raw, ent in _ESCAPES[1:]:
        frag = pc.replace_substring(frag, ent, raw)
    return pc.replace_substring(frag, "&amp;", "&")


PAGES_FIX_DIR = "/tmp/rayproj_fixtures"
PAGES_PATH = PAGES_FIX_DIR + "/pages.parquet"
PAGES_N, PAGES_SEED = 5000, 42
_PAGES_MARK = b"rayproj-pages-v2"


def ensure_pages_fixture() -> str:
    """Idempotently materialize the deterministic pages table (the
    input_hint schema) as a parquet fixture both the engine query and
    the DuckDB oracle read. A schema-metadata marker keys the content
    version so stale fixtures are rewritten."""
    import os

    import pyarrow.parquet as pq

    from ..core.resources import publish

    try:
        md = pq.read_schema(PAGES_PATH).metadata or {}
        if md.get(b"rayproj_pages") == _PAGES_MARK:
            return PAGES_PATH
    except (OSError, pa.ArrowInvalid):  # missing, unreadable or not parquet
        pass
    os.makedirs(PAGES_FIX_DIR, exist_ok=True)
    t = make_pages_block(PAGES_SEED, 0, PAGES_N)
    t = t.replace_schema_metadata({b"rayproj_pages": _PAGES_MARK})
    publish(PAGES_PATH, lambda tmp: pq.write_table(t, tmp))
    return PAGES_PATH

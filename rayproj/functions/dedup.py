"""Deduplication: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale design (ray_guide patterns): hashing/sketching happens per batch
inside map_batches; only small sketch rows move through the one per-key
mechanism, ``group_apply`` (sort on the key, then one vectorized call
per sorted block). Exact dedup is a sort on the content hash + per-run
min; MinHash-LSH explodes each doc into ``bands`` tiny rows, groups by
(band, band_hash), verifies candidate pairs by true Jaccard, and
resolves clusters with min-label propagation.

Kernel design (batch-vectorized, no per-row Python in the hot path):

1. tokenize the WHOLE batch once with Arrow's ``utf8_split_whitespace``
   and hash every token with a positional byte polynomial swept over
   the flattened UTF-8 buffer (O(total bytes), no per-token Python);
2. shingle hashes are a rolling polynomial over the uint64 token-hash
   array: ``sum_j P^(k-1-j) * H[i+j]`` with wrapping uint64 arithmetic,
   computed as k shifted-slice multiply-adds over the flat array;
3. MinHash is then ``min`` per document segment of ``a*h + b`` (one
   ``np.minimum.reduceat`` per hash function), SimHash is bit votes
   per segment via ``np.unpackbits`` + ``np.add.reduceat``.

Hash family note: ``a*h + b`` is computed in wrapping Z_2^64
(multiply-add with odd random ``a`` — the Dietzfelbinger multiply-shift
style family), NOT mod a Mersenne prime; comparisons for the min use
the full 64 bits. Deterministic given the seed.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# polynomial base for the rolling shingle hash (FNV-1a prime)
_POLY = np.uint64(1099511628211)
# hash of the zero-token document (stand-in shingle so every doc has >=1)
_EMPTY_HASH = np.uint64(0x9E3779B97F4A7C15)
# FNV-1a offset basis — seed for the per-token byte hash
_FNV_BASIS = np.uint64(0xCBF29CE484222325)


def _token_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch tokenization: returns (flat uint64 token hashes,
    per-doc token counts).

    Tokenization is Arrow's ``utf8_split_whitespace`` (one C call for
    the batch); token hashing is an FNV-1a-style byte polynomial swept
    position-by-position over the flattened UTF-8 buffer — the loop is
    over MAX TOKEN LENGTH (~tens), every iteration a masked vectorized
    op, so total work is O(total bytes) with no per-token Python.
    """
    if isinstance(texts, pd.Series):
        arr = pa.Array.from_pandas(texts.fillna(""))
        if not pa.types.is_string(arr.type) and not pa.types.is_large_string(arr.type):
            arr = arr.cast(pa.string())
    else:
        arr = pc.fill_null(pa.array(texts, type=pa.string()), "")
    toks = pc.utf8_split_whitespace(arr)
    list_off = np.asarray(toks.offsets)
    counts = np.diff(list_off).astype(np.int64)
    flat = toks.values
    n_tok = len(flat)
    if n_tok == 0:
        return np.empty(0, dtype=np.uint64), counts
    # raw UTF-8 bytes + per-token [start, end) offsets (zero-copy views)
    off_buf, data_buf = flat.buffers()[1], flat.buffers()[2]
    off_dtype = np.int64 if pa.types.is_large_string(flat.type) else np.int32
    toff = np.frombuffer(off_buf, dtype=off_dtype)[flat.offset: flat.offset + n_tok + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8)
    starts = toff[:-1].astype(np.int64)
    lens = np.diff(toff).astype(np.int64)

    # Arrow's splitter emits empty tokens at leading/trailing whitespace
    # (Python's str.split() drops them) — drop and fix the doc counts.
    empty = lens == 0
    if empty.any():
        tok_doc = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        np.subtract.at(counts, tok_doc[empty], 1)
        starts, lens = starts[~empty], lens[~empty]

    h = np.full(len(lens), _FNV_BASIS, dtype=np.uint64)
    max_len = int(lens.max()) if len(lens) else 0
    for j in range(max_len):
        m = lens > j
        hm = h[m]
        hm ^= data[starts[m] + j]
        hm *= _POLY
        h[m] = hm
    return h, counts


def batch_shingle_hashes(texts: pd.Series, shingle_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling-polynomial shingle hashes for a whole batch.

    Returns ``(hashes, starts, token_counts)`` where ``hashes`` is a uint64 array of
    shingle hashes grouped by document in document order and ``starts``
    (len == n_docs) is the first-shingle index of each document —
    directly usable with ``np.{minimum,add}.reduceat``. Documents with
    fewer than ``shingle_size`` tokens contribute ONE shingle (the
    polynomial over all their tokens; ``_EMPTY_HASH`` if empty), so
    every document owns at least one shingle.
    """
    k = int(shingle_size)
    h, counts = _token_hashes(texts)
    n_docs = len(counts)
    n_tok = len(h)
    tok_doc = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    # shingle count per doc: max(count - k + 1, 1)
    n_sh = np.maximum(counts - k + 1, 1)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(n_sh[:-1], out=starts[1:])
    total = int(starts[-1] + n_sh[-1]) if n_docs else 0
    out = np.empty(total, dtype=np.uint64)

    # --- full windows over the flat token array (docs with >= k tokens)
    if n_tok >= k:
        m = n_tok - k + 1
        w = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            w *= _POLY
            w += h[j:j + m]
        valid = tok_doc[:m] == tok_doc[k - 1:]
        wdoc = tok_doc[:m][valid]
        # windows are already grouped by doc in doc order; place at
        # each long doc's output offset + within-doc rank
        tok_off = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(counts[:-1], out=tok_off[1:])
        pos = np.nonzero(valid)[0] - tok_off[wdoc] + starts[wdoc]
        out[pos] = w[valid]

    # --- short docs (0 < count < k): one polynomial over all tokens
    short = (counts > 0) & (counts < k)
    if short.any():
        tok_off = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(counts[:-1], out=tok_off[1:])
        for n in range(1, k):
            sel = short & (counts == n)
            if not sel.any():
                continue
            off = tok_off[sel]
            w = np.zeros(len(off), dtype=np.uint64)
            for j in range(n):
                w *= _POLY
                w += h[off + j]
            out[starts[sel]] = w

    # --- empty docs
    empty = counts == 0
    if empty.any():
        out[starts[empty]] = _EMPTY_HASH
    return out, starts, counts


@functools.cache
def _hash_params(num_hashes: int, seed: int = 42):
    """Multiply-add family over Z_2^64: odd multipliers, random offsets.
    Cached per process, so every caller shares the (read-only) arrays."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 63, size=num_hashes, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=num_hashes, dtype=np.uint64)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def minhash_signature(text: str, num_hashes: int, a: np.ndarray, b: np.ndarray,
                      shingle_size: int = 3) -> np.ndarray:
    """Single-document convenience wrapper over the batch kernel."""
    sh, _, _ = batch_shingle_hashes(pd.Series([text]), shingle_size)
    return (a[:, None] * sh[None, :] + b[:, None]).min(axis=1).astype(np.uint64)


class MinHasher:
    """MinHash-LSH banding with the seeded hash parameters, which
    ``_hash_params`` computes once per worker process."""

    def __init__(self, num_hashes: int = 64, bands: int = 16, shingle_size: int = 3,
                 seed: int = 42):
        assert num_hashes % bands == 0
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows_per_band = num_hashes // bands
        self.shingle_size = shingle_size
        self.a, self.b = _hash_params(num_hashes, seed)

    def signatures(self, texts: pd.Series) -> np.ndarray:
        """(N, H) uint64 signature matrix — one reduceat per hash fn."""
        sh, starts, _ = batch_shingle_hashes(texts, self.shingle_size)
        out = np.empty((len(texts), self.num_hashes), dtype=np.uint64)
        if len(starts) == 0:
            return out
        buf = np.empty_like(sh)
        for hidx in range(self.num_hashes):
            np.multiply(sh, self.a[hidx], out=buf)
            buf += self.b[hidx]
            out[:, hidx] = np.minimum.reduceat(buf, starts)
        return out

    def band_rows(self, doc_ids: np.ndarray, texts: pd.Series) -> pd.DataFrame:
        """Explode docs → (doc_id, band_id, band_hash) rows for the LSH
        bucket groupby."""
        sigs = self.signatures(texts)
        n = len(doc_ids)
        rows = sigs.reshape(n, self.bands, self.rows_per_band)
        # hash each band's slice to one uint64
        band_hash = np.zeros((n, self.bands), dtype=np.uint64)
        for r in range(self.rows_per_band):
            band_hash = band_hash * _POLY + rows[:, :, r]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(doc_ids, self.bands),
                "band_id": np.tile(np.arange(self.bands, dtype=np.int64), n),
                "band_hash": band_hash.reshape(-1).astype(np.int64),
            }
        )


def jaccard(text_a: str, text_b: str, shingle_size: int = 3) -> float:
    sh, starts, _ = batch_shingle_hashes(pd.Series([text_a, text_b]), shingle_size)
    sa = set(sh[: starts[1]].tolist())
    sb = set(sh[starts[1]:].tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def simhash64(texts: pd.Series, shingle_size: int = 2) -> np.ndarray:
    """64-bit SimHash over token shingles — bit votes per doc segment
    via unpackbits + one add.reduceat per byte lane."""
    n_docs = len(texts)
    if n_docs == 0:
        return np.empty(0, dtype=np.uint64)
    sh, starts, tok_counts = batch_shingle_hashes(texts, shingle_size)
    n_sh = np.diff(np.append(starts, len(sh)))
    sh_bytes = sh.view(np.uint8).reshape(-1, 8)
    votes = np.empty((n_docs, 64), dtype=np.uint8)
    for byte_i in range(8):
        bits = np.unpackbits(sh_bytes[:, byte_i:byte_i + 1], axis=1).astype(np.int64)
        counts = np.add.reduceat(bits, starts, axis=0)
        votes[:, byte_i * 8:(byte_i + 1) * 8] = (counts * 2 > n_sh[:, None])
    packed = np.packbits(votes, axis=1)  # same MSB-first order as unpackbits
    out = packed.view(np.uint64).reshape(n_docs).copy()
    # empty documents sketch to 0 (contract from round 1)
    out[tok_counts == 0] = 0
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount of XOR — no per-element Python."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return ((x * h01) >> np.uint64(56)).astype(np.int64)


def group_apply(ds, key, fn):
    """The one per-key apply for Ray Data: sort on ``key`` (a column
    name or a list of them), then ONE ``fn`` call per sorted block.

    The sort range-partitions on the key, so every run of equal keys
    lands whole in one block — the co-location Ray Data's own
    per-group map relies on — and each block arrives sorted on
    ``key``. ``fn(block_df) -> DataFrame`` handles every key run of
    its block with vector code: run starts from ``runs``, then
    ``reduceat`` / ``lexsort`` / rank-in-run, or a C-speed
    ``df.groupby(key, sort=False)`` — never one Python call per key
    ("These Rows Are Made for Sorting", ICDE 2023)."""
    return ds.sort(key).map_batches(fn, batch_format="pandas", batch_size=None)


def collect(ds, dtypes: dict) -> pd.DataFrame:
    """The typed driver collect of a small stream: ``ds.to_pandas()``
    cast to ``dtypes`` (column -> dtype). Ray Data does not call a
    map's function on an empty block, so a zero-row stream reaches the
    driver with no schema; the columns of ``dtypes`` then stand in for
    it, and the frame keeps its names and dtypes."""
    df = ds.to_pandas()
    if df.columns.empty:
        df = pd.DataFrame(columns=list(dtypes))
    return df.astype(dtypes)


def runs(*keys):
    """Runs of equal rows in the sorted key columns ``keys`` → (starts,
    seg): ``starts[i]`` is run i's first row, ``seg[r]`` row r's run."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for k in keys:
        k = np.asarray(k)
        first[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(first), np.cumsum(first) - 1


def dedup_pairs_ds(pairs, a_col: str, b_col: str):
    """Exact global dedup of a pair Dataset: map-side drop_duplicates
    to shrink the sort, then group_apply on the pair itself."""

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates([a_col, b_col])

    local = pairs.map_batches(distinct, batch_format="pandas")
    return group_apply(local, [a_col, b_col], distinct)


def simhash_neardup_pipeline(sketches, hamming_max: int = 3, bucket_cap: int = 2000):
    """Skew-safe SimHash near-duplicate candidate pipeline.

    ``sketches``: Dataset of (``doc_id`` int64, ``simhash`` int64).
    Returns a Dataset of (``doc_a``, ``doc_b``, ``hamming``) with
    doc_a < doc_b; with no sketches, the empty int64 DataFrame of those
    columns (a Dataset's ``to_pandas`` keeps no zero-row schema).

    Scale design (defuses the round-2 zero-sketch skew bomb):

    1. The hamming-0 equivalence classes are collapsed FIRST by
       ``group_apply`` on the simhash, one pandas ``groupby`` per block
       taking each class's min doc_id and size — a corpus
       with 10^6 identical/empty documents (they all sketch to the
       same value, empty -> 0) becomes ONE class row. Class members
       are emitted as a linear star (rep, member, 0), never as the
       quadratic all-pairs set.
    2. Only the class REPRESENTATIVES (one per distinct sketch) are
       banded into 4 x 16-bit keys, so a (band, key) bucket can only
       grow past ``bucket_cap`` when more than cap DISTINCT sketches
       collide on 16 bits; buckets are then deterministically capped
       (lowest rep ids kept) before the O(k^2) hamming verify, making
       every group O(cap^2) worst case.

    The duplicated-sketch classes (count > 1) are broadcast to the
    member scan as a sorted array + ``searchsorted`` lookup — the
    broadcast side is bounded by the number of distinct sketches that
    actually repeat, not by corpus size.
    """
    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("simhash", sort=False)["doc_id"]
        out = g.min().to_frame("rep")
        out["n"] = g.size()
        return out.reset_index()

    classes = group_apply(sketches, "simhash", collapse).materialize()

    # --- stage 1: hamming-0 star pairs (rep, member) ---------------------
    if classes.count() == 0:
        return pd.DataFrame({c: [] for c in ("doc_a", "doc_b", "hamming")}, dtype=np.int64)
    dup = collect(classes.filter(expr="n > 1").select_columns(["simhash", "rep"]),
                  {"simhash": np.int64, "rep": np.int64})
    dup_sk = dup["simhash"].to_numpy(np.int64)
    order = np.argsort(dup_sk, kind="mergesort")
    dup_sk_sorted = dup_sk[order]
    dup_rep_sorted = dup["rep"].to_numpy(np.int64)[order]

    def star_pairs(df: pd.DataFrame) -> pd.DataFrame:
        sk = df["simhash"].to_numpy(np.int64)
        ids = df["doc_id"].to_numpy(np.int64)
        pos = np.searchsorted(dup_sk_sorted, sk)
        pos_c = np.minimum(pos, max(len(dup_sk_sorted) - 1, 0))
        hit = (len(dup_sk_sorted) > 0) & (dup_sk_sorted[pos_c] == sk)
        rep = dup_rep_sorted[pos_c]
        keep = hit & (ids != rep)
        return pd.DataFrame(
            {
                "doc_a": rep[keep],
                "doc_b": ids[keep],
                "hamming": np.zeros(int(keep.sum()), dtype=np.int64),
            }
        )

    zero_pairs = sketches.map_batches(star_pairs, batch_format="pandas")

    # --- stage 2: band the representatives only --------------------------
    def bands(df: pd.DataFrame) -> pd.DataFrame:
        h = df["simhash"].to_numpy(np.int64).astype(np.uint64)
        reps = df["rep"].to_numpy(np.int64)
        parts = []
        for b in range(4):
            key = ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            parts.append(
                pd.DataFrame(
                    {"band": np.int64(b), "key": key, "rep": reps,
                     "simhash": h.astype(np.int64)}
                )
            )
        return pd.concat(parts, ignore_index=True)

    banded = classes.map_batches(bands, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # every (band, key) run: its bucket_cap lowest reps, all pairs
        band, key = df["band"].to_numpy(np.int64), df["key"].to_numpy(np.int64)
        ids = df["rep"].to_numpy(np.int64)
        o = np.lexsort((ids, key, band))
        starts, seg = runs(band[o], key[o])
        capped = np.arange(len(o)) - starts[seg] < bucket_cap
        ids, seg = ids[o][capped], seg[capped]
        hs = df["simhash"].to_numpy(np.int64)[o][capped]
        a, b = cooccurrence_pairs(seg)
        d = hamming64(hs[a], hs[b])
        keep = (d <= hamming_max) & (d > 0)
        return pd.DataFrame(
            {"doc_a": ids[a[keep]], "doc_b": ids[b[keep]], "hamming": d[keep]}
        )

    cand = group_apply(banded, ["band", "key"], bucket_pairs)

    # pairs repeat across bands (pair count is unbounded)
    rep_pairs = dedup_pairs_ds(cand, "doc_a", "doc_b")
    return zero_pairs.union(rep_pairs)


def star_edges(ds, key_col: str, id_col: str):
    """(key, id) Dataset → star edges (a=min id of key class, b=member)
    for every class with ≥ 2 members: one group_apply on the key, and
    per block a sort by (key, id) and a run-start gather (no per-class
    Python)."""

    def stars(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, id_col], kind="mergesort")
        ids = df[id_col].to_numpy(np.int64)
        starts, seg = runs(df[key_col].to_numpy())
        rep = ids[starts][seg]  # per-class min id (ids sorted in class)
        keep = ids != rep
        return pd.DataFrame({"a": rep[keep], "b": ids[keep]})

    return group_apply(ds, key_col, stars)


def connected_components_ds(edges, nodes, max_rounds: int = 50):
    """Distributed connected components over an edge Dataset
    (columns ``a``, ``b``) and a node Dataset (column ``node``, every
    node of the graph) → Dataset of (node, label=component min). A
    node with no edge is its own component: its label is itself.

    Alternating large-star / small-star rounds (Kiveris et al.,
    "Connected Components in MapReduce and Beyond", SoCC'14): each
    round is one ``group_apply`` on the node over the edge set, edges
    contract toward star graphs in O(log n) rounds, and convergence is
    detected with a per-round edge-hash sum: one partial per block,
    collected and summed on the driver. Each round materializes
    the (shrinking) edge set — the unavoidable shape of an iterative
    fixed point.
    """

    def star_bucket(df: pd.DataFrame, large: bool) -> pd.DataFrame:
        """Vectorized large/small-star over one sorted block holding
        complete u-groups: lexsort + run-start segment mins + masked
        scatter — no per-node Python."""
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts, seg = runs(u)
        m_seg = np.minimum(v[starts], u[starts])  # min(Γ(u) ∪ {u}); v sorted
        m = m_seg[seg]
        if large:
            keep = v > u
            out_u, out_v = v[keep], m[keep]
        else:
            keep = (v <= u) & (v != m)
            extra = u[starts] != m_seg
            out_u = np.concatenate([v[keep], u[starts][extra]])
            out_v = np.concatenate([m[keep], m_seg[extra]])
        # pair-dedup via single lexsort (multi-edges collapse)
        o = np.lexsort((out_v, out_u))
        out_u, out_v = out_u[o], out_v[o]
        first = runs(out_u, out_v)[0]
        return pd.DataFrame({"u": out_u[first], "v": out_v[first]})

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        """Undirected expand with map-side pair dedup to shrink the
        sort."""
        u = np.concatenate([df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)])
        v = np.concatenate([df["v"].to_numpy(np.int64), df["u"].to_numpy(np.int64)])
        o = np.lexsort((v, u))
        u, v = u[o], v[o]
        first = runs(u, v)[0]
        return pd.DataFrame({"u": u[first], "v": v[first]})

    def star_round(ds, large: bool):
        und = ds.map_batches(undirect, batch_format="pandas")
        return group_apply(und, "u", lambda df: star_bucket(df, large=large))

    def edge_hash(ds) -> int:
        def h(df: pd.DataFrame) -> pd.DataFrame:
            v = (df["u"].to_numpy(np.int64) * 1000003 + df["v"].to_numpy(np.int64))
            return pd.DataFrame({"h": [int((v * v).sum())]})

        return int(collect(ds.map_batches(h, batch_format="pandas"), {"h": np.int64})["h"].sum())

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"a": "u", "b": "v"})

    ds = edges.map_batches(rename, batch_format="pandas")
    prev = None
    for _ in range(max_rounds):
        ds = star_round(ds, large=True)
        ds = star_round(ds, large=False)
        ds = ds.materialize()
        cur = edge_hash(ds)
        if cur == prev:
            break
        prev = cur

    # final labels: every remaining edge is (node, root); roots label
    # themselves, and every node self-labels, so a node with no edge
    # survives as a singleton
    def labels(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
                "label": np.concatenate([df["v"].to_numpy(), df["v"].to_numpy()]),
            }
        )

    def self_labels(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["node"].to_numpy(np.int64)
        return pd.DataFrame({"node": ids, "label": ids})

    def min_label(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", sort=False, as_index=False)["label"].min()

    lab = ds.map_batches(labels, batch_format="pandas")
    own = nodes.map_batches(self_labels, batch_format="pandas")
    return group_apply(lab.union(own), "node", min_label)


def connected_components_min_label(pairs: pd.DataFrame, max_rounds: int = 50) -> pd.DataFrame:
    """Min-label propagation over an edge list (a, b) → (node, label).
    Driver-side implementation for candidate sets that are small after
    LSH pruning; `connected_components_ds` is the distributed variant."""
    labels: dict = {}
    for a, b in pairs[["a", "b"]].itertuples(index=False):
        labels.setdefault(a, a)
        labels.setdefault(b, b)
    for _ in range(max_rounds):
        changed = False
        for a, b in pairs[["a", "b"]].itertuples(index=False):
            la, lb = labels[a], labels[b]
            m = min(la, lb)
            if la != m:
                labels[a] = m
                changed = True
            if lb != m:
                labels[b] = m
                changed = True
        if not changed:
            break
    # path-compress through label chains
    def root(x):
        seen = []
        while labels[x] != x:
            seen.append(x)
            x = labels[x]
        for s in seen:
            labels[s] = x
        return x

    return pd.DataFrame(
        {"node": list(labels), "label": [root(n) for n in list(labels)]}
    )


def distinct_shingle_rows(texts: pd.Series, shingle_size: int):
    """Per-doc DISTINCT shingle hashes as flat rows: returns
    ``(doc_idx, hashes, n_distinct)`` where ``doc_idx``/``hashes`` are
    parallel arrays of (document row, distinct shingle hash) pairs in
    (doc, hash) order and ``n_distinct[d]`` is each doc's distinct
    count. One lexsort + one boundary mask — no per-doc Python."""
    sh, starts, _ = batch_shingle_hashes(texts, shingle_size)
    n = np.diff(np.append(starts, len(sh)))
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n)
    order = np.lexsort((sh, doc_idx))
    d = doc_idx[order]
    h = sh[order]
    first = runs(d, h)[0]
    d = d[first]
    h = h[first]
    return d, h, np.bincount(d, minlength=len(texts)).astype(np.int64)


def cooccurrence_pairs(keys: np.ndarray):
    """All within-group ordered index pairs (i < j) of rows sharing a
    key, for SORTED ``keys``: the vectorized pair-expansion used by the
    n-gram-Jaccard verify leg (repeat/cumsum arithmetic, no Python
    loop; same trick as the PIP CSR pair sweep). Returns (a, b) row
    index arrays."""
    m = len(keys)
    gstart, gid = runs(keys)
    gsize = np.diff(np.append(gstart, m))
    c = gsize[gid]
    r = np.arange(m, dtype=np.int64) - gstart[gid]
    reps = c - 1 - r
    a = np.repeat(np.arange(m, dtype=np.int64), reps)
    total = int(reps.sum())
    k = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
    b = a + 1 + k
    return a, b

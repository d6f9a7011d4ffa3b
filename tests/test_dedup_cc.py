"""Vectorized dedup kernels + distributed connected components."""

import numpy as np
import pandas as pd
import pytest

from rayproj.functions import dedup


def test_minhash_batch_matches_single():
    texts = pd.Series(
        ["the quick brown fox", "", None, "one", "  padded  text ",
         "a b c d e f g h i j"]
    )
    mh = dedup.MinHasher()
    sigs = mh.signatures(texts)
    for i, t in enumerate(texts.fillna("")):
        assert (dedup.minhash_signature(t, 64, mh.a, mh.b, 3) == sigs[i]).all()


def test_minhash_near_dup_overlap():
    mh = dedup.MinHasher()
    sigs = mh.signatures(pd.Series(
        ["the quick brown fox jumps over the lazy dog",
         "the quick brown fox jumps over the lazy cat"]
    ))
    assert (sigs[0] == sigs[1]).mean() > 0.5


def test_simhash_properties():
    texts = pd.Series(["alpha beta gamma delta", "alpha beta gamma delta x", ""])
    h = dedup.simhash64(texts)
    assert h[2] == 0
    assert dedup.hamming64(h[:1], h[1:2])[0] <= 20


def test_hamming64_vs_python():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2 ** 63, 500, dtype=np.uint64)
    b = rng.integers(0, 2 ** 63, 500, dtype=np.uint64)
    ref = np.array([bin(int(x) ^ int(y)).count("1") for x, y in zip(a, b)])
    assert (dedup.hamming64(a, b) == ref).all()


def test_connected_components_ds_matches_driver(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    # random graph: 3 planted components plus noise edges within them
    comps = [np.arange(0, 20), np.arange(100, 130), np.arange(500, 505)]
    edges = []
    for comp in comps:
        perm = rng.permutation(comp)
        edges += list(zip(perm[:-1], perm[1:]))  # spanning path
        for _ in range(10):
            a, b = rng.choice(comp, 2)
            edges.append((a, b))
    pairs = pd.DataFrame(edges, columns=["a", "b"]).astype("int64")

    expected = dedup.connected_components_min_label(pairs)
    exp = dict(zip(expected["node"], expected["label"]))

    lonely = 900  # a node with no edge is its own component
    nodes = pd.DataFrame({"node": [*sorted(exp), lonely]}).astype("int64")
    got = dedup.connected_components_ds(rd.from_pandas(pairs), rd.from_pandas(nodes))
    got = got.to_pandas()
    gm = dict(zip(got["node"], got["label"]))
    for comp in comps:
        root = int(comp.min())
        for n in comp:
            assert gm[int(n)] == root, (n, gm.get(int(n)))
    assert gm.pop(lonely) == lonely
    assert set(gm) == set(exp)


def test_cc_million_edge_graph(ray_session):
    """Round-2 VERDICT #8 acceptance: distributed CC on a 10^6-edge
    synthetic graph finishes in seconds-scale wall time (vectorized
    bucket star rounds, not per-node map_groups)."""
    import time

    import ray.data as rd

    rng = np.random.default_rng(7)
    comp = 100_000  # components: 0..comp-1
    size = 10  # nodes per component
    # each component: a chain plus random intra-component chords
    base = np.arange(comp, dtype=np.int64)[:, None] * size
    chain_a = (base + np.arange(size - 1)).reshape(-1)
    chain_b = chain_a + 1
    extra_a = base.reshape(-1).repeat(1)  # one chord per component
    extra_b = extra_a + rng.integers(1, size, comp)
    a = np.concatenate([chain_a, extra_a])
    b = np.concatenate([chain_b, extra_b])
    edges = pd.DataFrame({"a": a, "b": b})
    assert len(edges) >= 1_000_000
    t0 = time.monotonic()
    nodes = pd.DataFrame({"node": np.arange(comp * size, dtype=np.int64)})
    out = dedup.connected_components_ds(rd.from_pandas(edges), rd.from_pandas(nodes))
    out = out.to_pandas()
    elapsed = time.monotonic() - t0
    assert len(out) == comp * size
    out = out.sort_values("node").reset_index(drop=True)
    exp = (out["node"].to_numpy(np.int64) // size) * size
    assert (out["label"].to_numpy(np.int64) == exp).all()
    assert elapsed < 300, f"CC on 1M edges took {elapsed:.0f}s"


@pytest.mark.parametrize("key", ["key", ["band", "key"]])
def test_group_apply_colocates_every_key_run(ray_session, key):
    """group_apply hands every key's whole run to one ``fn`` call:
    12 input blocks, one hot key holding over half the rows (it
    straddles the sampled sort boundaries), thousands of small keys,
    and a two-column (band, key) key shaped like simhash's buckets."""
    import ray.data as rd

    cols = [key] if isinstance(key, str) else key
    rng = np.random.default_rng(5)
    n = 40_000
    hot = rng.random(n) < 0.55
    df = pd.DataFrame({
        "band": np.where(hot, 0, rng.integers(0, 4, n)),
        "key": np.where(hot, 7, rng.integers(0, 5_000, n)),
        "x": np.arange(n),
    }).sample(frac=1, random_state=1)
    ds = rd.from_pandas([df.iloc[i::12] for i in range(12)]).materialize()
    assert ds.num_blocks() >= 8

    def per_run(block: pd.DataFrame) -> pd.DataFrame:
        starts = dedup.runs(*(block[c].to_numpy() for c in cols))[0]
        out = block.iloc[starts][cols].reset_index(drop=True)
        out["rows"] = np.diff(np.append(starts, len(block)))
        return out

    got = dedup.group_apply(ds, key, per_run).to_pandas()
    want = df.groupby(cols).size().rename("rows").reset_index()
    assert not got.duplicated(cols).any()  # every key exactly once
    got = got.sort_values(cols).reset_index(drop=True)
    assert want["rows"].max() > n // 2
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

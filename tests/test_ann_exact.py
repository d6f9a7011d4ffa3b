"""Exact-kNN kernels: tie-safe windowed top-k, its per-key merge and
the IVF-pruned branch-and-bound index must agree bit-for-bit with brute
force, and the ranked embedding queries with their SQL oracles."""

import numpy as np
import pandas as pd
import pytest

from rayproj.functions.ann import (ExactPrunedKNN, emb_matrix, top_k_per_key,
                                   topk_rows, topk_window)


def brute_topk_ids(sims, ids, k):
    order = np.lexsort((np.broadcast_to(ids, sims.shape), -sims), axis=1)
    return ids[order[:, :k]]


def test_topk_window_random():
    rng = np.random.default_rng(0)
    sims = rng.normal(size=(40, 300))
    ids = rng.permutation(300).astype(np.int64)
    s, i = topk_window(sims, ids, 5)
    np.testing.assert_array_equal(i, brute_topk_ids(sims, ids, 5))
    assert (np.diff(s, axis=1) <= 0).all()


def test_topk_window_massive_ties():
    # >64-way exact ties at the k boundary force the full-sort fallback;
    # ids must come back smallest-first within the tied value
    ids = np.arange(500, dtype=np.int64)[::-1].copy()  # descending ids
    sims = np.zeros((3, 500))
    sims[:, :10] = 1.0  # 10 clear winners (ids 499..490)
    k = 15  # 5 slots fall inside the 490-way tie at 0.0
    s, i = topk_window(sims, ids, k)
    np.testing.assert_array_equal(i, brute_topk_ids(sims, ids, k))
    # the tied tail picks the SMALLEST ids (0,1,2,...)
    assert set(i[0, 10:]) == {0, 1, 2, 3, 4}
    # split batches: per-half partials merged by top_k_per_key equal one
    # pass over the whole input, the tied tail included
    df = pd.DataFrame({"q": np.repeat(np.arange(3), 500),
                       "id": np.tile(ids, 3), "s": sims.ravel()})
    parts = [top_k_per_key(h, "q", "s", "id", k) for _, h in df.groupby(df["id"] % 2)]
    merged = top_k_per_key(pd.concat(parts), "q", "s", "id", k)
    pd.testing.assert_frame_equal(merged, top_k_per_key(df, "q", "s", "id", k))
    np.testing.assert_array_equal(merged["id"].to_numpy().reshape(3, k), i)
    np.testing.assert_array_equal(merged["rank"], np.tile(np.arange(1, k + 1), 3))
    np.testing.assert_array_equal(topk_rows(sims, ids, k)[1], merged["id"])


def test_topk_window_short_rows():
    sims = np.array([[0.5, 0.1]])
    ids = np.array([7, 3], dtype=np.int64)
    s, i = topk_window(sims, ids, 4)
    assert list(i[0, :2]) == [7, 3]
    assert np.isinf(s[0, 2:]).all() and (s[0, 2:] < 0).all()
    q, i, s = topk_rows(sims, ids, 4)  # the -inf padding is dropped
    assert list(q) == [0, 0] and list(i) == [7, 3] and list(s) == [0.5, 0.1]


def test_exact_pruned_knn_matches_brute():
    rng = np.random.default_rng(1)
    n, d, k = 700, 16, 5
    mat = rng.normal(size=(n, d))
    ids = rng.permutation(n).astype(np.int64) * 3  # non-contiguous ids
    index = ExactPrunedKNN(ids, mat, n_centroids=24)
    qsel = rng.choice(n, 60, replace=False)
    qids, qmat = ids[qsel], mat[qsel]
    got = index.query(qids, qmat, k, exclude_self=True)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    sims = qn @ matn.T
    sims[qids[:, None] == ids[None, :]] = -np.inf
    np.testing.assert_array_equal(got, brute_topk_ids(sims, ids, k))


def test_exact_pruned_knn_clustered_prunes_and_exact():
    # tight clusters -> small bucket radii -> real pruning; answers
    # must still be exact
    rng = np.random.default_rng(2)
    centers = rng.normal(size=(10, 8)) * 5
    mat = np.concatenate([c + rng.normal(size=(80, 8)) * 0.05 for c in centers])
    ids = np.arange(len(mat), dtype=np.int64)
    index = ExactPrunedKNN(ids, mat, n_centroids=10)
    got = index.query(ids[:50], mat[:50], 4, exclude_self=True)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = matn[:50] @ matn.T
    sims[ids[:50, None] == ids[None, :]] = -np.inf
    np.testing.assert_array_equal(got, brute_topk_ids(sims, ids, 4))


def test_emb_matrix_zero_copy_shape():
    import pyarrow as pa

    tbl = pa.table({
        "vec_id": pa.array([5, 2, 9], type=pa.int64()),
        "embedding": pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                              type=pa.list_(pa.float32())),
    })
    ids, mat = emb_matrix(tbl)
    np.testing.assert_array_equal(ids, [5, 2, 9])
    assert mat.shape == (3, 2) and mat.dtype == np.float64
    np.testing.assert_allclose(mat[1], [3.0, 4.0])
    ids0, mat0 = emb_matrix(tbl.slice(0, 0))
    assert len(ids0) == 0 and mat0.shape[0] == 0


def test_knn_join_paths_agree(ray_session):
    from rayproj.pipelines.queries import _knn_join_impl

    sf = "/root/testdata/sf0.001"
    a = (_knn_join_impl(sf, use_ivf=False).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    b = (_knn_join_impl(sf, use_ivf=True).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


@pytest.mark.parametrize("query", ["ann_cosine", "ann_ivf"])
@pytest.mark.parametrize("variant", ["shuffled", "tied"])
def test_ann_queries_match_oracle(ray_session, sf_dir, tmp_path, query, variant):
    """Query vectors are chosen by vec_id, not file position, and the
    k-th place keeps exact ties (cosine desc, vec_id asc)."""
    import duckdb
    import pyarrow.parquet as pq

    from rayproj.pipelines import queries as q

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet")
    if variant == "shuffled":
        tbl = tbl.take(np.random.default_rng(6).permutation(len(tbl)))
    else:
        # rows 100-139 become exact copies of the 5 query vectors: each
        # query ties with 8 copies of itself across its whole top-k
        src = np.arange(len(tbl))
        src[100:140] = np.argsort(tbl.column("vec_id").to_numpy())[np.arange(40) % 5]
        emb = tbl.schema.get_field_index("embedding")
        tbl = tbl.set_column(emb, "embedding", tbl.column("embedding").take(src))
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    fn, sql = {"ann_cosine": (q.q_ann_cosine, q.SQL_ANN),
               "ann_ivf": (q.q_ann_ivf, q.SQL_ANN_IVF)}[query]
    con = duckdb.connect()
    con.execute("CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    want = con.execute(sql).df().astype("int64")
    got = fn(str(tmp_path)).sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("use_ivf", [False, True])
def test_knn_join_tied_corpus_matches_oracle(ray_session, sf_dir, tmp_path, use_ivf):
    """Both knn_join paths keep exact ties: with duplicate vectors at
    the k-th place the self-join still ranks (cosine desc, neighbor_id
    asc), as its oracle does."""
    import duckdb
    import pyarrow.parquet as pq

    from rayproj.pipelines import queries as q

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).slice(0, 495)
    # the last 40 rows become copies of rows 0-4, so each copy's top-k
    # holds only tied copies of itself. Rows 248-249 and the last three
    # (an odd corpus size) copy row 0 too: they sit on the edge rows and
    # columns of a BLAS tile, where a matmul scores copies an ulp apart.
    src = np.arange(len(tbl))
    src[-40:] = np.arange(40) % 5
    src[[248, 249, -3, -2, -1]] = 0
    tbl = tbl.set_column(1, "embedding", tbl.column("embedding").take(src))
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    con = duckdb.connect()
    con.execute("CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    want = con.execute(q.SQL_KNN_JOIN).df().astype("int64")
    got = (q._knn_join_impl(str(tmp_path), use_ivf=use_ivf).to_pandas()
           .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)

"""Driver-merged partial aggregates: the ``merge_partials`` queries,
q_events_sessions, q_tfidf_top and flagship.tile_stats against their
DuckDB twins on tables this module writes itself — empty, and split
across several parquet files so the merge sees partials from more than
one block (the query layer reads one block per file). The group_apply
queries run on the same split tables: their per-block kernels must be
exact whatever mix of key runs a sorted block holds, as must a
per-block top-n merged on the driver."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayproj.pipelines import queries as q
from rayproj.pipelines.flagship import run_flagship, tile_stats
from rayproj.spatial.polygons import layer_index
from rayproj.stages.geolocate import geolocate_ids

# the driver-merged queries and the tables they read
MERGED = {
    "tile_stats": ("documents",), "zonal_stats": ("documents",),
    "events_sessions": ("events",), "agg_lineitem": ("lineitem",),
    "join_orders_customer": ("orders", "customer"), "distinct_brands": ("part",),
    "events_windows": ("events",), "source_profile": ("documents",),
}
# queries that collect a stream on the driver, before or as their last step
COLLECTED = ("ann_topk", "simhash_neardup", "kmeans_embed", "knn_anchors",
             "decontaminate", "tfidf_top", "inverted_index", "join_orders_customer",
             "ngram_freq", "top_orders", "knn_join", "embed_neardup")
# queries that sort, through group_apply only, on a key that grows with the corpus
SORTED = ("sampling", "ngram_freq", "inverted_index", "tfidf_top", "domain_stats")
EVENT_TYPES = np.array(["signup", "purchase", "view", "click", "error"])
DAY_US = 86_400 * 10**6


def _documents(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array(rng.permutation(n).astype(np.int64)),
        "lang": pa.array(np.array(["en", "de", "fr"])[rng.integers(0, 3, n)]),
    })


def _events(n: int, days: int, seed: int) -> pa.Table:
    """n events at uniform times over ``days`` days, in random order, so
    every slice of the table spans the whole period."""
    rng = np.random.default_rng(seed)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = t0 + rng.integers(0, days * DAY_US, n, dtype=np.int64)
    return pa.table({
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_type": pa.array(EVENT_TYPES[rng.integers(0, len(EVENT_TYPES), n)]),
    })


def _write(sf_dir, name: str, table: pa.Table, n_files: int) -> None:
    """``name``.parquet as one file, or as a directory of n_files files."""
    if n_files == 1:
        pq.write_table(table, sf_dir / f"{name}.parquet")
        return
    out = sf_dir / f"{name}.parquet"
    out.mkdir()
    for i, part in enumerate(np.array_split(np.arange(table.num_rows), n_files)):
        pq.write_table(table.take(part), out / f"part-{i:03d}.parquet")


def _split(sf_dir, tmp_path, tables, n_files: int) -> None:
    """Each of ``tables`` copied from ``sf_dir`` as n_files files."""
    for table in tables:
        _write(tmp_path, table, pq.read_table(f"{sf_dir}/{table}.parquet"), n_files)
        assert _n_blocks(tmp_path, table) == n_files


def _oracle(sf_dir, name: str) -> pd.DataFrame:
    con = duckdb.connect()
    for path in sf_dir.glob("*.parquet"):
        t = path.stem
        glob = f"{path}/*.parquet" if path.is_dir() else str(path)
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{glob}')")
    return con.execute(q.ORACLE_SQL[name]).df()


def _assert_same(got: pd.DataFrame, want: pd.DataFrame) -> None:
    def norm(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    pd.testing.assert_frame_equal(norm(got), norm(want))


def _n_blocks(sf_dir, table: str) -> int:
    """Blocks of the query layer's read, each from its own read task."""
    ds = q._read(str(sf_dir), table).materialize()
    n = ds.num_blocks()
    assert ds.stats().startswith(
        f"Operator 1 ReadParquet: {n} tasks executed, {n} blocks produced")
    return n


def test_empty_tables_return_named_columns(tmp_path, ray_session, sf_dir):
    """Every table empty but ``customer`` (a join of no orders): each
    merged query returns the oracle's columns and dtypes, string keys
    included, though no partial block reaches the driver. With every
    table empty, each of COLLECTED does too."""
    for table in {t for tables in MERGED.values() for t in tables}:
        full = pq.read_table(f"{sf_dir}/{table}.parquet")
        _write(tmp_path, table, full if table == "customer" else full.slice(0, 0), 1)
    for name in MERGED:
        got = q.QUERIES[name](str(tmp_path))
        want = _oracle(tmp_path, name)
        assert len(want) == 0
        _assert_same(got, want)
    import ray.data as rd

    docs = rd.read_parquet(str(tmp_path / "documents.parquet"))
    out = tile_stats(run_flagship(docs, key_col="doc_id", lang_col="lang"))
    assert list(out.columns) == ["tile", "n_docs"] and len(out) == 0

    (tmp_path / "all").mkdir()
    for table in ("documents", "embeddings", "orders", "customer"):
        _write(tmp_path / "all", table,
               pq.read_table(f"{sf_dir}/{table}.parquet").slice(0, 0), 1)
    for name in COLLECTED:
        got = q.QUERIES[name](str(tmp_path / "all"))
        want = _oracle(tmp_path / "all", name)
        assert len(want) == 0
        _assert_same(got.to_pandas() if isinstance(got, rd.Dataset) else got, want)


def test_join_of_orders_with_no_customers(tmp_path, ray_session, sf_dir):
    """``customer`` empty, ``orders`` full: no order has a customer, so
    the inner join is the oracle's typed zero-row frame."""
    for table in ("orders", "customer"):
        full = pq.read_table(f"{sf_dir}/{table}.parquet")
        _write(tmp_path, table, full.slice(0, 0) if table == "customer" else full, 1)
    want = _oracle(tmp_path, "join_orders_customer")
    assert len(want) == 0
    _assert_same(q.q_join_orders_customer(str(tmp_path)), want)


@pytest.mark.parametrize("n_events,n_files", [(3_000, 5), (20_000, 7)])
def test_sessions_exact_across_overlapping_blocks(tmp_path, ray_session,
                                                  n_events, n_files):
    _write(tmp_path, "events", _events(n_events, 30, n_events + n_files), n_files)
    assert _n_blocks(tmp_path, "events") == n_files
    want = _oracle(tmp_path, "events_sessions")
    assert want["n_sessions"].sum() >= 100  # sparse: many gaps to merge across
    _assert_same(q.q_events_sessions(str(tmp_path)), want)


def test_partials_from_several_blocks_merge_exactly(tmp_path, ray_session, sf_dir):
    """tile_stats and zonal_stats on 20,000 docs in 4 files; every other
    merged query on its ``sf_dir`` tables, each as 4 files."""
    _write(tmp_path, "documents", _documents(20_000, 7), 4)
    assert _n_blocks(tmp_path, "documents") == 4
    for name in ("tile_stats", "zonal_stats"):
        _assert_same(q.QUERIES[name](str(tmp_path)), _oracle(tmp_path, name))
    for name, tables in MERGED.items():
        if name in ("tile_stats", "zonal_stats"):
            continue
        (tmp_path / name).mkdir()
        _split(sf_dir, tmp_path / name, tables, 4)
        want = _oracle(tmp_path / name, name)
        assert len(want) > 0
        _assert_same(q.QUERIES[name](str(tmp_path / name)), want)


def test_partial_sums_exact_past_2_53(tmp_path, ray_session, sf_dir):
    """Integer partials sum in int64: revenues of ~1e17 cents and
    doc_ids from 2^53 lose their low digits in a float64 sum."""
    li = pq.read_table(f"{sf_dir}/lineitem.parquet").slice(0, 3)
    li = li.set_column(li.schema.get_field_index("l_extendedprice"), "l_extendedprice",
                       pa.array([1e13 + k / 100 for k in (1, 2, 3)]))
    li = li.set_column(li.schema.get_field_index("l_discount"), "l_discount",
                       pa.array([0.0, 0.0, 0.0]))
    for c in ("l_returnflag", "l_linestatus"):
        li = li.set_column(li.schema.get_field_index(c), c, pa.array(["A"] * 3))
    _write(tmp_path, "lineitem", li, 1)
    want = _oracle(tmp_path, "agg_lineitem")
    assert want["sum_revenue"].tolist() == [(3 * 10**15 + 6) * 100]
    _assert_same(q.q_agg_lineitem(str(tmp_path)), want)

    ids = np.arange(2**53, 2**53 + 500, dtype=np.int64)
    _write(tmp_path, "documents", pa.table({"doc_id": ids}), 1)
    pid = layer_index(q.N_POLYS).assign(*geolocate_ids(ids))
    sums = {}
    for p, i in zip(pid.tolist(), ids.tolist()):
        sums[p] = sums.get(p, 0) + i
    got = q.q_zonal_stats(str(tmp_path))
    assert dict(zip(got["poly_id"].tolist(), got["sum_doc_id"].tolist())) == sums


@pytest.mark.parametrize("name", [*MERGED, "flagship", "top_orders", *SORTED])
def test_merged_aggregates_run_no_shuffle(name, tmp_path, ray_session, monkeypatch,
                                          sf_dir):
    """No sort, groupby or repartition runs; the SORTED queries only run
    no groupby, they sort through group_apply."""
    import ray.data as rd

    def shuffle(self, *args, **kwargs):
        raise AssertionError("a Ray Data shuffle ran")

    ops = ("groupby",) if name in SORTED else (
        "groupby", "sort", "repartition", "random_shuffle")
    for op in ops:
        monkeypatch.setattr(rd.Dataset, op, shuffle)
    _split(sf_dir, tmp_path, {**MERGED, "top_orders": ("orders",)}.get(name, ("documents",)), 2)
    if name == "flagship":
        docs = rd.read_parquet(str(tmp_path / "documents.parquet"))
        out = tile_stats(run_flagship(docs, key_col="doc_id", lang_col="lang"))
        assert out["n_docs"].sum() == docs.count()
    else:
        res = q.QUERIES[name](str(tmp_path))
        assert len(res.to_pandas() if hasattr(res, "to_pandas") else res) > 0


# the group_apply and per-block top-n queries and the tables they read
GROUPED = {
    "events_joins": "events", "sampling": "documents",
    "inverted_index": "documents", "token_quantiles": "documents",
    "embed_neardup": "embeddings", "simhash_neardup": "documents",
    "dedup_clusters": "documents", "ngram_freq": "documents",
    "top_orders": "orders", "tfidf_top": "documents",
}


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_grouped_queries_exact_across_blocks(name, tmp_path, ray_session, sf_dir):
    """Each query on its table as 4 files equals its oracle: a block's
    kernel is exact whatever key runs it holds, and a per-block top-n
    merges exactly (``tfidf_top`` also counts the documents of every
    file). ``domain_stats`` reads the one-file pages fixture; its
    group_apply co-location rests on
    ``tests/test_dedup_cc.py::test_group_apply_colocates_every_key_run``."""
    table = GROUPED[name]
    _write(tmp_path, table, pq.read_table(f"{sf_dir}/{table}.parquet"), 4)
    assert _n_blocks(tmp_path, table) == 4
    want = _oracle(tmp_path, name)
    assert len(want) > 0
    got = q.QUERIES[name](str(tmp_path))
    _assert_same(got if isinstance(got, pd.DataFrame) else got.to_pandas(), want)

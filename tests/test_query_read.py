"""The query layer's parquet read (``queries._read_path``) reads what
``rd.read_parquet`` reads, on every layout a query may be given, with
one read task per top-level file, and plans no remote task while the
Dataset is built."""

import re

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from rayproj.pipelines import queries as q

QUERY_MIX = ("spatial_assign", "zonal_stats", "grid_shift", "tile_stats",
             "knn_anchors", "datum_hop_cs2cs", "events_sessions")


def _docs(sf_dir):
    return pq.read_table(f"{sf_dir}/documents.parquet")


def _shards(out, tbl, n):
    out.mkdir(parents=True, exist_ok=True)
    for i, rows in enumerate(np.array_split(np.arange(tbl.num_rows), n)):
        pq.write_table(tbl.take(rows), out / f"part-{i:03d}.parquet")


@pytest.fixture()
def layouts(sf_dir, tmp_path):
    """name -> (path, read tasks)."""
    docs = _docs(sf_dir)
    pq.write_table(docs, tmp_path / "groups.parquet",
                   row_group_size=-(-docs.num_rows // 3))
    flat = tmp_path / "flat"
    _shards(flat, docs, 3)
    _shards(flat / "_temporary", docs.slice(0, 40), 1)
    (flat / "_SUCCESS").write_text("")
    nested = tmp_path / "nested"
    _shards(nested, docs.slice(0, 300), 2)
    _shards(nested / "older", docs.slice(300), 1)
    return {"groups": (str(tmp_path / "groups.parquet"), 1), "flat": (str(flat), 3),
            "nested": (str(nested), 2)}


def _tasks(ds: rd.Dataset) -> int:
    ops = [line for line in ds.stats().splitlines() if line.startswith("Operator ")]
    assert len(ops) == 1 and ops[0].startswith("Operator 1 ReadParquet"), ops
    return int(re.search(r"(\d+) tasks executed", ops[0]).group(1))


@pytest.mark.parametrize("columns", [None, ["lang", "doc_id"]])
@pytest.mark.parametrize("layout", ["groups", "flat", "nested"])
def test_read_matches_read_parquet(layout, columns, layouts, ray_session):
    path, n_tasks = layouts[layout]
    assert pq.ParquetFile(layouts["groups"][0]).num_row_groups == 3
    ds = q._read_path(path, columns).materialize()
    got = ds.to_pandas()
    want = rd.read_parquet(path, columns=columns).to_pandas()
    assert list(got.columns) == list(want.columns)
    assert got.dtypes.equals(want.dtypes)
    key = list(want.columns)
    assert len(got) == len(want) > 0
    assert got.sort_values(key, ignore_index=True).equals(
        want.sort_values(key, ignore_index=True))
    assert _tasks(ds) == n_tasks


def test_hive_directory_raises(sf_dir, tmp_path, ray_session):
    """Ray Data adds a ``src`` column for ``src=a/`` directories; this
    read adds none, so it refuses the layout instead of dropping it."""
    docs = _docs(sf_dir)
    _shards(tmp_path / "hive" / "src=a", docs.slice(0, 200), 1)
    _shards(tmp_path / "hive" / "src=b", docs.slice(200), 1)
    assert "src" in rd.read_parquet(str(tmp_path / "hive")).schema().names
    with pytest.raises(ValueError, match="hive-partitioned"):
        q._read_path(str(tmp_path / "hive"))


@pytest.mark.parametrize("columns", [None, ["n_chars", "lang"]])
def test_zero_row_file_keeps_its_schema(columns, sf_dir, tmp_path, ray_session):
    path = str(tmp_path / "empty.parquet")
    pq.write_table(_docs(sf_dir).slice(0, 0), path)
    got = q._read_path(path, columns)
    want = rd.read_parquet(path, columns=columns)
    assert got.schema().names == want.schema().names
    assert got.schema().types == want.schema().types
    assert got.count() == 0


def test_reads_plan_nothing_remote(sf_dir, tmp_path, ray_session, monkeypatch):
    """No query of ``query_mix`` and no sharded read pays Ray Data's
    per-read sampling task."""
    from ray.data._internal.datasource import parquet_datasource

    def sample(*args, **kwargs):
        raise AssertionError("a read sampled its files in a remote task")

    monkeypatch.setattr(parquet_datasource, "sample_fragments", sample)
    for name in QUERY_MIX:
        result = q.QUERIES[name](sf_dir)
        if isinstance(result, rd.Dataset):
            result.materialize()
    _shards(tmp_path / "sharded", _docs(sf_dir), 4)
    assert q._read_path(str(tmp_path / "sharded"), ["doc_id"]).count() == \
        _docs(sf_dir).num_rows

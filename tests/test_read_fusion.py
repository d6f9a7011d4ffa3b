"""The query layer reads each input file with one task fused with its
kernel map: every query of perfbench's ``query_mix`` runs exactly one
Ray Data execution whose plan is a single ``ReadParquet->MapBatches``
operator, and a directory of files reads with one fused task per file.
The multimodal queries chain their stage maps into that one operator.
Left to its default, Ray Data splits the read of a table with fewer
files than twice the CPUs (``ReadParquet->SplitBlocks(k)``), and a
split read never fuses. No execution of any query reads the same
table twice."""

import re

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from rayproj.pipelines import queries as q

QUERY_MIX = ("spatial_assign", "zonal_stats", "grid_shift", "tile_stats",
             "knn_anchors", "datum_hop_cs2cs", "events_sessions")
FUSED = re.compile(r"ReadParquet->MapBatches\(\w+\)")


def _record_plans(monkeypatch, reads=None) -> list:
    """Each streaming execution's operator names, every input before
    the operator it feeds (so a chain reads first). When ``reads`` is a
    list, each execution also appends to it the tables its read
    operators read, one tuple of files per read."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    plans = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        ops, seen = [], set()

        def visit(op):
            if id(op) not in seen:
                seen.add(id(op))
                for dep in op.input_dependencies:
                    visit(dep)
                ops.append(op)

        visit(dag)
        plans.append([op.name for op in ops])
        if reads is not None:  # the read's input buffer carries its Read op too
            reads.append([tuple(logical._datasource._files) for op in ops
                          if op.input_dependencies for logical in op._logical_operators
                          if type(logical).__name__ == "Read"])
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    return plans


def _operators(ds: rd.Dataset) -> list[str]:
    return [line for line in ds.stats().splitlines() if line.startswith("Operator ")]


def _identity_map(ds: rd.Dataset) -> rd.Dataset:
    def identity(batch):  # local, so workers unpickle it by value
        return batch

    return ds.map_batches(identity).materialize()


@pytest.mark.parametrize("name", QUERY_MIX)
def test_query_runs_one_fused_read_map(name, ray_session, sf_dir, monkeypatch):
    plans = _record_plans(monkeypatch)
    result = q.QUERIES[name](sf_dir)
    if isinstance(result, rd.Dataset):
        result.to_pandas()
        ops = _operators(result)
        assert len(ops) == 1 and FUSED.search(ops[0]), ops
        assert " 1 tasks executed" in ops[0], ops
    assert len(plans) == 1, plans
    assert len(plans[0]) == 2 and FUSED.fullmatch(plans[0][1]), plans


@pytest.mark.parametrize("name", ["multimodal_doc", "multimodal_video"])
def test_multimodal_stages_fuse_with_the_read(name, ray_session, sf_dir, tmp_path,
                                              monkeypatch):
    """The multimodal stages are task maps: the whole chain runs as one
    execution of one ``ReadParquet->...`` operator, one task per input
    file, and no actor-pool operator is planned. An actor-pool stage
    would be an operator of its own, or take the fused read into one."""
    from ray.data._internal.execution.operators.actor_pool_map_operator import (
        ActorPoolMapOperator)

    def actor_pool(*args, **kwargs):
        raise AssertionError("an actor-pool operator was planned")

    monkeypatch.setattr(ActorPoolMapOperator, "__init__", actor_pool)
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    (tmp_path / "documents.parquet").mkdir()
    for i, rows in enumerate(np.array_split(np.arange(docs.num_rows), 3)):
        pq.write_table(docs.take(rows), tmp_path / "documents.parquet" / f"part-{i}.parquet")
    plans = _record_plans(monkeypatch)
    result = q.QUERIES[name](str(tmp_path))
    result.to_pandas()
    ops = _operators(result)
    assert len(ops) == 1 and ops[0].startswith("Operator 1 ReadParquet->"), ops
    assert " 3 tasks executed" in ops[0], ops
    assert len(plans) == 1 and len(plans[0]) == 2, plans


@pytest.mark.parametrize("n_files", [2, 6])
def test_sharded_table_reads_one_fused_task_per_file(n_files, ray_session, sf_dir,
                                                     tmp_path, monkeypatch):
    """A directory: one fused task per top-level shard file. A file Ray
    Data reads but the count leaves out (in a subdirectory) only joins a
    task; skipped names (``_SUCCESS``, ``_temporary/``) change nothing."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    out = tmp_path / "documents.parquet"
    (out / "_temporary").mkdir(parents=True)
    (out / "nested").mkdir()
    parts = np.array_split(np.arange(docs.num_rows), n_files + 2)
    for i, rows in enumerate(parts[:n_files]):
        pq.write_table(docs.take(rows), out / f"part-{i:03d}.parquet")
    pq.write_table(docs.take(parts[-2]), out / "_temporary" / "part-tmp.parquet")
    pq.write_table(docs.take(parts[-1]), out / "nested" / "part-nested.parquet")
    (out / "_SUCCESS").write_text("")

    ds = _identity_map(q._read(str(tmp_path), "documents"))
    ops = _operators(ds)
    assert len(ops) == 1 and "ReadParquet->MapBatches(identity)" in ops[0], ops
    assert f" {n_files} tasks executed" in ops[0], ops

    plans = _record_plans(monkeypatch)
    q.QUERIES["tile_stats"](str(tmp_path))
    assert len(plans) == 1 and FUSED.fullmatch(plans[0][1]), plans



def test_kmeans_embed_runs_one_execution_per_pass(ray_session, sf_dir, monkeypatch):
    """The seed centroids are read on the driver, so ``kmeans_embed``
    runs one fused execution per Lloyd iteration and one for the final
    assignment, and none to find its seeds."""
    plans = _record_plans(monkeypatch)
    q.QUERIES["kmeans_embed"](sf_dir).to_pandas()
    assert len(plans) == 3, plans
    assert all(len(p) == 2 and FUSED.fullmatch(p[1]) for p in plans), plans


@pytest.mark.parametrize("name", sorted(q.QUERIES))
def test_no_execution_reads_a_table_twice(name, ray_session, sf_dir, monkeypatch):
    """A query's members share one read of each table they use: no Ray
    Data execution plans two reads of the same files. A family whose
    members stay separate pipelines joined by ``Dataset.union`` reads
    its table once per member."""
    reads = []
    _record_plans(monkeypatch, reads)
    result = q.QUERIES[name](sf_dir)
    if isinstance(result, rd.Dataset):
        result.to_pandas()
    assert reads, "no execution ran"
    for tables in reads:
        assert len(tables) == len(set(tables)), tables

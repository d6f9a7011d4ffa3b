"""Checkpoint-resume + per-partition lineage + the byte-identity
invariant (north rule: byte-identical extracted text per url/doc)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from rayproj.core.resources import publish
from rayproj.pipelines.lineage import (LineageWriter, checkpointed_flagship,
                                       partitions, read_plan)

SRC = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "flagship_out")


def test_checkpoint_run_resume_and_byte_identity(ray_session, out_dir):
    recs, skipped = checkpointed_flagship(SRC, out_dir, n_partitions=4)
    assert len(recs) == 4 and skipped == []
    assert sum(r["metrics"]["rows"] for r in recs) == 500
    for r in recs:
        assert "seconds" in r["metrics"] and r["digest"]

    # full re-run: everything skips
    recs2, skipped2 = checkpointed_flagship(SRC, out_dir, n_partitions=4)
    assert recs2 == [] and skipped2 == [0, 1, 2, 3]

    # invalidate one partition -> only that one recomputes
    os.remove(os.path.join(out_dir, "_lineage", "part=2.json"))
    recs3, skipped3 = checkpointed_flagship(SRC, out_dir, n_partitions=4)
    assert [r["part"] for r in recs3] == [2]
    assert skipped3 == [0, 1, 3]

    # byte-identity: text column of the concatenated output == input
    src = pq.read_table(SRC, columns=["doc_id", "text"]).sort_by("doc_id")
    parts = []
    for p in range(4):
        parts.append(pq.read_table(os.path.join(out_dir, f"part={p}", "data.parquet"),
                                   columns=["doc_id", "text"]))
    import pyarrow as pa

    got = pa.concat_tables(parts).sort_by("doc_id")
    assert got.column("doc_id").equals(src.column("doc_id"))
    assert got.column("text").equals(src.column("text"))  # byte-identical

    # lineage records carry version + input signature
    rec = json.load(open(os.path.join(out_dir, "_lineage", "part=0.json")))
    assert rec["pipeline_version"] == "1" and rec["input_sig"].startswith("documents.parquet")


def test_version_bump_invalidates(ray_session, out_dir):
    checkpointed_flagship(SRC, out_dir, n_partitions=2)
    recs, skipped = checkpointed_flagship(SRC, out_dir, n_partitions=2,
                                          pipeline_version="2")
    assert [r["part"] for r in recs] == [0, 1] and skipped == []


def test_multifile_directory_input(ray_session, tmp_path):
    """Directory input: one partition per shard file (names starting
    with ``_`` or ``.`` are not shards, as the query layer's reads count
    them); resume skips all."""
    import pyarrow.parquet as pq

    src_dir = tmp_path / "shards"
    src_dir.mkdir()
    tbl = pq.read_table(SRC)
    for i in range(3):
        pq.write_table(tbl.slice(i * 100, 100), str(src_dir / f"s{i}.parquet"))
    pq.write_table(tbl.slice(0, 10), str(src_dir / "_partial.parquet"))
    pq.write_table(tbl.slice(0, 10), str(src_dir / ".s0.parquet"))
    (src_dir / "_SUCCESS").write_text("")
    out = str(tmp_path / "out")
    recs, skipped = checkpointed_flagship(str(src_dir), out, key_col="doc_id")
    assert len(recs) == 3 and not skipped
    assert sum(r["metrics"]["rows"] for r in recs) == 300
    recs2, skipped2 = checkpointed_flagship(str(src_dir), out, key_col="doc_id")
    assert not recs2 and len(skipped2) == 3


def _tree_bytes(root):
    """{relative path: bytes} of every file under root except lineage."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if not rel.startswith("_lineage"):
                with open(path, "rb") as f:
                    out[rel] = f.read()
    return out


def test_crash_between_rename_and_record_recomputes_part(ray_session, tmp_path):
    """A crash after ``part=1/`` was renamed into place but before its
    lineage record was written, with a stale ``part=1.tmp/`` left by a
    retried attempt: the re-run recomputes exactly part 1 and the
    output is byte-identical to an uninterrupted run."""
    clean = str(tmp_path / "clean")
    checkpointed_flagship(SRC, clean, n_partitions=3)

    crashed = str(tmp_path / "crashed")
    checkpointed_flagship(SRC, crashed, n_partitions=3)
    os.remove(os.path.join(crashed, "_lineage", "part=1.json"))
    stale = os.path.join(crashed, "part=1.tmp")
    os.makedirs(stale)
    with open(os.path.join(stale, "half-written.parquet"), "wb") as f:
        f.write(b"junk")

    recs, skipped = checkpointed_flagship(SRC, crashed, n_partitions=3)
    assert [r["part"] for r in recs] == [1] and skipped == [0, 2]
    assert not os.path.exists(stale)
    assert _tree_bytes(crashed) == _tree_bytes(clean)
    rec = json.load(open(os.path.join(crashed, "_lineage", "part=1.json")))
    ref = json.load(open(os.path.join(clean, "_lineage", "part=1.json")))
    assert rec["digest"] == ref["digest"]


def test_corrupt_same_size_part_is_recomputed(ray_session, tmp_path):
    """A flipped byte in a committed part leaves its size unchanged; the
    content digest catches it and the resume recomputes exactly that
    part, back to the bytes of a clean run."""
    clean = str(tmp_path / "clean")
    checkpointed_flagship(SRC, clean, n_partitions=3)

    out = str(tmp_path / "out")
    checkpointed_flagship(SRC, out, n_partitions=3)
    data = os.path.join(out, "part=1", "data.parquet")
    size = os.path.getsize(data)
    with open(data, "r+b") as f:
        f.seek(size // 2)
        byte = f.read(1)
        f.seek(size // 2)
        f.write(bytes([byte[0] ^ 0xFF]))
    assert os.path.getsize(data) == size

    recs, skipped = checkpointed_flagship(SRC, out, n_partitions=3)
    assert [r["part"] for r in recs] == [1] and skipped == [0, 2]
    assert _tree_bytes(out) == _tree_bytes(clean)


def test_interrupted_run_resumes_uncommitted_parts(ray_session, tmp_path, monkeypatch):
    """The driver stops at the second commit: one part is committed, the
    others are staged or not started. The resume recomputes exactly the
    uncommitted parts and the tree matches an uninterrupted run."""
    clean = str(tmp_path / "clean")
    checkpointed_flagship(SRC, clean, n_partitions=4)

    commit = LineageWriter.commit
    calls = []

    def commit_once(self, *args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("driver stopped")
        return commit(self, *args, **kwargs)

    monkeypatch.setattr(LineageWriter, "commit", commit_once)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="driver stopped"):
        checkpointed_flagship(SRC, out, n_partitions=4)
    monkeypatch.setattr(LineageWriter, "commit", commit)
    assert sorted(os.listdir(os.path.join(out, "_lineage"))) == ["part=0.json"]

    recs, skipped = checkpointed_flagship(SRC, out, n_partitions=4)
    assert [r["part"] for r in recs] == [1, 2, 3] and skipped == [0]
    assert _tree_bytes(out) == _tree_bytes(clean)


def _write_docs(path, tbl, **kwargs):
    pq.write_table(tbl, str(path), **kwargs)
    return str(path)


@pytest.fixture()
def plan_inputs(tmp_path):
    """name -> (input path, n_partitions) for the read-plan cases."""
    tbl = pq.read_table(SRC)
    shards = tmp_path / "shards"
    shards.mkdir()
    for i, (lo, n) in enumerate([(0, 100), (100, 250), (350, 150)]):
        _write_docs(shards / f"s{i}.parquet", tbl.slice(lo, n), row_group_size=64)
    return {
        "one_group": (SRC, 4),
        "groups_of_64": (_write_docs(tmp_path / "g64.parquet", tbl, row_group_size=64), 3),
        "directory": (str(shards), 0),
        "zero_rows": (_write_docs(tmp_path / "empty.parquet", tbl.slice(0, 0)), 4),
        "600_parts": (SRC, 600),
    }


@pytest.mark.parametrize("case", ["one_group", "groups_of_64", "directory",
                                  "zero_rows", "600_parts"])
@pytest.mark.parametrize("which", ["all", "odd"])
def test_read_plan(plan_inputs, case, which):
    """Every planned (file, row group) is read once, the planned slices
    cover exactly the pending rows, and the planned compressed bytes
    stay within 1.2x the input files — for a full run and a resume of
    the odd parts."""
    path, n = plan_inputs[case]
    metas, shards = partitions(path, n)
    parts = shards if which == "all" else shards[1::2]
    reads, spans = read_plan(parts, metas)

    assert len({(f, g) for f, g, _ in reads}) == len(reads)
    starts = {}
    for f, meta in metas.items():
        sizes = [meta.row_group(g).num_rows for g in range(meta.num_row_groups)]
        starts[f] = [sum(sizes[:g]) for g in range(len(sizes))]
    for (f, lo, hi), part_spans in zip(parts, spans):
        rows = []
        for r, off, length in part_spans:
            rf, g, _ = reads[r]
            assert rf == f and length > 0
            assert off + length <= metas[f].row_group(g).num_rows
            rows.extend(range(starts[f][g] + off, starts[f][g] + off + length))
        assert rows == list(range(lo, hi))
    used = {r for part_spans in spans for r, _, _ in part_spans}
    assert used == set(range(len(reads)))
    planned = sum(b for _, _, b in reads)
    assert planned <= 1.2 * sum(os.path.getsize(f) for f in metas)


def test_lineage_reads_by_row_group():
    """lineage.py has one parquet read, a row-group read: no whole-file
    ``read_table``."""
    import ast

    import rayproj.pipelines.lineage as lineage

    with open(lineage.__file__) as f:
        tree = ast.parse(f.read())
    calls = [n.func.attr for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr.startswith("read_") and n.func.attr != "read_metadata"]
    assert calls == ["read_row_group"]


def test_zero_row_and_overpartitioned_inputs(ray_session, tmp_path):
    """A zero-row file gives empty parts, 600 parts over 500 rows give
    100 empty ones; both resume with every part skipped."""
    empty = _write_docs(tmp_path / "empty.parquet", pq.read_table(SRC).slice(0, 0))
    out = str(tmp_path / "empty_out")
    recs, skipped = checkpointed_flagship(empty, out, n_partitions=4)
    assert [r["metrics"]["rows"] for r in recs] == [0] * 4 and not skipped
    assert sum(r["metrics"]["input_bytes"] for r in recs) == 0
    assert pq.read_table(os.path.join(out, "part=3")).num_rows == 0
    assert checkpointed_flagship(empty, out, n_partitions=4) == ([], [0, 1, 2, 3])

    out = str(tmp_path / "many_out")
    recs, skipped = checkpointed_flagship(SRC, out, n_partitions=600)
    rows = [r["metrics"]["rows"] for r in recs]
    assert len(rows) == 600 and sum(rows) == 500 and rows.count(0) == 100
    assert sum(r["metrics"]["input_bytes"] for r in recs) <= 1.2 * os.path.getsize(SRC)
    assert checkpointed_flagship(SRC, out, n_partitions=600) == ([], list(range(600)))


def test_multi_row_group_input_matches_single_group(ray_session, tmp_path):
    """Parts that straddle 64-row groups produce the same tables as the
    same parts of a one-group file, and read the file once."""
    g64 = _write_docs(tmp_path / "g64.parquet", pq.read_table(SRC), row_group_size=64)
    one, many = str(tmp_path / "one"), str(tmp_path / "many")
    checkpointed_flagship(SRC, one, n_partitions=3)
    recs, _ = checkpointed_flagship(g64, many, n_partitions=3)
    assert sum(r["metrics"]["input_bytes"] for r in recs) <= 1.2 * os.path.getsize(g64)
    for p in range(3):
        want = pq.read_table(os.path.join(one, f"part={p}"))
        got = pq.read_table(os.path.join(many, f"part={p}"))
        assert got.num_rows > 0 and got.equals(want)


def test_directory_with_nested_files_is_refused(ray_session, tmp_path):
    """A reader of a directory reads its subdirectories too; a job that
    partitions only the top-level files would commit 50 of the 150 rows
    and report success. It raises instead, naming the left-out file, and
    writes nothing."""
    tbl = pq.read_table(SRC)
    src = tmp_path / "docs"
    (src / "lang=en").mkdir(parents=True)
    _write_docs(src / "part-1.parquet", tbl.slice(0, 50))
    _write_docs(src / "lang=en" / "part-0.parquet", tbl.slice(50, 100))
    with pytest.raises(ValueError, match=r"lang=en/part-0\.parquet"):
        partitions(str(src), 0)
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match=r"lang=en/part-0\.parquet"):
        checkpointed_flagship(str(src), out)
    assert not os.path.exists(out)


def test_publish_replaces_target_in_one_rename(tmp_path):
    """``publish`` writes beside its target and renames into place: a
    ``write`` that raises leaves the target as it was and no temp file
    in the directory; one that returns replaces it, with the mode a
    plain ``open`` gives."""
    target = tmp_path / "part=0.json"
    target.write_text("old")

    def write(text):
        def fn(tmp):
            with open(tmp, "w") as f:
                f.write(text)
            if text == "half":
                raise RuntimeError("write failed")

        return fn

    with pytest.raises(RuntimeError, match="write failed"):
        publish(str(target), write("half"))
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["part=0.json"]

    publish(str(target), write("new"))
    assert target.read_text() == "new"
    assert os.listdir(tmp_path) == ["part=0.json"]
    plain = tmp_path / "plain"
    plain.write_text("")
    assert target.stat().st_mode == plain.stat().st_mode  # the umask's mode

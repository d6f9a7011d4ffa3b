"""Checkpoint-resume + per-partition lineage + the byte-identity
invariant (north rule: byte-identical extracted text per url/doc)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from rayproj.pipelines.lineage import checkpointed_flagship

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

"""The `ray job submit` entrypoint: run, resume (all parts skipped),
and invalidation-free byte-stable output."""

import json
import os
import sys

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_job_run_and_resume(ray_session, tmp_path, capsys):
    from rayproj.job import main

    inp = "/root/testdata/sf0.001/documents.parquet"
    out = str(tmp_path / "out")
    assert main(["--input", inp, "--output", out, "--partitions", "4"]) == 0
    rep1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep1["computed_parts"] == 4 and rep1["skipped_parts"] == 0
    total = sum(
        pq.read_table(os.path.join(out, f"part={p}", "data.parquet")).num_rows
        for p in range(4)
    )
    assert total == rep1["rows_written"] > 0
    # one-row-group input: read once for all 4 parts
    assert 0 < rep1["input_bytes_read"] <= os.path.getsize(inp)

    # resume: everything is already checkpointed
    assert main(["--input", inp, "--output", out, "--partitions", "4"]) == 0
    rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep2["computed_parts"] == 0 and rep2["skipped_parts"] == 4
    assert rep2["input_bytes_read"] == 0

    # --no-resume forces recompute
    assert main(["--input", inp, "--output", out, "--partitions", "4",
                 "--no-resume"]) == 0
    rep3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep3["computed_parts"] == 4

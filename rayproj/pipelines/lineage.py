"""Per-partition lineage records + checkpoint-resume output layout.

North-rule ops design (SURVEY.md §4): output is partitioned
``out/part={i}/`` directories, each written atomically (tmp dir +
rename) together with a ``_lineage/part={i}.json`` record holding the
input shard, row count, op versions and a content digest. A re-run
skips partitions whose lineage record exists and validates — that is
what "resumable from checkpoint" means for a batch pipeline.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


class LineageWriter:
    def __init__(self, out_dir: str, pipeline_version: str = "1"):
        self.out_dir = out_dir
        self.lineage_dir = os.path.join(out_dir, "_lineage")
        self.pipeline_version = pipeline_version
        os.makedirs(self.lineage_dir, exist_ok=True)

    def part_dir(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part={part}")

    def record_path(self, part: int) -> str:
        return os.path.join(self.lineage_dir, f"part={part}.json")

    def is_complete(self, part: int, input_sig: str) -> bool:
        """True if this partition was already produced from the same
        input signature and pipeline version."""
        path = self.record_path(part)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as f:
                rec = json.load(f)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            rec.get("input_sig") == input_sig
            and rec.get("pipeline_version") == self.pipeline_version
            and os.path.isdir(self.part_dir(part))
        )

    def stage_dir(self, part: int) -> str:
        """A fresh, empty ``part={part}.tmp`` directory for the
        partition's files; a stale one from a crashed run is dropped."""
        tmp = self.part_dir(part) + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        return tmp

    def commit(self, part: int, input_sig: str, metrics: dict) -> dict:
        """Atomically publish the partition staged by ``stage_dir``: the
        directory is renamed into place (replacing any uncommitted
        leftover), then the lineage record is written last — the
        commit point ``is_complete`` checks."""
        final = self.part_dir(part)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(final + ".tmp", final)
        rec = {
            "part": part,
            "input_sig": input_sig,
            "pipeline_version": self.pipeline_version,
            "completed_at": time.time(),
            "digest": _dir_digest(final),
            "metrics": metrics,
        }
        tmp_rec = self.record_path(part) + ".tmp"
        with open(tmp_rec, "w") as f:
            json.dump(rec, f)
        os.replace(tmp_rec, self.record_path(part))
        return rec


def _dir_digest(path: str) -> str:
    h = hashlib.md5()
    for name in sorted(os.listdir(path)):
        fp = os.path.join(path, name)
        h.update(name.encode())
        h.update(str(os.path.getsize(fp)).encode())
    return h.hexdigest()


def _input_signature(path: str, lo: int, hi: int) -> str:
    st = os.stat(path)
    return f"{os.path.basename(path)}:{st.st_size}:{lo}:{hi}"


def parquet_shards(path: str) -> list[str]:
    """The input files of a parquet table, one partition each: ``path``
    itself when it is a file; for a directory, its top-level ``.parquet``
    files, sorted, skipping names that start with ``_`` or ``.`` (the
    prefixes pyarrow and Ray Data skip). Files in subdirectories are not
    counted, so this never lists more files than a reader of ``path``
    reads."""
    if not os.path.isdir(path):
        return [path]
    return sorted(
        os.path.join(path, f)
        for f in os.listdir(path)
        if f.endswith(".parquet") and not f.startswith(("_", "."))
    )


def checkpointed_flagship(parquet_path: str, out_dir: str, n_partitions: int = 8,
                          key_col: str = "doc_id", lang_col: str = "lang",
                          pipeline_version: str = "1", **stage_kwargs):
    """Checkpoint-resumable flagship run: the input is split into
    deterministic partitions (row ranges here; file/row-group lists in
    a multi-file deployment), each processed by a Ray task and written
    atomically with a lineage record. A re-run SKIPS partitions whose
    record matches the input signature + pipeline version — only
    missing/invalidated partitions are recomputed.

    Returns (records, skipped_parts). ``text``/payload columns ride
    through the stage untouched (byte-identity invariant).
    """
    import ray
    import pyarrow.parquet as pq

    from .flagship import cached_stage

    if os.path.isdir(parquet_path):
        # multi-file deployment shape: one partition per input file —
        # the natural unit at 100 TB (a shard list from the catalog),
        # so resume granularity matches the storage layout
        shards = [(f, 0, pq.ParquetFile(f).metadata.num_rows)
                  for f in parquet_shards(parquet_path)]
        n_partitions = len(shards)
    else:
        n_rows = pq.ParquetFile(parquet_path).metadata.num_rows
        bounds = [
            int(round(i * n_rows / n_partitions)) for i in range(n_partitions + 1)
        ]
        shards = [
            (parquet_path, bounds[p], bounds[p + 1]) for p in range(n_partitions)
        ]
    writer = LineageWriter(out_dir, pipeline_version)

    key = tuple(sorted({"key_col": key_col, "lang_col": lang_col,
                        **stage_kwargs}.items()))

    @ray.remote
    def _process(path: str, lo: int, hi: int, tmp_dir: str) -> dict:
        t0 = time.time()
        tbl = pq.read_table(path).slice(lo, hi - lo)
        out = cached_stage(key)(tbl)
        pq.write_table(out, os.path.join(tmp_dir, "data.parquet"))
        return {"rows": out.num_rows, "seconds": round(time.time() - t0, 3)}

    pending = []
    skipped = []
    for p in range(n_partitions):
        path, lo, hi = shards[p]
        sig = _input_signature(path, lo, hi)
        if writer.is_complete(p, sig):
            skipped.append(p)
            continue
        tmp = writer.stage_dir(p)
        pending.append((p, sig, _process.remote(path, lo, hi, tmp)))

    records = [writer.commit(p, sig, ray.get(fut)) for p, sig, fut in pending]
    return records, skipped

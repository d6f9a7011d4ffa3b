"""Per-partition lineage records + checkpoint-resume output layout.

North-rule ops design (SURVEY.md §4): output is partitioned
``out/part={i}/`` directories, each written atomically (tmp dir +
rename) together with a ``_lineage/part={i}.json`` record holding the
input shard, row count, op versions and a sha256 digest of the
partition's file bytes. A re-run skips partitions whose lineage record
exists and whose directory still hashes to that digest — that is what
"resumable from checkpoint" means for a batch pipeline.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import shutil
import time
from collections import deque
from itertools import accumulate

from ..core.resources import publish


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
        input signature and pipeline version, and its files still hash
        to the recorded digest."""
        try:
            with open(self.record_path(part)) as f:
                rec = json.load(f)
            return (
                rec.get("input_sig") == input_sig
                and rec.get("pipeline_version") == self.pipeline_version
                and rec.get("digest") == _dir_digest(self.part_dir(part))
            )
        except (OSError, json.JSONDecodeError):
            return False

    def stage_dir(self, part: int) -> str:
        """A fresh, empty ``part={part}.tmp`` directory for the
        partition's files; a stale one from a crashed run is dropped."""
        tmp = self.part_dir(part) + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        return tmp

    def commit(self, part: int, input_sig: str, digest: str, metrics: dict) -> dict:
        """Atomically publish the partition staged by ``stage_dir``: the
        directory is renamed into place (replacing any uncommitted
        leftover), then the lineage record is written last — the
        commit point ``is_complete`` checks. ``digest`` is
        ``_dir_digest`` of the staged directory, taken by the task that
        wrote it."""
        final = self.part_dir(part)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(final + ".tmp", final)
        rec = {
            "part": part,
            "input_sig": input_sig,
            "pipeline_version": self.pipeline_version,
            "completed_at": time.time(),
            "digest": digest,
            "metrics": metrics,
        }

        def write(tmp: str) -> None:
            with open(tmp, "w") as f:
                json.dump(rec, f)

        publish(self.record_path(part), write)
        return rec


def _dir_digest(path: str) -> str:
    """sha256 over each file's name and the sha256 of its bytes, in
    name order: a flipped byte changes it, not only a changed size."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            h.update(name.encode() + b"\0" + hashlib.sha256(f.read()).digest())
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


def partitions(parquet_path: str, n_partitions: int) -> tuple[dict, list]:
    """``(metas, shards)`` for ``checkpointed_flagship``: the parquet
    metadata of each input file, and the partitions as ``(file, lo,
    hi)`` row ranges — ``n_partitions`` even ranges of a single file,
    or one partition per file of a directory (``n_partitions`` is
    ignored then): the natural unit at 100 TB (a shard list from the
    catalog), so resume granularity matches the storage layout.

    A directory holding a file that a reader of it reads but the
    partitions leave out (in a subdirectory, or without the ``.parquet``
    suffix) raises ``ValueError`` naming those files: a run over it
    would commit part of the input and report success."""
    import pyarrow.parquet as pq

    metas = {f: pq.read_metadata(f) for f in parquet_shards(parquet_path)}
    if os.path.isdir(parquet_path):
        read = pq.ParquetDataset(parquet_path, partitioning=None).files
        left_out = sorted(set(map(os.path.normpath, read)) - set(map(os.path.normpath, metas)))
        if left_out:
            raise ValueError(f"{parquet_path}: the partitions would skip {left_out}; "
                             "only top-level .parquet files are partitioned")
        return metas, [(f, 0, m.num_rows) for f, m in metas.items()]
    n_rows = metas[parquet_path].num_rows
    bounds = [int(round(i * n_rows / n_partitions)) for i in range(n_partitions + 1)]
    return metas, [(parquet_path, bounds[p], bounds[p + 1]) for p in range(n_partitions)]


def read_plan(parts: list[tuple[str, int, int]], metas: dict) -> tuple[list, list]:
    """The row-group reads that cover ``parts``, each read once.

    ``parts`` are ``(file, lo, hi)`` row ranges; ``metas`` maps each file
    to its ``pyarrow.parquet.FileMetaData``. Returns ``(reads, spans)``:
    ``reads`` lists every ``(file, row group, compressed bytes)`` that
    holds a row of some part, in the order the parts first need them;
    ``spans[i]`` lists part ``i``'s ``(read index, offset, length)``
    slices, in row order. An empty range reads nothing, so zero-row
    groups and files are never read.
    """
    bounds = {}
    reads, index, spans = [], {}, []
    for path, lo, hi in parts:
        if path not in bounds:
            meta = metas[path]
            bounds[path] = [0, *accumulate(meta.row_group(g).num_rows
                                           for g in range(meta.num_row_groups))]
        b = bounds[path]
        part_spans = []
        g = max(bisect.bisect_right(b, lo) - 1, 0)
        while g < len(b) - 1 and b[g] < hi:
            start, stop = max(lo, b[g]), min(hi, b[g + 1])
            if start < stop:
                if (path, g) not in index:
                    rg = metas[path].row_group(g)
                    index[path, g] = len(reads)
                    reads.append((path, g, sum(rg.column(c).total_compressed_size
                                               for c in range(rg.num_columns))))
                part_spans.append((index[path, g], start - b[g], stop - start))
            g += 1
        spans.append(part_spans)
    return reads, spans


def checkpointed_flagship(parquet_path: str, out_dir: str, n_partitions: int = 8,
                          key_col: str = "doc_id", lang_col: str = "lang",
                          pipeline_version: str = "1", **stage_kwargs):
    """Checkpoint-resumable flagship run: the input is split into
    deterministic partitions (row ranges of one file, or one partition
    per file of a directory), each processed by a Ray task and written
    atomically with a lineage record. A re-run SKIPS partitions whose
    record matches the input signature + pipeline version and whose
    files still hash to the recorded digest — only missing, invalidated
    or corrupted partitions are recomputed.

    Each input row group is read at most once per call: ``read_plan``
    lists the row groups that overlap a pending partition, one task
    reads each into the object store, and every partition task slices
    its rows out of the zero-copy views it is handed. At most twice the
    cluster's CPUs partitions are in flight, so the object store holds
    their row groups, not the whole input. Output parquet
    dictionary-encodes only ``lang_col``; the other columns are mostly
    unique values, where a dictionary costs time and saves no bytes.
    Each record's ``metrics`` hold ``rows``, ``seconds`` and
    ``input_bytes``: the compressed bytes of the row groups this call
    read first for that partition, so they sum to the call's reads.

    Returns (records, skipped_parts). ``text``/payload columns ride
    through the stage untouched (byte-identity invariant).
    """
    import ray
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .flagship import cached_stage

    metas, shards = partitions(parquet_path, n_partitions)
    writer = LineageWriter(out_dir, pipeline_version)

    key = tuple(sorted({"key_col": key_col, "lang_col": lang_col,
                        **stage_kwargs}.items()))

    @ray.remote
    def _read(path: str, group: int) -> pa.Table:
        return pq.ParquetFile(path).read_row_group(group)

    @ray.remote
    def _process(tmp_dir: str, schema: pa.Schema, spans: list, *groups) -> tuple:
        t0 = time.time()
        pieces = [t.slice(off, n) for t, (off, n) in zip(groups, spans)]
        tbl = pa.concat_tables(pieces) if pieces else schema.empty_table()
        out = cached_stage(key)(tbl)
        pq.write_table(out, os.path.join(tmp_dir, "data.parquet"),
                       use_dictionary=[lang_col])
        return _dir_digest(tmp_dir), {"rows": out.num_rows,
                                      "seconds": round(time.time() - t0, 3)}

    pending, skipped = [], []
    for p in range(len(shards)):
        sig = _input_signature(*shards[p])
        if writer.is_complete(p, sig):
            skipped.append(p)
        else:
            pending.append((p, sig))

    reads, spans = read_plan([shards[p] for p, _ in pending], metas)
    window = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    records, tasks, read_refs = [], deque(), {}

    def commit_oldest():
        p, sig, input_bytes, ref = tasks[0]
        digest, metrics = ray.get(ref)
        records.append(writer.commit(p, sig, digest,
                                     {**metrics, "input_bytes": input_bytes}))
        tasks.popleft()

    try:
        for (p, sig), part_spans in zip(pending, spans):
            new = [r for r, _, _ in part_spans if r not in read_refs]
            for r in new:
                read_refs[r] = _read.remote(*reads[r][:2])
            ref = _process.remote(
                writer.stage_dir(p), metas[shards[p][0]].schema.to_arrow_schema(),
                [(off, n) for _, off, n in part_spans],
                *(read_refs[r] for r, _, _ in part_spans))
            tasks.append((p, sig, sum(reads[r][2] for r in new), ref))
            if part_spans:
                # parts read forward: only this part's last group can be
                # shared with a later one
                read_refs = {r: x for r, x in read_refs.items() if r >= part_spans[-1][0]}
            if len(tasks) >= window:
                commit_oldest()
        while tasks:
            commit_oldest()
    except BaseException:
        # the driver stops here: end the tasks still writing into their
        # staging directories, as the driver's exit would, so that a
        # resume never races one of them
        refs = [ref for *_, ref in tasks]
        for ref in refs:
            ray.cancel(ref)
        if refs:
            ray.wait(refs, num_returns=len(refs))
        raise
    return records, skipped

"""The four workloads. Each one is a closed loop of timed jobs on the
shipped rayproj path, with a check of every job's output.

A workload's lifecycle, driven by ``run.py``:

1. ``make_inputs`` writes the seeded fixtures (not part of set-up time);
2. ``import_layers`` + ``warm_up`` run once per set-up sample, after
   ``ray.init``: the warm-up pushes one small block through the same
   path so worker processes, imports and per-worker caches exist;
3. ``prepare_checks`` computes the reference outputs, Ray-free;
4. ``run_job`` is the timed operation; ``check`` validates its output;
5. ``replay``/``job_layers``/``workload_layers`` give per-layer numbers
   in the traced run.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import fixtures
import layers


@dataclass
class Job:
    wall_s: float
    rows: int
    result: object = None
    ds: object = None  # the executed Dataset, for its stats
    parts: dict = field(default_factory=dict)


class _Capture:
    """Stands in for a Dataset passed to a library function that builds
    and executes a derived Dataset internally, so the benchmark can read
    that Dataset's stats afterwards."""

    def __init__(self, ds):
        self._ds = ds
        self.last = None

    def map_batches(self, *args, **kwargs):
        self.last = self._ds.map_batches(*args, **kwargs)
        return self.last


def _frame_mismatch(got, want) -> str | None:
    """The compare of tests/test_queries_oracle.py: sort columns by name, sort rows, then
    exact equality (floats within 1e-9)."""
    def norm(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    got, want = norm(got), norm(want)
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} != {list(want.columns)}"
    if len(got) != len(want):
        return f"{len(got)} rows != {len(want)}"
    for col in got.columns:
        a, b = got[col].to_numpy(), want[col].to_numpy()
        if a.dtype.kind in "fc" or b.dtype.kind in "fc":
            if not np.allclose(a.astype(np.float64), b.astype(np.float64),
                               rtol=0, atol=1e-9):
                return f"column {col} differs"
        elif (a.astype(str) != b.astype(str)).any():
            return f"column {col} differs"
    return None


def _chunks(table: pa.Table) -> list:
    """A table cut the way FlagshipStage cuts a block."""
    from rayproj.pipelines.flagship import FlagshipStage

    step = FlagshipStage.CHUNK
    return [table.slice(s, step) for s in range(0, table.num_rows, step)]


class Workload:
    name = ""
    n_polys = 60
    # what raydata.overhead_ns_per_pt, the residual, is made of
    residual_holds = ("Ray Data read, scheduling and per-block work outside "
                      "FlagshipStage, and the aggregate's driver-side merge")

    def __init__(self, work_dir: str, seed: int, scale: float):
        self.work = work_dir
        self.seed = seed
        self.scale = scale

    def rows(self, n: int) -> int:
        return max(64, int(n * self.scale))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def import_layers(self) -> None:
        import rayproj.pipelines.flagship  # noqa: F401

    def job_layers(self, job: Job) -> dict:
        return layers.dataset_layers(job.ds) if job.ds is not None else {}

    def workload_layers(self, jobs: list) -> dict:
        return {}

    def shares(self, out: dict, untraced: dict, traced_jobs: list, stats: list) -> dict:
        """Each layer's share of the untraced end-to-end cost per point:
        the replayed kernel layers, assembly, the timed groupby
        operators, and the residual, which it stores as
        raydata.overhead_ns_per_pt. On a 1-CPU cluster they add up to
        the end-to-end cost."""
        e2e = 1e9 / untraced["docs_per_s"]
        rows = statistics.median(j.rows for j in traced_jobs)
        agg = 1e9 * out.get("raydata.agg.wall_s", 0.0) / rows
        out["raydata.overhead_ns_per_pt"] = e2e - out["flagship.stage_ns_per_pt"] - agg
        parts = {k: out[k] for k in (*layers.KERNEL_LAYERS, "flagship.assembly_ns_per_pt",
                                     "raydata.overhead_ns_per_pt")}
        parts["raydata.agg"] = agg
        return {k: v / e2e for k, v in parts.items()}

    def query_shares(self, out: dict) -> dict:
        return {}


class _Flagship(Workload):
    """read_parquet → run_flagship → an aggregate, on (doc_id, lang)."""

    n_rows = 0

    def make_inputs(self) -> None:
        self.table = fixtures.pages(self.seed, self.rows(self.n_rows))
        pq.write_table(self.table, self.path("pages.parquet"))
        pq.write_table(self.table.slice(0, 4096), self.path("warm.parquet"))

    def warm_up(self) -> None:
        self._execute(self.path("warm.parquet"), trace=False)

    def prepare_checks(self) -> None:
        from rayproj.pipelines.flagship import FlagshipStage

        stage = FlagshipStage(key_col="doc_id", lang_col="lang", n_polys=self.n_polys)
        out = pa.concat_tables([stage(b) for b in _chunks(self.table)])
        keys, counts = np.unique(out.column(self.key).to_numpy(), return_counts=True)
        self.want = dict(zip(keys.tolist(), counts.tolist()))

    def run_job(self, trace: bool) -> Job:
        t0 = perf_counter()
        df, ds = self._execute(self.path("pages.parquet"), trace)
        return Job(perf_counter() - t0, self.table.num_rows, df, ds)

    def check(self, job: Job) -> str | None:
        df = job.result
        got = dict(zip(df[self.key].tolist(), df[self.count_col].tolist()))
        if sum(got.values()) != self.table.num_rows:
            return f"counts sum to {sum(got.values())}, not {self.table.num_rows}"
        return None if got == self.want else f"{self.key} counts differ from the Ray-free run"

    def replay(self, tracer) -> dict:
        return layers.replay_kernels(tracer, _chunks(self.table), self.n_polys)


class FlagshipTiles(_Flagship):
    name = "flagship_tiles"
    n_rows = 500_000
    key, count_col = "tile", "n_docs"

    def _execute(self, path: str, trace: bool):
        import ray.data as rd

        from rayproj.pipelines.flagship import run_flagship, tile_stats

        ds = run_flagship(rd.read_parquet(path), key_col="doc_id", lang_col="lang")
        if not trace:
            return tile_stats(ds), None
        cap = _Capture(ds)
        return tile_stats(cap), cap.last


class Pip10k(_Flagship):
    name = "pip_10k"
    n_rows = 25_000
    n_polys = 10_000
    key, count_col = "poly_id", "count()"

    def _execute(self, path: str, trace: bool):
        import ray.data as rd

        from rayproj.pipelines.flagship import run_flagship

        ds = run_flagship(rd.read_parquet(path), key_col="doc_id", lang_col="lang",
                          n_polys=self.n_polys).groupby("poly_id").count()
        return ds.to_pandas(), ds


def _dir_hash(out_dir: str, n_parts: int) -> str:
    """md5 over every committed partition's file bytes, in part order."""
    h = hashlib.md5()
    for p in range(n_parts):
        part = os.path.join(out_dir, f"part={p}")
        for name in sorted(os.listdir(part)):
            with open(os.path.join(part, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class CheckpointResume(Workload):
    """checkpointed_flagship as ``rayproj.job`` runs it (one input file,
    8 partitions, text carried), then half the lineage records are
    deleted and the run is resumed. One job is both runs."""

    name = "checkpoint_resume"
    n_rows = 200_000
    n_parts = 8
    residual_holds = ("Ray task overhead, the parquet read and write of each "
                      "partition, and the atomic commit with its lineage record")

    def make_inputs(self) -> None:
        self.table = fixtures.pages(self.seed, self.rows(self.n_rows), with_text=True)
        pq.write_table(self.table, self.path("input.parquet"))
        pq.write_table(self.table.slice(0, 2048), self.path("warm.parquet"))
        self.rng = np.random.default_rng([self.seed, 3])
        # each partition task runs pq.read_table(path) on the whole file,
        # so it reads every column chunk of every row group; this model
        # follows checkpointed_flagship's read and changes with it
        meta = pq.ParquetFile(self.path("input.parquet")).metadata
        self.task_read_bytes = sum(
            meta.row_group(g).column(c).total_compressed_size
            for g in range(meta.num_row_groups) for c in range(meta.num_columns))

    def _run(self, src: str, out_dir: str):
        from rayproj.pipelines.lineage import checkpointed_flagship

        return checkpointed_flagship(src, out_dir, n_partitions=self.n_parts,
                                     key_col="doc_id", lang_col="lang",
                                     pipeline_version="1")

    def warm_up(self) -> None:
        out = self.path("warm_out")
        shutil.rmtree(out, ignore_errors=True)
        self._run(self.path("warm.parquet"), out)

    def prepare_checks(self) -> None:
        order = np.argsort(self.table.column("doc_id").to_numpy())
        self.want_ids = self.table.column("doc_id").to_numpy()[order]
        self.want_text = self.table.column("text").take(pa.array(order))

    def run_job(self, trace: bool) -> Job:
        out = self.path("out")
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        records, _ = self._run(self.path("input.parquet"), out)
        full_s = perf_counter() - t0
        full_hash = _dir_hash(out, self.n_parts)
        output_bytes = sum(
            os.path.getsize(os.path.join(out, f"part={p}", f))
            for p in range(self.n_parts) for f in os.listdir(os.path.join(out, f"part={p}")))
        deleted = sorted(self.rng.permutation(self.n_parts)[: self.n_parts // 2].tolist())
        for p in deleted:
            os.remove(os.path.join(out, "_lineage", f"part={p}.json"))
        t1 = perf_counter()
        redone, skipped = self._run(self.path("input.parquet"), out)
        resume_s = perf_counter() - t1
        rows = sum(r["metrics"]["rows"] for r in records + redone)
        return Job(full_s + resume_s, rows, full_hash, parts={
            "full_s": full_s, "resume_s": resume_s,
            "part_s": [r["metrics"]["seconds"] for r in records],
            "input_bytes_read": len(records) * self.task_read_bytes,
            "output_bytes": output_bytes,
            "deleted": deleted, "redone": sorted(r["part"] for r in redone),
            "skipped": sorted(skipped)})

    def check(self, job: Job) -> str | None:
        parts = job.parts
        if parts["redone"] != parts["deleted"]:
            return f"resume redid parts {parts['redone']}, not the deleted {parts['deleted']}"
        if parts["skipped"] != sorted(set(range(self.n_parts)) - set(parts["deleted"])):
            return f"resume skipped parts {parts['skipped']}"
        out = self.path("out")
        if _dir_hash(out, self.n_parts) != job.result:
            return "resumed output hash differs from the uninterrupted run"
        got = pa.concat_tables(
            pq.read_table(os.path.join(out, f"part={p}"), columns=["doc_id", "text"])
            for p in range(self.n_parts))
        if got.num_rows != self.table.num_rows:
            return f"{got.num_rows} output rows for {self.table.num_rows} input rows"
        order = np.argsort(got.column("doc_id").to_numpy())
        if not np.array_equal(got.column("doc_id").to_numpy()[order], self.want_ids):
            return "output doc_ids differ from the input"
        if not got.column("text").take(pa.array(order)).equals(self.want_text):
            return "text is not byte-identical per doc_id"
        return None

    def replay(self, tracer) -> dict:
        n = self.table.num_rows
        bounds = [round(i * n / self.n_parts) for i in range(self.n_parts + 1)]
        blocks = []
        for lo, hi in zip(bounds, bounds[1:]):
            blocks.extend(_chunks(self.table.slice(lo, hi - lo)))
        return layers.replay_kernels(tracer, blocks, self.n_polys)

    def workload_layers(self, jobs: list) -> dict:
        def med(key):
            return statistics.median(j.parts[key] for j in jobs)

        return {
            "lineage.full_s": med("full_s"),
            "lineage.resume_s": med("resume_s"),
            "lineage.part_s_p50": statistics.median(
                s for j in jobs for s in j.parts["part_s"]),
            "lineage.input_bytes_read": med("input_bytes_read"),
            "lineage.output_mb": med("output_bytes") / 2**20,
            "lineage.resume_skipped_frac": statistics.median(
                len(j.parts["skipped"]) / self.n_parts for j in jobs),
        }


# dedup_surface (a union of two sort-based pipelines) is registered but
# left out: at 1 CPU it had not finished after 5 minutes.
QUERY_MIX = ("spatial_assign", "zonal_stats", "grid_shift", "tile_stats",
             "knn_anchors", "datum_hop_cs2cs", "events_sessions")


class QueryMix(Workload):
    """The registered QUERIES above; one job is one pass of the mix, in
    an order permuted by the seed on every pass. The tables have the
    sf0.1 sizes and shapes (see fixtures.py)."""

    name = "query_mix"
    n_docs = 5_000
    n_events = 100_000
    residual_holds = ("time of a pass outside every Ray Data operator: planning, "
                      "scheduling, and driver-side work")

    def _write_sf(self, sf_dir: str, n_docs: int, n_events: int) -> dict:
        os.makedirs(sf_dir, exist_ok=True)
        pq.write_table(fixtures.documents(self.seed, n_docs),
                       os.path.join(sf_dir, "documents.parquet"))
        pq.write_table(fixtures.events(self.seed, n_events),
                       os.path.join(sf_dir, "events.parquet"))
        return {"documents": n_docs, "events": n_events}

    def make_inputs(self) -> None:
        self.sf = self.path("sf")
        self.sizes = self._write_sf(self.sf, self.rows(self.n_docs), self.rows(self.n_events))
        self.docs = pq.read_table(os.path.join(self.sf, "documents.parquet"))
        self.warm_sf = self.path("sf_warm")
        self._write_sf(self.warm_sf, 256, 2048)
        self.rng = np.random.default_rng([self.seed, 4])

    def import_layers(self) -> None:
        from rayproj.pipelines import gridfixtures, queries

        # the grid files go to the work directory, not the library's default
        grids = self.path("grids")
        gridfixtures.HG_PATH = os.path.join(grids, "testhg.ct2")
        gridfixtures.VG_PATH = os.path.join(grids, "testvg.gtx")
        self.queries = queries

    def _execute(self, name: str, sf_dir: str):
        import ray.data

        result = self.queries.QUERIES[name](sf_dir)
        if isinstance(result, ray.data.Dataset):
            return result.to_pandas(), result
        return result, None

    def warm_up(self) -> None:
        # every query once: a query's first run in a fresh cluster costs
        # up to twice its steady run (worker imports, per-worker caches)
        for name in QUERY_MIX:
            self._execute(name, self.warm_sf)

    def prepare_checks(self) -> None:
        import duckdb

        con = duckdb.connect()
        for t in self.sizes:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(self.sf, t)}.parquet')")
        self.want = {n: con.execute(self.queries.ORACLE_SQL[n]).df() for n in QUERY_MIX}
        con.close()

    def run_job(self, trace: bool) -> Job:
        order = self.rng.permutation(QUERY_MIX).tolist()
        results, datasets, query_s = {}, [], {}
        for name in order:
            t0 = perf_counter()
            results[name], ds = self._execute(name, self.sf)
            query_s[name] = perf_counter() - t0
            if ds is not None:
                datasets.append(ds)
        rows = sum(self.sizes["events" if n == "events_sessions" else "documents"]
                   for n in order)
        return Job(sum(query_s.values()), rows, results, datasets, {"query_s": query_s})

    def check(self, job: Job) -> str | None:
        for name, df in job.result.items():
            why = _frame_mismatch(df, self.want[name])
            if why:
                return f"{name}: {why}"
        return None

    def replay(self, tracer) -> dict:
        return layers.replay_kernels(tracer, _chunks(self.docs), self.n_polys)

    def job_layers(self, job: Job) -> dict:
        out: dict = {}
        for ds in job.ds:
            for k, v in layers.dataset_layers(ds).items():
                out[k] = out.get(k, 0.0) + v
        # a ratio, not a sum: averaged over the pass's datasets
        out["raydata.rows_per_block"] /= max(1, len(job.ds))
        return out

    def workload_layers(self, jobs: list) -> dict:
        return {f"queries.{n}_s": statistics.median(j.parts["query_s"][n] for j in jobs)
                for n in QUERY_MIX}

    def shares(self, out: dict, untraced: dict, traced_jobs: list, stats: list) -> dict:
        """The queries run no FlagshipStage, so the replayed kernels say
        nothing about them. Instead a pass's wall time is split into the
        Ray Data operators' wall time by kind (the query kernels run in
        the map operators' tasks) and the time outside them, the
        residual; each is the median over traced passes."""
        walls = [j.wall_s for j in traced_jobs]
        op_s = {k: [s[f"raydata.{k}.wall_s"] for s in stats] for k in layers.RAYDATA_KINDS}
        outside = [w - sum(s[f"raydata.{k}.wall_s"] for k in layers.RAYDATA_KINDS)
                   for w, s in zip(walls, stats)]
        rows = statistics.median(j.rows for j in traced_jobs)
        out["raydata.overhead_ns_per_pt"] = 1e9 * statistics.median(outside) / rows
        pass_s = statistics.median(walls)
        shares = {f"raydata.{k}": statistics.median(v) / pass_s for k, v in op_s.items()}
        shares["raydata.overhead_ns_per_pt"] = statistics.median(outside) / pass_s
        return shares

    def query_shares(self, out: dict) -> dict:
        total = sum(out[f"queries.{n}_s"] for n in QUERY_MIX)
        return {n: out[f"queries.{n}_s"] / total for n in QUERY_MIX}


WORKLOADS = {w.name: w for w in (FlagshipTiles, Pip10k, CheckpointResume, QueryMix)}

"""Per-layer measurement for the traced run.

Spans are recorded only here, in the benchmark, around each call into a
layer's public function; nothing inside ``rayproj`` is instrumented.
Three sources feed the per-layer metrics:

* ``replay_kernels`` pushes the workload's input blocks through the
  flagship layer functions in the driver, in the order
  ``FlagshipStage._one`` calls them, one span id per block;
* ``dataset_layers`` reads ``Dataset.stats()`` of a timed job;
* the residual, computed by ``Workload.shares`` in ``workloads.py``
  from the end-to-end cost minus the layers timed here.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager

# per-point kernel layers, in FlagshipStage._one order
KERNEL_LAYERS = (
    "geolocate.ns_per_pt",
    "ops.trans_ns_per_pt",
    "cells.ns_per_pt",
    "polygons.assign_ns_per_pt",
    "tiles.ns_per_pt",
)


class Tracer:
    """In-memory spans; ``dump`` writes them out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str, **attrs):
        span_id = len(self.spans)
        rec = {"name": name, "span_id": span_id, "trace_id": trace_id,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(span_id)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total_s(self, name: str, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and all(s.get(k) == v for k, v in match.items()))

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f)


def replay_kernels(tracer: Tracer, blocks: list, n_polys: int,
                   passes: int = 3) -> dict:
    """Time each flagship layer on ``blocks`` (pyarrow tables with an
    int64 ``doc_id`` and a ``lang`` column), in-process and without Ray.

    Per pass, every block goes once through ``FlagshipStage.__call__``
    (the single-threaded baseline) and once through the layer calls
    that make it up. The ns/pt of each layer is the median over passes.
    """
    import numpy as np

    from rayproj.core.constants import DEG_TO_RAD, RAD_TO_DEG
    from rayproj.core.op import FWD, Coords
    from rayproj.pipelines.flagship import FlagshipStage
    from rayproj.spatial.cells import cell_id
    from rayproj.spatial.polygons import PolygonIndex, make_polygons
    from rayproj.spatial.tiles import tile_id
    from rayproj.stages.geolocate import geolocate_ids

    stage = FlagshipStage(key_col="doc_id", lang_col="lang", n_polys=n_polys)
    with tracer.span("polygons.build", "setup", n_polys=n_polys):
        PolygonIndex(make_polygons(n_polys))
    op, pip = stage.op, stage.pip  # create_operation(CS2CS_PIPELINE), PolygonIndex
    rows = sum(b.num_rows for b in blocks)
    per_pass: dict[str, list[float]] = {}
    err_lanes = hits = 0
    for p in range(passes):
        for i, block in enumerate(blocks):
            tid = f"pass{p}.block{i}"
            with tracer.span("flagship.stage", tid, pass_no=p, rows=block.num_rows):
                stage(block)
            with tracer.span("geolocate", tid, pass_no=p):
                lon, lat = geolocate_ids(block.column("doc_id").to_numpy())
            with tracer.span("ops.trans", tid, pass_no=p):
                coo = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD)
                op.trans(FWD, coo)
                rlon = coo.x * RAD_TO_DEG
                rlat = coo.y * RAD_TO_DEG
            with tracer.span("cells", tid, pass_no=p):
                cell_id(rlon, rlat, stage.cell_level)
            with tracer.span("polygons.assign", tid, pass_no=p):
                poly = pip.assign(rlon, rlat)
            with tracer.span("tiles", tid, pass_no=p):
                tile_id(rlon, rlat, stage.zoom)
            if p == 0:
                err_lanes += int(np.count_nonzero(coo.err))
                hits += int(np.count_nonzero(poly >= 0))
        for span, metric in (("flagship.stage", "flagship.stage_ns_per_pt"),
                             ("geolocate", "geolocate.ns_per_pt"),
                             ("ops.trans", "ops.trans_ns_per_pt"),
                             ("cells", "cells.ns_per_pt"),
                             ("polygons.assign", "polygons.assign_ns_per_pt"),
                             ("tiles", "tiles.ns_per_pt")):
            secs = tracer.total_s(span, pass_no=p)
            per_pass.setdefault(metric, []).append(1e9 * secs / rows)
    out = {k: statistics.median(v) for k, v in per_pass.items()}
    out["flagship.assembly_ns_per_pt"] = (
        out["flagship.stage_ns_per_pt"] - sum(out[k] for k in KERNEL_LAYERS))
    out["polygons.build_s"] = tracer.total_s("polygons.build")
    out["polygons.hit_frac"] = hits / rows
    out["ops.err_lanes"] = err_lanes
    out["ops.err_lane_frac"] = err_lanes / rows
    return out


RAYDATA_KINDS = ("read", "map", "agg")
_BLOCKS = re.compile(r"(\d+) blocks produced")


def _kind(op_name: str) -> str:
    if op_name.startswith("Read"):
        return "read"
    if any(w in op_name for w in ("Aggregate", "Sort", "Shuffle", "Repartition")):
        return "agg"
    return "map"


def dataset_layers(ds) -> dict:
    """Wall seconds and output blocks per operator kind (read, map,
    groupby/sort) of one executed Dataset, from its stats summary."""
    out = {f"raydata.{k}.{m}": 0.0 for k in RAYDATA_KINDS
           for m in ("wall_s", "blocks")}
    map_rows = 0

    def walk(summary):
        nonlocal map_rows
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            kind = _kind(op.operator_name)
            out[f"raydata.{kind}.wall_s"] += (op.wall_time or {}).get("sum", 0.0)
            found = _BLOCKS.search(op.block_execution_summary_str or "")
            blocks = int(found.group(1)) if found else 0
            out[f"raydata.{kind}.blocks"] += blocks
            if kind == "map":
                map_rows += (op.output_num_rows or {}).get("sum", 0)

    walk(ds._get_stats_summary())
    blocks = out["raydata.map.blocks"]
    out["raydata.rows_per_block"] = map_rows / blocks if blocks else 0.0
    return out

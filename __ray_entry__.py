"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; none
of these callables (or the rayproj library) call ray.init/shutdown.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship pipeline (geolocate → cs2cs-exact reprojection → cell →
    PIP → tile) over the sf0.001 documents table."""
    import ray.data as rd

    from rayproj.pipelines.flagship import run_flagship

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    # elastic stateless tasks with the per-worker stage cache
    # (flagship.cached_stage): scales with the cluster instead of
    # capping at a fixed actor count
    out = run_flagship(ds, key_col="doc_id", lang_col="lang",
                       batch_size=4096)
    return out


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from rayproj.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB twins for every SQL-expressible query (same column names)."""
    from rayproj.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)

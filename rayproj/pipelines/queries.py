"""Driver-contract queries: one per operator family (SURVEY.md §2),
each with a DuckDB-oracle SQL twin where ANSI SQL can express it.

Exactness strategy: outputs are integers wherever possible (tile/cell ids,
counts, cents) — IEEE +−×/ arithmetic is bit-identical between NumPy
and DuckDB, so these match exactly. Transcendental-derived floats are
rounded coarsely enough (1 dm / 1e-6 deg) that a few-ulp libm
difference cannot flip a rounding boundary in practice.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.constants import DEG_TO_RAD, RAD_TO_DEG
from ..core.factory import create_operation
from ..core.op import FWD, INV, Coords
from ..functions import text as textfn
from ..functions.ann import (IVFIndex, _normalize, emb_matrix, top_k_per_key,
                             topk_rows, topk_window)
from ..functions.dedup import MinHasher, collect, group_apply, runs, simhash64
from ..spatial.cells import cell_xy
from ..spatial.polygons import layer_index
from ..spatial.tiles import tile_xy
from ..stages.geolocate import geolocate_ids
from .flagship import merge_partials
from .lineage import parquet_shards

ZOOM = 8
CELL_LEVEL = 6
N_POLYS = 60
N_ANCHORS = 20
KNN_K = 3


def _read_path(path: str, columns=None):
    """The query layer's one Ray Data parquet read: one read task per
    input file, fused with the map that follows. ``path`` is a file
    (1 task) or a directory of k files (k tasks; ``lineage.parquet_shards``
    lists them, with the rule ``checkpointed_flagship`` partitions by).

    The read goes through ``parquet_source.ParquetFiles``, a Ray Data
    ``Datasource`` that plans on the driver from file discovery and the
    footers. ``rd.read_parquet`` would also run a remote sampling task
    (``_sample_fragment``) before returning the Dataset, 11–17 ms paid
    once per table and per execution. The files and rows read are those
    of ``rd.read_parquet(path, columns=columns)``: a file in a
    subdirectory joins one of the k tasks. A hive-partitioned directory
    raises, since no partition column is added.

    Left to itself, Ray Data plans at least two read blocks per cluster
    CPU, so it splits the read tasks of a table with fewer files than
    that (``ReadParquet->SplitBlocks(k)``), and a split read never fuses
    with the map after it: every query would run the read and the
    kernel as separate tasks, with the blocks passing through the object
    store between them. Asking for exactly one block per file keeps one
    ``ReadParquet->MapBatches`` task per file. The rule is the same at
    every size and CPU count. The trade-off: a table stored as one file
    is read and mapped by one task, with no split inside the file.
    Parallel reads come from storing the table as several files, one
    partition per input file."""
    import ray.data as rd

    from .parquet_source import ParquetFiles

    n_files = max(1, len(parquet_shards(path)))
    return rd.read_datasource(ParquetFiles(path, columns), override_num_blocks=n_files)


def _read(sf_dir: str, table: str, columns=None):
    return _read_path(f"{sf_dir}/{table}.parquet", columns)


def _per_doc(sf_dir: str, kernel):
    """The per-doc query shape: read ``documents.doc_id``, geolocate
    each batch once and emit ``pa.table(kernel(ids, lon, lat))``. The
    kernel returns the output columns (a dict, or a DataFrame); it may
    drop rows or reduce the batch to partials."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        lon, lat = geolocate_ids(ids)
        return pa.table(kernel(ids, lon, lat))

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(fn, batch_format="pyarrow")


def _fwd(op, lon, lat, z=None, t=None) -> Coords:
    """Degrees in, ``op`` forward on the radian ``Coords``, which are
    returned (``Coords`` defaults z to 0 and t to inf)."""
    coo = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD, z, t)
    op.trans(FWD, coo)
    return coo


GEOLOC_SQL = (
    "SELECT doc_id, ((doc_id*9973) % 35000)/100.0 - 175.0 + 0.005 AS lon, "
    "((doc_id*7919) % 16000)/100.0 - 80.0 + 0.005 AS lat FROM documents"
)


# ---------------------------------------------------------------------------
# Geospatial queries
# ---------------------------------------------------------------------------


def q_geolocate(sf_dir: str):
    return _per_doc(sf_dir, lambda ids, lon, lat: {"doc_id": ids, "lon": lon, "lat": lat})


SQL_GEOLOCATE = f"SELECT doc_id, lon, lat FROM ({GEOLOC_SQL}) ORDER BY doc_id"


def _projected_query(sf_dir: str, projstring: str):
    """Shared shape: geolocate → engine reprojection → x/y at 1 dm."""
    op = create_operation(projstring)

    def kernel(ids, lon, lat):
        coo = _fwd(op, lon, lat)
        return {"doc_id": ids, "x": np.round(coo.x, 1), "y": np.round(coo.y, 1)}

    return _per_doc(sf_dir, kernel)


def q_merc_fwd(sf_dir: str):
    return _projected_query(sf_dir, "+proj=merc +ellps=GRS80")


SQL_MERC = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS f),
e AS (SELECT a, sqrt(2*f - f*f) AS ecc FROM c)
SELECT g.doc_id,
  ROUND(a * radians(g.lon), 1) AS x,
  ROUND(-a * ln( tan(pi()/4 - radians(g.lat)/2)
        / pow((1 - ecc*sin(radians(g.lat))) / (1 + ecc*sin(radians(g.lat))), ecc/2) ), 1) AS y
FROM g, e ORDER BY doc_id
"""


def q_lcc_fwd(sf_dir: str):
    """Lambert Conformal Conic 2SP (RGF93 / Lambert-93 parameters,
    EPSG:2154 — the registry resolution is pinned bit-equal in
    tests/test_projdb.py; the proj-string here keeps the driver oracle
    independent of the proj.db build). Oracle = the full ellipsoidal
    2SP chain (Snyder 15-1..15-10 / ref src/projections/lcc.cpp) in
    ANSI SQL."""
    return _projected_query(
        sf_dir,
        "+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 "
        "+x_0=700000 +y_0=6600000 +ellps=GRS80",
    )


SQL_LCC = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS f,
             radians(49.0) AS p1, radians(44.0) AS p2,
             radians(46.5) AS p0, radians(3.0) AS l0),
e AS (SELECT *, sqrt(2*f - f*f) AS ec FROM c),
m AS (SELECT *,
  cos(p1)/sqrt(1 - (ec*sin(p1))*(ec*sin(p1))) AS m1,
  cos(p2)/sqrt(1 - (ec*sin(p2))*(ec*sin(p2))) AS m2,
  tan(pi()/4 - p1/2) / pow((1 - ec*sin(p1))/(1 + ec*sin(p1)), ec/2) AS t1,
  tan(pi()/4 - p2/2) / pow((1 - ec*sin(p2))/(1 + ec*sin(p2)), ec/2) AS t2,
  tan(pi()/4 - p0/2) / pow((1 - ec*sin(p0))/(1 + ec*sin(p0)), ec/2) AS t0
 FROM e),
k AS (SELECT *, (ln(m1) - ln(m2)) / (ln(t1) - ln(t2)) AS n FROM m),
q AS (SELECT *, m1 / (n * pow(t1, n)) AS bigf FROM k),
r AS (SELECT *, a * bigf * pow(t0, n) AS rho0 FROM q),
pt AS (SELECT g.doc_id, radians(g.lat) AS phi, radians(g.lon) AS lam, r.*
       FROM g, r),
tt AS (SELECT *,
  tan(pi()/4 - phi/2) / pow((1 - ec*sin(phi))/(1 + ec*sin(phi)), ec/2) AS t
 FROM pt),
xy AS (SELECT doc_id,
  a * bigf * pow(t, n) * sin(n * (lam - l0)) AS dx,
  rho0 - a * bigf * pow(t, n) * cos(n * (lam - l0)) AS dy
 FROM tt)
SELECT doc_id, ROUND(700000.0 + dx, 1) AS x, ROUND(6600000.0 + dy, 1) AS y
FROM xy ORDER BY doc_id
"""


def q_proj_factors(sf_dir: str):
    """proj -V / pj_factors over the geolocated corpus: meridional /
    parallel / areal scale, meridian convergence and max angular
    distortion of the Lambert-93 cone at every document location —
    4-point finite-difference derivatives of the RAW lcc kernel
    (core/factors.py, ref src/factors.cpp + deriv.cpp). Map-only,
    vectorized (each batch runs 4 whole-array kernel evaluations).
    Outputs round to 1e-6 so the oracle's independently-evaluated
    derivative chain (same operation order in SQL) hash-matches."""
    from ..core.factors import factors

    op = create_operation(
        "+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 +ellps=GRS80"
    )

    def kernel(ids, lon, lat):
        f = factors(op, lon * DEG_TO_RAD, lat * DEG_TO_RAD)
        return {
            "doc_id": ids,
            "f_h": np.round(f.h, 6),
            "f_k": np.round(f.k, 6),
            "f_s": np.round(f.s, 6),
            "conv": np.round(f.conv, 6),
            "omega": np.round(f.omega, 6),
        }

    return _per_doc(sf_dir, kernel)


SQL_PROJ_FACTORS = f"""
WITH g AS ({GEOLOC_SQL}),
ell AS (
  SELECT 2*(1.0/298.257222101) - (1.0/298.257222101)*(1.0/298.257222101) AS es,
         sqrt(2*(1.0/298.257222101) - (1.0/298.257222101)*(1.0/298.257222101)) AS ec,
         1 - (2*(1.0/298.257222101) - (1.0/298.257222101)*(1.0/298.257222101)) AS one_es,
         radians(49.0) AS p1, radians(44.0) AS p2, radians(46.5) AS p0
),
cone AS (
  SELECT *,
    cos(p1)/sqrt(1 - es*sin(p1)*sin(p1)) AS m1,
    tan(0.5*(pi()/2 - p1)) / pow((1 - ec*sin(p1))/(1 + ec*sin(p1)), 0.5*ec) AS ml1,
    cos(p2)/sqrt(1 - es*sin(p2)*sin(p2)) AS m2,
    tan(0.5*(pi()/2 - p2)) / pow((1 - ec*sin(p2))/(1 + ec*sin(p2)), 0.5*ec) AS ml2,
    tan(0.5*(pi()/2 - p0)) / pow((1 - ec*sin(p0))/(1 + ec*sin(p0)), 0.5*ec) AS ml0
  FROM ell
),
cone2 AS (SELECT *, ln(m1/m2)/ln(ml1/ml2) AS n FROM cone),
cone3 AS (SELECT *, m1 * pow(ml1, -n) / n AS c FROM cone2),
cone4 AS (SELECT *, c * pow(ml0, n) AS rho0 FROM cone3),
pt AS (
  SELECT g.doc_id, radians(g.lat) AS phi,
    CASE WHEN abs(radians(g.lon) - radians(3.0)) >= pi() + 1e-12
         THEN (radians(g.lon) - radians(3.0) + pi())
              - 2*pi()*floor((radians(g.lon) - radians(3.0) + pi())/(2*pi())) - pi()
         ELSE radians(g.lon) - radians(3.0) END AS lam,
    k.* FROM g, cone4 k
),
corners(ci, dl, dp) AS (VALUES (1, 1e-5, 1e-5), (2, 1e-5, -1e-5),
                               (3, -1e-5, -1e-5), (4, -1e-5, 1e-5)),
ev AS (
  SELECT doc_id, ci,
    (c * pow(tan(0.5*(pi()/2 - (phi+dp)))
             / pow((1 - ec*sin(phi+dp))/(1 + ec*sin(phi+dp)), 0.5*ec), n))
      * sin(n*(lam+dl)) AS x,
    rho0 - (c * pow(tan(0.5*(pi()/2 - (phi+dp)))
                    / pow((1 - ec*sin(phi+dp))/(1 + ec*sin(phi+dp)), 0.5*ec), n))
      * cos(n*(lam+dl)) AS y
  FROM pt CROSS JOIN corners
),
pv AS (
  SELECT doc_id,
    max(CASE WHEN ci=1 THEN x END) AS x1, max(CASE WHEN ci=1 THEN y END) AS y1,
    max(CASE WHEN ci=2 THEN x END) AS x2, max(CASE WHEN ci=2 THEN y END) AS y2,
    max(CASE WHEN ci=3 THEN x END) AS x3, max(CASE WHEN ci=3 THEN y END) AS y3,
    max(CASE WHEN ci=4 THEN x END) AS x4, max(CASE WHEN ci=4 THEN y END) AS y4
  FROM ev GROUP BY doc_id
),
der AS (
  SELECT p.doc_id, p.phi, p.es, p.one_es,
    (v.x1 + v.x2 - v.x3 - v.x4) / (4.0*1e-5) AS x_l,
    (v.y1 + v.y2 - v.y3 - v.y4) / (4.0*1e-5) AS y_l,
    (v.x1 - v.x2 - v.x3 + v.x4) / (4.0*1e-5) AS x_p,
    (v.y1 - v.y2 - v.y3 + v.y4) / (4.0*1e-5) AS y_p
  FROM pv v JOIN pt p USING (doc_id)
),
fac AS (
  SELECT doc_id, x_l, y_l, x_p, y_p, cos(phi) AS cosphi,
    1 - es*sin(phi)*sin(phi) AS t, es, one_es
  FROM der
),
fac2 AS (
  SELECT *,
    sqrt(x_p*x_p + y_p*y_p) * (t*sqrt(t)/one_es) AS fh,
    (sqrt(x_l*x_l + y_l*y_l) / cosphi) * sqrt(t) AS fk,
    -atan2(x_p, y_p) AS conv,
    (y_p*x_l - x_p*y_l) * (t*t/one_es) / cosphi AS s
  FROM fac
),
fac3 AS (
  SELECT *, fk*fk + fh*fh AS t2,
    sqrt(greatest(t2 + 2*s, 0)) AS fa,
    CASE WHEN t2 - 2*s > 0 THEN sqrt(t2 - 2*s) ELSE 0 END AS tb
  FROM fac2
),
fac4 AS (
  SELECT *, 0.5*(fa + tb) AS a_ax, 0.5*(fa - tb) AS b_ax FROM fac3
)
SELECT doc_id,
  round(fh, 6) AS f_h, round(fk, 6) AS f_k, round(s, 6) AS f_s,
  round(conv, 6) AS conv,
  round(2*asin(least(greatest((a_ax - b_ax)/(a_ax + b_ax), -1.0), 1.0)), 6) AS omega
FROM fac4 ORDER BY doc_id
"""


def q_aea_fwd(sf_dir: str):
    """Albers Equal Area (EPSG:5070 CONUS parameters). Oracle = the
    ellipsoidal chain Snyder 14-1..14-12 / ref src/projections/aea.cpp
    in ANSI SQL."""
    return _projected_query(
        sf_dir,
        "+proj=aea +lat_0=23 +lon_0=-96 +lat_1=29.5 +lat_2=45.5 "
        "+x_0=0 +y_0=0 +ellps=GRS80",
    )


SQL_AEA = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS f,
             radians(29.5e0) AS p1, radians(45.5e0) AS p2,
             radians(23.0e0) AS p0, radians(-96.0e0) AS l0),
e AS (SELECT *, 2*f - f*f AS es, sqrt(2*f - f*f) AS ec FROM c),
qq AS (SELECT *,
  (1-es)*( sin(p1)/(1-es*sin(p1)*sin(p1))
           - (1/(2*ec))*ln((1-ec*sin(p1))/(1+ec*sin(p1))) ) AS q1,
  (1-es)*( sin(p2)/(1-es*sin(p2)*sin(p2))
           - (1/(2*ec))*ln((1-ec*sin(p2))/(1+ec*sin(p2))) ) AS q2,
  (1-es)*( sin(p0)/(1-es*sin(p0)*sin(p0))
           - (1/(2*ec))*ln((1-ec*sin(p0))/(1+ec*sin(p0))) ) AS q0,
  cos(p1)/sqrt(1-es*sin(p1)*sin(p1)) AS m1,
  cos(p2)/sqrt(1-es*sin(p2)*sin(p2)) AS m2
 FROM e),
k AS (SELECT *, (m1*m1 - m2*m2)/(q2 - q1) AS n FROM qq),
cc AS (SELECT *, m1*m1 + n*q1 AS bigc FROM k),
r AS (SELECT *, a*sqrt(bigc - n*q0)/n AS rho0 FROM cc),
pt AS (SELECT g.doc_id, radians(g.lat) AS phi,
       radians(g.lon) - l0
         - 2*pi()*round((radians(g.lon) - l0)/(2*pi())) AS dl, r.*
       FROM g, r),
qp AS (SELECT *,
  (1-es)*( sin(phi)/(1-es*sin(phi)*sin(phi))
           - (1/(2*ec))*ln((1-ec*sin(phi))/(1+ec*sin(phi))) ) AS q
 FROM pt),
xy AS (SELECT doc_id,
  a*sqrt(bigc - n*q)/n * sin(n*dl) AS x,
  rho0 - a*sqrt(bigc - n*q)/n * cos(n*dl) AS y
 FROM qp)
SELECT doc_id, ROUND(x, 1) AS x, ROUND(y, 1) AS y FROM xy ORDER BY doc_id
"""


def q_stere_fwd(sf_dir: str):
    """Polar Stereographic variant B (EPSG:3413 NSIDC Sea Ice North
    parameters), northern points only — the projection's area of use.
    Oracle = ellipsoidal polar chain Snyder 21-33..21-34 / ref
    src/projections/stere.cpp in ANSI SQL."""
    op = create_operation(
        "+proj=stere +lat_0=90 +lat_ts=70 +lon_0=-45 +x_0=0 +y_0=0 "
        "+ellps=GRS80"
    )

    def kernel(ids, lon, lat):
        m = lat > 10.0
        coo = _fwd(op, lon[m], lat[m])
        return {"doc_id": ids[m], "x": np.round(coo.x, 1), "y": np.round(coo.y, 1)}

    return _per_doc(sf_dir, kernel)


SQL_STERE = f"""
WITH g0 AS ({GEOLOC_SQL}),
g AS (SELECT * FROM g0 WHERE lat > 10),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS f,
             radians(70.0e0) AS pts, radians(-45.0e0) AS l0),
e AS (SELECT *, 2*f - f*f AS es, sqrt(2*f - f*f) AS ec FROM c),
k AS (SELECT *,
  cos(pts)/sqrt(1-es*sin(pts)*sin(pts)) AS mf,
  tan(pi()/4 - pts/2) / pow((1-ec*sin(pts))/(1+ec*sin(pts)), ec/2) AS tf
 FROM e),
pt AS (SELECT g.doc_id, radians(g.lat) AS phi,
       radians(g.lon) - l0
         - 2*pi()*round((radians(g.lon) - l0)/(2*pi())) AS dl, k.*
       FROM g, k),
tt AS (SELECT *,
  tan(pi()/4 - phi/2) / pow((1-ec*sin(phi))/(1+ec*sin(phi)), ec/2) AS t
 FROM pt),
xy AS (SELECT doc_id,
  a * mf * t / tf * sin(dl) AS x,
  -(a * mf * t / tf) * cos(dl) AS y
 FROM tt)
SELECT doc_id, ROUND(x, 1) AS x, ROUND(y, 1) AS y FROM xy ORDER BY doc_id
"""


def q_utm_roundtrip(sf_dir: str):
    """Driver-level inverse-kernel check: fwd UTM then inv UTM must
    reproduce the geolocated lon/lat to sub-nanometre (the cs2cs
    round-trip contract, ref test/cli/testvarious round trips). Oracle
    is the identity on the geolocation formula — any fwd/inv asymmetry
    breaks the hash."""
    op = create_operation("+proj=utm +zone=31 +ellps=GRS80")

    def kernel(ids, lon, lat):
        m = (lat > -80.0) & (lat < 84.0) & (lon > -42.0) & (lon < 48.0)
        coo = _fwd(op, lon[m], lat[m])
        op.trans(INV, coo)
        return {
            "doc_id": ids[m],
            "lon": np.round(coo.x * RAD_TO_DEG, 9),
            "lat": np.round(coo.y * RAD_TO_DEG, 9),
        }

    return _per_doc(sf_dir, kernel)


SQL_UTM_ROUNDTRIP = f"""
SELECT doc_id, ROUND(lon, 9) AS lon, ROUND(lat, 9) AS lat
FROM ({GEOLOC_SQL}) WHERE lat > -80 AND lat < 84 AND lon > -42 AND lon < 48 ORDER BY doc_id
"""


def q_webmerc_fwd(sf_dir: str):
    return _projected_query(sf_dir, "+proj=webmerc +ellps=WGS84")


SQL_WEBMERC = f"""
WITH g AS ({GEOLOC_SQL})
SELECT doc_id,
  ROUND(6378137.0 * radians(lon), 1) AS x,
  ROUND(6378137.0 * ln(tan(pi()/4 + radians(lat)/2)), 1) AS y
FROM g ORDER BY doc_id
"""


def q_utm_fwd(sf_dir: str):
    """UTM zone 31 — full Poder/Engsager oracle: the SQL twin evaluates
    the published 6th-order series by direct summation (conformal
    latitude, complex sin series expanded to real sinh/cosh pairs, GRS80
    coefficients inlined as literals of the published polynomials in n).
    Out-of-domain points (|Ce| > 2.6234, poisoned to inf by the engine)
    are filtered on both sides so the compare sees finite rows only."""
    ds = _projected_query(sf_dir, "+proj=utm +zone=31 +ellps=GRS80")
    return ds.map_batches(
        lambda df: df[np.isfinite(df["x"].to_numpy())], batch_format="pandas"
    )


SQL_UTM = f"""
WITH g AS ({GEOLOC_SQL}),
ang AS (SELECT doc_id, radians(lat) AS phi, radians(lon) - radians(3) AS lam FROM g),
chi AS (SELECT doc_id, lam, phi + (-0.0033565546362689545e0)*sin(2*phi) + (4.694573073238773e-06)*sin(4*phi) + (-8.194497667855437e-09)*sin(6*phi) + (1.5579967134427267e-11)*sin(8*phi) + (-3.103292317686079e-14)*sin(10*phi) + (6.389147689047579e-17)*sin(12*phi) AS ch FROM ang),
sph AS (SELECT doc_id,
  atan2(sin(ch), cos(ch)*cos(lam)) AS Cn,
  ln( (sin(lam)*cos(ch))/sqrt(sin(ch)*sin(ch) + cos(ch)*cos(lam)*cos(ch)*cos(lam))
      + sqrt( (sin(lam)*cos(ch))*(sin(lam)*cos(ch))
              /(sin(ch)*sin(ch) + cos(ch)*cos(lam)*cos(ch)*cos(lam)) + 1.0) ) AS Ce
  FROM chi),
ser AS (SELECT doc_id,
  Cn + (0.0008377318247285514e0)*sin(2*Cn)*((exp(2*Ce)+exp(-(2)*Ce))/2) +
    (7.608527848149475e-07)*sin(4*Cn)*((exp(4*Ce)+exp(-(4)*Ce))/2) +
    (1.1976455209422677e-09)*sin(6*Cn)*((exp(6*Ce)+exp(-(6)*Ce))/2) +
    (2.4291706548410134e-12)*sin(8*Cn)*((exp(8*Ce)+exp(-(8)*Ce))/2) +
    (5.711757817902035e-15)*sin(10*Cn)*((exp(10*Ce)+exp(-(10)*Ce))/2) +
    (1.4911177751870806e-17)*sin(12*Cn)*((exp(12*Ce)+exp(-(12)*Ce))/2) AS CnF,
  Ce + (0.0008377318247285514e0)*cos(2*Cn)*((exp(2*Ce)-exp(-(2)*Ce))/2) +
    (7.608527848149475e-07)*cos(4*Cn)*((exp(4*Ce)-exp(-(4)*Ce))/2) +
    (1.1976455209422677e-09)*cos(6*Cn)*((exp(6*Ce)-exp(-(6)*Ce))/2) +
    (2.4291706548410134e-12)*cos(8*Cn)*((exp(8*Ce)-exp(-(8)*Ce))/2) +
    (5.711757817902035e-15)*cos(10*Cn)*((exp(10*Ce)-exp(-(10)*Ce))/2) +
    (1.4911177751870806e-17)*cos(12*Cn)*((exp(12*Ce)-exp(-(12)*Ce))/2) AS CeF
  FROM sph)
SELECT doc_id,
  ROUND(6378137.0*(0.997924968703673e0)*CeF + 500000.0, 1) AS x,
  ROUND(6378137.0*(0.997924968703673e0)*CnF, 1) AS y
FROM ser WHERE abs(CeF) <= 2.623395162778 ORDER BY doc_id
"""


def q_cart_fwd(sf_dir: str):
    op = create_operation("+proj=cart +ellps=GRS80")

    def kernel(ids, lon, lat):
        coo = _fwd(op, lon, lat)
        return {
            "doc_id": ids,
            "gx": np.round(coo.x, 1),
            "gy": np.round(coo.y, 1),
            "gz": np.round(coo.z, 1),
        }

    return _per_doc(sf_dir, kernel)


SQL_CART = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS f),
e AS (SELECT a, 2*f - f*f AS es FROM c),
n AS (SELECT g.doc_id, radians(g.lon) AS lam, radians(g.lat) AS phi,
             a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat))) AS nn, es
      FROM g, e)
SELECT doc_id,
  ROUND(nn * cos(phi) * cos(lam), 1) AS gx,
  ROUND(nn * cos(phi) * sin(lam), 1) AS gy,
  ROUND(nn * (1 - es) * sin(phi), 1) AS gz
FROM n ORDER BY doc_id
"""


HELMERT_PARAMS = dict(x=598.1, y=73.7, z=418.2, rx=0.202, ry=0.045, rz=-2.455, s=6.7)


def q_helmert(sf_dir: str):
    """cart(bessel) → 7-param Helmert (small-angle, position_vector)."""
    cart = create_operation("+proj=cart +ellps=bessel")
    hp = HELMERT_PARAMS
    helm = create_operation(
        "+proj=helmert +x={x} +y={y} +z={z} +rx={rx} +ry={ry} +rz={rz} +s={s} "
        "+convention=position_vector".format(**hp)
    )

    def kernel(ids, lon, lat):
        coo = _fwd(cart, lon, lat)
        helm.trans(FWD, coo)
        return {
            "doc_id": ids,
            "hx": np.round(coo.x, 1),
            "hy": np.round(coo.y, 1),
            "hz": np.round(coo.z, 1),
        }

    return _per_doc(sf_dir, kernel)


SQL_HELMERT = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6377397.155 AS a, 1.0/299.1528128 AS f),
e AS (SELECT a, 2*f - f*f AS es FROM c),
crt AS (SELECT g.doc_id,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * cos(radians(g.lat)) * cos(radians(g.lon)) AS X,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * cos(radians(g.lat)) * sin(radians(g.lon)) AS Y,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * (1 - es) * sin(radians(g.lat)) AS Z
 FROM g, e),
p AS (SELECT {HELMERT_PARAMS['rx']}*pi()/180/3600 AS rx, {HELMERT_PARAMS['ry']}*pi()/180/3600 AS ry,
             {HELMERT_PARAMS['rz']}*pi()/180/3600 AS rz, 1 + {HELMERT_PARAMS['s']}*1e-6 AS sc)
SELECT crt.doc_id,
  ROUND(sc*(X - rz*Y + ry*Z) + {HELMERT_PARAMS['x']}, 1) AS hx,
  ROUND(sc*(rz*X + Y - rx*Z) + {HELMERT_PARAMS['y']}, 1) AS hy,
  ROUND(sc*(-ry*X + rx*Y + Z) + {HELMERT_PARAMS['z']}, 1) AS hz
FROM crt, p ORDER BY doc_id
"""


SQL_TILE = f"""
WITH g AS ({GEOLOC_SQL})
SELECT doc_id,
  CAST(LEAST(GREATEST(FLOOR((lon + 180.0)/360.0 * {1 << ZOOM}), 0), {(1 << ZOOM) - 1}) AS BIGINT) AS tile_x,
  CAST(LEAST(GREATEST(FLOOR((1.0 - ln(tan(radians(lat)) + sqrt(1 + tan(radians(lat))*tan(radians(lat))))/pi())/2.0 * {1 << ZOOM}), 0), {(1 << ZOOM) - 1}) AS BIGINT) AS tile_y
FROM g ORDER BY doc_id
"""


def q_tile_stats(sf_dir: str):
    """Per-tile doc counts: each batch reduces to (tile_key, count)
    partials, at most blocks × 65,536 rows (zoom-8 tiles) whatever the
    doc count, and ``merge_partials`` sums them on the driver."""

    def partial(ids, lon, lat):
        tx, ty = tile_xy(lon, lat, ZOOM)
        key = tx * np.int64(1 << ZOOM) + ty
        uniq, counts = np.unique(key, return_counts=True)
        return {"tile_key": uniq, "n_partial": counts.astype(np.int64)}

    return merge_partials(_per_doc(sf_dir, partial), {"tile_key": np.int64},
                          {"n_docs": ("n_partial", "sum")})


SQL_TILE_STATS = f"""
WITH t AS ({SQL_TILE.replace('ORDER BY doc_id', '')})
SELECT tile_x * {1 << ZOOM} + tile_y AS tile_key, COUNT(*) AS n_docs
FROM t GROUP BY 1 ORDER BY tile_key
"""


SQL_CELL = f"""
WITH g AS ({GEOLOC_SQL})
SELECT doc_id,
  CAST(LEAST(GREATEST(FLOOR((lon + 180.0)/360.0 * {1 << CELL_LEVEL}), 0), {(1 << CELL_LEVEL) - 1}) AS BIGINT) AS cell_x,
  CAST(LEAST(GREATEST(FLOOR((lat + 90.0)/180.0 * {1 << CELL_LEVEL}), 0), {(1 << CELL_LEVEL) - 1}) AS BIGINT) AS cell_y
FROM g ORDER BY doc_id
"""


SQL_PIP = f"""
WITH g AS ({GEOLOC_SQL}),
polys AS (
  SELECT p AS poly_id,
         ((p*9973 + 42) % 3400)/10.0 - 170.0 AS cx,
         ((p*7919 + 42) % 1500)/10.0 - 75.0  AS cy,
         2.0 + (p % 7) AS r,
         (p % 12) * (2*pi()/24.0) AS off
  FROM range(0, {N_POLYS}) t(p)),
edges AS (
  SELECT poly_id,
    cx + r*cos(off + 2*pi()*v/6.0)       AS x1,
    cy + r*sin(off + 2*pi()*v/6.0)       AS y1,
    cx + r*cos(off + 2*pi()*((v+1)%6)/6.0) AS x2,
    cy + r*sin(off + 2*pi()*((v+1)%6)/6.0) AS y2
  FROM polys, range(0, 6) s(v)),
hits AS (
  SELECT g.doc_id, e.poly_id
  FROM g CROSS JOIN edges e
  GROUP BY g.doc_id, e.poly_id
  HAVING MIN((e.x2-e.x1)*(g.lat-e.y1) - (e.y2-e.y1)*(g.lon-e.x1)) >= 0)
SELECT g.doc_id, CAST(COALESCE(MIN(h.poly_id), -1) AS INTEGER) AS poly_id
FROM g LEFT JOIN hits h ON g.doc_id = h.doc_id
GROUP BY g.doc_id ORDER BY g.doc_id
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics — the vector-side raster↔vector aggregation:
    per-polygon doc count and doc_id sum. PIP against the per-worker
    polygon index is fused with a per-batch ``np.bincount`` over
    poly_id (the doc_id sums in int64, exact past 2^53), so each batch
    emits at most N_POLYS+1 partial rows (blocks × (N_POLYS+1) in all,
    never doc rows) and ``merge_partials`` sums them on the driver."""

    def partial(ids, lon, lat):
        pid = layer_index(N_POLYS).assign(lon, lat).astype(np.int64)
        shifted = pid + 1  # -1 (no polygon) → bin 0
        n = np.bincount(shifted, minlength=N_POLYS + 1)
        s = np.zeros(N_POLYS + 1, dtype=np.int64)
        np.add.at(s, shifted, ids)
        keep = n > 0
        return {"poly_id": np.nonzero(keep)[0] - 1, "n_partial": n[keep], "s_partial": s[keep]}

    return merge_partials(_per_doc(sf_dir, partial), {"poly_id": np.int64},
                          {"n_docs": ("n_partial", "sum"), "sum_doc_id": ("s_partial", "sum")})


SQL_ZONAL_STATS = f"""
WITH pip AS ({SQL_PIP.replace('ORDER BY g.doc_id', '')})
SELECT CAST(poly_id AS BIGINT) AS poly_id, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(doc_id) AS BIGINT) AS sum_doc_id
FROM pip GROUP BY 1 ORDER BY 1
"""


def _anchors():
    aid = np.arange(N_ANCHORS, dtype=np.int64)
    a_lon = ((aid * 6151 + 17) % 3000) / 10.0 - 150.0
    a_lat = ((aid * 4093 + 11) % 1400) / 10.0 - 70.0
    return a_lon, a_lat


def q_knn(sf_dir: str):
    """kNN of broadcast anchors vs all docs: per-batch top-k, driver
    merge. Score is the negated squared-degree distance (pure
    arithmetic → exact oracle, ties on point_id)."""
    a_lon, a_lat = _anchors()

    def kernel(ids, lon, lat):
        dx = lon[None, :] - a_lon[:, None]
        dy = lat[None, :] - a_lat[:, None]
        a, pid, score = topk_rows(-(dx * dx + dy * dy), ids, KNN_K)
        return {"anchor_id": a, "point_id": pid, "score": score}

    partials = collect(_per_doc(sf_dir, kernel),
                       {"anchor_id": np.int64, "point_id": np.int64, "score": np.float64})
    top = top_k_per_key(partials, "anchor_id", "score", "point_id", KNN_K)
    return top[["anchor_id", "rank", "point_id"]].astype("int64")


SQL_KNN = f"""
WITH g AS ({GEOLOC_SQL}),
anchors AS (
  SELECT a AS anchor_id,
         ((a*6151 + 17) % 3000)/10.0 - 150.0 AS alon,
         ((a*4093 + 11) % 1400)/10.0 - 70.0  AS alat
  FROM range(0, {N_ANCHORS}) t(a)),
d AS (
  SELECT anchors.anchor_id, g.doc_id,
         (g.lon - anchors.alon)*(g.lon - anchors.alon)
       + (g.lat - anchors.alat)*(g.lat - anchors.alat) AS d2
  FROM anchors CROSS JOIN g),
r AS (
  SELECT anchor_id, doc_id,
         ROW_NUMBER() OVER (PARTITION BY anchor_id ORDER BY d2, doc_id) AS rank
  FROM d)
SELECT anchor_id, rank, doc_id AS point_id FROM r
WHERE rank <= {KNN_K} ORDER BY anchor_id, rank
"""


def q_datum_hop(sf_dir: str):
    """Full cs2cs-style datum hop (cart → exact helmert → cart⁻¹),
    the flagship reprojection — closed-form, so SQL can mirror it."""
    from .flagship import CS2CS_PIPELINE

    op = create_operation(CS2CS_PIPELINE)

    def kernel(ids, lon, lat):
        coo = _fwd(op, lon, lat)
        return {
            "doc_id": ids,
            "rlon": np.round(coo.x * RAD_TO_DEG, 6),
            "rlat": np.round(coo.y * RAD_TO_DEG, 6),
        }

    return _per_doc(sf_dir, kernel)


SQL_DATUM_HOP = f"""
WITH g AS ({GEOLOC_SQL}),
src AS (SELECT 6377397.155 AS a, 1.0/299.1528128 AS f),
srce AS (SELECT a, 2*f - f*f AS es FROM src),
crt AS (SELECT g.doc_id,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * cos(radians(g.lat)) * cos(radians(g.lon)) AS X,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * cos(radians(g.lat)) * sin(radians(g.lon)) AS Y,
  (a / sqrt(1 - es*sin(radians(g.lat))*sin(radians(g.lat)))) * (1 - es) * sin(radians(g.lat)) AS Z
 FROM g, srce),
rot AS (SELECT 0.202*pi()/180/3600 AS fx, 0.045*pi()/180/3600 AS ft, -2.455*pi()/180/3600 AS fp,
               1 + 6.7*1e-6 AS sc),
-- exact rotation matrix, coordinate_frame convention then transposed
-- (helmert.cpp:162-320, position_vector)
m AS (SELECT sc,
  cos(ft)*cos(fp) AS r00, cos(fx)*sin(fp) + sin(fx)*sin(ft)*cos(fp) AS r01, sin(fx)*sin(fp) - cos(fx)*sin(ft)*cos(fp) AS r02,
  -cos(ft)*sin(fp) AS r10, cos(fx)*cos(fp) - sin(fx)*sin(ft)*sin(fp) AS r11, sin(fx)*cos(fp) + cos(fx)*sin(ft)*sin(fp) AS r12,
  sin(ft) AS r20, -sin(fx)*cos(ft) AS r21, cos(fx)*cos(ft) AS r22
 FROM rot),
hel AS (SELECT crt.doc_id,
  m.sc*(m.r00*X + m.r10*Y + m.r20*Z) + 598.1 AS X,
  m.sc*(m.r01*X + m.r11*Y + m.r21*Z) + 73.7  AS Y,
  m.sc*(m.r02*X + m.r12*Y + m.r22*Z) + 418.2 AS Z
 FROM crt, m),
dst AS (SELECT 6378137.0 AS a2, 1.0/298.257222101 AS f2),
dste AS (SELECT a2, (1.0 - f2)*a2 AS b2, 2*f2 - f2*f2 AS es2,
                (2*f2 - f2*f2)/(1 - (2*f2 - f2*f2)) AS e2s2 FROM dst),
inv1 AS (SELECT hel.doc_id, X, Y, Z, sqrt(X*X + Y*Y) AS p, a2, b2, es2, e2s2 FROM hel, dste),
inv2 AS (SELECT *,
  (Z*a2) / sqrt((Z*a2)*(Z*a2) + (p*b2)*(p*b2)) AS s_theta,
  (p*b2) / sqrt((Z*a2)*(Z*a2) + (p*b2)*(p*b2)) AS c_theta
 FROM inv1),
inv3 AS (SELECT doc_id, X, Y, p,
  Z + e2s2*b2*s_theta*s_theta*s_theta AS y_phi,
  p - es2*a2*c_theta*c_theta*c_theta  AS x_phi
 FROM inv2)
SELECT doc_id,
  ROUND(degrees(atan2(Y, X)), 6) AS rlon,
  ROUND(degrees(atan(y_phi / x_phi)), 6) AS rlat
FROM inv3 ORDER BY doc_id
"""


# DEG_TO_RAD literal (core/constants.py) — CAST is load-bearing: DuckDB
# parses a bare 18-digit literal as DECIMAL and decimal arithmetic is
# not IEEE double, which breaks the bit-exact interpolation chain.
_DRC = "CAST(0.017453292519943296 AS DOUBLE)"
_SECC = f"({_DRC}/3600.0)"  # SEC_TO_RAD (state/grids.py)
_GRID_W = f"(-177.5 * {_DRC})"  # grid west, radians
_GRID_S = f"(-82.5 * {_DRC})"  # grid south, radians
_GRID_R = f"(5.0 * {_DRC})"  # node step, radians


SQL_HGRIDSHIFT = f"""
WITH g AS ({GEOLOC_SQL}),
f AS (SELECT doc_id, lon, lat FROM g
      WHERE lon > -170 AND lon < 170 AND lat > -78 AND lat < 78),
c AS (SELECT doc_id, lon * {_DRC} AS lam, lat * {_DRC} AS phi FROM f),
n AS (SELECT *, (lam - {_GRID_W}) / {_GRID_R} AS gx,
                (phi - {_GRID_S}) / {_GRID_R} AS gy FROM c),
ixy AS (SELECT *, CAST(FLOOR(gx) AS BIGINT) AS ix, CAST(FLOOR(gy) AS BIGINT) AS iy,
                  gx - FLOOR(gx) AS fx, gy - FLOOR(gy) AS fy FROM n),
w AS (SELECT *, (1.0 - fx) * (1.0 - fy) AS m00, fx * (1.0 - fy) AS m10,
                (1.0 - fx) * fy AS m01, fx * fy AS m11 FROM ixy),
v AS (SELECT *,
  CAST(((ix*7 + iy*13) % 41 - 20) * {_SECC} AS REAL) AS e00,
  CAST((((ix+1)*7 + iy*13) % 41 - 20) * {_SECC} AS REAL) AS e10,
  CAST(((ix*7 + (iy+1)*13) % 41 - 20) * {_SECC} AS REAL) AS e01,
  CAST((((ix+1)*7 + (iy+1)*13) % 41 - 20) * {_SECC} AS REAL) AS e11,
  CAST(((ix*11 + iy*5) % 37 - 18) * {_SECC} AS REAL) AS a00,
  CAST((((ix+1)*11 + iy*5) % 37 - 18) * {_SECC} AS REAL) AS a10,
  CAST(((ix*11 + (iy+1)*5) % 37 - 18) * {_SECC} AS REAL) AS a01,
  CAST((((ix+1)*11 + (iy+1)*5) % 37 - 18) * {_SECC} AS REAL) AS a11
 FROM w),
d AS (SELECT doc_id, lam, phi,
  m00*e00 + m10*e10 + m01*e01 + m11*e11 AS dlam,
  m00*a00 + m10*a10 + m01*a01 + m11*a11 AS dphi FROM v)
SELECT doc_id,
  ROUND((lam + dlam) * CAST(57.295779513082321 AS DOUBLE), 6) AS slon,
  ROUND((phi + dphi) * CAST(57.295779513082321 AS DOUBLE), 6) AS slat
FROM d ORDER BY doc_id
"""


SQL_VGRIDSHIFT = f"""
WITH g AS ({GEOLOC_SQL}),
f AS (SELECT doc_id, lon, lat, (doc_id % 1000) * CAST(0.01 AS DOUBLE) AS z FROM g
      WHERE lon > -170 AND lon < 170 AND lat > -78 AND lat < 78),
c AS (SELECT doc_id, z, lon * {_DRC} AS lam, lat * {_DRC} AS phi FROM f),
n AS (SELECT *, (lam - {_GRID_W}) / {_GRID_R} AS gx,
                (phi - {_GRID_S}) / {_GRID_R} AS gy FROM c),
ixy AS (SELECT *, CAST(FLOOR(gx) AS BIGINT) AS ix, CAST(FLOOR(gy) AS BIGINT) AS iy,
                  gx - FLOOR(gx) AS fx, gy - FLOOR(gy) AS fy FROM n),
w AS (SELECT *, (1.0 - fx) * (1.0 - fy) AS wa, fx * (1.0 - fy) AS wb,
                (1.0 - fx) * fy AS wc, fx * fy AS wd FROM ixy),
v AS (SELECT *,
  ((ix*3 + iy*7) % 50 - 25) * 0.25 AS va,
  (((ix+1)*3 + iy*7) % 50 - 25) * 0.25 AS vb,
  ((ix*3 + (iy+1)*7) % 50 - 25) * 0.25 AS vc,
  (((ix+1)*3 + (iy+1)*7) % 50 - 25) * 0.25 AS vd
 FROM w)
SELECT doc_id,
  CAST(FLOOR((z + ((va*wa + vb*wb + vc*wc + vd*wd) / (wa + wb + wc + wd)) * -1.0) * 1000000.0)
       AS BIGINT) AS zshift_um
FROM v ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Relational / aggregate queries (engine breadth: groupby, join, sort, window)
# ---------------------------------------------------------------------------


def q_agg_lineitem(sf_dir: str):
    """TPC-H Q1-flavoured pricing summary with exact integer cents. Each
    block reduces to one int64 partial row per (l_returnflag,
    l_linestatus) pair, so at most blocks × 6 rows (3 return flags × 2
    line statuses) reach ``merge_partials`` whatever the row count."""

    def partial(batch: pa.Table) -> pa.Table:
        price_cents = np.round(batch.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
        disc_bp = np.round(batch.column("l_discount").to_numpy() * 100).astype(np.int64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty": batch.column("l_quantity").to_numpy().astype(np.int64),
            "price": price_cents,
            "rev": price_cents * (100 - disc_bp),
        }).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price", "sum"), ("rev", "sum"), ([], "count_all")])

    parts = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow")
    return merge_partials(parts, {"l_returnflag": object, "l_linestatus": object}, {
        "sum_qty": ("qty_sum", "sum"), "sum_price_cents": ("price_sum", "sum"),
        "sum_revenue": ("rev_sum", "sum"), "n_rows": ("count_all", "sum"),
    })


SQL_AGG_LINEITEM = """
SELECT l_returnflag, l_linestatus,
  CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
  CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT) * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_revenue,
  COUNT(*) AS n_rows
FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_join_orders_customer(sf_dir: str):
    """Broadcast hash join: the small customer side is put in the
    object store ONCE as sorted key/segment arrays and looked up with
    np.searchsorted inside each batch — no Python dict, no per-row
    .map. An order whose key is past the last customer key or differs
    from the key found has no customer and drops out (an inner join).
    Each block reduces to int64 (segment → count/cents) partials, at
    most blocks × segments rows (5 in TPC-H), which ``merge_partials``
    sums on the driver."""
    import ray

    cust = collect(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
                   {"c_custkey": np.int64, "c_mktsegment": object})
    keys = cust["c_custkey"].to_numpy(np.int64)
    order = np.argsort(keys)
    segs, seg_codes = np.unique(cust["c_mktsegment"].to_numpy()[order], return_inverse=True)
    side = ray.put((keys[order], seg_codes.astype(np.int64), segs))

    def joiner(batch: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        skeys, scodes, snames = _ray.get(side)
        ck = batch["o_custkey"].to_numpy(np.int64)
        pos = np.searchsorted(skeys, ck)
        hit = pos < len(skeys)
        hit[hit] = skeys[pos[hit]] == ck[hit]
        code = scodes[pos[hit]]
        cents = np.round(batch["o_totalprice"].to_numpy()[hit] * 100).astype(np.int64)
        n = np.bincount(code, minlength=len(snames))
        tot = np.zeros(len(snames), dtype=np.int64)
        np.add.at(tot, code, cents)
        keep = n > 0
        return pd.DataFrame(
            {"c_mktsegment": snames[keep], "n_part": n[keep], "cents_part": tot[keep]}
        )

    partials = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        joiner, batch_format="pandas"
    )
    return merge_partials(partials, {"c_mktsegment": object}, {
        "n_orders": ("n_part", "sum"), "total_cents": ("cents_part", "sum")})


SQL_JOIN = """
SELECT c.c_mktsegment, COUNT(*) AS n_orders,
  CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_events_window(sf_dir: str):
    """Tumbling 1-hour windows per event type (streaming-shaped input).
    Each block reduces to one partial row per (event_type, window) it
    holds, so at most blocks × types × hours-spanned rows (5 × 720 for
    the 30 days of events) reach ``merge_partials``, never event rows."""

    def partial(batch: pa.Table) -> pa.Table:
        epoch = batch.column("ts").to_numpy().astype("datetime64[s]").astype(np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "window": epoch // 3600,
            "cents": np.floor(batch.column("value").to_numpy() * 100).astype(np.int64),
        }).group_by(["event_type", "window"]).aggregate([("cents", "sum"), ([], "count_all")])

    parts = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow")
    return merge_partials(parts, {"event_type": object, "window": np.int64}, {
        "n_events": ("count_all", "sum"), "sum_cents": ("cents_sum", "sum")})


SQL_EVENTS_WINDOW = """
SELECT event_type, CAST(FLOOR(epoch(ts)/3600) AS BIGINT) AS window,
  COUNT(*) AS n_events,
  CAST(SUM(CAST(FLOOR(value*100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity) per event type,
    with no shuffle. Each read block sorts by (event_type, t) and emits
    session fragments (event_type, start, end, n); the driver merges
    one event type's fragments by start, starting a new session where
    ``start`` exceeds the running max of earlier ``end`` by more than
    the gap. A fragment lies inside one global session (events from
    other blocks only shorten its gaps), so this is exact for any split
    into blocks, also blocks that overlap in time. Fragments number at
    most sessions + blocks × types; no raw event leaves its block."""
    GAP_MS = 1_800_000  # 30 min, integer milliseconds (exact both sides)

    def fragments(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.column("ts").to_numpy().astype("datetime64[ms]").astype(np.int64)
        # group by the block's dictionary code, not the string: one
        # block holds a whole file, and an integer sort is several
        # times faster than a sort of Python strings
        et = pc.dictionary_encode(batch.column("event_type")).combine_chunks()
        code = et.indices.to_numpy()
        order = np.lexsort((t, code))
        t, code = t[order], code[order]
        new_s = np.ones(len(t), dtype=bool)
        new_s[1:] = (code[1:] != code[:-1]) | (np.diff(t) > GAP_MS)
        last = np.ones(len(t), dtype=bool)
        last[:-1] = new_s[1:]
        starts, ends = np.flatnonzero(new_s), np.flatnonzero(last)
        return pa.table({"event_type": et.dictionary.take(code[starts]),
                         "start": t[starts], "end": t[ends], "n": ends - starts + 1})

    def merge(event_type, g: pd.DataFrame) -> tuple:
        g = g.sort_values("start", kind="mergesort")
        start, n = g["start"].to_numpy(), g["n"].to_numpy(np.int64)
        reach = np.maximum.accumulate(g["end"].to_numpy())
        new = np.ones(len(g), dtype=bool)
        new[1:] = start[1:] - reach[:-1] > GAP_MS
        sizes = np.add.reduceat(n, np.flatnonzero(new))
        return event_type, len(sizes), sizes.max(), n.sum()

    frags = _read(sf_dir, "events", ["ts", "event_type"]).map_batches(
        fragments, batch_format="pyarrow").to_pandas()
    rows = [merge(et, g) for et, g in frags.groupby("event_type")] if len(frags) else []
    cols = ["event_type", "n_sessions", "max_session_events", "n_events"]
    return pd.DataFrame(rows, columns=cols).astype({c: np.int64 for c in cols[1:]})


SQL_EVENTS_SESSIONS = """
WITH o AS (
  SELECT event_type, epoch_ms(ts) AS t,
         LAG(epoch_ms(ts)) OVER (PARTITION BY event_type ORDER BY epoch_ms(ts)) AS prev
  FROM events),
f AS (
  SELECT event_type, t,
         CASE WHEN prev IS NULL OR t - prev > 1800000 THEN 1 ELSE 0 END AS new_s
  FROM o),
s AS (
  SELECT event_type, t,
         SUM(new_s) OVER (PARTITION BY event_type ORDER BY t
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM f),
per AS (SELECT event_type, sid, COUNT(*) AS n FROM s GROUP BY 1, 2)
SELECT event_type,
  CAST(MAX(sid) AS BIGINT) AS n_sessions,
  CAST(MAX(n) AS BIGINT) AS max_session_events,
  CAST(SUM(n) AS BIGINT) AS n_events
FROM per GROUP BY 1 ORDER BY 1
"""


def q_top_orders(sf_dir: str):
    """The 10 dearest orders by (price_cents desc, o_orderkey asc): each
    block keeps its own top 10 and the driver takes the top 10 of the
    at most blocks × 10 collected rows, exact since the order is total."""

    def top(batch: pa.Table) -> pd.DataFrame:
        cents = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame({"o_orderkey": batch.column("o_orderkey").to_numpy(),
                           "price_cents": cents})
        return _top(df, 10, "price_cents", "o_orderkey")

    parts = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        top, batch_format="pyarrow")
    return _top(collect(parts, {"o_orderkey": np.int64, "price_cents": np.int64}),
                10, "price_cents", "o_orderkey")


SQL_TOP_ORDERS = """
SELECT o_orderkey, CAST(ROUND(o_totalprice*100) AS BIGINT) AS price_cents
FROM orders ORDER BY price_cents DESC, o_orderkey LIMIT 10
"""


def q_distinct_brands(sf_dir: str):
    """Parts per brand: each block counts its brands, at most blocks ×
    25 rows (TPC-H's Brand#MN), and ``merge_partials`` sums them."""
    parts = _read(sf_dir, "part", ["p_brand"]).map_batches(
        lambda t: t.group_by("p_brand").aggregate([([], "count_all")]),
        batch_format="pyarrow")
    return merge_partials(parts, {"p_brand": object}, {"n_parts": ("count_all", "sum")})


SQL_DISTINCT_BRANDS = "SELECT p_brand, COUNT(*) AS n_parts FROM part GROUP BY 1 ORDER BY 1"


# ---------------------------------------------------------------------------
# Text / dedup / similarity queries
# ---------------------------------------------------------------------------


def q_dedup_exact(sf_dir: str):
    """Exact dedup: group on content md5, keep min doc_id. Distinct-hash
    count grows with the corpus, so the aggregate goes through
    functions/dedup.group_apply (one sort, one C-speed pandas pass per
    block), not a per-group callback."""

    def hashes(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"text_md5": textfn.md5_hex(batch["text"]), "doc_id": batch["doc_id"]}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        hashes, batch_format="pandas"
    )

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text_md5", sort=False)["doc_id"]
        out = g.min().to_frame("keep_doc_id")
        out["n_dups"] = g.size()
        return out.reset_index()

    return group_apply(ds, "text_md5", collapse)


SQL_DEDUP_EXACT = """
SELECT md5(text) AS text_md5, MIN(doc_id) AS keep_doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_source_stats(sf_dir: str):
    """Per-source corpus stats via map-side partial aggregation: each
    batch emits one row per source (count, sum, min), at most blocks ×
    20 rows (the corpus's sources), and ``merge_partials`` combines them
    on the driver (contrast group_apply, which is for keys that grow
    with the corpus)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", sort=False).agg(
            n_docs=("doc_id", "size"),
            total_chars=("n_chars", "sum"),
            min_doc_id=("doc_id", "min"),
        ).reset_index()

    partials = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"]).map_batches(
        partial, batch_format="pandas"
    )
    return merge_partials(partials, {"source": object}, {
        "n_docs": ("n_docs", "sum"), "total_chars": ("total_chars", "sum"),
        "min_doc_id": ("min_doc_id", "min")})


SQL_SOURCE_STATS = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(n_chars) AS BIGINT) AS total_chars,
  MIN(doc_id) AS min_doc_id
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_source_top_chars(sf_dir: str):
    """Per-key top-k (rank window): 3 longest docs per source. Each
    batch keeps its local top-3 per source; source keys are bounded, so
    the partials merge on the driver with the same ``top_k_per_key``."""
    top3 = functools.partial(top_k_per_key, key="source", score="n_chars",
                             id_col="doc_id", k=3)
    partials = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"]).map_batches(
        top3, batch_format="pandas"
    )
    df = partials.to_pandas()
    if df.columns.empty:  # no block, so no schema, reaches the driver from an empty read
        df = pd.DataFrame(columns=["doc_id", "source", "n_chars"]).astype(
            {"doc_id": np.int64, "n_chars": np.int64})
    return top3(df)[["source", "rank", "doc_id", "n_chars"]]


SQL_SOURCE_TOP_CHARS = """
WITH r AS (
  SELECT source, doc_id, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source
             ORDER BY n_chars DESC, doc_id) AS rank
  FROM documents)
SELECT source, rank, doc_id, n_chars FROM r WHERE rank <= 3
ORDER BY source, rank
"""


def q_dedup_clusters(sf_dir: str):
    """Duplicate-cluster resolution end-to-end: candidate edges from
    TWO overlapping equivalence relations (exact text md5 + 24-char
    prefix buckets — their union chains across relations, so real
    transitive closure is required), resolved by the distributed
    large-star/small-star connected-components
    (functions/dedup.connected_components_ds, Kiveris et al. SoCC'14).
    The DuckDB oracle computes the same fixpoint with a recursive CTE
    — a full rows+hash check of distributed CC."""
    from ..functions.dedup import connected_components_ds, star_edges

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "text_md5": textfn.md5_hex(t),
                "prefix": t.str.slice(0, 24),
            }
        )

    keyed = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        keys, batch_format="pandas"
    )
    e1 = star_edges(keyed.select_columns(["text_md5", "doc_id"]), "text_md5", "doc_id")
    e2 = star_edges(keyed.select_columns(["prefix", "doc_id"]), "prefix", "doc_id")

    def self_edges(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({"a": ids, "b": ids})

    # self-loops keep singleton docs in the output
    e0 = keyed.map_batches(self_edges, batch_format="pandas")
    return connected_components_ds(e0.union(e1).union(e2))


SQL_DEDUP_CLUSTERS = """
WITH e1 AS (
  SELECT MIN(doc_id) OVER (PARTITION BY md5(text)) AS a, doc_id AS b FROM documents),
e2 AS (
  SELECT MIN(doc_id) OVER (PARTITION BY substr(text, 1, 24)) AS a, doc_id AS b
  FROM documents),
edges AS (
  SELECT a, b FROM e1 WHERE a < b
  UNION SELECT a, b FROM e2 WHERE a < b),
und AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
nodes AS (SELECT DISTINCT doc_id AS node FROM documents),
r AS (
  WITH RECURSIVE reach(node, lab) AS (
    SELECT node, node AS lab FROM nodes
    UNION
    SELECT u.b AS node, reach.lab FROM reach JOIN und u ON u.a = reach.node)
  SELECT node, MIN(lab) AS lab FROM reach GROUP BY node)
SELECT node, CAST(lab AS BIGINT) AS label FROM r ORDER BY node
"""


def q_paragraph_dedup(sf_dir: str):
    """CCNet-style paragraph-level duplication audit: how much of each
    document is made of passages that also occur in OTHER documents.
    The synthetic corpus has no newlines, so the passage unit is a
    non-overlapping 5-token chunk (the SQL twin applies the identical
    chunking rule); cross-doc chunk sharing occurs naturally (~5% of
    distinct chunks at sf0.01).

    Scale shape (the CCNet recipe at 100 TB): only (chunk_md5, doc_id)
    pairs shuffle — never text; chunk-key cardinality grows with the
    corpus, so both the per-chunk doc-count and the per-doc rollup run
    through group_apply (one sort + C-speed pandas per block) instead
    of a per-group callback."""

    CHUNK = 5

    def chunk_pairs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split()
        n = toks.str.len().fillna(0).astype(np.int64).to_numpy()
        ex = toks.explode()
        ex = ex[ex.notna()]
        arr = ex.to_numpy(object)
        tok_doc = np.repeat(np.arange(len(df)), n)
        pos = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        keep = pos < (n[tok_doc] // CHUNK) * CHUNK
        arr = arr[keep]
        rows = tok_doc[keep][::CHUNK]
        m = arr.reshape(-1, CHUNK)
        chunk = pd.Series(m[:, 0], dtype=object).str.cat(
            [pd.Series(m[:, j], dtype=object) for j in range(1, CHUNK)], sep=" "
        )
        out = pd.DataFrame(
            {
                "chunk_md5": textfn.md5_hex(chunk),
                "doc_id": df["doc_id"].to_numpy(np.int64)[rows],
            }
        )
        # distinct per doc: a chunk repeated inside one doc counts once
        return out.drop_duplicates(ignore_index=True)

    pairs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        chunk_pairs, batch_format="pandas"
    )

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        # pairs are doc-distinct, so group size == distinct-doc count
        nd = df.groupby("chunk_md5", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "dup": (nd > 1).to_numpy(np.int64)}
        )

    flagged = group_apply(pairs, "chunk_md5", flag_dups)

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["dup"]
        out = g.size().to_frame("n_chunks")
        out["n_dup_chunks"] = g.sum()
        return out.reset_index()

    return group_apply(flagged, "doc_id", per_doc)


SQL_PARAGRAPH_DEDUP = """
WITH d AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
  FROM documents WHERE length(trim(text)) > 0),
t AS (
  SELECT doc_id, u.tok, u.pos
  FROM d, LATERAL (SELECT unnest(toks) AS tok,
                          generate_subscripts(toks, 1) AS pos) u),
ch AS (
  SELECT doc_id, (pos - 1) // 5 AS cid,
         string_agg(tok, ' ' ORDER BY pos) AS chunk
  FROM t GROUP BY 1, 2 HAVING COUNT(*) = 5),
p AS (SELECT DISTINCT doc_id, chunk FROM ch),
c AS (SELECT chunk, COUNT(*) AS ndocs FROM p GROUP BY 1)
SELECT p.doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks,
       CAST(SUM(CASE WHEN c.ndocs > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_chunks
FROM p JOIN c USING (chunk) GROUP BY 1 ORDER BY 1
"""


def _b_gopher_repetition(df: pd.DataFrame) -> pd.DataFrame:
    """Gopher-style within-document repetition signals (Rae et al.
    2021 §A1.1), a per-batch kernel of q_doc_metrics: per doc, total
    bigram instances, instances beyond the first occurrence of each
    distinct bigram, and the top bigram's count (all-integer)."""
    toks = df["text"].fillna("").str.strip().str.split()
    n = toks.str.len().fillna(0).astype(np.int64).to_numpy()
    ex = toks.explode()
    arr = ex[ex.notna()].to_numpy(object)
    tok_doc = np.repeat(np.arange(len(df)), n)
    same = tok_doc[1:] == tok_doc[:-1] if len(arr) else np.zeros(0, bool)
    big = pd.Series(arr[:-1][same], dtype=object).str.cat(
        pd.Series(arr[1:][same], dtype=object), sep=" "
    )
    counts = (
        pd.DataFrame({"row": tok_doc[:-1][same], "bigram": big})
        .groupby(["row", "bigram"], sort=False)
        .size()
    )
    per = counts.groupby(level=0)
    n_bg = np.zeros(len(df), np.int64)
    n_dist = np.zeros(len(df), np.int64)
    top = np.zeros(len(df), np.int64)
    idx = per.sum().index.to_numpy(np.int64)
    n_bg[idx] = per.sum().to_numpy(np.int64)
    n_dist[idx] = per.size().to_numpy(np.int64)
    top[idx] = per.max().to_numpy(np.int64)
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_bigrams": n_bg,
            "n_dup_instances": n_bg - n_dist,
            "top_bigram_n": top,
        }
    )


SQL_GOPHER_REPETITION = """
WITH d AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
  FROM documents WHERE length(trim(text)) > 0),
t AS (
  SELECT doc_id, u.tok, u.pos
  FROM d, LATERAL (SELECT unnest(toks) AS tok,
                          generate_subscripts(toks, 1) AS pos) u),
bg AS (
  SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram
  FROM t a JOIN t b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
cnt AS (SELECT doc_id, bigram, COUNT(*) AS c FROM bg GROUP BY 1, 2),
per AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_bigrams,
         CAST(SUM(c) - COUNT(*) AS BIGINT) AS n_dup_instances,
         CAST(MAX(c) AS BIGINT) AS top_bigram_n
  FROM cnt GROUP BY 1)
SELECT documents.doc_id, COALESCE(n_bigrams, 0) AS n_bigrams,
       COALESCE(n_dup_instances, 0) AS n_dup_instances,
       COALESCE(top_bigram_n, 0) AS top_bigram_n
FROM documents LEFT JOIN per USING (doc_id) ORDER BY doc_id
"""


def q_dedup_norm(sf_dir: str):
    """Normalization-aware exact dedup (the C4/RefinedWeb first pass:
    lowercase + whitespace-collapse before hashing). The corpus is
    already lowercase/single-spaced, so the input is AUGMENTED with
    deterministic planted variants (doc_id < 25 -> doc_id + 300000,
    uppercased with doubled spaces) that normalize back to their
    originals — the same augmentation is in the SQL twin, making the
    normalizer the thing under test (25 collapsed groups).

    Scale shape: identical to dedup_exact — only (norm_md5, doc_id)
    shuffles, collapse via group_apply."""

    def augment(df: pd.DataFrame) -> pd.DataFrame:
        var = df[df["doc_id"] < 25].copy()
        var["doc_id"] = var["doc_id"] + 300000
        var["text"] = var["text"].fillna("").str.upper().str.replace(
            " ", "  ", regex=False
        )
        return pd.concat([df, var], ignore_index=True)

    def norm_hash(df: pd.DataFrame) -> pd.DataFrame:
        norm = (
            df["text"].fillna("").str.lower()
            .str.replace(r"[ ]+", " ", regex=True)
            .str.strip(" ")
        )
        return pd.DataFrame(
            {"norm_md5": textfn.md5_hex(norm), "doc_id": df["doc_id"]}
        )

    ds = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(augment, batch_format="pandas")
        .map_batches(norm_hash, batch_format="pandas")
    )

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("norm_md5", sort=False)["doc_id"]
        out = g.min().to_frame("keep_doc_id")
        out["n_dups"] = g.size()
        return out.reset_index()

    return group_apply(ds, "norm_md5", collapse)


SQL_DEDUP_NORM = """
WITH base AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 300000 AS doc_id, replace(upper(text), ' ', '  ') AS text
  FROM documents WHERE doc_id < 25),
n AS (
  SELECT doc_id,
         md5(trim(regexp_replace(lower(text), '[ ]+', ' ', 'g'))) AS norm_md5
  FROM base)
SELECT norm_md5, MIN(doc_id) AS keep_doc_id, COUNT(*) AS n_dups
FROM n GROUP BY 1 ORDER BY 1
"""


SQL_TOKEN_STATS = """
SELECT doc_id, length(text) AS n_chars_text,
  CASE WHEN length(trim(text)) = 0 THEN 0
       ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
FROM documents ORDER BY doc_id
"""


SQL_TEXT_QUALITY = """
SELECT doc_id, length(text) AS n_chars_text,
  length(text) - length(regexp_replace(text, '[!-/:-@\\[-`{-~]', '', 'g')) AS n_punct,
  length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')) AS n_upper
FROM documents ORDER BY doc_id
"""


def q_minhash_lsh(sf_dir: str):
    """MinHash-LSH near-dup candidates. The seeded multiply-add hash
    family is deterministic, so the oracle (SQL_MINHASH_LSH) re-derives
    the full sketch in DuckDB mod-2^64 arithmetic. Distinct (band, hash)
    buckets scale with the corpus, so the bucket-size count goes
    through group_apply on (band_id, band_hash), not a per-bucket
    callback."""

    def bands(batch: pd.DataFrame) -> pd.DataFrame:
        return MinHasher().band_rows(batch["doc_id"].to_numpy(), batch["text"])

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        bands, batch_format="pandas"
    )

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["band_id", "band_hash"], sort=False).size()
        out = g[g > 1].rename("n_docs").reset_index()
        return out

    return group_apply(ds, ["band_id", "band_hash"], counts)


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pipeline (skew-safe): sketches collapse into
    hamming-0 classes first (group_apply on the sketch), then only
    class representatives band into four 16-bit keys with a
    deterministic per-bucket cap — see
    functions/dedup.simhash_neardup_pipeline for the 100-TB design.
    Output: star pairs (rep, member, 0) plus rep-rep pairs at
    hamming 1..3. Oracle SQL_SIMHASH_NEARDUP re-derives sketches,
    classes, banding and the popcount verify in DuckDB; also
    golden-pinned in tests/test_neardup_planted.py."""
    from ..functions.dedup import simhash_neardup_pipeline

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "simhash": simhash64(batch["text"]).astype(np.int64),
            }
        )

    sk = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        sketch, batch_format="pandas"
    )
    return simhash_neardup_pipeline(sk)


def _langid_sql() -> str:
    """SQL twin of functions/text.lang_id: per-language sums of
    non-overlapping trigram counts over ' '||lower(first 400 chars)||' ',
    first-argmax with the 'und' floor. Counts stay unscaled (len-diff =
    3x count — argmax invariant)."""

    def cnt(g: str) -> str:
        esc = g.replace("'", "''")
        return f"(length(s) - length(replace(s, '{esc}', '')))"

    langs = list(textfn._LANG_PROFILES)
    sums = ",\n  ".join(
        " + ".join(cnt(g) for g in textfn._LANG_PROFILES[lang]) + f" AS s_{lang}"
        for lang in langs
    )
    cases = "\n  ".join(
        "WHEN "
        + " AND ".join([f"s_{lang} >= s_{other}" for other in langs[i + 1:]]
                       + [f"s_{lang} > 0"])
        + f" THEN '{lang}'"
        for i, lang in enumerate(langs)
    )
    return f"""
WITH t AS (SELECT doc_id, ' ' || lower(substr(text, 1, 400)) || ' ' AS s FROM documents),
sc AS (SELECT doc_id,
  {sums}
 FROM t)
SELECT doc_id, CASE
  {cases}
  ELSE 'und' END AS lang_guess
FROM sc ORDER BY doc_id
"""


SQL_LANGID = _langid_sql()


SQL_FINGERPRINT = """
SELECT doc_id,
  CAST(('0x' || substr(md5(text), 1, 16)) AS UBIGINT) AS fp64
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# SQL twins of the dedup sketch kernels (functions/dedup.py). The engine's
# hash family is fully deterministic wrapping Z_2^64 arithmetic — token
# hash = FNV-1a byte fold, shingle hash = rolling polynomial over token
# hashes, minhash = min of (a*h+b mod 2^64) — all re-expressed in DuckDB
# with HUGEINT mod-2^64 arithmetic (64-bit multiplies split into 32-bit
# halves where a*s could overflow the signed 128-bit HUGEINT).
# ---------------------------------------------------------------------------

_M64 = "18446744073709551616::HUGEINT"  # 2^64
_SQLP = "1099511628211::HUGEINT"        # dedup._POLY
_SQL_FNV = "14695981039346656037::HUGEINT"   # dedup._FNV_BASIS
_SQL_EMPTY = "11400714819323198485::HUGEINT"  # dedup._EMPTY_HASH
_I64MAX1 = "9223372036854775808::HUGEINT"     # 2^63 (uint64 -> int64 wrap)


def _dedup_hash_ctes(k: int, text_expr: str = "text",
                     source: str = "documents") -> str:
    """CTE chain doc -> whitespace tokens -> FNV-1a token hashes ->
    k-token rolling-polynomial shingle hashes (exactly
    dedup._token_hashes + dedup.batch_shingle_hashes semantics: empty
    tokens dropped, short docs one whole-doc shingle, empty docs the
    _EMPTY_HASH sentinel). Text is ASCII so ascii(char) == utf-8 byte."""
    if k == 3:
        roll = (f"((((h[CAST(i AS BIGINT)]*{_SQLP} + h[CAST(i AS BIGINT)+1]) % {_M64})"
                f" * {_SQLP} + h[CAST(i AS BIGINT)+2]) % {_M64})")
    elif k == 2:
        roll = f"((h[CAST(i AS BIGINT)]*{_SQLP} + h[CAST(i AS BIGINT)+1]) % {_M64})"
    else:
        # general k: 1-based inclusive list slice + the same polynomial
        # fold (list_reduce with no init starts at h[i], matching w=0;
        # w = w*P + h in the kernel)
        roll = (f"(list_reduce(h[CAST(i AS BIGINT):CAST(i AS BIGINT)+{k - 1}],"
                f" (a, b) -> (a*{_SQLP} + b) % {_M64}))")
    return f"""
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array({text_expr}, '\\s+'), t -> t <> '') AS tk
  FROM {source}
),
th AS (
  SELECT doc_id, len(tk) AS cnt,
         list_transform(tk, t ->
           list_reduce(
             list_prepend({_SQL_FNV},
               list_transform(range(1, length(t)+1), i -> CAST(ascii(t[i]) AS HUGEINT))),
             (acc, b) -> ((acc - acc % 256
                           + CAST(xor(CAST(acc % 256 AS BIGINT), CAST(b AS BIGINT)) AS HUGEINT))
                          * {_SQLP}) % {_M64}
           )
         ) AS h
  FROM toks
),
sh AS (
  SELECT doc_id, cnt,
    CASE
      WHEN cnt = 0 THEN [{_SQL_EMPTY}]
      WHEN cnt < {k} THEN [list_reduce(h, (a, b) -> (a*{_SQLP} + b) % {_M64})]
      ELSE list_transform(range(1, cnt - {k} + 2), i -> {roll})
    END AS sh
  FROM th
)
"""


def _minhash_lsh_sql() -> str:
    """q_minhash_lsh twin: 64 multiply-add minhashes (engine's seeded
    parameters embedded as literals), 16 bands of 4 rows folded with the
    same polynomial, buckets with >1 doc."""
    from ..functions.dedup import _hash_params

    a, b = _hash_params(64, 42)
    params = ",".join(
        f"({h}, {int(a[h])}::HUGEINT, {int(b[h])}::HUGEINT)" for h in range(64)
    )
    return f"""
WITH {_dedup_hash_ctes(3)},
params(hi, a, b) AS (VALUES {params}),
shu AS (SELECT doc_id, unnest(sh) AS s FROM sh),
sig AS (
  SELECT t.doc_id, p.hi,
         min(( (p.a % 4294967296) * t.s
             + ((p.a // 4294967296) * t.s % 4294967296) * 4294967296
             + p.b ) % {_M64}) AS sig
  FROM shu t CROSS JOIN params p GROUP BY t.doc_id, p.hi
),
sigl AS (SELECT doc_id, list(sig ORDER BY hi) AS sg FROM sig GROUP BY doc_id),
bands AS (
  SELECT doc_id, bb.b AS band_id,
    (((((sg[4*bb.b+1] * {_SQLP} + sg[4*bb.b+2]) % {_M64}) * {_SQLP}
       + sg[4*bb.b+3]) % {_M64}) * {_SQLP} + sg[4*bb.b+4]) % {_M64} AS bh
  FROM sigl CROSS JOIN (SELECT unnest(range(0, 16)) AS b) bb
)
SELECT band_id,
  CAST(CASE WHEN bh >= {_I64MAX1} THEN bh - {_M64} ELSE bh END AS BIGINT) AS band_hash,
  CAST(count(*) AS BIGINT) AS n_docs
FROM bands GROUP BY band_id, bh HAVING count(*) > 1
ORDER BY band_id, band_hash
"""


_SIMHASH_VAL_CTES = f"""{_dedup_hash_ctes(2)},
pow2(j, p) AS (VALUES {",".join(f"({j}, {1 << j}::HUGEINT)" for j in range(64))}),
sh2 AS (SELECT doc_id, cnt, len(sh) AS nsh, unnest(sh) AS s FROM sh),
bitsum AS (
  SELECT t.doc_id, any_value(t.cnt) AS cnt, any_value(t.nsh) AS nsh, p.j, p.p,
         sum(CAST((t.s // p.p) % 2 AS HUGEINT)) AS c1
  FROM sh2 t CROSS JOIN pow2 p GROUP BY t.doc_id, p.j, p.p
),
simval AS (
  SELECT doc_id, any_value(cnt) AS cnt,
         sum(CASE WHEN 2*c1 > nsh THEN p ELSE 0::HUGEINT END) AS v
  FROM bitsum GROUP BY doc_id
),
sk AS (
  SELECT doc_id,
    CAST(CASE WHEN cnt = 0 THEN 0
              WHEN v >= {_I64MAX1} THEN v - {_M64}
              ELSE v END AS BIGINT) AS simhash,
    CASE WHEN cnt = 0 THEN 0::HUGEINT ELSE v END AS uv
  FROM simval
)"""

SQL_SIMHASH = f"""
WITH {_SIMHASH_VAL_CTES}
SELECT doc_id, simhash FROM sk ORDER BY doc_id
"""

# simhash_neardup twin: hamming-0 classes collapse to (rep, member, 0)
# star pairs; distinct-sketch representatives band into four 16-bit keys
# and rep-rep pairs verify with bit_count(xor) in 1..3 (two's-complement
# popcount == uint64 popcount). The engine's bucket_cap=2000 cannot
# trigger at driver scale (500 distinct sketches max).
SQL_SIMHASH_NEARDUP = f"""
WITH {_SIMHASH_VAL_CTES},
classes AS (
  SELECT simhash, uv, min(doc_id) AS rep, count(*) AS n
  FROM sk GROUP BY simhash, uv
),
zero AS (
  SELECT c.rep AS doc_a, s.doc_id AS doc_b, 0::BIGINT AS hamming
  FROM sk s JOIN classes c USING (simhash)
  WHERE c.n > 1 AND s.doc_id <> c.rep
),
bandkeys(b, d) AS (VALUES (0, 1::HUGEINT), (1, 65536::HUGEINT),
                          (2, 4294967296::HUGEINT), (3, 281474976710656::HUGEINT)),
bands AS (
  SELECT bk.b, (c.uv // bk.d) % 65536 AS key, c.rep, c.simhash
  FROM classes c CROSS JOIN bandkeys bk
),
cand AS (
  SELECT DISTINCT x.rep AS doc_a, y.rep AS doc_b,
         CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming
  FROM bands x JOIN bands y ON x.b = y.b AND x.key = y.key AND x.rep < y.rep
  WHERE bit_count(xor(x.simhash, y.simhash)) BETWEEN 1 AND 3
)
SELECT doc_a, doc_b, hamming FROM zero
UNION ALL
SELECT doc_a, doc_b, hamming FROM cand
ORDER BY doc_a, doc_b
"""

SQL_MINHASH_LSH = _minhash_lsh_sql()


def q_kmeans_embed(sf_dir: str):
    """Distributed k-means (Lloyd) over the embedding table — the
    iterative-ML-loop shape at 100 TB: each iteration is ONE map-only
    pass emitting K partial (count, sum-vector) rows per block (the
    classic combiner — no shuffle of the points, only K x n_blocks
    tiny partials reach the driver), the K x D centroid matrix
    broadcasts back per iteration. The K seed centroids (vec_id < K)
    are read on the driver by ``_vectors_below``, and every pass builds
    its block matrix with ``emb_matrix``: 3 Ray Data executions per
    call (2 iterations, then the assignment). Determinism contract for the
    oracle: centroids round to 1e-5 after every update, assignment
    uses squared-euclidean distance rounded to 1e-5 with ties to the
    lowest cluster id — the SQL twin unrolls both iterations as CTEs
    and reproduces the identical fixed points.

    Rounding margin (round-4 verdict task 7): the pre-rounding sums
    are computed in different orders (numpy per-block partials vs
    DuckDB sequential list_sum), so a value landing EXACTLY on a
    rounding boundary could flip between engine and oracle. The
    contract rounds at 1e-5 (widened from 1e-6) on BOTH sides, which
    makes the boundary set 10x sparser relative to the ~1e-12
    float64 reorder noise. Verified exact at sf0.001/0.01/0.1."""
    K, ITERS = 8, 2
    C = _vectors_below(sf_dir, K)[1]
    if not len(C):  # no initial centroids, so no vector is assigned
        return pd.DataFrame({"vec_id": [], "cluster": []}, dtype=np.int64)
    D = C.shape[1]
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
        d = np.round(((X[:, None, :] - C[None, :, :]) ** 2).sum(-1), 5)
        return np.argmin(d, axis=1)

    for _ in range(ITERS):
        def partial(batch: pa.Table, C=C) -> pd.DataFrame:
            X = emb_matrix(batch)[1]
            lab = assign(X, C)
            sums = np.zeros((K, D))
            np.add.at(sums, lab, X)
            return pd.DataFrame(
                {
                    "k": np.arange(K, dtype=np.int64),
                    "n": np.bincount(lab, minlength=K).astype(np.int64),
                    "s": list(sums),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        counts = parts.groupby("k")["n"].sum().to_numpy()
        sums = np.zeros((K, D))
        for k_, s_ in zip(parts["k"].to_numpy(), parts["s"].to_numpy()):
            sums[k_] += s_
        with np.errstate(invalid="ignore"):
            newC = np.round(sums / counts[:, None], 5)
        C = np.where((counts > 0)[:, None], newC, C)

    def final(batch: pa.Table, C=C) -> pd.DataFrame:
        ids, X = emb_matrix(batch)
        return pd.DataFrame({"vec_id": ids, "cluster": assign(X, C).astype(np.int64)})

    return ds.map_batches(final, batch_format="pyarrow")


def _kmeans_sql() -> str:
    K = 8

    def dist_assign(src_c: str, tag: str) -> str:
        return f"""
d{tag} AS (
  SELECT e.vec_id, c.k,
    round(list_sum(list_transform(range(1, 65),
          i -> (e.v[CAST(i AS BIGINT)] - c.c[CAST(i AS BIGINT)])
             * (e.v[CAST(i AS BIGINT)] - c.c[CAST(i AS BIGINT)]))), 5) AS dist
  FROM e CROSS JOIN {src_c} c
),
a{tag} AS (
  SELECT vec_id, k FROM (
    SELECT vec_id, k, row_number() OVER (PARTITION BY vec_id ORDER BY dist, k) AS rn
    FROM d{tag}) WHERE rn = 1
)"""

    def update(a_tag: str, prev_c: str, out_c: str) -> str:
        return f"""
m{out_c} AS (
  SELECT a.k, dd.i, round(avg(e.v[CAST(dd.i AS BIGINT)]), 5) AS cv
  FROM a{a_tag} a JOIN e ON e.vec_id = a.vec_id
  CROSS JOIN (SELECT unnest(range(1, 65)) AS i) dd
  GROUP BY a.k, dd.i
),
{out_c} AS (
  SELECT k, list(cv ORDER BY i) AS c FROM m{out_c} GROUP BY k
  UNION ALL
  SELECT k, c FROM {prev_c}
  WHERE k NOT IN (SELECT DISTINCT k FROM a{a_tag})
)"""

    return f"""
WITH e AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
c0 AS (SELECT vec_id AS k, v AS c FROM e WHERE vec_id < {K}),
{dist_assign('c0', '1')},
{update('1', 'c0', 'c1')},
{dist_assign('c1', '2')},
{update('2', 'c1', 'c2')},
{dist_assign('c2', '3')}
SELECT vec_id, CAST(k AS BIGINT) AS cluster FROM a3 ORDER BY vec_id
"""


SQL_KMEANS_EMBED = _kmeans_sql()


def _vectors_below(sf_dir: str, n: int):
    """(ids, matrix) of the embeddings with ``vec_id < n``, in vec_id
    order: the oracles' query and centroid sets, whatever the file
    order."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", n)]).sort_by("vec_id")
    return emb_matrix(tbl)


def _cosine_topk(sf_dir: str, qids, queries, mask=None):
    """Exact cosine top-(KNN_K + 1) of ``queries`` vs all embeddings:
    per-batch ``topk_rows``, driver ``top_k_per_key``. ``mask(vecs)``
    returns the (Q, N) candidates kept; the rest score ``-inf``. einsum,
    not a BLAS matmul: each cosine is then the same bits wherever its
    vector sits in whichever batch, so exact ties stay ties."""
    qn = _normalize(queries)

    def fn(batch: pa.Table) -> pa.Table:
        ids, vecs = emb_matrix(batch)
        sims = np.einsum("qd,nd->qn", qn, _normalize(vecs))
        if mask is not None:
            sims[~mask(vecs)] = -np.inf
        q, vid, cos = topk_rows(sims, ids, KNN_K + 1)
        return pa.table({"query_id": qids[q], "vec_id": vid, "cosine": cos})

    partials = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        fn, batch_format="pyarrow")
    partials = collect(partials, {"query_id": np.int64, "vec_id": np.int64,
                                  "cosine": np.float64})
    out = top_k_per_key(partials, "query_id", "cosine", "vec_id", KNN_K + 1)
    return out[["query_id", "rank", "vec_id"]].astype("int64")


def q_ann_cosine(sf_dir: str):
    """Brute-force cosine top-k of the embeddings with vec_id < 5 vs all."""
    return _cosine_topk(sf_dir, *_vectors_below(sf_dir, 5))


SQL_ANN = f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
d AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(e.embedding, q.qe) AS cosine
  FROM embeddings e CROSS JOIN q),
r AS (
  SELECT query_id, vec_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
  FROM d)
SELECT query_id, rank, vec_id FROM r WHERE rank <= {KNN_K + 1}
ORDER BY query_id, rank
"""


def q_knn_join(sf_dir: str):
    """Embedding kNN self-join: every vector's top-k cosine neighbors
    (self excluded), exact, tie-broken (cosine desc, id asc). The
    corpus-side state, the ids and the normalized matrix, is built from
    Arrow value buffers, shipped ONCE via ray.put, and probed read-only
    by every batch, which finishes its vectors' top-k in its own task.
    Scores use einsum, not a BLAS matmul, so exact duplicate vectors
    score the same bits wherever they sit and ties break on
    neighbor_id. Map-only: no shuffle; output (vec_id, rank,
    neighbor_id), collected on the driver."""
    import pyarrow.parquet as pq
    import ray

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids_all, mat = emb_matrix(tbl)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    state_ref = ray.put((ids_all, matn))

    def fn(batch: pa.Table) -> pd.DataFrame:
        ids_c, matn_c = ray.get(state_ref)  # zero-copy shared-memory view per node
        qids, q = emb_matrix(batch)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = np.einsum("qd,nd->qn", qn, matn_c)
        sims[qids[:, None] == ids_c[None, :]] = -np.inf
        _, nbr = topk_window(sims, ids_c, KNN_K)
        return pd.DataFrame(
            {
                "vec_id": np.repeat(qids, KNN_K),
                "rank": np.tile(np.arange(1, KNN_K + 1, dtype=np.int64),
                                len(qids)),
                "neighbor_id": nbr.ravel(),
            }
        )

    pairs = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        fn, batch_format="pyarrow")
    return collect(pairs, {"vec_id": np.int64, "rank": np.int64,
                           "neighbor_id": np.int64})


SQL_KNN_JOIN = f"""
WITH d AS (
  SELECT a.vec_id, b.vec_id AS neighbor_id,
         list_cosine_similarity(a.embedding, b.embedding) AS cosine
  FROM embeddings a CROSS JOIN embeddings b
  WHERE a.vec_id <> b.vec_id),
r AS (
  SELECT vec_id, neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY vec_id
                            ORDER BY cosine DESC, neighbor_id) AS rank
  FROM d)
SELECT vec_id, rank, neighbor_id FROM r WHERE rank <= {KNN_K}
ORDER BY vec_id, rank
"""


def q_ngram_jaccard(sf_dir: str):
    """Exact n-gram (3-token shingle) Jaccard similarity over candidate
    doc pairs: the verification kernel of the near-dup family. The
    synthetic corpus carries almost no natural near-duplicates, so the
    candidate set is AUGMENTED with deterministic planted variants
    (doc_id < 30 -> doc_id + 100000, first token dropped) — the same
    augmentation is expressed in the SQL twin, making the verify
    kernel non-vacuous (tens of matching pairs instead of 0).

    Scale shape (round-4 verdict task 3 — the former per-pair Python
    set loop is gone): per-doc DISTINCT shingle hashes emit as
    (hash, doc, n_sh) rows; a group_apply sort on the hash expands
    co-occurring docs into (doc_a, doc_b) pair rows with pure
    repeat/cumsum arithmetic (functions/dedup.cooccurrence_pairs); a
    second group_apply on the pair sums intersection counts
    and computes Jaccard vectorized. Only (hash, doc) and (pair,
    count) rows ever shuffle — at 100 TB the candidate universe is
    LSH-pruned first (minhash_lsh) and this leg runs on the pruned
    pairs with the same kernels."""
    from ..functions.dedup import cooccurrence_pairs, distinct_shingle_rows

    N_DOCS = 60
    N_VARIANTS = 30
    K = 3
    THRESH = 0.2

    def augment(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] < N_DOCS][["doc_id", "text"]]
        var = df[df["doc_id"] < N_VARIANTS].copy()
        var["doc_id"] = var["doc_id"] + 100000
        var["text"] = var["text"].fillna("").str.replace(
            r"^\S+\s+", "", n=1, regex=True
        )
        return pd.concat([df, var], ignore_index=True)

    def shingle_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = augment(df)
        toks = df["text"].fillna("").str.split().str.len().to_numpy()
        df = df[toks >= K].reset_index(drop=True)
        d, h, n = distinct_shingle_rows(df["text"], K)
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "sh": h.astype(np.int64),  # wrap-to-int64 view of the u64 hash
                "doc_id": ids[d],
                "n_sh": n[d],
            }
        )

    rows = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        shingle_rows, batch_format="pandas"
    )

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sh", "doc_id"], kind="mergesort")
        a, b = cooccurrence_pairs(df["sh"].to_numpy())
        ids = df["doc_id"].to_numpy(np.int64)
        nsh = df["n_sh"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_a": ids[a],
                "doc_b": ids[b],
                "n_a": nsh[a],
                "n_b": nsh[b],
            }
        )

    pairs = group_apply(rows, "sh", expand)

    def reduce_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["doc_a", "doc_b"], sort=False)
        out = g.agg(
            i=("n_a", "size"), n_a=("n_a", "first"), n_b=("n_b", "first")
        ).reset_index()
        jac = np.round(
            out["i"].to_numpy(np.float64)
            / (out["n_a"] + out["n_b"] - out["i"]).to_numpy(np.float64), 6
        )
        out["jaccard"] = jac
        out = out[out["jaccard"] >= THRESH]
        return out[["doc_a", "doc_b", "jaccard"]]

    return group_apply(pairs, ["doc_a", "doc_b"], reduce_pairs)


SQL_NGRAM_JACCARD = """
WITH base AS (
  SELECT doc_id, text FROM documents WHERE doc_id < 60
  UNION ALL
  SELECT doc_id + 100000 AS doc_id,
         regexp_replace(text, '^\\S+\\s+', '') AS text
  FROM documents WHERE doc_id < 30),
d AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
  FROM base WHERE length(trim(text)) > 0),
t AS (
  SELECT doc_id, u.tok, u.pos
  FROM d, LATERAL (SELECT unnest(toks) AS tok,
                          generate_subscripts(toks, 1) AS pos) u
  WHERE len(toks) >= 3),
sh AS (
  SELECT DISTINCT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
  FROM t a JOIN t b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
           JOIN t c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2),
sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, COUNT(*) AS i
  FROM sh x JOIN sh y ON x.shingle = y.shingle AND x.doc_id < y.doc_id
  GROUP BY 1, 2),
j AS (
  SELECT doc_a, doc_b,
         ROUND(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
  FROM inter JOIN sz sa ON sa.doc_id = doc_a JOIN sz sb ON sb.doc_id = doc_b)
SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.2
ORDER BY doc_a, doc_b
"""


def q_embed_neardup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs, IVF-bucketed (the 100-TB
    plan, round-2 VERDICT #7): each vector is multi-assigned to its
    nprobe=4 closest of 8 deterministic centroids, candidate pairs are
    generated WITHIN buckets only (group_apply on the bucket + a
    per-bucket matmul over each block's bucket runs), then
    exact-cosine verified at ≥ 0.4. No driver-side full
    matrix, no whole-table broadcast — only 4x replicated bucket rows
    shuffle. The oracle expresses the SAME bucketed semantics in SQL
    (probe ranking, bucket co-membership, cosine verify), so the check
    is plan-exact at any scale; at the validation scales the bucketed
    result also equals the exhaustive all-pairs result (measured
    recall 100%, nprobe is the recall/cost knob)."""
    THRESH = 0.4
    NPROBE = 4
    index = IVFIndex(_vectors_below(sf_dir, 8)[1])

    def probe_rows(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        probes = index.probe_lists(vecs, NPROBE)  # (n, NPROBE)
        n = len(df)
        return pd.DataFrame(
            {
                "bucket": probes.reshape(-1).astype(np.int64),
                "vec_id": np.repeat(df["vec_id"].to_numpy(np.int64), NPROBE),
                "embedding": df["embedding"].to_numpy().repeat(NPROBE),
            }
        )

    buckets = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        probe_rows, batch_format="pandas"
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(np.int64)
        vecs = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        # one matmul per bucket run (IVF lists are few); chunking
        # bounds memory on a skewed bucket
        starts = runs(df["bucket"].to_numpy())[0]
        a, b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for lo, hi in zip(starts, np.append(starts[1:], len(ids))):
            for s in range(lo, hi, 4096):
                sims = vecs[s:min(s + 4096, hi)] @ vecs[lo:hi].T
                ai, bi = np.nonzero(sims >= THRESH)
                a.append(ids[s + ai])
                b.append(ids[lo + bi])
        a, b = np.concatenate(a), np.concatenate(b)
        keep = a < b
        return pd.DataFrame({"vec_a": a[keep], "vec_b": b[keep]})

    cand = group_apply(buckets, "bucket", bucket_pairs)

    # pairs sharing >1 probe bucket repeat: exact pair dedup
    from ..functions.dedup import dedup_pairs_ds

    return collect(dedup_pairs_ds(cand, "vec_a", "vec_b"),
                   {"vec_a": np.int64, "vec_b": np.int64})


SQL_EMBED_NEARDUP = """
WITH c AS (SELECT vec_id AS cid, embedding AS ce FROM embeddings WHERE vec_id < 8),
p AS (
  SELECT e.vec_id, c.cid,
         ROW_NUMBER() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC, c.cid) AS rn
  FROM embeddings e CROSS JOIN c),
pb AS (SELECT vec_id, cid FROM p WHERE rn <= 4),
cand AS (
  SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
  FROM pb a JOIN pb b ON a.cid = b.cid AND a.vec_id < b.vec_id)
SELECT vec_a, vec_b
FROM cand
JOIN embeddings ea ON ea.vec_id = vec_a
JOIN embeddings eb ON eb.vec_id = vec_b
WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= 0.4
ORDER BY vec_a, vec_b
"""


def q_ann_ivf(sf_dir: str):
    """IVF-bucketed ANN (the 100-TB scale path): coarse quantizer =
    the embeddings with vec_id < 8 as deterministic centroids, vectors bucketed by
    top-1 centroid per batch, each query scanning only its nprobe=3
    probe buckets. Exactly SQL-expressible, so the bucketing AND the
    per-bucket top-k are oracle-checked (not just recall)."""
    NPROBE = 3
    cids, head = _vectors_below(sf_dir, 8)
    index = IVFIndex(head)
    qids, queries = cids[cids < 5], head[cids < 5]
    probes = index.probe_lists(queries, NPROBE)  # (5, 3)

    def in_probes(vecs):
        return (index.assign(vecs)[None, :, None] == probes[:, None, :]).any(axis=2)

    return _cosine_topk(sf_dir, qids, queries, in_probes)


SQL_ANN_IVF = f"""
WITH c AS (SELECT vec_id AS cid, embedding AS ce FROM embeddings WHERE vec_id < 8),
q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
va AS (
  SELECT e.vec_id, e.embedding, c.cid,
         ROW_NUMBER() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC, c.cid) AS rn
  FROM embeddings e CROSS JOIN c),
vb AS (SELECT vec_id, embedding, cid AS bucket FROM va WHERE rn = 1),
qp AS (
  SELECT q.query_id, c.cid,
         ROW_NUMBER() OVER (PARTITION BY q.query_id
             ORDER BY list_cosine_similarity(q.qe, c.ce) DESC, c.cid) AS rn
  FROM q CROSS JOIN c),
qb AS (SELECT query_id, cid FROM qp WHERE rn <= 3),
cand AS (
  SELECT qb.query_id, v.vec_id,
         list_cosine_similarity(v.embedding, q.qe) AS cos
  FROM vb v JOIN qb ON v.bucket = qb.cid JOIN q ON q.query_id = qb.query_id),
r AS (
  SELECT query_id, vec_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rank
  FROM cand)
SELECT query_id, rank, vec_id FROM r WHERE rank <= {KNN_K + 1}
ORDER BY query_id, rank
"""


def _image_payloads(ids: np.ndarray) -> pa.Array:
    """Deterministic image blobs from doc_id arithmetic: format cycles
    PNG/GIF/BMP/JPEG, dims/colortype are integer formulas — so the SQL
    oracle recomputes the truth while the engine must PARSE the bytes.
    Fully vectorized: per-format byte matrices scattered into one Arrow
    binary buffer (no per-row Python)."""
    n = len(ids)
    w = (16 + (ids * 7) % 300).astype(np.int64)
    h = (16 + (ids * 13) % 200).astype(np.int64)
    fmt = (ids % 4).astype(np.int64)  # 0 png, 1 gif, 2 bmp, 3 jpeg
    lens = np.select([fmt == 0, fmt == 1, fmt == 2, fmt == 3], [26, 10, 26, 12])
    offs = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=offs[1:])
    data = np.zeros(int(offs[-1]), dtype=np.uint8)

    def scatter(rows: np.ndarray, mat: np.ndarray) -> None:
        if len(rows):
            data[offs[rows][:, None] + np.arange(mat.shape[1])] = mat

    png = np.nonzero(fmt == 0)[0]
    m = np.zeros((len(png), 26), np.uint8)
    m[:, :8] = np.frombuffer(b"\x89PNG\r\n\x1a\n", np.uint8)
    m[:, 11] = 13
    m[:, 12:16] = np.frombuffer(b"IHDR", np.uint8)
    for k in range(4):
        m[:, 16 + k] = (w[png] >> (8 * (3 - k))) & 255
        m[:, 20 + k] = (h[png] >> (8 * (3 - k))) & 255
    m[:, 24] = 8
    m[:, 25] = np.select(
        [ids[png] % 3 == 0, ids[png] % 3 == 1, ids[png] % 3 == 2], [0, 2, 6]
    )  # IHDR colortype -> channels 1 / 3 / 4
    scatter(png, m)

    gif = np.nonzero(fmt == 1)[0]
    m = np.zeros((len(gif), 10), np.uint8)
    m[:, :6] = np.frombuffer(b"GIF89a", np.uint8)
    m[:, 6] = w[gif] & 255
    m[:, 7] = w[gif] >> 8
    m[:, 8] = h[gif] & 255
    m[:, 9] = h[gif] >> 8
    scatter(gif, m)

    bmp = np.nonzero(fmt == 2)[0]
    m = np.zeros((len(bmp), 26), np.uint8)
    m[:, :2] = np.frombuffer(b"BM", np.uint8)
    for k in range(4):
        m[:, 18 + k] = (w[bmp] >> (8 * k)) & 255
        m[:, 22 + k] = (h[bmp] >> (8 * k)) & 255
    scatter(bmp, m)

    jpg = np.nonzero(fmt == 3)[0]
    m = np.zeros((len(jpg), 12), np.uint8)
    m[:, :4] = np.frombuffer(b"\xff\xd8\xff\xc0", np.uint8)
    m[:, 5] = 11  # SOF0 segment length
    m[:, 6] = 8  # precision
    m[:, 7] = h[jpg] >> 8
    m[:, 8] = h[jpg] & 255
    m[:, 9] = w[jpg] >> 8
    m[:, 10] = w[jpg] & 255
    m[:, 11] = 3
    scatter(jpg, m)

    return pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(data)]
    )


SQL_MULTIMODAL_META = """
SELECT doc_id,
  CAST(16 + (doc_id * 13) % 200 AS INTEGER) AS img_h,
  CAST(16 + (doc_id * 7) % 300 AS INTEGER) AS img_w,
  CAST(CASE WHEN doc_id % 4 IN (1, 2, 3) THEN 3
       WHEN doc_id % 3 = 0 THEN 1 WHEN doc_id % 3 = 1 THEN 3
       ELSE 4 END AS INTEGER) AS img_c,
  CAST(doc_id % 4 + 1 AS INTEGER) AS img_format
FROM documents ORDER BY doc_id
"""


def _audio_payloads(ids: np.ndarray) -> pa.Array:
    """Deterministic per-doc WAV headers (RIFF/fmt/data chunks) built as
    one (n, 44) byte matrix, for q_multimodal_doc."""
    n = len(ids)
    ch = (1 + ids % 2).astype(np.int64)
    rate = (8000 + (ids % 5) * 4000).astype(np.int64)
    nsamp = (100 + ids % 50).astype(np.int64)
    clen = nsamp * ch * 2  # 16-bit samples
    m = np.zeros((n, 44), np.uint8)
    m[:, :4] = np.frombuffer(b"RIFF", np.uint8)
    m[:, 4] = 36  # riff size (unused by the parser)
    m[:, 8:12] = np.frombuffer(b"WAVE", np.uint8)
    m[:, 12:16] = np.frombuffer(b"fmt ", np.uint8)
    m[:, 16] = 16
    m[:, 20] = 1  # PCM
    m[:, 22] = ch & 255
    for k in range(4):
        m[:, 24 + k] = (rate >> (8 * k)) & 255
    m[:, 32] = 4  # block align (unused)
    m[:, 34] = 16  # bits per sample
    m[:, 36:40] = np.frombuffer(b"data", np.uint8)
    for k in range(4):
        m[:, 40 + k] = (clen >> (8 * k)) & 255
    offs = np.arange(0, 44 * (n + 1), 44, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(m).reshape(-1))],
    )


SQL_MULTIMODAL_AUDIO = """
SELECT doc_id,
  CAST(1 + doc_id % 2 AS INTEGER) AS audio_channels,
  CAST(8000 + (doc_id % 5) * 4000 AS INTEGER) AS audio_rate,
  CAST(100 + doc_id % 50 AS BIGINT) AS audio_samples
FROM documents ORDER BY doc_id
"""


def q_multimodal_video(sf_dir: str):
    """Video frame sampling through stages/multimodal.frame_sample:
    minimal MP4 box trees (ftyp + moov>trak>mdia>minf>stbl>stsz) with
    a planted stsz sample_count, box-walked back from the bytes and
    exploded to every-30th-frame rows; oracle recomputes the planted
    counts and the frame explosion arithmetically."""
    from ..stages.multimodal import frame_sample

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        n = len(ids)
        fc = (24 + (ids * 11) % 1000).astype(np.int64)
        m = np.zeros((n, 76), np.uint8)

        def be32_at(col: int, val) -> None:
            for k in range(4):
                m[:, col + k] = (val >> (8 * (3 - k))) & 255

        be32_at(0, 16)
        m[:, 4:8] = np.frombuffer(b"ftyp", np.uint8)
        m[:, 8:12] = np.frombuffer(b"isom", np.uint8)
        for col, size, name in [(16, 60, b"moov"), (24, 52, b"trak"),
                                (32, 44, b"mdia"), (40, 36, b"minf"),
                                (48, 28, b"stbl"), (56, 20, b"stsz")]:
            be32_at(col, size)
            m[:, col + 4:col + 8] = np.frombuffer(name, np.uint8)
        be32_at(72, fc)  # stsz sample_count
        offs = np.arange(0, 76 * (n + 1), 76, dtype=np.int32)
        payload = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(m).reshape(-1))],
        )
        return pa.table({"doc_id": batch.column("doc_id"), "payload": payload})

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(gen, batch_format="pyarrow")
    return ds.map_batches(frame_sample, batch_format="pyarrow")


SQL_MULTIMODAL_VIDEO = """
WITH d AS (SELECT doc_id, 24 + (doc_id * 11) % 1000 AS fc FROM documents)
SELECT doc_id,
  CAST(unnest(range(0, (fc + 29) // 30)) * 30 AS INTEGER) AS frame_idx
FROM d ORDER BY doc_id, frame_idx
"""


def q_op_routing(sf_dir: str):
    """Per-point coordinate-operation selection (4D_api.cpp:204-376 —
    bbox + accuracy candidate choice): three geogoffset candidates with
    overlapping areas of use; overlap resolves to the better-accuracy
    op, uncovered points to the grid-free fallback."""
    from ..core.altops import AltOperation, RoutedOperation

    D = DEG_TO_RAD
    alts = [
        AltOperation(  # "europe", coarse accuracy
            op=create_operation("+proj=geogoffset +dlon=3.6 +dlat=1.8"),
            name="europe", accuracy=2.0,
            minx_src=-10 * D, miny_src=35 * D, maxx_src=40 * D, maxy_src=70 * D,
            minx_dst=-10 * D, miny_dst=35 * D, maxx_dst=40 * D, maxy_dst=70 * D,
        ),
        AltOperation(  # "east", better accuracy — wins on the overlap
            op=create_operation("+proj=geogoffset +dlon=-7.2 +dlat=3.6"),
            name="east", accuracy=1.0,
            minx_src=20 * D, miny_src=30 * D, maxx_src=60 * D, maxy_src=60 * D,
            minx_dst=20 * D, miny_dst=30 * D, maxx_dst=60 * D, maxy_dst=60 * D,
        ),
        AltOperation(op=create_operation("+proj=noop"), name="null", accuracy=-1.0),
    ]
    routed = RoutedOperation(alts)

    def kernel(ids, lon, lat):
        coo = _fwd(routed, lon, lat)
        return {
            "doc_id": ids,
            "op_id": pa.array(routed.last_chosen, type=pa.int64()),
            "rlon": np.round(coo.x * RAD_TO_DEG, 6),
            "rlat": np.round(coo.y * RAD_TO_DEG, 6),
        }

    return _per_doc(sf_dir, kernel)


SQL_OP_ROUTING = f"""
WITH g AS ({GEOLOC_SQL}),
sel AS (
  SELECT doc_id, lon, lat,
    (lon >= -10 AND lon <= 40 AND lat >= 35 AND lat <= 70) AS in_eu,
    (lon >= 20 AND lon <= 60 AND lat >= 30 AND lat <= 60) AS in_east
  FROM g),
r AS (
  SELECT doc_id, lon, lat,
    CAST(CASE WHEN in_eu AND in_east THEN 1
         WHEN in_eu THEN 0
         WHEN in_east THEN 1
         ELSE 2 END AS BIGINT) AS op_id
  FROM sel)
SELECT doc_id, op_id,
  ROUND(lon + CASE op_id WHEN 0 THEN 3.6/3600 WHEN 1 THEN -7.2/3600 ELSE 0 END, 6) AS rlon,
  ROUND(lat + CASE op_id WHEN 0 THEN 1.8/3600 WHEN 1 THEN 3.6/3600 ELSE 0 END, 6) AS rlat
FROM r ORDER BY doc_id
"""


def _purchases_and_signups(sf_dir: str):
    """The two join sides of the event-join queries, pruned at the read:
    (event_id, ts, user_id, event_type) rows of 'purchase' and 'signup'
    events only."""

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.is_in(t["event_type"], value_set=pa.array(["purchase", "signup"]))
        )

    return _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]
    ).map_batches(keep, batch_format="pyarrow")


def _join_sides(df: pd.DataFrame):
    """One block of the event joins → (purchases, signups), each as
    (event_id, user_id, ts_us) arrays; the signups sorted by (user, ts,
    event_id)."""
    is_p = (df["event_type"] == "purchase").to_numpy()
    eid, user = df["event_id"].to_numpy(np.int64), df["user_id"].to_numpy(np.int64)
    ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
    o = np.lexsort((eid[~is_p], ts[~is_p], user[~is_p]))
    return ((eid[is_p], user[is_p], ts[is_p]),
            (eid[~is_p][o], user[~is_p][o], ts[~is_p][o]))


def _probe(signups, user, ts, side: str):
    """searchsorted of the (user, ts) probes among the sorted signups'
    (user, ts): one record-array search for every user of a block."""
    return np.searchsorted(np.rec.fromarrays(signups[1:]),
                           np.rec.fromarrays([user, ts]), side=side)


def q_events_asof(sf_dir: str):
    """Distributed AS-OF JOIN (a custom operator Ray Data lacks):
    each 'purchase' event is matched to the same user's most recent
    'signup' at or before its timestamp. Plan: prune both sides at
    the read (columns + row filter), group_apply on user_id, then per
    block one (user, ts) record-array searchsorted of the purchases
    into the signups sorted by (user, ts, event_id), masking user
    mismatches — the partitioned-merge as-of contract over every user
    of the block at once. Partitioning assumption: one user's history
    fits in a block (keys grow with the corpus but per-key rows stay
    bounded); a hot key would take a (key, time-bucket) split with
    boundary carry-forward, exactly like events_sessions. Oracle:
    DuckDB's native ASOF LEFT JOIN."""
    def asof(df: pd.DataFrame) -> pd.DataFrame:
        (pe, pu, pt), right = _join_sides(df)
        se, su, st = right
        pos = _probe(right, pu, pt, "right") - 1
        matched = pos >= 0
        matched[matched] = su[pos[matched]] == pu[matched]
        sid = np.full(len(pe), -1, dtype=np.int64)
        lag = np.full(len(pe), -1, dtype=np.int64)
        sid[matched] = se[pos[matched]]
        lag[matched] = pt[matched] - st[pos[matched]]
        return pd.DataFrame(
            {
                "event_id": pe,
                "user_id": pu,
                "ts_us": pt,
                "signup_event_id": sid,
                "asof_lag_us": lag,
            }
        )

    return group_apply(_purchases_and_signups(sf_dir), "user_id", asof)


def q_html_extract(sf_dir: str):
    """The input_hint invariant as a driver query: byte-identical
    extracted text per url. The engine reads ONLY (url, html) from the
    Common-Crawl-style pages fixture (column pruning — the stored text
    column never enters the pipeline), runs the fully vectorized Arrow
    extractor (split on <p>/</p> + chained entity decode,
    sources/pages.py:extract_text_arrow), and the oracle selects the
    generator's stored truth. A hash match proves the extraction chain
    reproduces every text byte for every url."""
    from ..sources.pages import ensure_pages_fixture, extract_text_arrow

    path = ensure_pages_fixture()

    def fn(batch: pa.Table) -> pa.Table:
        txt = extract_text_arrow(batch.column("html"))
        import pyarrow.compute as pc

        return pa.table(
            {
                "url": batch.column("url"),
                "text": txt,
                "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
            }
        )

    return _read_path(path, ["url", "html"]).map_batches(
        fn, batch_format="pyarrow", batch_size=None
    )


SQL_HTML_EXTRACT = """
SELECT url, text, CAST(length(text) AS BIGINT) AS n_chars
FROM read_parquet('/tmp/rayproj_fixtures/pages.parquet')
ORDER BY url
"""


def q_domain_stats(sf_dir: str):
    """Per-domain corpus stats over the pages fixture: vectorized URL
    host extraction (pc.extract_regex — no per-row Python) fused with a
    per-batch (host → pages, chars) partial aggregate; ``group_apply``
    on the host then sums every host's partials with one pandas
    ``groupby`` per block. The sort carries one row per (batch, host),
    never page rows; hosts grow with the crawl."""
    import pyarrow.compute as pc

    from ..sources.pages import ensure_pages_fixture

    def partial(batch: pa.Table) -> pd.DataFrame:
        m = pc.extract_regex(batch.column("url"), r"^https://(?P<host>[^/]+)/")
        nch = pc.utf8_length(batch.column("text")).cast(pa.int64())
        df = pd.DataFrame({"host": pc.struct_field(m, "host").to_pandas(),
                           "n_chars": nch.to_pandas()})
        return df.groupby("host", sort=False).agg(
            n_pages=("n_chars", "count"), sum_chars=("n_chars", "sum")).reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("host", sort=False, as_index=False)[["n_pages", "sum_chars"]].sum()

    parts = _read_path(ensure_pages_fixture(), ["url", "text"]).map_batches(
        partial, batch_format="pyarrow")
    return group_apply(parts, "host", merge)


SQL_DOMAIN_STATS = """
SELECT regexp_extract(url, '^https://([^/]+)/', 1) AS host,
  CAST(COUNT(*) AS BIGINT) AS n_pages,
  CAST(SUM(length(text)) AS BIGINT) AS sum_chars
FROM read_parquet('/tmp/rayproj_fixtures/pages.parquet')
GROUP BY 1 ORDER BY 1
"""


def q_pages_pipeline(sf_dir: str):
    """The north-rule pipeline end-to-end as ONE oracle-checked query:
    Common-Crawl-style pages → vectorized html→text extraction →
    geolocate → web-mercator tile assignment, with the extracted text
    riding through to the output byte-identically per url. One fused
    map_batches stage (no shuffle) — the deployment shape of
    flagship.py, but with the byte-identity invariant IN the hash."""
    from ..sources.pages import ensure_pages_fixture, extract_text_arrow
    from ..spatial.tiles import tile_xy

    path = ensure_pages_fixture()

    def fn(batch: pa.Table) -> pa.Table:
        txt = extract_text_arrow(batch.column("html"))
        lon, lat = geolocate_ids(batch.column("row_id").to_numpy())
        tx, ty = tile_xy(lon, lat, ZOOM)
        return pa.table(
            {
                "url": batch.column("url"),
                "text": txt,
                "tile_x": pa.array(tx),
                "tile_y": pa.array(ty),
            }
        )

    return _read_path(path, ["url", "html", "row_id"]).map_batches(
        fn, batch_format="pyarrow", batch_size=None
    )


SQL_PAGES_PIPELINE = f"""
WITH g AS (
  SELECT url, text,
    ((row_id*9973) % 35000)/100.0 - 175.0 + 0.005 AS lon,
    ((row_id*7919) % 16000)/100.0 - 80.0 + 0.005 AS lat
  FROM read_parquet('/tmp/rayproj_fixtures/pages.parquet'))
SELECT url, text,
  CAST(LEAST(GREATEST(FLOOR((lon + 180.0)/360.0 * {1 << ZOOM}), 0), {(1 << ZOOM) - 1}) AS BIGINT) AS tile_x,
  CAST(LEAST(GREATEST(FLOOR((1.0 - ln(tan(radians(lat)) + sqrt(1 + tan(radians(lat))*tan(radians(lat))))/pi())/2.0 * {1 << ZOOM}), 0), {(1 << ZOOM) - 1}) AS BIGINT) AS tile_y
FROM g ORDER BY url
"""


_RJ_T0 = 1_704_067_200_000_000  # 2024-01-01T00:00:00 in epoch-us
_RJ_STEP = 57_600_000_000  # window start cadence: 16 h
_RJ_WIDTH = 144_000_000_000  # window width: 40 h (2.5x overlap)
_RJ_NW = 45  # covers the 30-day event span


def _hop_windows(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Explode epoch-µs timestamps onto every hopping window that holds
    them: (row, window_id) pairs. Candidate windows per point are
    bounded by width/cadence (3 here) and found by integer division +
    vectorized containment masks, O(n * overlap) not O(n * windows)."""
    k_hi = (ts - _RJ_T0) // _RJ_STEP
    ncand = _RJ_WIDTH // _RJ_STEP + 1
    cand = k_hi[:, None] - np.arange(ncand, dtype=np.int64)[None, :]
    ws = _RJ_T0 + cand * _RJ_STEP
    ok = (cand >= 0) & (cand < _RJ_NW)
    ok &= (ts[:, None] >= ws) & (ts[:, None] < ws + _RJ_WIDTH)
    r, c = np.nonzero(ok)
    return r, cand[r, c]


def q_events_range_join(sf_dir: str):
    """Distributed RANGE (interval) JOIN — another operator Ray Data
    lacks: each event explodes to ALL overlapping campaign windows.
    The window table is tiny and broadcast (a closure constant here;
    `ray.put` once per job at scale — never a shuffle), so the join is
    map-only: candidate window ids per point are bounded by
    width/cadence (3 here) and computed by integer division +
    vectorized containment masks, O(n * overlap) not O(n * windows).
    For arbitrary non-uniform interval sets the same stage holds a
    sorted-endpoint index per actor. Oracle: DuckDB non-equi JOIN
    against a range()-generated window table."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def fn(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column("ts")
            .cast(pa.timestamp("us"))
            .to_numpy()
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        eid = batch.column("event_id").to_numpy()
        r, wid = _hop_windows(ts)
        return pa.table(
            {
                "event_id": pa.array(eid[r]),
                "window_id": pa.array(wid),
                "ts_us": pa.array(ts[r]),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_EVENTS_RANGE_JOIN = f"""
WITH w AS (SELECT CAST(k AS BIGINT) AS window_id,
                  {_RJ_T0} + k * {_RJ_STEP} AS ws
           FROM range(0, {_RJ_NW}) t(k))
SELECT e.event_id, w.window_id, epoch_us(e.ts) AS ts_us
FROM events e JOIN w
  ON epoch_us(e.ts) >= w.ws AND epoch_us(e.ts) < w.ws + {_RJ_WIDTH}
ORDER BY e.event_id, w.window_id
"""


def q_events_sliding_window(sf_dir: str):
    """SLIDING (hopping) window aggregate: 40-hour windows every 16
    hours, so each event lands in up to 3 overlapping windows. The
    explode is fused with a per-block partial aggregate over the
    (window_id, event_type) key, at most blocks × 45 windows × 5 types
    rows, so the 2.5x-exploded event rows never leave their
    block and ``merge_partials`` sums the partials on the driver. This
    is the streaming hopping-window contract expressed as batch
    transforms."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = np.floor(batch.column("value").to_numpy() * 100).astype(np.int64)
        r, wid = _hop_windows(ts)
        return pa.table({
            "window_id": wid,
            "event_type": batch.column("event_type").take(r),
            "cents": cents[r],
        }).group_by(["window_id", "event_type"]).aggregate([("cents", "sum"), ([], "count_all")])

    parts = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow")
    return merge_partials(parts, {"window_id": np.int64, "event_type": object}, {
        "n_events": ("count_all", "sum"), "sum_cents": ("cents_sum", "sum")})


SQL_EVENTS_SLIDING_WINDOW = f"""
WITH w AS (SELECT CAST(k AS BIGINT) AS window_id,
                  {_RJ_T0} + k * {_RJ_STEP} AS ws
           FROM range(0, {_RJ_NW}) t(k))
SELECT w.window_id, e.event_type,
  CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(SUM(CAST(FLOOR(e.value*100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events e JOIN w
  ON epoch_us(e.ts) >= w.ws AND epoch_us(e.ts) < w.ws + {_RJ_WIDTH}
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_window_join(sf_dir: str):
    """Two-sided stream-stream WINDOW JOIN: each purchase matches ALL
    of the same user's signups within ±12 h. Same partitioned-merge
    contract as the as-of join (group_apply on user, then two (user,
    ts) searchsorted bounds per probe — O(log n) per event, output
    bounded by the true match count; the match rows are expanded with
    repeat/cumsum arithmetic). Oracle: DuckDB non-equi join."""
    _WJ = 43_200_000_000  # ±12 h in µs

    def wjoin(df: pd.DataFrame) -> pd.DataFrame:
        (pe, pu, pt), right = _join_sides(df)
        se, _, st = right
        lo = _probe(right, pu, pt - _WJ, "left")
        counts = _probe(right, pu, pt + _WJ, "right") - lo
        l_idx = np.repeat(np.arange(len(pe)), counts)
        r_idx = np.arange(len(l_idx)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return pd.DataFrame(
            {
                "event_id": pe[l_idx],
                "user_id": pu[l_idx],
                "signup_event_id": se[r_idx],
                "lag_us": pt[l_idx] - st[r_idx],
            }
        )

    return group_apply(_purchases_and_signups(sf_dir), "user_id", wjoin)


SQL_EVENTS_WINDOW_JOIN = """
SELECT p.event_id, p.user_id, s.event_id AS signup_event_id,
       epoch_us(p.ts) - epoch_us(s.ts) AS lag_us
FROM (SELECT * FROM events WHERE event_type='purchase') p
JOIN (SELECT * FROM events WHERE event_type='signup') s
  ON p.user_id = s.user_id
 AND s.ts >= p.ts - INTERVAL 12 HOUR AND s.ts <= p.ts + INTERVAL 12 HOUR
ORDER BY p.event_id, s.event_id
"""


SQL_EVENTS_ASOF = """
SELECT p.event_id, p.user_id, epoch_us(p.ts) AS ts_us,
       COALESCE(s.event_id, -1) AS signup_event_id,
       COALESCE(epoch_us(p.ts) - epoch_us(s.ts), -1) AS asof_lag_us
FROM (SELECT * FROM events WHERE event_type='purchase') p
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type='signup') s
  ON p.user_id = s.user_id AND p.ts >= s.ts
ORDER BY p.event_id
"""


# ---------------------------------------------------------------------------
# Corpus statistics: term/bigram frequency, quality gates, quantiles
# ---------------------------------------------------------------------------

_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
_GOPHER_STOP_PATS = [re.compile(rf"(?:^| ){w}(?= |$)") for w in _GOPHER_STOPWORDS]
_GOPHER_NONALPHA_PAT = re.compile(r"(?:^| )[^A-Za-z ]+(?= |$)")


def _b_gopher_quality(batch: pd.DataFrame) -> pd.DataFrame:
    """Gopher quality-signal gate (Rae et al. 2021 §A1.1 heuristics,
    integer-exact so the oracle hash matches), a per-batch kernel of
    q_doc_metrics: per-doc word count, summed word length, stop-word
    occurrences and alphabetic-word count, plus the combined keep/drop
    decision. All signals are vectorized regex/str kernels."""
    s = batch["text"].fillna("")
    n_chars = s.str.len().to_numpy(np.int64)
    n_spaces = s.str.count(" ").to_numpy(np.int64)
    n_words = np.where(n_chars > 0, n_spaces + 1, 0)
    sum_word_len = n_chars - n_spaces
    n_stop = np.zeros(len(s), dtype=np.int64)
    for pat in _GOPHER_STOP_PATS:
        n_stop += s.str.count(pat).to_numpy(np.int64)
    n_alpha = n_words - s.str.count(_GOPHER_NONALPHA_PAT).to_numpy(np.int64)
    kept = (
        (n_words >= 50)
        & (n_words <= 100000)
        & (3 * n_words <= sum_word_len)
        & (sum_word_len <= 10 * n_words)
        & (n_stop >= 2)
        & (5 * n_alpha >= 4 * n_words)
    )
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_words": n_words,
            "sum_word_len": sum_word_len,
            "n_stop": n_stop,
            "n_alpha_words": n_alpha,
            "kept": kept.astype(np.int64),
        }
    )


SQL_GOPHER_QUALITY = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS l,
         length(text) AS n_chars,
         length(text) - length(replace(text, ' ', '')) AS n_spaces
  FROM documents),
s AS (
  SELECT doc_id,
    CASE WHEN n_chars > 0 THEN n_spaces + 1 ELSE 0 END AS n_words,
    n_chars - n_spaces AS sum_word_len,
    CAST(len(list_filter(l, w -> w IN {_GOPHER_STOPWORDS})) AS BIGINT)
        AS n_stop,
    CAST(len(list_filter(l, w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT)
        AS n_alpha_words
  FROM t)
SELECT doc_id, n_words, sum_word_len, n_stop, n_alpha_words,
  CAST(CASE WHEN n_words >= 50 AND n_words <= 100000
        AND 3*n_words <= sum_word_len AND sum_word_len <= 10*n_words
        AND n_stop >= 2 AND 5*n_alpha_words >= 4*n_words
       THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM s ORDER BY doc_id
"""


def q_hash_sample(sf_dir: str):
    """Deterministic ~5% content-hash sample — the reproducible
    alternative to random_sample() at 100 TB (same rows on every
    run/restart, no coordination): keep docs whose md5 32-bit prefix
    falls under the rate threshold. Map-only."""
    THRESH = 214_748_364  # floor(0.05 * 2^32)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        # 32-bit md5 prefix = top half of the 64-bit fingerprint
        pref = (textfn.fingerprint64(batch["text"]) >> np.uint64(32)).astype(
            np.int64
        )
        keep = pref < THRESH
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[keep],
                "source": batch["source"].to_numpy()[keep],
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text", "source"]).map_batches(
        fn, batch_format="pandas"
    )


SQL_HASH_SAMPLE = """
SELECT doc_id, source FROM documents
WHERE CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) < 214748364
ORDER BY doc_id
"""


def q_stratified_sample(sf_dir: str):
    """Per-language stratified sample: deterministic 10% quota per
    stratum, selected by content-hash order (fp64, doc_id) — the
    reproducible per-stratum curation op (language rebalancing) at
    100 TB. Two passes: (1) per-lang counts, one partial row per lang
    per block (at most blocks × 5 langs) summed by ``merge_partials``
    and broadcast to the workers as quotas, (2) per-batch partial
    top-quota per stratum (bounded: <= quota rows per lang per batch)
    then the same top-quota cut as the final trim, through group_apply
    on lang; its input is bounded by quota x n_blocks, never the
    corpus."""
    import math

    RATE = 0.1
    counts = merge_partials(
        _read(sf_dir, "documents", ["lang"]).map_batches(
            lambda t: t.group_by("lang").aggregate([([], "count_all")]),
            batch_format="pyarrow"),
        {"lang": object}, {"n": ("count_all", "sum")})
    quota = {lang: math.ceil(RATE * n) for lang, n in zip(counts["lang"], counts["n"])}
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def top_quota(d: pd.DataFrame) -> pd.DataFrame:
        # rank within each lang run of the (lang, fp, doc_id) order
        d = d.sort_values(["lang", "fp", "doc_id"], kind="mergesort")
        starts, seg = runs(d["lang"].to_numpy())
        rk = np.arange(len(d)) - starts[seg]
        q = d["lang"].map(quota).fillna(0).to_numpy(np.int64)
        return d[rk < q]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return top_quota(pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "lang": df["lang"].to_numpy(),
                "fp": textfn.fingerprint64(df["text"]),
            }
        ))

    def trim(df: pd.DataFrame) -> pd.DataFrame:
        return top_quota(df)[["doc_id", "lang"]]

    partials = ds.map_batches(partial, batch_format="pandas")
    return group_apply(partials, "lang", trim)


SQL_STRATIFIED_SAMPLE = """
WITH f AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(text), 1, 16)) AS UBIGINT) AS fp
  FROM documents
),
c AS (SELECT lang, count(*) AS n FROM f GROUP BY lang),
r AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY fp, doc_id) AS rk
  FROM f
)
SELECT r.doc_id, r.lang FROM r JOIN c USING (lang)
WHERE rk <= CAST(ceil(0.1e0 * n) AS BIGINT)
ORDER BY lang, doc_id
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix-C style): flag every
    training document sharing an 8-token shingle with a held-out
    benchmark set. The benchmark (doc_id % 97 == 0 here) is small by
    definition: scan-side filter -> tiny driver collect -> its distinct
    shingle-hash set broadcasts to all workers (sorted array +
    searchsorted; at 100 TB the same array ships once via ray.put).
    Training docs are map-only. To make the check non-vacuous on the
    synthetic corpus, docs with doc_id % 50 == 7 are augmented with the
    first 8 tokens of the lowest benchmark doc before shingling —
    deterministically mirrored in the oracle."""
    from ..functions.dedup import batch_shingle_hashes

    K = 8
    bench_rows = collect(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            lambda df: df[df["doc_id"].to_numpy(np.int64) % 97 == 0],
            batch_format="pandas",
        ),
        {"doc_id": np.int64, "text": object},
    ).sort_values("doc_id")
    empty = pd.DataFrame({c: [] for c in ("doc_id", "n_grams", "n_hits", "contaminated")},
                         dtype=np.int64)
    if bench_rows.empty:
        return empty
    snip = " ".join(str(bench_rows.iloc[0]["text"]).split()[:K])
    bh, _, _ = batch_shingle_hashes(bench_rows["text"].str.lower(), K)
    bench_set = np.unique(bh)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        keep = ids % 97 != 0
        if not keep.any():
            return empty
        ids = ids[keep]
        txt = df["text"][keep].astype(str)
        aug = txt.where(ids % 50 != 7, txt + " " + snip)
        sh, starts, _ = batch_shingle_hashes(aug.str.lower(), K)
        n_sh = np.diff(np.append(starts, len(sh))).astype(np.int64)
        idx = np.searchsorted(bench_set, sh)
        idxc = np.minimum(idx, len(bench_set) - 1)
        hit = (bench_set[idxc] == sh) if len(bench_set) else np.zeros(len(sh), bool)
        n_hits = np.add.reduceat(hit.astype(np.int64), starts)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_grams": n_sh,
                "n_hits": n_hits,
                "contaminated": (n_hits > 0).astype(np.int64),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas"
    )


def _decontaminate_sql() -> str:
    return f"""
WITH snipd AS (
  SELECT array_to_string(
           (list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> ''))[1:8],
           ' ') AS s
  FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents WHERE doc_id % 97 = 0)
),
docs_aug AS (
  SELECT doc_id,
         lower(CASE WHEN doc_id % 97 <> 0 AND doc_id % 50 = 7
                    THEN text || ' ' || (SELECT s FROM snipd)
                    ELSE text END) AS text
  FROM documents
),
{_dedup_hash_ctes(8, source="docs_aug")},
bench AS (SELECT DISTINCT unnest(sh) AS s FROM sh WHERE doc_id % 97 = 0),
train AS (SELECT doc_id, len(sh) AS n_grams, unnest(sh) AS s
          FROM sh WHERE doc_id % 97 <> 0),
hits AS (
  SELECT t.doc_id, any_value(t.n_grams) AS n_grams,
         sum(CASE WHEN b.s IS NOT NULL THEN 1 ELSE 0 END) AS nh
  FROM train t LEFT JOIN bench b ON t.s = b.s
  GROUP BY t.doc_id
)
SELECT doc_id, CAST(n_grams AS BIGINT) AS n_grams, CAST(nh AS BIGINT) AS n_hits,
       CAST(CASE WHEN nh > 0 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM hits ORDER BY doc_id
"""


SQL_DECONTAMINATE = _decontaminate_sql()


def q_corpus_curation(sf_dir: str):
    """End-to-end webtext curation decision per document — the
    composite the LLM-data brief centers on: Gopher quality gate THEN
    exact dedup among the survivors (canonical = min doc_id of each
    content-hash class). One map stage computes signals + md5 per
    batch (vectorized); one group_apply sort on the md5 resolves
    canonicals; output is one decision
    row per document. Oracle: the same gate + window-free canonical
    join in SQL."""

    def signals(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "text_md5": textfn.md5_hex(batch["text"]),
                "kept_quality": _b_gopher_quality(batch)["kept"].to_numpy(),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        signals, batch_format="pandas"
    )

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        kept_ids = df["doc_id"].where(df["kept_quality"] == 1)
        keep_min = kept_ids.groupby(df["text_md5"]).transform("min")
        kf = (
            (df["kept_quality"] == 1) & (df["doc_id"] == keep_min)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "kept_quality": df["kept_quality"],
                "kept_final": kf,
            }
        )

    return group_apply(ds, "text_md5", resolve)


SQL_CORPUS_CURATION = f"""
WITH t AS (
  SELECT doc_id, md5(text) AS hh, string_split(text, ' ') AS l,
         length(text) AS n_chars,
         length(text) - length(replace(text, ' ', '')) AS n_spaces
  FROM documents),
s AS (
  SELECT doc_id, hh,
    CASE WHEN n_chars > 0 THEN n_spaces + 1 ELSE 0 END AS n_words,
    n_chars - n_spaces AS sum_word_len,
    CAST(len(list_filter(l, w -> w IN {_GOPHER_STOPWORDS})) AS BIGINT)
        AS n_stop,
    CAST(len(list_filter(l, w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT)
        AS n_alpha_words
  FROM t),
q AS (
  SELECT doc_id, hh,
    CAST(CASE WHEN n_words >= 50 AND n_words <= 100000
          AND 3*n_words <= sum_word_len AND sum_word_len <= 10*n_words
          AND n_stop >= 2 AND 5*n_alpha_words >= 4*n_words
         THEN 1 ELSE 0 END AS BIGINT) AS kept_quality
  FROM s),
canon AS (SELECT hh, MIN(doc_id) AS keep_id FROM q WHERE kept_quality=1
          GROUP BY 1)
SELECT q.doc_id, q.kept_quality,
  CAST(CASE WHEN q.kept_quality=1 AND c.keep_id=q.doc_id
       THEN 1 ELSE 0 END AS BIGINT) AS kept_final
FROM q LEFT JOIN canon c ON q.hh=c.hh ORDER BY q.doc_id
"""


def _top(df: pd.DataFrame, n: int, score: str, key: str) -> pd.DataFrame:
    """The first ``n`` rows of ``df`` by (``score`` desc, ``key`` asc)."""
    df = df.sort_values([score, key], ascending=[False, True], kind="mergesort")
    return df.head(n).reset_index(drop=True)


def _top_grams(parts, gram: str, n: int) -> pd.DataFrame:
    """The top ``n`` grams of a (``gram``, ``n``) partial-count stream
    by (total desc, gram asc). ``group_apply`` on the gram puts each
    gram's partials in one block, so a block's sums are final and its
    own top ``n`` holds every gram of the global top ``n`` it has; the
    driver takes the top ``n`` of at most blocks × ``n`` rows."""

    def top(df: pd.DataFrame) -> pd.DataFrame:
        return _top(df.groupby(gram, sort=False, as_index=False)["n"].sum(), n, "n", gram)

    return _top(collect(group_apply(parts, gram, top), {gram: object, "n": np.int64}),
                n, "n", gram)


def _word_counts(batch: pa.Table) -> pa.Table:
    """The batch's (word, n) counts: Arrow split_pattern over the flat
    UTF-8 buffer, then value_counts, the map-side combiner."""
    import pyarrow.compute as pc

    vc = pc.list_flatten(pc.split_pattern(batch.column("text"), " ")).value_counts()
    return pa.table({"word": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})


def q_word_freq(sf_dir: str):
    """Corpus-wide word frequency, top 50: per-batch ``_word_counts``
    (the sort moves distinct words per batch, not one row per token),
    then ``_top_grams``."""
    parts = _read(sf_dir, "documents", ["text"]).map_batches(_word_counts, batch_format="pyarrow")
    return _top_grams(parts, "word", 50)


SQL_WORD_FREQ = """
SELECT word, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
GROUP BY 1 ORDER BY n DESC, word LIMIT 50
"""


def q_tfidf_top(sf_dir: str):
    """Top-3 tf-idf terms per source: ONE tokenize pass emits both
    partial aggregates (tf per (source, term); doc-frequency per term —
    per-doc dedup is local because documents never span batches),
    tagged by kind. ``group_apply`` on the term puts every tf and df
    partial of a term in one block, which sums them, scores its terms
    and keeps its own top 3 per source; the driver runs the same
    ``top_k_per_key`` over those partials. Scores are fixed-point
    micro-units so the hash is integer-exact."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    n_docs = pads.dataset(f"{sf_dir}/documents.parquet", format="parquet").count_rows()

    def partial(batch: pa.Table) -> pa.Table:
        lst = pc.split_pattern(batch.column("text"), " ")
        par = pc.list_parent_indices(lst)
        toks = pc.list_flatten(lst)
        src = pc.take(batch.column("source"), par)
        df = pd.DataFrame(
            {
                "d": par.to_numpy(),
                "t": toks.to_pandas(),
                "s": src.to_pandas(),
            }
        )
        tf = (
            df.groupby(["s", "t"], sort=False, observed=True)
            .size()
            .reset_index(name="n")
        )
        dfreq = (
            df.drop_duplicates(["d", "t"])
            .groupby("t", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(len(tf), np.int64), np.ones(len(dfreq), np.int64)]
                    )
                ),
                "key1": pa.array(
                    pd.concat([tf["s"], pd.Series([""] * len(dfreq))],
                              ignore_index=True).astype(str)
                ),
                "term": pa.array(
                    pd.concat([tf["t"], dfreq["t"]], ignore_index=True).astype(str)
                ),
                "n": pa.array(
                    np.concatenate(
                        [tf["n"].to_numpy(np.int64), dfreq["n"].to_numpy(np.int64)]
                    )
                ),
            }
        )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(["kind", "key1", "term"], sort=False, as_index=False)["n"].sum()
        tf = agg[agg["kind"] == 0][["key1", "term", "n"]].rename(
            columns={"key1": "source", "n": "tf"}
        )
        dfreq = agg[agg["kind"] == 1][["term", "n"]].rename(columns={"n": "df"})
        j = tf.merge(dfreq, on="term")
        j["score_micro"] = np.round(
            j["tf"].to_numpy(np.float64)
            * np.log(float(n_docs) / j["df"].to_numpy(np.float64))
            * 1e6
        ).astype(np.int64)
        return top_k_per_key(j[["source", "term", "score_micro"]], "source", "score_micro",
                             "term", 3)

    parts = _read(sf_dir, "documents", ["text", "source"]).map_batches(
        partial, batch_format="pyarrow")
    top = collect(group_apply(parts, "term", score),
                  {"source": object, "term": object, "score_micro": np.int64})
    out = top_k_per_key(top, "source", "score_micro", "term", 3)
    return out[["source", "rank", "term", "score_micro"]]


SQL_TFIDF_TOP = """
WITH tok AS (
  SELECT doc_id, source, unnest(string_split(text, ' ')) AS term
  FROM documents),
tf AS (SELECT source, term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM tok GROUP BY 1, 2),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
s AS (SELECT tf.source, tf.term,
        CAST(ROUND(tf.tf * ln(n.nd / df.df) * 1e6) AS BIGINT) AS score_micro
      FROM tf JOIN df ON tf.term = df.term, n),
r AS (SELECT *, ROW_NUMBER() OVER (
        PARTITION BY source ORDER BY score_micro DESC, term) AS rank
      FROM s)
SELECT source, CAST(rank AS BIGINT) AS rank, term, score_micro
FROM r WHERE rank <= 3 ORDER BY source, rank
"""


def q_inverted_index(sf_dir: str):
    """Posting lists for the corpus's top-20 terms: pass 1 takes them
    with ``_word_counts`` and ``_top_grams`` and broadcasts the top
    set; pass 2 tokenizes, filters to the set (pc.is_in), emits
    per-batch-distinct (term, doc_id) pairs, and group_apply on the
    term builds every term run's sorted posting string with one
    list-join per block. Posting lists are the one genuinely
    list-valued output — serialized as comma strings so the value
    hash is format-stable across engines."""
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    top_df = _top_grams(docs.map_batches(_word_counts, batch_format="pyarrow"), "word", 20)
    if top_df.empty:  # no terms, so no postings
        return pd.DataFrame(columns=["term", "n_docs", "postings"]).astype({"n_docs": np.int64})
    top_terms = pa.array(top_df["word"].tolist())

    def pairs(batch: pa.Table) -> pd.DataFrame:
        lst = pc.split_pattern(batch.column("text"), " ")
        par = pc.list_parent_indices(lst)
        toks = pc.list_flatten(lst)
        keep = pc.is_in(toks, value_set=top_terms)
        doc = pc.take(batch.column("doc_id"), pc.filter(par, keep))
        df = pd.DataFrame(
            {"term": pc.filter(toks, keep).to_pandas(), "doc_id": doc.to_numpy()}
        )
        return df.drop_duplicates()

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates().sort_values(["term", "doc_id"], kind="mergesort")
        starts = runs(df["term"].to_numpy())[0]
        ids = pa.array(df["doc_id"].to_numpy(np.int64)).cast(pa.string())
        lists = pa.ListArray.from_arrays(np.append(starts, len(df)).astype(np.int32), ids)
        return pd.DataFrame(
            {
                "term": df["term"].to_numpy()[starts],
                "n_docs": np.diff(np.append(starts, len(df))),
                "postings": pc.binary_join(lists, ",").to_pandas(),
            }
        )

    return group_apply(docs.map_batches(pairs, batch_format="pyarrow"), "term", postings)


SQL_INVERTED_INDEX = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
top AS (
  SELECT term FROM (
    SELECT term, COUNT(*) AS c FROM tok GROUP BY 1
    ORDER BY c DESC, term LIMIT 20)),
d AS (SELECT DISTINCT t.term, t.doc_id FROM tok t JOIN top USING (term))
SELECT term, CAST(COUNT(*) AS BIGINT) AS n_docs,
  string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM d GROUP BY term ORDER BY term
"""


def q_bigram_stats(sf_dir: str):
    """Top-30 bigram collocations. Bigrams are formed on the FLAT word
    buffer (values[i] + ' ' + values[i+1]) with document boundaries
    masked out via the list offsets — fully vectorized, no per-row
    Python. Per-batch value_counts, then ``_top_grams``, as
    q_word_freq."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        lst = pc.split_pattern(
            batch.column("text").combine_chunks(), " "
        )
        vals = lst.values
        if len(vals) < 2:
            return pa.table(
                {"bigram": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        pairs = pc.binary_join_element_wise(
            vals.slice(0, len(vals) - 1), vals.slice(1), " "
        )
        # positions whose successor starts a new document are not bigrams
        offsets = np.asarray(lst.offsets)
        mask = np.ones(len(pairs), dtype=bool)
        ends = offsets[1:] - 1  # last-word index of each doc
        mask[ends[(ends >= 0) & (ends < len(pairs))]] = False
        vc = pairs.filter(pa.array(mask)).value_counts()
        return pa.table(
            {
                "bigram": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    parts = _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow")
    return _top_grams(parts, "bigram", 30)


SQL_BIGRAM_STATS = """
WITH t AS (SELECT string_split(text, ' ') AS l FROM documents),
p AS (SELECT unnest(list_zip(l, l[2:])) AS z FROM t)
SELECT z[1] || ' ' || z[2] AS bigram, CAST(COUNT(*) AS BIGINT) AS n
FROM p WHERE z[2] IS NOT NULL
GROUP BY 1 ORDER BY n DESC, bigram LIMIT 30
"""


def q_token_quantiles(sf_dir: str):
    """Exact per-source n_chars quantiles (p25/p50/p75), discrete
    semantics: sorted[ceil(q*n)-1], matching DuckDB quantile_disc.
    group_apply on the source, then per block one sort by (source,
    n_chars) and a gather at ``start + ceil(q*n) - 1`` of every source
    run."""

    def qs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "n_chars"], kind="mergesort")
        v = df["n_chars"].to_numpy(np.int64)
        starts = runs(df["source"].to_numpy())[0]
        n = np.diff(np.append(starts, len(v)))
        at = lambda q: v[starts + np.ceil(q * n).astype(np.int64) - 1]  # noqa: E731
        return pd.DataFrame(
            {
                "source": df["source"].to_numpy()[starts],
                "n_docs": n,
                "q25": at(0.25),
                "q50": at(0.50),
                "q75": at(0.75),
            }
        )

    return group_apply(_read(sf_dir, "documents", ["source", "n_chars"]), "source", qs)


SQL_TOKEN_QUANTILES = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
  quantile_disc(n_chars, 0.25) AS q25,
  quantile_disc(n_chars, 0.50) AS q50,
  quantile_disc(n_chars, 0.75) AS q75
FROM documents GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# Dict order matters operationally: the round driver verifies the FIRST 50
# entries against their SQL oracles. Every query is deterministic, so the
# order is free — the 17 entries the r03 driver never reached (sketches,
# ANN, k-means, multimodal, op_routing) lead, so they land inside the
# window; the longest-green classics fill the tail.

# ---------------------------------------------------------------------------
# Consolidated driver-window queries (round-4 verdict, next-round task 1):
# the round driver verifies the FIRST 50 queries() entries, so families
# sharing a row granularity are merged into one oracle row each — a
# column-join (one fused map pass) where members are per-row 1:1, a
# tag-union where the member row sets differ. Every underlying operator
# still executes; nothing loses verification.
# ---------------------------------------------------------------------------


def q_doc_metrics(sf_dir: str):
    """token_stats + text_quality + simhash + langid + fingerprint +
    gopher_repetition + gopher_quality in ONE map-only pass (all are
    per-doc 1:1 kernels over documents.text) — 16 verified columns,
    one read instead of seven."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        st = t.fillna("")
        base = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_chars_text": textfn.char_count(t),
                "n_tokens": textfn.token_count(t),
                "n_punct": st.str.count(r"[!-/:-@\[-`{-~]").to_numpy(np.int64),
                "n_upper": st.str.count(r"[A-Z]").to_numpy(np.int64),
                "simhash": simhash64(t).astype(np.int64),
                "lang_guess": textfn.lang_id(t),
                "fp64": textfn.fingerprint64(t),
            }
        )
        rep = _b_gopher_repetition(batch).drop(columns=["doc_id"])
        gq = _b_gopher_quality(batch).drop(columns=["doc_id"])
        return pd.concat(
            [base.reset_index(drop=True), rep.reset_index(drop=True),
             gq.reset_index(drop=True)], axis=1
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas"
    )


SQL_DOC_METRICS = f"""
SELECT a.doc_id, a.n_chars_text, a.n_tokens, b.n_punct, b.n_upper,
       c.simhash, d.lang_guess, e.fp64,
       f.n_bigrams, f.n_dup_instances, f.top_bigram_n,
       g.n_words, g.sum_word_len, g.n_stop, g.n_alpha_words, g.kept
FROM ({SQL_TOKEN_STATS}) a
JOIN ({SQL_TEXT_QUALITY}) b USING (doc_id)
JOIN ({SQL_SIMHASH}) c USING (doc_id)
JOIN ({SQL_LANGID}) d USING (doc_id)
JOIN ({SQL_FINGERPRINT}) e USING (doc_id)
JOIN ({SQL_GOPHER_REPETITION}) f USING (doc_id)
JOIN ({SQL_GOPHER_QUALITY}) g USING (doc_id)
ORDER BY a.doc_id
"""


def _tag_union(tag: str, members):
    """Tag-union of query results on one schema. ``members`` is a list
    of ``(value, ds, {out_col: member_col_or_constant})``: each member
    row gets ``tag = value`` and the mapped columns, where a string
    names a member column and anything else is a per-row constant. One
    lazy ``Dataset.union`` — a block concat, no shuffle; members stream
    independently. Members that are driver frames (``merge_partials``
    or ``_top_grams`` results) are retagged on the driver and
    concatenated into a frame, which keeps the schema on zero rows
    where an empty Dataset loses it."""

    def retag(value, cols):
        def fn(t: pa.Table) -> pa.Table:
            out = {tag: pa.repeat(value, len(t))}
            for name, src in cols.items():
                out[name] = t.column(src) if isinstance(src, str) else pa.repeat(src, len(t))
            return pa.table(out)

        return fn

    if all(isinstance(ds, pd.DataFrame) for _, ds, _ in members):
        return pa.concat_tables(
            [retag(value, cols)(pa.Table.from_pandas(ds, preserve_index=False))
             for value, ds, cols in members], promote_options="default").to_pandas()
    parts = [ds.map_batches(retag(value, cols), batch_format="pyarrow")
             for value, ds, cols in members]
    return parts[0].union(*parts[1:])


def q_projections_fwd(sf_dir: str):
    """All six driver-checked projection kernels as ONE tag-union —
    each member keeps its own domain filter (stere lat>10, utm finite
    easting), so the union carries exactly the per-projection row sets
    the split queries verified."""
    xy = {"doc_id": "doc_id", "x": "x", "y": "y"}
    return _tag_union("proj", [
        (name, q(sf_dir), xy)
        for name, q in (
            ("merc", q_merc_fwd), ("webmerc", q_webmerc_fwd),
            ("utm", q_utm_fwd), ("lcc", q_lcc_fwd),
            ("aea", q_aea_fwd), ("stere", q_stere_fwd),
        )
    ])


SQL_PROJECTIONS_FWD = "\nUNION ALL\n".join(
    f"SELECT '{name}' AS proj, doc_id, x, y FROM ({sql})"
    for name, sql in (
        ("merc", SQL_MERC), ("webmerc", SQL_WEBMERC), ("utm", SQL_UTM),
        ("lcc", SQL_LCC), ("aea", SQL_AEA), ("stere", SQL_STERE),
    )
)


def q_spatial_assign(sf_dir: str):
    """tile_assign + cell_assign + pip_assign: three per-doc 1:1
    spatial assignments off ONE geolocate pass (web-mercator tile,
    lat/lon cell, point-in-polygon against the worker-cached index)."""

    def kernel(ids, lon, lat):
        tx, ty = tile_xy(lon, lat, ZOOM)
        cx, cy = cell_xy(lon, lat, CELL_LEVEL)
        pid = layer_index(N_POLYS).assign(lon, lat)
        return {
            "doc_id": ids,
            "tile_x": tx,
            "tile_y": ty,
            "cell_x": cx,
            "cell_y": cy,
            "poly_id": pa.array(pid, type=pa.int32()),
        }

    return _per_doc(sf_dir, kernel)


SQL_SPATIAL_ASSIGN = f"""
SELECT a.doc_id, a.tile_x, a.tile_y, b.cell_x, b.cell_y, c.poly_id
FROM ({SQL_TILE}) a
JOIN ({SQL_CELL}) b USING (doc_id)
JOIN ({SQL_PIP}) c USING (doc_id)
ORDER BY a.doc_id
"""


def q_grid_shift(sf_dir: str):
    """hgridshift (CTable2 reader, bilinear arc-second shift) +
    vgridshift (GTX reader, weight-normalized undulation) in one map
    pass — identical domain filter, so a clean column-join. Grid node
    values are integer formulas of (col, row), so the DuckDB oracle
    recomputes the float32-stored corners and the identical IEEE
    interpolation chain in pure SQL."""
    from .gridfixtures import HG_PATH, VG_PATH, ensure_fixtures

    ensure_fixtures()
    oph = create_operation(f"+proj=hgridshift +grids={HG_PATH}")
    opv = create_operation(f"+proj=vgridshift +grids={VG_PATH}")

    def kernel(ids, lon, lat):
        m = (lon > -170.0) & (lon < 170.0) & (lat > -78.0) & (lat < 78.0)
        ids, lon, lat = ids[m], lon[m], lat[m]
        cooh = _fwd(oph, lon, lat)
        coov = _fwd(opv, lon, lat, (ids % 1000) * 0.01, np.zeros(len(ids)))
        # floor-to-micrometre, not round: z and node values are
        # near-decimal, so round-half boundaries are actually hit and
        # NumPy (half-even) vs SQL (half-away) would diverge
        return {
            "doc_id": ids,
            "slon": np.round(cooh.x * RAD_TO_DEG, 6),
            "slat": np.round(cooh.y * RAD_TO_DEG, 6),
            "zshift_um": np.floor(coov.z * 1e6).astype(np.int64),
        }

    return _per_doc(sf_dir, kernel)


SQL_GRID_SHIFT = f"""
SELECT a.doc_id, a.slon, a.slat, b.zshift_um
FROM ({SQL_HGRIDSHIFT}) a JOIN ({SQL_VGRIDSHIFT}) b USING (doc_id)
ORDER BY a.doc_id
"""


def _png_payloads(ids: np.ndarray) -> pa.Array:
    """A full zlib-compressed grayscale PNG per doc, for the real pixel
    decode: pixel (x, y) = (x + 2y + doc_id) % 256 with per-line
    filters cycling None/Sub/Up, so the decoder must inflate + unfilter
    to reproduce the arithmetic px_sum."""
    from ..stages.multimodal import make_png

    blobs = []
    for i in ids:
        pw = int(8 + i % 24)
        ph = int(8 + i % 16)
        px = ((np.arange(pw)[None, :] + 2 * np.arange(ph)[:, None]
               + int(i)) % 256).astype(np.uint8)
        filt = ((np.arange(ph) + int(i)) % 3).astype(np.uint8)
        blobs.append(make_png(pw, ph, px, 0, filt))
    return pa.array(blobs, type=pa.binary())


def q_multimodal_doc(sf_dir: str):
    """Image metadata (PNG/GIF/BMP/JPEG header parse), WAV metadata
    (RIFF chunk walk) and PNG pixel decode chained on the same per-doc
    rows: each stage reads a freshly generated ``payload`` column and
    appends its columns, one verified row per doc carrying all three
    modality column sets. Every step is a task map, so the chain fuses
    with the read into one task per input file."""
    from ..stages.multimodal import audio_meta, image_decode, png_pixels

    ds = _read(sf_dir, "documents", ["doc_id"])
    for make, stage in ((_image_payloads, image_decode), (_audio_payloads, audio_meta),
                        (_png_payloads, png_pixels)):
        def gen(batch: pa.Table, make=make) -> pa.Table:
            return batch.append_column("payload", make(batch.column("doc_id").to_numpy()))

        ds = (ds.map_batches(gen, batch_format="pyarrow")
              .map_batches(stage, batch_format="pyarrow").drop_columns(["payload"]))
    return ds


SQL_MULTIMODAL_DOC = f"""
WITH pxd AS (
  SELECT doc_id,
         CAST(8 + doc_id % 16 AS INTEGER) AS px_h,
         CAST(8 + doc_id % 24 AS INTEGER) AS px_w
  FROM documents),
pxs AS (
  SELECT p.doc_id, p.px_h, p.px_w,
         CAST(SUM((g.k % p.px_w + 2 * (g.k // p.px_w) + p.doc_id) % 256)
              AS BIGINT) AS px_sum
  FROM pxd p, LATERAL (SELECT unnest(range(0, p.px_w * p.px_h)) AS k) g
  GROUP BY 1, 2, 3)
SELECT a.doc_id, a.img_h, a.img_w, a.img_c, a.img_format,
       b.audio_channels, b.audio_rate, b.audio_samples,
       c.px_h, c.px_w, c.px_sum
FROM ({SQL_MULTIMODAL_META}) a
JOIN ({SQL_MULTIMODAL_AUDIO}) b USING (doc_id)
JOIN pxs c USING (doc_id)
ORDER BY a.doc_id
"""


def q_sampling(sf_dir: str):
    """hash_sample + stratified_sample tag-union: (method, doc_id,
    strat) where strat is the sample's grouping value (source for the
    content-hash sample, lang for the per-language quota sample)."""
    return _tag_union("method", [
        ("hash", q_hash_sample(sf_dir), {"doc_id": "doc_id", "strat": "source"}),
        ("stratified", q_stratified_sample(sf_dir), {"doc_id": "doc_id", "strat": "lang"}),
    ])


SQL_SAMPLING = f"""
SELECT 'hash' AS method, doc_id, source AS strat FROM ({SQL_HASH_SAMPLE})
UNION ALL
SELECT 'stratified' AS method, doc_id, lang AS strat FROM ({SQL_STRATIFIED_SAMPLE})
"""


def q_events_windows(sf_dir: str):
    """Tumbling (1 h per type) + hopping (40 h / 16 h) window
    aggregates tag-unioned on a common (wkind, event_type, window_id,
    n_events, sum_cents) schema."""
    agg = {"n_events": "n_events", "sum_cents": "sum_cents"}
    return _tag_union("wkind", [
        ("tumbling", q_events_window(sf_dir),
         {"event_type": "event_type", "window_id": "window", **agg}),
        ("hopping", q_events_sliding_window(sf_dir),
         {"event_type": "event_type", "window_id": "window_id", **agg}),
    ])


SQL_EVENTS_WINDOWS = f"""
SELECT 'tumbling' AS wkind, event_type, "window" AS window_id, n_events, sum_cents
FROM ({SQL_EVENTS_WINDOW})
UNION ALL
SELECT 'hopping' AS wkind, event_type, window_id, n_events, sum_cents
FROM ({SQL_EVENTS_SLIDING_WINDOW})
"""


def q_events_joins(sf_dir: str):
    """As-of join + +-12 h stream-stream window join tag-unioned on
    (jkind, event_id, user_id, signup_event_id, lag_us, ts_us); window
    rows carry ts_us = -1 (not part of that member's contract)."""
    keys = {"event_id": "event_id", "user_id": "user_id",
            "signup_event_id": "signup_event_id"}
    return _tag_union("jkind", [
        ("asof", q_events_asof(sf_dir),
         {**keys, "lag_us": "asof_lag_us", "ts_us": "ts_us"}),
        ("window", q_events_window_join(sf_dir),
         {**keys, "lag_us": "lag_us", "ts_us": np.int64(-1)}),
    ])


SQL_EVENTS_JOINS = f"""
SELECT 'asof' AS jkind, event_id, user_id, signup_event_id,
       asof_lag_us AS lag_us, ts_us
FROM ({SQL_EVENTS_ASOF})
UNION ALL
SELECT 'window' AS jkind, event_id, user_id, signup_event_id, lag_us,
       CAST(-1 AS BIGINT) AS ts_us
FROM ({SQL_EVENTS_WINDOW_JOIN})
"""


def q_ngram_freq(sf_dir: str):
    """Corpus-wide top-50 word + top-30 bigram frequency tag-union
    (kind, gram, n): two typed driver frames from ``_top_grams``, one
    Ray Data execution each, concatenated by ``_tag_union``."""
    return _tag_union("kind", [
        ("word", q_word_freq(sf_dir), {"gram": "word", "n": "n"}),
        ("bigram", q_bigram_stats(sf_dir), {"gram": "bigram", "n": "n"}),
    ])


SQL_NGRAM_FREQ = f"""
SELECT 'word' AS kind, word AS gram, n FROM ({SQL_WORD_FREQ})
UNION ALL
SELECT 'bigram' AS kind, bigram AS gram, n FROM ({SQL_BIGRAM_STATS})
"""


def q_dedup_surface(sf_dir: str):
    """Exact dedup + normalization-aware dedup tag-union on (method,
    key_md5, keep_doc_id, n_dups) — both members keep the map-side
    hash + group_apply collapse shape."""
    kept = {"keep_doc_id": "keep_doc_id", "n_dups": "n_dups"}
    return _tag_union("method", [
        ("exact", q_dedup_exact(sf_dir), {"key_md5": "text_md5", **kept}),
        ("norm", q_dedup_norm(sf_dir), {"key_md5": "norm_md5", **kept}),
    ])


SQL_DEDUP_SURFACE = f"""
SELECT 'exact' AS method, text_md5 AS key_md5, keep_doc_id, n_dups
FROM ({SQL_DEDUP_EXACT})
UNION ALL
SELECT 'norm' AS method, norm_md5 AS key_md5, keep_doc_id, n_dups
FROM ({SQL_DEDUP_NORM})
"""


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k + IVF-bucketed ANN tag-union (method,
    query_id, rank, vec_id); both members return bounded driver-side
    merges, so a pandas concat is the union."""
    a = q_ann_cosine(sf_dir).copy()
    a.insert(0, "method", "brute")
    b = q_ann_ivf(sf_dir).copy()
    b.insert(0, "method", "ivf")
    return pd.concat([a, b], ignore_index=True)


SQL_ANN_TOPK = f"""
SELECT 'brute' AS method, query_id, rank, vec_id FROM ({SQL_ANN})
UNION ALL
SELECT 'ivf' AS method, query_id, rank, vec_id FROM ({SQL_ANN_IVF})
"""


def q_source_profile(sf_dir: str):
    """Per-source stats (combiner aggregate) + per-source top-3 docs
    (distributed top-k-per-key) joined on source. Both members are
    bounded by source cardinality, so the join is a driver-side merge
    of two already-aggregated small results."""
    stats = q_source_stats(sf_dir)
    top = q_source_top_chars(sf_dir)
    out = top.merge(stats, on="source")
    return out[["source", "rank", "doc_id", "n_chars",
                "n_docs", "total_chars", "min_doc_id"]]


SQL_SOURCE_PROFILE = f"""
SELECT t.source, t.rank, t.doc_id, t.n_chars,
       s.n_docs, s.total_chars, s.min_doc_id
FROM ({SQL_SOURCE_TOP_CHARS}) t JOIN ({SQL_SOURCE_STATS}) s USING (source)
ORDER BY t.source, t.rank
"""



# ---------------------------------------------------------------------------
# §2.4 tail driver oracles (round-4 verdict task 2): tinshift, molodensky,
# defmodel, deformation, horner — each over a deterministic fixture whose
# SQL twin re-derives the identical IEEE-754 double chain.
# ---------------------------------------------------------------------------


def q_tinshift(sf_dir: str):
    """TIN (triangulation) shift through the full stateful path: the
    JSON fixture (gridfixtures.tin_doc, regular 36x17-cell grid TIN,
    exact integer-degree source vertices, short-decimal target offsets
    and dyadic quarter-metre dz) is parsed by state/tin.load_tin,
    shipped grid-free (op __getstate__), candidate-swept and
    barycentrically interpolated per tinshift_impl.hpp:405-553. Points
    within 1e-6 of any cell/diagonal boundary are filtered on BOTH
    sides so engine and oracle provably select the same triangle; the
    remaining chain (inverse-matrix lambda per _bucket_index, lambda1,
    lambda2, lambda3-ordered interpolation per TinModel.apply) is the
    identical double sequence in SQL."""
    from .gridfixtures import TIN_PATH, ensure_tin

    ensure_tin()
    op = create_operation(f"+proj=tinshift +file={TIN_PATH} +ellps=GRS80")

    def kernel(ids, x, y):
        gx = (x - (-180.0)) / 10.0
        gy = (y - (-85.0)) / 10.0
        fx = gx - np.floor(gx)
        fy = gy - np.floor(gy)
        m = ((fx > 1e-6) & (fy > 1e-6) & (fx < 1 - 1e-6) & (fy < 1 - 1e-6)
             & (np.abs(fx + fy - 1.0) > 1e-6))
        ids, x, y = ids[m], x[m], y[m]
        z = (ids % 400) * 0.01
        coo = Coords(x, y, z, np.zeros(len(ids)))
        op.trans(FWD, coo)
        return {
            "doc_id": ids,
            # round 7, not 9: at |v|<=185 a 1e-9 rounding scales to
            # ~1.8e11 where the double grid is ~3e-5 — int+0.5 ties
            # (half-even vs half-away) at ~3e-5/value; 1e-7 keeps the
            # scaled grid at ~5e-7 while still validating the
            # barycentric chain 4 orders below the planted offsets
            "tx": np.round(coo.x, 7),
            "ty": np.round(coo.y, 7),
            "tz": np.round(coo.z, 7),
        }

    return _per_doc(sf_dir, kernel)


def _tinshift_sql() -> str:
    """Barycentric oracle: per-point cell + lower/upper triangle by the
    fixture layout, vertex source/target/dz values re-derived from the
    (i, j) formulas (bit-identical to the JSON round-trip), lambda and
    interpolation in the engine's exact op order."""
    vert = ""
    for k in (1, 2, 3):
        vert += f"""
  , -180.0 + i{k}*10.0 AS sx{k}, -85.0 + j{k}*10.0 AS sy{k}
  , (-180.0 + i{k}*10.0) + ((i{k}*3 + j{k}*7) % 17 - 8) * 0.001 AS tx{k}
  , (-85.0 + j{k}*10.0) + ((i{k}*5 + j{k}*11) % 19 - 9) * 0.001 AS ty{k}
  , ((i{k}*2 + j{k}*3) % 13 - 6) * 0.25 AS dz{k}"""
    return f"""
WITH g AS ({GEOLOC_SQL}),
p AS (SELECT doc_id, lon AS x, lat AS y,
             (doc_id % 400) * CAST(0.01 AS DOUBLE) AS z FROM g),
cell AS (SELECT *,
  CAST(FLOOR((x - (-180.0))/10.0) AS BIGINT) AS ci,
  CAST(FLOOR((y - (-85.0))/10.0) AS BIGINT) AS cj,
  (x - (-180.0))/10.0 - FLOOR((x - (-180.0))/10.0) AS fx,
  (y - (-85.0))/10.0 - FLOOR((y - (-85.0))/10.0) AS fy
 FROM p),
flt AS (SELECT * FROM cell
        WHERE fx > 1e-6 AND fy > 1e-6 AND fx < 1 - 1e-6 AND fy < 1 - 1e-6
          AND abs(fx + fy - 1.0) > 1e-6),
tri AS (SELECT *,
  CASE WHEN fx + fy < 1.0 THEN ci ELSE ci + 1 END AS i1,
  CASE WHEN fx + fy < 1.0 THEN cj ELSE cj + 1 END AS j1,
  CASE WHEN fx + fy < 1.0 THEN ci + 1 ELSE ci END AS i2,
  CASE WHEN fx + fy < 1.0 THEN cj ELSE cj + 1 END AS j2,
  CASE WHEN fx + fy < 1.0 THEN ci ELSE ci + 1 END AS i3,
  CASE WHEN fx + fy < 1.0 THEN cj + 1 ELSE cj END AS j3
 FROM flt),
vtx AS (SELECT *{vert} FROM tri),
lam AS (SELECT *,
  ((sy2 - sy3) / ((sy2 - sy3)*(sx1 - sx3) + (sx3 - sx2)*(sy1 - sy3))) * (x - sx3)
  + ((sx3 - sx2) / ((sy2 - sy3)*(sx1 - sx3) + (sx3 - sx2)*(sy1 - sy3))) * (y - sy3) AS l1,
  ((sy3 - sy1) / ((sy2 - sy3)*(sx1 - sx3) + (sx3 - sx2)*(sy1 - sy3))) * (x - sx3)
  + ((sx1 - sx3) / ((sy2 - sy3)*(sx1 - sx3) + (sx3 - sx2)*(sy1 - sy3))) * (y - sy3) AS l2
 FROM vtx),
lam3 AS (SELECT *, 1.0 - l1 - l2 AS l3 FROM lam)
SELECT doc_id,
  ROUND(tx1*l1 + tx2*l2 + tx3*l3, 7) AS tx,
  ROUND(ty1*l1 + ty2*l2 + ty3*l3, 7) AS ty,
  ROUND(z + (dz1*l1 + dz2*l2 + dz3*l3), 7) AS tz
FROM lam3 ORDER BY doc_id
"""


SQL_TINSHIFT = _tinshift_sql()


_MOLO = dict(dx=84.87, dy=96.49, dz=116.95, da=-251.0, df=-1.41927e-05)


def q_molodensky(sf_dir: str):
    """Molodensky datum shift, BOTH variants in one pass (standard per
    molodensky.cpp:93-145, abridged per :50-92) on the international
    ellipsoid with the classic ED50->WGS84-style parameter set. Output
    lon/lat rounded at 1e-6 deg, heights at 1e-6 m."""
    mstr = " ".join(f"+{k}={v}" for k, v in _MOLO.items())
    op_std = create_operation(f"+proj=molodensky +ellps=intl {mstr}")
    op_abr = create_operation(f"+proj=molodensky +ellps=intl {mstr} +abridged")

    def kernel(ids, lon, lat):
        z = (ids % 1000) * 0.01
        cs = _fwd(op_std, lon, lat, z.copy(), np.zeros(len(ids)))
        ca = _fwd(op_abr, lon, lat, z.copy(), np.zeros(len(ids)))
        return {
            "doc_id": ids,
            "slon_std": np.round(cs.x * RAD_TO_DEG, 6),
            "slat_std": np.round(cs.y * RAD_TO_DEG, 6),
            "h_std": np.round(cs.z, 6),
            "slon_abr": np.round(ca.x * RAD_TO_DEG, 6),
            "slat_abr": np.round(ca.y * RAD_TO_DEG, 6),
            "h_abr": np.round(ca.z, 6),
        }

    return _per_doc(sf_dir, kernel)


SQL_MOLODENSKY = f"""
WITH g AS ({GEOLOC_SQL}),
c AS (SELECT 6378388.0 AS a, 1.0/297.0 AS f,
             {_MOLO['dx']} AS dx, {_MOLO['dy']} AS dy, {_MOLO['dz']} AS dz,
             {_MOLO['da']} AS da, {_MOLO['df']} AS df),
e AS (SELECT *, 2*f - f*f AS es FROM c),
pt AS (SELECT g.doc_id, g.lon * {_DRC} AS lam, g.lat * {_DRC} AS phi,
              (g.doc_id % 1000) * CAST(0.01 AS DOUBLE) AS z, e.*
       FROM g, e),
tr AS (SELECT *, sin(lam) AS slam, cos(lam) AS clam,
               sin(phi) AS sphi, cos(phi) AS cphi FROM pt),
rn AS (SELECT *,
  (a * (1 - es)) / pow(1 - es*sphi*sphi, 1.5e0) AS rho,
  a / sqrt(1 - es*sphi*sphi) AS nu,
  a*df + f*da AS adffda
 FROM tr),
d AS (SELECT *,
  ((-dx*sphi*clam) - (dy*sphi*slam) + (dz*cphi)
   + ((nu*es*sphi*cphi*da) / a)
   + (sphi*cphi*(rho/(1 - f) + nu*(1 - f))*df)) / (rho + z) AS dphi_s,
  (-dx*slam + dy*clam) / ((nu + z) * cphi) AS dlam_s,
  dx*cphi*clam + dy*cphi*slam + dz*sphi
   - (a/nu)*da + nu*(1 - f)*sphi*sphi*df AS dh_s,
  (-dx*sphi*clam - dy*sphi*slam + dz*cphi + adffda*sin(2*phi)) / rho AS dphi_a,
  (-dx*slam + dy*clam) / (a / sqrt(1 - es*sphi*sphi) * cphi) AS dlam_a,
  dx*cphi*clam + dy*cphi*slam + dz*sphi - da + adffda*sphi*sphi AS dh_a
 FROM rn)
SELECT doc_id,
  ROUND((lam + dlam_s) * CAST(57.295779513082321 AS DOUBLE), 6) AS slon_std,
  ROUND((phi + dphi_s) * CAST(57.295779513082321 AS DOUBLE), 6) AS slat_std,
  ROUND(z + dh_s, 6) AS h_std,
  ROUND((lam + dlam_a) * CAST(57.295779513082321 AS DOUBLE), 6) AS slon_abr,
  ROUND((phi + dphi_a) * CAST(57.295779513082321 AS DOUBLE), 6) AS slat_abr,
  ROUND(z + dh_a, 6) AS h_abr
FROM d ORDER BY doc_id
"""


def q_defmodel(sf_dir: str):
    """Deformation-model master file (+proj=defmodel, defmodel.cpp):
    velocity time function over a constant 3D degree GeoTIFF grid that
    gridfixtures synthesizes (whole-world 1-degree nodes, float32 east
    1 deg/yr, north 2 deg/yr, up 3 m/yr; gridfixtures.defmodel_grid_bytes)
    — the oracle reproduces offset = rate x (t - 2000.0) arithmetically.
    Exercises the JSON master parse, component extent, GeoTIFF grid read
    (state/tiffgrid.py), time-function evaluation, degree-unit addition
    and the per-worker model reload."""
    from .gridfixtures import DEFMODEL_PATH, ensure_deformation_fixtures

    ensure_deformation_fixtures()
    op = create_operation(f"+proj=defmodel +model={DEFMODEL_PATH} +ellps=GRS80")

    def kernel(ids, lon, lat):
        coo = _fwd(op, lon, lat, (ids % 300) * 0.01, 2000.0 + (ids % 250) * 0.1)
        return {
            "doc_id": ids,
            "slon": np.round(coo.x * RAD_TO_DEG, 6),
            "slat": np.round(coo.y * RAD_TO_DEG, 6),
            "sz": np.round(coo.z, 6),
        }

    return _per_doc(sf_dir, kernel)


SQL_DEFMODEL = f"""
WITH g AS ({GEOLOC_SQL}),
p AS (SELECT doc_id, lon, lat,
             (doc_id % 300) * CAST(0.01 AS DOUBLE) AS z,
             2000.0 + (doc_id % 250) * CAST(0.1 AS DOUBLE) AS t
      FROM g)
SELECT doc_id,
  ROUND(lon + 1.0 * (t - 2000.0), 6) AS slon,
  ROUND(lat + 2.0 * (t - 2000.0), 6) AS slat,
  ROUND(z + 3.0 * (t - 2000.0), 6) AS sz
FROM p ORDER BY doc_id
"""


def q_deformation(sf_dir: str):
    """Kinematic +proj=deformation (deformation.cpp:142-208): geodetic
    points -> cart -> dt x ENU velocity field (legacy ct2+gtx mm/yr
    velocity grids, gridfixtures.def_*grid_bytes) rotated to XYZ per
    Noerbech et al. The oracle recomputes cart forward, the bilinear
    velocity samples and the ENU->XYZ rotation from the same node
    formulas; cm-level rounding absorbs the engine's cart-roundtrip
    (~1e-15 rad) lookup difference."""
    from .gridfixtures import (DEF_HG_PATH, DEF_VG_PATH,
                               ensure_deformation_fixtures)

    ensure_deformation_fixtures()
    op = create_operation(
        "+proj=pipeline +step +proj=cart +ellps=GRS80 "
        f"+step +proj=deformation +ellps=GRS80 +xy_grids={DEF_HG_PATH} "
        f"+z_grids={DEF_VG_PATH} +dt=10"
    )

    def kernel(ids, lon, lat):
        m = (lon > -170.0) & (lon < 170.0) & (lat > -78.0) & (lat < 78.0)
        ids, lon, lat = ids[m], lon[m], lat[m]
        coo = _fwd(op, lon, lat, np.zeros(len(ids)), np.zeros(len(ids)))
        return {
            "doc_id": ids,
            # round 2, not 4: ~6.4e6-magnitude cartesians at 1e-4
            # scale to ~6e10 where the double grid is ~1e-5 wide
            # (same tie mechanism as horner); cm rounding still sees
            # the ~0.2 m velocity shifts under test
            "dx_m": np.round(coo.x, 2),
            "dy_m": np.round(coo.y, 2),
            "dz_m": np.round(coo.z, 2),
        }

    return _per_doc(sf_dir, kernel)


SQL_DEFORMATION = f"""
WITH g AS ({GEOLOC_SQL}),
f0 AS (SELECT doc_id, lon, lat FROM g
       WHERE lon > -170 AND lon < 170 AND lat > -78 AND lat < 78),
c AS (SELECT 6378137.0 AS a, 1.0/298.257222101 AS ff),
e AS (SELECT a, 2*ff - ff*ff AS es FROM c),
pt AS (SELECT doc_id, lon * {_DRC} AS lam, lat * {_DRC} AS phi FROM f0),
cart AS (SELECT pt.*, e.*,
  a / sqrt(1 - es*sin(phi)*sin(phi)) AS nn FROM pt, e),
xyz AS (SELECT *,
  nn * cos(phi) * cos(lam) AS X,
  nn * cos(phi) * sin(lam) AS Y,
  nn * (1 - es) * sin(phi) AS Z FROM cart),
n AS (SELECT *, (lam - {_GRID_W}) / {_GRID_R} AS gx,
                (phi - {_GRID_S}) / {_GRID_R} AS gy FROM xyz),
ixy AS (SELECT *, CAST(FLOOR(gx) AS BIGINT) AS ix, CAST(FLOOR(gy) AS BIGINT) AS iy,
                  gx - FLOOR(gx) AS fx, gy - FLOOR(gy) AS fy FROM n),
w AS (SELECT *, (1.0 - fx) * (1.0 - fy) AS m00, fx * (1.0 - fy) AS m10,
                (1.0 - fx) * fy AS m01, fx * fy AS m11 FROM ixy),
v AS (SELECT *,
  CAST((ix*7 + iy*13) % 41 - 20 AS REAL) AS e00,
  CAST(((ix+1)*7 + iy*13) % 41 - 20 AS REAL) AS e10,
  CAST((ix*7 + (iy+1)*13) % 41 - 20 AS REAL) AS e01,
  CAST(((ix+1)*7 + (iy+1)*13) % 41 - 20 AS REAL) AS e11,
  CAST((ix*11 + iy*5) % 37 - 18 AS REAL) AS a00,
  CAST(((ix+1)*11 + iy*5) % 37 - 18 AS REAL) AS a10,
  CAST((ix*11 + (iy+1)*5) % 37 - 18 AS REAL) AS a01,
  CAST(((ix+1)*11 + (iy+1)*5) % 37 - 18 AS REAL) AS a11,
  CAST(((ix*3 + iy*7) % 50 - 25) AS REAL) AS u00,
  CAST((((ix+1)*3 + iy*7) % 50 - 25) AS REAL) AS u10,
  CAST(((ix*3 + (iy+1)*7) % 50 - 25) AS REAL) AS u01,
  CAST((((ix+1)*3 + (iy+1)*7) % 50 - 25) AS REAL) AS u11
 FROM w),
vel AS (SELECT *,
  (m00*e00 + m10*e10 + m01*e01 + m11*e11) / 1000.0 AS ve,
  (m00*a00 + m10*a10 + m01*a01 + m11*a11) / 1000.0 AS vn,
  (((u00*m00 + u10*m10 + u01*m01 + u11*m11)
    / (m00 + m10 + m01 + m11)) / 1000.0) AS vu
 FROM v),
rot AS (SELECT *,
  -sin(phi)*cos(lam)*vn - sin(lam)*ve + cos(phi)*cos(lam)*vu AS vx,
  -sin(phi)*sin(lam)*vn + cos(lam)*ve + cos(phi)*sin(lam)*vu AS vy,
  cos(phi)*vn + sin(phi)*vu AS vz
 FROM vel)
SELECT doc_id,
  ROUND(X + 10.0*vx, 2) AS dx_m,
  ROUND(Y + 10.0*vy, 2) AS dy_m,
  ROUND(Z + 10.0*vz, 2) AS dz_m
FROM rot ORDER BY doc_id
"""


_HORNER_U = (500000.0, 0.9996, 1.0e-7, -2.0e-12, 3.0e-12, -1.5e-12)
_HORNER_V = (6100000.0, 1.0002, -2.3e-7, 1.2e-12, -2.2e-12, 2.7e-12)


def q_horner(sf_dir: str):
    """Real 2D Horner polynomial (+proj=horner, the Poder/Engsager
    gen_pol scheme, horner.cpp:184-291) at degree 2 with literal
    coefficients about a false origin — the oracle unrolls the exact
    dual-Horner recurrence (coefficients read backwards, high-order
    terms first) as one nested SQL expression, so the double chain is
    bit-identical."""
    u = ",".join(repr(v) for v in _HORNER_U)
    v = ",".join(repr(v) for v in _HORNER_V)
    op = create_operation(
        f"+proj=horner +ellps=GRS80 +deg=2 +fwd_u={u} +fwd_v={v} "
        f"+inv_u={u} +inv_v={v} +fwd_origin=500000,6000000 "
        "+inv_origin=500000,6000000 +range=500000"
    )

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        # non-decimal fractional offsets: integer inputs times the
        # short-decimal coefficients produced values landing EXACTLY on
        # 0.5e-6 rounding boundaries (np half-even vs SQL half-away
        # flipped 6/5000 rows at sf0.1); +0.137/+0.261 make the scaled
        # products binary-irregular, so ties have ~2^-52 probability
        x = 500000.0 + ((ids * 37) % 700000 - 350000) + 0.137
        y = 6000000.0 + ((ids * 53) % 600000 - 300000) + 0.261
        coo = Coords(x, y, np.zeros(len(ids)), np.zeros(len(ids)))
        op.trans(FWD, coo)
        # round at 1e-2: at these ~6e6 magnitudes a 1e-6 rounding
        # scales to ~6e12 where the double grid is ~1e-3 wide, so
        # EXACT int+0.5 ties (np half-even vs SQL half-away) occur at
        # ~4e-4/row — cm rounding puts the scaled grid at ~1e-7,
        # making ties ~1e-7/row on the frozen fixture
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "he": pa.array(np.round(coo.x, 2)),
                "hn": pa.array(np.round(coo.y, 2)),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        fn, batch_format="pyarrow"
    )


def _horner_sql() -> str:
    u = [repr(v) for v in _HORNER_U]
    v = [repr(v) for v in _HORNER_V]
    # degree-2 dual Horner unroll (horner.cpp:266-284 / ops/horner.py
    # _eval_real trace): E = n*(n*u5 + (e*u4 + u3)) + (e*(e*u2 + u1) + u0)
    E = f"n*(n*{u[5]} + (e*{u[4]} + {u[3]})) + (e*(e*{u[2]} + {u[1]}) + {u[0]})"
    N = f"e*(e*{v[5]} + (n*{v[4]} + {v[3]})) + (n*(n*{v[2]} + {v[1]}) + {v[0]})"
    return f"""
WITH d AS (SELECT doc_id,
    (500000.0 + ((doc_id * 37) % 700000 - 350000) + 0.137) - 500000.0 AS e,
    (6000000.0 + ((doc_id * 53) % 600000 - 300000) + 0.261) - 6000000.0 AS n
  FROM documents)
SELECT doc_id, ROUND({E}, 2) AS he, ROUND({N}, 2) AS hn
FROM d ORDER BY doc_id
"""


SQL_HORNER = _horner_sql()


QUERIES = {
    # consolidated per-doc / tag-union families (one driver row each)
    "doc_metrics": q_doc_metrics,
    "projections_fwd": q_projections_fwd,
    "spatial_assign": q_spatial_assign,
    "grid_shift": q_grid_shift,
    "multimodal_doc": q_multimodal_doc,
    "sampling": q_sampling,
    "events_windows": q_events_windows,
    "events_joins": q_events_joins,
    "ngram_freq": q_ngram_freq,
    "dedup_surface": q_dedup_surface,
    "ann_topk": q_ann_topk,
    "source_profile": q_source_profile,
    # single-operator rows
    "minhash_lsh": q_minhash_lsh,
    "simhash_neardup": q_simhash_neardup,
    "kmeans_embed": q_kmeans_embed,
    "knn_join": q_knn_join,
    "ngram_jaccard": q_ngram_jaccard,
    "embed_neardup": q_embed_neardup,
    "multimodal_video": q_multimodal_video,
    "op_routing": q_op_routing,
    "geolocate": q_geolocate,
    "proj_factors": q_proj_factors,
    "utm_roundtrip": q_utm_roundtrip,
    "cart_fwd": q_cart_fwd,
    "helmert_towgs84": q_helmert,
    "datum_hop_cs2cs": q_datum_hop,
    "tile_stats": q_tile_stats,
    "knn_anchors": q_knn,
    "agg_lineitem": q_agg_lineitem,
    "join_orders_customer": q_join_orders_customer,
    "events_sessions": q_events_sessions,
    "top_orders": q_top_orders,
    "distinct_brands": q_distinct_brands,
    "dedup_clusters": q_dedup_clusters,
    "paragraph_dedup": q_paragraph_dedup,
    "events_range_join": q_events_range_join,
    "html_extract": q_html_extract,
    "domain_stats": q_domain_stats,
    "pages_pipeline": q_pages_pipeline,
    "zonal_stats": q_zonal_stats,
    "corpus_curation": q_corpus_curation,
    "decontaminate": q_decontaminate,
    "tfidf_top": q_tfidf_top,
    "inverted_index": q_inverted_index,
    "token_quantiles": q_token_quantiles,
    # §2.4 tail oracles (round-5): fixture-backed transformation ops
    "tinshift": q_tinshift,
    "molodensky": q_molodensky,
    "defmodel": q_defmodel,
    "deformation": q_deformation,
    "horner": q_horner,
}

ORACLE_SQL = {
    "doc_metrics": SQL_DOC_METRICS,
    "projections_fwd": SQL_PROJECTIONS_FWD,
    "spatial_assign": SQL_SPATIAL_ASSIGN,
    "grid_shift": SQL_GRID_SHIFT,
    "multimodal_doc": SQL_MULTIMODAL_DOC,
    "sampling": SQL_SAMPLING,
    "events_windows": SQL_EVENTS_WINDOWS,
    "events_joins": SQL_EVENTS_JOINS,
    "ngram_freq": SQL_NGRAM_FREQ,
    "dedup_surface": SQL_DEDUP_SURFACE,
    "ann_topk": SQL_ANN_TOPK,
    "source_profile": SQL_SOURCE_PROFILE,
    # the engine-defined hash family re-expressed as exact DuckDB
    # mod-2^64 arithmetic (plus golden pins in tests/)
    "minhash_lsh": SQL_MINHASH_LSH,
    "simhash_neardup": SQL_SIMHASH_NEARDUP,
    "kmeans_embed": SQL_KMEANS_EMBED,
    "knn_join": SQL_KNN_JOIN,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "embed_neardup": SQL_EMBED_NEARDUP,
    "multimodal_video": SQL_MULTIMODAL_VIDEO,
    "op_routing": SQL_OP_ROUTING,
    "geolocate": SQL_GEOLOCATE,
    "proj_factors": SQL_PROJ_FACTORS,
    "utm_roundtrip": SQL_UTM_ROUNDTRIP,
    "cart_fwd": SQL_CART,
    "helmert_towgs84": SQL_HELMERT,
    "datum_hop_cs2cs": SQL_DATUM_HOP,
    "tile_stats": SQL_TILE_STATS,
    "knn_anchors": SQL_KNN,
    "agg_lineitem": SQL_AGG_LINEITEM,
    "join_orders_customer": SQL_JOIN,
    "events_sessions": SQL_EVENTS_SESSIONS,
    "top_orders": SQL_TOP_ORDERS,
    "distinct_brands": SQL_DISTINCT_BRANDS,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
    "events_range_join": SQL_EVENTS_RANGE_JOIN,
    "html_extract": SQL_HTML_EXTRACT,
    "domain_stats": SQL_DOMAIN_STATS,
    "pages_pipeline": SQL_PAGES_PIPELINE,
    "zonal_stats": SQL_ZONAL_STATS,
    "corpus_curation": SQL_CORPUS_CURATION,
    "decontaminate": SQL_DECONTAMINATE,
    "tfidf_top": SQL_TFIDF_TOP,
    "inverted_index": SQL_INVERTED_INDEX,
    "token_quantiles": SQL_TOKEN_QUANTILES,
    "tinshift": SQL_TINSHIFT,
    "molodensky": SQL_MOLODENSKY,
    "defmodel": SQL_DEFMODEL,
    "deformation": SQL_DEFORMATION,
    "horner": SQL_HORNER,
}

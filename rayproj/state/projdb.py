"""EPSG database (proj.db) build + CRS resolution.

The reference serves EPSG codes from a SQLite proj.db built by piping
``data/sql/*.sql`` (in the order of data/sql_filelist.cmake) into the
sqlite3 shell; iso19111/factory.cpp then materializes CRS objects from
the tables. This module re-derives the proj-string-producing subset
with the stdlib sqlite3 module: it builds the SAME database from the
reference's public EPSG SQL scripts (one-time, cached under /tmp; on a
cluster this is a shared artifact like the grid files) and resolves

* geographic/geocentric CRS codes  → +proj=longlat/geocent + ellipsoid
  + prime meridian + best available +towgs84 (helmert_transformation
  rows to WGS 84, position-vector convention),
* projected CRS codes → base geodetic parameters + the conversion's
  EPSG method/parameters mapped to proj operators (the method/param
  code mapping re-derived from iso19111/coordinateoperation.cpp's
  EPSG_CODE_METHOD_* / EPSG_CODE_PARAMETER_* constants),

as classic ``+init=epsg:`` parameter pair lists — the proj.4 cs2cs
semantics the rest of the engine consumes (core/resources.py falls
back here when a code is outside the bundled static catalog).
"""

from __future__ import annotations

import math
import os
import sqlite3

from ..core.resources import publish

PROJDB_PATH = "/tmp/rayproj_fixtures/proj.db"
SQL_DIR = os.environ.get("RAYPROJ_EPSG_SQL_DIR", "/root/reference/data/sql")
_DB_VERSION = 1

# data/sql_filelist.cmake order — triggers and FK checks require it
_SQL_ORDER = [
    "begin.sql", "proj_db_table_defs.sql", "conversion_triggers.sql",
    "metadata.sql", "unit_of_measure.sql", "extent.sql", "scope.sql",
    "coordinate_system.sql", "axis.sql", "ellipsoid.sql",
    "prime_meridian.sql", "geodetic_datum.sql",
    "geodetic_datum_ensemble_member.sql", "vertical_datum.sql",
    "vertical_datum_ensemble_member.sql", "conversion.sql",
    "geodetic_crs.sql", "projected_crs.sql", "vertical_crs.sql",
    "compound_crs.sql", "helmert_transformation.sql",
    "grid_transformation.sql", "grid_transformation_custom.sql",
    "other_transformation.sql", "other_transformation_custom.sql",
    "concatenated_operation.sql", "concatenated_operation_step.sql",
    "alias_name.sql", "supersession.sql", "deprecation.sql", "esri.sql",
    "ignf.sql", "grid_alternatives.sql",
    "grid_alternatives_generated_noaa.sql", "customizations.sql",
    "commit.sql",
]

_conn: sqlite3.Connection | None = None


def available() -> bool:
    return os.path.isfile(PROJDB_PATH) or os.path.isdir(SQL_DIR)


def ensure_proj_db() -> str:
    """Build (once) and cache the EPSG database. Single transaction +
    journaling off: ~1 min for the full registry, then mmap-fast."""
    if _valid(PROJDB_PATH):
        return PROJDB_PATH
    if not os.path.isdir(SQL_DIR):
        raise FileNotFoundError(f"EPSG SQL scripts not found at {SQL_DIR}")
    os.makedirs(os.path.dirname(PROJDB_PATH), exist_ok=True)

    def build(tmp: str) -> None:
        con = sqlite3.connect(tmp)
        try:
            con.executescript("PRAGMA journal_mode=OFF; PRAGMA synchronous=OFF;")
            script = "\n".join(
                open(os.path.join(SQL_DIR, f), encoding="utf-8").read()
                for f in _SQL_ORDER
            )
            con.executescript(script)
            con.execute(f"PRAGMA user_version = {_DB_VERSION}")
            con.commit()
        finally:
            con.close()

    publish(PROJDB_PATH, build)
    return PROJDB_PATH


def _valid(path: str) -> bool:
    if not os.path.isfile(path):
        return False
    try:
        con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        ok = con.execute("PRAGMA user_version").fetchone()[0] == _DB_VERSION
        con.close()
        return ok
    except sqlite3.Error:
        return False


def _db() -> sqlite3.Connection:
    global _conn
    if _conn is None:
        _conn = sqlite3.connect(f"file:{ensure_proj_db()}?mode=ro", uri=True)
    return _conn


# --- unit conversion -------------------------------------------------------

_ARCSEC_PER_URAD = 3600.0 * 180.0 / math.pi * 1e-6


def _sexagesimal_to_deg(v: float) -> float:
    """EPSG uom 9110: DDD.MMSSsss → decimal degrees."""
    sign = -1.0 if v < 0 else 1.0
    v = abs(v)
    d = math.floor(v + 1e-13)
    r = (v - d) * 100.0
    m = math.floor(r + 1e-11)
    s = (r - m) * 100.0
    return sign * (d + m / 60.0 + s / 3600.0)


def _angle_deg(value: float, uom: str) -> float:
    if uom == "9102" or uom == "9122":  # degree
        return value
    if uom == "9110":
        return _sexagesimal_to_deg(value)
    if uom == "9101":  # radian
        return value * 180.0 / math.pi
    if uom == "9105":  # grad
        return value * 0.9
    cf = _uom_factor(uom)  # generic: conv_factor is to-radian for angles
    return value * cf * 180.0 / math.pi


def _uom_factor(uom: str) -> float:
    row = _db().execute(
        "SELECT conv_factor FROM unit_of_measure WHERE auth_name='EPSG' AND code=?",
        (uom,),
    ).fetchone()
    if row is None:
        raise KeyError(f"unknown uom {uom}")
    return float(row[0])


def _length_m(value: float, uom: str) -> float:
    if uom == "9001":
        return value
    return value * _uom_factor(uom)


def _scale(value: float, uom: str) -> float:
    if uom == "9201":  # unity
        return value
    if uom == "9202":  # parts per million (scale difference)
        return value
    raise KeyError(f"unsupported scale uom {uom}")


def _fmt(x: float) -> str:
    """%.15g with integer collapse — internal.cpp toString(double, 15),
    same convention as dbcrs._g so resolver and PROJ.4-emitter strings
    carry identical digits (a float-dirt '9999999999' run retries 14g)."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    s = f"{x:.15g}"
    if "9999999999" in s:
        s = f"{x:.14g}"
    return s


# --- ellipsoid / datum / prime meridian ------------------------------------


def _geodetic_pairs(auth: str, code: str) -> list[tuple[str, str | None]] | None:
    """Datum-level parameter pairs for a geodetic CRS code (no +proj)."""
    con = _db()
    row = con.execute(
        "SELECT type, datum_auth_name, datum_code FROM geodetic_crs "
        "WHERE auth_name=? AND code=?",
        (auth, code),
    ).fetchone()
    if row is None:
        return None
    _, datum_auth, datum_code = row
    drow = con.execute(
        "SELECT ellipsoid_auth_name, ellipsoid_code, "
        "  prime_meridian_auth_name, prime_meridian_code FROM geodetic_datum "
        "WHERE auth_name=? AND code=?",
        (datum_auth, datum_code),
    ).fetchone()
    if drow is None:
        return None
    ell_auth, ell_code, pm_auth, pm_code = drow
    erow = con.execute(
        "SELECT semi_major_axis, uom_code, inv_flattening, semi_minor_axis "
        "FROM ellipsoid WHERE auth_name=? AND code=?",
        (ell_auth, ell_code),
    ).fetchone()
    a, a_uom, rf, b = erow
    a_m = _length_m(float(a), str(a_uom))
    pairs: list[tuple[str, str | None]] = [("a", _fmt(a_m))]
    if rf is not None:
        if float(rf) == 0.0:
            pairs.append(("b", _fmt(a_m)))  # sphere
        else:
            pairs.append(("rf", _fmt(float(rf))))
    else:
        pairs.append(("b", _fmt(_length_m(float(b), str(a_uom)))))
    prow = con.execute(
        "SELECT longitude, uom_code FROM prime_meridian "
        "WHERE auth_name=? AND code=?",
        (pm_auth, pm_code),
    ).fetchone()
    if prow is not None:
        pm_deg = _angle_deg(float(prow[0]), str(prow[1]))
        if pm_deg != 0.0:
            # named +pm= when well-known (1e-10 rad window) so the
            # resolver and the PROJ.4 emitter express the SAME meridian
            from ..core.wkt import _pm_wellknown_name
            pm_name = _pm_wellknown_name(pm_deg)
            pairs.append(("pm", pm_name if pm_name else _fmt(pm_deg)))
    ng = _nadgrids(auth, code)
    tw = _towgs84(auth, code)
    if ng is not None:
        # a locatable grid to the WGS 84 hub outranks the Helmert
        # (nadgrids has priority over towgs84, ref iso19111/io.cpp:9018);
        # the Helmert stays as the PER-POINT fallback candidate for
        # points outside the grid — proj_create_crs_to_crs operation
        # selection, signalled to the factory by +grid_fallback
        pairs.append(("nadgrids", ng))
        if tw is not None:
            pairs.append(("towgs84", tw))
            pairs.append(("grid_fallback", None))
    elif tw is not None:
        pairs.append(("towgs84", tw))
    return pairs


def _nadgrids(auth: str, crs_code: str,
              _hop_visited: set | None = None) -> str | None:
    """Grid-shift file name to the WGS 84 hub, only when the grid file
    itself is locatable on the resource path — the grid leg of
    BoundCRS::createBoundCRSToWGS84IfPossible (ref iso19111/crs.cpp:396,
    gridsNeeded availability check) in +init/proj.4 semantics."""
    from ..core.resources import find_file

    con = _db()
    rows = con.execute(
        "SELECT g.grid_name FROM grid_transformation g "
        "WHERE g.source_crs_auth_name=? AND g.source_crs_code=? "
        "  AND g.deprecated=0 "
        "  AND (g.target_crs_auth_name='EPSG' AND g.target_crs_code='4326' "
        "    OR EXISTS (SELECT 1 FROM geodetic_crs t "
        "         WHERE t.auth_name=g.target_crs_auth_name "
        "           AND t.code=g.target_crs_code "
        "           AND t.datum_auth_name='EPSG' AND t.datum_code='6326')) "
        "ORDER BY (g.accuracy IS NULL), g.accuracy, "
        "  (g.auth_name != 'EPSG'), g.code",
        (auth, crs_code),
    ).fetchall()
    for (grid,) in rows:
        if grid and find_file(str(grid)):
            try:
                from .grids import open_hgrid_set

                open_hgrid_set(str(grid))
            except Exception:
                continue  # locatable but not a readable hgrid format
            return str(grid)
    # follow longitude-rotation (EPSG 9601) links exactly like _towgs84:
    # a Paris-meridian family borrows its Greenwich sibling's grid (the
    # +pm token already expresses the rotation in +init semantics)
    if _hop_visited is None:
        _hop_visited = set()
    _hop_visited.add((auth, crs_code))
    datum = con.execute(
        "SELECT datum_auth_name, datum_code FROM geodetic_crs "
        "WHERE auth_name=? AND code=?", (auth, crs_code)).fetchone()
    if datum:
        links = con.execute(
            "SELECT o.target_crs_auth_name, o.target_crs_code "
            "FROM other_transformation o JOIN geodetic_crs g "
            "  ON g.auth_name=o.source_crs_auth_name "
            " AND g.code=o.source_crs_code "
            "WHERE o.method_code='9601' AND o.deprecated=0 "
            "  AND g.datum_auth_name=? AND g.datum_code=? "
            "ORDER BY (o.auth_name != 'EPSG'), o.code",
            tuple(datum)).fetchall()
        for link in links:
            tgt = (str(link[0]), str(link[1]))
            if tgt in _hop_visited:
                continue
            ng = _nadgrids(tgt[0], tgt[1], _hop_visited)
            if ng is not None:
                return ng
    return None


def _towgs84(auth: str, crs_code: str,
             _hop_visited: set | None = None) -> str | None:
    """Best non-deprecated helmert to WGS 84 (4326), position-vector
    convention (coordinate-frame rotations negated), arcsec/ppm units —
    the classic +towgs84 contract (ref transform.cpp datum hub)."""
    con = _db()
    own = con.execute(
        "SELECT datum_auth_name, datum_code FROM geodetic_crs "
        "WHERE auth_name=? AND code=?", (auth, crs_code)).fetchone()
    if own and (str(own[0]), str(own[1])) == ("EPSG", "6326"):
        return None  # the CRS IS the WGS 84 hub — never shift it
    # rank candidates the way the reference does with no area of
    # interest (createOperations filterAndSort): LARGEST usage extent
    # first — a nationwide transformation beats a more accurate but
    # regional one (e.g. MGI: EPSG:1618 Austria over EPSG:1194 Styria,
    # testvarious #207) — then accuracy, then code
    sel = (
        "SELECT h.method_code, h.tx, h.ty, h.tz, h.rx, h.ry, h.rz, "
        "  h.scale_difference, h.rotation_uom_code, "
        "  h.scale_difference_uom_code, h.translation_uom_code, "
        "  (SELECT MAX((e.east_lon - e.west_lon) * "
        "              (e.north_lat - e.south_lat)) "
        "   FROM usage u JOIN extent e ON e.auth_name=u.extent_auth_name "
        "     AND e.code=u.extent_code "
        "   WHERE u.object_table_name='helmert_transformation' "
        "     AND u.object_auth_name=h.auth_name "
        "     AND u.object_code=h.code) AS area "
        "FROM helmert_transformation h "
        "WHERE h.source_crs_auth_name=? AND h.source_crs_code=? "
        "  AND {target} "
        "  AND h.deprecated=0 AND h.method_code IN "
        "  ('9603','9606','9607','1031','1032','1033') "
        "ORDER BY (area IS NULL), area DESC, "
        "  (h.accuracy IS NULL), h.accuracy, "
        "  (h.auth_name != 'EPSG'), h.code LIMIT 1"
    )
    row = con.execute(
        sel.format(target="h.target_crs_auth_name='EPSG' "
                   "AND h.target_crs_code='4326'"),
        (auth, crs_code),
    ).fetchone()
    if row is None:
        # non-EPSG registries carry their own WGS 84 codes as the hub
        # (e.g. IGNF WGS84G/WGS84GEO): accept any target whose DATUM is
        # the WGS 84 ensemble (EPSG:6326) — second pass only, so the
        # classic 4326-target ranking is untouched
        row = con.execute(
            sel.format(target="EXISTS (SELECT 1 FROM geodetic_crs t "
                       "  WHERE t.auth_name=h.target_crs_auth_name "
                       "    AND t.code=h.target_crs_code "
                       "    AND t.datum_auth_name='EPSG' "
                       "    AND t.datum_code='6326')"),
            (auth, crs_code),
        ).fetchone()
    if row is not None:
        row = row[:-1]  # drop the ranking area column
    if row is None:
        # no candidate for this CRS family: follow longitude-rotation
        # links (EPSG 9601, e.g. NTF Paris → NTF Greenwich) from
        # same-datum siblings and use the first rotated family that
        # itself has a towgs84 — the +pm token already expresses the
        # rotation in +init semantics. Links are EPSG-first/code
        # ordered and a visited set guards against 9601 cycles.
        if _hop_visited is None:
            _hop_visited = set()
        _hop_visited.add((auth, crs_code))
        datum = con.execute(
            "SELECT datum_auth_name, datum_code FROM geodetic_crs "
            "WHERE auth_name=? AND code=?", (auth, crs_code)).fetchone()
        if datum:
            links = con.execute(
                "SELECT o.target_crs_auth_name, o.target_crs_code "
                "FROM other_transformation o JOIN geodetic_crs g "
                "  ON g.auth_name=o.source_crs_auth_name "
                " AND g.code=o.source_crs_code "
                "WHERE o.method_code='9601' AND o.deprecated=0 "
                "  AND g.datum_auth_name=? AND g.datum_code=? "
                "ORDER BY (o.auth_name != 'EPSG'), o.code",
                tuple(datum)).fetchall()
            for link in links:
                tgt = (str(link[0]), str(link[1]))
                if tgt in _hop_visited:
                    continue
                tw = _towgs84(tgt[0], tgt[1], _hop_visited)
                if tw is not None:
                    return tw
        # last resort: one hub hop — a helmert to an intermediate frame
        # whose own towgs84 is the identity (e.g. IGNF REUN47 → RGR92,
        # RGR92 ≡ WGS 84 at 0,0,0) composes to this row's parameters
        # alone — the concatenated direct+null operation createOperations
        # builds (ref iso19111/coordinateoperation.cpp hub composition)
        for cand in con.execute(
            "SELECT h.target_crs_auth_name, h.target_crs_code, "
            "  h.method_code, h.tx, h.ty, h.tz, h.rx, h.ry, h.rz, "
            "  h.scale_difference, h.rotation_uom_code, "
            "  h.scale_difference_uom_code, h.translation_uom_code "
            "FROM helmert_transformation h "
            "WHERE h.source_crs_auth_name=? AND h.source_crs_code=? "
            "  AND h.deprecated=0 AND h.method_code IN "
            "  ('9603','9606','9607','1031','1032','1033') "
            "ORDER BY (h.accuracy IS NULL), h.accuracy, "
            "  (h.auth_name != 'EPSG'), h.code LIMIT 8",
            (auth, crs_code),
        ).fetchall():
            tgt = (str(cand[0]), str(cand[1]))
            if tgt in _hop_visited:
                continue
            _hop_visited.add(tgt)
            tw = _towgs84(tgt[0], tgt[1], _hop_visited)
            if tw is not None and all(float(v) == 0.0 for v in tw.split(",")):
                row = tuple(cand[2:])
                break
    if row is None:
        return None
    (method, tx, ty, tz, rx, ry, rz, ds, rot_uom, ds_uom, tr_uom) = row
    tx, ty, tz = (
        _length_m(float(v), str(tr_uom or "9001")) for v in (tx, ty, tz)
    )
    if method in ("9603", "1031"):  # geocentric translations
        return f"{_fmt(tx)},{_fmt(ty)},{_fmt(tz)}"
    rots = []
    for v in (rx, ry, rz):
        v = float(v or 0.0)
        if str(rot_uom) == "9104":  # arc-second
            pass
        elif str(rot_uom) == "9109":  # microradian
            v *= _ARCSEC_PER_URAD
        else:
            v = _angle_deg(v, str(rot_uom)) * 3600.0
        rots.append(v)
    if method in ("9607", "1032"):  # coordinate frame → position vector
        rots = [-v for v in rots]
    ppm = float(ds or 0.0)
    if str(ds_uom or "9202") != "9202":
        ppm = _scale(ppm, str(ds_uom)) * 1e6
    return ",".join(_fmt(v) for v in (tx, ty, tz, *rots, ppm))


# --- projection method mapping ---------------------------------------------

# EPSG parameter code → proj parameter name (angles in degrees, lengths
# converted to metres). Re-derived from iso19111/coordinateoperation.cpp.
_PARAM = {
    "8801": ("lat_0", "a"), "8802": ("lon_0", "a"), "8805": ("k", "s"),
    "8806": ("x_0", "l"), "8807": ("y_0", "l"),
    "8811": ("lat_0", "a"), "8812": ("lonc", "a"), "8813": ("alpha", "a"),
    "8814": ("gamma", "a"), "8815": ("k", "s"), "8816": ("x_0", "l"),
    "8817": ("y_0", "l"),
    "8821": ("lat_0", "a"), "8822": ("lon_0", "a"), "8823": ("lat_1", "a"),
    "8824": ("lat_2", "a"), "8826": ("x_0", "l"), "8827": ("y_0", "l"),
    "8832": ("lat_ts", "a"), "8833": ("lon_0", "a"),
    "1038": ("k_0", "s"), "1039": ("h_0", "l"),
    # Krovak: colatitude of cone axis -> +alpha, scale factor on the
    # pseudo standard parallel -> +k; the pseudo parallel itself (8818)
    # is deliberately NOT exported (coordinateoperation_constants.hpp
    # paramLatitudePseudoStdParallel proj name = null)
    "1036": ("alpha", "a"), "8819": ("k", "s"),
    # 9824 zoned TM: initial longitude / zone width
    "8830": ("lon_i", "a"), "8831": ("zw", "a"),
    # topocentric origins (9836 geocentric, 9837 geographic)
    "8834": ("lat_0", "a"), "8835": ("lon_0", "a"), "8836": ("h_0", "l"),
    "8837": ("X_0", "l"), "8838": ("Y_0", "l"), "8839": ("Z_0", "l"),
}

# EPSG method code → (proj operator, param-name overrides, extra pairs)
_METHOD = {
    "9807": ("tmerc", {}, []),
    "9808": ("tmerc", {}, [("axis", "wsu")]),  # TM South Orientated
    "9801": ("lcc", {"8801": "lat_1"}, []),  # 1SP: lat_0 == lat_1
    "9802": ("lcc", {}, []),
    # variant A (k); lat_0 (always 0) is never exported — the
    # reference's paramLatMerc1SP maps it to no proj name
    "9804": ("merc", {"8801": None}, []),
    "9805": ("merc", {"8823": "lat_ts"}, []),  # variant B
    "1024": ("webmerc", {}, []),
    "9806": ("cass", {}, []),
    "9809": ("sterea", {}, []),
    "9810": ("stere", {}, []),
    "9829": ("stere", {}, []),  # variant B: lat_0 from lat_ts sign
    "9815": ("omerc", {}, []),
    "9812": ("omerc", {}, [("no_uoff", None)]),
    "9820": ("laea", {}, []),
    "9821": ("laea", {}, []),
    "1027": ("laea", {}, []),
    "9822": ("aea", {}, []),
    "1028": ("eqc", {"8823": "lat_ts"}, []),
    "1029": ("eqc", {"8823": "lat_ts"}, []),
    "9811": ("nzmg", {}, []),
    "1078": ("eqearth", {}, []),
    "9817": ("lcca", {"8801": "lat_0"}, []),
    "gstm": ("gstmerc", {}, []),
    "9818": ("poly", {}, []),
    # krovak: PROJ derives the cone constants internally and ignores
    # EPSG's co-latitude/pseudo-parallel params (constants.hpp:359-375);
    # 9819 is the south-west-orientated variant → axis=swu
    "9819": ("krovak", {}, [("axis", "swu")]),
    "1041": ("krovak", {}, []),
    # Krovak Modified (EPSG 7-2 §3.2.3 polynomial correction):
    # engine-extension operator ops/extensions.ModKrovak
    "1042": ("mod_krovak", {}, [("axis", "swu")]),
    "1043": ("mod_krovak", {}, []),
    # Transverse Mercator Zoned Grid System (EPSG:32600/32700
    # umbrellas): engine-extension operator ops/extensions.TmercZoned
    "9824": ("tmzoned", {}, []),
    # Geocentric/topocentric: cartesian-in conversion
    "9836": ("topocentric", {}, []),
    # Geographic/topocentric: cart + topocentric pipeline (assembled in
    # _conversion_pairs — the only pipeline-shaped _METHOD entry)
    "9837": ("topocentric", {}, []),
    "9813": ("labrd", {"8812": "lon_0", "8813": "azi"}, []),
    "1052": ("col_urban", {}, []),
    "1051": ("lcc", {}, []),  # 2SP Michigan: k_0 via param 1038
    # LCC West Orientated (Greenland zones): 1SP params, easting
    # positive WEST → axis=wnu (same device as 9808/9819)
    "9826": ("lcc", {"8801": "lat_1"}, [("axis", "wnu")]),
    "9827": ("bonne", {"8801": "lat_1"}, []),
    "9828": ("bonne", {"8801": "lat_1"}, [("axis", "wsu")]),  # South Orientated
    "9831": ("aeqd", {}, [("guam", None)]),  # Guam projection
    "9833": ("cass", {}, [("hyperbolic", None)]),  # Hyperbolic C-S (Fiji)
    "9832": ("aeqd", {}, []),  # Modified Azimuthal Equidistant
    "9834": ("cea", {"8823": "lat_ts"}, []),  # Lambert CEA (Spherical)
    "9835": ("cea", {"8823": "lat_ts"}, []),  # Lambert CEA
    # LCC 2SP Belgium: 2SP with the 29.2985" convergence retrofit folded
    # into lon_0 (lon_0 += a/n, n = ellipsoidal cone constant) — see
    # _belgium_lon0; EPSG:31300 then agrees with its 9802 twin EPSG:31370
    "9803": ("lcc", {}, []),
    # Polar Stereographic variant C: false origin on the standard
    # parallel instead of the pole; natural-origin x_0/y_0 computed with
    # our own (gie-verified) stere kernel in _variant_c_origin
    "9830": ("stere", {}, []),
}


def _ellps_tokens_str(base_pairs) -> str:
    """Ellipsoid/datum subset of datum-level pairs as a proj fragment
    (for building helper kernels during method special-casing)."""
    keep = ("ellps", "a", "b", "rf", "f", "es", "datum", "R")
    return " ".join(
        f"+{k}={v}" if v is not None else f"+{k}"
        for k, v in (base_pairs or [])
        if k in keep
    )


def _belgium_lon0(lon_0: float, lat_1: float, lat_2: float, base_pairs) -> float:
    """EPSG 9803 (LCC 2SP Belgium): the formulas subtract a = 29.2985"
    from the convergence θ = n(λ−λF), i.e. an effective λF shift of
    a/n. n is the ellipsoidal cone constant of the two parallels.
    Oracle: EPSG:31300 (9803) must agree with EPSG:31370 (its 9802
    re-definition) to sub-mm."""
    import numpy as np

    from ..core.factory import create_operation

    op = create_operation("+proj=longlat " + _ellps_tokens_str(base_pairs))
    es = op.ell.es
    e = np.sqrt(es)

    def m(phi):
        return np.cos(phi) / np.sqrt(1 - es * np.sin(phi) ** 2)

    def t(phi):
        return np.tan(np.pi / 4 - phi / 2) / (
            (1 - e * np.sin(phi)) / (1 + e * np.sin(phi))
        ) ** (e / 2)

    p1, p2 = np.radians(lat_1), np.radians(lat_2)
    n = (np.log(m(p1)) - np.log(m(p2))) / (np.log(t(p1)) - np.log(t(p2)))
    return lon_0 + (29.2985 / 3600.0) / float(n)


def _variant_c_origin(conv_pairs, fe: float, fn: float,
                      base_pairs) -> list[tuple[str, str]]:
    """EPSG 9830 (Polar Stereographic variant C): easting/northing are
    given AT THE FALSE ORIGIN (λO, φF) rather than the pole. Compute
    the natural-origin offsets by forwarding the false origin through
    an op built from the FULL final parameter context (the engine's
    cs2cs-emulation trans applies towgs84, so a bare-kernel helper
    would disagree) — by construction fwd(λO, φF) == (FE, FN)."""
    import numpy as np

    from ..core.factory import create_operation
    from ..core.op import FWD, Coords

    d = dict(conv_pairs)
    lat_ts = float(d["lat_ts"])
    lon_0 = float(d.get("lon_0", 0.0))
    lat_0 = 90.0 if lat_ts >= 0 else -90.0
    frag = " ".join(
        f"+{k}={v}" if v is not None else f"+{k}"
        for k, v in (list(conv_pairs) + [("lat_0", _fmt(lat_0))]
                     + list(base_pairs or []))
        if k != "no_defs"
    )
    op = create_operation(frag)
    coo = Coords(np.radians([lon_0]), np.radians([lat_ts]))
    op.trans(FWD, coo)
    return [
        ("lat_0", _fmt(lat_0)),
        ("x_0", _fmt(fe - float(coo.x[0]))),
        ("y_0", _fmt(fn - float(coo.y[0]))),
    ]


def _conversion_pairs(conv_auth: str, conv_code: str,
                      base_pairs=None) -> list[tuple[str, str | None]]:
    con = _db()
    row = con.execute(
        "SELECT method_code, "
        + ", ".join(
            f"param{i}_code, param{i}_value, param{i}_uom_code"
            for i in range(1, 8)
        )
        + ", method_auth_name FROM conversion WHERE auth_name=? AND code=?",
        (conv_auth, conv_code),
    ).fetchone()
    if row is None:
        raise KeyError(f"conversion {conv_code} not found")
    method = str(row[0])
    if str(row[-1]) == "PROJ":
        # PROJ-authority methods name the proj operation directly (e.g.
        # IGNF 'MILLER GEOPORTAIL' → method ('PROJ','mill'), no mapped
        # parameters — ref iso19111/factory.cpp PROJ-method passthrough)
        return [("proj", method)]
    row = row[:-1]
    triplets = []
    for i in range(7):
        pcode, pval, puom = row[1 + 3 * i: 4 + 3 * i]
        if pcode is None:
            continue
        triplets.append((str(pcode), float(pval), str(puom)))
    return method_pairs(method, triplets, base_pairs)


def method_pairs(method: str, triplets, base_pairs=None
                 ) -> list[tuple[str, str | None]]:
    """EPSG conversion method + parameter triplets [(param_code, value,
    uom_code)] → proj parameter pairs, independent of the database row
    (shared by db conversions and WKT-imported conversions)."""
    if method not in _METHOD:
        raise NotImplementedError(f"EPSG method {method} not mapped")
    op, overrides, extra = _METHOD[method]
    # method-aux tokens (axis=swu, no_uoff, guam, ...) go RIGHT AFTER
    # +proj=, the reference's MethodMapping proj_aux position
    pairs: list[tuple[str, str | None]] = [("proj", op)] + list(extra)
    if method == "9837":
        # geographic -> topocentric is a two-step pipeline; the cart
        # step needs the base ellipsoid explicitly (pipeline globals
        # end at the first +step, and the trailing base pairs attach
        # to the LAST step only)
        ell = [(k, v) for k, v in (base_pairs or [])
               if k in ("ellps", "a", "b", "rf", "es", "R")]
        pairs = ([("proj", "pipeline"), ("step", None), ("proj", "cart")]
                 + ell + [("step", None), ("proj", "topocentric")])
    lat_1_for_1sp = None
    for pcode, pval, puom in triplets:
        if pcode not in _PARAM:
            continue
        name, kind = _PARAM[pcode]
        name = overrides.get(pcode, name)
        if name is None:  # explicit drop (e.g. Mercator variant A lat_0)
            continue
        v = float(pval)
        if kind == "a":
            v = _angle_deg(v, str(puom))
        elif kind == "l":
            v = _length_m(v, str(puom))
        else:
            v = _scale(v, str(puom))
        if method in ("9801", "9826") and pcode == "8801":
            lat_1_for_1sp = v  # emit both lat_1 and lat_0
        if method == "9829" and name == "lat_ts":
            pairs.append(("lat_0", "90" if v >= 0 else "-90"))
        pairs.append((name, _fmt(v)))
    if lat_1_for_1sp is not None:
        pairs.append(("lat_0", _fmt(lat_1_for_1sp)))
    if method == "9803":
        d = dict(pairs)
        lon0 = _belgium_lon0(float(d["lon_0"]), float(d["lat_1"]),
                             float(d["lat_2"]), base_pairs)
        pairs = [(k, _fmt(lon0) if k == "lon_0" else v) for k, v in pairs]
    elif method == "9830":
        d = dict(pairs)
        pairs = [(k, v) for k, v in pairs if k not in ("x_0", "y_0")]
        pairs += _variant_c_origin(
            pairs, float(d.get("x_0", 0.0)), float(d.get("y_0", 0.0)),
            base_pairs)
    if method == "9815":
        d = dict(pairs)
        if d.get("alpha") == "90" and d.get("gamma") == "90":
            # Swiss-style: Hotine B with alpha=gamma=90° is the
            # rectified skew orthomorphic == somerc
            # (coordinateoperation.cpp maps this family specially)
            keep = {"lat_0", "k", "x_0", "y_0"}
            out = [("proj", "somerc")]
            out += [("lon_0", d["lonc"])]
            out += [(k, v) for k, v in pairs if k in keep]
            return out
    return pairs


def _projected_unit(cs_auth: str, cs_code: str) -> list[tuple[str, str | None]]:
    con = _db()
    row = con.execute(
        "SELECT uom_code FROM axis WHERE coordinate_system_auth_name=? "
        "AND coordinate_system_code=? ORDER BY coordinate_system_order LIMIT 1",
        (cs_auth, cs_code),
    ).fetchone()
    if row is None or str(row[0]) == "9001":
        return [("units", "m")]
    uom = str(row[0])
    short = con.execute(
        "SELECT proj_short_name, conv_factor FROM unit_of_measure "
        "WHERE auth_name='EPSG' AND code=?",
        (uom,),
    ).fetchone()
    if short and short[0]:
        return [("units", str(short[0]))]
    return [("to_meter", _fmt(float(short[1])))]


def resolve_epsg(code: str | int) -> list[tuple[str, str | None]]:
    """EPSG code → classic proj.4 init parameter pairs. Raises KeyError
    for unknown codes, NotImplementedError for unmapped methods."""
    return resolve_crs("EPSG", str(int(code)))


def _vertical_pairs(auth: str, code: str) -> list[tuple[str, str | None]]:
    """Vertical-unit pairs for a vertical CRS code (+vunits/+vto_meter)."""
    con = _db()
    row = con.execute(
        "SELECT a.uom_code FROM vertical_crs v JOIN axis a "
        "  ON a.coordinate_system_auth_name=v.coordinate_system_auth_name "
        " AND a.coordinate_system_code=v.coordinate_system_code "
        "WHERE v.auth_name=? AND v.code=? LIMIT 1",
        (auth, code),
    ).fetchone()
    if row is None:
        raise KeyError(f"vertical CRS {auth}:{code} not found")
    uom = str(row[0])
    if uom == "9001":
        return [("vunits", "m")]
    srow = con.execute(
        "SELECT proj_short_name, conv_factor FROM unit_of_measure "
        "WHERE auth_name='EPSG' AND code=?",
        (uom,),
    ).fetchone()
    if srow and srow[0]:
        return [("vunits", str(srow[0]))]
    return [("vto_meter", _fmt(float(srow[1])))]


def resolve_crs(auth: str, code: str) -> list[tuple[str, str | None]]:
    """(authority, code) → proj.4 init pairs; EPSG, IGNF and ESRI
    authorities all load from the same registry tables."""
    con = _db()
    row = con.execute(
        "SELECT type FROM geodetic_crs WHERE auth_name=? AND code=?",
        (auth, code),
    ).fetchone()
    if row is not None:
        base = _geodetic_pairs(auth, code)
        if base is None:
            raise KeyError(code)
        head = [("proj", "geocent" if row[0] == "geocentric" else "longlat")]
        return head + base + [("no_defs", None)]
    prow = con.execute(
        "SELECT geodetic_crs_auth_name, geodetic_crs_code, "
        "  conversion_auth_name, conversion_code, "
        "  coordinate_system_auth_name, coordinate_system_code "
        "FROM projected_crs WHERE auth_name=? AND code=?",
        (auth, code),
    ).fetchone()
    if prow is None:
        comp = con.execute(
            "SELECT horiz_crs_auth_name, horiz_crs_code, "
            "  vertical_crs_auth_name, vertical_crs_code "
            "FROM compound_crs WHERE auth_name=? AND code=?",
            (auth, code),
        ).fetchone()
        if comp is not None:
            horiz = resolve_crs(str(comp[0]), str(comp[1]))
            vert = _vertical_pairs(str(comp[2]), str(comp[3]))
            tail = [p for p in horiz if p[0] == "no_defs"]
            head = [p for p in horiz if p[0] != "no_defs"]
            return head + vert + tail
        if con.execute(
            "SELECT 1 FROM vertical_crs WHERE auth_name=? AND code=?",
            (auth, code),
        ).fetchone():
            # standalone vertical CRS: unit-only (geoid grids are files
            # the sandbox doesn't carry; cs2cs emulation would attach
            # +geoidgrids here, ref transform.cpp has_geoidgrids)
            return [("proj", "longlat")] + _vertical_pairs(auth, code) + [
                ("no_defs", None)
            ]
        raise KeyError(f"{auth}:{code} not found in proj.db")
    if prow[3] is None:
        # ESRI rows carrying only a WKT text_definition (the 53xxx/54xxx
        # sphere/WGS84 world series): lower the stored WKT through the
        # ESRI-dialect importer (core/wkt.py, the engine's
        # getMappingsFromESRI path)
        td = con.execute(
            "SELECT text_definition FROM projected_crs "
            "WHERE auth_name=? AND code=?", (auth, code),
        ).fetchone()
        if td and td[0]:
            from ..core.wkt import from_wkt

            pairs = []
            for t in from_wkt(str(td[0])).split():
                k, _, v = t.lstrip("+").partition("=")
                pairs.append((k, v if v else None))
            return pairs
        raise NotImplementedError(f"{auth}:{code} has no conversion reference")
    geo_auth, geo_code, conv_auth, conv_code, cs_auth, cs_code = (
        str(x) for x in prow
    )
    base = _geodetic_pairs(geo_auth, geo_code)
    if base is None:
        raise KeyError(f"base geodetic CRS {geo_code} not found")
    pairs = _conversion_pairs(conv_auth, conv_code, base_pairs=base)
    pairs += base
    pairs += _projected_unit(cs_auth, cs_code)
    pairs.append(("no_defs", None))
    return pairs


# --- candidate operation listing (factory.cpp createOperations subset) -----


def candidate_operations(s_auth: str, s_code: str, t_auth: str,
                         t_code: str) -> list[dict]:
    """Direct registry operations between two geodetic CRSs, both
    directions, accuracy-ranked — the proj.db leg of the reference's
    createOperations (iso19111/factory.cpp); hub composition and
    per-point selection live in core/altops.py."""
    con = _db()
    out: list[dict] = []
    for (sa, sc, ta, tc), inverse in (
        ((s_auth, s_code, t_auth, t_code), False),
        ((t_auth, t_code, s_auth, s_code), True),
    ):
        for row in con.execute(
            "SELECT auth_name, code, name, method_name, accuracy, "
            "  tx, ty, tz, rx, ry, rz, scale_difference, "
            "  translation_uom_code, rotation_uom_code, "
            "  scale_difference_uom_code "
            "FROM helmert_transformation "
            "WHERE source_crs_auth_name=? AND source_crs_code=? "
            "  AND target_crs_auth_name=? AND target_crs_code=? "
            "  AND deprecated=0",
            (sa, sc, ta, tc),
        ):
            # normalize to the +proj=helmert conventional units
            # (m / arcsec / ppm) via DB conv_factor ratios — 229 EPSG
            # helmerts store rotations in mas/µrad/radian/centesimal
            # arcsec and 145 store translations in mm/cm; raw values
            # would be numerically wrong (ref common.cpp
            # Measure::convertToUnit semantics)
            t_f = _uom_factor(row[12] or "9001")
            r_f = (_uom_factor(row[13] or "9104") / _uom_factor("9104"))
            s_f = (_uom_factor(row[14] or "9202") / _uom_factor("9202"))

            def cv(v, f):
                return None if v is None else float(v) * f

            out.append(
                {
                    "auth": row[0], "code": row[1], "name": row[2],
                    "method": row[3], "accuracy": row[4],
                    "inverse": inverse,
                    "params": {
                        "tx": cv(row[5], t_f), "ty": cv(row[6], t_f),
                        "tz": cv(row[7], t_f),
                        "rx": cv(row[8], r_f), "ry": cv(row[9], r_f),
                        "rz": cv(row[10], r_f),
                        "ds": cv(row[11], s_f),
                    },
                }
            )
        for row in con.execute(
            "SELECT auth_name, code, name, method_name, accuracy, grid_name "
            "FROM grid_transformation "
            "WHERE source_crs_auth_name=? AND source_crs_code=? "
            "  AND target_crs_auth_name=? AND target_crs_code=? "
            "  AND deprecated=0",
            (sa, sc, ta, tc),
        ):
            out.append(
                {
                    "auth": row[0], "code": row[1], "name": row[2],
                    "method": row[3], "accuracy": row[4],
                    "inverse": inverse, "grid": row[5],
                }
            )
    out.sort(key=lambda r: (r["accuracy"] is None, r["accuracy"] or 0.0,
                            r["inverse"], str(r["code"])))
    return out


def geodetic_base(auth: str, code: str) -> tuple[str, str] | None:
    """(auth, code) of the geodetic CRS underlying a CRS code (identity
    for geodetic codes, the base for projected ones)."""
    con = _db()
    if con.execute(
        "SELECT 1 FROM geodetic_crs WHERE auth_name=? AND code=?", (auth, code)
    ).fetchone():
        return (auth, code)
    row = con.execute(
        "SELECT geodetic_crs_auth_name, geodetic_crs_code FROM projected_crs "
        "WHERE auth_name=? AND code=?",
        (auth, code),
    ).fetchone()
    if row is None:
        return None
    return (str(row[0]), str(row[1]))


def _extent_bbox(object_table: str, auth: str, code: str):
    """(west, south, east, north) degrees via usage→extent, or None."""
    row = _db().execute(
        "SELECT e.west_lon, e.south_lat, e.east_lon, e.north_lat "
        "FROM usage u JOIN extent e ON e.auth_name=u.extent_auth_name "
        "  AND e.code=u.extent_code "
        "WHERE u.object_table_name=? AND u.object_auth_name=? "
        "  AND u.object_code=? LIMIT 1",
        (object_table, auth, code),
    ).fetchone()
    if row is None or any(v is None for v in row):
        return None
    return tuple(float(v) for v in row)


def routed_datum_operation(s_auth: str, s_code: str,
                           t_auth: str, t_code: str):
    """Per-point-routed datum shift between two geodetic CRSs: every
    non-deprecated registry Helmert candidate becomes a cart→helmert→
    cart⁻¹ pipeline bounded by its usage extent and ranked by accuracy;
    RoutedOperation then picks per point exactly like
    proj_create_crs_to_crs + pj_get_suggested_operation (4D_api.cpp).
    Grid-based candidates are excluded (grid files not bundled)."""
    import math as _m

    from ..core.altops import AltOperation, RoutedOperation
    from ..core.factory import create_operation

    s_base = geodetic_base(s_auth, s_code)
    t_base = geodetic_base(t_auth, t_code)
    if not (s_base and t_base):
        raise KeyError("geodetic base not found")

    def ell_str(auth, code):
        pairs = [p for p in (_geodetic_pairs(auth, code) or [])
                 if p[0] in ("a", "rf", "b")]
        return " ".join(f"+{k}={v}" for k, v in pairs)

    s_ell = ell_str(*s_base)
    t_ell = ell_str(*t_base)
    alts = []
    for o in candidate_operations(*s_base, *t_base):
        if "grid" in o:
            continue
        p = o["params"]
        inv = o["inverse"]
        convention = (
            "coordinate_frame" if "Coordinate Frame" in (o["method"] or "")
            else "position_vector"
        )
        h = (f"+x={p['tx'] or 0} +y={p['ty'] or 0} +z={p['tz'] or 0}")
        if any(p[k] for k in ("rx", "ry", "rz", "ds")):
            h += (f" +rx={p['rx'] or 0} +ry={p['ry'] or 0} "
                  f"+rz={p['rz'] or 0} +s={p['ds'] or 0} "
                  f"+convention={convention}")
        step = f"+step +proj=helmert {h}"
        if inv:
            step = f"+step +inv +proj=helmert {h}"
        op = create_operation(
            "+proj=pipeline "
            f"+step +proj=cart {s_ell} "
            f"{step} "
            f"+step +inv +proj=cart {t_ell}"
        )
        bbox = _extent_bbox("helmert_transformation", o["auth"], o["code"])
        kw = {}
        if bbox:
            d2r = _m.pi / 180.0
            kw = dict(
                minx_src=bbox[0] * d2r, miny_src=bbox[1] * d2r,
                maxx_src=bbox[2] * d2r, maxy_src=bbox[3] * d2r,
                minx_dst=bbox[0] * d2r, miny_dst=bbox[1] * d2r,
                maxx_dst=bbox[2] * d2r, maxy_dst=bbox[3] * d2r,
            )
        alts.append(
            AltOperation(
                op=op, name=f"{o['auth']}:{o['code']} {o['name']}",
                accuracy=-1.0 if o["accuracy"] is None else float(o["accuracy"]),
                **kw,
            )
        )
    if not alts:
        raise KeyError(
            f"no helmert candidates between {s_base} and {t_base}"
        )
    return RoutedOperation(alts)


def create_crs_to_crs(s_crs: str, t_crs: str):
    """proj_create_crs_to_crs parity for authority codes
    ('EPSG:4267', 'IGNF:LAMB93', ...): inverse source projection →
    datum step → forward target projection as one Operation (ref
    4D_api.cpp proj_create_crs_to_crs + factory.createOperations).
    Like the reference, a DIRECT registry operation between the bases
    is preferred (per-point routed by usage extent + accuracy, the
    towgs84 hub ends stripped so the shift applies exactly once); with
    no direct candidate it falls back to the classic towgs84
    hub-and-spoke built into the +init expansions."""
    from ..core.factory import create_operation
    from ..core.op import FWD, INV, Operation

    def parse(c):
        if ":" not in c:
            raise KeyError(f"unknown CRS {c!r}")
        auth, code = c.split(":", 1)
        return auth.upper(), code

    sa, sc = parse(s_crs)
    ta, tc = parse(t_crs)
    s_base = geodetic_base(sa, sc)
    t_base = geodetic_base(ta, tc)
    if not (s_base and t_base):
        raise KeyError(f"unknown CRS {s_crs} / {t_crs}")

    mid = None
    if s_base != t_base:
        s_datum = _db().execute(
            "SELECT datum_auth_name, datum_code FROM geodetic_crs "
            "WHERE auth_name=? AND code=?", s_base).fetchone()
        t_datum = _db().execute(
            "SELECT datum_auth_name, datum_code FROM geodetic_crs "
            "WHERE auth_name=? AND code=?", t_base).fetchone()
        if s_datum != t_datum:
            try:
                mid = routed_datum_operation(*s_base, *t_base)
            except KeyError:
                mid = None

    def end_op(auth, code):
        pairs = resolve_crs(auth, code)
        if mid is not None:
            pairs = [p for p in pairs if p[0] != "towgs84"]
        return create_operation(
            " ".join(f"+{k}={v}" if v is not None else f"+{k}"
                     for k, v in pairs)
        )

    s_op = end_op(sa, sc)
    t_op = end_op(ta, tc)

    class CrsToCrs(Operation):
        name = "crs_to_crs"

        def __init__(self):
            self.params = s_op.params
            self.ell = getattr(s_op, "ell", None)

        def has_inverse(self) -> bool:
            return True

        def angular_input(self, direction):
            return (s_op if direction == FWD else t_op).angular_output(FWD)

        def angular_output(self, direction):
            return (t_op if direction == FWD else s_op).angular_output(FWD)

        def trans(self, direction, coo):
            a, b = (s_op, t_op) if direction == FWD else (t_op, s_op)
            a.trans(INV, coo)
            if mid is not None:
                mid.trans(direction, coo)
            b.trans(FWD, coo)
            return coo

    return CrsToCrs()


def crs_is_lat_first(auth: str, code: str) -> bool:
    """True when the CRS's first axis points north — cs2cs's
    isLatFirst axis normalization (cs2cs.cpp instantiate_crs), which
    flips both the input consumption order and the print order. Covers
    geographic (lat,lon) AND projected (northing,easting) CRSs."""
    con = _db()
    row = con.execute(
        "SELECT coordinate_system_auth_name, coordinate_system_code "
        "FROM geodetic_crs WHERE auth_name=? AND code=? "
        "UNION ALL "
        "SELECT coordinate_system_auth_name, coordinate_system_code "
        "FROM projected_crs WHERE auth_name=? AND code=? LIMIT 1",
        (auth, code, auth, code),
    ).fetchone()
    if row is None:
        return False
    a = con.execute(
        "SELECT orientation FROM axis WHERE coordinate_system_auth_name=?"
        " AND coordinate_system_code=? ORDER BY coordinate_system_order"
        " LIMIT 1",
        (str(row[0]), str(row[1])),
    ).fetchone()
    return a is not None and str(a[0]).strip().lower() == "north"


def resolve_crs_name(name: str):
    """Name → (auth, code) lookup over geodetic_crs, the
    createFromUserInput name-search leg (iso19111/io.cpp): exact
    case-insensitive match first, then closest approximate match
    (difflib ratio >= 0.8 — 'ITRF1993' resolves to 'ITRF93'). Among
    same-name entries prefer geographic 3D, then 2D, then geocentric
    (matching the reference's resolution of bare frame names to the
    coordinate CRS users feed lat/lon/h into)."""
    import difflib

    con = _db()
    rows = con.execute(
        "SELECT auth_name, code, name, type FROM geodetic_crs "
        "WHERE deprecated=0"
    ).fetchall()
    pref = {"geographic 3D": 0, "geographic 2D": 1, "geocentric": 2}
    want = name.strip().lower()
    exact = [r for r in rows if str(r[2]).lower() == want]
    if not exact:
        scored = []
        for r in rows:
            ratio = difflib.SequenceMatcher(
                None, want, str(r[2]).lower()).ratio()
            if ratio >= 0.8:
                scored.append((ratio, r))
        if not scored:
            return None
        top = max(s[0] for s in scored)
        exact = [r for s, r in scored if s == top]
    exact.sort(key=lambda r: (pref.get(str(r[3]), 9),
                              r[0] != "EPSG", str(r[1])))
    r = exact[0]
    return str(r[0]), str(r[1])


def _crs_datum_and_type(auth: str, code: str):
    row = _db().execute(
        "SELECT datum_auth_name, datum_code, type FROM geodetic_crs "
        "WHERE auth_name=? AND code=?", (auth, code)).fetchone()
    return (str(row[0]), str(row[1]), str(row[2])) if row else None


def _uom_factor(code) -> float:
    row = _db().execute(
        "SELECT conv_factor FROM unit_of_measure WHERE code=?",
        (str(code),)).fetchone()
    return float(row[0]) if row and row[0] is not None else 1.0


def frame_shift_operation(s_auth: str, s_code: str,
                          t_auth: str, t_code: str):
    """Direct — possibly TIME-DEPENDENT — Helmert operation between two
    reference frames (EPSG methods 1053/1054/1056/1057 carry rates and
    a reference epoch; helmert.cpp kinematic mode). The registry links
    the frames' GEOCENTRIC CRS codes, so candidates are matched on the
    DATUM of each end; geographic ends get cart legs. Returns a created
    Operation or None when no direct candidate exists."""
    import math as _m

    from ..core.factory import create_operation

    con = _db()
    sd = _crs_datum_and_type(s_auth, s_code)
    td = _crs_datum_and_type(t_auth, t_code)
    if not (sd and td) or sd[:2] == td[:2]:
        return None

    def family(datum):
        # every CRS code (any registry) sharing the datum, as
        # "auth:code" keys — non-EPSG registries (IGNF…) link their
        # frames through their own codes
        return [f"{r[0]}:{r[1]}" for r in con.execute(
            "SELECT auth_name, code FROM geodetic_crs "
            "WHERE datum_auth_name=? AND datum_code=? AND deprecated=0",
            datum[:2])]

    s_fam, t_fam = family(sd), family(td)
    best = None
    for src_list, dst_list, inverse in ((s_fam, t_fam, False),
                                        (t_fam, s_fam, True)):
        if not (src_list and dst_list):
            continue
        q = ("SELECT method_name, tx, ty, tz, translation_uom_code, "
             "  rx, ry, rz, rotation_uom_code, "
             "  scale_difference, scale_difference_uom_code, "
             "  rate_tx, rate_ty, rate_tz, rate_translation_uom_code, "
             "  rate_rx, rate_ry, rate_rz, rate_rotation_uom_code, "
             "  rate_scale_difference, rate_scale_difference_uom_code, "
             "  epoch, accuracy "
             "FROM helmert_transformation "
             "WHERE deprecated=0 "
             "  AND source_crs_auth_name || ':' || source_crs_code IN (%s) "
             "  AND target_crs_auth_name || ':' || target_crs_code IN (%s) "
             "ORDER BY (accuracy IS NULL), accuracy, "
             "  (auth_name != 'EPSG'), code LIMIT 1"
             % (",".join("?" * len(src_list)),
                ",".join("?" * len(dst_list))))
        row = con.execute(q, src_list + dst_list).fetchone()
        if row is not None and (
                best is None
                or (row[-1] or 1e9) < (best[0][-1] or 1e9)):
            best = (row, inverse)
        if best is not None and not inverse:
            break
    if best is None:
        return None
    row, inverse = best
    arcsec = _m.pi / 180.0 / 3600.0

    def tr(v, uom):  # translation to metres
        return 0.0 if v is None else float(v) * _uom_factor(uom or "9001")

    def rot(v, uom):  # rotation to arc-seconds
        if v is None:
            return 0.0
        return float(v) * _uom_factor(uom or "9104") / arcsec

    def sc(v, uom):  # scale difference to ppm
        if v is None:
            return 0.0
        return float(v) * _uom_factor(uom or "9202") * 1e6

    (method, tx, ty, tz, t_uom, rx, ry, rz, r_uom, ds, s_uom,
     dtx, dty, dtz, dt_uom, drx, dry, drz, dr_uom, dds, dsc_uom,
     epoch, _acc) = row
    conv = ("coordinate_frame" if "Coordinate Frame" in (method or "")
            else "position_vector")
    h = (f"+x={tr(tx, t_uom)!r} +y={tr(ty, t_uom)!r} +z={tr(tz, t_uom)!r} "
         f"+rx={rot(rx, r_uom)!r} +ry={rot(ry, r_uom)!r} "
         f"+rz={rot(rz, r_uom)!r} +s={sc(ds, s_uom)!r} "
         f"+convention={conv}")
    if epoch is not None:
        # rate uoms (1027 mm/yr, 1032 mas/yr, 1030 ppb/yr) convert to
        # per-SECOND via conv_factor; helmert wants per-year — multiply
        # back by the EPSG year (uom 1029, 31556925.445 s)
        year = _uom_factor("1029")
        h += (f" +dx={tr(dtx, dt_uom) * year!r}"
              f" +dy={tr(dty, dt_uom) * year!r}"
              f" +dz={tr(dtz, dt_uom) * year!r}"
              f" +drx={rot(drx, dr_uom) * year!r}"
              f" +dry={rot(dry, dr_uom) * year!r}"
              f" +drz={rot(drz, dr_uom) * year!r}"
              f" +ds={sc(dds, dsc_uom) * year!r}"
              f" +t_epoch={float(epoch)!r}")

    def ell(auth, code):
        pairs = [p for p in (_geodetic_pairs(auth, code) or [])
                 if p[0] in ("a", "rf", "b")]
        return " ".join(f"+{k}={v}" for k, v in pairs)

    steps = []
    if sd[2] != "geocentric":
        steps.append(f"+step +proj=cart {ell(s_auth, s_code)}")
    steps.append(("+step +inv " if inverse else "+step ")
                 + "+proj=helmert " + h)
    if td[2] != "geocentric":
        steps.append(f"+step +inv +proj=cart {ell(t_auth, t_code)}")
    return create_operation("+proj=pipeline " + " ".join(steps))

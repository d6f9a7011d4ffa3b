"""WKT text -> dbcrs CRS dict: the reference's WKTParser -> CRS-object
import path (src/iso19111/io.cpp buildGeodeticCRS / buildProjectedCRS /
buildProjectionStandard), re-derived so projinfo can give ANY WKT input
the same reference-style describe (PROJ.4 / WKT2 / WKT1 / PROJJSON
blocks) it gives proj.db objects.

WKT1-GDAL projection/parameter spellings and their EPSG method/param
codes transcribed from the reference's public mapping table
(include/proj/internal/coordinateoperation_constants.hpp
projectionMethodMappings). Special import rules mirrored from io.cpp:

- Mercator_1SP: missing latitude_of_origin is provisioned as EPSG:8801
  = 0; a non-zero latitude_of_origin re-routes to Mercator_2SP (the
  GDAL #3026 hack, io.cpp:3505-3533).
- Polar_Stereographic: scale_factor == 1 -> variant B (EPSG:9829);
  |latitude_of_origin| == 90 -> variant A (EPSG:9810)
  (io.cpp:3535-3589).
- Krovak: south/west AXIS nodes -> EPSG:9819 (axis=swu), otherwise the
  North-Oriented EPSG:1041 (io.cpp:3621-3634).
- EXTENSION["PROJ4", ...]: the stored proj string IS the definition
  (io.cpp:3591-3611).
- WKT1 PRIMEM values are read as DEGREES regardless of the GEOGCS
  angular unit (the EPSG:4807 "grad mess", io.cpp / test_io.cpp:464).
- Spherical-method selection: a zero-flattening base swaps in the
  spherical EPSG method variant (io.cpp selectSphericalOrEllipsoidal).
"""

from __future__ import annotations

import math
import re
import sqlite3

from ..core.wkt import WKTNode, parse_wkt

_DEG = math.pi / 180.0


def _child_nodes(node: WKTNode):
    return [a for a in node.args if isinstance(a, WKTNode)]

# WKT1 parameter name -> unit class ('a' angular, 'l' linear,
# 's' scale) — io.cpp guessUnitForParameter
_ANGULAR_HINTS = ("latitude", "longitude", "meridian", "parallel",
                  "azimuth", "angle", "rectified_grid_angle")


def _param_kind(wkt1_name: str) -> str:
    low = wkt1_name.lower()
    if any(h in low for h in _ANGULAR_HINTS):
        return "a"
    if "scale" in low or low == "k0":
        return "s"
    return "l"


# WKT1-GDAL projection name (lowercased) -> (EPSG method code or None,
# EPSG method name or proj op label, [(wkt1 param name, EPSG param code
# or proj name, kind)], [extra proj pairs for code-None methods]).
# Transcribed from projectionMethodMappings.
_P_NATORIG_SCALEK = [
    ("latitude_of_origin", "8801", "a"),
    ("central_meridian", "8802", "a"),
    ("scale_factor", "8805", "s"),
    ("false_easting", "8806", "l"),
    ("false_northing", "8807", "l"),
]
_P_NATORIG = [
    ("latitude_of_origin", "8801", "a"),
    ("central_meridian", "8802", "a"),
    ("false_easting", "8806", "l"),
    ("false_northing", "8807", "l"),
]
_P_FALSEORIG = [
    ("latitude_of_origin", "8821", "a"),
    ("central_meridian", "8822", "a"),
    ("standard_parallel_1", "8823", "a"),
    ("standard_parallel_2", "8824", "a"),
    ("false_easting", "8826", "l"),
    ("false_northing", "8827", "l"),
]
_P_AEA = [
    ("latitude_of_center", "8821", "a"),
    ("longitude_of_center", "8822", "a"),
    ("standard_parallel_1", "8823", "a"),
    ("standard_parallel_2", "8824", "a"),
    ("false_easting", "8826", "l"),
    ("false_northing", "8827", "l"),
]
_P_CENTER = [
    ("latitude_of_center", "8801", "a"),
    ("longitude_of_center", "8802", "a"),
    ("false_easting", "8806", "l"),
    ("false_northing", "8807", "l"),
]
_P_LON_ONLY = [
    ("central_meridian", "lon_0", "a"),
    ("false_easting", "x_0", "l"),
    ("false_northing", "y_0", "l"),
]
_P_LONC_ONLY = [
    ("longitude_of_center", "lon_0", "a"),
    ("false_easting", "x_0", "l"),
    ("false_northing", "y_0", "l"),
]

_WKT1_PROJECTIONS: dict[str, tuple] = {
    "transverse_mercator": (
        "9807", "Transverse Mercator", _P_NATORIG_SCALEK, []),
    "transverse_mercator_south_orientated": (
        "9808", "Transverse Mercator (South Orientated)",
        _P_NATORIG_SCALEK, []),
    "albers_conic_equal_area": ("9822", "Albers Equal Area", _P_AEA, []),
    "lambert_conformal_conic_1sp": (
        "9801", "Lambert Conic Conformal (1SP)", _P_NATORIG_SCALEK, []),
    "lambert_conformal_conic_2sp": (
        "9802", "Lambert Conic Conformal (2SP)", _P_FALSEORIG, []),
    "lambert conformal conic": (  # Oracle WKT spelling
        "9802", "Lambert Conic Conformal (2SP)", _P_FALSEORIG, []),
    "lambert_conformal_conic_2sp_belgium": (
        "9803", "Lambert Conic Conformal (2SP Belgium)", _P_FALSEORIG, []),
    "azimuthal_equidistant": (
        "9832", "Modified Azimuthal Equidistant", _P_CENTER, []),
    "bonne": ("9827", "Bonne", [
        ("standard_parallel_1", "8801", "a"),
        ("central_meridian", "8802", "a"),
        ("false_easting", "8806", "l"),
        ("false_northing", "8807", "l"),
    ], []),
    "cylindrical_equal_area": (
        "9835", "Lambert Cylindrical Equal Area", [
            ("standard_parallel_1", "8823", "a"),
            ("central_meridian", "8802", "a"),
            ("false_easting", "8806", "l"),
            ("false_northing", "8807", "l"),
        ], []),
    "cassini_soldner": ("9806", "Cassini-Soldner", _P_NATORIG, []),
    "equirectangular": ("1028", "Equidistant Cylindrical", [
        ("standard_parallel_1", "8823", "a"),
        ("latitude_of_origin", "8801", "a"),
        ("central_meridian", "8802", "a"),
        ("false_easting", "8806", "l"),
        ("false_northing", "8807", "l"),
    ], []),
    "gauss_schreiber_transverse_mercator": (
        "gstm", "Gauss Schreiber Transverse Mercator",
        _P_NATORIG_SCALEK, []),
    "hotine_oblique_mercator": (
        "9812", "Hotine Oblique Mercator (variant A)", [
            ("latitude_of_center", "8811", "a"),
            ("longitude_of_center", "8812", "a"),
            ("azimuth", "8813", "a"),
            ("rectified_grid_angle", "8814", "a"),
            ("scale_factor", "8815", "s"),
            ("false_easting", "8806", "l"),
            ("false_northing", "8807", "l"),
        ], []),
    "hotine_oblique_mercator_azimuth_center": (
        "9815", "Hotine Oblique Mercator (variant B)", [
            ("latitude_of_center", "8811", "a"),
            ("longitude_of_center", "8812", "a"),
            ("azimuth", "8813", "a"),
            ("rectified_grid_angle", "8814", "a"),
            ("scale_factor", "8815", "s"),
            ("false_easting", "8816", "l"),
            ("false_northing", "8817", "l"),
        ], []),
    "lambert_azimuthal_equal_area": (
        "9820", "Lambert Azimuthal Equal Area", _P_CENTER, []),
    "mercator_1sp": ("9804", "Mercator (variant A)", [
        ("latitude_of_origin", "8801", "a"),
        ("central_meridian", "8802", "a"),
        ("scale_factor", "8805", "s"),
        ("false_easting", "8806", "l"),
        ("false_northing", "8807", "l"),
    ], []),
    "mercator_2sp": ("9805", "Mercator (variant B)", [
        ("standard_parallel_1", "8823", "a"),
        ("central_meridian", "8802", "a"),
        ("false_easting", "8806", "l"),
        ("false_northing", "8807", "l"),
    ], []),
    "popular_visualisation_pseudo_mercator": (
        "1024", "Popular Visualisation Pseudo Mercator", _P_NATORIG, []),
    "new_zealand_map_grid": ("9811", "New Zealand Map Grid",
                             _P_NATORIG, []),
    "oblique_stereographic": ("9809", "Oblique Stereographic",
                              _P_NATORIG_SCALEK, []),
    "polyconic": ("9818", "American Polyconic", _P_NATORIG, []),
    "laborde_oblique_mercator": (
        "9813", "Laborde Oblique Mercator", [
            ("latitude_of_center", "8811", "a"),
            ("longitude_of_center", "8812", "a"),
            ("azimuth", "8813", "a"),
            ("scale_factor", "8815", "s"),
            ("false_easting", "8806", "l"),
            ("false_northing", "8807", "l"),
        ], []),
    # --- methods without an EPSG code: direct proj emission ---
    "two_point_equidistant": (None, "tpeqd", [
        ("latitude_of_1st_point", "lat_1", "a"),
        ("longitude_of_1st_point", "lon_1", "a"),
        ("latitude_of_2nd_point", "lat_2", "a"),
        ("longitude_of_2nd_point", "lon_2", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "compact_miller": (None, "comill", _P_LON_ONLY, []),
    "equidistant_conic": (None, "eqdc", [
        ("latitude_of_center", "lat_0", "a"),
        ("longitude_of_center", "lon_0", "a"),
        ("standard_parallel_1", "lat_1", "a"),
        ("standard_parallel_2", "lat_2", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "eckert_i": (None, "eck1", _P_LON_ONLY, []),
    "eckert_ii": (None, "eck2", _P_LON_ONLY, []),
    "eckert_iii": (None, "eck3", _P_LON_ONLY, []),
    "eckert_iv": (None, "eck4", _P_LON_ONLY, []),
    "eckert_v": (None, "eck5", _P_LON_ONLY, []),
    "eckert_vi": (None, "eck6", _P_LON_ONLY, []),
    "flat_polar_quartic": (None, "mbtfpq", _P_LON_ONLY, []),
    "gall_stereographic": (None, "gall", _P_LON_ONLY, []),
    "goode_homolosine": (None, "goode", _P_LON_ONLY, []),
    "interrupted_goode_homolosine": (None, "igh", _P_LON_ONLY, []),
    "geostationary_satellite": (None, "geos", [
        ("central_meridian", "lon_0", "a"),
        ("satellite_height", "h", "l"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "gnomonic": (None, "gnom", [
        ("latitude_of_origin", "lat_0", "a"),
        ("central_meridian", "lon_0", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "hotine_oblique_mercator_two_point_natural_origin": (
        None, "omerc", [
            ("latitude_of_center", "lat_0", "a"),
            ("latitude_of_point_1", "lat_1", "a"),
            ("longitude_of_point_1", "lon_1", "a"),
            ("latitude_of_point_2", "lat_2", "a"),
            ("longitude_of_point_2", "lon_2", "a"),
            ("scale_factor", "k", "s"),
            ("false_easting", "x_0", "l"),
            ("false_northing", "y_0", "l"),
        ], []),
    "international_map_of_the_world_polyconic": (None, "imw_p", [
        ("central_meridian", "lon_0", "a"),
        ("latitude_of_1st_point", "lat_1", "a"),
        ("latitude_of_2nd_point", "lat_2", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "miller_cylindrical": (None, "mill", _P_LONC_ONLY, [("R_A", None)]),
    "mollweide": (None, "moll", _P_LON_ONLY, []),
    "natural_earth": (None, "natearth", _P_LON_ONLY, []),
    "natural_earth_ii": (None, "natearth2", _P_LON_ONLY, []),
    "orthographic": (None, "ortho", [
        ("latitude_of_origin", "lat_0", "a"),
        ("central_meridian", "lon_0", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "patterson": (None, "patterson", _P_LON_ONLY, []),
    "robinson": (None, "robin", _P_LONC_ONLY, []),
    "sinusoidal": (None, "sinu", _P_LONC_ONLY, []),
    "stereographic": (None, "stere", [
        ("latitude_of_origin", "lat_0", "a"),
        ("central_meridian", "lon_0", "a"),
        ("scale_factor", "k", "s"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "times": (None, "times", _P_LON_ONLY, []),
    "vandergrinten": (None, "vandg", _P_LON_ONLY, [("R_A", None)]),
    "wagner_i": (None, "wag1", _P_LON_ONLY, []),
    "wagner_ii": (None, "wag2", _P_LON_ONLY, []),
    "wagner_iii": (None, "wag3", [
        ("latitude_of_origin", "lat_ts", "a"),
        ("central_meridian", "lon_0", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "wagner_iv": (None, "wag4", _P_LON_ONLY, []),
    "wagner_v": (None, "wag5", _P_LON_ONLY, []),
    "wagner_vi": (None, "wag6", _P_LON_ONLY, []),
    "wagner_vii": (None, "wag7", _P_LON_ONLY, []),
    "quadrilateralized_spherical_cube": (None, "qsc", [
        ("latitude_of_origin", "lat_0", "a"),
        ("central_meridian", "lon_0", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "spherical_cross_track_height": (None, "sch", [
        ("peg_point_latitude", "plat_0", "a"),
        ("peg_point_longitude", "plon_0", "a"),
        ("peg_point_heading", "phdg_0", "a"),
        ("peg_point_height", "h_0", "l"),
    ], []),
    "aitoff": (None, "aitoff", _P_LON_ONLY, []),
    "winkel_i": (None, "wink1", [
        ("central_meridian", "lon_0", "a"),
        ("standard_parallel_1", "lat_ts", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "winkel_ii": (None, "wink2", [
        ("central_meridian", "lon_0", "a"),
        ("standard_parallel_1", "lat_1", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "winkel_tripel": (None, "wintri", [
        ("central_meridian", "lon_0", "a"),
        ("standard_parallel_1", "lat_1", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "craster_parabolic": (None, "crast", _P_LON_ONLY, []),
    "loximuthal": (None, "loxim", [
        ("latitude_of_origin", "lat_1", "a"),
        ("central_meridian", "lon_0", "a"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "quartic_authalic": (None, "qua_aut", _P_LON_ONLY, []),
    "transverse_cylindrical_equal_area": (None, "tcea", [
        ("latitude_of_origin", "lat_0", "a"),
        ("central_meridian", "lon_0", "a"),
        ("scale_factor", "k", "s"),
        ("false_easting", "x_0", "l"),
        ("false_northing", "y_0", "l"),
    ], []),
    "tunisia_mapping_grid": (
        "9816", "Tunisia Mapping Grid", _P_FALSEORIG, []),
}

# ellipsoidal EPSG method -> spherical variant, applied when the base
# ellipsoid has zero flattening (io.cpp selectSphericalOrEllipsoidal)
_SPHERICAL_VARIANT = {
    "9835": "9834",  # Lambert Cylindrical Equal Area
    "1028": "1029",  # Equidistant Cylindrical
    "9820": "1027",  # Lambert Azimuthal Equal Area
}


def _unit_dict_from_node(node: WKTNode | None, kind: str,
                         default: dict) -> dict:
    """UNIT/ANGLEUNIT/LENGTHUNIT node -> unit dict, identified against
    the EPSG unit table by conversion factor when possible."""
    if node is None or len(node.args) < 2:
        return default
    name = str(node.args[0])
    factor = float(node.args[1])
    return _identify_unit(name, factor, kind)


def _identify_unit(name: str, factor: float, kind: str) -> dict:
    from . import dbcrs

    kind_db = {"a": "angle", "l": "length", "s": "scale"}[kind]
    if kind == "a" and abs(factor - _DEG) < 1e-10 * _DEG:
        factor = _DEG
    # the reference's UnitOfMeasure constants first (io.cpp buildUnit
    # maps name+factor onto the well-known constants and their ids)
    _CONSTANTS = {
        ("angle", round(_DEG, 15)): "9122",           # degree
        ("angle", round(math.pi / 200.0, 15)): "9105",  # grad
        ("angle", 1.0): "9101",                        # radian
        ("angle", round(_DEG / 3600.0, 18)): "9104",   # arc-second
        ("length", 1.0): "9001",                       # metre
        ("length", 0.3048): "9002",                    # foot
        ("length", round(1200.0 / 3937.0, 15)): "9003",  # US survey foot
        ("scale", 1.0): "9201",                        # unity
        ("scale", 1e-6): "9202",                       # parts per million
    }
    const = _CONSTANTS.get((kind_db, round(factor, 15 if factor < 1 else 10)))
    if const is None:
        for (k, f), code in _CONSTANTS.items():
            if k == kind_db and abs(f - factor) <= 1e-10 * abs(f):
                const = code
                break
    if const is not None:
        return dbcrs._unit("EPSG", const)
    row = dbcrs._one(
        "SELECT auth_name, code, name FROM unit_of_measure "
        "WHERE type=? AND abs(conv_factor - ?) <= 1e-10 * abs(conv_factor) "
        "ORDER BY (lower(name)=lower(?)) DESC, "
        "(proj_short_name IS NOT NULL) DESC, auth_name, code",
        kind_db, factor, name)
    if row is not None:
        u = dbcrs._unit(row[0], row[1])
        return u
    return {"auth": "", "code": "", "name": name, "factor": factor,
            "kind": kind_db}


_METRE = None
_DEGREE = None


def _metre() -> dict:
    global _METRE
    if _METRE is None:
        from . import dbcrs
        _METRE = dbcrs._unit("EPSG", "9001")
    return dict(_METRE)


def _degree() -> dict:
    global _DEGREE
    if _DEGREE is None:
        from . import dbcrs
        _DEGREE = dbcrs._unit("EPSG", "9122")
    return dict(_DEGREE)


def _node_authority(node: WKTNode) -> tuple[str, str] | None:
    idn = node.find("AUTHORITY", "ID")
    if idn is not None and len(idn.args) >= 2:
        code = idn.args[1]
        if isinstance(code, float):  # WKT2 ID codes are bare numbers
            code = str(int(code))
        return str(idn.args[0]), str(code).strip('"')
    return None


# ---------------------------------------------------------------- geographic


def _build_pm(root: WKTNode, wkt1: bool, geog_unit: dict) -> dict:
    from . import dbcrs

    pm_node = root.find("PRIMEM")
    greenwich = {
        "auth": "EPSG", "code": "8901", "name": "Greenwich",
        "value": 0.0, "lon_deg": 0.0, "emit_id": True,
        "unit": {"auth": "EPSG", "code": "9122", "name": "degree",
                 "factor": _DEG, "kind": "angle"}}
    if pm_node is None:
        return greenwich
    name = str(pm_node.args[0]) if pm_node.args else "unknown"
    nums = [a for a in pm_node.args if isinstance(a, float)]
    raw = nums[0] if nums else 0.0
    unit_node = pm_node.find("ANGLEUNIT", "UNIT")
    if wkt1:
        # WKT1-GDAL: PRIMEM value is in DEGREES regardless of the
        # GEOGCS unit (the EPSG:4807 "grad mess"); the model keeps the
        # GEOGCS unit, so convert the degree value back into it
        lon_deg = raw
        unit = geog_unit if geog_unit["kind"] == "angle" else _degree()
        value = lon_deg * _DEG / unit["factor"] if unit["factor"] else lon_deg
    else:
        unit = _unit_dict_from_node(unit_node, "a", _degree())
        value = raw
        lon_deg = raw * unit["factor"] / _DEG if unit["factor"] else raw
    # identify against the db by name for ids (e.g. Paris -> EPSG:8903)
    row = dbcrs._one(
        "SELECT auth_name, code, name FROM prime_meridian WHERE name=?",
        name)
    auth, code = (row[0], row[1]) if row else ("", "")
    return {"auth": auth, "code": code, "name": name, "value": value,
            "lon_deg": round(lon_deg, 12), "emit_id": bool(row),
            "unit": unit}


def _build_ellipsoid(sph: WKTNode) -> dict:
    from . import dbcrs

    name = str(sph.args[0]) if sph.args else "unknown"
    nums = [a for a in sph.args if isinstance(a, float)]
    if len(nums) < 2:
        raise ValueError("ELLIPSOID node needs a and rf")
    a, rf = nums[0], nums[1]
    unit_node = sph.find("LENGTHUNIT", "UNIT")
    unit = _unit_dict_from_node(unit_node, "l", _metre())
    row = dbcrs._one(
        "SELECT auth_name, code FROM ellipsoid WHERE name=?", name)
    auth, code = (row[0], row[1]) if row else ("", "")
    return {"auth": auth, "code": code, "name": name, "a": a, "rf": rf,
            "unit": unit}


def _geog_axes(root: WKTNode, wkt1: bool, unit: dict) -> list[dict]:
    axes = []
    for node in _child_nodes(root):
        if node.keyword != "AXIS" or len(node.args) < 2:
            continue
        nm = str(node.args[0])
        orient = str(node.args[1]).lower()
        ax_unit = _unit_dict_from_node(
            node.find("ANGLEUNIT", "UNIT"), "a", unit)
        axes.append({"name": nm, "abbrev": "", "orientation": orient,
                     "unit": ax_unit, "order": len(axes) + 1})
    if not axes:
        if wkt1:  # WKT1 default: lon, lat
            axes = [
                {"name": "Longitude", "abbrev": "", "orientation": "east",
                 "unit": unit, "order": 1},
                {"name": "Latitude", "abbrev": "", "orientation": "north",
                 "unit": unit, "order": 2},
            ]
        else:  # WKT2 default for a bare BASEGEOGCRS: lat, lon
            axes = [
                {"name": "Latitude", "abbrev": "lat",
                 "orientation": "north", "unit": unit, "order": 1},
                {"name": "Longitude", "abbrev": "lon",
                 "orientation": "east", "unit": unit, "order": 2},
            ]
    else:
        # WKT1 axis names are often lowercase; normalise abbrevs off
        for ax in axes:
            low = ax["name"].lower()
            if low in ("latitude", "lat", "geodetic latitude"):
                ax["name"] = "Latitude"
            elif low in ("longitude", "lon", "geodetic longitude"):
                ax["name"] = "Longitude"
    return axes


def _build_geographic(root: WKTNode) -> dict:
    """GEOGCS (WKT1) / GEOGCRS / GEODCRS (WKT2) -> geographic CRS dict."""
    from . import dbcrs

    wkt1 = root.keyword == "GEOGCS"
    datum = root.find("DATUM", "TRF", "GEODETICDATUM")
    ensemble = root.find("ENSEMBLE")
    if datum is None and ensemble is None:
        raise ValueError(f"{root.keyword} without DATUM")
    dnode = datum if datum is not None else ensemble
    sph = dnode.find("SPHEROID", "ELLIPSOID")
    if sph is None:
        raise ValueError("DATUM without ELLIPSOID")

    d_name_in = str(dnode.args[0]) if dnode.args else "unknown"
    d_name = dbcrs._WKT1_DATUM_RENAME.get(
        d_name_in, d_name_in.replace("_", " ") if wkt1 else d_name_in)
    drow = dbcrs._one(
        "SELECT auth_name, code, name FROM geodetic_datum "
        "WHERE name=? OR name=?", d_name, d_name + " ensemble")

    unit = _unit_dict_from_node(
        root.find("ANGLEUNIT", "UNIT"), "a", _degree())
    crs: dict = {
        "kind": "geographic", "geog_type": "geographic 2D",
        "name": str(root.args[0]) if root.args else "unknown",
        "datum": {
            # keep the (renamed) input name; db row supplies identity
            # only — "X ensemble" rows must not leak their suffix
            "auth": drow[0] if drow else "",
            "code": drow[1] if drow else "",
            "name": d_name,
            "ellipsoid": _build_ellipsoid(sph),
            "pm": _build_pm(root, wkt1, unit),
        },
        "cs": {"type": "ellipsoidal", "dim": 2,
               "axes": _geog_axes(root, wkt1, unit)},
        "usages": [],
        "deprecated": False,
    }
    auth = _node_authority(root)
    if auth:
        crs["auth"], crs["code"] = auth
    tw = dnode.find("TOWGS84") or root.find("TOWGS84")
    if tw is not None:
        vals = [a for a in tw.args if isinstance(a, float)]
        vals += [0.0] * (7 - len(vals))
        crs["towgs84"] = vals[:7]
    if len(crs["cs"]["axes"]) == 3:
        crs["cs"]["dim"] = 3
        crs["geog_type"] = "geographic 3D"
    return crs


# ----------------------------------------------------------------- projected


def _projection_params_wkt1(root: WKTNode) -> dict[str, float]:
    params = {}
    for node in _child_nodes(root):
        if node.keyword == "PARAMETER" and len(node.args) >= 2:
            params[str(node.args[0]).lower()] = float(node.args[1])
    return params


def _mk_param(code: str | None, name: str, value: float, unit: dict) -> dict:
    from . import dbcrs

    auth = "EPSG" if code and code.isdigit() else ""
    pname = name
    if auth:
        row = dbcrs._one(
            "SELECT name FROM conversion_param "
            "WHERE auth_name='EPSG' AND code=?", code)
        if row:
            pname = row[0]
    return {"auth": auth, "code": code or "", "name": pname,
            "value": value, "unit": unit}


def _build_conversion_wkt1(root: WKTNode, base: dict) -> dict:
    """PROJCS PROJECTION/PARAMETER nodes -> conversion dict
    (io.cpp buildProjectionStandard)."""
    proj_node = root.find("PROJECTION")
    if proj_node is None or not proj_node.args:
        raise ValueError("PROJCS without PROJECTION")
    pname = str(proj_node.args[0])
    key = pname.lower()
    params = _projection_params_wkt1(root)

    # parameter units: angular from the base GEOGCS, linear from the
    # PROJCS UNIT, scale unity (io.cpp guessUnitForParameter)
    ang_unit = base["cs"]["axes"][0]["unit"]
    if ang_unit["kind"] != "angle":
        ang_unit = _degree()
    lin_unit = _unit_dict_from_node(root.find("UNIT"), "l", _metre())
    from . import dbcrs
    unity = dbcrs._unit("EPSG", "9201")

    # io.cpp:3505-3533 — the GDAL #3026 Mercator hacks
    if key == "mercator_1sp":
        lat0 = params.get("latitude_of_origin")
        if lat0 is not None and lat0 != 0.0:
            key = "mercator_2sp"
            params.setdefault("standard_parallel_1", lat0)
            params.pop("latitude_of_origin", None)
        else:
            params.setdefault("latitude_of_origin", 0.0)
            params.setdefault("scale_factor", 1.0)

    # io.cpp:3535-3589 — Polar_Stereographic variant selection
    if key == "polar_stereographic":
        lat0 = params.get("latitude_of_origin")
        k = params.get("scale_factor", 1.0)
        lat0_deg = (lat0 * ang_unit["factor"] / _DEG
                    if lat0 is not None else None)
        if lat0 is not None and k == 1.0:
            entry = ("9829", "Polar Stereographic (variant B)", [
                ("latitude_of_origin", "8832", "a"),
                ("central_meridian", "8833", "a"),
                ("false_easting", "8806", "l"),
                ("false_northing", "8807", "l"),
            ], [])
        elif lat0_deg is not None and abs(abs(lat0_deg) - 90.0) < 1e-10:
            entry = ("9810", "Polar Stereographic (variant A)", [
                ("latitude_of_origin", "8801", "a"),
                ("central_meridian", "8802", "a"),
                ("scale_factor", "8805", "s"),
                ("false_easting", "8806", "l"),
                ("false_northing", "8807", "l"),
            ], [])
        else:
            entry = ("9829", "Polar Stereographic (variant B)", [
                ("latitude_of_origin", "8832", "a"),
                ("central_meridian", "8833", "a"),
                ("false_easting", "8806", "l"),
                ("false_northing", "8807", "l"),
            ], [])
    elif key == "krovak":
        # axis order decides plain (south-west, 9819) vs North-Oriented
        axes = [str(n.args[1]).lower() for n in _child_nodes(root)
                if n.keyword == "AXIS" and len(n.args) >= 2]
        code = "9819" if axes[:2] == ["south", "west"] else "1041"
        nm = ("Krovak" if code == "9819"
              else "Krovak (North Orientated)")
        entry = (code, nm, [
            ("latitude_of_center", "8811", "a"),
            ("longitude_of_center", "8833", "a"),
            ("azimuth", "1036", "a"),
            ("pseudo_standard_parallel_1", "8818", "a"),
            ("scale_factor", "8819", "s"),
            ("false_easting", "8806", "l"),
            ("false_northing", "8807", "l"),
        ], [])
    elif key in _WKT1_PROJECTIONS:
        entry = _WKT1_PROJECTIONS[key]
    else:
        raise ValueError(f"unknown WKT1 projection {pname!r}")

    mcode, mname, plist, extras = entry
    ell = base["datum"]["ellipsoid"]
    if mcode in _SPHERICAL_VARIANT and ell.get("rf", 0.0) == 0.0:
        mcode = _SPHERICAL_VARIANT[mcode]

    conv_params, triplets, proj_pairs = [], [], []
    for wname, target, kind in plist:
        if wname not in params:
            continue
        raw = params.pop(wname)
        if kind == "a":
            unit = ang_unit
            norm = raw * unit["factor"] / _DEG
            uom = "9102"
        elif kind == "l":
            unit = lin_unit
            norm = raw * (unit["factor"] or 1.0)
            uom = "9001"
        else:
            unit = unity
            norm = raw
            uom = "9201"
        if mcode and mcode.isdigit():
            conv_params.append(_mk_param(target, wname, raw, unit))
            triplets.append((target, norm, uom))
        else:
            conv_params.append(_mk_param(None, wname, raw, unit))
            if target is not None:
                from .projdb import _fmt
                proj_pairs.append((target, _fmt(norm)))

    conv = {
        "auth": "", "code": "", "name": "unnamed",
        "method_auth": "EPSG" if (mcode and mcode.isdigit()) else "",
        "method_code": mcode or "",
        "method_name": mname if (mcode and mcode.isdigit()) else pname,
        "params": conv_params,
    }
    if mcode and mcode.isdigit():
        conv["triplets"] = triplets
    else:
        pp = [("proj", mcode if mcode else entry[1])]
        pp += extras
        pp += proj_pairs
        conv["proj_pairs"] = pp
    return conv


def _build_conversion_wkt2(conv_node: WKTNode, base: dict) -> dict:
    from . import dbcrs

    method = conv_node.find("METHOD", "PROJECTION")
    if method is None or not method.args:
        raise ValueError("CONVERSION without METHOD")
    mname = str(method.args[0])
    mid = _node_authority(method)
    if mid:
        mauth, mcode = mid
    else:
        row = dbcrs._one(
            "SELECT auth_name, code FROM conversion_method WHERE name=?",
            mname)
        if row is None:
            row = dbcrs._one(
                "SELECT auth_name, code FROM coordinate_operation_method "
                "WHERE name=?", mname)
        if row is None:
            raise ValueError(f"unknown method {mname!r}")
        mauth, mcode = row[0], row[1]

    conv_params, triplets = [], []
    for node in _child_nodes(conv_node):
        if node.keyword != "PARAMETER" or len(node.args) < 2:
            continue
        pname = str(node.args[0])
        value = float(node.args[1])
        pid = _node_authority(node)
        if pid:
            pcode = pid[1]
        else:
            row = dbcrs._one(
                "SELECT code FROM conversion_param "
                "WHERE auth_name='EPSG' AND name=?", pname)
            pcode = row[0] if row else ""
        unode = node.find("ANGLEUNIT", "LENGTHUNIT", "SCALEUNIT", "UNIT")
        kind = _param_kind(pname)
        if unode is not None:
            kind = {"ANGLEUNIT": "a", "LENGTHUNIT": "l",
                    "SCALEUNIT": "s"}.get(unode.keyword, kind)
        default = {"a": _degree(), "l": _metre(),
                   "s": dbcrs._unit("EPSG", "9201")}[kind]
        unit = _unit_dict_from_node(unode, kind, default)
        conv_params.append({"auth": "EPSG" if pcode else "",
                            "code": pcode, "name": pname,
                            "value": value, "unit": unit})
        if pcode:
            if kind == "a":
                triplets.append(
                    (pcode, value * unit["factor"] / _DEG, "9102"))
            elif kind == "l":
                triplets.append(
                    (pcode, value * (unit["factor"] or 1.0), "9001"))
            else:
                triplets.append((pcode, value, "9201"))

    ell = base["datum"]["ellipsoid"]
    if mcode in _SPHERICAL_VARIANT and ell.get("rf", 0.0) == 0.0:
        mcode = _SPHERICAL_VARIANT[mcode]
    return {
        "auth": "", "code": "",
        "name": (str(conv_node.args[0])
                 if conv_node.args else "unnamed"),
        "method_auth": mauth, "method_code": mcode, "method_name": mname,
        "params": conv_params, "triplets": triplets,
    }


def _proj_axes(root: WKTNode, unit: dict) -> list[dict]:
    axes = []
    for node in _child_nodes(root):
        if node.keyword != "AXIS" or len(node.args) < 2:
            continue
        nm = str(node.args[0])
        orient = str(node.args[1]).lower()
        ax_unit = _unit_dict_from_node(
            node.find("LENGTHUNIT", "UNIT"), "l", unit)
        abbrev = ""
        m = re.match(r"^\(?([A-Za-z])\)?$", nm)
        if m:
            abbrev = m.group(1).upper()
            nm = {"E": "Easting", "N": "Northing",
                  "X": "Easting", "Y": "Northing"}.get(abbrev, nm)
        axes.append({"name": nm.capitalize() if nm.islower() else nm,
                     "abbrev": abbrev, "orientation": orient,
                     "unit": ax_unit, "order": len(axes) + 1})
    if not axes:
        axes = [
            {"name": "Easting", "abbrev": "E", "orientation": "east",
             "unit": unit, "order": 1},
            {"name": "Northing", "abbrev": "N", "orientation": "north",
             "unit": unit, "order": 2},
        ]
    return axes


def _build_projected(root: WKTNode) -> dict:
    wkt1 = root.keyword == "PROJCS"
    base_node = root.find("GEOGCS", "BASEGEOGCRS", "BASEGEODCRS")
    if base_node is None:
        raise ValueError(f"{root.keyword} without base geographic CRS")
    base = _build_geographic(base_node)

    # GDAL PROJ4 EXTENSION escape hatch (io.cpp:3591-3611)
    ext = root.find("EXTENSION")
    proj4_ext = None
    if ext is not None and len(ext.args) >= 2 and \
            str(ext.args[0]).upper() == "PROJ4":
        proj4_ext = str(ext.args[1])

    if wkt1:
        conv = _build_conversion_wkt1(root, base)
        unit = _unit_dict_from_node(root.find("UNIT"), "l", _metre())
    else:
        conv_node = root.find("CONVERSION", "DERIVINGCONVERSION")
        if conv_node is None:
            raise ValueError("PROJCRS without CONVERSION")
        conv = _build_conversion_wkt2(conv_node, base)
        unit = _unit_dict_from_node(
            root.find("LENGTHUNIT", "UNIT"), "l", _metre())

    crs: dict = {
        "kind": "projected",
        "name": str(root.args[0]) if root.args else "unknown",
        "base": base,
        "conversion": conv,
        "cs": {"type": "Cartesian", "dim": 2,
               "axes": _proj_axes(root, unit)},
        "usages": [],
        "deprecated": False,
    }
    auth = _node_authority(root)
    if auth:
        crs["auth"], crs["code"] = auth
    if proj4_ext:
        crs["proj4_ext"] = proj4_ext
    return crs


# -------------------------------------------------------------------- entry


def _build_geocentric(root: WKTNode) -> dict:
    """GEOCCS (WKT1) / WKT2 geodetic CRS with a Cartesian 3D CS."""
    crs = _build_geographic(root)
    crs["kind"] = "geocentric"
    crs.pop("geog_type", None)
    unit = _unit_dict_from_node(
        root.find("LENGTHUNIT", "UNIT"), "l", _metre())
    crs["cs"] = {"type": "Cartesian", "dim": 3, "axes": [
        {"name": "Geocentric X", "abbrev": "X", "orientation":
         "geocentricX", "unit": unit, "order": 1},
        {"name": "Geocentric Y", "abbrev": "Y", "orientation":
         "geocentricY", "unit": unit, "order": 2},
        {"name": "Geocentric Z", "abbrev": "Z", "orientation":
         "geocentricZ", "unit": unit, "order": 3},
    ]}
    ext = root.find("EXTENSION")
    if ext is not None and len(ext.args) >= 2 and \
            str(ext.args[0]).upper() == "PROJ4":
        crs["proj4_ext"] = str(ext.args[1])
    return crs


def _build_vertical(root: WKTNode) -> dict:
    """VERT_CS (WKT1) / VERTCRS / VERTICALCRS (WKT2)."""
    from . import dbcrs

    wkt1 = root.keyword == "VERT_CS"
    dnode = root.find("VERT_DATUM", "VDATUM", "VERTICALDATUM", "VRF")
    d_name = str(dnode.args[0]) if dnode is not None and dnode.args \
        else "unknown"
    drow = dbcrs._one(
        "SELECT auth_name, code FROM vertical_datum WHERE name=?", d_name)
    unit = _unit_dict_from_node(
        root.find("LENGTHUNIT", "UNIT"), "l", _metre())
    axes = []
    for node in _child_nodes(root):
        if node.keyword != "AXIS" or len(node.args) < 2:
            continue
        axes.append({
            "name": str(node.args[0]),
            "abbrev": "", "orientation": str(node.args[1]).lower(),
            "unit": _unit_dict_from_node(
                node.find("LENGTHUNIT", "UNIT"), "l", unit),
            "order": 1})
    if not axes:
        axes = [{"name": "Gravity-related height", "abbrev": "H",
                 "orientation": "up", "unit": unit, "order": 1}]
    crs: dict = {
        "kind": "vertical",
        "name": str(root.args[0]) if root.args else "unknown",
        "cs": {"type": "vertical", "dim": 1, "axes": axes[:1]},
        "vdatum": {"auth": drow[0] if drow else "",
                   "code": drow[1] if drow else "",
                   "name": d_name, "frame_epoch": None},
        "usages": [],
        "deprecated": False,
    }
    auth = _node_authority(root)
    if auth:
        crs["auth"], crs["code"] = auth
    del wkt1
    return crs


def _build_compound(root: WKTNode) -> dict:
    """COMPD_CS (WKT1) / COMPOUNDCRS (WKT2): component CRSs in order."""
    comps = []
    for node in _child_nodes(root):
        if node.keyword in ("GEOGCS", "GEOGCRS", "GEODCRS"):
            comps.append(_build_geographic(node))
        elif node.keyword in ("PROJCS", "PROJCRS"):
            comps.append(_build_projected(node))
        elif node.keyword in ("VERT_CS", "VERTCRS", "VERTICALCRS"):
            comps.append(_build_vertical(node))
    if len(comps) < 2:
        raise ValueError("compound CRS needs >= 2 components")
    crs: dict = {
        "kind": "compound",
        "name": str(root.args[0]) if root.args else "unknown",
        "components": comps,
        "usages": [],
        "deprecated": False,
    }
    auth = _node_authority(root)
    if auth:
        crs["auth"], crs["code"] = auth
    return crs


_WKT_KEYWORDS = ("GEOGCS", "GEOGCRS", "GEODCRS", "GEOGRAPHICCRS",
                 "GEODETICCRS", "PROJCS", "PROJCRS", "PROJECTEDCRS",
                 "GEOCCS", "VERT_CS", "VERTCRS", "VERTICALCRS",
                 "COMPD_CS", "COMPOUNDCRS")


def wkt_import(text: str):
    """WKT text (WKT1-GDAL or WKT2) -> (warnings, crs_dict) for the
    projinfo describe surface, or None when the text is not an
    importable CRS form (caller falls back to other paths). A missing
    EPSG registry is not such a form: its FileNotFoundError propagates."""
    head = text.lstrip()[:16].upper()
    if not any(head.startswith(k) for k in _WKT_KEYWORDS):
        return None
    try:
        root = parse_wkt(text)
    except ValueError:
        return None
    kw = root.keyword
    try:
        if kw == "GEOCCS":
            return [], _build_geocentric(root)
        if kw in ("GEOGCS", "GEOGCRS", "GEODCRS", "GEOGRAPHICCRS",
                  "GEODETICCRS"):
            cs = root.find("CS")
            if cs is not None and cs.args and \
                    str(cs.args[0]).lower() == "cartesian":
                return [], _build_geocentric(root)
            crs = _build_geographic(root)
            ext = root.find("EXTENSION")
            if ext is not None and len(ext.args) >= 2 and \
                    str(ext.args[0]).upper() == "PROJ4":
                crs["proj4_ext"] = str(ext.args[1])
            return [], crs
        if kw in ("PROJCS", "PROJCRS", "PROJECTEDCRS"):
            return [], _build_projected(root)
        if kw in ("VERT_CS", "VERTCRS", "VERTICALCRS"):
            return [], _build_vertical(root)
        if kw in ("COMPD_CS", "COMPOUNDCRS"):
            return [], _build_compound(root)
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            sqlite3.Error):
        # malformed or unknown CRS text
        return None
    return None

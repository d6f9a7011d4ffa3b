"""WKT2:2019 (ISO 19162) emission for resolved operations.

The reference's WKT formatter lives in the iso19111 layer
(src/iso19111/io.cpp, WKTFormatter) and is database-backed; this is a
from-scratch re-derivation of the subset a proj-string can express:

- ``longlat``-style ops emit ``GEOGCRS`` with the resolved ellipsoid
  and (when present) ``BOUNDCRS`` + ``ABRIDGEDTRANSFORMATION`` for a
  ``+towgs84`` Helmert leg (mirroring how the reference represents
  gridless datum info in WKT2).
- projected ops with a known EPSG method mapping emit ``PROJCRS`` with
  ``CONVERSION``/``METHOD``/``PARAMETER`` nodes.
- anything else falls back to the reference's own escape hatch for
  non-CRS operations: ``METHOD["PROJ-based operation method: ..."]``
  (io.cpp exports exactly this form for un-mappable proj-strings).

Only formatting lives here — all numbers come from the already-resolved
Operation (ellipsoid constants, offsets, k0), so WKT agrees with what
the kernels actually compute.
"""

from __future__ import annotations

import math

from .constants import DEG_TO_RAD, RAD_TO_DEG

# proj name -> (EPSG method name, [(wkt param name, source attr/param)])
# Sources: 'lat_0/lon_0' read degrees from the op's resolved radians;
# 'k0/x0/y0' read the resolved floats; 'lat_1/lat_2/lat_ts' read params.
_METHODS = {
    "tmerc": (
        "Transverse Mercator",
        [
            ("Latitude of natural origin", "lat_0"),
            ("Longitude of natural origin", "lon_0"),
            ("Scale factor at natural origin", "k0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
    "merc": (
        "Mercator (variant B)",
        [
            ("Latitude of 1st standard parallel", "lat_ts"),
            ("Longitude of natural origin", "lon_0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
    "webmerc": (
        "Popular Visualisation Pseudo Mercator",
        [
            ("Latitude of natural origin", "lat_0"),
            ("Longitude of natural origin", "lon_0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
    "lcc": (
        "Lambert Conic Conformal (2SP)",
        [
            ("Latitude of false origin", "lat_0"),
            ("Longitude of false origin", "lon_0"),
            ("Latitude of 1st standard parallel", "lat_1"),
            ("Latitude of 2nd standard parallel", "lat_2"),
            ("Easting at false origin", "x0"),
            ("Northing at false origin", "y0"),
        ],
    ),
    "aea": (
        "Albers Equal Area",
        [
            ("Latitude of false origin", "lat_0"),
            ("Longitude of false origin", "lon_0"),
            ("Latitude of 1st standard parallel", "lat_1"),
            ("Latitude of 2nd standard parallel", "lat_2"),
            ("Easting at false origin", "x0"),
            ("Northing at false origin", "y0"),
        ],
    ),
    "laea": (
        "Lambert Azimuthal Equal Area",
        [
            ("Latitude of natural origin", "lat_0"),
            ("Longitude of natural origin", "lon_0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
    "cea": (
        "Lambert Cylindrical Equal Area",
        [
            ("Latitude of 1st standard parallel", "lat_ts"),
            ("Longitude of natural origin", "lon_0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
    # "stere" is dispatched by _method_variant (variant A/B selection
    # + pole-signed standard parallel), not by this table
    "somerc": (
        "Hotine Oblique Mercator (variant B)",
        [
            ("Latitude of projection centre", "lat_0"),
            ("Longitude of projection centre", "lon_0"),
            ("Scale factor on initial line", "k0"),
            ("Easting at projection centre", "x0"),
            ("Northing at projection centre", "y0"),
        ],
    ),
    "eqc": (
        "Equidistant Cylindrical",
        [
            ("Latitude of 1st standard parallel", "lat_ts"),
            ("Longitude of natural origin", "lon_0"),
            ("False easting", "x0"),
            ("False northing", "y0"),
        ],
    ),
}

_ANGLEUNIT = 'ANGLEUNIT["degree",0.0174532925199433]'
_METREUNIT = 'LENGTHUNIT["metre",1]'

# +datum= shorthand -> the EPSG datum name the reference resolves it to
# (datums.cpp pj_datums table + io.cpp naming)
_DATUM_NAMES = {
    "WGS84": "World Geodetic System 1984",
    "NAD83": "North American Datum 1983",
    "NAD27": "North American Datum 1927",
    "potsdam": "Deutsches Hauptdreiecksnetz",
    "GGRS87": "Greek Geodetic Reference System 1987",
    "hermannskogel": "Militar-Geographische Institut",
    "ire65": "TM65",
    "nzgd49": "New Zealand Geodetic Datum 1949",
    "OSGB36": "Ordnance Survey of Great Britain 1936",
    "carthage": "Carthage",
}

_ELLPS_NAMES = {"WGS84": "WGS 84", "GRS80": "GRS 1980"}


def _num(v: float) -> str:
    """Shortest exact-enough numeric literal (repr-style, no trailing .0)."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _param_value(op, src: str) -> float:
    if src == "lat_0":
        v = op.phi0 * RAD_TO_DEG
    elif src == "lon_0":
        v = op.lam0 * RAD_TO_DEG
    elif src == "k0":
        return op.k0
    elif src == "x0":
        return op.x0
    elif src == "y0":
        return op.y0
    else:
        # spec parameters not stored as resolved attrs (lat_1/lat_2/lat_ts)
        return op.params.float_(src, 0.0)
    # radians→degrees round-trip leaves ~1 ulp noise on derived angles
    # (utm's lam0 = (zone+.5)·π/30−π): snap to 10 decimals
    return round(v, 10)


def _ellipsoid(op) -> str:
    # use the ORIGINAL ellipsoid (a_orig/es_orig): spherical-only
    # projections legitimately flatten op.ell to a sphere internally,
    # but the CRS keeps the datum ellipsoid
    a = getattr(op, "a_orig", None) or op.ell.a
    es = getattr(op, "es_orig", None)
    if es is None:
        es = op.ell.es
    name = op.params.str_("ellps") or "unknown"
    name = _ELLPS_NAMES.get(name, name)
    f = 1.0 - (1.0 - es) ** 0.5
    rf = 1.0 / f if f else 0
    return (
        f'ELLIPSOID["{name}",{_num(a)},{_num(round(rf, 9))},{_METREUNIT}]'
    )


def _datum_name(op) -> str:
    d = op.params.str_("datum")
    return _DATUM_NAMES.get(d, "unknown") if d else "unknown"


def _primem(op, unit: str = "") -> str:
    """PRIMEM node from the op's resolved +pm offset (radians in
    op.from_greenwich). Hardcoding Greenwich would silently drop a
    non-Greenwich prime meridian the importer (_primem_tokens) fully
    supports — a ~2.34° (175 km) error for +pm=paris after round-trip."""
    fg = getattr(op, "from_greenwich", 0.0)
    suffix = f",{unit}" if unit else ""
    if not fg:
        return f'PRIMEM["Greenwich",0{suffix}]'
    pm = op.params.str_("pm") or ""
    name = pm.capitalize() if pm.isalpha() else "unknown"
    return f'PRIMEM["{name}",{_num(round(fg * RAD_TO_DEG, 12))}{suffix}]'


def _geog_cs(op, name: str = "unknown") -> str:
    return (
        f'GEOGCRS["{name}",'
        f'DATUM["{_datum_name(op)}",{_ellipsoid(op)}],'
        f'{_primem(op, _ANGLEUNIT)},'
        "CS[ellipsoidal,2],"
        f'AXIS["geodetic latitude (Lat)",north,ORDER[1],{_ANGLEUNIT}],'
        f'AXIS["geodetic longitude (Lon)",east,ORDER[2],{_ANGLEUNIT}]]'
    )


def _base_geog(op) -> str:
    return (
        'BASEGEOGCRS["unknown",'
        f'DATUM["{_datum_name(op)}",{_ellipsoid(op)}],'
        f'{_primem(op, _ANGLEUNIT)}]'
    )


def _bound(inner: str, towgs84: str) -> str:
    vals = [float(v) for v in towgs84.split(",")]
    vals += [0.0] * (7 - len(vals))
    names = [
        ("X-axis translation", ""),
        ("Y-axis translation", ""),
        ("Z-axis translation", ""),
        ("X-axis rotation", ""),
        ("Y-axis rotation", ""),
        ("Z-axis rotation", ""),
        ("Scale difference", ""),
    ]
    params = ",".join(
        f'PARAMETER["{n}",{_num(v)}]' for (n, _), v in zip(names, vals)
    )
    return (
        f"BOUNDCRS[SOURCECRS[{inner}],"
        'TARGETCRS[GEOGCRS["WGS 84",DATUM["World Geodetic System 1984",'
        f'ELLIPSOID["WGS 84",6378137,298.257223563,{_METREUNIT}]],'
        f'PRIMEM["Greenwich",0,{_ANGLEUNIT}],CS[ellipsoidal,2],'
        f'AXIS["geodetic latitude (Lat)",north,ORDER[1],{_ANGLEUNIT}],'
        f'AXIS["geodetic longitude (Lon)",east,ORDER[2],{_ANGLEUNIT}]]],'
        'ABRIDGEDTRANSFORMATION["Transformation from unknown to WGS84",'
        'METHOD["Position Vector transformation (geog2D domain)"],'
        f"{params}]]"
    )


def _escape_method(params) -> str:
    toks = " ".join(
        f"+{k}={v}" if v is not None else f"+{k}"
        for k, v in params.pairs
        if k != "no_defs"
    )
    return f"PROJ-based operation method: {toks}"


def _method_variant(op):
    """EPSG method + parameter list for the op, selecting the variant
    that preserves every resolved parameter (shared by to_wkt2 and
    to_projjson; to_wkt1 applies the same logic with WKT1 spellings):
    merc without +lat_ts is variant A (scale factor carries k_0), polar
    stere without +lat_ts is variant A (origin at the pole + scale
    factor), and a variant-B standard parallel is SIGNED by the pole
    hemisphere (PROJ takes |lat_ts| and reads the pole from lat_0, but
    WKT importers infer the pole from the parallel's sign). Parameter
    sources may be float literals (emitted verbatim) or the usual
    attr/param names."""
    name = op.name
    params = op.params
    if name == "utm":
        # utm resolves to tmerc constants (lam0/k0/x0/y0 already set)
        return _METHODS["tmerc"]
    if name == "merc" and not params.has("lat_ts"):
        return (
            "Mercator (variant A)",
            [
                ("Latitude of natural origin", 0.0),
                ("Longitude of natural origin", "lon_0"),
                ("Scale factor at natural origin", "k0"),
                ("False easting", "x0"),
                ("False northing", "y0"),
            ],
        )
    if name == "stere":
        if abs(abs(op.phi0 * RAD_TO_DEG) - 90.0) > 1e-9:
            # oblique stere has no proj-string-lossless EPSG method
            return _escape_method(params), []
        sgn = 1.0 if op.phi0 >= 0.0 else -1.0
        if not params.has("lat_ts"):
            return (
                "Polar Stereographic (variant A)",
                [
                    ("Latitude of natural origin", sgn * 90.0),
                    ("Longitude of natural origin", "lon_0"),
                    ("Scale factor at natural origin", "k0"),
                    ("False easting", "x0"),
                    ("False northing", "y0"),
                ],
            )
        return (
            "Polar Stereographic (variant B)",
            [
                ("Latitude of standard parallel",
                 sgn * abs(params.float_("lat_ts", 90.0))),
                ("Longitude of origin", "lon_0"),
                ("False easting", "x0"),
                ("False northing", "y0"),
            ],
        )
    if name in _METHODS:
        return _METHODS[name]
    # reference escape hatch for non-mappable operations
    return _escape_method(params), []


def _projected(op) -> str:
    method, plist = _method_variant(op)
    conv_params = ",".join(
        f'PARAMETER["{pname}",'
        f'{_num(src if isinstance(src, float) else _param_value(op, src))},'
        + (_ANGLEUNIT if pname.startswith(("Latitude", "Longitude")) else _METREUNIT)
        + "]"
        for pname, src in plist
    )
    conv = (
        f'CONVERSION["unknown",METHOD["{method}"]'
        + ("," + conv_params if conv_params else "")
        + "]"
    )
    return (
        'PROJCRS["unknown",'
        f"{_base_geog(op)},"
        f"{conv},"
        "CS[Cartesian,2],"
        f'AXIS["(E)",east,ORDER[1],{_METREUNIT}],'
        f'AXIS["(N)",north,ORDER[2],{_METREUNIT}]]'
    )


def to_wkt2(op) -> str:
    """WKT2:2019 for a resolved Operation (geographic or projected)."""
    if op.is_latlong:
        inner = _geog_cs(op)
    else:
        inner = _projected(op)
    towgs84 = op.params.str_("towgs84")
    # an all-zero towgs84 coming from a NAMED datum (+datum=WGS84 expands
    # to 0,0,0) is implied by the datum itself and emits as a bare CRS;
    # an all-zero towgs84 the user pinned EXPLICITLY (+ellps=bessel
    # +towgs84=0,0,0) asserts identity with WGS84 and must survive the
    # round-trip — dropping it would change how the CRS composes in
    # cs2cs datum hops (pinned null Helmert vs unknown datum)
    if towgs84 and (
        any(float(v) != 0.0 for v in towgs84.split(","))
        or not op.params.str_("datum")
    ):
        return _bound(inner, towgs84)
    return inner


# ---------------------------------------------------------------------------
# WKT1 emission (the reference's WKTFormatter WKT1_GDAL / WKT1_ESRI
# conventions, src/iso19111/io.cpp — re-derived for the same
# proj-string-expressible subset as to_wkt2). Round-trips through this
# module's own from_wkt: every projection name / parameter spelling
# emitted here is accepted by _METHOD_PROJ/_WKT_PARAM_KEYS, and the
# GDAL escape hatch (EXTENSION["PROJ4", ...]) is honored on import.
# ---------------------------------------------------------------------------

# op name -> (GDAL projection, ESRI projection,
#             [(gdal param, esri param, value source)])
_WKT1_METHODS = {
    "tmerc": ("Transverse_Mercator", "Transverse_Mercator", [
        ("latitude_of_origin", "Latitude_Of_Origin", "lat_0"),
        ("central_meridian", "Central_Meridian", "lon_0"),
        ("scale_factor", "Scale_Factor", "k0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "merc": ("Mercator_2SP", "Mercator", [
        ("standard_parallel_1", "Standard_Parallel_1", "lat_ts"),
        ("central_meridian", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "lcc": ("Lambert_Conformal_Conic_2SP", "Lambert_Conformal_Conic", [
        ("standard_parallel_1", "Standard_Parallel_1", "lat_1"),
        ("standard_parallel_2", "Standard_Parallel_2", "lat_2"),
        ("latitude_of_origin", "Latitude_Of_Origin", "lat_0"),
        ("central_meridian", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "aea": ("Albers_Conic_Equal_Area", "Albers", [
        ("standard_parallel_1", "Standard_Parallel_1", "lat_1"),
        ("standard_parallel_2", "Standard_Parallel_2", "lat_2"),
        ("latitude_of_center", "Latitude_Of_Origin", "lat_0"),
        ("longitude_of_center", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "laea": ("Lambert_Azimuthal_Equal_Area", "Lambert_Azimuthal_Equal_Area", [
        ("latitude_of_center", "Latitude_Of_Origin", "lat_0"),
        ("longitude_of_center", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "cea": ("Cylindrical_Equal_Area", "Cylindrical_Equal_Area", [
        ("standard_parallel_1", "Standard_Parallel_1", "lat_ts"),
        ("central_meridian", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "eqc": ("Equirectangular", "Equidistant_Cylindrical", [
        ("standard_parallel_1", "Standard_Parallel_1", "lat_ts"),
        ("central_meridian", "Central_Meridian", "lon_0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
    "somerc": ("Hotine_Oblique_Mercator_Azimuth_Center",
               "Hotine_Oblique_Mercator_Azimuth_Center", [
        ("latitude_of_center", "Latitude_Of_Center", "lat_0"),
        ("longitude_of_center", "Longitude_Of_Center", "lon_0"),
        ("scale_factor", "Scale_Factor", "k0"),
        ("false_easting", "False_Easting", "x0"),
        ("false_northing", "False_Northing", "y0"),
    ]),
}

# lon_0-only world methods (GDAL name, ESRI name) — GDAL/ESRI WKT1
# names from coordinateoperation_constants.hpp / the ESRI mapping
# table; a None GDAL name means no WKT1_GDAL form (eqearth, hammer:
# the reference uses the PROJ4-extension escape hatch there too)
_W1_LON0 = [
    ("central_meridian", "Central_Meridian", "lon_0"),
    ("false_easting", "False_Easting", "x0"),
    ("false_northing", "False_Northing", "y0"),
]
_WKT1_METHODS.update({
    op_: (g, e, list(_W1_LON0)) for op_, g, e in [
        ("mill", "Miller_Cylindrical", "Miller_Cylindrical"),
        ("robin", "Robinson", "Robinson"),
        ("sinu", "Sinusoidal", "Sinusoidal"),
        ("moll", "Mollweide", "Mollweide"),
        ("eck1", "Eckert_I", "Eckert_I"),
        ("eck2", "Eckert_II", "Eckert_II"),
        ("eck3", "Eckert_III", "Eckert_III"),
        ("eck4", "Eckert_IV", "Eckert_IV"),
        ("eck5", "Eckert_V", "Eckert_V"),
        ("eck6", "Eckert_VI", "Eckert_VI"),
        ("gall", "Gall_Stereographic", "Gall_Stereographic"),
        ("wag4", "Wagner_IV", "Wagner_IV"),
        ("wag5", "Wagner_V", "Wagner_V"),
        ("wag7", "Wagner_VII", "Wagner_VII"),
        ("natearth", "Natural_Earth", "Natural_Earth"),
        ("natearth2", "Natural_Earth_II", "Natural_Earth_II"),
        ("eqearth", None, "Equal_Earth"),
        ("crast", "Craster_Parabolic", "Craster_Parabolic"),
        ("qua_aut", "Quartic_Authalic", "Quartic_Authalic"),
        ("hammer", None, "Hammer_Aitoff"),
        ("aitoff", "Aitoff", "Aitoff"),
        ("comill", "Compact_Miller", "Compact_Miller"),
        ("patterson", "Patterson", "Patterson"),
        ("times", "Times", "Times"),
        ("mbtfpq", "Flat_Polar_Quartic", "Flat_Polar_Quartic"),
        ("goode", "Goode_Homolosine", "Goode_Homolosine"),
        ("igh", "Interrupted_Goode_Homolosine", None),
        ("vandg", "VanDerGrinten", "Van_der_Grinten_I"),
    ]
})
_WKT1_METHODS["wintri"] = ("Winkel_Tripel", "Winkel_Tripel", [
    ("standard_parallel_1", "Standard_Parallel_1", "lat_1"),
] + list(_W1_LON0))
_WKT1_METHODS["loxim"] = ("Loximuthal", "Loximuthal", [
    ("central_parallel", "Central_Parallel", "lat_1"),
] + list(_W1_LON0))

# inverse of _ESRI_DATUM_ALIASES for emission (+datum shorthand -> D_*)
_ESRI_DATUM_REVERSE = {
    "WGS84": "D_WGS_1984",
    "NAD83": "D_North_American_1983",
    "NAD27": "D_North_American_1927",
    "OSGB36": "D_OSGB_1936",
    "nzgd49": "D_New_Zealand_1949",
    "potsdam": "D_Deutsches_Hauptdreiecksnetz",
    "GGRS87": "D_Greek_Geodetic_Reference_System_1987",
    "carthage": "D_Carthage",
    "ire65": "D_TM65",
    "hermannskogel": "D_MGI",
}

_W1_DEG = '0.0174532925199433'


def _w1_spheroid(op) -> str:
    a = getattr(op, "a_orig", None) or op.ell.a
    es = getattr(op, "es_orig", None)
    if es is None:
        es = op.ell.es
    name = op.params.str_("ellps") or "unknown"
    name = _ELLPS_NAMES.get(name, name)
    f = 1.0 - (1.0 - es) ** 0.5
    rf = 1.0 / f if f else 0
    return f'SPHEROID["{name}",{_num(a)},{_num(round(rf, 9))}]'


def _w1_datum(op, esri: bool) -> str:
    d = op.params.str_("datum")
    if esri:
        name = _ESRI_DATUM_REVERSE.get(d, "D_unknown") if d else "D_unknown"
    else:
        name = _DATUM_NAMES.get(d, "unknown") if d else "unknown"
    body = f'DATUM["{name}",{_w1_spheroid(op)}'
    # WKT1_GDAL carries the Helmert leg as a TOWGS84 node inside DATUM
    # (io.cpp WKT1 convention) — ESRI WKT has no TOWGS84 concept.
    # An all-zero towgs84 from a NAMED datum is implied by the name; an
    # EXPLICIT all-zero pin (+ellps=bessel +towgs84=0,0,0) asserts
    # identity with WGS84 and must be emitted (GDAL writes
    # TOWGS84[0,0,0,0,0,0,0]) or the round-trip loses the datum pin
    towgs84 = op.params.str_("towgs84")
    if not esri and towgs84 and (
        any(float(v) != 0.0 for v in towgs84.split(","))
        or not d
    ):
        vals = [float(v) for v in towgs84.split(",")]
        vals += [0.0] * (7 - len(vals))
        body += ",TOWGS84[" + ",".join(_num(v) for v in vals[:7]) + "]"
    return body + "]"


def _w1_geogcs(op, esri: bool) -> str:
    gname = "GCS_unknown" if esri else "unknown"
    unit = f'UNIT["Degree",{_W1_DEG}]' if esri else f'UNIT["degree",{_W1_DEG}]'
    out = (
        f'GEOGCS["{gname}",{_w1_datum(op, esri)},'
        f'{_primem(op)},{unit}'
    )
    if not esri:
        out += ',AXIS["Latitude",NORTH],AXIS["Longitude",EAST]'
    return out + "]"


def _w1_escape_projcs(op, esri: bool) -> str:
    """GDAL's lossless escape hatch for methods WKT1 can't spell:
    EXTENSION["PROJ4", "<proj-string>"] (honored by _proj_tokens on
    import, by GDAL, and by the reference's WKT1 importer)."""
    toks = " ".join(
        f"+{k}={v}" if v is not None else f"+{k}"
        for k, v in op.params.pairs
        if k != "no_defs"
    )
    unit = 'UNIT["Meter",1.0]' if esri else 'UNIT["metre",1]'
    return (
        f'PROJCS["unknown",{_w1_geogcs(op, esri)},'
        f'PROJECTION["custom_proj4"],{unit},'
        f'EXTENSION["PROJ4","{toks} +wktext"]]'
    )


def to_wkt1(op, esri: bool = False) -> str:
    """WKT1 for a resolved Operation — GDAL convention by default,
    ESRI with ``esri=True`` (the WKT1_GDAL / WKT1_ESRI outputs of the
    reference's WKTFormatter, io.cpp). Emitted strings round-trip
    through from_wkt to the same resolved operation."""
    if op.is_latlong:
        return _w1_geogcs(op, esri)
    name = op.name
    if name == "utm":
        entry = _WKT1_METHODS["tmerc"]
    elif name == "webmerc" and esri:
        # ESRI convention: Mercator_Auxiliary_Sphere with the
        # auxiliary-sphere-type selector parameter
        unit = 'UNIT["Meter",1.0]'
        params = ",".join(
            f'PARAMETER["{pn}",{_num(_param_value(op, src))}]'
            for pn, src in (
                ("False_Easting", "x0"), ("False_Northing", "y0"),
                ("Central_Meridian", "lon_0"),
            )
        )
        return (
            f'PROJCS["unknown",{_w1_geogcs(op, True)},'
            f'PROJECTION["Mercator_Auxiliary_Sphere"],{params},'
            f'PARAMETER["Auxiliary_Sphere_Type",0],{unit}]'
        )
    elif name == "webmerc":
        entry = None  # GDAL: Mercator_1SP + PROJ4 extension (below)
    elif name == "merc":
        if op.params.has("lat_ts") or (esri and op.k0 == 1.0):
            # variant B (2SP): standard parallel carries the scaling;
            # ESRI variant A with k0=1 is the same op as SP1=0
            entry = _WKT1_METHODS["merc"]
        elif esri:
            entry = None  # ESRI has no scale-factor Mercator: escape hatch
        else:
            # GDAL variant A: Mercator_1SP + scale_factor — emitting
            # Mercator_2SP here would silently drop +k_0
            entry = ("Mercator_1SP", "Mercator", [
                ("central_meridian", "Central_Meridian", "lon_0"),
                ("scale_factor", "Scale_Factor", "k0"),
                ("false_easting", "False_Easting", "x0"),
                ("false_northing", "False_Northing", "y0"),
            ])
    elif name == "stere":
        polar = abs(abs(op.phi0 * RAD_TO_DEG) - 90.0) < 1e-9
        if polar:
            # GDAL convention: latitude_of_origin carries the standard
            # parallel SIGNED by the pole hemisphere. Variant A (no
            # +lat_ts) emits the pole itself (±90) + scale_factor; the
            # importer's lat_ts=±90 reduces to the k0 form (stere.setup
            # phits=π/2 branch), the exact inverse mapping. Reading the
            # raw lat_ts param here would lose the hemisphere for
            # variant A (lat_ts defaults to 0 → +90 pole on import).
            sgn = 1.0 if op.phi0 >= 0.0 else -1.0
            if op.params.has("lat_ts"):
                lat_or = sgn * abs(op.params.float_("lat_ts", 90.0))
            else:
                lat_or = sgn * 90.0
            entry = ("Polar_Stereographic", "Polar_Stereographic", [
                ("latitude_of_origin", "Standard_Parallel_1", lat_or),
                ("central_meridian", "Central_Meridian", "lon_0"),
                ("scale_factor", "Scale_Factor", "k0"),
                ("false_easting", "False_Easting", "x0"),
                ("false_northing", "False_Northing", "y0"),
            ])
        else:
            entry = ("Stereographic", "Stereographic", [
                ("latitude_of_origin", "Latitude_Of_Origin", "lat_0"),
                ("central_meridian", "Central_Meridian", "lon_0"),
                ("scale_factor", "Scale_Factor", "k0"),
                ("false_easting", "False_Easting", "x0"),
                ("false_northing", "False_Northing", "y0"),
            ])
    elif name == "vandg" and not (op.params.has("R_A") or op.es_orig == 0):
        # the WKT1 method name IMPLIES the R_A authalic sphere
        # (coordinateoperation_constants.hpp:774) — a bare ellipsoidal
        # vandg has no named WKT1 form
        entry = None
    else:
        entry = _WKT1_METHODS.get(name)
    if entry is None:
        return _w1_escape_projcs(op, esri)
    gname, ename, plist = entry
    pname = ename if esri else gname
    if pname is None:
        # no name in this dialect (eqearth/hammer in GDAL, igh in ESRI)
        return _w1_escape_projcs(op, esri)
    unit = 'UNIT["Meter",1.0]' if esri else 'UNIT["metre",1]'
    params = ",".join(
        f'PARAMETER["{(ep if esri else gp)}",'
        f'{_num(src if isinstance(src, float) else _param_value(op, src))}]'
        for gp, ep, src in plist
    )
    out = (
        f'PROJCS["unknown",{_w1_geogcs(op, esri)},'
        f'PROJECTION["{pname}"],{params},{unit}'
    )
    if not esri:
        out += ',AXIS["Easting",EAST],AXIS["Northing",NORTH]'
    return out + "]"


# ---------------------------------------------------------------------------
# PROJJSON emission (the exportToJSON direction of io.cpp; schema
# https://proj.org/schemas/v0.7/projjson.schema.json) — same
# proj-string-expressible subset as to_wkt2, as plain dicts.

_PROJJSON_SCHEMA = "https://proj.org/schemas/v0.7/projjson.schema.json"


def _pj_ellipsoid(op) -> dict:
    a = getattr(op, "a_orig", None) or op.ell.a
    es = getattr(op, "es_orig", None)
    if es is None:
        es = op.ell.es
    name = op.params.str_("ellps") or "unknown"
    f = 1.0 - (1.0 - es) ** 0.5
    out = {"name": _ELLPS_NAMES.get(name, name), "semi_major_axis": a}
    if f:
        out["inverse_flattening"] = round(1.0 / f, 9)
    else:
        out["radius"] = a
    return out


def _pj_datum(op) -> dict:
    return {
        "type": "GeodeticReferenceFrame",
        "name": _datum_name(op),
        "ellipsoid": _pj_ellipsoid(op),
    }


def _pj_geog(op, name="unknown") -> dict:
    datum = _pj_datum(op)
    fg = getattr(op, "from_greenwich", 0.0)
    if fg:
        # non-Greenwich +pm: PROJJSON carries it inside the datum
        # (GeodeticReferenceFrame.prime_meridian); omitting it would
        # silently shift every longitude by the meridian offset
        pm = op.params.str_("pm") or ""
        datum["prime_meridian"] = {
            "name": pm.capitalize() if pm.isalpha() else "unknown",
            "longitude": round(fg * RAD_TO_DEG, 12),
        }
    return {
        "type": "GeographicCRS",
        "name": name,
        "datum": datum,
        "coordinate_system": {
            "subtype": "ellipsoidal",
            "axis": [
                {"name": "Geodetic latitude", "abbreviation": "Lat",
                 "direction": "north", "unit": "degree"},
                {"name": "Geodetic longitude", "abbreviation": "Lon",
                 "direction": "east", "unit": "degree"},
            ],
        },
    }


def _pj_conversion(op) -> dict:
    method, plist = _method_variant(op)
    params = [
        {
            "name": pname,
            "value": src if isinstance(src, float) else _param_value(op, src),
            "unit": "degree"
            if pname.startswith(("Latitude", "Longitude"))
            else "metre",
        }
        for pname, src in plist
    ]
    return {
        "type": "Conversion",
        "name": "unknown",
        "method": {"name": method},
        "parameters": params,
    }


def to_projjson(op) -> dict:
    """PROJJSON (v0.7 schema) for a resolved Operation — the JSON
    twin of to_wkt2; BOUNDCRS becomes a BoundCRS object with the
    towgs84 Helmert as the abridged transformation."""
    if op.is_latlong:
        inner = _pj_geog(op)
    else:
        inner = {
            "type": "ProjectedCRS",
            "name": "unknown",
            "base_crs": _pj_geog(op),
            "conversion": _pj_conversion(op),
            "coordinate_system": {
                "subtype": "Cartesian",
                "axis": [
                    {"name": "Easting", "abbreviation": "E",
                     "direction": "east", "unit": "metre"},
                    {"name": "Northing", "abbreviation": "N",
                     "direction": "north", "unit": "metre"},
                ],
            },
        }
    towgs84 = op.params.str_("towgs84")
    # same explicit-zero rule as to_wkt2: a user-pinned all-zero
    # towgs84 asserts identity with WGS84 and must survive
    if towgs84 and (
        any(float(v) != 0.0 for v in towgs84.split(","))
        or not op.params.str_("datum")
    ):
        vals = [float(v) for v in towgs84.split(",")]
        vals += [0.0] * (7 - len(vals))
        pnames = [
            "X-axis translation", "Y-axis translation", "Z-axis translation",
            "X-axis rotation", "Y-axis rotation", "Z-axis rotation",
            "Scale difference",
        ]
        inner = {
            "type": "BoundCRS",
            "source_crs": inner,
            "target_crs": {
                "type": "GeographicCRS",
                "name": "WGS 84",
                "datum": {
                    "type": "GeodeticReferenceFrame",
                    "name": "World Geodetic System 1984",
                    "ellipsoid": {
                        "name": "WGS 84",
                        "semi_major_axis": 6378137,
                        "inverse_flattening": 298.257223563,
                    },
                },
                "coordinate_system": {
                    "subtype": "ellipsoidal",
                    "axis": [
                        {"name": "Geodetic latitude", "abbreviation": "Lat",
                         "direction": "north", "unit": "degree"},
                        {"name": "Geodetic longitude", "abbreviation": "Lon",
                         "direction": "east", "unit": "degree"},
                    ],
                },
            },
            "transformation": {
                "name": "Transformation from unknown to WGS84",
                "method": {
                    "name": "Position Vector transformation (geog2D domain)"
                },
                "parameters": [
                    {"name": n, "value": v}
                    for n, v in zip(pnames, vals)
                ],
            },
        }
    return {"$schema": _PROJJSON_SCHEMA, **inner}


# ---------------------------------------------------------------------------
# WKT parsing (the importFromWkt direction of src/iso19111/io.cpp's
# WKTParser, re-derived for the proj-string-expressible subset): a WKT2
# GEOGCRS / PROJCRS / BOUNDCRS (or WKT1 GEOGCS / PROJCS) is lowered to
# the equivalent proj-string, which the factory then resolves normally.

_WKT_PARAM_KEYS = {
    "Latitude of natural origin": "lat_0",
    "Longitude of natural origin": "lon_0",
    "Scale factor at natural origin": "k_0",
    "False easting": "x_0",
    "False northing": "y_0",
    "Latitude of false origin": "lat_0",
    "Longitude of false origin": "lon_0",
    "Easting at false origin": "x_0",
    "Northing at false origin": "y_0",
    "Latitude of 1st standard parallel": "lat_1",
    "Latitude of 2nd standard parallel": "lat_2",
    "Latitude of standard parallel": "lat_ts",
    "Longitude of origin": "lon_0",
    "Latitude of projection centre": "lat_0",
    "Longitude of projection centre": "lon_0",
    "Scale factor on initial line": "k_0",
    "Easting at projection centre": "x_0",
    "Northing at projection centre": "y_0",
    # WKT1 spellings
    "latitude_of_origin": "lat_0",
    "central_meridian": "lon_0",
    "scale_factor": "k_0",
    "false_easting": "x_0",
    "false_northing": "y_0",
    "standard_parallel_1": "lat_1",
    "standard_parallel_2": "lat_2",
    "latitude_of_center": "lat_0",
    "longitude_of_center": "lon_0",
    "azimuth": "alpha",
    "rectified_grid_angle": "gamma",
    # ESRI spellings (io.cpp:3265 getMappingsFromESRI; Title_Case with
    # underscores). Auxiliary_Sphere_Type is consumed by the webmerc
    # special case, not mapped.
    "False_Easting": "x_0",
    "False_Northing": "y_0",
    "Central_Meridian": "lon_0",
    "Scale_Factor": "k_0",
    "Latitude_Of_Origin": "lat_0",
    "Standard_Parallel_1": "lat_1",
    "Standard_Parallel_2": "lat_2",
    "Longitude_Of_Center": "lon_0",
    "Latitude_Of_Center": "lat_0",
    "Longitude_Of_Origin": "lon_0",
    "Central_Parallel": "lat_1",
    "central_parallel": "lat_1",
    "Height": "h",
    "Azimuth": "alpha",
    "XY_Plane_Rotation": "gamma",
    "Latitude_Of_1st_Point": "lat_1",
    "Longitude_Of_1st_Point": "lon_1",
    "Latitude_Of_2nd_Point": "lat_2",
    "Longitude_Of_2nd_Point": "lon_2",
}

# EPSG method name -> proj name; single-standard-parallel methods remap
# lat_1 to the parameter the kernel actually reads (lat_ts)
_METHOD_PROJ = {
    "Transverse Mercator": ("tmerc", {}),
    "Transverse_Mercator": ("tmerc", {}),
    # ESRI/GDAL polar stereographic: the standard parallel arrives as
    # latitude_of_origin (GDAL) or Standard_Parallel_1 (ESRI) — both
    # feed the kernel's lat_ts; the pole lat_0 is implied separately
    "Polar_Stereographic": ("stere", {"lat_0": "lat_ts", "lat_1": "lat_ts"}),
    "Oblique_Stereographic": ("sterea", {}),
    "Cylindrical_Equal_Area": ("cea", {"lat_1": "lat_ts"}),
    "Mercator (variant A)": ("merc", {}),
    "Mercator (variant B)": ("merc", {"lat_1": "lat_ts"}),
    "Mercator_1SP": ("merc", {}),
    "Mercator_2SP": ("merc", {"lat_1": "lat_ts"}),
    "Popular Visualisation Pseudo Mercator": ("webmerc", {}),
    "Lambert Conic Conformal (2SP)": ("lcc", {}),
    "Lambert Conic Conformal (1SP)": ("lcc", {"lat_0": "lat_1"}),
    "Lambert_Conformal_Conic_2SP": ("lcc", {}),
    "Albers Equal Area": ("aea", {}),
    "Albers_Conic_Equal_Area": ("aea", {}),
    "Lambert Azimuthal Equal Area": ("laea", {}),
    "Lambert_Azimuthal_Equal_Area": ("laea", {}),
    "Lambert Cylindrical Equal Area": ("cea", {"lat_1": "lat_ts"}),
    "Polar Stereographic (variant B)": ("stere", {}),
    "Polar Stereographic (variant A)": ("stere", {"lat_0": "lat_ts"}),
    "Hotine Oblique Mercator (variant B)": ("somerc", {}),
    "Equidistant Cylindrical": ("eqc", {"lat_1": "lat_ts"}),
    "Equirectangular": ("eqc", {"lat_1": "lat_ts"}),
    "Orthographic": ("ortho", {}),
    "Krovak": ("krovak", {}),
    "Cassini-Soldner": ("cass", {}),
    "American Polyconic": ("poly", {}),
    "New Zealand Map Grid": ("nzmg", {}),
    # ESRI method names (io.cpp esri_projection_mappings); methods whose
    # ESRI spelling matches WKT1 (Transverse_Mercator, Polar_Stereographic,
    # Albers_Conic_Equal_Area, ...) are already above.
    "Mercator_Auxiliary_Sphere": ("webmerc", {}),
    "Mercator": ("merc", {"lat_1": "lat_ts"}),
    "Gauss_Kruger": ("tmerc", {}),
    "Albers": ("aea", {}),
    "Plate_Carree": ("eqc", {}),
    "Equidistant_Cylindrical": ("eqc", {"lat_1": "lat_ts"}),
    "Sinusoidal": ("sinu", {}),
    "Robinson": ("robin", {}),
    "Azimuthal_Equidistant": ("aeqd", {}),
    "Equidistant_Conic": ("eqdc", {}),
    "Gnomonic": ("gnom", {}),
    "Winkel_Tripel": ("wintri", {}),
    "Eckert_IV": ("eck4", {}),
    "Eckert_VI": ("eck6", {}),
    "Mollweide": ("moll", {}),
    "Cassini": ("cass", {}),
    "Polyconic": ("poly", {}),
    "Bonne": ("bonne", {}),
    "Two_Point_Equidistant": ("tpeqd", {}),
    "Miller_Cylindrical": ("mill", {}),
    "Stereographic": ("stere", {}),
    "Hotine_Oblique_Mercator_Azimuth_Center": ("somerc", {}),
    # ESRI world/compatibility methods (esri_projection_mappings.hpp
    # ESRIMethodMapping table) — the 53xxx/54xxx sphere/WGS84 world
    # series and the RSO/TM-Complex regional families
    "Aitoff": ("aitoff", {}),
    "Hammer_Aitoff": ("hammer", {}),
    "Behrmann": ("cea", {}),  # implied lat_ts=30 appended below
    "Compact_Miller": ("comill", {}),
    "Craster_Parabolic": ("crast", {}),
    "Eckert_I": ("eck1", {}),
    "Eckert_II": ("eck2", {}),
    "Eckert_III": ("eck3", {}),
    "Eckert_V": ("eck5", {}),
    "Equal_Earth": ("eqearth", {}),
    "Flat_Polar_Quartic": ("mbtfpq", {}),
    "Gall_Stereographic": ("gall", {}),
    "Natural_Earth": ("natearth", {}),
    "Natural_Earth_II": ("natearth2", {}),
    "Patterson": ("patterson", {}),
    "Quartic_Authalic": ("qua_aut", {}),
    "Times": ("times", {}),
    "Van_der_Grinten_I": ("vandg", {}),  # +R_A appended below
    "VanDerGrinten": ("vandg", {}),      # GDAL WKT1 spelling
    "Interrupted_Goode_Homolosine": ("igh", {}),
    "Wagner_IV": ("wag4", {}),
    "Wagner_V": ("wag5", {}),
    "Wagner_VII": ("wag7", {}),
    "Winkel_I": ("wink1", {"lat_1": "lat_ts"}),
    "Winkel_II": ("wink2", {}),
    "Loximuthal": ("loxim", {}),
    "Transverse_Mercator_Complex": ("etmerc", {}),  # exact/Krüger TM
    "Stereographic_North_Pole": ("stere", {"lat_1": "lat_ts"}),
    "Stereographic_South_Pole": ("stere", {"lat_1": "lat_ts"}),
    "Vertical_Near_Side_Perspective": ("nsper", {}),
    "Geostationary_Satellite": ("geos", {}),
    "Goode_Homolosine": ("goode", {}),
    "Goode_Homolosine_Land": ("igh", {}),    # ESRI Option=1
    "Goode_Homolosine_Ocean": ("igh_o", {}),  # ESRI Option=2
    "Hotine_Oblique_Mercator_Two_Point_Natural_Origin": ("omerc", {}),
    "Rectified_Skew_Orthomorphic_Natural_Origin":
        ("omerc", {"lon_0": "lonc"}),
    "Rectified_Skew_Orthomorphic_Center":
        ("omerc", {"lon_0": "lonc"}),
    "Adams_Square_II": ("adams_ws2", {}),
    "Peirce_Quincuncial": ("peirce_q", {}),
    # ESRI Local → Orthographic at the centre point; the mapping table
    # drops Scale_Factor and Azimuth (nullptr EPSG params)
    "Local": ("ortho", {}),
}

# ESRI datum names (D_*) → proj +datum shorthand (io.cpp:2095-2115
# buildGeodeticReferenceFrame ESRI alias path); unlisted D_* datums
# fall back to the SPHEROID numeric ellipsoid match.
_ESRI_DATUM_ALIASES = {
    "D_WGS_1984": "WGS84",
    "D_North_American_1983": "NAD83",
    "D_North_American_1927": "NAD27",
    "D_OSGB_1936": "OSGB36",
    "D_New_Zealand_1949": "nzgd49",
    "D_Deutsches_Hauptdreiecksnetz": "potsdam",
    "D_Greek_Geodetic_Reference_System_1987": "GGRS87",
    "D_Carthage": "carthage",
    "D_TM65": "ire65",
    "D_MGI": "hermannskogel",
}


class WKTNode:
    __slots__ = ("keyword", "args")

    def __init__(self, keyword, args):
        self.keyword = keyword
        self.args = args

    def find(self, *keywords):
        for a in self.args:
            if isinstance(a, WKTNode) and a.keyword in keywords:
                return a
        return None

    def find_all(self, *keywords):
        return [
            a
            for a in self.args
            if isinstance(a, WKTNode) and a.keyword in keywords
        ]


def parse_wkt(text: str) -> WKTNode:
    """Parse a WKT1/WKT2 string into a WKTNode tree.  Accepts [] or ()
    delimiters and doubled-quote escapes, per ISO 19162 §6.3."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t\r\n":
            pos += 1

    def parse_node():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] in "_-"):
            pos += 1
        keyword = text[start:pos].upper()
        skip_ws()
        if pos >= n or text[pos] not in "[(":
            raise ValueError(f"WKT: expected '[' after {keyword!r}")
        close = "]" if text[pos] == "[" else ")"
        pos += 1
        args = []
        while True:
            skip_ws()
            if pos >= n:
                raise ValueError("WKT: unexpected end of input")
            ch = text[pos]
            if ch == close or ch in "])":
                pos += 1
                return WKTNode(keyword, args)
            if ch == ",":
                pos += 1
                continue
            if ch == '"':
                pos += 1
                buf = []
                while pos < n:
                    if text[pos] == '"':
                        if pos + 1 < n and text[pos + 1] == '"':
                            buf.append('"')
                            pos += 2
                            continue
                        pos += 1
                        break
                    buf.append(text[pos])
                    pos += 1
                args.append("".join(buf))
            elif ch.isalpha():
                s = pos
                while pos < n and (text[pos].isalnum() or text[pos] in "_-"):
                    pos += 1
                skip_ws()
                if pos < n and text[pos] in "[(":
                    pos = s
                    args.append(parse_node())
                else:
                    args.append(text[s:pos])  # bare enum, e.g. north / east
            else:
                s = pos
                while pos < n and text[pos] not in ",])":
                    pos += 1
                args.append(float(text[s:pos].strip()))
        # unreachable

    node = parse_node()
    skip_ws()
    return node


def looks_like_wkt(s: str) -> bool:
    head = s.lstrip()[:16].upper()
    return any(
        head.startswith(k)
        for k in (
            "GEOGCRS",
            "PROJCRS",
            "BOUNDCRS",
            "GEOGCS",
            "PROJCS",
            "GEODCRS",
            "COMPOUNDCRS",
        )
    )


def _unit_factor(node: WKTNode, default: float = 1.0) -> float:
    u = node.find("ANGLEUNIT", "LENGTHUNIT", "UNIT", "SCALEUNIT")
    if u is None:
        return default
    for a in u.args:
        if isinstance(a, float):
            return a
    return default


def _wellknown_ellps(a: float, rf: float, b: float | None = None) -> str | None:
    """Named +ellps= recognition, mirroring Ellipsoid::lookForProjWellKnownEllps
    (src/iso19111/datum.cpp:898-931): relative-1e-10 match on the semi-major
    axis, then on b for b= table entries / rf for rf= entries."""
    from .ellps import ELLPS_TABLE

    if b is None:
        b = a * (1.0 - 1.0 / rf) if rf else a
    if not rf and b not in (None, a):
        rf = a / (a - b) if a != b else 0.0
    for ename, (size, shape) in ELLPS_TABLE.items():
        if not size.startswith("a="):
            continue
        a_iter = float(size[2:])
        if abs(a - a_iter) >= 1e-10 * a_iter:
            continue
        if shape.startswith("b="):
            b_iter = float(shape[2:])
            if abs(b - b_iter) < 1e-10 * b_iter:
                return ename
        elif shape.startswith("rf="):
            rf_iter = float(shape[3:])
            if rf and abs(rf - rf_iter) < 1e-10 * rf_iter:
                return ename
    return None


def _pm_wellknown_name(deg: float) -> str | None:
    """PrimeMeridian::getPROJStringWellKnownName (src/iso19111/datum.cpp:
    418-433): |rad - dmstor(defn)| < 1e-10 against pj_prime_meridians."""
    from .datums import PRIME_MERIDIANS, prime_meridian_rad

    rad = deg * DEG_TO_RAD
    for name in PRIME_MERIDIANS:
        if name == "greenwich":  # callers only reach here for non-zero pm
            continue
        if abs(rad - prime_meridian_rad(name)) < 1e-10:
            return name
    return None


def _ellps_tokens(ell: WKTNode) -> list[str]:
    nums = [a for a in ell.args if isinstance(a, float)]
    if not nums:
        raise ValueError("WKT: ELLIPSOID node carries no axis value")
    a, rf = nums[0], nums[1] if len(nums) > 1 else 0.0
    a *= _unit_factor(ell)  # ELLIPSOID axis may carry a LENGTHUNIT
    ename = _wellknown_ellps(a, rf)
    if ename is not None:
        return [f"+ellps={ename}"]
    if rf == 0:
        return [f"+R={_num(a)}"]  # sphere (datum.cpp _exportToPROJString)
    return [f"+a={_num(a)}", f"+rf={_num(rf)}"]


def _datum_tokens(crs: WKTNode) -> list[str]:
    datum = crs.find("DATUM", "TRF", "GEODETICDATUM")
    if datum is None:
        return []
    toks = []
    dname = datum.args[0] if datum.args and isinstance(datum.args[0], str) else ""
    if dname in _ESRI_DATUM_ALIASES:  # ESRI dialect: D_* datum names
        toks.append(f"+datum={_ESRI_DATUM_ALIASES[dname]}")
    else:
        for short, full in _DATUM_NAMES.items():
            if dname == full:
                toks.append(f"+datum={short}")
                break
    ell = datum.find("ELLIPSOID", "SPHEROID")
    if not toks and ell is not None:
        toks.extend(_ellps_tokens(ell))
    # WKT1 TOWGS84 node inside DATUM
    tw = datum.find("TOWGS84")
    if tw is not None:
        vals = [a for a in tw.args if isinstance(a, float)]
        toks.append("+towgs84=" + ",".join(_num(v) for v in vals))
    return toks


def _primem_tokens(crs: WKTNode) -> list[str]:
    pm = crs.find("PRIMEM")
    if pm is None:
        return []
    nums = [a for a in pm.args if isinstance(a, float)]
    if nums and nums[0] != 0.0:
        deg = nums[0] * _unit_factor(pm, 0.0174532925199433) * RAD_TO_DEG
        name = _pm_wellknown_name(deg)
        if name is not None:
            return [f"+pm={name}"]
        return [f"+pm={_num(round(deg, 12))}"]
    return []


def _geog_tokens(crs: WKTNode) -> list[str]:
    return (
        ["+proj=longlat"]
        + _datum_tokens(crs)
        + _primem_tokens(crs)
        + ["+no_defs"]
    )


def _proj_tokens(crs: WKTNode) -> list[str]:
    # GDAL WKT1 escape hatch: EXTENSION["PROJ4", "<proj-string>"] wins
    # over the (lossy) PROJECTION/PARAMETER rendering when present —
    # the same precedence GDAL and the reference's WKT1 importer apply
    ext = crs.find("EXTENSION")
    if ext is not None and len(ext.args) >= 2 and ext.args[0] == "PROJ4":
        return [t for t in str(ext.args[1]).split() if t]
    conv = crs.find("CONVERSION", "DERIVINGCONVERSION")
    if conv is not None:
        method = conv.find("METHOD", "PROJECTION")
        params = conv.find_all("PARAMETER")
    else:  # WKT1: PROJECTION / PARAMETER directly under PROJCS
        method = crs.find("PROJECTION")
        params = crs.find_all("PARAMETER")
    if method is None:
        raise ValueError("WKT: PROJCRS without METHOD/PROJECTION")
    mname = method.args[0] if method.args else ""
    if not isinstance(mname, str):
        raise ValueError(
            f"WKT: METHOD/PROJECTION name is not a string: {mname!r}")
    if mname.startswith("PROJ-based operation method: "):
        # io.cpp's escape hatch: the proj-string is embedded verbatim
        return mname[len("PROJ-based operation method: "):].split()
    pnames_present = {p.args[0] for p in params if p.args}
    if mname == "Lambert_Conformal_Conic":
        # ESRI uses ONE method name for 1SP and 2SP: 2SP when a second
        # standard parallel is present (io.cpp ESRI mapping disambiguation)
        if "Standard_Parallel_2" in pnames_present:
            mname = "Lambert_Conformal_Conic_2SP"
        else:
            mname = "Lambert Conic Conformal (1SP)"
    if mname == "Stereographic" and (
        "Standard_Parallel_1" in pnames_present):
        mname = "Polar_Stereographic"
    if mname == "Goode_Homolosine":
        # ESRI's Option selects the interruption: 0 plain, 1 land, 2 ocean
        opt = next((next((a for a in p.args if isinstance(a, float)), 0.0)
                    for p in params if p.args and p.args[0] == "Option"), 0.0)
        if opt == 1.0:
            mname = "Goode_Homolosine_Land"
        elif opt == 2.0:
            mname = "Goode_Homolosine_Ocean"
    if mname not in _METHOD_PROJ:
        raise ValueError(f"WKT: unsupported projection method {mname!r}")
    pname, remap = _METHOD_PROJ[mname]
    toks = [f"+proj={pname}"]
    for p in params:
        if not p.args or not isinstance(p.args[0], str):
            # a PARAMETER whose name is missing/unquoted is corrupt WKT;
            # silently dropping it would yield a plausible-but-wrong
            # proj-string (e.g. a tmerc missing its +x_0 by 500 km)
            raise ValueError(
                f"WKT: PARAMETER node has no string name: {p.args!r}")
        wname = p.args[0]
        key = _WKT_PARAM_KEYS.get(wname)
        if key is None:
            continue
        key = remap.get(key, key)
        val = next((a for a in p.args if isinstance(a, float)), 0.0)
        if key.startswith(("lat_", "lon_")):
            val = val * _unit_factor(p, 0.0174532925199433) * RAD_TO_DEG
            val = round(val, 12)
        elif key.startswith(("x_", "y_")):
            val = val * _unit_factor(p)
        toks.append(f"+{key}={_num(val)}")
    if mname in ("Polar Stereographic (variant B)",
                 "Polar Stereographic (variant A)", "Polar_Stereographic"):
        # the pole is implied by the standard parallel's (variant B) or
        # natural origin's (variant A, remapped to lat_ts) hemisphere
        ts = next(
            (float(t.split("=")[1]) for t in toks if t.startswith("+lat_ts=")),
            90.0,
        )
        toks.append(f"+lat_0={90 if ts >= 0 else -90}")
    elif mname == "Stereographic_North_Pole":
        toks.append("+lat_0=90")  # the pole is in the METHOD name
    elif mname == "Stereographic_South_Pole":
        toks.append("+lat_0=-90")
    elif mname == "Behrmann" and not any(
            t.startswith("+lat_ts=") for t in toks):
        # the 30° standard parallel is the mapping's DEFAULT — ESRI WKT
        # omits the parameter entirely (esri_projection_mappings.hpp
        # paramsESRI_Behrmann "30.0")
        toks.append("+lat_ts=30")
    elif mname in ("Rectified_Skew_Orthomorphic_Natural_Origin",
                   "Hotine_Oblique_Mercator_Two_Point_Natural_Origin"):
        toks.append("+no_uoff")  # natural-origin variant (omerc variant A)
    elif mname == "Local":
        toks = [t for t in toks
                if not t.startswith(("+k_0=", "+alpha="))]
    elif mname in ("Van_der_Grinten_I", "VanDerGrinten"):
        # the mapping carries the R_A (authalic-sphere) aux param
        # (coordinateoperation_constants.hpp:774) — vandg is spherical,
        # an ellipsoidal CRS projects on the equal-area sphere
        toks.append("+R_A")
    base = crs.find("BASEGEOGCRS", "GEOGCS", "BASEGEODCRS")
    if base is not None:
        toks.extend(_datum_tokens(base))
        toks.extend(_primem_tokens(base))
    # projected CS unit (WKT2: LENGTHUNIT under each AXIS or CS)
    toks.append("+no_defs")
    return toks


def _bound_tokens(crs: WKTNode) -> list[str]:
    src = crs.find("SOURCECRS")
    xf = crs.find("ABRIDGEDTRANSFORMATION", "TRANSFORMATION")
    if src is None or not src.args or not isinstance(src.args[0], WKTNode):
        raise ValueError("WKT: BOUNDCRS without SOURCECRS")
    toks = _crs_tokens(src.args[0])
    if xf is not None:
        vals = []
        for p in xf.find_all("PARAMETER"):
            vals.append(next((a for a in p.args if isinstance(a, float)), 0.0))
        if vals:
            # drop the +datum= a named source datum may have added: the
            # explicit towgs84 IS the datum information for a BOUNDCRS
            toks = [t for t in toks if not t.startswith("+towgs84=")]
            toks.append("+towgs84=" + ",".join(_num(v) for v in vals[:7]))
    return toks


def _crs_tokens(node: WKTNode) -> list[str]:
    if node.keyword in ("GEOGCRS", "GEOGCS", "GEODCRS"):
        return _geog_tokens(node)
    if node.keyword in ("PROJCRS", "PROJCS"):
        return _proj_tokens(node)
    if node.keyword == "BOUNDCRS":
        return _bound_tokens(node)
    raise ValueError(f"WKT: unsupported root node {node.keyword!r}")


def from_wkt(text: str) -> str:
    """Lower a WKT1/WKT2 CRS string to the equivalent proj-string
    definition (the importFromWkt direction of io.cpp, for the subset
    expressible without proj.db)."""
    toks = _crs_tokens(parse_wkt(text))
    # dedupe by parameter KEY, first wins (BOUNDCRS paths can repeat
    # tokens; two values for one key must not reach Params precedence)
    seen, out = set(), []
    for t in toks:
        key = t.split("=", 1)[0]
        if key not in seen:
            seen.add(key)
            out.append(t)
    return " ".join(out)


# ---------------------------------------------------------------------------
# PROJJSON parsing (the importFromJSON direction — reference
# src/iso19111/io.cpp:4905 `class JSONParser` — re-derived for the
# proj-string-expressible subset): a GeographicCRS / ProjectedCRS /
# BoundCRS PROJJSON document is lowered to the equivalent proj-string,
# which the factory then resolves normally. Round-trips to_projjson.


def looks_like_projjson(s: str) -> bool:
    t = s.lstrip()
    return t.startswith("{") and ('"type"' in t or "'type'" in t)


def _pj_unit_factor(unit, kind: str) -> float:
    """Multiplier from a PROJJSON unit (name string or unit object) to
    the canonical unit: degrees for angles, metres for lengths."""
    defaults = {"degree": 1.0, "metre": 1.0, "unity": 1.0}
    if unit is None:
        return 1.0
    if isinstance(unit, str):
        if unit in defaults:
            return 1.0
        if unit == "grad":
            return 0.9
        if unit == "arc-second":
            return 1.0 / 3600.0
        raise ValueError(f"PROJJSON: unknown unit name {unit!r}")
    factor = float(_pj_obj(unit, "unit").get("conversion_factor", 1.0))
    if kind == "angle":
        return factor * RAD_TO_DEG  # conversion_factor is to radians
    return factor  # lengths: factor is to metres


def _pj_obj(v, what: str) -> dict:
    """``v`` itself when it is a JSON object, else a clean ValueError (a
    malformed document must not surface as an AttributeError)."""
    if not isinstance(v, dict):
        raise ValueError(f"PROJJSON: {what} is not an object: {v!r}")
    return v


def _pj_finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise ValueError(f"PROJJSON: {what} is not finite: {x!r}")
    return x


def _pj_value(v, kind: str) -> float:
    if isinstance(v, dict):
        x = float(v["value"]) * _pj_unit_factor(v.get("unit"), kind)
    else:
        x = float(v)
    return _pj_finite(x, f"{kind} value")


def _ellps_tokens_ab(a: float, rf: float, b: float | None = None) -> list[str]:
    """PROJ-string ellipsoid emission (datum.cpp _exportToPROJString:937-961):
    named +ellps= when well-known, +R= for spheres, else +a +rf (or +a +b
    when the source definition carried a semi-minor axis)."""
    ename = _wellknown_ellps(a, rf, b)
    if ename is not None:
        return [f"+ellps={ename}"]
    if (b is None and rf == 0) or (b is not None and b == a):
        return [f"+R={_num(a)}"]
    if b is not None and not rf:
        return [f"+a={_num(a)}", f"+b={_num(b)}"]
    return [f"+a={_num(a)}", f"+rf={_num(rf)}"]


def _pj_datum_tokens(crs: dict) -> list[str]:
    crs = _pj_obj(crs, "CRS")
    datum = crs.get("datum") or crs.get("datum_ensemble")
    if datum is None:
        return []
    datum = _pj_obj(datum, "datum")
    dname = datum.get("name", "")
    for short, full in _DATUM_NAMES.items():
        if dname == full:
            return [f"+datum={short}"]
    ell = datum.get("ellipsoid")
    toks: list[str] = []
    if ell is not None:
        ell = _pj_obj(ell, "ellipsoid")
        a = _pj_value(ell.get("semi_major_axis", ell.get("radius", 0.0)), "length")
        b = None
        if "inverse_flattening" in ell:
            rf = _pj_finite(float(ell["inverse_flattening"]),
                            "inverse_flattening")
        elif "semi_minor_axis" in ell:
            b = _pj_value(ell["semi_minor_axis"], "length")
            rf = 0.0
        else:
            rf = 0.0
        toks.extend(_ellps_tokens_ab(a, rf, b))
    pm = crs.get("prime_meridian") or datum.get("prime_meridian")
    if pm is not None:
        deg = _pj_value(_pj_obj(pm, "prime_meridian").get("longitude", 0.0), "angle")
        if deg != 0.0:
            name = _pm_wellknown_name(deg)
            toks.append(f"+pm={name}" if name else f"+pm={_num(round(deg, 12))}")
    return toks


def _pj_geog_tokens(crs: dict) -> list[str]:
    return ["+proj=longlat"] + _pj_datum_tokens(crs) + ["+no_defs"]


def _pj_proj_tokens(crs: dict) -> list[str]:
    conv = crs.get("conversion")
    if not isinstance(conv, dict):
        raise ValueError("PROJJSON: ProjectedCRS without conversion")
    method = conv.get("method")
    mname = (method.get("name", "") if isinstance(method, dict) else "")
    if not isinstance(mname, str):
        raise ValueError(f"PROJJSON: method name is not a string: {mname!r}")
    if mname.startswith("PROJ-based operation method: "):
        return mname[len("PROJ-based operation method: "):].split()
    if mname not in _METHOD_PROJ:
        raise ValueError(f"PROJJSON: unsupported projection method {mname!r}")
    pname, remap = _METHOD_PROJ[mname]
    toks = [f"+proj={pname}"]
    params = conv.get("parameters", [])
    if not isinstance(params, list):
        raise ValueError("PROJJSON: conversion parameters is not a list")
    for p in params:
        if not isinstance(p, dict):
            raise ValueError(f"PROJJSON: parameter is not an object: {p!r}")
        key = _WKT_PARAM_KEYS.get(p.get("name"))
        if key is None:
            continue
        key = remap.get(key, key)
        kind = "angle" if key.startswith(("lat_", "lon_")) else "length"
        val = _pj_value({"value": p.get("value", 0.0), "unit": p.get("unit")},
                        kind)
        if kind == "angle":
            val = round(val, 12)
        toks.append(f"+{key}={_num(val)}")
    if mname in ("Polar Stereographic (variant B)",
                 "Polar Stereographic (variant A)", "Polar_Stereographic"):
        ts = next(
            (float(t.split("=")[1]) for t in toks if t.startswith("+lat_ts=")),
            90.0,
        )
        toks.append(f"+lat_0={90 if ts >= 0 else -90}")
    base = crs.get("base_crs")
    if base is not None:
        toks.extend(_pj_datum_tokens(base))
    toks.append("+no_defs")
    return toks


def _pj_bound_tokens(crs: dict) -> list[str]:
    src = crs.get("source_crs")
    if src is None:
        raise ValueError("PROJJSON: BoundCRS without source_crs")
    toks = _pj_crs_tokens(_pj_obj(src, "source_crs"))
    xf = crs.get("transformation")
    if xf is not None:
        # abridged Helmert values are used verbatim (m / arcsec / ppm —
        # the +towgs84 convention), same as the WKT BOUNDCRS path
        params = _pj_obj(xf, "transformation").get("parameters", [])
        if not isinstance(params, list):
            raise ValueError("PROJJSON: transformation parameters is not a list")
        vals = [_pj_value(_pj_obj(p, "parameter").get("value", 0.0), "length")
                for p in params]
        if vals:
            toks = [t for t in toks if not t.startswith("+towgs84=")]
            toks.append("+towgs84=" + ",".join(_num(v) for v in vals[:7]))
    return toks


def _pj_crs_tokens(doc: dict) -> list[str]:
    t = doc.get("type")
    if t in ("GeographicCRS", "GeodeticCRS"):
        return _pj_geog_tokens(doc)
    if t == "ProjectedCRS":
        return _pj_proj_tokens(doc)
    if t == "BoundCRS":
        return _pj_bound_tokens(doc)
    raise ValueError(f"PROJJSON: unsupported type {t!r}")


def from_projjson(text_or_doc) -> str:
    """Lower a PROJJSON document (string or parsed dict) to the
    equivalent proj-string definition."""
    import json as _json

    doc = (_json.loads(text_or_doc) if isinstance(text_or_doc, str)
           else text_or_doc)
    if not isinstance(doc, dict):
        raise ValueError(
            f"PROJJSON: document must be an object, got {type(doc).__name__}")
    toks = _pj_crs_tokens(doc)
    # dedupe by parameter KEY (first wins), not by whole token: a mapped
    # parameter (e.g. an explicit +lat_0) and a later method-implied
    # default for the same key must not both be emitted, or the winner
    # is left to Params.parse precedence instead of being explicit here
    seen, out = set(), []
    for t in toks:
        key = t.split("=", 1)[0]
        if key not in seen:
            seen.add(key)
            out.append(t)
    return " ".join(out)


def pretty(wkt: str, indent: int = 4) -> str:
    """Re-indent a single-line WKT string (matching projinfo's output
    style: one node per line, children indented)."""
    out = []
    depth = 0
    cur = ""
    in_str = False
    for ch in wkt:
        if ch == '"':
            in_str = not in_str
            cur += ch
        elif not in_str and ch == "[":
            cur += ch
            depth += 1
        elif not in_str and ch == "]":
            cur += ch
            depth -= 1
        elif not in_str and ch == ",":
            # split only between top-level-ish nodes: next token starts
            # an UPPERCASE keyword
            cur += ch
            out.append(cur)
            cur = " " * (indent * depth)
        else:
            cur += ch
    out.append(cur)
    # merge splits that were mid-parameter (next fragment not a keyword)
    lines = []
    for frag in out:
        body = frag.strip()
        key = body.split("[", 1)[0]
        if lines and not (key.isupper() and key.isalpha()):
            lines[-1] += body
        else:
            lines.append(frag)
    return "\n".join(lines)

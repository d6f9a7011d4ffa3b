"""proj.db-driven CRS description + WKT/PROJJSON/PROJ.4 emission at
reference byte-parity (the `projinfo EPSG:xxxx` describe surface).

The emitters re-derive the reference's WKTFormatter conventions rather
than translating them: node layout and the ID-suppression stack
(src/iso19111/io.cpp:420-443 — a nested node's ID prints only when no
ancestor carried one, METHOD/PARAMETER always print, BASEGEOGCRS's ID
is emitted unconditionally per crs.cpp:3427-3450), axis naming
(coordinatesystem.cpp:313-393: first letter lowercased, abbreviation
parenthesized, Easting/E & Northing/N collapse to "(E)"/"(N)"),
WKT1-GDAL datum-name morphing (datum.cpp:1202-1290), the
ensemble-as-datum name remap (factory.cpp:1067-1071), the 9122→degree
unit-name normalization (factory.cpp:1786), and the projinfo section
plumbing (src/apps/projinfo.cpp:298-560: leading blank line between
sections, WKT1 blocks with a trailing blank, deprecation warnings with
replacement codes from the deprecation table).

Numbers are formatted %.15g exactly like io.cpp's double writer;
near-degree angular factors snap to pi/180 first (factory.cpp:1793).
"""

from __future__ import annotations

import math
import re

from . import projdb

_DEG = math.pi / 180.0


def _g(v: float) -> str:
    """%.15g with integer collapse — internal.cpp toString(double,15):
    a result carrying a float-dirt '9999999999' run retries at %.14g."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    s = f"{v:.15g}"
    if "9999999999" in s:
        s = f"{v:.14g}"
    return s


def _esri_g(v: float) -> str:
    """ESRI dialect forces a decimal point (io.cpp useESRIDialect)."""
    s = _g(v)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _db():
    projdb.ensure_proj_db()
    return projdb._db()


def _one(sql: str, *args):
    return _db().execute(sql, args).fetchone()


def _all(sql: str, *args):
    return _db().execute(sql, args).fetchall()


# ---------------------------------------------------------------- loaders

_ENSEMBLE_REMAP = {
    # factory.cpp:1067-1071: ensembles surfaced as plain datums
    "World Geodetic System 1984 ensemble": "World Geodetic System 1984",
    "European Terrestrial Reference System 1989 ensemble":
        "European Terrestrial Reference System 1989",
}


class NotFound(KeyError):
    pass


def _unit(auth: str, code: str) -> dict:
    row = _one(
        "SELECT name, conv_factor, type FROM unit_of_measure "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"unit {auth}:{code}")
    name, factor, kind = row
    if name == "degree (supplier to define representation)":
        name = "degree"
    if factor is not None and abs(factor - _DEG) < 1e-10 * _DEG:
        factor = _DEG
    return {"auth": auth, "code": code, "name": name,
            "factor": factor, "kind": kind}


def _ellipsoid(auth: str, code: str) -> dict:
    row = _one(
        "SELECT name, semi_major_axis, uom_auth_name, uom_code, "
        "inv_flattening, semi_minor_axis FROM ellipsoid "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"ellipsoid {auth}:{code}")
    name, a, ua, uc, rf, b = row
    if rf is None:
        rf = 0.0 if b == a else a / (a - b)
    return {"auth": auth, "code": code, "name": name, "a": a, "rf": rf,
            "unit": _unit(ua, uc)}


def _prime_meridian(auth: str, code: str) -> dict:
    row = _one(
        "SELECT name, longitude, uom_auth_name, uom_code "
        "FROM prime_meridian WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"prime meridian {auth}:{code}")
    name, lon, ua, uc = row
    if uc == "9110":
        # sexagesimal DMS is not WKT-expressible: normalize to degree
        # (how the reference renders e.g. Rome's PM)
        value, unit = projdb._angle_deg(lon, uc), _unit("EPSG", "9102")
    else:
        value, unit = lon, _unit(ua, uc)
    return {"auth": auth, "code": code, "name": name,
            "value": value, "unit": unit,
            "lon_deg": projdb._angle_deg(lon, uc)}


def _datum(auth: str, code: str) -> dict:
    row = _one(
        "SELECT name, ellipsoid_auth_name, ellipsoid_code, "
        "prime_meridian_auth_name, prime_meridian_code FROM geodetic_datum "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"datum {auth}:{code}")
    name, ea, ec, pa, pc = row
    return {"auth": auth, "code": code,
            "name": _ENSEMBLE_REMAP.get(name, name),
            "ellipsoid": _ellipsoid(ea, ec),
            "pm": _prime_meridian(pa, pc)}


def _cs(auth: str, code: str) -> dict:
    row = _one(
        "SELECT type, dimension FROM coordinate_system "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"coordinate system {auth}:{code}")
    axes = [
        {"name": r[0], "abbrev": r[1], "orientation": r[2],
         "unit": _unit(r[3], r[4]), "order": r[5]}
        for r in _all(
            "SELECT name, abbrev, orientation, uom_auth_name, uom_code, "
            "coordinate_system_order FROM axis "
            "WHERE coordinate_system_auth_name=? AND coordinate_system_code=?"
            " ORDER BY coordinate_system_order", auth, code)
    ]
    return {"type": row[0], "dim": row[1], "axes": axes}


def _usages(table: str, auth: str, code: str) -> list[dict]:
    out = []
    for sa, sc, ea, ec in _all(
            "SELECT scope_auth_name, scope_code, extent_auth_name, "
            "extent_code FROM usage WHERE object_table_name=? AND "
            "object_auth_name=? AND object_code=?", table, auth, code):
        scope = _one("SELECT scope FROM scope WHERE auth_name=? AND code=?",
                     sa, sc)
        ext = _one(
            "SELECT description, south_lat, north_lat, west_lon, east_lon "
            "FROM extent WHERE auth_name=? AND code=?", ea, ec)
        if scope is None or ext is None:
            continue
        out.append({"scope": scope[0], "area": ext[0],
                    "bbox": (ext[1], ext[3], ext[2], ext[4])})
    return out


def _conversion(auth: str, code: str) -> dict:
    row = _one(
        "SELECT name, method_auth_name, method_code FROM conversion_table "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        raise NotFound(f"conversion {auth}:{code}")
    name, ma, mc = row
    method = _one(
        "SELECT name FROM conversion_method WHERE auth_name=? AND code=?",
        ma, mc)
    params = []
    prow = _one(
        "SELECT " + ", ".join(
            f"param{i}_auth_name, param{i}_code, param{i}_value, "
            f"param{i}_uom_auth_name, param{i}_uom_code"
            for i in range(1, 8)) +
        " FROM conversion_table WHERE auth_name=? AND code=?", auth, code)
    for i in range(7):
        pa, pc, pv, ua, uc = prow[5 * i:5 * i + 5]
        if pa is None or pv is None:
            continue
        pname = _one(
            "SELECT name FROM conversion_param WHERE auth_name=? AND code=?",
            pa, pc)
        params.append({"auth": pa, "code": pc,
                       "name": pname[0] if pname else f"param {pc}",
                       "value": pv, "unit": _unit(ua, uc)})
    return {"auth": auth, "code": code, "name": name,
            "method_auth": ma, "method_code": mc,
            "method_name": method[0] if method else f"method {mc}",
            "params": params}


def load_crs(auth: str, code: str) -> dict:
    """CRS description dict: kind geographic/geocentric/projected."""
    row = _one(
        "SELECT name, type, coordinate_system_auth_name, "
        "coordinate_system_code, datum_auth_name, datum_code, deprecated "
        "FROM geodetic_crs WHERE auth_name=? AND code=?", auth, code)
    if row is not None:
        name, typ, ca, cc, da, dc, dep = row
        return {"kind": "geocentric" if typ == "geocentric" else "geographic",
                "geog_type": typ, "auth": auth, "code": code, "name": name,
                "datum": _datum(da, dc), "cs": _cs(ca, cc),
                "usages": _usages("geodetic_crs", auth, code),
                "deprecated": bool(dep)}
    row = _one(
        "SELECT name, coordinate_system_auth_name, coordinate_system_code, "
        "geodetic_crs_auth_name, geodetic_crs_code, conversion_auth_name, "
        "conversion_code, deprecated FROM projected_crs "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is not None:
        name, ca, cc, ga, gc, va, vc, dep = row
        return {"kind": "projected", "auth": auth, "code": code,
                "name": name, "base": load_crs(ga, gc),
                "conversion": _conversion(va, vc), "cs": _cs(ca, cc),
                "usages": _usages("projected_crs", auth, code),
                "deprecated": bool(dep)}
    row = _one(
        "SELECT name, coordinate_system_auth_name, coordinate_system_code, "
        "datum_auth_name, datum_code, deprecated FROM vertical_crs "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is not None:
        name, ca, cc, da, dc, dep = row
        vd = _one(
            "SELECT name, frame_reference_epoch FROM vertical_datum "
            "WHERE auth_name=? AND code=?", da, dc)
        return {"kind": "vertical", "auth": auth, "code": code,
                "name": name, "cs": _cs(ca, cc),
                "vdatum": {"auth": da, "code": dc, "name": vd[0],
                           "frame_epoch": vd[1]},
                "usages": _usages("vertical_crs", auth, code),
                "deprecated": bool(dep)}
    row = _one(
        "SELECT name, horiz_crs_auth_name, horiz_crs_code, "
        "vertical_crs_auth_name, vertical_crs_code, deprecated "
        "FROM compound_crs WHERE auth_name=? AND code=?", auth, code)
    if row is not None:
        name, ha, hc, va, vc, dep = row
        return {"kind": "compound", "auth": auth, "code": code,
                "name": name,
                "components": [load_crs(ha, hc), load_crs(va, vc)],
                "usages": _usages("compound_crs", auth, code),
                "deprecated": bool(dep)}
    raise NotFound(f"crs {auth}:{code}")


def deprecation_replacements(auth: str, code: str) -> list[tuple[str, str]]:
    return [(r[0], r[1]) for r in _all(
        "SELECT replacement_auth_name, replacement_code FROM deprecation "
        "WHERE deprecated_auth_name=? AND deprecated_code=?", auth, code)]


# ------------------------------------------------------------ WKT writer

class N:
    """A WKT node: keyword + parts (pre-rendered scalar strings or N)."""

    def __init__(self, kw: str, *parts):
        self.kw = kw
        self.parts = [p for p in parts if p is not None]


class Deeper:
    """Siblings rendered one indent level deeper (the CS 'anonymous
    indentation level' of coordinatesystem.cpp:316)."""

    def __init__(self, nodes):
        self.nodes = [n for n in nodes if n is not None]


def q(s: str) -> str:
    return '"' + s + '"'


def render(node: N, indent: int = 0, single: bool = False) -> str:
    out = [node.kw, "["]
    first = True
    for p in node.parts:
        kids = p.nodes if isinstance(p, Deeper) else [p]
        extra = 1 if isinstance(p, Deeper) else 0
        for k in kids:
            if not first:
                out.append(",")
            first = False
            if isinstance(k, N):
                if single:
                    out.append(render(k, 0, True))
                else:
                    lvl = indent + 1 + extra
                    out.append("\n" + "    " * lvl + render(k, lvl, False))
            else:
                out.append(str(k))
    out.append("]")
    return "".join(out)


# ------------------------------------------------------------ WKT2 build

def _unit_node(u: dict, *, with_id: bool) -> N:
    kw = {"angle": "ANGLEUNIT", "length": "LENGTHUNIT",
          "scale": "SCALEUNIT"}.get(u["kind"], "UNIT")
    parts = [q(u["name"]), _g(u["factor"])]
    # emit_id marks defaulted constants that keep their id even where
    # the ancestor rule would normally suppress it (WKT1 import)
    if (with_id or u.get("emit_id")) and u.get("code"):
        parts.append(N("ID", q(u["auth"]), u["code"]))
    return N(kw, *parts)


def _axis_designation(name: str, abbrev: str, order: int) -> str:
    # coordinatesystem.cpp:313-372
    desig = name[:1].lower() + name[1:] if name else ""
    if name in ("Latitude", "Longitude"):
        return desig
    if (order == 1 and name == "Easting" and abbrev == "E") or \
            (order == 2 and name == "Northing" and abbrev == "N"):
        return f"({abbrev})"
    if abbrev:
        desig = f"{desig} ({abbrev})" if desig else f"({abbrev})"
    return desig


def _axis_node(ax: dict, *, unit_id: bool, with_order: bool = True) -> N:
    # ORDER emitted only for multi-axis CS (coordinatesystem.cpp:380)
    return N("AXIS",
             q(_axis_designation(ax["name"], ax["abbrev"], ax["order"])),
             ax["orientation"],
             N("ORDER", str(ax["order"])) if with_order else None,
             _unit_node(ax["unit"], with_id=unit_id))


def _cs_nodes(cs: dict, *, unit_ids: bool) -> list:
    nodes = [N("CS", cs["type"], str(cs["dim"]))]
    multi = len(cs["axes"]) > 1
    nodes.append(Deeper([_axis_node(a, unit_id=unit_ids, with_order=multi)
                         for a in cs["axes"]]))
    return nodes


def _datum_node(d: dict) -> N:
    ell = d["ellipsoid"]
    return N("DATUM", q(d["name"]),
             N("ELLIPSOID", q(ell["name"]), _g(ell["a"]), _g(ell["rf"]),
               _unit_node(ell["unit"], with_id=False)))


def _pm_node(d: dict) -> N:
    pm = d["pm"]
    return N("PRIMEM", q(pm["name"]), _g(pm["value"]),
             _unit_node(pm["unit"], with_id=False),
             _id_node(pm["auth"], pm["code"]) if pm.get("emit_id")
             else None)


def _usage_nodes(usages: list[dict], variant: str) -> list:
    nodes = []
    for u in usages:
        s, w, n, e = u["bbox"]
        scope = N("SCOPE", q(u["scope"]))
        area = N("AREA", q(u["area"]))
        bbox = N("BBOX", _g(s), _g(w), _g(n), _g(e))
        if variant == "2019":
            nodes.append(N("USAGE", scope, area, bbox))
        else:
            nodes.extend([scope, area, bbox])
    return nodes


def _id_node(auth: str, code: str) -> N:
    c = code if str(code).isdigit() else q(str(code))
    return N("ID", q(auth), c)


def _geog_nodes(crs: dict) -> list:
    return [_datum_node(crs["datum"]), _pm_node(crs["datum"])]


def _crs_node(crs: dict, variant: str, *, own_id: bool,
              ancestor_has_id: bool, remark: str | None = None) -> N:
    # a node's own ID prints only when no ancestor carried one
    # (io.cpp:436-438 stackHasId rule)
    has_own_id = own_id and "code" in crs and not ancestor_has_id
    unit_ids = not has_own_id and not ancestor_has_id
    tail: list = _usage_nodes(crs["usages"], variant)
    if remark:
        tail.append(N("REMARK", q(remark)))
    if has_own_id:
        tail.append(_id_node(crs["auth"], crs["code"]))
    if crs["kind"] in ("geographic", "geocentric"):
        kw = ("GEOGCRS" if crs["geog_type"].startswith("geographic")
              else "GEODCRS") if variant == "2019" else "GEODCRS"
        parts = [q(crs["name"])]
        parts += _geog_nodes(crs)
        parts += _cs_nodes(crs["cs"], unit_ids=unit_ids)
        return N(kw, *(parts + tail))
    if crs["kind"] == "vertical":
        parts = [q(crs["name"])]
        vd = crs["vdatum"]
        if variant == "2019" and vd["frame_epoch"] is not None:
            parts.append(N("DYNAMIC", N("FRAMEEPOCH", _g(vd["frame_epoch"]))))
        parts.append(N("VDATUM", q(vd["name"])))
        parts += _cs_nodes(crs["cs"], unit_ids=unit_ids)
        return N("VERTCRS", *(parts + tail))
    if crs["kind"] == "compound":
        parts = [q(crs["name"])]
        for comp in crs["components"]:
            parts.append(_crs_node(comp, variant, own_id=True,
                                   ancestor_has_id=has_own_id
                                   or ancestor_has_id))
        return N("COMPOUNDCRS", *(parts + tail))
    # projected
    base = crs["base"]
    base_kw = "BASEGEOGCRS" if variant == "2019" else "BASEGEODCRS"
    base_parts = [q(base["name"])] + _geog_nodes(base)
    if variant == "2019" and "code" in base:
        # crs.cpp:3437-3440: base CRS id emitted unconditionally in 2019
        base_parts.append(_id_node(base["auth"], base["code"]))
    conv = crs["conversion"]
    # conversion id surfaces only when the containing CRS lost its
    # own id (e.g. promoteTo3D output) — io.cpp ancestor rule
    conv_parts = _conversion_parts(
        conv, with_own_id=not has_own_id and not ancestor_has_id)
    parts = [q(crs["name"]), N(base_kw, *base_parts),
             N("CONVERSION", *conv_parts)]
    parts += _cs_nodes(crs["cs"], unit_ids=unit_ids)
    return N("PROJCRS", *(parts + tail))


def to_wkt2(crs: dict, variant: str = "2019", *, single: bool = False,
            suppress_own_id: bool = False, remark: str | None = None) -> str:
    """WKT2:2019 / WKT2:2015 for a db-loaded CRS dict."""
    return render(_crs_node(crs, variant, own_id=not suppress_own_id,
                            ancestor_has_id=False, remark=remark),
                  single=single)


def _conversion_parts(conv: dict, *, with_own_id: bool) -> list:
    parts = [q(conv["name"]),
             N("METHOD", q(conv["method_name"]),
               _id_node(conv["method_auth"], conv["method_code"]))]
    for p in conv["params"]:
        parts.append(
            N("PARAMETER", q(p["name"]), _g(p["value"]),
              _unit_node(p["unit"], with_id=False),
              _id_node(p["auth"], p["code"])))
    if with_own_id:
        parts.append(_id_node(conv["auth"], conv["code"]))
    return parts


def conversion_wkt2(conv: dict, *, single: bool = False) -> str:
    """Top-level CONVERSION WKT2 (candidate-operation display)."""
    return render(N("CONVERSION", *_conversion_parts(conv, with_own_id=True)),
                  single=single)


def conversion_area(conv: dict) -> str | None:
    us = _usages("conversion", conv["auth"], conv["code"])
    return us[0]["area"] if us else None


def same_datum_conversion_op(s_crs: dict, t_crs: dict) -> dict | None:
    """The geog→projected same-base case: the single candidate
    operation IS the target's deriving conversion (the reference's
    createOperations short-circuit for sourceCRS == target's baseCRS)."""
    if s_crs["kind"] != "geographic" or t_crs["kind"] != "projected":
        return None
    base = t_crs["base"]
    if (base.get("auth"), base.get("code")) != \
            (s_crs.get("auth"), s_crs.get("code")):
        return None
    return t_crs["conversion"]


def conversion_pipeline(s_crs: dict, t_crs: dict, *,
                        single: bool = False) -> str:
    """PROJ pipeline for the same-datum geog→projected candidate:
    axis normalization + unitconvert + the conversion with the base
    ellipsoid token (projinfo.cpp PROJ string of a Conversion)."""
    conv = t_crs["conversion"]
    steps = []
    if _lat_first(s_crs):
        steps.append("+proj=axisswap +order=2,1")
    steps.append("+proj=unitconvert +xy_in=deg +xy_out=rad")
    ell = s_crs["datum"]["ellipsoid"]
    a_m = _ell_a_m(ell)
    name = _named_ellps(a_m, ell["rf"])
    ell_tok = (f"+ellps={name}" if name
               else f"+a={_g(a_m)} +rf={_g(ell['rf'])}")
    steps.append(" ".join(_conv_proj_tokens(conv)) + " " + ell_tok)
    if single:
        return "+proj=pipeline " + " ".join(f"+step {s}" for s in steps)
    return "+proj=pipeline\n" + "\n".join(f"  +step {s}" for s in steps)


# ------------------------------------------------------------ WKT1 build

def _morph_esri(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _wkt1_datum_name(d: dict) -> str:
    # datum.cpp:1246-1252: GDAL<3 importFromEPSG emulation
    name = _morph_esri(d["name"])
    if name == "World_Geodetic_System_1984":
        name = "WGS_1984"
    return name


def to_wkt1_gdal(crs: dict) -> str:
    if crs["kind"] != "geographic":
        raise NotFound("WKT1:GDAL db emission implemented for geographic CRS")
    d = crs["datum"]
    ell = d["ellipsoid"]
    axis_unit = crs["cs"]["axes"][0]["unit"]
    node = N(
        "GEOGCS", q(crs["name"]),
        N("DATUM", q(_wkt1_datum_name(d)),
          N("SPHEROID", q(ell["name"]), _g(ell["a"]), _g(ell["rf"]),
            N("AUTHORITY", q(ell["auth"]), q(ell["code"]))),
          N("AUTHORITY", q(d["auth"]), q(d["code"]))),
        N("PRIMEM", q(d["pm"]["name"]), _g(d["pm"]["lon_deg"]),
          N("AUTHORITY", q(d["pm"]["auth"]), q(d["pm"]["code"]))),
        N("UNIT", q(axis_unit["name"]), _g(axis_unit["factor"]),
          N("AUTHORITY", q(axis_unit["auth"]), q(axis_unit["code"]))),
        N("AUTHORITY", q(crs["auth"]), q(crs["code"])))
    return render(node)


def _esri_alias(table: str, auth: str, code: str, fallback: str) -> str:
    row = _one(
        "SELECT alt_name FROM alias_name WHERE table_name=? AND auth_name=? "
        "AND code=? AND source='ESRI'", table, auth, code)
    return row[0] if row else _morph_esri(fallback)


def to_wkt1_esri(crs: dict) -> str:
    if crs["kind"] != "geographic":
        raise NotFound("WKT1:ESRI db emission implemented for geographic CRS")
    d = crs["datum"]
    ell = d["ellipsoid"]
    axis_unit = crs["cs"]["axes"][0]["unit"]
    unit_name = {"degree": "Degree", "metre": "Meter"}.get(
        axis_unit["name"], axis_unit["name"])
    node = N(
        "GEOGCS", q(_esri_alias("geodetic_crs", crs["auth"], crs["code"],
                                "GCS_" + crs["name"])),
        N("DATUM", q(_esri_alias("geodetic_datum", d["auth"], d["code"],
                                 "D_" + d["name"])),
          N("SPHEROID", q(_esri_alias("ellipsoid", ell["auth"], ell["code"],
                                      ell["name"])),
            _esri_g(ell["a"]), _esri_g(ell["rf"]))),
        N("PRIMEM", q(d["pm"]["name"]), _esri_g(d["pm"]["lon_deg"])),
        N("UNIT", q(unit_name), _g(axis_unit["factor"])))
    return render(node, single=True)


# ------------------------------------------------------------- PROJJSON

_SCHEMA = "https://proj.org/schemas/v0.2/projjson.schema.json"


def _jnum(v: float):
    return int(v) if v == int(v) and abs(v) < 1e15 else v


def _json_axes(cs: dict) -> dict:
    axes = []
    for a in cs["axes"]:
        u = a["unit"]
        axes.append({
            "name": a["name"], "abbreviation": a["abbrev"],
            "direction": a["orientation"],
            "unit": u["name"] if u["name"] in ("degree", "metre") else {
                "type": {"angle": "AngularUnit", "length": "LinearUnit",
                         "scale": "Unit"}.get(u["kind"], "Unit"),
                "name": u["name"],
                "conversion_factor": _jnum(u["factor"]),
            }})
    return {"subtype": cs["type"], "axis": axes}


def to_projjson(crs: dict) -> dict:
    out: dict = {"$schema": _SCHEMA}
    if crs["kind"] == "vertical":
        out["type"] = "VerticalCRS"
        out["name"] = crs["name"]
        out["datum"] = {"type": "VerticalReferenceFrame",
                        "name": crs["vdatum"]["name"]}
        out["coordinate_system"] = _json_axes(crs["cs"])
        _projjson_tail(out, crs)
        return out
    if crs["kind"] == "compound":
        out["type"] = "CompoundCRS"
        out["name"] = crs["name"]
        comps = []
        for c in crs["components"]:
            j = dict(to_projjson(c))
            j.pop("$schema", None)
            comps.append(j)
        out["components"] = comps
        _projjson_tail(out, crs)
        return out
    d = crs["datum"] if crs["kind"] != "projected" else None
    if crs["kind"] == "geographic":
        out["type"] = "GeographicCRS"
    elif crs["kind"] == "geocentric":
        out["type"] = "GeodeticCRS"
    else:
        out["type"] = "ProjectedCRS"
    out["name"] = crs["name"]
    if d is not None:
        ell = d["ellipsoid"]
        datum: dict = {"type": "GeodeticReferenceFrame", "name": d["name"],
                       "ellipsoid": {"name": ell["name"],
                                     "semi_major_axis": _jnum(ell["a"]),
                                     "inverse_flattening": _jnum(ell["rf"])}}
        if d["pm"]["name"] != "Greenwich":
            pm = d["pm"]
            if pm["unit"]["name"] == "degree":
                lon = _jnum(pm["value"])
            else:  # non-degree PM: {value, unit} object (reference JSON)
                lon = {"value": _jnum(pm["value"]),
                       "unit": {"type": "AngularUnit",
                                "name": pm["unit"]["name"],
                                "conversion_factor":
                                    _jnum(pm["unit"]["factor"])}}
            datum["prime_meridian"] = {"name": pm["name"], "longitude": lon}
        out["datum"] = datum
    else:
        base = dict(to_projjson(crs["base"]))
        base.pop("$schema", None)
        conv = crs["conversion"]
        out["base_crs"] = base
        out["conversion"] = {
            "name": conv["name"],
            "method": {"name": conv["method_name"],
                       "id": {"authority": conv["method_auth"],
                              "code": int(conv["method_code"])}},
            "parameters": [
                {"name": p["name"], "value": _jnum(p["value"]),
                 "unit": p["unit"]["name"]
                 if p["unit"]["name"] in ("degree", "metre", "unity")
                 else {"type": "Unit", "name": p["unit"]["name"],
                       "conversion_factor": _jnum(p["unit"]["factor"])},
                 "id": {"authority": p["auth"], "code": int(p["code"])}}
                for p in conv["params"]],
        }
    out["coordinate_system"] = _json_axes(crs["cs"])
    _projjson_tail(out, crs)
    return out


def _projjson_tail(out: dict, crs: dict) -> None:
    if crs["usages"]:
        u = crs["usages"][0]
        s, w, n, e = u["bbox"]
        out["scope"] = u["scope"]
        out["area"] = u["area"]
        out["bbox"] = {"south_latitude": _jnum(s), "west_longitude": _jnum(w),
                       "north_latitude": _jnum(n), "east_longitude": _jnum(e)}
    if "code" in crs:
        out["id"] = {"authority": crs["auth"], "code": int(crs["code"])}


# ---------------------------------------------------------- PROJ.4 build

def _ell_a_m(ell: dict) -> float:
    """Semi-major axis in metres (the axis may be stored in e.g.
    German legal metre — Bessel Namibia)."""
    f = ell.get("unit", {}).get("factor") or 1.0
    return ell["a"] * f


# pj_ellps-style well-known (a, rf) -> +ellps name, from core ELLPS_TABLE
def _named_ellps(a: float, rf: float) -> str | None:
    # reference-faithful well-known lookup (datum.cpp:898-931), incl.
    # b=-defined table entries such as the 6370997 "sphere"
    from ..core.wkt import _wellknown_ellps
    return _wellknown_ellps(a, rf)


_PM_NAMES = {
    # pj_prime_meridians (src/datums.cpp): deg value -> +pm name
    0.0: None,
    -9.131906111111112: "lisbon",
    2.337229166666667: "paris",
    -74.08091666666667: "bogota",
    -3.687938888888889: "madrid",
    12.452333333333332: "rome",
    7.439583333333333: "bern",
    106.80771944444444: "jakarta",
    -17.666666666666668: "ferro",
    4.367975: "brussels",
    18.05827777777778: "stockholm",
    23.7163375: "athens",
    10.722916666666666: "oslo",
}


def _pm_token(lon_deg: float) -> str | None:
    if lon_deg == 0.0:
        return None
    # reference match window is 1e-10 RADIANS (datum.cpp:425), i.e.
    # ~5.7e-9 degrees — wide enough for GDAL's 8-decimal Paris value
    for v, name in _PM_NAMES.items():
        if name and abs(v - lon_deg) * _DEG < 1e-10:
            return f"+pm={name}"
    return f"+pm={_g(lon_deg)}"


def _towgs84_7(geog_auth: str, geog_code: str) -> str | None:
    """createBoundCRSToWGS84IfPossible equivalent: the 7-param towgs84
    when exactly one distinct non-deprecated helmert candidate exists
    (crs.cpp picks none when candidates disagree, e.g. Monte Mario)."""
    rows = _all(
        "SELECT method_code, tx, ty, tz, rx, ry, rz, scale_difference, "
        "rotation_uom_code, scale_difference_uom_code, px "
        "FROM helmert_transformation_table "
        "WHERE source_crs_auth_name=? AND source_crs_code=? "
        "AND target_crs_auth_name='EPSG' AND target_crs_code='4326' "
        "AND deprecated=0", geog_auth, geog_code)
    # Coordinate Frame rotation methods: +towgs84 is position-vector,
    # so rotation signs invert (getTOWGS84Parameters invertRotSigns,
    # coordinateoperation.cpp:6706)
    _CF_METHODS = {"1032", "1038", "9607"}
    arcsec_per_rad = 3600.0 * 180.0 / math.pi
    sets = set()
    for m, tx, ty, tz, rx, ry, rz, ds, ruom, suom, px in rows:
        if px is not None:
            continue  # Molodensky-Badekas: not expressible as towgs84
        rot_sign = -1.0 if m in _CF_METHODS else 1.0
        vals = [tx or 0.0, ty or 0.0, tz or 0.0]
        for r in (rx, ry, rz):
            r = (r or 0.0) * rot_sign
            if r and ruom:  # to arc-seconds (towgs84 convention)
                r = r * projdb._uom_factor(ruom) * arcsec_per_rad
            vals.append(r)
        ds = ds or 0.0
        if ds and suom and suom != "9202":  # to parts-per-million
            ds = ds * projdb._uom_factor(suom) * 1e6
        vals.append(ds)
        sets.add(tuple(round(v, 12) for v in vals))
    if len(sets) != 1:
        return None
    vals = next(iter(sets))
    return "+towgs84=" + ",".join(_g(v) for v in vals)


def _geodetic_tokens(geog: dict) -> list[str]:
    ell = geog["datum"]["ellipsoid"]
    toks: list[str] = []
    if geog["datum"]["code"] == "6326" and geog["datum"]["auth"] == "EPSG":
        toks.append("+datum=WGS84")
    else:
        a_m = _ell_a_m(ell)
        name = _named_ellps(a_m, ell["rf"])
        if name:
            toks.append(f"+ellps={name}")
        elif ell["rf"] == 0:
            toks.append(f"+R={_g(a_m)}")  # sphere (datum.cpp:949-950)
        else:
            toks.append(f"+a={_g(a_m)}")
            toks.append(f"+rf={_g(ell['rf'])}")
        if geog.get("towgs84"):
            toks.append("+towgs84="
                        + ",".join(_g(v) for v in geog["towgs84"]))
        elif geog.get("code"):
            t = _towgs84_7(geog["auth"], geog["code"])
            if t:
                toks.append(t)
    pm = _pm_token(geog["datum"]["pm"]["lon_deg"])
    if pm:
        toks.append(pm)
    return toks


def _conv_proj_tokens(conv: dict) -> list[str]:
    """Conversion -> proj tokens with the reference's UTM collapse
    (coordinateoperation.cpp Conversion::exportToPROJString)."""

    def p(code: str, default=0.0) -> float:
        for par in conv["params"]:
            if par["code"] == code:
                u = par["unit"]
                if u["kind"] == "angle":
                    return projdb._angle_deg(par["value"], u["code"])
                if u["kind"] == "length":
                    return par["value"] * (u["factor"] or 1.0)
                return par["value"]
        return default

    if conv["method_code"] == "9807":
        lat0, lon0 = p("8801"), p("8802")
        k0, x0, y0 = p("8805", 1.0), p("8806"), p("8807")
        if (lat0 == 0 and k0 == 0.9996 and x0 == 500000 and
                y0 in (0.0, 10000000.0) and (lon0 + 183.0) % 6.0 == 0.0):
            zone = int((lon0 + 183.0) / 6.0)
            toks = [f"+proj=utm +zone={zone}"]
            if y0 == 10000000.0:
                toks.append("+south")
            return " ".join(toks).split()
        toks = ["+proj=tmerc"]
        toks += [f"+lat_0={_g(lat0)}", f"+lon_0={_g(lon0)}",
                 f"+k={_g(k0)}", f"+x_0={_g(x0)}", f"+y_0={_g(y0)}"]
        return toks
    if conv.get("proj_pairs"):
        # WKT-imported method with no EPSG code: direct proj emission
        return [f"+{k}={v}" if v is not None else f"+{k}"
                for k, v in conv["proj_pairs"]]
    if not conv.get("code"):
        # WKT-imported conversion: normalized triplets, no db row
        pairs = projdb.method_pairs(
            conv["method_code"], conv.get("triplets", []), [])
        return [f"+{k}={v}" if v is not None else f"+{k}"
                for k, v in pairs]
    # generic: reuse projdb's conversion mapping (resolve-time tokens)
    pairs = projdb._conversion_pairs(
        conv["auth"], conv["code"], [])
    return [f"+{k}={v}" if v is not None else f"+{k}" for k, v in pairs]


def _unit_token(unit: dict, key: str, raw_key: str) -> str:
    short = _one(
        "SELECT proj_short_name FROM unit_of_measure "
        "WHERE auth_name=? AND code=?", unit["auth"], unit["code"])
    return (f"+{key}={short[0]}" if short and short[0]
            else f"+{raw_key}={_g(unit['factor'])}")


def to_proj4(crs: dict) -> str:
    if crs["kind"] == "vertical":
        # VerticalCRS::_exportToPROJString (crs.cpp:2999-3017):
        # just the vertical unit (+geoidgrids only in BoundCRS context)
        unit = crs["cs"]["axes"][0]["unit"]
        return " ".join([_unit_token(unit, "vunits", "vto_meter"),
                         "+no_defs", "+type=crs"])
    if crs["kind"] == "compound":
        # CompoundCRS::_exportToPROJString (crs.cpp:4671-4681):
        # component exports concatenated in order
        toks: list[str] = []
        for comp in crs["components"]:
            part = to_proj4(comp).split()
            toks += [t for t in part if t not in ("+no_defs", "+type=crs")]
        return " ".join(toks + ["+no_defs", "+type=crs"])
    if crs.get("proj4_ext"):
        # GDAL EXTENSION["PROJ4", ...]: the stored string IS the
        # definition (io.cpp:3591-3611)
        ext = crs["proj4_ext"].strip()
        if "+type=crs" not in ext:
            ext += " +type=crs"
        return ext
    if crs["kind"] == "geographic":
        toks = ["+proj=longlat"] + _geodetic_tokens(crs)
    elif crs["kind"] == "geocentric":
        # geocentric carries its Cartesian unit (crs.cpp
        # GeodeticCRS::_exportToPROJString: +proj=geocent ... +units=m)
        toks = ["+proj=geocent"] + _geodetic_tokens(crs)
        toks.append(_unit_token(crs["cs"]["axes"][0]["unit"],
                                "units", "to_meter"))
    else:
        toks = _conv_proj_tokens(crs["conversion"])
        toks += _geodetic_tokens(crs["base"])
        toks.append(_unit_token(crs["cs"]["axes"][0]["unit"],
                                "units", "to_meter"))
    toks += ["+no_defs", "+type=crs"]
    return " ".join(toks)


# ------------------------------------------------------- 3D promotion

def promote_to_3d(crs: dict) -> dict:
    """crs.cpp promoteTo3D: geographic gains the matching 3D CRS's
    identity; projected keeps its conversion, gains an ellipsoidal
    height axis and a REMARK, and loses its own id."""
    import copy
    out = copy.deepcopy(crs)
    if crs["kind"] == "geographic":
        if crs.get("geog_type") == "geographic 3D":
            return out
        row = _one(
            "SELECT code FROM geodetic_crs "
            "WHERE auth_name=? AND datum_code=? AND type='geographic 3D' "
            "AND deprecated=0", crs["auth"], crs["datum"]["code"])
        if row:
            # the DB 3D counterpart IS the promoted object — its own
            # name/usages/id, not the 2D CRS's (crs.cpp:991-1020)
            return load_crs(crs["auth"], row[0])
        # no counterpart: synthesize per crs.cpp promoteTo3D — add the
        # ellipsoidal height axis, REMARK, and drop the 2D identity
        out["cs"] = dict(out["cs"])
        out["cs"]["dim"] = 3
        out["cs"]["axes"] = list(out["cs"]["axes"]) + [{
            "name": "Ellipsoidal height", "abbrev": "h",
            "orientation": "up", "unit": _unit("EPSG", "9001"), "order": 3}]
        out["geog_type"] = "geographic 3D"
        out["remark"] = f"Promoted to 3D from {crs['auth']}:{crs['code']}"
        out.pop("code")
        out["usages"] = []
        return out
    if crs["kind"] == "projected":
        out["base"] = promote_to_3d(crs["base"])
        metre = _unit("EPSG", "9001")
        out["cs"] = dict(out["cs"])
        out["cs"]["dim"] = 3
        out["cs"]["axes"] = list(out["cs"]["axes"]) + [{
            "name": "Ellipsoidal height", "abbrev": "h",
            "orientation": "up", "unit": metre, "order": 3}]
        out["remark"] = f"Promoted to 3D from {crs['auth']}:{crs['code']}"
        out.pop("code")  # promoted object is no longer the EPSG object
        out["usages"] = []  # promoteTo3D builds a fresh object: no domains
        return out
    return out


# ----------------------------------------------------- object lookups

def _norm_name(s: str) -> str:
    return "".join(c for c in s.lower() if c.isalnum())


def find_ellipsoid(token: str) -> tuple[str, str] | None:
    m = _split_authcode(token)
    if m:
        row = _one("SELECT auth_name, code FROM ellipsoid "
                   "WHERE auth_name=? AND code=?", *m)
        return (row[0], row[1]) if row else None
    want = _norm_name(token)
    for a, c, n in _all("SELECT auth_name, code, name FROM ellipsoid "
                        "WHERE deprecated=0"):
        if _norm_name(n) == want:
            return (a, c)
    for t, a, c, alt in _all(
            "SELECT table_name, auth_name, code, alt_name FROM alias_name "
            "WHERE table_name='ellipsoid'"):
        if _norm_name(alt) == want:
            return (a, c)
    return None


def find_datum(token: str) -> tuple[str, str] | None:
    m = _split_authcode(token)
    if m:
        row = _one("SELECT auth_name, code FROM geodetic_datum "
                   "WHERE auth_name=? AND code=?", *m)
        return (row[0], row[1]) if row else None
    want = _norm_name(token)
    for a, c, n in _all("SELECT auth_name, code, name FROM geodetic_datum "
                        "WHERE deprecated=0"):
        if _norm_name(n) == want or _norm_name(
                _ENSEMBLE_REMAP.get(n, n)) == want:
            return (a, c)
    for t, a, c, alt in _all(
            "SELECT table_name, auth_name, code, alt_name FROM alias_name "
            "WHERE table_name='geodetic_datum'"):
        if _norm_name(alt) == want:
            return (a, c)
    return None


def _split_authcode(token: str):
    if ":" in token:
        a, _, c = token.partition(":")
        if a and c and not c.startswith("/"):
            return (a.upper(), c)
    return None


def ellipsoid_wkt2(auth: str, code: str) -> str:
    e = _ellipsoid(auth, code)
    return render(N("ELLIPSOID", q(e["name"]), _g(e["a"]), _g(e["rf"]),
                    _unit_node(e["unit"], with_id=False),
                    _id_node(auth, code)))


def ellipsoid_proj(auth: str, code: str) -> str | None:
    e = _ellipsoid(auth, code)
    name = _named_ellps(e["a"], e["rf"])
    return f"+ellps={name}" if name else None


def datum_wkt2(auth: str, code: str) -> str:
    d = _datum(auth, code)
    parts = [q(d["name"]),
             N("ELLIPSOID", q(d["ellipsoid"]["name"]), _g(d["ellipsoid"]["a"]),
               _g(d["ellipsoid"]["rf"]),
               _unit_node(d["ellipsoid"]["unit"], with_id=False))]
    if d["pm"]["name"] != "Greenwich":
        parts.append(_pm_node(d))
    parts.append(_id_node(auth, code))
    return render(N("DATUM", *parts))


# ------------------------------------------- operation PROJ pipelines

def operation_proj_pipeline(auth: str, code: str,
                            multiline: bool = True,
                            reverse: bool = False) -> str:
    """-k operation <code> -o PROJ: the canonical geog→geog helmert
    pipeline (axisswap/unitconvert wrap, push/pop v_3 for 2D ends,
    cart→helmert→inv cart), matching projinfo's multiline PROJ export
    (src/apps/projinfo.cpp:336-359, PROJStringFormatter multiline).
    ``reverse`` exports the INVERSE operation: endpoints swapped and
    the helmert leg negated via +inv (CoordinateOperation::inverse)."""
    sel = ("SELECT source_crs_auth_name, source_crs_code, "
           "target_crs_auth_name, target_crs_code, method_code, "
           "tx, ty, tz, rx, ry, rz, scale_difference, "
           "translation_uom_code, rotation_uom_code, "
           "scale_difference_uom_code "
           "FROM helmert_transformation_table WHERE auth_name=? AND code=?")
    row = _one(sel, auth, code)
    if row is None:
        # concatenated operation: flatten the helmert steps, eliding
        # null ones (the PROJStringFormatter optimization that turns
        # e.g. CH1903+ -> CHTRF95 -> WGS84 into a single helmert)
        ends = _one(
            "SELECT source_crs_auth_name, source_crs_code, "
            "target_crs_auth_name, target_crs_code "
            "FROM concatenated_operation WHERE auth_name=? AND code=?",
            auth, code)
        steps = _all(
            "SELECT step_auth_name, step_code FROM "
            "concatenated_operation_step WHERE operation_auth_name=? AND "
            "operation_code=? ORDER BY step_number", auth, code)
        if ends is None or not steps:
            raise NotFound(f"operation {auth}:{code}")
        live = []
        for pa, pc in steps:
            srow = _one(sel, pa, pc)
            if srow is None:
                raise NotFound(f"operation step {pa}:{pc}")
            if any(v for v in srow[5:12]):
                live.append(srow)
        if len(live) != 1:
            raise NotFound(
                f"operation {auth}:{code}: non-trivial concatenation")
        row = ends + live[0][4:]
    (sa, sc, ta, tc, method, tx, ty, tz, rx, ry, rz, ds,
     tuc, ruc, suc) = row
    if reverse:
        (sa, sc), (ta, tc) = (ta, tc), (sa, sc)
    src, tgt = load_crs(sa, sc), load_crs(ta, tc)

    def ellps_tok(g: dict) -> str:
        e = g["datum"]["ellipsoid"]
        a_m = _ell_a_m(e)
        name = _named_ellps(a_m, e["rf"])
        return (f"+ellps={name}" if name
                else f"+a={_g(a_m)} +rf={_g(e['rf'])}")

    # PROJStringFormatter emits translations in metres, rotations in
    # ARC-SECONDS and scale in ppm (coordinateoperation.cpp
    # Measure::convertToUnit against static.cpp's METRE/ARC_SECOND/
    # PARTS_PER_MILLION); convert from the stored uom via DB
    # conv_factor ratios so same-unit values round-trip bit-exact
    t_f = projdb._uom_factor(tuc or "9001")
    r_f = (projdb._uom_factor(ruc or "9104") / projdb._uom_factor("9104"))
    s_f = (projdb._uom_factor(suc or "9202") / projdb._uom_factor("9202"))
    hel = [f"+x={_g((tx or 0.0) * t_f)}", f"+y={_g((ty or 0.0) * t_f)}",
           f"+z={_g((tz or 0.0) * t_f)}"]
    if any(v for v in (rx, ry, rz, ds)):
        for k, v in (("rx", rx), ("ry", ry), ("rz", rz)):
            hel.append(f"+{k}={_g((v or 0.0) * r_f)}")
        hel.append(f"+s={_g((ds or 0.0) * s_f)}")
        if method in ("9607", "1038"):  # coordinate frame rotation
            hel.append("+convention=coordinate_frame")
        else:
            hel.append("+convention=position_vector")
    steps = []
    if _lat_first(src):
        steps.append("+proj=axisswap +order=2,1")
    steps.append("+proj=unitconvert +xy_in=deg +xy_out=rad")
    two_d = src["geog_type"] == "geographic 2D"
    if two_d:
        steps.append("+proj=push +v_3")
    steps.append(f"+proj=cart {ellps_tok(src)}")
    steps.append(("+inv " if reverse else "") + "+proj=helmert "
                 + " ".join(hel))
    steps.append(f"+inv +proj=cart {ellps_tok(tgt)}")
    if two_d:
        steps.append("+proj=pop +v_3")
    steps.append("+proj=unitconvert +xy_in=rad +xy_out=deg")
    if _lat_first(tgt):
        steps.append("+proj=axisswap +order=2,1")
    if multiline:
        return "+proj=pipeline\n" + "\n".join(f"  +step {s}" for s in steps)
    return "+proj=pipeline " + " ".join(f"+step {s}" for s in steps)


def _lat_first(geog: dict) -> bool:
    axes = geog["cs"]["axes"]
    return bool(axes) and axes[0]["orientation"] == "north"


# ------------------------------------- stored PROJ-pipeline operations

def _crs_codes_by_name(token: str) -> list[tuple[str, str]]:
    m = _split_authcode(token)
    if m:
        return [m]
    out = []
    for table in ("geodetic_crs", "projected_crs", "vertical_crs",
                  "compound_crs"):
        out += [(r[0], r[1]) for r in _all(
            f"SELECT auth_name, code FROM {table} "
            "WHERE name=? AND deprecated=0", token)]
    return out


def _format_pipeline(steps: list[str], single: bool = False) -> str:
    """PROJStringFormatter multiline layout: '  +step ' lines wrapped
    at 80 columns with an 8-space continuation indent."""
    if single:
        return "+proj=pipeline " + " ".join(f"+step {s}" for s in steps)
    lines = ["+proj=pipeline"]
    for s in steps:
        cur = "  +step"
        for tok in s.split():
            # io.cpp:7477-7484: wrap when curLine+token exceeds 80,
            # NOT counting the joining space
            if len(cur) + len(tok) > 80:
                lines.append(cur)
                cur = "        " + tok
            else:
                cur += " " + tok
        lines.append(cur)
    return "\n".join(lines)


def _pipeline_steps(projstr: str) -> list[str]:
    """Split a stored '+proj=pipeline +step ... +step ...' string."""
    parts = projstr.split("+step")
    return [p.strip() for p in parts[1:]]


_NORMALIZE_OUT = ("+proj=axisswap +order=2,1",
                  "+proj=unitconvert +xy_in=rad +xy_out=deg")


def _helmert_15(row) -> list[str]:
    """15-param time-dependent helmert tokens in the reference's order
    and units (m / arcsec / ppm, rates per year, %.15g)."""
    (tx, ty, tz, rx, ry, rz, ds, rtx, rty, rtz, rrx, rry, rrz, rds,
     epoch, tuom, ruom, suom, rtuom, rruom, rsuom, method) = row
    # Measure::convertToUnit (common.cpp:407): SI value divided by the
    # TARGET unit's factor — targets are the reference's static.cpp
    # constants (arc-second, ppm, and their per-year variants with the
    # 31556925.445 s tropical year)
    year = 31556925.445
    arcsec = math.pi / 180.0 / 3600.0

    def cv(v, uom, target):
        si = (v or 0.0) * (projdb._uom_factor(uom) if uom else 1.0)
        return si / target

    toks = [f"+x={_g(cv(tx, tuom, 1.0))}", f"+y={_g(cv(ty, tuom, 1.0))}",
            f"+z={_g(cv(tz, tuom, 1.0))}",
            f"+rx={_g(cv(rx, ruom, arcsec))}",
            f"+ry={_g(cv(ry, ruom, arcsec))}",
            f"+rz={_g(cv(rz, ruom, arcsec))}",
            f"+s={_g(cv(ds, suom, 1e-6))}",
            f"+dx={_g(cv(rtx, rtuom, 1.0 / year))}",
            f"+dy={_g(cv(rty, rtuom, 1.0 / year))}",
            f"+dz={_g(cv(rtz, rtuom, 1.0 / year))}",
            f"+drx={_g(cv(rrx, rruom, arcsec / year))}",
            f"+dry={_g(cv(rry, rruom, arcsec / year))}",
            f"+drz={_g(cv(rrz, rruom, arcsec / year))}",
            f"+ds={_g(cv(rds, rsuom, 1e-6 / year))}",
            f"+t_epoch={_g(epoch)}"]
    conv = ("coordinate_frame" if method in ("1056", "1057")
            else "position_vector")
    toks.append(f"+convention={conv}")
    return toks


def _crs_name_of(auth: str, code: str) -> str | None:
    for table in ("geodetic_crs", "projected_crs"):
        r = _one(f"SELECT name FROM {table} WHERE auth_name=? AND code=?",
                 auth, code)
        if r:
            return r[0]
    return None


def crs_pair_pipeline(s_token: str, t_token: str,
                      single: bool = False) -> str | None:
    """PROJ pipeline for CRS pairs joined by a stored PROJ-authority
    operation: a verbatim '+proj=pipeline' other_transformation (e.g.
    NZGD2000→ITRF96 defmodel, YKJ→ETRS35FIN tinshift), or a
    concatenation of one with a time-dependent helmert leg (the
    NZGD2000→ITRFxx family), composed the way the reference's
    PROJStringFormatter optimizer does: the stored pipeline's output
    normalization cancels against the helmert leg's input
    normalization, cart/helmert/inv-cart splice in, and the final
    unitconvert/axisswap re-emerge for the new target."""
    s_codes, t_codes = _crs_codes_by_name(s_token), _crs_codes_by_name(t_token)
    if not s_codes or not t_codes:
        return None
    s_set, t_set = set(s_codes), set(t_codes)
    row = next(
        (r for r in _all(
            "SELECT source_crs_auth_name, source_crs_code, "
            "target_crs_auth_name, target_crs_code, method_name "
            "FROM other_transformation "
            "WHERE method_name LIKE '+proj=%' AND deprecated=0")
         if (r[0], r[1]) in s_set and (r[2], r[3]) in t_set), None)
    if row:
        return _format_pipeline(_pipeline_steps(row[4]), single)
    cop = next(
        (r[:2] for r in _all(
            "SELECT auth_name, code, source_crs_auth_name, "
            "source_crs_code, target_crs_auth_name, target_crs_code "
            "FROM concatenated_operation WHERE deprecated=0")
         if (r[2], r[3]) in s_set and (r[4], r[5]) in t_set), None)
    if cop is None:
        return None
    steps_rows = _all(
        "SELECT step_auth_name, step_code FROM concatenated_operation_step "
        "WHERE operation_auth_name=? AND operation_code=? "
        "ORDER BY step_number", *cop)
    if len(steps_rows) != 2:
        return None
    head = _one(
        "SELECT method_name, target_crs_auth_name, target_crs_code "
        "FROM other_transformation WHERE auth_name=? AND code=? "
        "AND method_name LIKE '+proj=%'", *steps_rows[0])
    if head is None:
        return None
    hrow = _one(
        "SELECT tx, ty, tz, rx, ry, rz, scale_difference, "
        "rate_tx, rate_ty, rate_tz, rate_rx, rate_ry, rate_rz, "
        "rate_scale_difference, epoch, translation_uom_code, "
        "rotation_uom_code, scale_difference_uom_code, "
        "rate_translation_uom_code, rate_rotation_uom_code, "
        "rate_scale_difference_uom_code, method_code, "
        "source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code "
        "FROM helmert_transformation_table WHERE auth_name=? AND code=?",
        *steps_rows[1])
    if hrow is None or hrow[14] is None:  # needs a reference epoch
        return None
    cur_name = _crs_name_of(head[1], head[2])
    hel_src = _crs_name_of(hrow[22], hrow[23])
    hel_tgt = _crs_name_of(hrow[24], hrow[25])
    inverse = hel_tgt == cur_name  # traverse the op against its direction
    if not inverse and hel_src != cur_name:
        return None
    src_geoc = load_crs(hrow[22], hrow[23])
    ell = src_geoc["datum"]["ellipsoid"]
    nm = _named_ellps(ell["a"], ell["rf"])
    cart = f"+proj=cart +ellps={nm}" if nm else \
        f"+proj=cart +a={_g(ell['a'])} +rf={_g(ell['rf'])}"
    steps = _pipeline_steps(head[0])
    while steps and steps[-1] in _NORMALIZE_OUT:
        steps.pop()
    hel = "+proj=helmert " + " ".join(_helmert_15(hrow[:22]))
    steps.append(cart)
    steps.append(("+inv " if inverse else "") + hel)
    steps.append(f"+inv {cart}")
    steps.append("+proj=unitconvert +xy_in=rad +xy_out=deg")
    # final axis normalization for a lat-first geographic target
    tgt = _one(
        "SELECT target_crs_auth_name, target_crs_code "
        "FROM concatenated_operation WHERE auth_name=? AND code=?", *cop)
    t_crs = load_crs(tgt[0], tgt[1])
    if t_crs["kind"] in ("geographic", "geocentric") and _lat_first(t_crs):
        steps.append("+proj=axisswap +order=2,1")
    return _format_pipeline(steps, single)


# ----------------------------- compound / chained pipeline composer

def _invert_steps(steps: list[str]) -> list[str]:
    out = []
    for s in reversed(steps):
        out.append(s[5:] if s.startswith("+inv ") else "+inv " + s)
    return out


def _cancel_pairs(steps: list[str]) -> list[str]:
    """The PROJStringFormatter optimization that deletes adjacent
    fwd/inv pairs of the same step (io.cpp pipeline simplification)."""
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            a, b = steps[i], steps[i + 1]
            if b == "+inv " + a or a == "+inv " + b:
                del steps[i:i + 2]
                changed = True
                break
    return steps


def _conv_with_ellps(proj_crs: dict) -> str:
    toks = _conv_proj_tokens(proj_crs["conversion"])
    ell = proj_crs["base"]["datum"]["ellipsoid"]
    a_m = _ell_a_m(ell)
    nm = _named_ellps(a_m, ell["rf"])
    toks.append(f"+ellps={nm}" if nm
                else f"+a={_g(a_m)} +rf={_g(ell['rf'])}")
    return " ".join(toks)


# axes[0] north-first == _lat_first (defined with the helmert
# pipeline emitter above); reused here for projected CRS too
_axis_north_first = _lat_first

_IN_NORM = ("+proj=axisswap +order=2,1",
            "+proj=unitconvert +xy_in=deg +xy_out=rad")


def _stored_pipeline_edges():
    return [(r[0], r[1], r[2], r[3], _pipeline_steps(r[4])) for r in _all(
        "SELECT source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code, method_name "
        "FROM other_transformation "
        "WHERE method_name LIKE '+proj=%' AND deprecated=0")]


def _bfs_edges(src: str, tgt: str,
               edges=None) -> list[tuple[list[str], bool]] | None:
    """Path of stored-pipeline edges src→tgt (codes); each entry is
    (steps, forward)."""
    if edges is None:
        edges = _stored_pipeline_edges()
    from collections import deque

    prev: dict[str, tuple[str, list[str], bool]] = {}
    seen = {src}
    q = deque([src])
    while q:
        cur = q.popleft()
        if cur == tgt:
            break
        for sa, sc, ta, tc, steps in edges:
            for nxt, fwd in ((tc, True) if sc == cur else (None, True),
                             (sc, False) if tc == cur else (None, False)):
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = (cur, steps, fwd)
                    q.append(nxt)
    if tgt not in seen:
        return None
    path = []
    cur = tgt
    while cur != src:
        p, steps, fwd = prev[cur]
        path.append((steps, fwd))
        cur = p
    return list(reversed(path))


def _strip_edge_norm(steps: list[str]) -> list[str]:
    steps = list(steps)
    while steps and steps[0] in _IN_NORM:
        steps.pop(0)
    while steps and steps[-1] in _NORMALIZE_OUT:
        steps.pop()
    return steps


def compound_pair_pipeline(s_token: str, t_token: str,
                           single: bool = False) -> str | None:
    """Pipelines between `A + B`-style compounds (and the geographic
    ends of stored chains): both ends normalize to geographic radians,
    stored vertical edges splice in with their own projection wraps,
    the horizontal edge wraps in its endpoints' conversions, and the
    PROJStringFormatter cancellation removes adjacent fwd/inv pairs —
    reproducing e.g. 'KKJ + N43 height' → 'ETRS89 + N2000 height'."""

    def split(token: str):
        parts = [p.strip() for p in token.split(" + ")]
        crss = []
        for p in parts:
            codes = _crs_codes_by_name(p)
            if not codes:
                return None
            crss.append(load_crs(*codes[0]))
        horiz = [c for c in crss if c["kind"] in ("geographic", "projected")]
        vert = [c for c in crss if c["kind"] == "vertical"]
        if len(horiz) != 1 or len(vert) > 1:
            return None
        return horiz[0], (vert[0] if vert else None)

    s = split(s_token)
    t = split(t_token)
    if s is None or t is None:
        return None
    (h_s, v_s), (h_t, v_t) = s, t

    edges = _stored_pipeline_edges()  # one table scan for both legs

    # vertical leg
    v_steps: list[str] = []
    v_forward = True
    if (v_s is None) != (v_t is None):
        return None
    if v_s is not None and v_s["code"] != v_t["code"]:
        path = _bfs_edges(v_s["code"], v_t["code"], edges)
        if path is None:
            return None
        v_forward = path[0][1]
        for steps, fwd in path:
            v_steps += steps if fwd else _invert_steps(steps)
    elif v_s is None and h_s["code"] == h_t["code"]:
        return None  # nothing to do

    # horizontal leg
    h_steps: list[str] = []
    if h_s["code"] != h_t["code"]:
        def anchors(crs):
            out = {(crs["auth"], crs["code"])}
            if crs["kind"] == "geographic":
                out.update((a, c) for a, c in _all(
                    "SELECT auth_name, code FROM projected_crs "
                    "WHERE geodetic_crs_auth_name=? AND geodetic_crs_code=? "
                    "AND deprecated=0", crs["auth"], crs["code"]))
            return out

        s_anchor, t_anchor = anchors(h_s), anchors(h_t)
        found = None
        for sa, sc, ta, tc, steps in edges:
            if (sa, sc) in s_anchor and (ta, tc) in t_anchor:
                found = ((sa, sc), (ta, tc), steps, True)
                break
            if (ta, tc) in s_anchor and (sa, sc) in t_anchor:
                found = ((sa, sc), (ta, tc), steps, False)
                break
        if found is None:
            return None
        e_in, e_out, steps, fwd = found
        # always wrap the edge in its own projected endpoints'
        # conversions (the working frame is geographic radians; IN/OUT
        # reconstruct the user's frame and _cancel_pairs removes the
        # redundant fwd/inv conversions — how the reference's optimizer
        # yields 'axisswap + three tinshifts' for the all-projected case)
        wrapped: list[str] = []
        ein_crs = load_crs(*e_in)
        if ein_crs["kind"] == "projected":
            wrapped.append(_conv_with_ellps(ein_crs))
        wrapped += _strip_edge_norm(steps)
        eout_crs = load_crs(*e_out)
        if eout_crs["kind"] == "projected":
            wrapped.append("+inv " + _conv_with_ellps(eout_crs))
        h_steps += wrapped if fwd else _invert_steps(wrapped)

    # source → geographic radians
    steps: list[str] = []
    if _axis_north_first(h_s):
        steps.append("+proj=axisswap +order=2,1")
    if h_s["kind"] == "geographic":
        steps.append("+proj=unitconvert +xy_in=deg +xy_out=rad")
    else:
        steps.append("+inv " + _conv_with_ellps(h_s))

    # vertical interpolates in its defining (source-side) frame when
    # traversed forward; after the horizontal hop when inverted
    steps += (v_steps + h_steps) if v_forward else (h_steps + v_steps)

    # geographic radians → target
    if h_t["kind"] == "geographic":
        steps.append("+proj=unitconvert +xy_in=rad +xy_out=deg")
        if _axis_north_first(h_t):
            steps.append("+proj=axisswap +order=2,1")
    else:
        steps.append(_conv_with_ellps(h_t))
        if _axis_north_first(h_t):
            steps.append("+proj=axisswap +order=2,1")

    steps = _cancel_pairs(steps)
    if not steps:
        return None
    return _format_pipeline(steps, single)


def ellipsoid_projjson(auth: str, code: str) -> dict:
    e = _ellipsoid(auth, code)
    return {"$schema": _SCHEMA, "type": "Ellipsoid", "name": e["name"],
            "semi_major_axis": _jnum(e["a"]),
            "inverse_flattening": _jnum(e["rf"]),
            "id": {"authority": auth, "code": int(code)}}


def datum_projjson(auth: str, code: str) -> dict:
    d = _datum(auth, code)
    ell = d["ellipsoid"]
    out = {"$schema": _SCHEMA, "type": "GeodeticReferenceFrame",
           "name": d["name"],
           "ellipsoid": {"name": ell["name"],
                         "semi_major_axis": _jnum(ell["a"]),
                         "inverse_flattening": _jnum(ell["rf"])}}
    if d["pm"]["name"] != "Greenwich":
        out["prime_meridian"] = {"name": d["pm"]["name"],
                                 "longitude": _jnum(d["pm"]["lon_deg"])}
    out["id"] = {"authority": auth, "code": int(code)}
    return out


# --------------------------------- vertical grid-shift candidates

def vgrid_candidates(s_token: str, t_token: str,
                     aoi=None) -> list[dict] | None:
    """Candidate operations for a vertical↔geographic-3D pair (or a
    compound whose vertical component pairs with the geographic 3D
    side): non-deprecated, non-superseded grid_transformation rows with
    a PROJ-usable grid alternative, accuracy-sorted — the reference's
    createOperations output for e.g. NGF-IGN69→RGF93 and
    NAD83(2011)+NAVD88→NAD83(2011). Each entry carries the display id
    ('INVERSE(DERIVED_FROM(EPSG)):8885' / 'unknown id' for
    compound-synthesized), name, accuracy text, area and pipeline."""

    def resolve(token: str):
        # 'EPSG:4326+3855' builds an ad-hoc compound (c_api
        # createCRSFromCode '+' syntax)
        mc = re.match(r"([A-Za-z_]+):([0-9A-Za-z_]+)\+([0-9A-Za-z_]+)$",
                      token)
        if mc:
            try:
                comps = [load_crs(mc.group(1).upper(), mc.group(2)),
                         load_crs(mc.group(1).upper(), mc.group(3))]
            except NotFound:
                return None
            return {"kind": "compound", "components": comps,
                    "name": " + ".join(c["name"] for c in comps),
                    "usages": []}
        m = _split_authcode(token)
        codes = [m] if m else _crs_codes_by_name(token)
        loaded = []
        for ac in codes:
            try:
                loaded.append(load_crs(*ac))
            except NotFound:
                continue
        # a bare name like 'GDA2020' covers geocentric + geographic
        # siblings: the geographic one is the vgridshift anchor
        for kind in ("geographic", "vertical", "compound", "projected"):
            for crs in loaded:
                if crs["kind"] == kind:
                    return crs
        return loaded[0] if loaded else None

    s, t = resolve(s_token), resolve(t_token)
    if s is None or t is None:
        return None
    s_disp, t_disp = s, t  # the user's CRS, for operation WKT blocks
    synthesized = False  # compound/projected ends lose the op identity
    prefix = ""
    to_compound = False
    if s["kind"] == "projected":
        # e.g. 32631 → 4326+3855: the horizontal leg is the inverse
        # conversion; the vertical candidates carry its name as prefix
        prefix = f"Inverse of {s['conversion']['name']} + "
        s = s["base"]
        synthesized = True
    if s["kind"] == "compound":
        vert = next((c for c in s["components"] if c["kind"] == "vertical"),
                    None)
        if vert is None:
            return None
        s = vert
        synthesized = True
    if t["kind"] == "compound":
        vert_t = next((c for c in t["components"]
                       if c["kind"] == "vertical"), None)
        if vert_t is None:
            return None
        t = vert_t
        synthesized = True
        to_compound = True
    if s["kind"] == "vertical" and t["kind"] == "geographic":
        vert, geog, inverse = s, t, True
    elif s["kind"] == "geographic" and t["kind"] == "vertical":
        vert, geog, inverse = t, s, False
    else:
        return None

    # hide superseded ops only when the replacement covers the same
    # source/target pair (supersession.same_source_target_crs) — the
    # reference keeps e.g. GDA94→AHD (49) although GDA2020→AHD (1)
    # nominally supersedes it
    superseded = {(r[0], r[1]) for r in _all(
        "SELECT superseded_auth_name, superseded_code FROM supersession "
        "WHERE superseded_table_name='grid_transformation' "
        "AND same_source_target_crs=1")}
    # the geographic side matches through the datum family: a 2D name
    # like 'GDA94' pairs with ops written against its 3D sibling
    geog_codes = {(geog["auth"], geog["code"])}
    geog_codes.update((a, c) for a, c in _all(
        "SELECT auth_name, code FROM geodetic_crs WHERE datum_auth_name=? "
        "AND datum_code=? AND type LIKE 'geographic%' AND deprecated=0",
        geog["datum"]["auth"], geog["datum"]["code"]))
    out = []
    rows = [r for ga, gc in sorted(geog_codes) for r in _all(
        "SELECT auth_name, code, name, accuracy, grid_name, "
        "method_auth_name, method_code, method_name, grid_param_name, "
        "operation_version, description "
        "FROM grid_transformation WHERE deprecated=0 "
        "AND source_crs_auth_name=? AND source_crs_code=? "
        "AND target_crs_auth_name=? AND target_crs_code=?",
        ga, gc, vert["auth"], vert["code"])]
    for (auth, code, name, acc, grid, ma, mc, mname, gpname,
         version, remark) in rows:
        if (auth, code) in superseded:
            continue
        if aoi is not None:
            usf = _usages("grid_transformation", auth, code)
            if usf and not _bbox_intersects(usf[0]["bbox"], aoi):
                continue
        alt = _one(
            "SELECT proj_grid_name FROM grid_alternatives "
            "WHERE original_grid_name=? OR old_proj_grid_name=?",
            grid, grid)
        known = alt is not None or grid.endswith(".tif")
        gridname = alt[0] if alt is not None else grid
        derived = gridname != grid
        if synthesized:
            id_str = "unknown id"
        else:
            id_str = f"DERIVED_FROM({auth})" if derived else auth
            id_str = (f"INVERSE({id_str})" if inverse else id_str) \
                + f":{code}"
        us = _usages("grid_transformation", auth, code)
        steps = ["+proj=axisswap +order=2,1",
                 "+proj=unitconvert +xy_in=deg +xy_out=rad",
                 ("" if inverse else "+inv ")
                 + f"+proj=vgridshift +grids={gridname} +multiplier=1",
                 "+proj=unitconvert +xy_in=rad +xy_out=deg",
                 "+proj=axisswap +order=2,1"] if known else None
        # identified ops display the db accuracy text; synthesized
        # chains re-derive it as a double (1.0 -> '1')
        acc_txt = (f"{_g(acc)} m" if synthesized else f"{acc!s} m") \
            if acc is not None else "unknown accuracy"
        out.append({
            "id": id_str,
            "name": prefix + ("Inverse of " if inverse else "") + name,
            "accuracy": acc_txt,
            "area": us[0]["area"] if us else None,
            "bbox": us[0]["bbox"] if us else (-90, -180, 90, 180),
            "accuracy_val": acc if acc is not None else 1e9,
            "known": known,
            # composed (prefixed) candidates: pipeline export would
            # omit the advertised conversion leg — withhold it
            "steps": None if prefix else steps,
            "composed": bool(prefix),
            # candidate_wkt2-compatible record (block output)
            "wkt": None if synthesized else {
                "kind": "vgrid", "auth": auth, "code": code, "name": name,
                "acc": acc, "reverse": inverse, "derived": derived,
                "method_name": mname, "method_id": (ma, mc),
                "files": [(gpname, gridname)],
                "version": version, "remark": remark or None,
                "scope": us[0]["scope"] if us else "unknown",
                "area": us[0]["area"] if us else "World",
                "bbox": us[0]["bbox"] if us else (-90, -180, 90, 180),
                "prefix": "",
            },
        })
    if not out:
        return None
    # grids-known first, then pseudo-area desc, then accuracy — the
    # SortFunction slots that apply here
    out.sort(key=lambda o: (not o["known"], -_bbox_area(o["bbox"]),
                            o["accuracy_val"]))
    if to_compound:
        # geog/projected → compound adds the vertical ballpark chain
        out.append({
            "id": "unknown id",
            "name": prefix + "Inverse of Transformation from "
            f"{vert['name']} to {geog['name']} (ballpark vertical "
            "transformation, without ellipsoid height to vertical "
            "height correction)",
            "accuracy": "unknown accuracy",
            "area": "World, has ballpark transformation",
            "bbox": (-90, -180, 90, 180),
            "accuracy_val": 1e9, "known": True,
            "steps": None if prefix else ["+proj=noop"],
            "composed": bool(prefix),
        })
    for o in out:
        o["endpoints"] = (s_disp, t_disp)
    return out


# ------------------------------------ AOI-filtered candidate summaries

def area_lookup(token: str):
    """--area resolution (projinfo.cpp): AUTH:CODE → extent bbox, else
    exact name match, else approximate listing. Returns one of
    ('ok', (s, w, n, e)), ('several', [(auth, code, description)...]),
    ('none',), ('err', message)."""
    m = _split_authcode(token)
    if m:
        row = _one(
            "SELECT south_lat, west_lon, north_lat, east_lon FROM extent "
            "WHERE auth_name=? AND code=?", m[0], m[1])
        if row is None:
            return ("err", "Area of use retrieval failed: extent not found")
        return ("ok", row)
    rows = _all(
        "SELECT south_lat, west_lon, north_lat, east_lon FROM extent "
        "WHERE name=? AND deprecated=0", token)
    if len(rows) == 1:
        return ("ok", rows[0])
    approx = _all(
        "SELECT auth_name, code, description FROM extent "
        "WHERE name LIKE ? AND deprecated=0 ORDER BY CAST(code AS INTEGER)",
        token + "%")
    if not approx:
        return ("none",)
    return ("several", approx)


# ------------------------------ geodetic-pair candidate operations

def _lon_span(w: float, e: float) -> float:
    return e - w if e >= w else e + 360.0 - w


def _bbox_area(b) -> float:
    # getPseudoArea (coordinateoperation.cpp:553): lon span × the
    # integral of cos(lat) — high-latitude extents weigh less
    s, w, n, e = b
    return _lon_span(w, e) * (math.sin(math.radians(n))
                              - math.sin(math.radians(s)))


def _bbox_contains(outer, inner) -> bool:
    """GeographicBoundingBox::contains (src/iso19111/metadata.cpp:256-302):
    exact comparisons, W>E means antimeridian-crossing, a [-180,180]
    inner is only contained by a [-180,180] outer."""
    s, w, n, e = outer
    os_, ow, on, oe = inner
    if not (s <= os_ and n >= on):
        return False
    if w == -180.0 and e == 180.0:
        return True
    if ow == -180.0 and oe == 180.0:
        return False
    if w < e:  # normal outer
        return w <= ow and e >= oe if ow < oe else False
    # outer crosses the antimeridian
    if ow < oe:
        return ow >= w or oe <= e
    return w <= ow and e >= oe


def _bbox_intersects(a, b) -> bool:
    """GeographicBoundingBox::Private::intersects (metadata.cpp:308-348)."""
    s, w, n, e = a
    os_, ow, on, oe = b
    if n < os_ or s > on:
        return False
    if w == -180.0 and e == 180.0 and ow > oe:
        return True
    if ow == -180.0 and oe == 180.0 and w > e:
        return True
    if w <= e:  # normal a
        if ow < oe:
            return max(w, ow) < min(e, oe)
        # b crosses: split b at the antimeridian
        return (_bbox_intersects(a, (os_, ow, on, 180.0))
                or _bbox_intersects(a, (os_, -180.0, on, oe)))
    # a crosses
    if ow <= oe:
        return _bbox_intersects(b, a)
    return True  # both cross: they share the antimeridian


def _bbox_intersection(a, b):
    """GeographicBoundingBox::Private::intersection (metadata.cpp:381-441):
    when one box crosses the antimeridian and the other doesn't, the
    LARGER of the two split parts is returned (reference behavior)."""
    s, w, n, e = a
    os_, ow, on, oe = b
    if n < os_ or s > on:
        return None
    if w == -180.0 and e == 180.0 and ow > oe:
        return (max(s, os_), ow, min(n, on), oe)
    if ow == -180.0 and oe == 180.0 and w > e:
        return (max(s, os_), w, min(n, on), e)
    if w <= e:  # normal a
        if ow < oe:
            res = (max(s, os_), max(w, ow), min(n, on), min(e, oe))
            return res if res[1] < res[3] else None
        inter1 = _bbox_intersection(a, (os_, ow, on, 180.0))
        inter2 = _bbox_intersection(a, (os_, -180.0, on, oe))
        if inter1 is None:
            return inter2
        if inter2 is None:
            return inter1
        return inter1 if inter1[3] - inter1[1] > inter2[3] - inter2[1] else inter2
    # a crosses
    if ow <= oe:
        return _bbox_intersection(b, a)
    return (max(s, os_), max(w, ow), min(n, on), min(e, oe))


# methods the reference cannot express as PROJ pipelines (PROJ 7.2):
# NADCON5 grids and the time-specific Helmert family
_UNSUPPORTED_GRID_METHODS = ("NADCON5",)
_UNSUPPORTED_HELMERT_METHODS = {"1065", "1066"}


def _crs_extent(crs: dict):
    if crs.get("usages"):
        s, w, n, e = crs["usages"][0]["bbox"]
        return (s, w, n, e)
    return (-90.0, -180.0, 90.0, 180.0)


_SUPERSEDED_CACHE: set | None = None


def _superseded_ops() -> set:
    """(table, auth, code) of operations the reference's
    createOperations discards: a superseded op is dropped ONLY when a
    same-table, same-source/target-pair replacement exists that is
    itself not deprecated (factory.cpp setTransf lookup — the
    supersession join requires superseded_table_name =
    replacement_table_name AND same_source_target_crs=1, and the
    replacement must land in the same query's result set, which for
    same-pair supersessions reduces to it being non-deprecated)."""
    global _SUPERSEDED_CACHE
    if _SUPERSEDED_CACHE is None:
        _SUPERSEDED_CACHE = {(t, a, c) for t, a, c in _all(
            "SELECT ss.superseded_table_name, ss.superseded_auth_name, "
            "ss.superseded_code FROM supersession ss "
            "JOIN coordinate_operation_view cov "
            "  ON cov.table_name = ss.replacement_table_name "
            "  AND cov.auth_name = ss.replacement_auth_name "
            "  AND cov.code = ss.replacement_code "
            "WHERE ss.same_source_target_crs = 1 "
            "  AND ss.superseded_table_name = ss.replacement_table_name "
            "  AND cov.deprecated = 0")}
    return _SUPERSEDED_CACHE


# ------------------- stored concatenated operations as candidates

def _geodetic_ellps_tok(auth: str, code: str) -> str:
    e = load_crs(auth, code)["datum"]["ellipsoid"]
    a_m = _ell_a_m(e)
    name = _named_ellps(a_m, e["rf"])
    return f"+ellps={name}" if name else f"+a={_g(a_m)} +rf={_g(e['rf'])}"


def _grid_proj_file(g1: str):
    """(tif_or_original_name, derived, inverse) through
    grid_alternatives; ``inverse`` means the PROJ-alternative grid is
    registered in the opposite direction to the original (e.g.
    rgf93_ntf.gsb → fr_ign_ntf_r93.tif), so the emitted step direction
    flips."""
    alt = _one(
        "SELECT proj_grid_name, inverse_direction FROM grid_alternatives "
        "WHERE original_grid_name=? OR old_proj_grid_name=?", g1, g1)
    if alt is not None:
        return alt[0], alt[0] != g1, bool(alt[1])
    return g1, False, False


def _transformation_middle(auth: str, code: str, reverse: bool):
    """Middle pipeline steps (radian-geographic in/out) for ONE stored
    transformation row, honouring traversal direction — the per-step
    leg of ConcatenatedOperation::exportToPROJString (the reference
    composes member exports and lets PROJStringFormatter cancel the
    interior normalizations; we emit the interior legs directly).
    Returns {"steps": [...], "files": [...]} or None if the method has
    no PROJ expression."""
    inv = "+inv " if reverse else ""
    row = _one(
        "SELECT source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code, method_code, epoch "
        "FROM helmert_transformation_table WHERE auth_name=? AND code=?",
        auth, code)
    if row is not None:
        sa, sc, ta, tc, method, epoch = row
        if method in _UNSUPPORTED_HELMERT_METHODS:
            return None
        if epoch is not None and method in ("1053", "1054", "1056", "1057"):
            hrow = _one(
                "SELECT tx, ty, tz, rx, ry, rz, scale_difference, "
                "rate_tx, rate_ty, rate_tz, rate_rx, rate_ry, rate_rz, "
                "rate_scale_difference, epoch, translation_uom_code, "
                "rotation_uom_code, scale_difference_uom_code, "
                "rate_translation_uom_code, rate_rotation_uom_code, "
                "rate_scale_difference_uom_code, method_code "
                "FROM helmert_transformation_table "
                "WHERE auth_name=? AND code=?", auth, code)
            hel = "+proj=helmert " + " ".join(_helmert_15(hrow))
        else:
            pipe = operation_proj_pipeline(auth, code, multiline=False)
            hel = next(s for s in _pipeline_steps(pipe)
                       if "+proj=helmert" in s)
        if reverse:
            sa, sc, ta, tc = ta, tc, sa, sc
            hel = "+inv " + hel
        # strict no-op helmerts vanish entirely (PROJStringFormatter
        # noop elision; the surrounding carts then cancel with the
        # neighbours' or with nothing)
        vals = [t.split("=", 1)[1] for t in hel.split()
                if "=" in t and not t.startswith(
                    ("+proj", "+convention", "+t_epoch"))]
        if all(float(v) == 0.0 for v in vals):
            return {"steps": [], "files": []}
        return {"steps": [f"+proj=cart {_geodetic_ellps_tok(sa, sc)}",
                          hel,
                          f"+inv +proj=cart {_geodetic_ellps_tok(ta, tc)}"],
                "files": []}
    row = _one(
        "SELECT source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code, method_code, method_name, "
        "grid_name FROM grid_transformation WHERE auth_name=? AND code=?",
        auth, code)
    if row is not None:
        sa, sc, ta, tc, mc, mname, g1 = row
        if mname.startswith(_UNSUPPORTED_GRID_METHODS):
            return None
        fname, derived, inv_dir = _grid_proj_file(g1)
        if inv_dir:
            reverse = not reverse
            inv = "+inv " if reverse else ""
        if mc in ("1087", "9655"):  # geocentric translation by grid
            # interpolation (IGN) → xyzgridshift
            tok_s = _geodetic_ellps_tok(sa, sc)
            tok_t = _geodetic_ellps_tok(ta, tc)
            if reverse:
                return {"steps": [
                    f"+proj=cart {tok_t}",
                    f"+inv +proj=xyzgridshift +grids={fname} "
                    f"+grid_ref=output_crs {tok_t}",
                    f"+inv +proj=cart {tok_s}"],
                    "files": [fname]}
            return {"steps": [
                f"+proj=cart {tok_s}",
                f"+proj=xyzgridshift +grids={fname} "
                f"+grid_ref=output_crs {tok_t}",
                f"+inv +proj=cart {tok_t}"],
                "files": [fname]}
        if not derived and mname.startswith(("NTv2", "NTv1", "NADCON",
                                             "Geocentric translation")):
            # no PROJ-usable grid known for the official name
            return None
        return {"steps": [f"{inv}+proj=hgridshift +grids={fname}"],
                "files": [fname]}
    row = _one(
        "SELECT source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code, method_code "
        "FROM other_transformation WHERE auth_name=? AND code=?",
        auth, code)
    if row is not None:
        sa, sc, ta, tc, mc = row
        if mc == "9601":  # longitude rotation (prime-meridian change)
            base = (ta, tc) if not reverse else (sa, sc)
            pm_crs = (sa, sc) if not reverse else (ta, tc)
            pm = load_crs(*pm_crs)["datum"].get("pm")
            tok = _pm_token(pm["lon_deg"]) if pm else None
            if tok is None:
                return None
            ell = _geodetic_ellps_tok(*base)
            if reverse:
                return {"steps": [f"+proj=longlat {ell} {tok}"], "files": []}
            return {"steps": [f"+inv +proj=longlat {ell} {tok}"],
                    "files": []}
        if mc in ("9619", "9660"):  # geographic offsets
            vals = _all(
                "SELECT parameter_code, value, uom_code FROM "
                "other_transformation_parameter "
                "WHERE operation_auth_name=? AND operation_code=?",
                auth, code)
            names = {"8601": "dlat", "8602": "dlon", "8604": "dh"}
            toks = []
            for pc, v, uc in vals:
                if pc not in names:
                    return None
                v = float(v or 0.0)
                if pc in ("8601", "8602"):
                    v = projdb._angle_deg(v, str(uc)) * 3600.0  # arcsec
                if reverse:
                    v = -v
                toks.append(f"+{names[pc]}={_g(v)}")
            return {"steps": ["+proj=geogoffset " + " ".join(toks)],
                    "files": []}
    return None


def concat_expand(auth: str, code: str, reverse: bool):
    """Full PROJ pipeline steps for a stored concatenated operation:
    walk the member steps from the source CRS (detecting per-step
    traversal direction), splice the middles, cancel interior
    cart/inv-cart pairs, and wrap for the geographic endpoints with
    push/pop +v_3 around cart sections (2D ends). Returns
    {"steps": [...], "files": [...]} or None if any member has no
    PROJ expression."""
    ends = _one(
        "SELECT source_crs_auth_name, source_crs_code, "
        "target_crs_auth_name, target_crs_code "
        "FROM concatenated_operation WHERE auth_name=? AND code=?",
        auth, code)
    steps_rows = _all(
        "SELECT step_auth_name, step_code FROM concatenated_operation_step "
        "WHERE operation_auth_name=? AND operation_code=? "
        "ORDER BY step_number", auth, code)
    if ends is None or not steps_rows:
        return None
    cur = (str(ends[0]), str(ends[1]))
    middle: list[str] = []
    files: list[str] = []
    for pa, pc in steps_rows:
        srow = _one(
            "SELECT source_crs_auth_name, source_crs_code, "
            "target_crs_auth_name, target_crs_code FROM ("
            "SELECT source_crs_auth_name, source_crs_code, "
            "target_crs_auth_name, target_crs_code, auth_name, code "
            "FROM coordinate_operation_view) WHERE auth_name=? AND code=?",
            pa, pc)
        if srow is None:
            return None
        s_ac = (str(srow[0]), str(srow[1]))
        t_ac = (str(srow[2]), str(srow[3]))
        if s_ac == cur:
            rev, cur = False, t_ac
        elif t_ac == cur:
            rev, cur = True, s_ac
        else:
            return None
        m = _transformation_middle(pa, pc, rev)
        if m is None:
            return None
        middle.extend(m["steps"])
        files.extend(m["files"])
    if reverse:
        middle = _invert_steps(middle)
        s_end, t_end = (str(ends[2]), str(ends[3])), (str(ends[0]),
                                                      str(ends[1]))
    else:
        s_end, t_end = (str(ends[0]), str(ends[1])), (str(ends[2]),
                                                      str(ends[3]))
    middle = _cancel_pairs(middle)
    src, tgt = load_crs(*s_end), load_crs(*t_end)
    if src["kind"] not in ("geographic",) or tgt["kind"] not in (
            "geographic",):
        return None
    # push/pop +v_3 around each contiguous cart…inv-cart section when
    # both endpoints are 2D (io.cpp 2D-pipeline height preservation)
    two_d = (src.get("geog_type") == "geographic 2D"
             and tgt.get("geog_type") == "geographic 2D")
    if two_d:
        wrapped: list[str] = []
        in_cart = False
        for s in middle:
            starts_cart = s.startswith("+proj=cart")
            ends_cart = s.startswith("+inv +proj=cart")
            if starts_cart and not in_cart:
                wrapped.append("+proj=push +v_3")
                in_cart = True
            wrapped.append(s)
            if ends_cart and in_cart:
                wrapped.append("+proj=pop +v_3")
                in_cart = False
        middle = wrapped

    def unit_tok(crs: dict) -> str:
        u = crs["cs"]["axes"][0]["unit"]["name"] if crs["cs"]["axes"] \
            else "degree"
        return {"degree": "deg", "grad": "grad"}.get(u, "deg")

    steps: list[str] = []
    if _lat_first(src):
        steps.append("+proj=axisswap +order=2,1")
    steps.append(f"+proj=unitconvert +xy_in={unit_tok(src)} +xy_out=rad")
    steps.extend(middle)
    steps.append(f"+proj=unitconvert +xy_in=rad +xy_out={unit_tok(tgt)}")
    if _lat_first(tgt):
        steps.append("+proj=axisswap +order=2,1")
    return {"steps": steps, "files": files}


def geog_pair_candidates(s_token: str, t_token: str, *,
                         spatial_test: str = "contains",
                         hide_ballpark: bool = False,
                         aoi=None, grid_check: str | None = None):
    """createOperations over a geodetic pair: direct transformation
    rows from the helmert/grid/other tables (either direction),
    EPSG/PROJ authorities, non-deprecated, non-superseded-same-pair,
    plus the synthesized ballpark offset — AOI-filtered (the
    source∩target extent when no explicit AOI) and ordered by the
    reference's SortFunction (coordinateoperation.cpp:11313: PROJ
    exportability, non-ballpark, grids-known, accuracy-known, area
    desc, accuracy asc). Returns (shown, intersects_count,
    s_crs, t_crs) or None."""

    def resolve(token: str):
        m = _split_authcode(token)
        codes = [m] if m else _crs_codes_by_name(token)
        loaded = []
        for ac in codes:
            try:
                loaded.append(load_crs(*ac))
            except NotFound:
                continue
        # name lookup prefers the geographic 2D member of a datum
        # family over its 3D/geocentric siblings
        for pick in (lambda c: c.get("geog_type") == "geographic 2D",
                     lambda c: c["kind"] == "geographic",
                     lambda c: c["kind"] == "geocentric",
                     lambda c: c["kind"] == "projected"):
            for crs in loaded:
                if pick(crs):
                    return crs
        return None

    s_crs, t_crs = resolve(s_token), resolve(t_token)
    if s_crs is None or t_crs is None:
        return None
    # a projected source contributes an 'Inverse of <conversion>' leg
    # and the candidates match against its base CRS (the reference's
    # projected→geog decomposition; synthesized ops lose their id)
    s_prefix = ""
    if s_crs["kind"] == "projected":
        s_prefix = f"Inverse of {s_crs['conversion']['name']} + "
        s_crs = s_crs["base"]
    if t_crs["kind"] == "projected":
        return None
    if s_crs["kind"] != t_crs["kind"]:
        return None
    s_codes = {(s_crs["auth"], s_crs["code"])}
    t_codes = {(t_crs["auth"], t_crs["code"])}
    cands = []
    rows = _all(
        "SELECT 'grid', auth_name, code, name, accuracy, "
        "source_crs_auth_name, source_crs_code, target_crs_auth_name, "
        "target_crs_code, method_auth_name, method_code, method_name, "
        "grid_param_name, grid_name, grid2_param_name, grid2_name, "
        "operation_version, description FROM grid_transformation "
        "WHERE deprecated=0 "
        "UNION ALL SELECT 'helmert', auth_name, code, name, accuracy, "
        "source_crs_auth_name, source_crs_code, target_crs_auth_name, "
        "target_crs_code, method_auth_name, method_code, name, "
        "NULL, NULL, NULL, NULL, operation_version, description "
        "FROM helmert_transformation_table WHERE deprecated=0 "
        "UNION ALL SELECT 'other', auth_name, code, name, accuracy, "
        "source_crs_auth_name, source_crs_code, target_crs_auth_name, "
        "target_crs_code, method_auth_name, method_code, method_name, "
        "NULL, NULL, NULL, NULL, operation_version, description "
        "FROM other_transformation WHERE deprecated=0 "
        "UNION ALL SELECT 'concat', auth_name, code, name, accuracy, "
        "source_crs_auth_name, source_crs_code, target_crs_auth_name, "
        "target_crs_code, NULL, NULL, NULL, "
        "NULL, NULL, NULL, NULL, operation_version, description "
        "FROM concatenated_operation WHERE deprecated=0")
    tblname = {"grid": "grid_transformation",
               "helmert": "helmert_transformation",
               "other": "other_transformation",
               "concat": "concatenated_operation"}
    pair_rows = [r for r in rows
                 if ((r[5], r[6]) in s_codes and (r[7], r[8]) in t_codes)
                 or ((r[5], r[6]) in t_codes and (r[7], r[8]) in s_codes)]
    superseded = _superseded_ops()
    for (k, auth, code, name, acc, sa, sc, ta, tc, ma, mc, mname,
         p1name, g1, p2name, g2, version, remark) in pair_rows:
        rev = (sa, sc) in t_codes and (ta, tc) in s_codes and \
            not ((sa, sc) in s_codes and (ta, tc) in t_codes)
        if auth not in ("EPSG", "PROJ"):
            continue  # authority preference for EPSG-pair lookups
        if (tblname[k], auth, code) in superseded:
            continue
        us = _usages(tblname[k], auth, code)
        if not us:
            continue
        if k == "concat":
            exp = concat_expand(auth, code, rev)
            cands.append({
                "kind": "concat", "auth": auth, "code": code, "name": name,
                "acc": acc, "reverse": rev, "derived": False,
                "method_name": None, "method_id": None,
                "files": [("Latitude and longitude difference file", f)
                          for f in (exp["files"] if exp else [])],
                "version": version, "remark": remark or None,
                "scope": us[0]["scope"], "area": us[0]["area"],
                "bbox": us[0]["bbox"],
                "exportable": exp is not None,
                "steps_proj": exp["steps"] if exp else None,
                "known": True,
                "available": grid_check == "none"
                or not (exp and exp["files"]),
                "approx": False,
            })
            continue
        derived = False
        files = []
        if k == "grid":
            alt = _one(
                "SELECT proj_grid_name FROM grid_alternatives "
                "WHERE original_grid_name=? OR old_proj_grid_name=?", g1, g1)
            if alt is not None and alt[0] != g1:
                derived = True
                files = [("Latitude and longitude difference file", alt[0])]
            else:
                files = [(p1name, g1)]
                if g2 is not None:
                    files.append((p2name, g2))
        exportable = True
        if k == "grid" and not derived and \
                mname.startswith(_UNSUPPORTED_GRID_METHODS):
            exportable = False
        if k == "helmert" and mc in _UNSUPPORTED_HELMERT_METHODS:
            exportable = False
        cands.append({
            "kind": k, "auth": auth, "code": code, "name": name,
            "acc": acc, "reverse": rev, "derived": derived,
            "method_name": "HORIZONTAL_SHIFT_GTIFF" if derived else mname,
            "method_id": None if derived else (ma, mc),
            "files": files, "version": None if derived else version,
            "remark": None if derived else (remark or None),
            "scope": us[0]["scope"], "area": us[0]["area"],
            "bbox": us[0]["bbox"], "exportable": exportable,
            "known": derived or k != "grid",
            # no grid files ship in this environment: with the default
            # USE_FOR_SORTING grid check, grid-requiring ops sort after
            # helmerts (coordinateoperation.cpp:11746-11762)
            "available": grid_check == "none" or k != "grid",
            "approx": False,
        })
    if not cands:
        # no direct operation: single-intermediate hub search (the
        # reference's createOperationsWithDatumPivot) — chains of two
        # transformation rows joined through a pivot datum family, with
        # geog↔geocentric conversion legs spliced into the name
        cands = _hub_chains(s_crs, t_crs, rows, superseded, tblname,
                            grid_check)

    # synthesized ballpark
    geocentric = s_crs["kind"] == "geocentric"
    bp_kind = ("Ballpark geocentric translation"
               if geocentric else "Ballpark geographic offset")
    cands.append({
        "kind": "ballpark", "auth": None, "code": None,
        "name": f"{bp_kind} from {s_crs['name']} to {t_crs['name']}",
        "acc": None, "reverse": False, "derived": False,
        "method_name": "Geocentric translations (geog2D domain)"
        if geocentric else "Geographic2D offsets",
        "method_id": ("EPSG", "9603") if geocentric else ("EPSG", "9619"),
        "files": [], "version": None, "remark": None,
        "scope": "unknown", "area": "World",
        "bbox": (-90.0, -180.0, 90.0, 180.0),
        "exportable": True, "known": True, "available": True,
        "approx": True,
    })
    for c in cands:
        c["prefix"] = s_prefix if c["kind"] != "ballpark" else ""
    ext1, ext2 = _crs_extent(s_crs), _crs_extent(t_crs)
    explicit_aoi = aoi is not None

    def sort_area(b) -> float:
        # coordinateoperation.cpp:11725-11742: explicit AOI → op∩AOI;
        # otherwise inclusion-exclusion over the two CRS extents
        def inter_area(x, y):
            if not _bbox_intersects(x, y):
                return 0.0
            return _bbox_area(_bbox_intersection(x, y))

        if explicit_aoi:
            return inter_area(b, aoi)
        both = (inter_area(b, _bbox_intersection(ext1, ext2))
                if _bbox_intersects(ext1, ext2) else 0.0)
        return inter_area(b, ext1) + inter_area(b, ext2) - both

    if aoi is None:
        # disjoint CRS extents -> null intersection in the reference:
        # no spatial filtering applies (coordinateoperation.cpp behavior)
        aoi = _bbox_intersection(ext1, ext2)
    # the reference drops the ballpark when a concrete candidate fully
    # covers the area of interest (createOperations ballpark fallback)
    if aoi is not None and \
            any(c["kind"] != "ballpark" and _bbox_contains(c["bbox"], aoi)
                for c in cands):
        cands = [c for c in cands if c["kind"] != "ballpark"]
    shown, intersects = [], 0
    for c in cands:
        if aoi is not None and not _bbox_intersects(c["bbox"], aoi):
            continue
        intersects += 1
        if aoi is not None and spatial_test == "contains" and \
                not _bbox_contains(c["bbox"], aoi):
            continue
        shown.append(c)
    if hide_ballpark and any(c["approx"] for c in shown):
        shown = [c for c in shown if not c["approx"]]
        intersects -= 1
    # area slot per the reference's precompute: with an explicit AOI
    # every containing candidate ties and accuracy decides
    shown.sort(key=lambda c: (
        not c["exportable"], c["approx"], not c.get("available", True),
        not c["known"], c["acc"] is None, -sort_area(c["bbox"]),
        c["acc"] if c["acc"] is not None else 0.0))
    return shown, intersects, s_crs, t_crs


def candidate_display(c: dict) -> str:
    if c["kind"] == "ballpark":
        return (f"unknown id, {c['name']}, unknown accuracy, "
                "World, has ballpark transformation")
    name = ("Inverse of " if c["reverse"] else "") + c["name"]
    if c.get("prefix") or c["kind"] == "chain":
        # composed operation: synthesized identity, double-formatted
        # accuracy (the reference re-derives it from the members)
        acc = (f"{_g(c['acc'])} m" if c["acc"] is not None
               else "unknown accuracy")
        return (f"unknown id, {c.get('prefix', '')}{name}, {acc}, "
                f"{c['area']}")
    idp = f"DERIVED_FROM({c['auth']})" if c["derived"] else c["auth"]
    if c["reverse"]:
        idp = f"INVERSE({idp})"
    acc = f"{c['acc']!s} m" if c["acc"] is not None else "unknown accuracy"
    return f"{idp}:{c['code']}, {name}, {acc}, {c['area']}"


def candidate_proj_steps(c: dict) -> list[str] | None:
    if c["kind"] == "ballpark":
        return ["+proj=noop"]
    if not c["exportable"]:
        return None
    if c["kind"] == "concat":
        return c.get("steps_proj")
    if c["kind"] == "chain" or c.get("prefix"):
        # composed operations: pipeline export not implemented — the
        # caller reports that rather than printing a pipeline that
        # omits the advertised conversion leg
        return None
    if c["kind"] == "other":
        if c["method_name"] and c["method_name"].startswith("+proj="):
            return _pipeline_steps(c["method_name"])
        return None
    if c["kind"] == "grid":
        inv = "+inv " if c["reverse"] else ""
        return ["+proj=axisswap +order=2,1",
                "+proj=unitconvert +xy_in=deg +xy_out=rad",
                f"{inv}+proj=hgridshift +grids={c['files'][0][1]}",
                "+proj=unitconvert +xy_in=rad +xy_out=deg",
                "+proj=axisswap +order=2,1"]
    try:
        pipe = operation_proj_pipeline(c["auth"], c["code"],
                                       reverse=c["reverse"])
    except NotFound:
        return None
    return _pipeline_steps(pipe)


def candidate_wkt2(c: dict, s_crs: dict, t_crs: dict, *,
                   single: bool = False) -> str:
    """COORDINATEOPERATION WKT2 for a candidate: VERSION, full
    source/target CRS (ids kept, usages suppressed inside operations),
    METHOD/PARAMETERFILE or zero-offset PARAMETERs for ballpark,
    OPERATIONACCURACY, USAGE, ID, REMARK."""
    import copy

    def crs_part(crs):
        c2 = copy.deepcopy(crs)
        c2["usages"] = []
        return _crs_node(c2, "2019", own_id=True, ancestor_has_id=False)

    name = ("Inverse of " if c["reverse"] else "") + c["name"]
    parts = [q(name)]
    if c["version"]:
        parts.append(N("VERSION", q(c["version"])))
    parts.append(N("SOURCECRS", crs_part(s_crs)))
    parts.append(N("TARGETCRS", crs_part(t_crs)))
    mparts = [q(c["method_name"])]
    if c["method_id"] is not None:
        ma, mc = c["method_id"]
        if c["reverse"]:
            mparts = [q("Inverse of " + c["method_name"])]
            mparts.append(_id_node(f"INVERSE({ma})", mc))
        else:
            mparts.append(_id_node(ma, mc))
    parts.append(N("METHOD", *mparts))
    if c["kind"] == "ballpark":
        deg = {"kind": "angle", "name": "degree", "factor": _DEG,
               "auth": "EPSG", "code": "9102"}
        parts.append(N("PARAMETER", q("Latitude offset"), "0",
                       _unit_node(deg, with_id=False),
                       _id_node("EPSG", "8601")))
        parts.append(N("PARAMETER", q("Longitude offset"), "0",
                       _unit_node(deg, with_id=False),
                       _id_node("EPSG", "8602")))
    for pname, fname in c["files"]:
        parts.append(N("PARAMETERFILE", q(pname), q(fname)))
    if c["acc"] is not None:
        parts.append(N("OPERATIONACCURACY", str(c["acc"])))
    s, w, n, e = c["bbox"]
    parts.append(N("USAGE",
                   N("SCOPE", q(c["scope"])),
                   N("AREA", q(c["area"])),
                   N("BBOX", _g(s), _g(w), _g(n), _g(e))))
    if c["kind"] != "ballpark":
        prefix = f"DERIVED_FROM({c['auth']})" if c["derived"] else c["auth"]
        if c["reverse"]:
            prefix = f"INVERSE({prefix})"
        parts.append(_id_node(prefix, c["code"]))
    if c["remark"]:
        parts.append(N("REMARK", q(c["remark"])))
    return render(N("COORDINATEOPERATION", *parts), single=single)


# ------------------------------------- hub-chain composition helpers

def _datum_family(auth: str, code: str):
    """(datum auth/code, crs kind) for a geodetic CRS code."""
    row = _one(
        "SELECT datum_auth_name, datum_code, type FROM geodetic_crs "
        "WHERE auth_name=? AND code=?", auth, code)
    if row is None:
        return None
    return (row[0], row[1]), row[2]


def _crs_brief(auth: str, code: str):
    row = _one("SELECT name, type FROM geodetic_crs "
               "WHERE auth_name=? AND code=?", auth, code)
    return row


def _conv_leg(name: str, from_kind: str, to_kind: str) -> str:
    def tag(kind: str) -> str:
        return "geocentric" if kind == "geocentric" else "geog2D"

    return (f"Conversion from {name} ({tag(from_kind)}) "
            f"to {name} ({tag(to_kind)})")


def _hub_chains(s_crs: dict, t_crs: dict, rows, superseded,
                tblname, grid_check: str | None = None) -> list[dict]:
    """Two-leg chains s→pivot→t over the transformation rows. Each leg
    may sit at geographic or geocentric level of its datum family;
    conversion legs appear in the display name at level changes
    (coordinateoperation.cpp createOperationsWithDatumPivot)."""
    s_datum = (s_crs["datum"]["auth"], s_crs["datum"]["code"])
    t_datum = (t_crs["datum"]["auth"], t_crs["datum"]["code"])
    fam_cache: dict = {}

    def fam(auth, code):
        key = (auth, code)
        if key not in fam_cache:
            fam_cache[key] = _datum_family(auth, code)
        return fam_cache[key]

    # collect usable op records keyed by their endpoint datum pairs
    ops = []
    for (k, auth, code, name, acc, sa, sc, ta, tc, ma, mc, mname,
         p1name, g1, p2name, g2, version, remark) in rows:
        if auth not in ("EPSG", "PROJ"):
            continue
        if (tblname[k], auth, code) in superseded:
            continue
        f_s, f_t = fam(sa, sc), fam(ta, tc)
        if f_s is None or f_t is None:
            continue
        known = True
        if k == "grid":
            alt = _one(
                "SELECT 1 FROM grid_alternatives WHERE original_grid_name=? "
                "OR old_proj_grid_name=?", g1, g1)
            known = alt is not None or (g1 or "").endswith(".tif")
        if k == "helmert" and mc in _UNSUPPORTED_HELMERT_METHODS:
            continue
        ops.append({
            "tbl": k, "auth": auth, "code": code, "name": name,
            "acc": acc, "s_datum": f_s[0], "t_datum": f_t[0],
            "s_kind": f_s[1], "t_kind": f_t[1],
            "s_crs": (sa, sc), "t_crs": (ta, tc), "known": known,
        })

    def usage_of(o):
        return _usages(tblname[o["tbl"]], o["auth"], o["code"])

    def leg(o, forward: bool):
        nm = o["name"] if forward else "Inverse of " + o["name"]
        lo_kind = o["s_kind"] if forward else o["t_kind"]
        hi_kind = o["t_kind"] if forward else o["s_kind"]
        return nm, lo_kind, hi_kind

    chains = []
    for o1 in ops:
        for o1_fwd in (True, False):
            d_from = o1["s_datum"] if o1_fwd else o1["t_datum"]
            d_hub = o1["t_datum"] if o1_fwd else o1["s_datum"]
            if d_from != s_datum or d_hub in (s_datum, t_datum):
                continue
            for o2 in ops:
                for o2_fwd in (True, False):
                    if (o2["s_datum"] if o2_fwd else o2["t_datum"]) \
                            != d_hub:
                        continue
                    if (o2["t_datum"] if o2_fwd else o2["s_datum"]) \
                            != t_datum:
                        continue
                    u1, u2 = usage_of(o1), usage_of(o2)
                    if not u1 or not u2:
                        continue
                    b1, b2 = u1[0]["bbox"], u2[0]["bbox"]
                    if not _bbox_intersects(b1, b2):
                        continue
                    if _bbox_contains(b2, b1):
                        bbox, area, scope = b1, u1[0]["area"], \
                            u1[0]["scope"]
                    elif _bbox_contains(b1, b2):
                        bbox, area, scope = b2, u2[0]["area"], \
                            u2[0]["scope"]
                    else:
                        bbox = _bbox_intersection(b1, b2)
                        area, scope = u1[0]["area"], u1[0]["scope"]
                    n1, lo1, hi1 = leg(o1, o1_fwd)
                    n2, lo2, hi2 = leg(o2, o2_fwd)
                    pieces = []
                    if lo1 == "geocentric":
                        pieces.append(_conv_leg(
                            s_crs["name"], "geographic 2D", "geocentric"))
                    pieces.append(n1)
                    if hi1 != lo2:
                        hub_name = _crs_brief(
                            *(o2["s_crs"] if o2_fwd else o2["t_crs"]))
                        pieces.append(_conv_leg(
                            hub_name[0], hi1, lo2))
                    pieces.append(n2)
                    if hi2 == "geocentric":
                        pieces.append(_conv_leg(
                            t_crs["name"], "geocentric", "geographic 2D"))
                    acc = (o1["acc"] + o2["acc"]
                           if o1["acc"] is not None
                           and o2["acc"] is not None else None)
                    chains.append({
                        "kind": "chain", "auth": None, "code": None,
                        "name": " + ".join(pieces), "acc": acc,
                        "reverse": False, "derived": False,
                        "method_name": None, "method_id": None,
                        "files": [], "version": None, "remark": None,
                        "scope": scope, "area": area, "bbox": bbox,
                        "exportable": True,
                        "known": o1["known"] and o2["known"],
                        "available": grid_check == "none" or
                        (o1["tbl"] != "grid" and o2["tbl"] != "grid"),
                        "approx": False,
                    })
    return chains


# ----------------------------- lenient WKT1 GEOGCS import describe

_WKT1_DATUM_RENAME = {
    # io.cpp WKT1 import: underscore datum names back to EPSG names
    "WGS_1984": "World Geodetic System 1984",
    "World_Geodetic_System_1984": "World Geodetic System 1984",
    "North_American_Datum_1927": "North American Datum 1927",
    "North_American_Datum_1983": "North American Datum 1983",
}


def wkt1_geogcs_import(text: str):
    """Lenient import of a WKT1 GEOGCS (the reference's non-strict
    parser path): missing PRIMEM defaults to the Greenwich constant
    (with its EPSG id), SPHEROID without a unit defaults to the metre
    constant (id 9001), parsed units carry no ids, axes default to the
    WKT1 longitude/latitude order. Returns (warnings, crs_dict) or
    None. Warning texts mirror projinfo's non-compliant-WKT1 output
    (strict-grammar simulation with the 40-char context + caret)."""
    from ..core.wkt import parse_wkt

    try:
        root = parse_wkt(text)
    except Exception:
        return None
    if root.keyword != "GEOGCS":
        return None
    datum = root.find("DATUM")
    sph = datum.find("SPHEROID", "ELLIPSOID") if datum else None
    if datum is None or sph is None or len(sph.args) < 3:
        return None
    if root.find("PRIMEM") is not None or root.find("TOWGS84") is not None:
        # compliant WKT1 (with PM/TOWGS84) keeps the proj-string
        # describe path, which carries +pm/+towgs84 through
        return None
    warnings = []
    crs_unit = root.find("UNIT")
    if root.find("PRIMEM") is None:
        warnings.append("Warning: GEOGCS should have a PRIMEM node")
        # strict-grammar simulation: the token that appears where
        # PRIMEM was expected (right after the DATUM node)
        dstart = text.find("DATUM")
        depth, pos = 0, dstart
        while pos < len(text):
            if text[pos] == "[":
                depth += 1
            elif text[pos] == "]":
                depth -= 1
                if depth == 0:
                    pos += 1
                    break
            pos += 1
        while pos < len(text) and text[pos] in ", ":
            pos += 1
        m2 = re.match(r"[A-Za-z_][A-Za-z_0-9]*", text[pos:])
        tok = m2.group(0) if m2 else "end of input"
        warnings.append(
            f"Warning: Parsing error : syntax error, unexpected {tok}, "
            "expecting PRIMEM. Error occurred around:")
        ctx_start = max(0, pos - 40)
        warnings.append(text[ctx_start:pos + 40])
        warnings.append(" " * (pos - ctx_start) + "^")
    d_name_in = str(datum.args[0]) if datum.args else "unknown"
    d_name = _WKT1_DATUM_RENAME.get(d_name_in,
                                    d_name_in.replace("_", " "))
    drow = _one("SELECT auth_name, code FROM geodetic_datum "
                "WHERE name=? OR name=?", d_name, d_name + " ensemble")
    metre = dict(_unit("EPSG", "9001"))
    metre["emit_id"] = True  # defaulted constant keeps its id
    a = float(sph.args[1])
    rf = float(sph.args[2])
    deg_val = (crs_unit.args[1] if crs_unit and len(crs_unit.args) > 1
               else _DEG)
    deg = {"auth": "EPSG", "code": "", "name":
           str(crs_unit.args[0]) if crs_unit and crs_unit.args
           else "degree", "factor": float(deg_val), "kind": "angle"}
    pm = {"auth": "EPSG", "code": "8901", "name": "Greenwich",
          "value": 0.0, "lon_deg": 0.0, "emit_id": True,
          "unit": {"auth": "EPSG", "code": "9122", "name": "degree",
                   "factor": _DEG, "kind": "angle"}}
    crs = {
        "kind": "geographic", "geog_type": "geographic 2D",
        "name": str(root.args[0]) if root.args else "unknown",
        "datum": {
            "auth": drow[0] if drow else "EPSG",
            "code": drow[1] if drow else "",
            "name": d_name,
            "ellipsoid": {"auth": "EPSG", "code": "", "name":
                          str(sph.args[0]), "a": a, "rf": rf,
                          "unit": metre},
            "pm": pm,
        },
        "cs": {"type": "ellipsoidal", "dim": 2, "axes": [
            {"name": "Longitude", "abbrev": "", "orientation": "east",
             "unit": deg, "order": 1},
            {"name": "Latitude", "abbrev": "", "orientation": "north",
             "unit": deg, "order": 2},
        ]},
        "usages": [],
    }
    return warnings, crs


def text_definition(auth: str, code: str) -> str | None:
    """Stored WKT text_definition for a projected CRS with no
    relational conversion reference (ESRI world series), else None."""
    row = _one(
        "SELECT text_definition FROM projected_crs "
        "WHERE auth_name=? AND code=? AND text_definition IS NOT NULL",
        auth, code)
    return str(row[0]) if row else None

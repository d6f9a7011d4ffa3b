"""WKT2:2019 emission (rayproj/core/wkt.py vs the WKTFormatter surface
of reference src/iso19111/io.cpp for proj-string-expressible CRSs)."""

import numpy as np
import pytest

from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, Coords
from rayproj.core.wkt import pretty, to_wkt2
from rayproj.state import projdb

needs_registry = pytest.mark.skipif(
    not projdb.available(), reason="EPSG SQL scripts not available")


def test_geogcrs_wgs84_plain():
    wkt = to_wkt2(create_operation("+proj=longlat +datum=WGS84"))
    assert wkt.startswith('GEOGCRS["unknown"')
    assert 'DATUM["World Geodetic System 1984"' in wkt
    assert 'ELLIPSOID["WGS 84",6378137,298.257223563' in wkt
    # zero towgs84 must NOT produce a BOUNDCRS wrapper
    assert "BOUNDCRS" not in wkt
    assert 'AXIS["geodetic latitude (Lat)",north,ORDER[1]' in wkt


def test_projcrs_utm():
    from rayproj.cli import _expand_crs_tokens

    defn = " ".join(_expand_crs_tokens(["EPSG:32632"]))
    wkt = to_wkt2(create_operation(defn))
    assert 'METHOD["Transverse Mercator"]' in wkt
    assert 'PARAMETER["Longitude of natural origin",9,' in wkt
    assert 'PARAMETER["Scale factor at natural origin",0.9996,' in wkt
    assert 'PARAMETER["False easting",500000,' in wkt
    assert "CS[Cartesian,2]" in wkt


def test_boundcrs_towgs84_seven_param():
    wkt = to_wkt2(
        create_operation(
            "+proj=longlat +ellps=bessel "
            "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7"
        )
    )
    assert wkt.startswith("BOUNDCRS[")
    assert 'METHOD["Position Vector transformation (geog2D domain)"]' in wkt
    assert 'PARAMETER["X-axis translation",598.1]' in wkt
    assert 'PARAMETER["Scale difference",6.7]' in wkt
    assert 'ELLIPSOID["bessel",6377397.155,299.1528128' in wkt


def test_lcc_method_mapping():
    wkt = to_wkt2(
        create_operation(
            "+proj=lcc +lat_1=33 +lat_2=45 +lat_0=39 +lon_0=-96 "
            "+ellps=GRS80"
        )
    )
    assert 'METHOD["Lambert Conic Conformal (2SP)"]' in wkt
    assert 'PARAMETER["Latitude of 1st standard parallel",33,' in wkt
    assert 'PARAMETER["Latitude of 2nd standard parallel",45,' in wkt
    assert 'ELLIPSOID["GRS 1980"' in wkt


def test_unmappable_op_escape_hatch():
    # io.cpp exports non-CRS-mappable operations as a PROJ-based method
    wkt = to_wkt2(create_operation("+proj=eck4 +ellps=WGS84"))
    assert "PROJ-based operation method:" in wkt
    assert "+proj=eck4" in wkt


def _fwd_xy(defn, lam_deg=9.5, phi_deg=45.0):
    import numpy as np

    from rayproj.core.op import Coords

    op = create_operation(defn)
    c = Coords(
        np.radians(np.array([lam_deg])), np.radians(np.array([phi_deg]))
    )
    op.fwd(c)
    return c.x[0], c.y[0]


def test_from_wkt_roundtrip_projected():
    import math

    from rayproj.core.wkt import from_wkt

    for defn in [
        "+proj=tmerc +lat_0=0 +lon_0=9 +k_0=0.9996 +x_0=500000 +ellps=WGS84",
        "+proj=lcc +lat_1=33 +lat_2=45 +lat_0=39 +lon_0=-96 +ellps=GRS80",
        "+proj=aea +lat_1=29.5 +lat_2=45.5 +lat_0=23 +lon_0=-96 +ellps=GRS80",
        "+proj=stere +lat_ts=-71 +lat_0=-90 +lon_0=0 +ellps=WGS84",
        # polar variant A (k_0, no lat_ts) and a POSITIVE-lat_ts south
        # pole: hemisphere + scale must survive the method mapping
        "+proj=stere +lat_0=-90 +k_0=0.994 +ellps=WGS84",
        "+proj=stere +lat_0=-90 +lat_ts=71 +ellps=WGS84",
        "+proj=merc +lat_ts=30 +ellps=WGS84",
        "+proj=merc +k_0=0.5 +ellps=WGS84",  # variant A carries k_0
        "+proj=tmerc +lon_0=0 +pm=paris +ellps=GRS80",  # prime meridian
        "+proj=eck4 +ellps=WGS84",  # escape-hatch method embeds proj-string
    ]:
        back = from_wkt(to_wkt2(create_operation(defn)))
        x1, y1 = _fwd_xy(defn)
        x2, y2 = _fwd_xy(back)
        assert math.isclose(x1, x2, rel_tol=1e-12, abs_tol=1e-9), defn
        assert math.isclose(y1, y2, rel_tol=1e-12, abs_tol=1e-9), defn


def test_from_wkt_boundcrs_towgs84():
    from rayproj.core.wkt import from_wkt

    defn = (
        "+proj=longlat +ellps=bessel "
        "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7"
    )
    back = from_wkt(to_wkt2(create_operation(defn)))
    assert "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7" in back
    assert "+ellps=bessel" in back


def test_from_wkt1_gdal_style():
    import math

    from rayproj.core.wkt import from_wkt

    # WKT1 (OGC 01-009 / GDAL): PROJCS/GEOGCS/SPHEROID/TOWGS84,
    # underscore projection + parameter names, units via GEOGCS UNIT
    wkt1 = (
        'PROJCS["OSGB 1936 / British National Grid",'
        'GEOGCS["OSGB 1936",DATUM["OSGB_1936",'
        'SPHEROID["Airy 1830",6377563.396,299.3249646],'
        "TOWGS84[446.448,-125.157,542.06,0.15,0.247,0.842,-20.489]],"
        'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
        'PROJECTION["Transverse_Mercator"],'
        'PARAMETER["latitude_of_origin",49],'
        'PARAMETER["central_meridian",-2],'
        'PARAMETER["scale_factor",0.9996012717],'
        'PARAMETER["false_easting",400000],'
        'PARAMETER["false_northing",-100000],UNIT["metre",1]]'
    )
    back = from_wkt(wkt1)
    ref = (
        "+proj=tmerc +lat_0=49 +lon_0=-2 +k_0=0.9996012717 "
        "+x_0=400000 +y_0=-100000 +ellps=airy "
        "+towgs84=446.448,-125.157,542.06,0.15,0.247,0.842,-20.489"
    )
    x1, y1 = _fwd_xy(back, -0.1276, 51.5072)
    x2, y2 = _fwd_xy(ref, -0.1276, 51.5072)
    assert math.isclose(x1, x2, abs_tol=1e-6)
    assert math.isclose(y1, y2, abs_tol=1e-6)


@needs_registry
def test_cli_accepts_wkt(capsys):
    from rayproj import cli

    wkt = to_wkt2(
        create_operation(
            "+proj=tmerc +lat_0=0 +lon_0=9 +k_0=0.9996 "
            "+x_0=500000 +datum=WGS84"
        )
    )
    rc = cli.main(["projinfo", wkt])
    assert rc == 0
    outp = capsys.readouterr().out
    # the WKT re-imports through the db-describe path: UTM-shaped tmerc
    # parameters collapse to +proj=utm (reference exportToPROJString)
    assert "PROJ.4 string:" in outp
    assert "+proj=utm +zone=32 +datum=WGS84" in outp


def test_projjson_projected():
    from rayproj.core.wkt import to_projjson

    d = to_projjson(
        create_operation(
            "+proj=tmerc +lat_0=0 +lon_0=9 +k_0=0.9996 "
            "+x_0=500000 +ellps=WGS84"
        )
    )
    assert d["type"] == "ProjectedCRS"
    assert d["conversion"]["method"]["name"] == "Transverse Mercator"
    params = {p["name"]: p["value"] for p in d["conversion"]["parameters"]}
    assert params["Longitude of natural origin"] == 9
    assert params["False easting"] == 500000
    assert d["base_crs"]["datum"]["ellipsoid"]["semi_major_axis"] == 6378137


def test_projjson_boundcrs():
    from rayproj.core.wkt import to_projjson

    d = to_projjson(
        create_operation("+proj=longlat +ellps=bessel +towgs84=1,2,3")
    )
    assert d["type"] == "BoundCRS"
    assert d["source_crs"]["type"] == "GeographicCRS"
    vals = [p["value"] for p in d["transformation"]["parameters"]]
    assert vals == [1, 2, 3, 0, 0, 0, 0]


def test_pretty_roundtrip_structure():
    wkt = to_wkt2(create_operation("+proj=longlat +datum=WGS84"))
    p = pretty(wkt)
    # pretty only inserts newlines/indentation; stripping recovers input
    assert "".join(line.strip() for line in p.splitlines()) == wkt
    assert p.splitlines()[1].startswith("    DATUM[")


# --- PROJJSON input (io.cpp:4905 JSONParser direction) ---------------------


def _roundtrip_projjson(defn: str, atol: float = 1e-9):
    import json

    import numpy as np

    from rayproj.core.op import FWD, Coords
    from rayproj.core.wkt import from_projjson, to_projjson

    op1 = create_operation(defn)
    doc = to_projjson(op1)
    op2 = create_operation(from_projjson(json.dumps(doc)))
    lam = np.radians(np.array([8.0, 9.5, 11.2]))
    phi = np.radians(np.array([47.0, 52.3, 60.1]))
    if op1.is_latlong:
        return op1, op2
    c1 = Coords(lam.copy(), phi.copy())
    c2 = Coords(lam.copy(), phi.copy())
    op1.trans(FWD, c1)
    op2.trans(FWD, c2)
    np.testing.assert_allclose(c2.x, c1.x, rtol=0, atol=atol)
    np.testing.assert_allclose(c2.y, c1.y, rtol=0, atol=atol)
    return op1, op2


def test_from_projjson_roundtrip_utm():
    op1, op2 = _roundtrip_projjson("+proj=utm +zone=32 +ellps=GRS80")
    assert op2.name == "tmerc"


def test_from_projjson_roundtrip_lcc():
    _roundtrip_projjson(
        "+proj=lcc +lat_1=33 +lat_2=45 +lat_0=39 +lon_0=-96 +ellps=GRS80"
    )


def test_from_projjson_roundtrip_escape_hatch():
    _roundtrip_projjson("+proj=eck4 +ellps=WGS84")


def test_from_projjson_roundtrip_variants_and_pm():
    # polar stere variant A keeps hemisphere + k_0; a positive-lat_ts
    # south pole keeps the hemisphere; Mercator variant A keeps k_0;
    # a non-Greenwich prime meridian survives inside the datum object
    _roundtrip_projjson("+proj=stere +lat_0=-90 +k_0=0.994 +ellps=WGS84")
    _roundtrip_projjson("+proj=stere +lat_0=-90 +lat_ts=71 +ellps=WGS84")
    _roundtrip_projjson("+proj=merc +k_0=0.5 +ellps=WGS84")
    # the Paris offset is a repeating decimal: the 1e-12-degree emit
    # rounding leaves ~2.5e-8 m, far below geodetic significance
    _roundtrip_projjson("+proj=tmerc +lon_0=0 +pm=paris +ellps=GRS80",
                        atol=1e-6)


def test_from_projjson_boundcrs_towgs84():
    import json

    from rayproj.core.wkt import from_projjson, to_projjson

    op1 = create_operation(
        "+proj=longlat +ellps=bessel "
        "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7"
    )
    ps = from_projjson(json.dumps(to_projjson(op1)))
    assert "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7" in ps
    assert "+ellps=bessel" in ps


def test_from_projjson_geographic_datum():
    import json

    from rayproj.core.wkt import from_projjson, to_projjson

    ps = from_projjson(json.dumps(to_projjson(
        create_operation("+proj=longlat +datum=WGS84"))))
    assert "+proj=longlat" in ps and "+datum=WGS84" in ps


def test_cli_accepts_projjson(capsys):
    import json

    from rayproj.cli import _normalize_defn
    from rayproj.core.wkt import to_projjson

    doc = to_projjson(create_operation("+proj=merc +ellps=WGS84"))
    ps = _normalize_defn(json.dumps(doc))
    op = create_operation(ps)
    assert op.name == "merc"


# --- ESRI WKT dialect input (io.cpp:142 useESRIDialect_, :333 WKT1_ESRI,
#     :1592/:2105 esriStyle_ detection) ---------------------------------


ESRI_GEOGCS_WGS84 = (
    'GEOGCS["GCS_WGS_1984",DATUM["D_WGS_1984",'
    'SPHEROID["WGS_1984",6378137.0,298.257223563]],'
    'PRIMEM["Greenwich",0.0],UNIT["Degree",0.0174532925199433]]'
)

ESRI_WEBMERC = (
    'PROJCS["WGS_1984_Web_Mercator_Auxiliary_Sphere",'
    + ESRI_GEOGCS_WGS84 +
    ',PROJECTION["Mercator_Auxiliary_Sphere"],'
    'PARAMETER["False_Easting",0.0],PARAMETER["False_Northing",0.0],'
    'PARAMETER["Central_Meridian",0.0],PARAMETER["Standard_Parallel_1",0.0],'
    'PARAMETER["Auxiliary_Sphere_Type",0.0],UNIT["Meter",1.0]]'
)

ESRI_UTM32 = (
    'PROJCS["WGS_1984_UTM_Zone_32N",'
    + ESRI_GEOGCS_WGS84 +
    ',PROJECTION["Transverse_Mercator"],'
    'PARAMETER["False_Easting",500000.0],PARAMETER["False_Northing",0.0],'
    'PARAMETER["Central_Meridian",9.0],PARAMETER["Scale_Factor",0.9996],'
    'PARAMETER["Latitude_Of_Origin",0.0],UNIT["Meter",1.0]]'
)


def _same_fwd(op1, op2, atol=1e-9):
    import numpy as np

    from rayproj.core.op import FWD, Coords

    lam = np.radians(np.array([7.9, 9.1, 10.4]))
    phi = np.radians(np.array([46.5, 51.0, 59.2]))
    c1, c2 = Coords(lam.copy(), phi.copy()), Coords(lam.copy(), phi.copy())
    op1.trans(FWD, c1)
    op2.trans(FWD, c2)
    np.testing.assert_allclose(c2.x, c1.x, rtol=0, atol=atol)
    np.testing.assert_allclose(c2.y, c1.y, rtol=0, atol=atol)


def test_esri_geogcs_wgs84():
    from rayproj.core.wkt import from_wkt

    ps = from_wkt(ESRI_GEOGCS_WGS84)
    assert "+proj=longlat" in ps and "+datum=WGS84" in ps


def test_esri_webmerc_matches_epsg_twin():
    from rayproj.core.wkt import from_wkt

    op = create_operation(from_wkt(ESRI_WEBMERC))
    twin = create_operation("+proj=webmerc +datum=WGS84")
    assert op.name == "webmerc"
    _same_fwd(op, twin)


def test_esri_utm32_matches_epsg_twin():
    from rayproj.cli import _expand_crs_tokens
    from rayproj.core.wkt import from_wkt

    op = create_operation(from_wkt(ESRI_UTM32))
    twin = create_operation(" ".join(_expand_crs_tokens(["EPSG:32632"])))
    _same_fwd(op, twin)


def test_esri_lcc_2sp_disambiguation():
    from rayproj.core.wkt import from_wkt

    esri = (
        'PROJCS["NAD_1983_Texas_Centric_Lambert",'
        'GEOGCS["GCS_North_American_1983",DATUM["D_North_American_1983",'
        'SPHEROID["GRS_1980",6378137.0,298.257222101]],'
        'PRIMEM["Greenwich",0.0],UNIT["Degree",0.0174532925199433]],'
        'PROJECTION["Lambert_Conformal_Conic"],'
        'PARAMETER["False_Easting",1500000.0],'
        'PARAMETER["False_Northing",5000000.0],'
        'PARAMETER["Central_Meridian",-100.0],'
        'PARAMETER["Standard_Parallel_1",27.5],'
        'PARAMETER["Standard_Parallel_2",35.0],'
        'PARAMETER["Latitude_Of_Origin",18.0],UNIT["Meter",1.0]]'
    )
    op = create_operation(from_wkt(esri))
    twin = create_operation(
        "+proj=lcc +lat_1=27.5 +lat_2=35 +lat_0=18 +lon_0=-100 "
        "+x_0=1500000 +y_0=5000000 +datum=NAD83"
    )
    assert op.name == "lcc"
    _same_fwd(op, twin)


# ---------------------------------------------------------------------------
# WKT1 emission (round-4 verdict task 4): GDAL + ESRI conventions must
# round-trip through this module's own parser to the SAME resolved
# operation (verified by transforming points through both).
# ---------------------------------------------------------------------------

_WKT1_DEFS = [
    # (proj-string, esri_lossless) — ESRI WKT has no TOWGS84 concept,
    # so Helmert-carrying CRSs are GDAL-only round-trips
    ("+proj=longlat +ellps=GRS80", True),
    ("+proj=longlat +datum=WGS84", True),
    ("+proj=longlat +ellps=bessel +towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7", False),
    ("+proj=merc +ellps=GRS80 +lat_ts=10 +lon_0=5 +x_0=100 +y_0=200", True),
    ("+proj=tmerc +ellps=GRS80 +lat_0=1 +lon_0=9 +k_0=0.9996 +x_0=500000", True),
    ("+proj=utm +zone=31 +ellps=GRS80", True),
    ("+proj=webmerc +ellps=WGS84", True),
    ("+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 +x_0=700000 +y_0=6600000 +ellps=GRS80", True),
    ("+proj=aea +lat_0=23 +lon_0=-96 +lat_1=29.5 +lat_2=45.5 +ellps=GRS80", True),
    ("+proj=laea +lat_0=52 +lon_0=10 +x_0=4321000 +y_0=3210000 +ellps=GRS80", True),
    ("+proj=cea +lat_ts=30 +lon_0=0 +ellps=WGS84", True),
    ("+proj=eqc +lat_ts=30 +lon_0=10 +ellps=WGS84", True),
    ("+proj=stere +lat_0=90 +lat_ts=70 +lon_0=-45 +ellps=GRS80", True),
    ("+proj=stere +lat_0=52.15 +lon_0=5.38 +k_0=0.9999 +x_0=155000 +y_0=463000 +ellps=bessel", True),
    # polar stere variant A (no lat_ts): hemisphere + k_0 must survive
    ("+proj=stere +lat_0=-90 +k_0=0.994 +ellps=WGS84", True),
    # south-pole variant B with POSITIVE lat_ts: hemisphere from lat_0
    ("+proj=stere +lat_0=-90 +lat_ts=71 +ellps=WGS84", True),
    ("+proj=stere +lat_0=-90 +lat_ts=-71 +lon_0=70 +ellps=WGS84", True),
    # Mercator variant A with k_0: GDAL Mercator_1SP + scale_factor
    # (ESRI has no scale-factor Mercator: takes the escape hatch)
    ("+proj=merc +k_0=0.5 +ellps=WGS84", True),
    # non-Greenwich prime meridian: PRIMEM must carry the offset
    ("+proj=tmerc +lon_0=0 +pm=paris +ellps=GRS80", True),
    ("+proj=longlat +pm=paris +ellps=GRS80", True),
    # explicit all-zero towgs84 pins the datum to WGS84 — must emit
    # TOWGS84[0,0,0,0,0,0,0] (GDAL convention), not drop the node
    ("+proj=longlat +ellps=bessel +towgs84=0,0,0", False),
    # non-WKT1-spellable method: must take the EXTENSION["PROJ4"] path
    ("+proj=sinu +lon_0=10 +ellps=GRS80", True),
]


@pytest.mark.parametrize("defn,esri_ok", _WKT1_DEFS)
def test_wkt1_roundtrip(defn, esri_ok):
    from rayproj.core.wkt import from_wkt, to_wkt1

    lon = np.radians(np.array([5.5, 11.2, -44.0]))
    lat = np.radians(np.array([50.1, 20.2, 71.5]))
    op = create_operation(defn)
    for esri in (False, True):
        if esri and not esri_ok:
            continue
        w1 = to_wkt1(op, esri=esri)
        head = w1[:7]
        assert head in ("GEOGCS[", "PROJCS[")
        op2 = create_operation(from_wkt(w1))
        c1 = Coords(lon.copy(), lat.copy())
        op.trans(FWD, c1)
        c2 = Coords(lon.copy(), lat.copy())
        op2.trans(FWD, c2)
        np.testing.assert_allclose(c1.x, c2.x, rtol=0, atol=1e-6)
        np.testing.assert_allclose(c1.y, c2.y, rtol=0, atol=1e-6)


def test_wkt1_gdal_towgs84_node():
    from rayproj.core.wkt import to_wkt1

    op = create_operation(
        "+proj=longlat +ellps=bessel +towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7"
    )
    w1 = to_wkt1(op)
    assert "TOWGS84[598.1,73.7,418.2,0.202,0.045,-2.455,6.7]" in w1
    # ESRI WKT1 has no TOWGS84 concept
    assert "TOWGS84" not in to_wkt1(op, esri=True)


def test_wkt1_explicit_zero_towgs84_pins_datum():
    """+towgs84=0,0,0 pinned explicitly asserts identity with WGS84 and
    must survive the round-trip (it changes cs2cs datum-hop planning);
    an all-zero towgs84 implied by a NAMED datum stays implicit."""
    from rayproj.core.wkt import from_wkt, to_wkt1, to_wkt2

    op = create_operation("+proj=longlat +ellps=bessel +towgs84=0,0,0")
    w1 = to_wkt1(op)
    assert "TOWGS84[0,0,0,0,0,0,0]" in w1
    assert "+towgs84=0,0,0,0,0,0,0" in from_wkt(w1)
    w2 = to_wkt2(op)
    assert w2.startswith("BOUNDCRS")
    assert "+towgs84=0,0,0,0,0,0,0" in from_wkt(w2)
    # named datum: the zero towgs84 is implied by the datum name
    named = create_operation("+proj=longlat +datum=WGS84")
    assert "TOWGS84" not in to_wkt1(named)
    assert to_wkt2(named).startswith("GEOGCRS")


def test_wkt1_primem_non_greenwich():
    """+pm survives WKT1/WKT2 emission (a dropped Paris meridian is a
    ~175 km error after round-trip)."""
    from rayproj.core.wkt import to_wkt1, to_wkt2

    op = create_operation("+proj=longlat +pm=paris +ellps=GRS80")
    assert 'PRIMEM["Paris",2.337229166667' in to_wkt1(op)
    assert 'PRIMEM["Paris",2.337229166667' in to_wkt2(op)
    plain = create_operation("+proj=longlat +ellps=GRS80")
    assert 'PRIMEM["Greenwich",0' in to_wkt1(plain)


def test_wkt1_esri_conventions():
    from rayproj.core.wkt import to_wkt1

    w1 = to_wkt1(create_operation("+proj=webmerc +datum=WGS84"), esri=True)
    assert 'GEOGCS["GCS_unknown"' in w1
    assert 'DATUM["D_WGS_1984"' in w1
    assert 'PROJECTION["Mercator_Auxiliary_Sphere"]' in w1
    assert 'PARAMETER["Auxiliary_Sphere_Type",0]' in w1


def test_wkt1_extension_proj4_import_precedence():
    from rayproj.core.wkt import from_wkt

    # EXTENSION["PROJ4", ...] wins over the lossy PROJECTION rendering
    w1 = (
        'PROJCS["unknown",GEOGCS["unknown",DATUM["unknown",'
        'SPHEROID["GRS 1980",6378137,298.257222101]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],PROJECTION["custom_proj4"],'
        'UNIT["metre",1],EXTENSION["PROJ4","+proj=sinu +lon_0=10 '
        '+ellps=GRS80 +wktext"]]'
    )
    assert "+proj=sinu" in from_wkt(w1)
    assert "+lon_0=10" in from_wkt(w1)


def test_malformed_method_name_fails_cleanly():
    from rayproj.core.wkt import from_wkt

    # a METHOD whose name lost its quotes parses as a number; that must
    # be a clean ValueError, not an internal AttributeError (the same
    # contract the fuzz suite enforces for PARAMETER/ELLIPSOID)
    w = ('PROJCRS["x",BASEGEOGCRS["g",DATUM["d",ELLIPSOID["WGS 84",'
         '6378137,298.257223563]]],CONVERSION["c",METHOD[0,'
         '"Transverse Mercator"]],CS[Cartesian,2]]')
    with pytest.raises(ValueError, match="METHOD/PROJECTION name"):
        from_wkt(w)


def test_unquoted_parameter_name_raises_not_skips():
    from rayproj.core.wkt import from_wkt

    # PARAMETER[500000,...] (name unquoted -> float) must raise rather
    # than be dropped: silently omitting +x_0 would shift results 500 km
    w = ('PROJCRS["x",BASEGEOGCRS["g",DATUM["d",ELLIPSOID["WGS 84",'
         '6378137,298.257223563]]],CONVERSION["c",METHOD['
         '"Transverse Mercator"],PARAMETER[500000,16]],CS[Cartesian,2]]')
    with pytest.raises(ValueError, match="PARAMETER node has no string"):
        from_wkt(w)


def test_wkt1_world_methods_roundtrip():
    """The ESRI/GDAL world-projection WKT1 names (Eckert family, Gall,
    Wagner, Natural Earth, Equal Earth, Van der Grinten with its
    implied R_A authalic sphere, Goode/IGH, loximuthal, Winkel Tripel)
    emit and re-import to the numerically identical operation; forms
    with no name in a dialect (eqearth in GDAL, bare-ellipsoidal vandg)
    round-trip through the PROJ4-extension escape hatch."""
    import math

    import numpy as np

    from rayproj.core.factory import create_operation
    from rayproj.core.op import FWD, Coords
    from rayproj.core.wkt import from_wkt, to_wkt1

    ops = ["+proj=mill +lon_0=10 +x_0=100 +y_0=-50 +ellps=WGS84",
           "+proj=eck3 +lon_0=5 +R=6371000",
           "+proj=eqearth +lon_0=0 +ellps=WGS84",
           "+proj=vandg +R_A +lon_0=3 +ellps=WGS84",
           "+proj=vandg +lon_0=3 +ellps=WGS84",
           "+proj=loxim +lat_1=40 +lon_0=2 +R=6371000",
           "+proj=wintri +lat_1=50.467 +lon_0=1 +R=6371000",
           "+proj=igh +lon_0=0 +R=6371000",
           "+proj=goode +lon_0=0 +R=6371000",
           "+proj=qua_aut +lon_0=7 +R=6371000",
           "+proj=natearth +lon_0=0 +ellps=WGS84"]
    lam = np.array([math.radians(12.0)])
    phi = np.array([math.radians(47.0)])
    for s in ops:
        op = create_operation(s)
        for esri in (False, True):
            op2 = create_operation(from_wkt(to_wkt1(op, esri=esri)))
            c1 = Coords(lam.copy(), phi.copy())
            op.trans(FWD, c1)
            c2 = Coords(lam.copy(), phi.copy())
            op2.trans(FWD, c2)
            assert abs(c1.x[0] - c2.x[0]) < 1e-6, (s, esri)
            assert abs(c1.y[0] - c2.y[0]) < 1e-6, (s, esri)


VERT_CS_EGM96 = (
    'VERT_CS["EGM96 height",'
    'VERT_DATUM["EGM96 geoid",2005,AUTHORITY["EPSG","5171"]],'
    'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
    'AXIS["Gravity-related height",UP],AUTHORITY["EPSG","5773"]]')

COMPD_CS_WGS84_EGM96 = (
    'COMPD_CS["WGS 84 + EGM96 height",'
    'GEOGCS["WGS 84",DATUM["WGS_1984",'
    'SPHEROID["WGS 84",6378137,298.257223563]],'
    'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
    'VERT_CS["EGM96 height",VERT_DATUM["EGM96 geoid",2005],'
    'UNIT["metre",1],AXIS["Gravity-related height",UP]]]')


@needs_registry
def test_vert_cs_import_and_proj4():
    """VERT_CS WKT1 import builds a vertical CRS whose PROJ export is
    the bare vertical unit (reference crs.cpp
    VerticalCRS::_exportToPROJString: +vunits only; +geoidgrids is a
    BoundCRS concern)."""
    from rayproj.state import dbcrs, wktcrs

    out = wktcrs.wkt_import(VERT_CS_EGM96)
    assert out is not None
    _, crs = out
    assert crs["kind"] == "vertical"
    assert (crs["auth"], crs["code"]) == ("EPSG", "5773")
    assert dbcrs.to_proj4(crs) == "+vunits=m +no_defs +type=crs"


@needs_registry
def test_vertcrs_wkt2_import_ft_unit():
    """WKT2 VERTCRS in US survey feet exports +vunits=us-ft."""
    from rayproj.state import dbcrs, wktcrs

    w = ('VERTCRS["NAVD88 height (ftUS)",'
         'VDATUM["North American Vertical Datum 1988"],'
         'CS[vertical,1],AXIS["gravity-related height (H)",up],'
         'LENGTHUNIT["US survey foot",0.304800609601219],'
         'ID["EPSG",6360]]')
    out = wktcrs.wkt_import(w)
    assert out is not None
    _, crs = out
    assert crs["kind"] == "vertical"
    assert dbcrs.to_proj4(crs) == "+vunits=us-ft +no_defs +type=crs"


@needs_registry
def test_compd_cs_import_and_proj4():
    """COMPD_CS concatenates the component PROJ exports (reference
    crs.cpp CompoundCRS::_exportToPROJString)."""
    from rayproj.state import dbcrs, wktcrs

    out = wktcrs.wkt_import(COMPD_CS_WGS84_EGM96)
    assert out is not None
    _, crs = out
    assert crs["kind"] == "compound"
    assert [c["kind"] for c in crs["components"]] == \
        ["geographic", "vertical"]
    assert dbcrs.to_proj4(crs) == \
        "+proj=longlat +datum=WGS84 +vunits=m +no_defs +type=crs"


@needs_registry
def test_projinfo_cli_vertical_and_compound(capsys):
    from rayproj import cli

    assert cli.main(["projinfo", VERT_CS_EGM96]) == 0
    out = capsys.readouterr().out
    assert "+vunits=m +no_defs +type=crs" in out
    assert 'VERTCRS["EGM96 height"' in out
    assert 'ID["EPSG",5773]' in out

    assert cli.main(["projinfo", COMPD_CS_WGS84_EGM96]) == 0
    out = capsys.readouterr().out
    assert "+proj=longlat +datum=WGS84 +vunits=m" in out
    assert 'COMPOUNDCRS["WGS 84 + EGM96 height"' in out
    assert 'VERTCRS["EGM96 height"' in out

"""EPSG database (proj.db) build + full-registry CRS resolution.

The db is built once from the reference's public data/sql scripts
(cached under /tmp); resolution is validated three ways: natural-origin
invariants taken straight from the EPSG parameterization, agreement
with the independently-derived static/formulaic catalog, and a random
sweep of the live registry."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rayproj.core.constants import DEG_TO_RAD
from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, INV, Coords
from rayproj.state import projdb

pytestmark = pytest.mark.requires_projdb


def _op(code, strip_towgs=False):
    pairs = projdb.resolve_epsg(code)
    if strip_towgs:
        pairs = [(k, v) for k, v in pairs if k != "towgs84"]
    return create_operation(
        " ".join(f"+{k}={v}" if v is not None else f"+{k}" for k, v in pairs)
    )


# (code, lon, lat, expected easting/northing): each point is the
# conversion's own natural/false origin, so the expectation comes from
# the EPSG parameters themselves, not from any other implementation
ORIGIN_CASES = [
    (2154, 3.0, 46.5, 700000.0, 6600000.0),      # RGF93 / Lambert-93 (9802)
    (27700, -2.0, 49.0, 400000.0, -100000.0),    # OSGB (9807)
    (32632, 9.0, 0.0, 500000.0, 0.0),            # UTM 32N
    (2056, 7.43958333333333, 46.9524055555556, 2600000.0, 1200000.0),  # somerc
    (5070, -96.0, 23.0, 0.0, 0.0),               # Conus Albers (9822)
    (28355, 147.0, 0.0, 500000.0, 10000000.0),   # GDA94 MGA55 south
    (3857, 0.0, 0.0, 0.0, 0.0),                  # webmerc (1024)
    (3116, -74.0775079167, 4.59620041667, 1000000.0, 1000000.0),  # Bogota
]


@pytest.mark.parametrize("code,lon,lat,ex,ey", ORIGIN_CASES)
def test_natural_origin_invariants(code, lon, lat, ex, ey):
    op = _op(code, strip_towgs=True)
    c = Coords(np.array([lon]) * DEG_TO_RAD, np.array([lat]) * DEG_TO_RAD)
    op.trans(FWD, c)
    assert abs(c.x[0] - ex) < 1e-3 and abs(c.y[0] - ey) < 1e-3, (
        code, float(c.x[0]), float(c.y[0]))


def test_agrees_with_formulaic_catalog():
    """db-resolved UTM codes must transform identically to the
    independent formulaic +init resolution (GIGS-validated path)."""
    rng = np.random.default_rng(3)
    lon = rng.uniform(6, 12, 500)
    lat = rng.uniform(-80, 84, 500)
    for code in (32632, 32732, 25832, 23032):
        op_db = _op(code)
        op_cat = create_operation(f"+init=epsg:{code}")
        c1 = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD)
        op_db.trans(FWD, c1)
        c2 = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD)
        op_cat.trans(FWD, c2)
        # ED50 towgs84 differs between the classic init table and the
        # accuracy-ranked EPSG pick; the projection itself must agree
        tol = 5.0 if code == 23032 else 1e-9
        assert np.nanmax(np.abs(c1.x - c2.x)) <= tol, code
        assert np.nanmax(np.abs(c1.y - c2.y)) <= tol, code


def test_load_init_fallback():
    """+init=epsg:NNNN outside the static catalog AND the formulaic
    families resolves via the db (3116 MAGNA-SIRGAS / Bogota zone)."""
    from rayproj.core.resources import load_init

    pairs = load_init("epsg:3116")
    d = dict(pairs)
    assert d["proj"] == "tmerc" and d["x_0"] == "1000000"
    op = create_operation("+init=epsg:3116")
    c = Coords(
        np.array([-74.0775079167]) * DEG_TO_RAD,
        np.array([4.59620041667]) * DEG_TO_RAD,
    )
    op.trans(FWD, c)
    assert abs(c.x[0] - 1000000.0) < 1e-3  # towgs84=0 for MAGNA-SIRGAS


def test_registry_sweep():
    """A random sample of the live registry resolves AND constructs."""
    con = projdb._db()
    codes = [
        r[0]
        for r in con.execute(
            "SELECT code FROM projected_crs WHERE auth_name='EPSG' "
            "AND deprecated=0 ORDER BY code"
        )
    ]
    rng = np.random.default_rng(11)
    sample = rng.choice(len(codes), size=250, replace=False)
    ok = 0
    for i in sample:
        try:
            pairs = projdb.resolve_epsg(codes[i])
            create_operation(
                " ".join(
                    f"+{k}={v}" if v is not None else f"+{k}" for k, v in pairs
                )
            )
            ok += 1
        except (KeyError, NotImplementedError):
            pass
    assert ok / len(sample) > 0.97, ok


def test_towgs84_conventions():
    """Candidates rank by usage-extent area first (the reference's
    no-AOI createOperations ordering), coordinate-frame rotations are
    negated to position-vector (ref transform.cpp towgs84 semantics),
    and 3-param transforms stay 3-term."""
    # ED50: the Europe-mean 3-param beats the more accurate regional
    # 7-param sets on extent — the classic proj.4 init value
    pairs = dict(projdb.resolve_epsg(4230))
    assert pairs["towgs84"] == "-87,-98,-121"
    # MGI: nationwide EPSG:1618 (577.326..., position-vector, kept
    # verbatim) beats Styria-only EPSG:1194 (testvarious #207)
    pairs = dict(projdb.resolve_epsg(4312))
    assert pairs["towgs84"] == "577.326,90.129,463.919,5.137,1.474,5.297,2.4232"
    # HD1909 (EPSG:3819): only 9607 coordinate-frame candidates exist —
    # raw rx=-4.115 arcsec must be emitted negated (position-vector)
    pairs = dict(projdb.resolve_epsg(3819))
    tw = [float(v) for v in pairs["towgs84"].split(",")]
    assert len(tw) == 7 and tw[3] == 4.115
    pairs_3 = dict(projdb.resolve_epsg(4218))  # Bogota 1975
    assert len(pairs_3["towgs84"].split(",")) in (3, 7)


def test_ignf_catalog():
    """+init=IGNF:LAMB93 resolves through the registry (the reference
    serves IGNF from the same proj.db, factory.cpp)."""
    from rayproj.core.resources import load_init

    d = dict(load_init("IGNF:LAMB93"))
    assert d["proj"] == "lcc" and d["x_0"] == "700000"
    op = create_operation("+init=IGNF:LAMB93")
    c = Coords(np.array([3.0]) * DEG_TO_RAD, np.array([46.5]) * DEG_TO_RAD)
    op.trans(FWD, c)
    assert abs(c.x[0] - 700000.0) < 1e-3 and abs(c.y[0] - 6600000.0) < 1e-3


def test_candidate_operations_listing(capsys):
    """projinfo -s/-t surfaces accuracy-ranked registry candidates."""
    ops = projdb.candidate_operations("EPSG", "4267", "EPSG", "4326")
    assert len(ops) > 20
    accs = [o["accuracy"] for o in ops if o["accuracy"] is not None]
    assert accs == sorted(accs)
    assert any(o.get("grid") for o in ops)  # NTv2/NADCON legs present

    from rayproj.cli import main

    # the CLI now prints the reference-parity candidate block
    assert main(["projinfo", "-s", "EPSG:4267", "-t", "EPSG:4326",
                 "--spatial-test", "intersects", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "Candidate operations found:" in out
    assert "NAD27 to WGS 84" in out


def test_routed_datum_operation():
    """Registry-driven per-point datum routing: NAD27→WGS84 picks a
    region-appropriate Helmert per point (bbox+accuracy selection),
    so CONUS / Canada / Mexico points get distinct shifts of sane
    NAD27 magnitude (tens of metres)."""
    from rayproj.state.projdb import routed_datum_operation

    op = routed_datum_operation("EPSG", "4267", "EPSG", "4326")
    lon = np.array([-98.0, -106.0, -99.0])
    lat = np.array([39.0, 52.0, 19.4])
    c = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD, np.zeros(3))
    op.trans(FWD, c)
    dlon = (c.x / DEG_TO_RAD - lon) * 3600.0
    dlat = (c.y / DEG_TO_RAD - lat) * 3600.0
    shifts = set(zip(np.round(dlon, 4), np.round(dlat, 4)))
    assert len(shifts) == 3  # different candidates per region
    mags = np.hypot(dlon * 30.0, dlat * 30.0)  # ~30 m per arcsec
    assert np.all(mags > 5) and np.all(mags < 150), mags


def test_create_crs_to_crs():
    """proj_create_crs_to_crs parity: direct registry datum step
    (routed, hub ends stripped), exact round-trip, same-datum equals
    the plain +init path."""
    from rayproj.core.op import INV
    from rayproj.state.projdb import create_crs_to_crs

    op = create_crs_to_crs("EPSG:4267", "EPSG:32614")  # NAD27 → WGS84 UTM14N
    lon, lat = np.array([-98.0]), np.array([39.0])
    c = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD, np.zeros(1))
    op.trans(FWD, c)
    x_shifted, y_shifted = float(c.x[0]), float(c.y[0])
    op.trans(INV, c)
    assert abs(c.x[0] / DEG_TO_RAD - lon[0]) < 1e-9
    assert abs(c.y[0] / DEG_TO_RAD - lat[0]) < 1e-9

    # without the datum step the result must differ by tens of metres
    utm = create_operation("+init=epsg:32614")
    c2 = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD, np.zeros(1))
    utm.trans(FWD, c2)
    d = np.hypot(c2.x[0] - x_shifted, c2.y[0] - y_shifted)
    assert 5 < d < 150, d

    # same datum: identical to the plain +init forward
    op3 = create_crs_to_crs("EPSG:4326", "EPSG:32632")
    c3 = Coords(np.array([9.0]) * DEG_TO_RAD, np.array([0.0]) * DEG_TO_RAD,
                np.zeros(1))
    op3.trans(FWD, c3)
    assert abs(c3.x[0] - 500000.0) < 1e-6 and abs(c3.y[0]) < 1e-6


def test_vertical_and_compound():
    """Vertical CRSs resolve to unit pairs, compound = horizontal +
    vertical unit (ref factory.cpp createCompoundCRS; geoid grids are
    files the sandbox doesn't carry, so unit-only)."""
    d = dict(projdb.resolve_crs("EPSG", "5703"))   # NAVD88 height
    assert d["vunits"] == "m"
    d = dict(projdb.resolve_crs("EPSG", "6360"))   # NAVD88 ftUS
    assert d["vunits"] == "us-ft"
    d = dict(projdb.resolve_crs("EPSG", "3901"))   # KKJ + N60
    assert d["proj"] == "tmerc" and d["vunits"] == "m"
    op = create_operation("+init=epsg:3901")
    assert op is not None


# --- round-4 method-map closures (VERDICT r3 task 9) ------------------------


def _op_for(code):
    pairs = projdb.resolve_epsg(code)
    return create_operation(
        " ".join(f"+{k}={v}" if v is not None else f"+{k}" for k, v in pairs)
    )


def test_full_registry_construct_rate():
    """EVERY non-deprecated EPSG projected CRS, not a sample: >=99.95%
    must resolve AND construct (round-5: Krovak Modified, zoned TM and
    the topocentric methods close via ops/extensions; the single
    residual is Tunisia Mining Grid, EPSG method 9816 — a grid-lookup
    method neither the reference nor public PROJ can express as an
    operator)."""
    con = projdb._db()
    codes = [r[0] for r in con.execute(
        "SELECT code FROM projected_crs WHERE auth_name='EPSG' "
        "AND deprecated=0 ORDER BY code")]
    ok = 0
    for c in codes:
        try:
            _op_for(c)
            ok += 1
        except (KeyError, NotImplementedError):
            pass
    assert ok / len(codes) >= 0.9995, f"{ok}/{len(codes)}"


def test_extension_methods_construct_and_roundtrip():
    """Round-5 closures: EPSG 1042/1043 (Krovak Modified), 9824
    (zoned TM umbrella), 9836/9837 (topocentric) construct from the
    registry; numeric spot checks: 32600 == zone-prefixed 32631,
    mod_krovak differs from krovak by the published cm-to-dm
    polynomial correction and round-trips."""
    import numpy as np

    from rayproj.core.op import FWD, INV, Coords

    z = _op_for(32600)
    u = _op_for(32631)
    lam = np.radians(np.array([3.2]))
    phi = np.radians(np.array([48.9]))
    cz = Coords(lam.copy(), phi.copy())
    z.trans(FWD, cz)
    cu = Coords(lam.copy(), phi.copy())
    u.trans(FWD, cu)
    assert abs(cz.x[0] - (31e6 + cu.x[0])) < 1e-6
    assert abs(cz.y[0] - cu.y[0]) < 1e-6
    ci = Coords(cz.x.copy(), cz.y.copy())
    z.trans(INV, ci)
    assert abs(ci.x[0] - lam[0]) < 1e-12 and abs(ci.y[0] - phi[0]) < 1e-12

    mk = _op_for(5224)
    kr = _op_for(2065)  # classic S-JTSK Krovak (Ferro), same frame
    lam = np.radians(np.array([16.84977]))
    phi = np.radians(np.array([50.20901]))
    cm = Coords(lam.copy(), phi.copy())
    mk.trans(FWD, cm)
    ck = Coords(lam.copy(), phi.copy())
    kr.trans(FWD, ck)
    cmi = Coords(cm.x.copy(), cm.y.copy())
    mk.trans(INV, cmi)
    # roundtrip includes the embedded 7-param helmert fwd+inv, whose
    # small-angle rotation matrix is not exactly orthogonal — ~1e-10
    # rad (sub-mm) residual with the S-JTSK rotation magnitudes
    assert abs(cmi.x[0] - lam[0]) < 1e-9 and abs(cmi.y[0] - phi[0]) < 1e-9

    for code in (5225, 5819, 5820):
        _op_for(code)


def test_lcc_belgium_matches_9802_twin():
    """EPSG:31300 (LCC 2SP Belgium, method 9803) vs EPSG:31370 (its
    official 9802 re-definition): the 29.2985" retrofit folded into
    lon_0 must agree with 31370's lon_0 to ~1e-7 deg; coordinates to
    the few-cm level at which EPSG's own two entries differ (they use
    slightly different parallels)."""
    d0 = dict(projdb.resolve_epsg(31300))
    d1 = dict(projdb.resolve_epsg(31370))
    assert abs(float(d0["lon_0"]) - float(d1["lon_0"])) < 1e-7
    op_a, op_b = _op_for(31300), _op_for(31370)
    lam = np.radians([4.0, 4.5, 5.8])
    phi = np.radians([50.0, 50.7, 51.1])
    ca = Coords(lam.copy(), phi.copy())
    cb = Coords(lam.copy(), phi.copy())
    op_a.trans(FWD, ca)
    op_b.trans(FWD, cb)
    np.testing.assert_allclose(ca.x, cb.x, rtol=0, atol=0.05)
    np.testing.assert_allclose(ca.y, cb.y, rtol=0, atol=0.05)


def test_polar_stereo_variant_c_anchor():
    """EPSG 9830: fwd(false origin) == (FE, FN) by construction."""
    for code in (2985, 2986):
        op = _op_for(code)
        d = dict(projdb.resolve_epsg(code))
        c = Coords(np.radians([float(d["lon_0"])]),
                   np.radians([float(d["lat_ts"])]))
        op.trans(FWD, c)
        assert abs(c.x[0] - 300000.0) < 1e-4
        assert abs(c.y[0] - 200000.0) < 1e-4


def test_hyperbolic_cassini_epsg_example():
    """EPSG method 9833 (Hyperbolic Cassini-Soldner), Guidance Note 7-2
    worked example for Vanua Levu 1915: the bare kernel (no datum
    shift; the example's input is local-datum lat/lon) must hit the
    published E/N to the published 0.01-link precision."""
    from rayproj.core.op import INV

    op = create_operation(
        "+proj=cass +lat_0=-16.25 +lon_0=179.333333333333 "
        "+x_0=251727.9155424 +y_0=334519.9537680 +hyperbolic "
        "+a=6378306.3696 +b=6356571.996 +units=link"
    )
    lat = -(16 + 50 / 60 + 29.2435 / 3600)
    lon = 179 + 59 / 60 + 39.6115 / 3600
    c = Coords(np.radians([lon]), np.radians([lat]))
    op.trans(FWD, c)
    assert abs(c.x[0] - 1601528.90) < 0.01
    assert abs(c.y[0] - 1336966.01) < 0.01
    op.trans(INV, c)
    assert abs(np.degrees(c.x[0]) - lon) < 1e-9
    assert abs(np.degrees(c.y[0]) - lat) < 1e-9
    # EPSG:3139 resolves through the 9833 mapping
    assert ("hyperbolic", None) in projdb.resolve_epsg(3139)


def test_west_orientated_and_aeqd_family_construct():
    for code in (2218, 2963, 3993, 3295, 6933):
        _op_for(code)


def test_towgs84_longitude_rotation_hop():
    """A CRS family with no direct WGS84 helmert follows the EPSG 9601
    longitude-rotation link (NTF Paris -> NTF Greenwich) and inherits
    the rotated family's shift — IGNF:LAMBE resolves the classic
    -168,-60,320 with the Paris meridian expressed via +pm."""
    from rayproj.core.resources import load_init

    d = dict(load_init("IGNF:LAMBE"))
    assert d["towgs84"] == "-168,-60,320"
    # the well-known meridian resolves by NAME (reference convention);
    # the name round-trips to the same longitude
    from rayproj.core.datums import prime_meridian_rad
    from rayproj.core.constants import RAD_TO_DEG
    assert d["pm"] == "paris"
    assert abs(prime_meridian_rad("paris") * RAD_TO_DEG
               - 2.33722917) < 1e-6


def test_grid_fallback_per_point_selection(monkeypatch):
    """Database-resolved datum leg with a locatable grid carries BOTH
    +nadgrids and +towgs84(+grid_fallback): in-grid points shift
    through the grid, out-of-grid points through the Helmert candidate
    (proj_create_crs_to_crs per-point selection — testIGNF's Tunisia
    probe). A CLASSIC proj-string with both tokens keeps proj.4
    semantics: towgs84 ignored, out-of-grid errors to inf."""
    from rayproj.core import resources
    from rayproj.core.factory import create_operation

    monkeypatch.setenv("RAYPROJ_DATA", "/root/reference/data/tests")
    saved = list(resources._extra_paths)
    resources._extra_paths.clear()
    resources._init_cache.clear()
    try:
        pairs = dict(projdb.resolve_crs("IGNF", "NTFG"))
        assert pairs["nadgrids"] == "ntf_r93.gsb"
        assert pairs["towgs84"] == "-168,-60,320"
        assert "grid_fallback" in pairs

        ntfg = create_operation("+init=IGNF:NTFG")
        # Tunisia: outside the French grid -> helmert fallback (finite)
        c = Coords(np.radians([8.5907706]), np.radians([32.5526034]),
                   np.array([0.0]))
        ntfg.trans(INV, c)  # local -> WGS84 hub
        helm = create_operation(
            "+proj=longlat +a=6378249.2 +b=6356515 +towgs84=-168,-60,320")
        e = Coords(np.radians([8.5907706]), np.radians([32.5526034]),
                   np.array([0.0]))
        helm.trans(INV, e)
        assert np.isfinite(c.x[0])
        assert abs(c.x[0] - e.x[0]) < 1e-14 and abs(c.y[0] - e.y[0]) < 1e-14
        # Paris: inside the grid -> grid shift (differs from helmert)
        c2 = Coords(np.radians([2.35]), np.radians([48.85]), np.array([0.0]))
        ntfg.trans(INV, c2)
        g = create_operation(
            "+proj=longlat +a=6378249.2 +b=6356515 +nadgrids=ntf_r93.gsb")
        e2 = Coords(np.radians([2.35]), np.radians([48.85]), np.array([0.0]))
        g.trans(INV, e2)
        assert abs(c2.x[0] - e2.x[0]) < 1e-14 and abs(c2.y[0] - e2.y[0]) < 1e-14

        # classic both-token proj-string: towgs84 dropped, out-of-grid inf
        classic = create_operation(
            "+proj=longlat +a=6378249.2 +b=6356515 "
            "+nadgrids=ntf_r93.gsb +towgs84=-168,-60,320")
        c3 = Coords(np.radians([8.5907706]), np.radians([32.5526034]),
                    np.array([0.0]))
        classic.trans(INV, c3)
        assert np.isinf(c3.x[0])
    finally:
        resources._extra_paths[:] = saved
        resources._init_cache.clear()


def test_esri_text_definition_crs():
    """ESRI projected CRSs stored only as WKT text_definition (the
    53xxx/54xxx world series) resolve through the ESRI-dialect WKT
    importer — 176 of 184 construct; the residual 6 methods (Fuller,
    Cube, Tobler I/II, Berghaus_Star) have no operator in the
    reference's esri_projection_mappings.hpp either, and the HOM
    two-point defaults (lat_1=0) are rejected by the omerc kernel in
    both engines."""
    con = projdb._db()
    rows = con.execute(
        "SELECT code, text_definition FROM projected_crs "
        "WHERE deprecated=0 AND conversion_code IS NULL "
        "AND text_definition IS NOT NULL").fetchall()
    assert len(rows) >= 180
    ok = 0
    for c, td in rows:
        try:
            pairs = projdb.resolve_crs("ESRI", str(c))
            create_operation(" ".join(
                f"+{k}={v}" if v is not None else f"+{k}" for k, v in pairs))
            ok += 1
        except Exception:
            pass
    assert ok >= 176, ok

    # mapping-layer semantics (esri_projection_mappings.hpp):
    d = dict(projdb.resolve_crs("ESRI", "53017"))   # Behrmann
    assert d["proj"] == "cea" and float(d["lat_ts"]) == 30.0
    d = dict(projdb.resolve_crs("ESRI", "102068"))  # Stereographic_North_Pole
    assert d["proj"] == "stere" and float(d["lat_0"]) == 90.0 \
        and float(d["lat_ts"]) == 60.0
    d = dict(projdb.resolve_crs("ESRI", "53018"))   # Winkel_I
    assert d["proj"] == "wink1" and abs(float(d["lat_ts"]) - 50.4597762522) < 1e-9
    d = dict(projdb.resolve_crs("ESRI", "102570"))  # TM Complex -> exact TM
    assert d["proj"] == "etmerc" and float(d["k_0"]) == 0.9996
    d = dict(projdb.resolve_crs("ESRI", "102061"))  # RSO Natural Origin
    assert d["proj"] == "omerc" and "no_uoff" in d \
        and abs(float(d["lonc"]) - 102.25) < 1e-12 \
        and abs(float(d["gamma"]) + 36.86989764584402) < 1e-9
    d = dict(projdb.resolve_crs("ESRI", "54052"))   # Goode Option=1 -> igh
    assert d["proj"] == "igh"
    d = dict(projdb.resolve_crs("ESRI", "102460"))  # Local -> ortho
    assert d["proj"] == "ortho" and "k_0" not in d and "alpha" not in d


def test_helmert_units_normalized():
    """Registry helmerts stored in non-conventional units (µrad / mas /
    centesimal-arcsec rotations, ppb scales, mm/cm translations) are
    normalized to the +proj=helmert m / arcsec / ppm contract both in
    candidate_operations (the runtime routing path) and in the projinfo
    PROJ-string emission (ref coordinateoperation.cpp exports via
    Measure::convertToUnit against METRE/ARC_SECOND/PARTS_PER_MILLION).

    EPSG:1112 Amersfoort to WGS 84 (1) stores rotations in µrad (9109):
    rx=-6.3239 µrad = -1.30439800822601 arcsec."""
    ops = projdb.candidate_operations("EPSG", "4289", "EPSG", "4326")
    helm = {o["code"]: o for o in ops if "params" in o and not o["inverse"]}
    p = helm["1112"]["params"]
    assert abs(p["rx"] - (-6.3239e-6 / (np.pi / 180.0 / 3600.0))) < 1e-12
    assert abs(p["rx"] - (-1.30439800822601)) < 1e-11
    assert abs(p["tx"] - 593.16) < 1e-12   # already metres
    assert abs(p["ds"] - 4.0775) < 1e-12   # already ppm

    # arcsec-stored ops round-trip bit-exact (identical-unit factor
    # ratio is exactly 1.0): EPSG:15994 Pulkovo 1942(58) to ETRS89 (4)
    ops = projdb.candidate_operations("EPSG", "4179", "EPSG", "4258")
    p = {o["code"]: o for o in ops if "params" in o}["15994"]["params"]
    assert p["rx"] == 0.3092483 and p["ds"] == 5.68906266

    # display parity: the reference's own expected string for 15994
    # (test/unit/test_operation.cpp:4324-4334 geogCRS_to_geogCRS
    # _context_default) — rotations in ARC-SECONDS, not radians
    from rayproj.state.dbcrs import operation_proj_pipeline
    pipe = operation_proj_pipeline("EPSG", "15994", multiline=False)
    assert pipe == (
        "+proj=pipeline +step +proj=axisswap +order=2,1 +step "
        "+proj=unitconvert +xy_in=deg +xy_out=rad +step +proj=push +v_3 "
        "+step +proj=cart +ellps=krass +step +proj=helmert +x=2.3287 "
        "+y=-147.0425 +z=-92.0802 +rx=0.3092483 +ry=-0.32482185 "
        "+rz=-0.49729934 +s=5.68906266 +convention=coordinate_frame +step "
        "+inv +proj=cart +ellps=GRS80 +step +proj=pop +v_3 +step "
        "+proj=unitconvert +xy_in=rad +xy_out=deg +step +proj=axisswap "
        "+order=2,1")

"""Byte-parity replay of the reference's testprojinfo corpus —
describe subset.

The reference's test/cli/testprojinfo script drives projinfo over EPSG
codes and object names and compares against testprojinfo_out.dist. The
operation-SEARCH sections (-s/-t createOperations ranking) are engine-
format here by design; every describe-style section (single CRS /
ellipsoid / datum / operation lookups, all -o formats, --3d promotion,
deprecation warnings) is replayed below and must match byte-for-byte.

Reference: test/cli/testprojinfo:28-200, testprojinfo_out.dist.
"""

from __future__ import annotations

import io
import re
import sys

import pytest

from rayproj import cli
from rayproj.state import projdb

pytestmark = pytest.mark.requires_projdb

DIST = "/root/reference/test/cli/testprojinfo_out.dist"


def _run(argv: list[str]) -> str:
    old_out = sys.stdout
    sys.stdout = io.StringIO()
    try:
        rc = cli.main(["projinfo"] + argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old_out
    assert rc == 0
    return out


def _section(title: str) -> str:
    """Expected bytes between the echoed `title` line and the blank
    line the driver script writes before the next section."""
    txt = open(DIST).read()
    m = re.search(re.escape(title) + r"\n(.*?)\n\nTesting ", txt, re.S)
    if m is None:  # last section
        m = re.search(re.escape(title) + r"\n(.*?)\n$", txt, re.S)
    assert m is not None, title
    return m.group(1)


DESCRIBE_CASES = [
    ("Testing projinfo EPSG:4326", ["EPSG:4326"]),
    ("Testing projinfo -o WKT1_GDAL EPSG:4326",
     ["-o", "WKT1_GDAL", "EPSG:4326"]),
    ("Testing projinfo -o WKT2_2015 EPSG:4326",
     ["-o", "WKT2_2015", "EPSG:4326"]),
    ("Testing projinfo -o WKT2_2019 EPSG:4326",
     ["-o", "WKT2_2019", "EPSG:4326"]),
    ("Testing projinfo -o ALL EPSG:4326", ["-o", "ALL", "EPSG:4326"]),
    ("Testing projinfo -s EPSG:4326 -t EPSG:32631 --single-line",
     ["-s", "EPSG:4326", "-t", "EPSG:32631", "--single-line"]),
    ("Testing deprecated CRS: projinfo EPSG:26591", ["EPSG:26591"]),
    ("Testing non compliant WKT1",
     ['GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",6378137,'
      '298.257223563]],UNIT["degree",0.0174532925199433]]']),
    ("Testing CRS with towgs84: projinfo -o PROJ EPSG:25832",
     ["-o", "PROJ", "EPSG:25832"]),
    ("Testing EPSG:32631 --3d", ["EPSG:32631", "--3d"]),
    ("Testing -k ellipsoid WGS84", ["-k", "ellipsoid", "WGS84"]),
    ("Testing -k ellipsoid EPSG:7030", ["-k", "ellipsoid", "EPSG:7030"]),
    ("Testing -k datum WGS84", ["-k", "datum", "WGS84"]),
    ("Testing -k datum EPSG:6326", ["-k", "datum", "EPSG:6326"]),
    ("Testing -k operation EPSG:8457 -o PROJ -q",
     ["-k", "operation", "EPSG:8457", "-o", "PROJ", "-q"]),
    ("Testing D_WGS_1984", ["D_WGS_1984"]),
    ("Testing -k datum D_WGS_1984", ["-k", "datum", "D_WGS_1984"]),
    ("Testing projinfo -s NAD27 -t NAD83", ["-s", "NAD27", "-t", "NAD83"]),
    ("Testing projinfo -s NAD27 -t NAD83 --grid-check none "
     "--spatial-test intersects --summary --hide-ballpark",
     ["-s", "NAD27", "-t", "NAD83", "--grid-check", "none",
      "--spatial-test", "intersects", "--summary", "--hide-ballpark"]),
    ("Testing projinfo -s NAD27 -t NAD83 --grid-check none "
     "--spatial-test intersects",
     ["-s", "NAD27", "-t", "NAD83", "--grid-check", "none",
      "--spatial-test", "intersects"]),
    ("Testing -s EPSG:32631 -t EPSG:4326+3855 --summary",
     ["-s", "EPSG:32631", "-t", "EPSG:4326+3855", "--summary"]),
    ("Testing -s EPSG:32631 -t EPSG:4326+3855 --3d --summary",
     ["-s", "EPSG:32631", "-t", "EPSG:4326+3855", "--3d", "--summary"]),
    ("Testing -s EPSG:4936 -t EPSG:4978 --spatial-test intersects "
     "--summary where WGS 84 to ETRS89 (2) uses a transformation method "
     "not supported by PROJ currently (time-specific Helmert), and thus "
     "must be sorted last",
     ["-s", "EPSG:4936", "-t", "EPSG:4978",
      "--spatial-test", "intersects", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 "
     "--bbox 8,54.51,15.24,57.8 --summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--bbox", "8,54.51,15.24,57.8", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 --area EPSG:3237 --summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--area", "EPSG:3237", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 --area "
     "'Denmark - onshore' --summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--area", "Denmark - onshore", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 --area "
     "'Denmark -' --summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--area", "Denmark -", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 --area no_match --summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--area", "no_match", "--summary"]),
    ("Testing projinfo -s EPSG:4230 -t EPSG:4258 --area WRONG:CODE "
     "--summary",
     ["-s", "EPSG:4230", "-t", "EPSG:4258",
      "--area", "WRONG:CODE", "--summary"]),
    ('Testing -s "GDA94" -t "WGS 84 (G1762)" --spatial-test intersects '
     "--summary. Should include transformations through ITRF2008 and "
     "GDA2020",
     ["-s", "GDA94", "-t", "WGS 84 (G1762)",
      "--spatial-test", "intersects", "--summary"]),
    ('Testing -s "AGD66" -t "WGS 84 (G1762)" --spatial-test intersects '
     "--summary. Should include a transformation through GDA2020",
     ["-s", "AGD66", "-t", "WGS 84 (G1762)",
      "--spatial-test", "intersects", "--summary"]),
    ("Testing -s EPSG:31467 -t ETRS89 --spatial-test intersects "
     "--grid-check none --bbox 8,48,9,49 --summary. Should include both "
     "DHDN to ETRS89 (8) and DHDN to ETRS89 (BWTA2017)",
     ["-s", "EPSG:31467", "-t", "ETRS89", "--spatial-test", "intersects",
      "--grid-check", "none", "--bbox", "8,48,9,49", "--summary"]),
    ('Testing -s "GDA94" -t "AHD height" --grid-check none -o PROJ '
     "--spatial-test intersects",
     ["-s", "GDA94", "-t", "AHD height", "--grid-check", "none",
      "-o", "PROJ", "--spatial-test", "intersects"]),
    ('Testing -s "GDA2020" -t "AHD height" --grid-check none -o PROJ '
     "--spatial-test intersects",
     ["-s", "GDA2020", "-t", "AHD height", "--grid-check", "none",
      "-o", "PROJ", "--spatial-test", "intersects"]),
    ("Testing RH2000 height to SWEREF99: projinfo -s EPSG:5613 "
     "-t EPSG:4977",
     ["-s", "EPSG:5613", "-t", "EPSG:4977"]),
    ("Testing NGF IGN69 height to RGF93: projinfo -s EPSG:5720 "
     "-t EPSG:4965 -o PROJ",
     ["-s", "EPSG:5720", "-t", "EPSG:4965", "-o", "PROJ"]),
    ("Testing NAD83(2011) + NAVD88 height -> NAD83(2011) : projinfo "
     "-s EPSG:6349 -t EPSG:6319 --spatial-test intersects -o PROJ",
     ["-s", "EPSG:6349", "-t", "EPSG:6319",
      "--spatial-test", "intersects", "-o", "PROJ"]),
    ("Testing -s +proj=longlat +datum=WGS84 +geoidgrids=@foo.gtx "
     "+type=crs -t EPSG:4326 -o PROJ -q",
     ["-s", "+proj=longlat +datum=WGS84 +geoidgrids=@foo.gtx +type=crs",
      "-t", "EPSG:4326", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF96 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF96", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF97 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF97", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF2000 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF2000", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF2005 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF2005", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF2008 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF2008", "-o", "PROJ", "-q"]),
    ("Testing -s NZGD2000 -t ITRF2014 -o PROJ -q",
     ["-s", "NZGD2000", "-t", "ITRF2014", "-o", "PROJ", "-q"]),
    ('Testing -s "KKJ / Finland Uniform Coordinate System" -t "ETRS89 / '
     'TM35FIN(E,N)" --grid-check none -o PROJ -q',
     ["-s", "KKJ / Finland Uniform Coordinate System",
      "-t", "ETRS89 / TM35FIN(E,N)", "--grid-check", "none",
      "-o", "PROJ", "-q"]),
    ("Testing -s KKJ -t ETRS89 -o PROJ --grid-check none -q",
     ["-s", "KKJ", "-t", "ETRS89", "-o", "PROJ",
      "--grid-check", "none", "-q"]),
    ('Testing -s "KKJ + N43 height" -t "KKJ + N60 height" '
     "--grid-check none -o PROJ -q",
     ["-s", "KKJ + N43 height", "-t", "KKJ + N60 height",
      "--grid-check", "none", "-o", "PROJ", "-q"]),
    ('Testing -s "KKJ + N60 height" -t "KKJ + N2000 height" '
     "--grid-check none -o PROJ -q",
     ["-s", "KKJ + N60 height", "-t", "KKJ + N2000 height",
      "--grid-check", "none", "-o", "PROJ", "-q"]),
    ('Testing -s "KKJ + N43 height" -t "ETRS89 + N2000 height" '
     "--grid-check none -o PROJ -q",
     ["-s", "KKJ + N43 height", "-t", "ETRS89 + N2000 height",
      "--grid-check", "none", "-o", "PROJ", "-q"]),
    ('Testing -s "KKJ / Finland Uniform Coordinate System + N43 height" '
     '-t "ETRS89 / TM35FIN(E,N) + N2000 height" --grid-check none -o PROJ -q',
     ["-s", "KKJ / Finland Uniform Coordinate System + N43 height",
      "-t", "ETRS89 / TM35FIN(E,N) + N2000 height",
      "--grid-check", "none", "-o", "PROJ", "-q"]),
    ('Testing -s "ETRS89 / TM35FIN(E,N) + N2000 height" -t "KKJ / Finland '
     'Uniform Coordinate System + N43 height" --grid-check none -o PROJ -q',
     ["-s", "ETRS89 / TM35FIN(E,N) + N2000 height",
      "-t", "KKJ / Finland Uniform Coordinate System + N43 height",
      "--grid-check", "none", "-o", "PROJ", "-q"]),
]


@pytest.mark.parametrize("title,argv",
                         DESCRIBE_CASES, ids=[t for t, _ in DESCRIBE_CASES])
def test_projinfo_describe_byte_parity(title, argv):
    got = _run(argv).rstrip("\n")
    exp = _section(title).rstrip("\n")
    assert got == exp, f"\n--- expected ---\n{exp}\n--- got ---\n{got}"


def test_vertical_crs_wkt2_matches_embedded_golden():
    """EPSG:5613 VERTCRS: the corpus embeds its exact WKT2 inside the
    RH2000→SWEREF99 COORDINATEOPERATION (testprojinfo_out.dist:936-944);
    dedented, our standalone emit must reproduce it byte-for-byte (the
    standalone form adds USAGE/ID, which operations suppress)."""
    from rayproj.state import dbcrs

    got = dbcrs.to_wkt2(dbcrs.load_crs("EPSG", "5613"), "2019")
    golden = (
        'VERTCRS["RH2000 height",\n'
        "    DYNAMIC[\n"
        "        FRAMEEPOCH[2000]],\n"
        '    VDATUM["Rikets hojdsystem 2000"],\n'
        "    CS[vertical,1],\n"
        '        AXIS["gravity-related height (H)",up,\n'
        '            LENGTHUNIT["metre",1]],'
    )
    assert got.startswith(golden)
    assert got.endswith('ID["EPSG",5613]]')


def test_compound_crs_describe():
    from rayproj.state import dbcrs

    c = dbcrs.load_crs("EPSG", "3901")
    w = dbcrs.to_wkt2(c, "2019")
    assert w.startswith(
        'COMPOUNDCRS["KKJ / Finland Uniform Coordinate System + N60 height"')
    # component IDs suppressed under the identified top (io.cpp rule)
    assert 'ID["EPSG",2393]' not in w
    assert w.rstrip().endswith('ID["EPSG",3901]]')
    # nested BASEGEOGCRS id still prints (crs.cpp:3437 special case)
    assert 'ID["EPSG",4123]' in w
    j = dbcrs.to_projjson(c)
    assert j["type"] == "CompoundCRS" and len(j["components"]) == 2
    assert j["components"][1]["type"] == "VerticalCRS"


def test_towgs84_coordinate_frame_sign_flip():
    """EPSG:4673 (CHI1979→WGS84 is a single Coordinate Frame rotation):
    +towgs84 is position-vector, so rotation signs flip
    (coordinateoperation.cpp getTOWGS84Parameters invertRotSigns)."""
    from rayproj.state import dbcrs

    t = dbcrs._towgs84_7("EPSG", "4673")
    assert t == "+towgs84=174.05,-25.49,112.57,0,0,0.554,0.2263"


def test_promote_to_3d_uses_db_counterpart_identity():
    from rayproj.state import dbcrs

    p = dbcrs.promote_to_3d(dbcrs.load_crs("EPSG", "4326"))
    assert p["code"] == "4979" and p["cs"]["dim"] == 3
    # the 3D object's OWN usage, not 4326's
    assert p["usages"][0]["scope"].startswith("Geodesy. Navigation")


def test_promote_to_3d_synthesizes_without_counterpart():
    from rayproj.state import dbcrs

    p = dbcrs.promote_to_3d(dbcrs.load_crs("EPSG", "4277"))  # OSGB36
    assert "code" not in p and p["cs"]["dim"] == 3
    assert p["remark"] == "Promoted to 3D from EPSG:4277"
    assert p["cs"]["axes"][2]["name"] == "Ellipsoidal height"


def test_prime_meridian_keeps_native_unit():
    from rayproj.state import dbcrs

    w = dbcrs.to_wkt2(dbcrs.load_crs("EPSG", "4807"), "2019")  # NTF (Paris)
    assert 'PRIMEM["Paris",2.5969213,' in w
    assert 'ANGLEUNIT["grad",' in w


def test_other_transformation_candidates():
    """Geographic-offset ops stored in other_transformation surface in
    the candidate search (review fix: Anguilla 1957→WGS 84)."""
    from rayproj.state import dbcrs

    shown, inter, s, t = dbcrs.geog_pair_candidates(
        "EPSG:4600", "EPSG:4326", aoi=(18.2, -63.05, 18.24, -63.0))
    assert any(c["code"] == "1447" for c in shown)
    assert not any(c["kind"] == "ballpark" for c in shown)


def test_compliant_wkt1_keeps_pm():
    """A GEOGCS WITH a PRIMEM node stays on the proj-string describe
    path (the lenient import would drop +pm)."""
    from rayproj.state import dbcrs

    w = ('GEOGCS["NTF (Paris)",DATUM["N",SPHEROID["Clarke 1880 (IGN)",'
         '6378249.2,293.466021293627]],PRIMEM["Paris",2.33722917],'
         'UNIT["grad",0.01570796326794897]]')
    assert dbcrs.wkt1_geogcs_import(w) is None


def test_composed_candidates_withhold_pipelines():
    """Hub chains and prefixed candidates return no pipeline (the
    advertised conversion leg is not in the exportable steps)."""
    from rayproj.state import dbcrs

    shown, _, s, t = dbcrs.geog_pair_candidates(
        "GDA94", "WGS 84 (G1762)", spatial_test="intersects")
    chains = [c for c in shown if c["kind"] == "chain"]
    assert chains and all(
        dbcrs.candidate_proj_steps(c) is None for c in chains)


def test_vgrid_aoi_filter():
    from rayproj.state import dbcrs

    # Indonesia AOI excludes the France-only NGF operation
    assert dbcrs.vgrid_candidates(
        "EPSG:5720", "EPSG:4965", aoi=(0.0, 100.0, 1.0, 101.0)) is None


def test_proj4_export_matches_resolver_numerically():
    """Registry sweep: for a sample of EPSG projected CRS, the PROJ.4
    string dbcrs emits and projdb.resolve_crs's expansion build
    operations that agree at a probe point to 0.2 mm (caught the
    German-legal-metre Bessel Namibia axis-unit bug)."""
    import math

    import numpy as np

    from rayproj.core.factory import create_operation
    from rayproj.core.op import Coords
    from rayproj.state import dbcrs

    db = projdb._db()
    codes = [r[0] for r in db.execute(
        "SELECT code FROM projected_crs WHERE auth_name='EPSG' "
        "AND deprecated=0 ORDER BY CAST(code AS INTEGER)")]
    sample = codes[::max(1, len(codes) // 100)]

    def strip(s):
        # datum legs compare only when both sides carry them: the
        # resolver may add +nadgrids(+grid_fallback) when a test
        # earlier in the session registered the grid search path
        return " ".join(t for t in s.split()
                        if not t.startswith(("+towgs84", "+nadgrids",
                                             "+grid_fallback"))
                        and t not in ("+type=crs", "+no_defs"))

    checked = bad = 0
    for code in sample:
        try:
            p4 = dbcrs.to_proj4(dbcrs.load_crs("EPSG", code))
            ref = " ".join(
                f"+{k}={v}" if v is not None else f"+{k}"
                for k, v in projdb.resolve_crs("EPSG", code))
            op_a = create_operation(
                strip(p4).replace("+datum=WGS84", "+ellps=WGS84"))
            op_b = create_operation(strip(ref))
        except Exception:
            continue
        lon0 = 0.0
        for t in p4.split():
            if t.startswith("+lon_0="):
                lon0 = float(t[7:])
            if t.startswith("+zone="):
                lon0 = int(t[6:]) * 6 - 183
        lam = np.array([math.radians(lon0 + 0.5)])
        phi = np.array([math.radians(30.0)])
        try:
            ca = Coords(lam.copy(), phi.copy())
            op_a.fwd(ca)
            cb = Coords(lam.copy(), phi.copy())
            op_b.fwd(cb)
        except Exception:
            continue
        checked += 1
        if np.isnan(ca.x[0]) and np.isnan(cb.x[0]):
            continue
        if abs(ca.x[0] - cb.x[0]) > 2e-4 or abs(ca.y[0] - cb.y[0]) > 2e-4:
            bad += 1
    assert checked > 50
    assert bad == 0


def test_projinfo_esri_text_definition(capsys):
    """ESRI text_definition-only CRSs describe without crashing: the
    PROJ expansion and the stored ESRI WKT1 verbatim; other formats get
    the reference-style export error; unknown objects get projinfo.cpp's
    buildObject-failed stderr line and exit 1."""
    from rayproj import cli

    assert cli.main(["projinfo", "ESRI:53001", "-o", "PROJ"]) == 0
    out = capsys.readouterr().out
    # sphere emits +R= (datum.cpp _exportToPROJString), matching real projinfo
    assert "+proj=eqc" in out and "+R=6371000" in out

    assert cli.main(["projinfo", "ESRI:54052", "-o", "wkt1:esri"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WKT1:ESRI string:\nPROJCS[\"World_Goode_Homolosine_Land\"")

    assert cli.main(["projinfo", "EPSG:99999999"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("buildObject failed:")

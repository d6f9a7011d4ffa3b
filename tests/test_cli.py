"""CLI parity with the reference apps (proj/cs2cs/cct/gie) — text
vectors from tv_out.dist; parquet mode covered by driving main()."""

import io
import os
import sys

import numpy as np
import pytest

from rayproj import cli
from rayproj.state import projdb

AXISSWAP_GIE = "/root/reference/test/gie/axisswap.gie"

needs_registry = pytest.mark.skipif(
    not projdb.available(), reason="EPSG SQL scripts not available")


def _run(argv, stdin_text):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        rc = cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return rc, out


def test_proj_merc_roundtrip_text():
    rc, out = _run(["proj", "-d", "4", "+proj=merc", "+ellps=WGS84"], "2 1\n")
    assert rc == 0
    x, y = map(float, out.split())
    rc, out = _run(["proj", "-I", "-f", "%.9f", "+proj=merc",
                    "+ellps=WGS84"], f"{x} {y}\n")
    lon, lat = map(float, out.split())
    assert lon == pytest.approx(2.0, abs=1e-8)
    assert lat == pytest.approx(1.0, abs=1e-8)


def test_proj_reference_ux():
    """Byte-level reference UX (src/apps/proj.cpp): default %.2f
    forward output with tab separator, trailing-text passthrough,
    tag-line echo, DMS output on inverse, -E echo, -e error text."""
    rc, out = _run(["proj", "+proj=merc", "+lat_ts=56.5", "+ellps=GRS80"],
                   "55.2 12.2\n# comment line\n55.2 12.2 here be text\n")
    assert rc == 0
    assert out == ("3399483.80\t752085.60\n"
                   "# comment line\n"
                   "3399483.80\t752085.60 here be text\n")
    # inverse emits DMS with hemisphere letters by default
    rc, out = _run(["proj", "-I", "+proj=merc", "+lat_ts=56.5",
                    "+ellps=GRS80"], "3399483.80\t752085.60\n")
    assert out == "55d12'E\t12d12'N\n"
    # DMS input round-trips through dmstor; -E echoes the parsed prefix
    rc, out = _run(["proj", "-E", "+proj=merc", "+lat_ts=56.5",
                    "+ellps=GRS80"], "55d12'E 12d12'N\n")
    assert out == "55d12'E 12d12'N\t3399483.80\t752085.60\n"
    # -e error text + -r/-s reversed order
    rc, out = _run(["proj", "-e", "*err*", "+proj=merc", "+ellps=WGS84"],
                   "0 90\n")
    assert out == "*err*\n"
    rc, out = _run(["proj", "-r", "-s", "+proj=merc", "+lat_ts=56.5",
                    "+ellps=GRS80"], "12.2 55.2\n")
    assert out == "752085.60\t3399483.80\n"


def test_proj_dms_output_modes():
    """-w/-W rtodms precision control (src/rtodms.cpp set_rtodms)."""
    rc, out = _run(["proj", "-I", "-W5", "+proj=merc", "+lat_ts=56.5",
                    "+ellps=GRS80"], "3399483.80 752085.60\n")
    assert out == "55d12'00.00025\"E\t12d12'00.00018\"N\n"
    rc, out = _run(["proj", "-I", "-w5", "+proj=merc", "+lat_ts=56.5",
                    "+ellps=GRS80"], "3399483.80 752085.60\n")
    assert out == "55d12'0.00025\"E\t12d12'0.00018\"N\n"


def test_cs2cs_reference_ux():
    """cs2cs text path: z column transformed, t column fed to the 4D
    transform but echoed verbatim (src/apps/cs2cs.cpp:117-129)."""
    rc, out = _run(["cs2cs", "-f", "%.7f", "+proj=utm", "+zone=12",
                    "+datum=WGS84", "+to", "+proj=latlong",
                    "+datum=WGS84"], "500000 4649776.22 10\tt-text\n")
    assert rc == 0
    assert out == "-111.0000000\t42.0000000 10.0000000\tt-text\n"
    # geographic destination without -f → DMS output + z via %.3f
    rc, out = _run(["cs2cs", "+proj=utm", "+zone=12", "+datum=WGS84",
                    "+to", "+proj=latlong", "+datum=WGS84"],
                   "500000 4649776.22 10\n")
    assert out.startswith("111dW\t42d") and out.endswith(" 10.000\n")


def test_cs2cs_sch_testvarious():
    rc, out = _run(
        ["cs2cs", "-d", "7", "+proj=latlong", "+ellps=WGS84", "+to",
         "+proj=sch", "+ellps=WGS84", "+plat_0=30.0", "+plon_0=45.0",
         "+phdg_0=-12.0"],
        "45.0 45.0\n",
    )
    assert rc == 0
    x, y, z = map(float, out.split())
    # tv_out.dist:398
    assert np.hypot(x - 1630035.5650122, y + 342353.6396475) < 1e-4
    assert z == pytest.approx(128.3445654, abs=1e-4)


def test_cct_passthrough_time():
    rc, out = _run(["cct", "+proj=merc", "+ellps=GRS80"], "0 0 0 2020.0\n")
    assert rc == 0
    assert out.split()[3] == "2020.0000"


def test_proj_error_lane():
    rc, out = _run(["proj", "+proj=merc", "+ellps=WGS84"], "0 90\n0 10\n")
    lines = out.strip().splitlines()
    assert lines[0].startswith("*")          # pole errors per-lane
    assert not lines[1].startswith("*")


@pytest.mark.skipif(not os.path.isfile(AXISSWAP_GIE),
                    reason="reference gie file axisswap.gie not available")
def test_gie_subcommand(capsys):
    rc = cli.main(["gie", AXISSWAP_GIE])
    assert rc == 0
    assert "failed 0" in capsys.readouterr().out


def test_geod_inverse_jfk_lhr():
    # canonical JFK->LHR geodesic (Karney 2013 example): azi1 51.19888,
    # s12 5551759.4 m
    rc, out = _run(["geod", "-I", "-f", "%.8f", "+ellps=WGS84"],
                   "40.6 -73.8 51.6 -0.5\n")
    assert rc == 0
    azi1, azi2, s12 = map(float, out.split())
    assert azi1 == pytest.approx(51.19888, abs=1e-4)
    assert s12 == pytest.approx(5551759.4, abs=0.5)


def test_geod_direct_roundtrip():
    rc, out = _run(["geod", "-f", "%.8f", "+ellps=WGS84"],
                   "40.6 -73.8 51.19888 5551759.4\n")
    lat2, lon2, _al21 = map(float, out.split())
    assert lat2 == pytest.approx(51.6, abs=1e-4)
    assert lon2 == pytest.approx(-0.5, abs=1e-4)


def test_geod_reference_ux():
    """geod text UX (src/apps/geod.cpp:62-127): dmstor DMS input, DMS
    azimuth output via rtodms (no hemisphere letter, '-' prefix),
    distance through -F scaled by +units, -a full output, tag echo,
    trailing-text passthrough."""
    rc, out = _run(["geod", "-I", "+ellps=WGS84"],
                   "40.6 -73.8 51.6 -0.5 trailing\n# tag\n")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].endswith(" trailing") or "\ttrailing" in lines[0]
    assert lines[1] == "# tag"
    assert "5551759.400" in lines[0]
    # -p wraps negative azimuths positive; -F formats the distance
    rc, out = _run(["geod", "-I", "-p", "-F", "%.1f", "+ellps=WGS84",
                    "+units=km"], "40.6 -73.8 51.6 -0.5\n")
    assert out.split()[2] == "5551.8"
    # full output repeats both endpoints in DMS
    rc, out = _run(["geod", "-a", "-I", "+ellps=WGS84"],
                   "40.6 -73.8 51.6 -0.5\n")
    assert out.startswith("40d36'N\t73d48'W\t51d36'N\t0d30'W\t")


def test_proj_factors_tmerc():
    rc, out = _run(
        ["proj", "-V", "+proj=tmerc", "+ellps=WGS84", "+k_0=0.9996", "+lon_0=9"],
        "9 45\n",
    )
    assert rc == 0
    assert "0.99960000" in out  # k at the central meridian


@needs_registry
def test_projinfo_epsg_resolution(capsys):
    # db-backed describe: reference-parity PROJ.4 + WKT2:2019 sections
    rc = cli.main(["projinfo", "EPSG:32633"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PROJ.4 string:" in out
    assert "+proj=utm +zone=33 +datum=WGS84 +units=m +no_defs +type=crs" in out
    assert 'PROJCRS["WGS 84 / UTM zone 33N"' in out
    assert 'ID["EPSG",32633]]' in out


def test_formulaic_epsg_utm_families():
    """UTM-grid EPSG families synthesized without the database:
    WGS84 N/S, ETRS89, NAD83, GDA94 MGA."""
    from rayproj.core.factory import create_operation

    for code, zone, south in [
        (32601, 1, False), (32660, 60, False), (32733, 33, True),
        (25832, 32, False), (26915, 15, False), (28355, 55, True),
    ]:
        op = create_operation(f"+init=epsg:{code}")
        assert op.name == "utm"
        assert op.params.str_("zone") == str(zone)
        assert op.params.has("south") == south


@needs_registry
def test_cs2cs_epsg_shorthand(capsys):
    # Rome through WGS84 -> UTM 33N, against the direct utm operation
    stdin = sys.stdin
    try:
        # EPSG:4326 is lat-first: input order is lat lon (cs2cs axis
        # normalization, cs2cs.cpp:560-607)
        sys.stdin = io.StringIO("41.8902 12.4924\n")
        rc = cli.main(["cs2cs", "EPSG:4326", "+to", "EPSG:32633"])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr().out
    assert rc == 0
    x, y, _ = map(float, out.split())
    assert x == pytest.approx(291962.59, abs=0.5)
    assert y == pytest.approx(4640626.11, abs=0.5)


def test_cs2cs_lat_first_without_registry_is_an_error(monkeypatch, tmp_path, capsys):
    # EPSG:4326's axis order comes from the EPSG registry; without it the
    # CLI must refuse instead of reading Rome's "lat lon" as "lon lat"
    from rayproj.state import projdb

    monkeypatch.setattr(projdb, "SQL_DIR", str(tmp_path / "no_sql"))
    monkeypatch.setattr(projdb, "PROJDB_PATH", str(tmp_path / "no.db"))
    monkeypatch.setattr(projdb, "_conn", None)
    rc, out = _run(["cs2cs", "EPSG:4326", "+to", "EPSG:32633"], "41.9028 12.4964\n")
    assert rc != 0
    assert out == ""
    assert "EPSG registry unavailable" in capsys.readouterr().err


@pytest.mark.parametrize("wkt", [
    'VERT_CS["EGM96 height",VERT_DATUM["EGM96 geoid",2005],'
    'UNIT["metre",1],AXIS["Gravity-related height",UP]]',
    'PROJCRS["t",BASEGEOGCRS["g",DATUM["d",ELLIPSOID["WGS 84",6378137,'
    '298.257223563]]],CONVERSION["c",METHOD["Transverse Mercator"],'
    'PARAMETER["Longitude of natural origin",9]],CS[Cartesian,2]]',
], ids=["vert_cs", "wkt2_tmerc"])
def test_projinfo_wkt_without_registry_is_an_error(monkeypatch, tmp_path, capsys, wkt):
    # the WKT's units and datums resolve through the EPSG registry; a
    # stale registry file with no SQL scripts to rebuild it from must be
    # reported as such, not read as "not a CRS" and described some other way
    from rayproj.state import projdb, wktcrs

    stale = tmp_path / "stale.db"
    stale.write_bytes(b"")
    monkeypatch.setattr(projdb, "SQL_DIR", str(tmp_path / "no_sql"))
    monkeypatch.setattr(projdb, "PROJDB_PATH", str(stale))
    monkeypatch.setattr(projdb, "_conn", None)
    with pytest.raises(FileNotFoundError):
        wktcrs.wkt_import(wkt)
    rc, out = _run(["projinfo", wkt], "")
    assert rc != 0
    assert out == ""
    assert "EPSG registry unavailable" in capsys.readouterr().err


def test_list_flags(capsys):
    from rayproj.cli import main

    assert main(["proj", "-lp"]) == 0
    out = capsys.readouterr().out.splitlines()
    # 176 reference pj_list operators + the engine extensions
    # (mod_krovak / topocentric / tmzoned, ops/extensions.py)
    assert len(out) == 179 and "merc" in out and "pipeline" in out
    assert any("mod_krovak" in l for l in out)
    assert main(["proj", "-le"]) == 0
    assert "GRS80" in capsys.readouterr().out
    assert main(["cs2cs", "-lu"]) == 0
    assert "us-ft" in capsys.readouterr().out
    assert main(["proj", "-ld"]) == 0
    assert "NAD27" in capsys.readouterr().out


def test_cs2cs_db_route(monkeypatch, capsys):
    import io

    from rayproj.cli import main
    from rayproj.state import projdb

    if not projdb.available():
        import pytest

        pytest.skip("EPSG registry unavailable")
    # EPSG:4267 (NAD27) is lat-first: lat lon input order
    monkeypatch.setattr("sys.stdin", io.StringIO("39 -98 0\n"))
    assert main(["cs2cs", "--db-route", "EPSG:4267", "+to", "EPSG:32614"]) == 0
    x, y = [float(v) for v in capsys.readouterr().out.split()[:2]]
    # the routed CONUS candidate (library-tested in test_projdb) —
    # ~10 m from the single-towgs84 hub answer
    assert abs(x - 586562.62) < 0.1 and abs(y - 4317253.67) < 0.1


def test_geod_line_mode_jfk_lhr(capsys):
    """geod line mode (geod.cpp do_geod + geod_set.cpp:53-74): 10
    intermediate intervals on the JFK->LHR geodesic. Every emitted
    point must solve the inverse problem back to the SAME initial
    azimuth and to distance i*S/n (sub-mm) — i.e. the points really
    lie on the line at equal spacing."""
    from rayproj.mathx.geodesic import geod_inverse

    rc = cli.main([
        "geod", "+ellps=WGS84", "+lat_1=40.64", "+lon_1=-73.78",
        "+lat_2=51.47", "+lon_2=-0.46", "+n_S=10", "-d", "9",
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 11
    pts = np.array([[float(v) for v in l.split()] for l in lines])
    np.testing.assert_allclose(pts[0], [40.64, -73.78], atol=1e-9)
    np.testing.assert_allclose(pts[-1], [51.47, -0.46], atol=1e-9)
    R = np.pi / 180.0
    S, azi1, _ = geod_inverse(
        6378137.0, 1 / 298.257223563,
        np.array([40.64 * R]), np.array([-73.78 * R]),
        np.array([51.47 * R]), np.array([-0.46 * R]))
    s_i, azi_i, _ = geod_inverse(
        6378137.0, 1 / 298.257223563,
        np.full(9, 40.64 * R), np.full(9, -73.78 * R),
        pts[1:-1, 0] * R, pts[1:-1, 1] * R)
    np.testing.assert_allclose(s_i, np.arange(1, 10) * S[0] / 10, atol=5e-4)
    np.testing.assert_allclose(azi_i, np.full(9, azi1[0]), atol=1e-9)


def test_geod_line_mode_del_s(capsys):
    # +del_S picks n = round(S/del_S); S(JFK->LHR) ~ 5551.7 km ->
    # del_S=1850km gives n=3 -> 4 output rows
    rc = cli.main([
        "geod", "+ellps=WGS84", "+lat_1=40.64", "+lon_1=-73.78",
        "+lat_2=51.47", "+lon_2=-0.46", "+del_S=1850000",
    ])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_geod_arc_mode(capsys):
    # arc mode: initial point + azimuth/distance line, then n_A
    # azimuth steps of del_A; first output row is the line's endpoint
    rc = cli.main([
        "geod", "+ellps=WGS84", "+lat_1=0", "+lon_1=0", "+A=90",
        "+S=111319.49", "+n_A=2", "+del_A=90", "-d", "6",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    first = [float(v) for v in lines[0].split()]
    # 1 degree east along the equator
    assert first[0] == pytest.approx(0.0, abs=1e-6)
    assert first[1] == pytest.approx(1.0, abs=1e-3)
    # after +180deg the azimuth points west: mirrored longitude
    third = [float(v) for v in lines[2].split()]
    assert third[1] == pytest.approx(-1.0, abs=1e-3)


def test_projinfo_wkt1_output(capsys):
    from rayproj.cli import main

    assert main(["projinfo", "-o", "wkt1",
                 "+proj=utm +zone=31 +ellps=GRS80"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PROJCS[")
    assert 'PROJECTION["Transverse_Mercator"]' in out
    assert main(["projinfo", "-o", "wkt1:esri",
                 "+proj=webmerc +datum=WGS84"]) == 0
    out = capsys.readouterr().out
    assert 'DATUM["D_WGS_1984"' in out
    assert 'PROJECTION["Mercator_Auxiliary_Sphere"]' in out


def test_cct_reference_ux():
    """cct text UX (src/apps/cct.cpp:333-408): fixed-width output
    (%13.4f distances / %14.10f angles), comment reflection, -c column
    selection, -z/-t constants, -s skip, trailing-column passthrough."""
    rc, out = _run(["cct", "+proj=utm", "+zone=32"],
                   "12 55 0 0\n# a comment\n12 56 100 2020.5 note\n")
    assert rc == 0
    lines = out.splitlines()
    # canonical doc example: cct +proj=utm +zone=32 <<< "12 55 0 0"
    assert lines[0] == ("  691875.6321   6098907.8250        0.0000"
                       "        0.0000")
    assert lines[1] == "# a comment"
    assert lines[2].endswith("2020.5000 note")
    # -s skip + -c column pick + trailing comment column
    rc, out = _run(["cct", "-s", "1", "-c", "2,3", "-z0", "-t0",
                    "+proj=merc", "+ellps=GRS80"],
                   "skipme\n3 12 55 7\n")
    assert out == (" 1335833.8895   7326837.7149        0.0000"
                   "        0.0000 7\n")
    # inverse angular output uses 10 decimals
    rc, out = _run(["cct", "-I", "+proj=utm", "+zone=32"],
                   "691875.6321 6098907.8250 0 0\n")
    assert out.split()[0] == "11.9999999994"


def test_proj_vprocess_block_format():
    """proj -V byte-format parity with vprocess
    (src/apps/proj.cpp:178-290), incl. the leading-I line-inverse."""
    rc, out = _run(["proj", "-V", "+proj=tmerc", "+ellps=WGS84",
                    "+k_0=0.9996", "+lon_0=9"], "9 45\n")
    assert rc == 0
    assert out == (
        "Longitude: 9dE [ 9 ]\n"
        "Latitude:  45dN [ 45 ]\n"
        "Easting (x):   0.000\n"
        "Northing (y):  4982950.400\n"
        "Meridian scale (h) : 0.99960000  ( -0.04 % error )\n"
        "Parallel scale (k) : 0.99960000  ( -0.04 % error )\n"
        "Areal scale (s):     0.99920016  ( -0.07998 % error )\n"
        "Angular distortion (w): 0.000\n"
        "Meridian/Parallel angle: 90.00000\n"
        "Convergence : 0d [ -0.00000000 ]\n"
        "Max-min (Tissot axis a-b) scale error: 0.99960 0.99960\n\n")
    # leading 'I' flips a single line to inverse input
    rc, out = _run(["proj", "-V", "+proj=tmerc", "+ellps=WGS84",
                    "+k_0=0.9996", "+lon_0=9"], "I 500000 4982950\n")
    assert "Longitude: 15d19'28.535\"E" in out
    assert "Easting (x):   500000.000" in out


def test_cs2cs_lat_first_axis_order():
    """EPSG lat-first geographic CRSs consume and emit lat before lon
    (cs2cs.cpp:560-607 axis normalization)."""
    from rayproj.state import projdb

    if not projdb.available():
        pytest.skip("EPSG registry unavailable")
    rc, out = _run(["cs2cs", "-f", "%.2f", "EPSG:4326", "+to",
                    "EPSG:32612"], "42 -111.08 0\n")
    assert rc == 0
    x = float(out.split()[0])
    assert x == pytest.approx(493374.59, abs=0.5)
    # reverse direction prints lat first (DMS default, then -f decimal)
    rc, out = _run(["cs2cs", "EPSG:32612", "+to", "EPSG:4326"],
                   "500000 4649776.22 0\n")
    assert out.split("\t")[0].endswith("N")
    rc, out = _run(["cs2cs", "-f", "%.4f", "EPSG:32612", "+to",
                    "EPSG:4326"], "500000 4649776.22 0\n")
    lat, lon = map(float, out.split()[:2])
    assert lat == pytest.approx(42.0, abs=1e-3)
    assert lon == pytest.approx(-111.0, abs=1e-3)  # the central meridian


def test_proj_factors_on_error_rows():
    """-S prints the factor section even after oterr
    (proj.cpp:165-172 has no error guard)."""
    rc, out = _run(["proj", "-S", "+proj=merc", "+ellps=WGS84"],
                   "0 90\n0 10\n")
    lines = out.splitlines()
    assert lines[0] == "*\t*\t<* * * * * *>"
    assert lines[1].count("<") == 1 and "*" not in lines[1]


def test_geod_back_azimuth_flip():
    """geod prints the BACK azimuth: azi2 +/- 180
    (geod_interface.cpp:20,32)."""
    rc, out = _run(["geod", "-f", "%.5f", "+ellps=WGS84"],
                   "40.6 -73.8 51.19888 5551759.4\n")
    assert out.split()[2] == "-72.17822"


def test_dmstor_overflow_huge_val():
    """Numeric overflow propagates +HUGE_VAL with no consumption and
    no sign application (dmstor.cpp:53-54 via proj_strtod)."""
    from rayproj.core.dms import dmstor_prefix

    v, i = dmstor_prefix("-1e999 45")
    assert v == float("inf") and i == 0


def test_cct_record_numbered_errors():
    """cct error lines carry the 0-based record number; only a
    missing/unparseable x is UNREADABLE — a missing y is a
    TRANSFORMATION ERROR (cct.cpp:355-372 checks x only)."""
    rc, out = _run(["cct", "+proj=utm", "+zone=32"],
                   "12 55 0 0\nx 55\n12\n")
    lines = out.splitlines()
    assert lines[1] == "# Record 1 UNREADABLE: x 55"
    assert lines[2] == "# Record 2 TRANSFORMATION ERROR: 12"


def test_tmzoned_antimeridian_wrap():
    """EPSG 9824 zone index wraps modulo the zone count: lon=+180
    lands in zone 1, not zone 60."""
    from rayproj.core.factory import create_operation
    from rayproj.core.op import Coords, FWD

    op = create_operation("+proj=tmzoned +x_0=500000 +ellps=WGS84")
    c = Coords(np.radians([180.0, -180.0, 179.999]),
               np.radians([10.0, 10.0, 10.0]))
    op.trans(FWD, c)
    zones = np.floor(c.x / 1e6).astype(int)
    assert list(zones) == [1, 1, 60]


def test_cli_parquet_mode(tmp_path):
    """--parquet runs the same operation as a Ray Data map_batches
    pipeline over a parquet table — values equal the text path, error
    lanes ride in trans_err."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    lon = rng.uniform(6, 18, 200)
    lat = rng.uniform(-80, 84, 200)
    src = tmp_path / "in.parquet"
    dst = tmp_path / "out"
    pq.write_table(pa.table({"lon": lon, "lat": lat}), src)
    rc = cli.main(["proj", "--parquet", str(src), str(dst),
                   "+proj=utm", "+zone=33"])
    assert rc == 0
    out = pq.read_table(dst)
    from rayproj.core.factory import create_operation
    from rayproj.core.op import FWD, Coords

    op = create_operation("+proj=utm +zone=33")
    c = Coords(np.radians(lon), np.radians(lat))
    op.trans(FWD, c)
    got = out.to_pandas().sort_values("lon")
    import pandas as pd

    ref = pd.DataFrame({"lon": lon, "x": c.x, "y": c.y}).sort_values("lon")
    np.testing.assert_allclose(got["x"].to_numpy(), ref["x"].to_numpy(),
                               atol=1e-9)
    np.testing.assert_allclose(got["y"].to_numpy(), ref["y"].to_numpy(),
                               atol=1e-9)
    assert (got["trans_err"] == 0).all()


def test_geod_line_mode_zero_distance(capsys):
    # +S=0 is present (geod_set.cpp tests presence, not truthiness):
    # emit n_S+1 rows, all at the start point
    rc = cli.main([
        "geod", "+ellps=WGS84", "+lat_1=40", "+lon_1=-73", "+S=0",
        "+A=90", "+n_S=4",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln == "40dN\t73dW" for ln in lines)

"""Port of the reference's test/unit/pj_transform_test.cpp vectors
through this engine's cs2cs emulation (src.trans(INV) → dst.trans(FWD),
the 4D_api.cpp proj_create_crs_to_crs path).

Three vectors are adapted where the LEGACY pj_transform API diverges
from the reference's own 4D API (which this engine mirrors):
- longlat 182°: legacy preserves un-normalized longitudes; the 4D path
  adjlon-wraps to ±180.
- GRS80+towgs84=0,0,0 → WGS84: legacy pj_compare_datums treats GRS80
  and WGS84 as identical (es tolerance 5e-11, transform.cpp:1413-1418)
  and skips the datum step; the 4D rule (4D_api.cpp:82) is strict
  (es 1e-15), so the cart round-trip leaves ~1e-11 rad / 1e-4 m.
- ob_tran with +to_meter: legacy applies fr_meter to any non-radian
  output; 4D fwd.cpp leaves PJ_IO_UNITS_WHATEVER unscaled.
"""

import math
import os

import numpy as np
import pytest

import rayproj.core.resources as resources
from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, INV, Coords

D = math.pi / 180
REF_TESTS = "/root/reference/data/tests"


@pytest.fixture(scope="module", autouse=True)
def _grid_paths():
    resources.add_search_path(REF_TESTS)


def pj_transform(src, dst, x, y, z=0.0):
    s, d = create_operation(src), create_operation(dst)
    c = Coords(np.array([x]), np.array([y]), np.array([z]),
               np.array([0.0]), np.zeros(1, dtype=np.int32))
    s.trans(INV, c)
    d.trans(FWD, c)
    assert c.err[0] == 0
    return float(c.x[0]), float(c.y[0]), float(c.z[0])


LL = "+proj=longlat +datum=WGS84"

# (name, src, dst, (x, y, z), (exp_x, exp_y, exp_z|None, tol))
VECTORS = [
    ("longlat_to_longlat", LL, LL,
     (2 * D, 49 * D, 0), (2 * D, 49 * D, None, 1e-15)),
    ("longlat_to_proj", LL, "+proj=utm +zone=31 +datum=WGS84",
     (3 * D, 0, 0), (500000, 0, None, 1e-8)),
    ("longlat_to_proj_tometer", LL,
     "+proj=utm +zone=31 +datum=WGS84 +to_meter=1000",
     (3 * D, 0, 0), (500, 0, None, 1e-8)),
    ("proj_to_longlat", "+proj=utm +zone=31 +datum=WGS84", LL,
     (500000, 0, 0), (3 * D, 0, None, 1e-12)),
    ("proj_to_proj", "+proj=utm +zone=31 +datum=WGS84",
     "+proj=utm +zone=31 +datum=WGS84",
     (500000, 0, 0), (500000, 0, None, 1e-8)),
    ("longlat_to_geocent_x", "+proj=longlat +R=2", "+proj=geocent +R=2",
     (0, 0, 0), (2, 0, 0, 1e-8)),
    ("longlat_to_geocent_y", "+proj=longlat +R=2", "+proj=geocent +R=2",
     (90 * D, 0, 0), (0, 2, 0, 1e-8)),
    ("longlat_to_geocent_z", "+proj=longlat +R=2", "+proj=geocent +R=2",
     (0, 90 * D, 0.1), (0, 0, 2.1, 1e-8)),
    ("longlat_to_geocent_to_meter", "+proj=longlat +R=2",
     "+proj=geocent +R=2 +to_meter=1000",
     (0, 0, 0), (2e-3, 0, 0, 1e-8)),
    ("geocent_to_longlat", "+proj=geocent +R=2", "+proj=longlat +R=2",
     (0, 2, 0), (90 * D, 0, 0, 1e-12)),
    ("geocent_to_meter_to_longlat", "+proj=geocent +to_meter=1000 +R=2",
     "+proj=longlat +R=2",
     (0, 2e-3, 0), (90 * D, 0, 0, 1e-12)),
    ("pm", "+proj=longlat +pm=3 +datum=WGS84",
     "+proj=longlat +pm=1 +datum=WGS84",
     (2 * D, 49 * D, 0), ((2 + 3 - 1) * D, 49 * D, None, 1e-12)),
    ("longlat_geoc_to_longlat", "+proj=longlat +geoc +datum=WGS84", LL,
     (2 * D, 49 * D, 0),
     (2 * D, 48.809360314691766 * D, None, 1e-12)),
    ("longlat_to_longlat_geoc", LL, "+proj=longlat +geoc +datum=WGS84",
     (2 * D, 48.809360314691766 * D, 0),
     (2 * D, 49 * D, None, 1e-12)),
    ("ellps_to_ellps_noop", "+proj=longlat +ellps=clrk66",
     "+proj=longlat +ellps=WGS84",
     (2 * D, 49 * D, 0), (2 * D, 49 * D, None, 1e-12)),
    ("towgs84_3param_noop", "+proj=longlat +ellps=WGS84 +towgs84=1,2,3",
     "+proj=longlat +ellps=WGS84 +towgs84=1,2,3",
     (2 * D, 49 * D, 10), (2 * D, 49 * D, 10, 1e-8)),
    ("towgs84_7param_noop",
     "+proj=longlat +ellps=WGS84 +towgs84=1,2,3,4,5,6,7",
     "+proj=longlat +ellps=WGS84 +towgs84=1,2,3,4,5,6,7",
     (2 * D, 49 * D, 10), (2 * D, 49 * D, 10, 1e-8)),
    ("longlat_towgs84_3param_to_datum",
     "+proj=longlat +ellps=WGS84 +towgs84=0,1,0", LL,
     (90 * D, 0, 10), (90 * D, 0, 11, 1e-8)),
    ("longlat_towgs84_7param_to_datum",
     "+proj=longlat +ellps=WGS84 +towgs84=0,1,0,0,0,0,0.5", LL,
     (90 * D, 0, 10), (90 * D, 0, 14.189073500223458, 1e-8)),
    ("datum_to_longlat_towgs84_3param", LL,
     "+proj=longlat +ellps=WGS84 +towgs84=0,1,0",
     (90 * D, 0, 11), (90 * D, 0, 10, 1e-8)),
    ("datum_to_longlat_towgs84_7param", LL,
     "+proj=longlat +ellps=WGS84 +towgs84=0,1,0,0,0,0,0.5",
     (90 * D, 0, 14.189073500223458), (90 * D, 0, 10, 1e-8)),
    ("longlat_nadgrids_to_datum",
     "+proj=longlat +ellps=clrk66 +nadgrids=conus",
     "+proj=longlat +datum=NAD83",
     (-100 * D, 40 * D, 10),
     (-100.00040583667015 * D, 40.000005895651363 * D,
      10.000043224543333, 1e-12)),
    ("nadgrids_noop", "+proj=longlat +ellps=clrk66 +nadgrids=conus",
     "+proj=longlat +ellps=clrk66 +nadgrids=conus",
     (-100 * D, 40 * D, 10), (-100 * D, 40 * D, 10, 1e-15)),
    ("datum_to_longlat_nadgrids", "+proj=longlat +datum=NAD83",
     "+proj=longlat +ellps=clrk66 +nadgrids=conus",
     (-100.00040583667015 * D, 40.000005895651363 * D,
      10.000043224543333),
     (-100 * D, 40 * D, 10, 1e-12)),
    ("long_wrap", LL, "+proj=longlat +datum=WGS84 +lon_wrap=180",
     (-1 * D, 0, 0), (359 * D, 0, None, 1e-12)),
    ("src_vto_meter", "+proj=longlat +datum=WGS84 +vto_meter=1000", LL,
     (2 * D, 49 * D, 1), (2 * D, 49 * D, 1000, 1e-8)),
    ("dest_vto_meter", LL, "+proj=longlat +datum=WGS84 +vto_meter=1000",
     (2 * D, 49 * D, 1000), (2 * D, 49 * D, 1, 1e-8)),
    ("src_axis_neu", "+proj=longlat +datum=WGS84 +axis=neu", LL,
     (49 * D, 2 * D, 1), (2 * D, 49 * D, 1, 1e-12)),
    ("src_axis_swd", "+proj=longlat +datum=WGS84 +axis=swd", LL,
     (49 * D, 2 * D, -1), (-2 * D, -49 * D, 1, 1e-12)),
    ("dst_axis_neu", LL, "+proj=longlat +datum=WGS84 +axis=neu",
     (2 * D, 49 * D, 1), (49 * D, 2 * D, 1, 1e-12)),
    ("dst_axis_swd", LL, "+proj=longlat +datum=WGS84 +axis=swd",
     (2 * D, 49 * D, 1), (-49 * D, -2 * D, -1, 1e-12)),
    ("init_epsg", "+init=epsg:4326", "+init=epsg:32631",
     (3 * D, 0, 0), (500000, 0, None, 1e-8)),
]


_needs_conus = pytest.mark.skipif(
    not os.path.isfile(os.path.join(REF_TESTS, "conus")),
    reason="reference grid conus not available")


@pytest.mark.parametrize("name,src,dst,inp,exp", [
    pytest.param(*v, id=v[0],
                 marks=[_needs_conus] if "nadgrids=conus" in v[1] + v[2] else [])
    for v in VECTORS])
def test_pj_transform_vector(name, src, dst, inp, exp):
    x, y, z = pj_transform(src, dst, *inp)
    ex, ey, ez, tol = exp
    assert x == pytest.approx(ex, abs=tol)
    assert y == pytest.approx(ey, abs=tol)
    if ez is not None:
        assert z == pytest.approx(ez, abs=max(tol, 1e-8))


def test_longlat_to_longlat_wraps_182():
    """Adapted: legacy pj_transform preserved 182°; the 4D path (and
    this engine) normalizes longitudes to ±180."""
    x, y, _ = pj_transform(LL, LL, 182 * D, 49 * D)
    assert x == pytest.approx(-178 * D, abs=1e-12)
    assert y == pytest.approx(49 * D, abs=1e-12)


def test_ellps_grs80_towgs84_to_datum_wgs84():
    """Adapted: under the 4D rule GRS80 != WGS84 (es differs by
    3.3e-11 > the strict 1e-15 of 4D_api.cpp:82), so the null shift
    runs a cart round-trip between the two ellipsoids; legacy
    pj_compare_datums would have skipped it entirely."""
    x, y, z = pj_transform("+proj=longlat +ellps=GRS80 +towgs84=0,0,0",
                           LL, 2 * D, 49 * D, 10)
    assert x == pytest.approx(2 * D, abs=1e-12)
    assert y == pytest.approx(49 * D, abs=2e-11)
    assert z == pytest.approx(10, abs=1e-4)


def test_ob_tran_to_meter():
    """Adapted: ob_tran linked to an angular o_proj has WHATEVER output
    units; the 4D fwd/inv path leaves those unscaled by to_meter
    (fwd.cpp:104-110) where legacy pj_transform applied fr_meter."""
    eqc_deg = ("+ellps=WGS84 +a=57.29577951308232 +proj=eqc +lon_0=0.0 "
               "+no_defs")
    ob_tran = ("+ellps=WGS84 +proj=ob_tran +o_proj=latlon +o_lon_p=0.0 "
               "+o_lat_p=90.0 +lon_0=360.0 "
               "+to_meter=0.0174532925199433 +no_defs")
    # dest: rotated latlon comes out in radians (identity rotation)
    x, y, _ = pj_transform(eqc_deg, ob_tran, 2 * D, 49 * D)
    assert x == pytest.approx(2 * D * D, abs=1e-12)
    assert y == pytest.approx(49 * D * D, abs=1e-12)
    # source: the eqc degree-sphere re-scales the angle by a
    x, y, _ = pj_transform(ob_tran, eqc_deg, 2 * D, 49 * D)
    assert x == pytest.approx(2.0, abs=1e-9)
    assert y == pytest.approx(49.0, abs=1e-9)

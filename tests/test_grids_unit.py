"""Port of the reference's test/unit/test_grids.cpp (9 tests).

Drives the same data/tests fixtures through this engine's grid layer:
null grids, GTX nodata, GeoTIFF horizontal grids (x=0 western-most,
y=0 southern-most, valueAt → (lonShift, latShift)), generic grids
with per-sample metadata, subgrid hierarchies, and projected extents.
"""

import math
import os

import numpy as np
import pytest

from rayproj.core.errors import ERR_FAILED_TO_LOAD_GRID, ProjError
from rayproj.state.grids import (
    open_generic_set,
    open_hgrid_set,
    open_vgrid_set,
)

D = math.pi / 180
TESTS = "/root/reference/data/tests/"


def needs_files(*names):
    """Skip unless every named reference test-data file is present."""
    missing = [n for n in names if not os.path.isfile(TESTS + n)]
    return pytest.mark.skipif(
        bool(missing), reason=f"reference grid files not available: {missing}")


def grid_at(sets, lam, phi):
    """gridAt semantics: first containing top grid, descend subgrids."""
    la, ph = np.array([lam]), np.array([phi])
    for top in sets:
        if not top.contains(la, ph)[0]:
            continue
        g = top
        descended = True
        while descended:
            descended = False
            for ch in getattr(g, "children", []):
                if ch.contains(la, ph)[0]:
                    g = ch
                    descended = True
                    break
        return g
    return None


def test_vertical_shift_grid_set_null():
    gs = open_vgrid_set("null")
    g = grid_at(gs, 0.0, 0.0)
    assert g is not None
    assert g.width == 3
    assert g.height == 3
    assert g.west == -math.pi
    assert g.is_null
    assert g.values[0, 0] == 0.0
    assert not g.is_nodata(np.array([np.float32(0.0)]), 0.0)[0]


@needs_files("test_nodata.gtx")
def test_vertical_shift_grid_set_gtx():
    with pytest.raises(ProjError) as exc:
        open_vgrid_set(TESTS + "foobar")
    assert exc.value.code == ERR_FAILED_TO_LOAD_GRID
    gs = open_vgrid_set(TESTS + "test_nodata.gtx")
    assert grid_at(gs, -100, -100) is None
    g = grid_at(gs, 4.15 * D, 52.15 * D)
    assert g is not None
    assert g.is_nodata(np.array([np.float32(-88.8888)]), 1.0)[0]


def test_horizontal_shift_grid_set_null():
    gs = open_hgrid_set("null")
    g = grid_at(gs, 0.0, 0.0)
    assert g is not None
    assert g.width == 3
    assert g.height == 3
    assert g.west == -math.pi
    assert g.is_null
    assert g.lon_shift[0, 0] == 0.0
    assert g.lat_shift[0, 0] == 0.0


@needs_files("test_hgrid.tif")
def test_horizontal_shift_grid_set_gtiff():
    gs = open_hgrid_set(TESTS + "test_hgrid.tif")
    assert len(gs) == 1
    assert grid_at(gs, -100, -100) is None
    g = grid_at(gs, 5.5 * D, 53.5 * D)
    assert g is not None
    assert g.width == 4
    assert g.height == 4
    assert g.west == 4.0 * D
    assert not g.is_null
    # valueAt(x=0, y=3): y=0 is the southern-most line; row 3 col 0.
    # lonShift 14400 arcsec, latShift 900 arcsec (already east-positive)
    assert np.float32(g.lon_shift[3, 0]) == np.float32(14400.0 / 3600 * D)
    assert np.float32(g.lat_shift[3, 0]) == np.float32(900.0 / 3600 * D)


def test_generic_shift_grid_set_null():
    gs = open_generic_set("null")
    g = grid_at(gs, 0.0, 0.0)
    assert g is not None
    assert g.width == 3
    assert g.height == 3
    assert g.west == -math.pi
    assert g.is_null
    assert g.samples[0][0, 0] == 0.0
    assert g.units[0] == ""
    assert g.descs[0] == ""
    assert g.metadata_item("foo") == ""


@needs_files("nkgrf03vel_realigned_extract.tif")
def test_generic_shift_grid_set_gtiff():
    with pytest.raises(ProjError):
        open_generic_set(TESTS + "foobar")
    gs = open_generic_set(TESTS + "nkgrf03vel_realigned_extract.tif")
    assert grid_at(gs, -100, -100) is None
    g = grid_at(gs, 21.3333333 * D, 63.0 * D)
    assert g is not None
    assert g.width == 5
    assert g.height == 5
    assert abs(g.west - 21.0 * D) < 1e-12
    assert not g.is_null
    assert g.metadata_item("area_of_use") == "Nordic and Baltic countries"
    assert g.metadata_item("non_existing") == ""
    assert g.metadata_item("non_existing", 1) == ""
    assert g.metadata_item("non_existing", 10) == ""


@needs_files("test_hgrid_with_subgrid.tif")
def test_generic_shift_grid_set_gtiff_with_subgrid():
    gs = open_generic_set(TESTS + "test_hgrid_with_subgrid.tif")
    assert grid_at(gs, -100, -100) is None
    g = grid_at(gs, -115.5416667 * D, 51.1666667 * D)
    assert g is not None
    assert g.width == 11
    assert g.height == 21
    assert g.metadata_item("grid_name") == "ALbanff"


@needs_files("test_hgrid_with_two_level_of_subgrids_no_grid_name.tif")
def test_generic_gtiff_two_level_subgrids_no_grid_name():
    gs = open_generic_set(
        TESTS + "test_hgrid_with_two_level_of_subgrids_no_grid_name.tif")
    assert grid_at(gs, -100, -100) is None
    g = grid_at(gs, -45.5 * D, 22.5 * D)
    assert g is not None
    assert g.width == 8
    assert g.height == 8


@needs_files("test_3d_grid_projected.tif")
def test_generic_shift_grid_set_gtiff_projected():
    gs = open_generic_set(TESTS + "test_3d_grid_projected.tif")
    assert grid_at(gs, -1000, -1000) is None
    g = grid_at(gs, 1500300.0, 5400300.0)
    assert g is not None
    assert g.width == 2
    assert g.height == 2
    assert g.west == 1500000.0
    assert g.east == 1501000.0
    assert g.south == 5400000.0
    assert g.north == 5401000.0
    assert g.res_x == 1000
    assert g.res_y == 1000


@needs_files("test_hgrid.tif", "../CMakeLists.txt", "conus", "ntv1_can.dat",
             "ntv2_0_downsampled.gsb", "egm96_15_downsampled.gtx")
def test_grid_info():
    """gie_self_tests.cpp:386-396 proj_grid_info: resolved path +
    format for a real grid; empty filename for a missing name and for
    a file that is not a grid."""
    import rayproj.core.resources as resources

    from rayproj.state.grids import grid_info

    resources.add_search_path(TESTS)
    gi = grid_info("test_hgrid.tif")
    assert gi.filename != ""
    assert gi.gridname == "test_hgrid.tif"
    assert gi.format == "gtiff"
    assert (gi.n_lon, gi.n_lat) == (4, 4)

    assert grid_info("nonexistinggrid").filename == ""
    # exists but is not a grid
    assert grid_info("../CMakeLists.txt").filename == ""

    assert grid_info("conus").format == "ctable2"
    assert grid_info("ntv1_can.dat").format == "ntv1"
    assert grid_info("ntv2_0_downsampled.gsb").format == "ntv2"
    assert grid_info("egm96_15_downsampled.gtx").format == "gtx"


def test_synthesized_geotiff_round_trip(tmp_path):
    """gridfixtures.geotiff_bytes (the defmodel fixture's writer) read
    back through the generic GeoTIFF layer: node grid extent, south-first
    row order, per-sample values and DESCRIPTION/UNITTYPE metadata."""
    from rayproj.pipelines.gridfixtures import geotiff_bytes

    h, w = 3, 4
    planes = np.empty((h, w, 2), dtype=np.float32)
    planes[:, :, 0] = np.arange(h * w).reshape(h, w)  # north-first rows
    planes[:, :, 1] = -planes[:, :, 0]
    path = tmp_path / "synth.tif"
    path.write_bytes(geotiff_bytes(planes, 10.0, 50.0, 0.5,
                                   [("east_offset", "degree"),
                                    ("vertical_offset", "metre")]))
    gs = open_generic_set(str(path))
    g = grid_at(gs, 11.0 * D, 49.5 * D)
    assert g is not None
    assert (g.width, g.height) == (w, h)
    assert g.west == pytest.approx(10.0 * D)
    assert g.east == pytest.approx(11.5 * D)
    assert g.south == pytest.approx(49.0 * D)
    assert g.north == pytest.approx(50.0 * D)
    assert g.res_x == pytest.approx(0.5 * D)
    assert g.descs == ["east_offset", "vertical_offset"]
    assert g.units == ["degree", "metre"]
    # row 0 is the southern-most line: the file's last (north-first) row
    assert list(g.samples[0][0]) == [8.0, 9.0, 10.0, 11.0]
    assert list(g.samples[1][h - 1]) == [0.0, -1.0, -2.0, -3.0]

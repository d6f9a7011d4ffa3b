"""Per-point operation selection (4D_api.cpp:204-376): bbox+accuracy
candidate choice, grid-miss retry (the reference's lon=-111.5
lat=45.26 ntv2-bbox-but-conus-point case), grid-free fallback.

Candidate choice depends only on the explicit bboxes, the accuracies
and needs_grids; the selection tests therefore build both grid-backed
candidates over the in-repo hgridshift fixture. Only the retry test
needs the reference's real grids (the NTv2 subgrid hole and the conus
shift)."""

import os

import numpy as np
import pytest

import rayproj.core.resources as resources
from rayproj import AltOperation, Coords, FWD, RoutedOperation, create_operation
from rayproj.core.altops import suggest_operations
from rayproj.core.constants import DEG_TO_RAD
from rayproj.pipelines import gridfixtures

D = DEG_TO_RAD
REF_TESTS = "/root/reference/data/tests"


@pytest.fixture(scope="module", autouse=True)
def _paths():
    resources.add_search_path(REF_TESTS)
    gridfixtures.ensure_fixtures()


def _alts(ntv2_grid=gridfixtures.HG_PATH, conus_grid=gridfixtures.HG_PATH):
    # Canadian NTv2 grid (covers Canada; its bbox spills into the US)
    ntv2 = AltOperation(
        op=create_operation(f"+proj=hgridshift +grids={ntv2_grid}"),
        name="ntv2", accuracy=1.0, needs_grids=True,
        minx_src=-142 * D, miny_src=40 * D, maxx_src=-47 * D, maxy_src=84 * D,
        minx_dst=-142 * D, miny_dst=40 * D, maxx_dst=-47 * D, maxy_dst=84 * D,
    )
    conus = AltOperation(
        op=create_operation(f"+proj=hgridshift +grids={conus_grid}"),
        name="conus", accuracy=5.0, needs_grids=True,
        minx_src=-125 * D, miny_src=24 * D, maxx_src=-66 * D, maxy_src=50 * D,
        minx_dst=-125 * D, miny_dst=24 * D, maxx_dst=-66 * D, maxy_dst=50 * D,
    )
    fallback = AltOperation(
        op=create_operation("+proj=noop"), name="null", accuracy=-1.0,
    )
    return [ntv2, conus, fallback]


def test_suggest_prefers_best_accuracy():
    alts = _alts()
    x = np.array([-111.5 * D, -75.0 * D, 10.0 * D])
    y = np.array([45.26 * D, 55.0 * D, 0.0 * D])
    best = suggest_operations(alts, FWD, x, y)
    # point 1: in both bboxes -> ntv2 (better accuracy 1.0 < 5.0)
    # point 2: Canada only -> ntv2; point 3: neither bbox -> fallback (idx 2)
    assert list(best) == [0, 0, 2]


@pytest.mark.skipif(
    not all(os.path.isfile(os.path.join(REF_TESTS, g))
            for g in ("ntv2_0_downsampled.gsb", "conus")),
    reason="reference grids ntv2_0_downsampled.gsb / conus not available")
def test_retry_selects_conus_for_us_point():
    alts = _alts("ntv2_0_downsampled.gsb", "conus")
    routed = RoutedOperation(alts)
    # the reference's canonical retry point: inside ntv2 bbox, outside
    # its subgrids (it is in the US) -> retry must pick conus
    c = Coords(np.array([-111.5 * D, -66.0 * D]), np.array([45.26 * D, 50.0 * D]))
    routed.trans(FWD, c)
    assert list(routed.last_chosen) == [1, 0]
    assert (c.err == 0).all()
    # conus actually shifted the point (NAD27->NAD83 is tens of metres)
    assert abs(c.x[0] - (-111.5 * D)) * 6.4e6 > 1.0


def test_fallback_grid_free():
    alts = _alts()
    routed = RoutedOperation(alts)
    c = Coords(np.array([10.0 * D]), np.array([0.0 * D]))  # no bbox matches
    routed.trans(FWD, c)
    assert routed.last_chosen[0] == 2
    assert c.err[0] == 0 and c.x[0] == pytest.approx(10.0 * D)


def test_no_fallback_errors():
    alts = _alts()[:2]
    routed = RoutedOperation(alts)
    c = Coords(np.array([10.0 * D]), np.array([0.0 * D]))
    routed.trans(FWD, c)
    assert c.err[0] != 0 and np.isinf(c.x[0])

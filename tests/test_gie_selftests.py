"""Port of the reference's gie_self_tests.cpp crs-to-crs and
trans-generic vector tests (lines 246-325, 677-805).

Conventions: this engine's create_crs_to_crs takes radians in
lon,lat (GIS) order — authority axis normalization is the CLI layer's
job (crs_is_lat_first), pinned separately by the cs2cs corpus tests.
"""

import math

import numpy as np
import pytest

from rayproj.core.errors import ProjError
from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, INV, Coords
from rayproj.state import projdb
from rayproj.state.projdb import create_crs_to_crs

D = math.pi / 180
GRAD = math.pi / 200

needs_registry = pytest.mark.skipif(
    not projdb.available(), reason="EPSG SQL scripts not available")


def _trans(op, direction, x, y, z=0.0, t=np.inf):
    c = Coords(np.array([x]), np.array([y]), np.array([z]),
               np.array([t]), np.zeros(1, dtype=np.int32))
    r = op.trans(direction, c)
    assert r.err[0] == 0
    return float(r.x[0]), float(r.y[0])


@needs_registry
def test_proj_create_crs_to_crs():
    """gie_self_tests.cpp:246-279: ETRS89 UTM32 → UTM33."""
    op = create_crs_to_crs("epsg:25832", "epsg:25833")
    x, y = _trans(op, FWD, 700000.0, 6000000.0)
    assert x == pytest.approx(307788.8761171057, abs=1e-8)
    assert y == pytest.approx(5999669.3036037628, abs=1e-8)

    # proj strings are also usable as CRS ends (through the factory —
    # the cs2cs emulation layer owns proj-string pairs)
    assert create_operation("proj=utm +zone=32 +datum=WGS84") is not None
    assert create_operation("proj=utm +zone=33 +datum=WGS84") is not None

    # invalid ends fail cleanly (reference: nullptr)
    with pytest.raises((KeyError, ProjError)):
        create_crs_to_crs("invalid", "EPSG:25833")
    with pytest.raises((KeyError, ProjError)):
        create_crs_to_crs("EPSG:25832", "invalid")


@needs_registry
def test_proj_create_crs_to_crs_epsg_4326():
    """gie_self_tests.cpp:283-302: 3E 0N → UTM 31N origin."""
    op = create_crs_to_crs("EPSG:4326", "EPSG:32631")
    x, y = _trans(op, FWD, 3.0 * D, 0.0)
    assert x == pytest.approx(500000.0, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-9)


@needs_registry
def test_proj_create_crs_to_crs_pulkovo42_etrs89():
    """gie_self_tests.cpp:677-755: per-point Helmert selection.

    Romania and Poland fall in different usage extents, so the routed
    operation must pick the area-specific 7-parameter Helmert for each
    point (coordinate_frame for Romania, position_vector for Poland).
    """
    op = create_crs_to_crs("EPSG:4179", "EPSG:4258")

    # Romania
    x, y = _trans(op, FWD, 25.0 * D, 45.0 * D)
    assert y / D == pytest.approx(44.999701238, abs=1e-9)
    assert x / D == pytest.approx(24.998474948, abs=1e-9)
    xi, yi = _trans(op, INV, x, y)
    assert yi / D == pytest.approx(45.0, abs=1e-8)
    assert xi / D == pytest.approx(25.0, abs=1e-8)

    # Poland picks a different Helmert
    x, y = _trans(op, FWD, 20.0 * D, 52.0 * D)
    assert y / D == pytest.approx(51.999714150, abs=1e-9)
    assert x / D == pytest.approx(19.998187811, abs=1e-9)


@needs_registry
def test_proj_create_crs_to_crs_outside_area_of_use():
    """gie_self_tests.cpp:757-777 (#1329): NTF → NTF (Paris) at a point
    outside every candidate's area of use still applies the ballpark
    longitude rotation; output in grads.

    Longitude tolerance is 4e-9 grads instead of the reference's 1e-9:
    we rotate by EPSG's exact Paris meridian (2.5969213 grads) where
    the reference uses its DMS constant 2d20'14.025"E — the two differ
    by ~1.2e-9 degrees.
    """
    op = create_crs_to_crs("EPSG:4275", "EPSG:4807")
    x, y = _trans(op, FWD, 5.0 * D, 58.0 * D)
    assert y / GRAD == pytest.approx(64.44444444444444, abs=1e-9)
    assert x / GRAD == pytest.approx(2.958634259259258, abs=4e-9)


def test_proj_trans_generic_time_unknown_noop():
    """gie_self_tests.cpp:780-805: a time-dependent Helmert with only
    rate terms is a no-op when t is unknown (inf) — GDA2020 → WGS84
    (G1762) at the 2020 epoch."""
    op = create_operation(
        "+proj=pipeline +step +proj=axisswap +order=2,1 "
        "+step +proj=unitconvert +xy_in=deg +xy_out=rad "
        "+step +proj=cart +ellps=GRS80 "
        "+step +proj=helmert +x=0 +y=0 +z=0 +rx=0 +ry=0 +rz=0 +s=0 "
        "+dx=0 +dy=0 +dz=0 +drx=-0.00150379 +dry=-0.00118346 "
        "+drz=-0.00120716 +ds=0 +t_epoch=2020 "
        "+convention=coordinate_frame "
        "+step +inv +proj=cart +ellps=WGS84 "
        "+step +proj=unitconvert +xy_in=rad +xy_out=deg "
        "+step +proj=axisswap +order=2,1")
    lat, lon = _trans(op, FWD, -60.0, 120.0)
    assert lat == pytest.approx(-60.0, abs=1e-9)
    assert lon == pytest.approx(120.0, abs=1e-9)

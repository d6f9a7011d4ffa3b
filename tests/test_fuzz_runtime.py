"""Runtime kernel robustness sweep over the FULL operator registry.

The reference's dispatchers guarantee that proj_trans never throws:
out-of-domain points come back as proj_coord_error with a per-point
errno (fwd.cpp / inv.cpp error paths, pj_fwd4d/pj_inv4d). This sweep
holds every registered operator to the same contract — construct it,
push an adversarial coordinate batch (poles, out-of-range angles,
huge magnitudes, subnormals, nan, ±inf) through BOTH directions plus
a fwd→inv chain, and assert no Python exception escapes ``trans``.

Plan-time parser fuzz lives in test_fuzz_parsers.py; this is the
runtime half (the reference fuzzes it via standard_fuzzer.cpp's
proj_trans calls over arbitrary coordinates).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rayproj.core.errors import ProjError

from rayproj.core import resources
from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, INV, Coords
from rayproj.ops import REGISTRY, load_all
from rayproj.pipelines import gridfixtures

resources.add_search_path("/root/reference/data")
resources.add_search_path("/root/reference/data/tests")
load_all()
gridfixtures.ensure_fixtures()
gridfixtures.ensure_tin()
gridfixtures.ensure_deformation_fixtures()

# plan-time failures with a defined shape (see test_fuzz_parsers.ALLOWED)
ALLOWED = (ProjError, ValueError, KeyError, NotImplementedError, OSError)

# Generic parameter candidates tried in order; the first that constructs
# wins. Covers ellipsoidal + spherical forms and the common mandatory
# conic/oblique/satellite parameters.
_GENERIC = [
    "+ellps=GRS80",
    "+ellps=sphere",
    "+ellps=GRS80 +lat_1=30 +lat_2=60 +lat_0=40 +lon_0=10",
    "+ellps=sphere +lat_1=30 +lat_2=60 +lat_0=40 +lon_0=10",
    "+ellps=GRS80 +lat_1=30 +lat_2=60 +lat_0=40 +lat_ts=30 +lon_0=10"
    " +h=1000000 +o_proj=longlat +o_lat_p=45 +o_lon_p=20",
    "+ellps=sphere +lat_1=30 +lat_ts=30 +lon_0=10 +h=1000000"
    " +o_proj=longlat +o_lat_p=45 +o_lon_p=20 +n=0.5 +m=0.5 +W=2 +M=1"
    " +q=0.5 +alpha=30 +lonc=10 +zone=31",
]

# Operators whose mandatory parameters the generic candidates can't
# satisfy. Grids/models first point at the reference's own public test
# data (already used by the gie-conformance fixtures), then at the
# in-repo fixtures of rayproj.pipelines.gridfixtures, so the grid
# operators construct wherever the reference data is absent.
_SPECIAL = {
    "axisswap": ["+order=2,1"],
    "sch": ["+ellps=WGS84 +plat_0=30 +plon_0=45 +phdg_0=-12"],
    "lsat": ["+ellps=GRS80 +lsat=1 +path=1"],
    "misrsom": ["+ellps=GRS80 +path=1"],
    "molodensky": [
        "+ellps=intl +da=-251 +df=-1.41927e-05 +dx=-84 +dy=-97 +dz=-117",
        "+ellps=intl +da=-251 +df=-1.41927e-05 +dx=-84 +dy=-97 +dz=-117"
        " +abridged",
    ],
    "molobadekas": [
        "+ellps=GRS80 +x=0.0 +y=0.0 +z=0.0 +rx=-0.02 +ry=0.01 +rz=0.01"
        " +s=0.001 +px=3e6 +py=1e6 +pz=5e6 +convention=coordinate_frame",
    ],
    "horner": [
        "+ellps=intl +range=500000 +fwd_origin=0,0 +inv_origin=0,0 +deg=1"
        " +fwd_u=0,1,0 +fwd_v=0,0,1 +inv_u=0,1,0 +inv_v=0,0,1",
    ],
    "hgridshift": ["+grids=ntv2_0_downsampled.gsb",
                   f"+grids={gridfixtures.HG_PATH}"],
    "vgridshift": ["+grids=egm96_15_downsampled.gtx",
                   f"+grids={gridfixtures.VG_PATH}"],
    "xyzgridshift": [
        "+grids=subset_of_gr3df97a.tif +grid_ref=output_crs +ellps=GRS80",
        "+grids=subset_of_gr3df97a.tif +ellps=GRS80",
    ],
    "deformation": [
        "+xy_grids=nkgrf03vel_realigned_xy_extract.ct2"
        " +z_grids=nkgrf03vel_realigned_z_extract.gtx +t_epoch=2016.0"
        " +ellps=GRS80",
        "+grids=nkgrf03vel_realigned_extract.tif +t_epoch=2016.0"
        " +ellps=GRS80",
        f"+xy_grids={gridfixtures.DEF_HG_PATH}"
        f" +z_grids={gridfixtures.DEF_VG_PATH} +t_epoch=2016.0 +ellps=GRS80",
    ],
    "defmodel": [
        "+model=/root/reference/data/tests/simple_model_metre_3d.json"
        " +ellps=GRS80",
        f"+model={gridfixtures.DEFMODEL_PATH} +ellps=GRS80",
    ],
    "tinshift": [
        "+file=/root/reference/data/tests/tinshift_simplified_kkj_etrs.json"
        " +ellps=GRS80",
        f"+file={gridfixtures.TIN_PATH} +ellps=GRS80",
    ],
}


def _build(name):
    for extra in _SPECIAL.get(name, []) + _GENERIC:
        try:
            return create_operation(f"+proj={name} {extra}")
        except Exception:
            continue
    return None


def _adversarial_angular() -> Coords:
    """lon/lat-ish radians batch: normal points, poles, just-beyond
    limits, wrap candidates, huge, tiny, nan, ±inf."""
    lon = np.array([0.0, 0.2, -0.2, 1.0, -1.0, np.pi, -np.pi, 3.2, -3.2,
                    np.pi / 2, 2 * np.pi, 1e10, -1e10, 1e-300, -1e-300,
                    np.nan, np.inf, -np.inf, 0.5, 0.5, 0.5, 0.5])
    lat = np.array([0.0, 0.7, -0.7, 1.5, -1.5, np.pi / 2, -np.pi / 2,
                    1.6, -1.6, 0.0, 0.3, 1e10, -1e10, 1e-300, -1e-300,
                    0.5, 0.5, 0.5, np.nan, np.inf, -np.inf, 1.5707963267])
    z = np.array([0.0, 100.0, -100.0, 1e4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                  0.0, 1e300, -1e300, 0.0, 0.0, np.nan, np.inf, -np.inf,
                  0.0, 0.0, 0.0, 0.0])
    t = np.array([2018.5, 2000.0, 2020.0, 0.0, -1e6, 2018.5, 2018.5,
                  2018.5, 2018.5, 2018.5, 2018.5, 2018.5, 2018.5, 2018.5,
                  2018.5, np.nan, np.inf, -np.inf, 2018.5, 2018.5,
                  2018.5, 2018.5])
    return Coords(lon, lat, z, t)


def _adversarial_projected() -> Coords:
    """easting/northing-ish batch with the same pathologies."""
    x = np.array([0.0, 1e5, -1e5, 5e5, 1e6, 1e7, -1e7, 2e7, -2e7, 1234.5,
                  1e300, -1e300, 1e-300, np.nan, np.inf, -np.inf, 3e6,
                  3e6, 3e6, 3e6])
    y = np.array([0.0, 1e5, -1e5, 6e6, 1e6, 1e7, -1e7, 2e7, -2e7, 6789.0,
                  1e300, -1e300, 1e-300, 3e6, 3e6, 3e6, np.nan, np.inf,
                  -np.inf, 5e6])
    z = np.zeros(len(x))
    z[[10, 13]] = [1e300, np.nan]
    t = np.full(len(x), 2018.5)
    t[[14, 15]] = [np.inf, np.nan]
    return Coords(x, y, z, t)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_trans_never_raises(name):
    if name == "pipeline":
        pytest.skip("factory special case; fuzzed via crs_to_crs pairs")
    op = _build(name)
    if op is None:
        pytest.skip(f"{name}: no candidate parameter set constructs")
    fwd_in = (_adversarial_angular()
              if op.angular_input(FWD) or op.degree_input(FWD)
              else _adversarial_projected())
    out = op.trans(FWD, fwd_in.copy())
    for arr in (out.x, out.y, out.z):
        assert arr.dtype == np.float64 and len(arr) == len(fwd_in)
    # chain the forward result back through the inverse, then a raw
    # adversarial batch in the inverse's own input units
    op.trans(INV, out)
    inv_in = (_adversarial_angular()
              if op.angular_input(INV) or op.degree_input(INV)
              else _adversarial_projected())
    op.trans(INV, inv_in)


_PARAM_KEYS = [
    "lat_0", "lat_1", "lat_2", "lat_ts", "lon_0", "k_0", "x_0", "y_0",
    "R", "a", "rf", "es", "h", "n", "m", "W", "M", "q", "alpha", "lonc",
    "azi", "tilt", "o_lat_p", "o_lon_p", "o_lat_c", "o_lon_c", "theta",
    "lat_b", "lsat", "path", "zone", "plat_0", "plon_0", "phdg_0",
]
_PARAM_VALS = [
    "0", "1", "-1", "90", "-90", "89.999999", "-89.999999", "45", "30",
    "-30", "60", "180", "-180", "360", "720", "0.5", "2", "0.9999",
    "1e-12", "-1e-12", "1e12", "6378137", "0.0818191908426215",
    "298.257", "nan", "inf", "-inf",
]


@settings(max_examples=int(os.environ.get("FUZZ_EXAMPLES", "150")),
          deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_random_params_construct_then_trans_never_raises(data):
    """Random numeric parameter combos per operator: construction may
    fail with a defined error (the reference returns NULL + errno for
    e.g. conic lat_1 = -lat_2), but whenever construction SUCCEEDS the
    resulting kernel inherits the full trans contract — adversarial
    batches through both directions without a Python exception."""
    name = data.draw(st.sampled_from(sorted(REGISTRY)))
    if name == "pipeline":
        return
    nparams = data.draw(st.integers(min_value=0, max_value=6))
    toks = []
    for _ in range(nparams):
        k = data.draw(st.sampled_from(_PARAM_KEYS))
        v = data.draw(st.sampled_from(_PARAM_VALS))
        toks.append(f"+{k}={v}")
    base = data.draw(st.sampled_from(
        _SPECIAL.get(name, []) + _GENERIC))
    s = f"+proj={name} {base} {' '.join(toks)}"
    try:
        op = create_operation(s)
    except ALLOWED:
        return
    for coo in (_adversarial_angular(), _adversarial_projected()):
        op.trans(FWD, coo.copy())
        op.trans(INV, coo.copy())


def test_defmodel_missing_grid_poisons_not_raises(tmp_path):
    """A component grid that fails to open at evaluation time fails the
    point (defmodel_impl.hpp:931-934: iface.open -> nullptr -> return
    false -> proj_coord_error); it must not throw out of trans."""
    import json

    doc = gridfixtures.defmodel_doc()
    for comp in doc["components"]:
        comp["spatial_model"]["filename"] = "no_such_grid_anywhere.tif"
    path = tmp_path / "broken_model.json"
    path.write_text(json.dumps(doc))
    op = create_operation(f"+proj=defmodel +model={path} +ellps=GRS80")
    # the model is geographic: a radian point inside its extent and time
    # extent, so the failure comes from the grid open, not an extent miss
    coo = Coords(np.array([0.2]), np.array([0.5]),
                 np.zeros(1), np.array([2018.5]))
    op.trans(FWD, coo)
    assert coo.err[0] != 0 and np.isinf(coo.x[0])


def test_registry_sweep_is_representative():
    """The sweep must actually cover the registry — if candidate
    construction regresses, fail loudly instead of skipping silently."""
    built = [n for n in sorted(REGISTRY) if n != "pipeline"
             and _build(n) is not None]
    assert len(built) >= 175, (len(built), "constructed")

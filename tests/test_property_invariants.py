"""Property-based invariants (hypothesis) over randomized inputs.

The gie/GIGS corpora pin fixed vectors; these properties pin the
algebra itself on inputs the corpora never generate: random ellipsoid
shapes, random Helmert parameter draws, random TIN geometries and
random polygon layers. Tolerances mirror the reference's own
round-trip expectations (sub-mm on coordinates, 1e-9 rad on angles).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rayproj.core.constants import M_HALFPI
from rayproj.core.factory import create_operation
from rayproj.core.op import FWD, INV, Coords

COMMON = dict(deadline=None, max_examples=25)


@settings(**COMMON)
@given(
    rf=st.floats(min_value=150.0, max_value=1500.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cart_roundtrip_random_ellipsoid(rf, seed):
    """cart fwd∘inv is identity (sub-µm / 1e-12 rad) for any sane
    ellipsoid flattening, away from the polar fallback band."""
    op = create_operation(f"+proj=cart +a=6378137 +rf={rf}")
    rng = np.random.default_rng(seed)
    n = 512
    lam = rng.uniform(-np.pi, np.pi, n)
    phi = rng.uniform(-M_HALFPI + 1e-5, M_HALFPI - 1e-5, n)
    h = rng.uniform(-5e3, 9e5, n)
    coo = Coords(lam.copy(), phi.copy(), h.copy())
    op._fwd(coo)
    op._inv(coo)
    np.testing.assert_allclose(coo.x, lam, atol=1e-12)
    np.testing.assert_allclose(coo.y, phi, atol=1e-12)
    np.testing.assert_allclose(coo.z, h, atol=1e-6)


@settings(**COMMON)
@given(
    x=st.floats(min_value=-1000, max_value=1000),
    y=st.floats(min_value=-1000, max_value=1000),
    z=st.floats(min_value=-1000, max_value=1000),
    rx=st.floats(min_value=-10, max_value=10),
    ry=st.floats(min_value=-10, max_value=10),
    rz=st.floats(min_value=-10, max_value=10),
    s=st.floats(min_value=-50, max_value=50),
    exact=st.booleans(),
    conv=st.sampled_from(["position_vector", "coordinate_frame"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_helmert_roundtrip(x, y, z, rx, ry, rz, s, exact, conv, seed):
    """helmert fwd∘inv is identity to sub-µm for random 7-parameter
    draws in both conventions, exact and small-angle forms."""
    defn = (f"+proj=helmert +x={x} +y={y} +z={z} +rx={rx} +ry={ry} "
            f"+rz={rz} +s={s} +convention={conv}"
            + (" +exact" if exact else ""))
    op = create_operation(defn)
    rng = np.random.default_rng(seed)
    n = 256
    X = rng.uniform(-6.4e6, 6.4e6, n)
    Y = rng.uniform(-6.4e6, 6.4e6, n)
    Z = rng.uniform(-6.4e6, 6.4e6, n)
    coo = Coords(X.copy(), Y.copy(), Z.copy())
    op.trans(FWD, coo)
    op.trans(INV, coo)
    # +exact is a true rotation (transpose == inverse): sub-µm
    # roundtrip. The small-angle form's inverse is the transpose of a
    # NON-orthogonal matrix — an inverse only to O(θ²)·|p|, same as
    # the reference's helmert.cpp — so its tolerance scales with θ².
    theta = np.radians(max(abs(rx), abs(ry), abs(rz)) / 3600.0)
    atol = 1e-6 if exact else 1e-6 + 20.0 * theta * theta * 6.5e6
    np.testing.assert_allclose(coo.x, X, atol=atol)
    np.testing.assert_allclose(coo.y, Y, atol=atol)
    np.testing.assert_allclose(coo.z, Z, atol=atol)


def _random_grid_tin(rng, k):
    """Random k×k-vertex grid TIN with jittered source positions and
    random target offsets — valid (non-degenerate, non-overlapping)
    by construction."""
    import json
    import tempfile

    xs = np.cumsum(rng.uniform(0.5, 1.5, k)) + rng.uniform(-50, 50)
    ys = np.cumsum(rng.uniform(0.5, 1.5, k)) + rng.uniform(-30, 30)
    gx, gy = np.meshgrid(xs, ys)
    dx = rng.uniform(-1e-4, 1e-4, gx.size)
    dy = rng.uniform(-1e-4, 1e-4, gx.size)
    verts = [[float(X), float(Y), float(X + ddx), float(Y + ddy)]
             for X, Y, ddx, ddy in zip(gx.ravel(), gy.ravel(), dx, dy)]
    tris = []
    for r in range(k - 1):
        for c in range(k - 1):
            v = r * k + c
            tris.append([v, v + 1, v + k])
            tris.append([v + 1, v + k + 1, v + k])
    doc = {
        "file_type": "triangulation_file",
        "transformed_components": ["horizontal"],
        "vertices_columns": ["source_x", "source_y", "target_x", "target_y"],
        "triangles_columns": ["idx_vertex1", "idx_vertex2", "idx_vertex3"],
        "vertices": verts,
        "triangles": tris,
    }
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(doc, f)
    f.close()
    return f.name, np.asarray([v[:2] for v in verts]), np.asarray(tris)


def _brute_assign(pts_x, pts_y, verts2, tris, eps):
    """Reference containment: lowest triangle id whose inverse-
    barycentric test passes — the same formula the engine uses, over
    EVERY triangle (no bucket index)."""
    n = len(pts_x)
    out = np.full(n, -1, dtype=np.int64)
    for t in range(len(tris) - 1, -1, -1):
        (x1, y1), (x2, y2), (x3, y3) = verts2[tris[t]]
        det = (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)
        a11 = (y2 - y3) / det
        a12 = (x3 - x2) / det
        a21 = (y3 - y1) / det
        a22 = (x1 - x3) / det
        dx = pts_x - x3
        dy = pts_y - y3
        l1 = a11 * dx + a12 * dy
        l2 = a21 * dx + a22 * dy
        l3 = 1.0 - l1 - l2
        hit = ((l1 >= -eps) & (l1 <= 1 + eps)
               & (l2 >= -eps) & (l2 <= 1 + eps) & (l3 >= 0))
        out[hit] = t
    return out


@settings(deadline=None, max_examples=15)
@given(
    k=st.integers(min_value=3, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tin_assign_matches_bruteforce(k, seed):
    """The bucketed narrowing sweep finds exactly the lowest containing
    triangle (or -1) that a full scan over every triangle finds, for
    random TIN geometries and points inside and outside the hull."""
    from rayproj.state import tin as tin_mod
    from rayproj.state.tin import load_tin

    rng = np.random.default_rng(seed)
    path, verts2, tris = _random_grid_tin(rng, k)
    model = load_tin(path)
    lo_x, hi_x = verts2[:, 0].min(), verts2[:, 0].max()
    lo_y, hi_y = verts2[:, 1].min(), verts2[:, 1].max()
    pad_x = (hi_x - lo_x) * 0.3
    pad_y = (hi_y - lo_y) * 0.3
    n = 400
    px = rng.uniform(lo_x - pad_x, hi_x + pad_x, n)
    py = rng.uniform(lo_y - pad_y, hi_y + pad_y, n)
    # exact vertices and edge midpoints (boundary lanes)
    px[:4] = verts2[:4, 0]
    py[:4] = verts2[:4, 1]
    tri_id, l1, l2, l3 = model._assign(px, py, True)
    expect = _brute_assign(px, py, verts2, tris, tin_mod.EPS)
    np.testing.assert_array_equal(tri_id, expect)
    inside = tri_id >= 0
    # barycentric coords reconstruct the point (where inside)
    v = verts2[tris[np.maximum(tri_id, 0)]]
    rx = v[:, 0, 0] * l1 + v[:, 1, 0] * l2 + v[:, 2, 0] * l3
    ry = v[:, 0, 1] * l1 + v[:, 1, 1] * l2 + v[:, 2, 1] * l3
    np.testing.assert_allclose(rx[inside], px[inside], atol=1e-8)
    np.testing.assert_allclose(ry[inside], py[inside], atol=1e-8)


@settings(deadline=None, max_examples=15)
@given(
    n_polys=st.integers(min_value=1, max_value=120),
    n_vertices=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pip_matches_bruteforce(n_polys, n_vertices, seed):
    """The covering-cell PIP index equals a full scan (lowest matching
    poly id via the same even-odd test) for random layer shapes and
    point clouds, with lanes on polygon centres, on grid-cell corners
    and edges at the index's level, and on ring vertices."""
    from rayproj.spatial.polygons import (PolygonIndex, make_polygons,
                                          point_in_ring)

    polys = make_polygons(n_polys, seed=seed % 1000, n_vertices=n_vertices)
    idx = PolygonIndex(polys)
    rng = np.random.default_rng(seed)
    n = 512
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    # polygon centers + vertices as boundary lanes
    lon[: min(8, n_polys)] = polys["cx"][: min(8, n_polys)]
    lat[: min(8, n_polys)] = polys["cy"][: min(8, n_polys)]
    # grid lines near random polygons: 64 corners, 64 lanes on vertical
    # and 64 on horizontal cell edges
    cells = 1 << idx.level
    p = rng.integers(0, n_polys, 192)
    off = polys["radius"][p, None] * rng.uniform(-1.2, 1.2, (192, 2))
    near_x, near_y = polys["cx"][p] + off[:, 0], polys["cy"][p] + off[:, 1]
    grid_x = -180.0 + np.round((near_x + 180.0) / 360.0 * cells) * (360.0 / cells)
    grid_y = -90.0 + np.round((near_y + 90.0) / 180.0 * cells) * (180.0 / cells)
    lon[8:72], lat[8:72] = grid_x[:64], grid_y[:64]
    lon[72:136], lat[72:136] = grid_x[64:128], near_y[64:128]
    lon[136:200], lat[136:200] = near_x[128:], grid_y[128:]
    ring_v = polys["verts"].reshape(-1, 2)[rng.integers(0, n_polys * n_vertices, 64)]
    lon[200:264], lat[200:264] = ring_v[:, 0], ring_v[:, 1]
    got = idx.assign(lon, lat)
    expect = np.full(n, -1, dtype=np.int32)
    for p in range(n_polys - 1, -1, -1):
        m = point_in_ring(polys["verts"][p], lon, lat)
        expect[m] = polys["poly_id"][p]
    np.testing.assert_array_equal(got, expect)


def test_pip_non_finite_lanes():
    """NaN and ±inf in either coordinate give −1, as ``point_in_ring``
    does; a NaN latitude once indexed the cell grid with INT64_MIN."""
    from rayproj.spatial.polygons import (PolygonIndex, make_polygons,
                                          point_in_ring)

    polys = make_polygons(60)
    x, y = polys["cx"][0], polys["cy"][0]
    bad = [np.nan, np.inf, -np.inf]
    lon = np.array([x, x, x, *bad, np.nan, x])
    lat = np.array([*bad, y, y, y, np.nan, y])
    got = PolygonIndex(polys).assign(lon, lat)
    assert got.tolist() == [-1] * 7 + [0]
    assert point_in_ring(polys["verts"][0], lon, lat).tolist() == [False] * 7 + [True]


def test_pip_notch_across_corner_inside_cell():
    """A non-convex ring with a thin exterior notch across a whole cell
    whose 4 corners are inside: the cell must not answer as interior,
    and every lane matches ``point_in_ring``."""
    from rayproj.spatial.polygons import PolygonIndex, point_in_ring

    ring = np.array([(0, 0), (20, 0), (20, 7.0), (3, 7.0), (3, 7.01),
                     (20, 7.01), (20, 20), (0, 20)], dtype=np.float64)
    polys = {"poly_id": np.zeros(1, dtype=np.int32), "cx": np.array([10.0]),
             "cy": np.array([10.0]), "radius": np.array([np.hypot(10.0, 10.0)]),
             "verts": ring[None]}
    idx = PolygonIndex(polys)
    wx, wy = 360.0 / (1 << idx.level), 180.0 / (1 << idx.level)
    x0 = -180.0 + np.floor((8.0 + 180.0) / wx) * wx
    y0 = -90.0 + np.floor((7.005 + 90.0) / wy) * wy
    assert 3.0 < x0 and x0 + wx < 20.0 and y0 < 7.0 and 7.01 < y0 + wy
    assert point_in_ring(ring, np.array([x0, x0 + wx, x0, x0 + wx]),
                         np.array([y0, y0, y0 + wy, y0 + wy])).all()
    rng = np.random.default_rng(0)
    lon = np.concatenate([rng.uniform(x0, x0 + wx, 2000), rng.uniform(-2, 22, 2000)])
    lat = np.concatenate([rng.uniform(7.0, 7.01, 2000), rng.uniform(-2, 22, 2000)])
    expect = np.where(point_in_ring(ring, lon, lat), 0, -1)
    assert (expect[:2000] == -1).all() and (expect[2000:] == 0).any()
    np.testing.assert_array_equal(idx.assign(lon, lat), expect)


def test_pip_10k_layer_matches_bruteforce():
    """The 10k-polygon layer on pip_10k-shaped points (a seeded doc-id
    walk, geolocated and reprojected by the flagship pipeline) equals a
    bbox-prefiltered ``point_in_ring`` scan, lowest id winning."""
    from rayproj.core.constants import DEG_TO_RAD, RAD_TO_DEG
    from rayproj.pipelines.flagship import CS2CS_PIPELINE
    from rayproj.spatial.polygons import (PolygonIndex, make_polygons,
                                          point_in_ring)
    from rayproj.stages.geolocate import geolocate_ids

    polys = make_polygons(10_000)
    rng = np.random.default_rng(2024)
    lon, lat = geolocate_ids(np.cumsum(rng.integers(1, 2048, 25_000)))
    coo = Coords(lon * DEG_TO_RAD, lat * DEG_TO_RAD)
    create_operation(CS2CS_PIPELINE).trans(FWD, coo)
    lon, lat = coo.x * RAD_TO_DEG, coo.y * RAD_TO_DEG
    expect = np.full(len(lon), -1, dtype=np.int32)
    order = np.argsort(lon)
    verts = polys["verts"]
    lo = np.searchsorted(lon[order], verts[:, :, 0].min(axis=1), side="left")
    hi = np.searchsorted(lon[order], verts[:, :, 0].max(axis=1), side="right")
    for p in range(len(verts) - 1, -1, -1):
        sel = order[lo[p]:hi[p]]
        sel = sel[(lat[sel] >= verts[p, :, 1].min()) & (lat[sel] <= verts[p, :, 1].max())]
        expect[sel[point_in_ring(verts[p], lon[sel], lat[sel])]] = p
    assert (expect >= 0).mean() > 0.9
    np.testing.assert_array_equal(PolygonIndex(polys).assign(lon, lat), expect)


@settings(**COMMON)
@given(
    lon0=st.floats(min_value=-179, max_value=179),
    k0=st.floats(min_value=0.9, max_value=1.1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tmerc_roundtrip(lon0, k0, seed):
    """Poder/Engsager tmerc fwd∘inv identity to sub-mm (few-nm claim
    of the reference holds at far looser tolerance) for random central
    meridians and scale factors."""
    op = create_operation(f"+proj=tmerc +lon_0={lon0} +k_0={k0} +ellps=GRS80")
    rng = np.random.default_rng(seed)
    n = 256
    lam = np.radians(rng.uniform(lon0 - 3, lon0 + 3, n))
    phi = np.radians(rng.uniform(-84, 84, n))
    coo = Coords(lam.copy(), phi.copy())
    op.trans(FWD, coo)
    op.trans(INV, coo)
    # 1e-11 rad ≈ 0.06 mm on the sphere
    err_lam = np.abs(np.arctan2(np.sin(coo.x - lam), np.cos(coo.x - lam)))
    assert err_lam.max() < 1e-11
    np.testing.assert_allclose(coo.y, phi, atol=1e-11)


@settings(**COMMON)
@given(
    ox=st.floats(min_value=-6.4e6, max_value=6.4e6),
    oy=st.floats(min_value=-6.4e6, max_value=6.4e6),
    oz=st.floats(min_value=-6.4e6, max_value=6.4e6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_topocentric_roundtrip_and_isometry(ox, oy, oz, seed):
    """Topocentric (EPSG 9836) is a rigid motion: fwd∘inv identity to
    sub-µm and distance-preserving for random geocentric origins."""
    op = create_operation(
        f"+proj=topocentric +X_0={ox} +Y_0={oy} +Z_0={oz} +ellps=WGS84"
    )
    rng = np.random.default_rng(seed)
    n = 64
    X = rng.uniform(-7e6, 7e6, n)
    Y = rng.uniform(-7e6, 7e6, n)
    Z = rng.uniform(-7e6, 7e6, n)
    coo = Coords(X.copy(), Y.copy(), Z.copy())
    op.trans(FWD, coo)
    # isometry: pairwise distance of the first two points is preserved
    d_in = np.sqrt((X[0]-X[1])**2 + (Y[0]-Y[1])**2 + (Z[0]-Z[1])**2)
    d_out = np.sqrt((coo.x[0]-coo.x[1])**2 + (coo.y[0]-coo.y[1])**2
                    + (coo.z[0]-coo.z[1])**2)
    assert abs(d_in - d_out) < 1e-6 * max(d_in, 1.0)
    op.trans(INV, coo)
    np.testing.assert_allclose(coo.x, X, atol=1e-6)
    np.testing.assert_allclose(coo.y, Y, atol=1e-6)
    np.testing.assert_allclose(coo.z, Z, atol=1e-6)


@settings(**COMMON)
@given(
    k0=st.floats(min_value=0.9995, max_value=1.0005),
    # EPSG 9824 semantics presuppose a UTM-style false easting that
    # keeps within-zone eastings positive (the zone-prefix floor)
    x0=st.floats(min_value=400000, max_value=600000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tmzoned_matches_per_zone_tmerc(k0, x0, seed):
    """tmzoned (EPSG 9824) == zone-prefixed tmerc at the zone's central
    meridian, for random scale/false-easting and random world points."""
    z = create_operation(f"+proj=tmzoned +k_0={k0} +x_0={x0} +ellps=WGS84")
    rng = np.random.default_rng(seed)
    n = 32
    lon = rng.uniform(-179.9, 179.9, n)
    lat = rng.uniform(-80, 80, n)
    coo = Coords(np.radians(lon), np.radians(lat))
    z.trans(FWD, coo)
    zones = np.floor((lon + 180.0) / 6.0).astype(np.int64) + 1
    np.testing.assert_array_equal(
        np.floor(coo.x / 1e6).astype(np.int64), zones)
    for zone in np.unique(zones):
        m = zones == zone
        u = create_operation(
            f"+proj=tmerc +lon_0={-180 + (zone - 0.5) * 6.0} "
            f"+k_0={k0} +x_0={x0} +ellps=WGS84")
        cu = Coords(np.radians(lon[m]), np.radians(lat[m]))
        u.trans(FWD, cu)
        np.testing.assert_allclose(coo.x[m] - zone * 1e6, cu.x, atol=1e-9)
        np.testing.assert_allclose(coo.y[m], cu.y, atol=1e-9)
    inv = Coords(coo.x.copy(), coo.y.copy())
    z.trans(INV, inv)
    np.testing.assert_allclose(np.degrees(inv.x), lon, atol=1e-9)
    np.testing.assert_allclose(np.degrees(inv.y), lat, atol=1e-9)


def test_mod_krovak_correction_bounds():
    """mod_krovak == krovak + a bounded polynomial correction: within
    the Czech domain the published correction is cm-to-dm scale, and
    fwd∘inv closes to sub-µm."""
    base = ("+lat_0=49.5 +lon_0=24.8333333333333 +k_0=0.9999 "
            "+x_0=5000000 +y_0=5000000 +ellps=bessel")
    mk = create_operation(f"+proj=mod_krovak {base}")
    kr = create_operation(f"+proj=krovak {base}")
    rng = np.random.default_rng(7)
    lam = np.radians(rng.uniform(12.0, 18.9, 128))
    phi = np.radians(rng.uniform(48.5, 51.1, 128))
    cm = Coords(lam.copy(), phi.copy())
    mk.trans(FWD, cm)
    ck = Coords(lam.copy(), phi.copy())
    kr.trans(FWD, ck)
    d = np.hypot(cm.x - ck.x, cm.y - ck.y)
    assert d.max() < 2.0 and d.min() > 1e-4  # correction present, bounded
    ci = Coords(cm.x.copy(), cm.y.copy())
    mk.trans(INV, ci)
    np.testing.assert_allclose(ci.x, lam, atol=1e-11)
    np.testing.assert_allclose(ci.y, phi, atol=1e-11)


@settings(deadline=None, max_examples=40)
@given(
    method=st.sampled_from(
        ["tmerc", "merc_a", "merc_b", "lcc", "aea", "laea", "cea",
         "eqc", "stere_pa", "stere_pb", "stere_obl"]
    ),
    lat_0=st.floats(min_value=-60.0, max_value=60.0),
    lon_0=st.floats(min_value=-170.0, max_value=170.0),
    k_0=st.floats(min_value=0.5, max_value=1.1),
    ts=st.floats(min_value=5.0, max_value=85.0),
    lat_1=st.floats(min_value=10.0, max_value=40.0),
    dlat=st.floats(min_value=5.0, max_value=30.0),
    x_0=st.floats(min_value=-1e6, max_value=1e6),
    y_0=st.floats(min_value=-1e6, max_value=1e6),
    rf=st.floats(min_value=150.0, max_value=500.0),
    south=st.booleans(),
)
def test_wkt_emitters_roundtrip_random_params(
    method, lat_0, lon_0, k_0, ts, lat_1, dlat, x_0, y_0, rf, south
):
    """Emit→parse→construct returns the SAME resolved operation for
    every WKT-mappable method under random parameter draws, across all
    four emitters (WKT2, WKT1-GDAL, WKT1-ESRI, PROJJSON). Pins the
    variant-selection logic (Mercator/polar-stere A vs B), the
    pole-signed standard parallel, and the parameter spellings on
    inputs the fixed round-trip lists never generate."""
    import json

    from rayproj.core.wkt import (
        from_projjson, from_wkt, to_projjson, to_wkt1, to_wkt2,
    )

    sgn = -1.0 if south else 1.0
    base = f"+a=6378137 +rf={rf} +lon_0={lon_0} +x_0={x_0} +y_0={y_0}"
    defn = {
        "tmerc": f"+proj=tmerc +lat_0={lat_0} +k_0={k_0} {base}",
        "merc_a": f"+proj=merc +k_0={k_0} {base}",
        "merc_b": f"+proj=merc +lat_ts={sgn * ts} {base}",
        "lcc": f"+proj=lcc +lat_0={lat_0} +lat_1={lat_1} "
               f"+lat_2={lat_1 + dlat} {base}",
        "aea": f"+proj=aea +lat_0={lat_0} +lat_1={lat_1} "
               f"+lat_2={lat_1 + dlat} {base}",
        "laea": f"+proj=laea +lat_0={lat_0} {base}",
        "cea": f"+proj=cea +lat_ts={ts} {base}",
        "eqc": f"+proj=eqc +lat_ts={ts} {base}",
        "stere_pa": f"+proj=stere +lat_0={sgn * 90} +k_0={k_0} {base}",
        "stere_pb": f"+proj=stere +lat_0={sgn * 90} +lat_ts={ts} {base}",
        "stere_obl": f"+proj=stere +lat_0={lat_0} +k_0={k_0} {base}",
    }[method]
    op = create_operation(defn)
    rng = np.random.default_rng(7)
    lam = np.radians(rng.uniform(-30.0, 30.0, 8) + lon_0)
    # keep test points on the projection's own hemisphere / far from
    # the tmerc divergence band
    phi = np.radians(sgn * rng.uniform(15.0, 75.0, 8))
    c0 = Coords(lam.copy(), phi.copy())
    op.trans(FWD, c0)
    emitters = [
        lambda o: from_wkt(to_wkt2(o)),
        lambda o: from_wkt(to_wkt1(o)),
        lambda o: from_wkt(to_wkt1(o, esri=True)),
        lambda o: from_projjson(json.dumps(to_projjson(o))),
    ]
    for emit in emitters:
        op2 = create_operation(emit(op))
        c2 = Coords(lam.copy(), phi.copy())
        op2.trans(FWD, c2)
        # sub-mm: parameter re-parse noise only (angles snapped at
        # 1e-10 deg, rf at 1e-9)
        np.testing.assert_allclose(c2.x, c0.x, rtol=0, atol=1e-3)
        np.testing.assert_allclose(c2.y, c0.y, rtol=0, atol=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    lon=st.floats(min_value=-179.9, max_value=179.9),
    lat=st.floats(min_value=-84.0, max_value=84.0),
)
def test_cli_text_roundtrip_random(lon, lat):
    """proj text-filter round trip at full precision: fwd through the
    CLI text path, then -I -f %.12f back — the text layer (dmstor,
    printf emit, trailing handling) must not lose the coordinate."""
    from tests.test_cli import _run

    rc, out = _run(["proj", "-f", "%.6f", "+proj=merc", "+ellps=WGS84"],
                   f"{lon!r} {lat!r}\n")
    assert rc == 0, out
    x, y = map(float, out.split())
    rc, back = _run(["proj", "-I", "-f", "%.12f", "+proj=merc",
                     "+ellps=WGS84"], f"{x!r} {y!r}\n")
    assert rc == 0, back
    lon2, lat2 = map(float, back.split())
    # 1e-6 m easting quantization ≈ 1e-11 deg
    assert abs(lon2 - lon) < 1e-10
    assert abs(lat2 - lat) < 1e-10

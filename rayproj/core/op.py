"""Operation base class + vectorized forward/inverse dispatch.

Re-derivation of the reference's per-point dispatch as batch NumPy:
  * fwd_prepare / fwd_finalize — /root/reference/src/fwd.cpp:41-157
  * inv_prepare / inv_finalize — /root/reference/src/inv.cpp:39-135
  * pj_geocentric_latitude    — /root/reference/src/4D_api.cpp:558-583
Errors are carried per-lane in ``Coords.err`` (first error wins); lanes
with err != 0 end as ±inf in all four components, mirroring HUGE_VAL
in-band signaling (src/internal.cpp proj_coord_error).
"""

from __future__ import annotations

import numpy as np

from ..mathx import adjlon
from .constants import EPS_LAT, M_HALFPI
from .ellps import Ellipsoid
from .errors import EINVAL, ERR_INVALID_X_OR_Y, ERR_LAT_OR_LON_EXCEED_LIMIT

# io_units (src/proj_internal.h:172-179)
IO_WHATEVER = "whatever"
IO_CLASSIC = "classic"      # plane coords in units of the semimajor axis
IO_PROJECTED = "projected"  # meters
IO_CARTESIAN = "cartesian"  # geocentric XYZ meters
IO_RADIANS = "radians"
IO_DEGREES = "degrees"

FWD = 1
INV = -1


class Coords:
    """A batch of 4D coordinates: x/y/z/t float64 arrays + err int32.

    Interpretation of (x, y) depends on the operation's io units:
    (lam, phi) radians on the angular side, easting/northing on the
    projected side — same convention as PJ_COORD's union views.
    """

    __slots__ = ("x", "y", "z", "t", "err")

    def __init__(self, x, y, z=None, t=None, err=None):
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        n = len(self.x)
        self.z = (
            np.ascontiguousarray(z, dtype=np.float64)
            if z is not None
            else np.zeros(n, dtype=np.float64)
        )
        self.t = (
            np.ascontiguousarray(t, dtype=np.float64)
            if t is not None
            else np.full(n, np.inf, dtype=np.float64)
        )
        self.err = (
            np.ascontiguousarray(err, dtype=np.int32)
            if err is not None
            else np.zeros(n, dtype=np.int32)
        )

    def __len__(self) -> int:
        return len(self.x)

    def copy(self) -> "Coords":
        return Coords(self.x.copy(), self.y.copy(), self.z.copy(), self.t.copy(), self.err.copy())

    def set_err(self, mask: np.ndarray, code: int) -> None:
        """First-error-wins per-lane error record."""
        hit = mask & (self.err == 0)
        if np.any(hit):
            self.err[hit] = code

    def poison_errors(self) -> None:
        """Set all lanes of err!=0 rows to +inf (proj_coord_error)."""
        bad = self.err != 0
        if np.any(bad):
            self.x[bad] = np.inf
            self.y[bad] = np.inf
            self.z[bad] = np.inf
            self.t[bad] = np.inf


class Operation:
    """Resolved operation instance (the engine's PJ equivalent).

    Subclasses implement ``_fwd(coo)`` / ``_inv(coo)`` kernels that
    mutate the Coords batch in place. All parameters are plain floats
    resolved at construction — the object is tiny and cheap to ship to
    Ray tasks via closure capture.
    """

    name = "?"
    need_ellps = True  # PROJECTION default; conversions pass False

    def __init__(self, params, ell: Ellipsoid):
        self.params = params
        self.ell = ell
        # cartographic offsets & scaling (init.cpp:716-738)
        self.lam0 = params.rad("lon_0", 0.0)
        self.phi0 = params.rad("lat_0", 0.0)
        self.x0 = params.float_("x_0", 0.0)
        self.y0 = params.float_("y_0", 0.0)
        self.z0 = params.float_("z_0", 0.0)
        self.t0 = params.float_("t_0", 0.0)
        if params.has("k_0"):
            self.k0 = params.float_("k_0")
        elif params.has("k"):
            self.k0 = params.float_("k")
        else:
            self.k0 = 1.0
        self.to_meter = 1.0
        self.fr_meter = 1.0
        self.vto_meter = 1.0
        self.vfr_meter = 1.0
        self.from_greenwich = 0.0
        self.over = params.bool_("over", False)
        self.geoc = params.bool_("geoc", False) and ell.es != 0.0
        self.is_latlong = False
        self.is_geocent = False
        self.is_long_wrap_set = params.has("lon_wrap")
        self.long_wrap_center = params.rad("lon_wrap", 0.0)
        # io units — projection default (proj_internal.h:797-798)
        self.left = IO_RADIANS
        self.right = IO_CLASSIC
        # cs2cs-emulation helper sub-operations (4D_api.cpp:610-744)
        self.axisswap = None
        self.helmert = None
        self.cart = None
        self.cart_wgs84 = None
        self.hgridshift = None
        self.helmert_fb = None  # Helmert fallback for out-of-grid points
        self.vgridshift = None
        self.datum_params = None  # 7-tuple when towgs84 present
        self.datum_type = 0
        self.a_orig = ell.a
        self.es_orig = ell.es
        # pipeline-step inversion flag (+inv)
        self.inverted = False
        self.parent = None  # owning pipeline (for push/pop stack access)
        # dispatch-control flags (skip_prep_fin for helper ops)
        self.skip_fwd_prepare = False
        self.skip_fwd_finalize = False
        self.skip_inv_prepare = False
        self.skip_inv_finalize = False

    def setup(self) -> None:
        """Projection-specific constructor (precompute kernel constants)."""

    # -- kernels (override) ------------------------------------------------
    # The un-overridden base kernels mirror the reference's null-function
    # dispatch (fwd.cpp:189 / inv.cpp:166): errno EINVAL + proj_coord_error
    # on every point, never an exception — proj_trans on e.g. peirce_q's
    # missing inverse returns error coordinates.
    def _fwd(self, coo: Coords) -> None:
        coo.set_err(np.ones(len(coo), dtype=bool), EINVAL)

    def _inv(self, coo: Coords) -> None:
        coo.set_err(np.ones(len(coo), dtype=bool), EINVAL)

    @property
    def has_inverse(self) -> bool:
        return type(self)._inv is not Operation._inv

    # -- effective io units (internal.cpp pj_left/pj_right: swapped when
    # the op is pipeline-inverted; CLASSIC reported as PROJECTED) ----------
    def eff_left(self) -> str:
        u = self.right if self.inverted else self.left
        return IO_PROJECTED if u == IO_CLASSIC else u

    def eff_right(self) -> str:
        u = self.left if self.inverted else self.right
        return IO_PROJECTED if u == IO_CLASSIC else u

    # -- angular io classification (4D_api.cpp proj_angular_input/output) --
    def angular_input(self, direction: int) -> bool:
        return (self.eff_left() if direction == FWD else self.eff_right()) == IO_RADIANS

    def angular_output(self, direction: int) -> bool:
        return (self.eff_right() if direction == FWD else self.eff_left()) == IO_RADIANS

    def degree_input(self, direction: int) -> bool:
        return (self.eff_left() if direction == FWD else self.eff_right()) == IO_DEGREES

    def degree_output(self, direction: int) -> bool:
        return (self.eff_right() if direction == FWD else self.eff_left()) == IO_DEGREES

    # -- dispatch (proj_trans: honours the +inv step flag) -----------------
    def trans(self, direction: int, coo: Coords) -> Coords:
        if self.inverted:
            direction = -direction
        if direction == FWD:
            return self.fwd(coo)
        return self.inv(coo)

    def fwd(self, coo: Coords) -> Coords:
        with np.errstate(all="ignore"):
            if not self.skip_fwd_prepare:
                self._fwd_prepare(coo)
            self._fwd(coo)
            if not self.skip_fwd_finalize:
                self._fwd_finalize(coo)
        coo.poison_errors()
        return coo

    def inv(self, coo: Coords) -> Coords:
        with np.errstate(all="ignore"):
            if not self.skip_inv_prepare:
                self._inv_prepare(coo)
            self._inv(coo)
            if not self.skip_inv_finalize:
                self._inv_finalize(coo)
        coo.poison_errors()
        return coo

    # -- fwd.cpp:41-102 ----------------------------------------------------
    def _fwd_prepare(self, coo: Coords) -> None:
        coo.set_err(np.isinf(coo.x) | np.isinf(coo.y) | np.isinf(coo.z), ERR_INVALID_X_OR_Y)
        if self.helmert is not None:
            # helmert chokes without a sensible 4D coordinate
            coo.z[np.isinf(coo.z)] = 0.0
            coo.t[np.isinf(coo.t)] = 0.0

        if self.left == IO_RADIANS:
            over_range = (np.abs(coo.y) - M_HALFPI > EPS_LAT) | (coo.x > 10) | (coo.x < -10)
            coo.set_err(over_range, ERR_LAT_OR_LON_EXCEED_LIMIT)
            np.clip(coo.y, -M_HALFPI, M_HALFPI, out=coo.y)
            if self.geoc:
                self._geocentric_latitude(INV, coo)
            if not self.over:
                coo.x = adjlon(coo.x)
            if self.hgridshift is not None:
                if self.helmert_fb is not None:
                    self._gridshift_with_fallback(coo, into_local=True)
                else:
                    self.hgridshift.inv(coo)
            elif self.helmert is not None or (self.cart_wgs84 is not None and self.cart is not None):
                if self.cart_wgs84 is None or self.cart is None:
                    # geocent op with a helmert: the reference feeds a
                    # null cart_wgs84 to proj_trans here, which returns
                    # proj_coord_error (4D_api.cpp null-P guard) — the
                    # legacy hub cannot express this; coordinate error
                    coo.set_err(np.ones(len(coo), dtype=bool),
                                ERR_INVALID_X_OR_Y)
                    return
                self.cart_wgs84.fwd(coo)      # to cartesian, WGS84 frame
                if self.helmert is not None:
                    self.helmert.inv(coo)     # step into local frame
                self.cart.inv(coo)            # back to angular, local ellipsoid
            if self.vgridshift is not None:
                self.vgridshift.fwd(coo)      # orthometric from geometric
            if self.from_greenwich != 0.0 or self.lam0 != 0.0:
                # x-0.0-0.0 is bitwise x; skip the two full-width
                # passes for the (overwhelmingly common) zero case
                coo.x = coo.x - self.from_greenwich - self.lam0
            if not self.over:
                coo.x = adjlon(coo.x)
            return

        if self.left == IO_CARTESIAN and self.helmert is not None:
            self.helmert.inv(coo)

    # -- fwd.cpp:105-157 ---------------------------------------------------
    def _fwd_finalize(self, coo: Coords) -> None:
        right = self.right
        if right == IO_CARTESIAN:
            if self.is_geocent and self.cart is not None:
                self.cart.fwd(coo)
            coo.x *= self.fr_meter
            coo.y *= self.fr_meter
            coo.z *= self.fr_meter
        elif right in (IO_CLASSIC, IO_PROJECTED):
            if right == IO_CLASSIC:
                coo.x = coo.x * self.ell.a
                coo.y = coo.y * self.ell.a
            coo.x = self.fr_meter * (coo.x + self.x0)
            coo.y = self.fr_meter * (coo.y + self.y0)
            coo.z = self.vfr_meter * (coo.z + self.z0)
        elif right == IO_RADIANS:
            if self.vfr_meter != 1.0 or self.z0 != 0.0:
                coo.z = self.vfr_meter * (coo.z + self.z0)
            if self.is_long_wrap_set:
                finite = ~np.isinf(coo.x)
                coo.x[finite] = self.long_wrap_center + adjlon(
                    coo.x[finite] - self.long_wrap_center
                )
        if self.axisswap is not None:
            self.axisswap.fwd(coo)

    # -- inv.cpp:39-97 -----------------------------------------------------
    def _inv_prepare(self, coo: Coords) -> None:
        coo.set_err(np.isinf(coo.x) | np.isinf(coo.y) | np.isinf(coo.z), ERR_INVALID_X_OR_Y)
        if self.helmert is not None:
            coo.z[np.isinf(coo.z)] = 0.0
            coo.t[np.isinf(coo.t)] = 0.0
        if self.axisswap is not None:
            self.axisswap.inv(coo)
        left = self.right  # input units of the inverse direction
        if left == IO_CARTESIAN:
            coo.x *= self.to_meter
            coo.y *= self.to_meter
            coo.z *= self.to_meter
            if self.is_geocent and self.cart is not None:
                self.cart.inv(coo)
        elif left in (IO_PROJECTED, IO_CLASSIC):
            coo.x = self.to_meter * coo.x - self.x0
            coo.y = self.to_meter * coo.y - self.y0
            coo.z = self.vto_meter * coo.z - self.z0
            if left == IO_CLASSIC:
                coo.x *= self.ell.ra
                coo.y *= self.ell.ra
        elif left == IO_RADIANS:
            if self.vto_meter != 1.0 or self.z0 != 0.0:
                coo.z = self.vto_meter * coo.z - self.z0

    # -- inv.cpp:101-135 ---------------------------------------------------
    def _inv_finalize(self, coo: Coords) -> None:
        coo.set_err(np.isinf(coo.x), ERR_INVALID_X_OR_Y)
        if self.left == IO_RADIANS:
            if self.from_greenwich != 0.0 or self.lam0 != 0.0:
                coo.x = coo.x + self.from_greenwich + self.lam0
            if not self.over:
                coo.x = adjlon(coo.x)
            if self.vgridshift is not None:
                self.vgridshift.inv(coo)      # geometric from orthometric
            if self.hgridshift is not None:
                if self.helmert_fb is not None:
                    self._gridshift_with_fallback(coo, into_local=False)
                else:
                    self.hgridshift.fwd(coo)
            elif self.helmert is not None or (self.cart_wgs84 is not None and self.cart is not None):
                if self.cart_wgs84 is None or self.cart is None:
                    coo.set_err(np.ones(len(coo), dtype=bool),
                                ERR_INVALID_X_OR_Y)
                    return
                self.cart.fwd(coo)            # to cartesian, local frame
                if self.helmert is not None:
                    self.helmert.fwd(coo)     # into WGS84 frame
                self.cart_wgs84.inv(coo)      # back to angular, WGS84
            if self.geoc:
                self._geocentric_latitude(FWD, coo)

    def _gridshift_with_fallback(self, coo: Coords, into_local: bool) -> None:
        """Database-resolved datum leg: grid shift where the grid covers
        the point, the registry Helmert candidate elsewhere — the
        per-point operation selection of proj_create_crs_to_crs
        (4D_api.cpp pj_get_suggested_operation). Classic single-op
        proj.4 semantics (+nadgrids alone) error out-of-grid points;
        this path only activates when the catalog expansion carried a
        +grid_fallback marker (state/projdb._geodetic_pairs)."""
        sx, sy, sz = coo.x.copy(), coo.y.copy(), coo.z.copy()
        err0 = coo.err != 0
        if into_local:
            self.hgridshift.inv(coo)
        else:
            self.hgridshift.fwd(coo)
        bad = (coo.err != 0) & ~err0
        if not bad.any():
            return
        sub = Coords(sx[bad], sy[bad], sz[bad], coo.t[bad])
        sub.z[np.isinf(sub.z)] = 0.0
        sub.t[np.isinf(sub.t)] = 0.0
        if into_local:
            self.cart_wgs84.fwd(sub)
            self.helmert_fb.inv(sub)
            self.cart.inv(sub)
        else:
            self.cart.fwd(sub)
            self.helmert_fb.fwd(sub)
            self.cart_wgs84.inv(sub)
        coo.x[bad] = sub.x
        coo.y[bad] = sub.y
        coo.z[bad] = sub.z
        coo.err[bad] = sub.err

    # -- 4D_api.cpp:558-583 ------------------------------------------------
    def _geocentric_latitude(self, direction: int, coo: Coords) -> None:
        if self.ell.es == 0:
            return
        limit = M_HALFPI - 1e-9
        inside = (coo.y <= limit) & (coo.y >= -limit)
        factor = self.ell.one_es if direction == FWD else self.ell.rone_es
        phi = coo.y
        coo.y = np.where(inside, np.arctan(factor * np.tan(phi)), phi)

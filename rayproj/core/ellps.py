"""Ellipsoid table and parameter resolution.

Table transcribed from the reference's built-in list
(/root/reference/src/ellps.cpp:8-63); resolution rules re-derived from
pj_ellipsoid / ellps_size / ellps_shape / ellps_spherification and
pj_calc_ellipsoid_params (/root/reference/src/ell_set.cpp:24-585).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import HUGE_VAL
from .errors import (
    ERR_ES_LESS_THAN_ZERO,
    ERR_INVALID_ECCENTRICITY,
    ERR_MAJOR_AXIS_NOT_GIVEN,
    ERR_REV_FLATTENING_IS_ZERO,
    ERR_UNKNOWN_ELLP_PARAM,
    ProjError,
)
from .params import Params

# name -> (size-param, shape-param); values are "+key=value" fragments
ELLPS_TABLE: dict[str, tuple[str, str]] = {
    "MERIT": ("a=6378137.0", "rf=298.257"),
    "SGS85": ("a=6378136.0", "rf=298.257"),
    "GRS80": ("a=6378137.0", "rf=298.257222101"),
    "IAU76": ("a=6378140.0", "rf=298.257"),
    "airy": ("a=6377563.396", "rf=299.3249646"),
    "APL4.9": ("a=6378137.0", "rf=298.25"),
    "NWL9D": ("a=6378145.0", "rf=298.25"),
    "mod_airy": ("a=6377340.189", "b=6356034.446"),
    "andrae": ("a=6377104.43", "rf=300.0"),
    "danish": ("a=6377019.2563", "rf=300.0"),
    "aust_SA": ("a=6378160.0", "rf=298.25"),
    "GRS67": ("a=6378160.0", "rf=298.2471674270"),
    "GSK2011": ("a=6378136.5", "rf=298.2564151"),
    "bessel": ("a=6377397.155", "rf=299.1528128"),
    "bess_nam": ("a=6377483.865", "rf=299.1528128"),
    "clrk66": ("a=6378206.4", "b=6356583.8"),
    "clrk80": ("a=6378249.145", "rf=293.4663"),
    "clrk80ign": ("a=6378249.2", "rf=293.4660212936269"),
    "CPM": ("a=6375738.7", "rf=334.29"),
    "delmbr": ("a=6376428.", "rf=311.5"),
    "engelis": ("a=6378136.05", "rf=298.2566"),
    "evrst30": ("a=6377276.345", "rf=300.8017"),
    "evrst48": ("a=6377304.063", "rf=300.8017"),
    "evrst56": ("a=6377301.243", "rf=300.8017"),
    "evrst69": ("a=6377295.664", "rf=300.8017"),
    "evrstSS": ("a=6377298.556", "rf=300.8017"),
    "fschr60": ("a=6378166.", "rf=298.3"),
    "fschr60m": ("a=6378155.", "rf=298.3"),
    "fschr68": ("a=6378150.", "rf=298.3"),
    "helmert": ("a=6378200.", "rf=298.3"),
    "hough": ("a=6378270.0", "rf=297."),
    "intl": ("a=6378388.0", "rf=297."),
    "krass": ("a=6378245.0", "rf=298.3"),
    "kaula": ("a=6378163.", "rf=298.24"),
    "lerch": ("a=6378139.", "rf=298.257"),
    "mprts": ("a=6397300.", "rf=191."),
    "new_intl": ("a=6378157.5", "b=6356772.2"),
    "plessis": ("a=6376523.", "b=6355863."),
    "PZ90": ("a=6378136.0", "rf=298.25784"),
    "SEasia": ("a=6378155.0", "b=6356773.3205"),
    "walbeck": ("a=6376896.0", "b=6355834.8467"),
    "WGS60": ("a=6378165.0", "rf=298.3"),
    "WGS66": ("a=6378145.0", "rf=298.25"),
    "WGS72": ("a=6378135.0", "rf=298.26"),
    "WGS84": ("a=6378137.0", "rf=298.257223563"),
    "sphere": ("a=6370997.0", "b=6370997.0"),
}


@dataclass
class Ellipsoid:
    """Fully-derived ellipsoid constants (pj_calc_ellipsoid_params)."""

    a: float
    es: float
    e: float = field(default=0.0)
    b: float = field(default=0.0)
    f: float = field(default=0.0)
    rf: float = field(default=HUGE_VAL)
    # derived
    alpha: float = 0.0
    e2: float = 0.0
    e2s: float = 0.0
    e3: float = 0.0
    e3s: float = 0.0
    f2: float = 0.0
    rf2: float = HUGE_VAL
    n: float = 0.0
    rn: float = HUGE_VAL
    ra: float = 0.0
    rb: float = 0.0
    one_es: float = 1.0
    rone_es: float = 1.0

    def derive(self) -> "Ellipsoid":
        if self.e == 0:
            self.e = math.sqrt(self.es)
        self.alpha = math.asin(self.e)
        self.e2 = math.tan(self.alpha)
        self.e2s = self.e2 * self.e2
        sa = math.sin(self.alpha)
        self.e3 = sa / math.sqrt(2 - sa * sa) if self.alpha != 0 else 0.0
        self.e3s = self.e3 * self.e3
        if self.f == 0:
            self.f = 1 - math.cos(self.alpha)
        if self.f == 1.0:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        self.rf = 1.0 / self.f if self.f != 0.0 else HUGE_VAL
        ca = math.cos(self.alpha)
        self.f2 = 1 / ca - 1 if ca != 0 else 0.0
        self.rf2 = 1 / self.f2 if self.f2 != 0.0 else HUGE_VAL
        self.n = math.tan(self.alpha / 2) ** 2
        self.rn = 1 / self.n if self.n != 0.0 else HUGE_VAL
        if self.b == 0:
            self.b = (1 - self.f) * self.a
        self.rb = 1.0 / self.b
        self.ra = 1.0 / self.a
        self.one_es = 1.0 - self.es
        if self.one_es == 0.0:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        self.rone_es = 1.0 / self.one_es
        return self

    @property
    def is_sphere(self) -> bool:
        return self.es == 0.0


def resolve_ellipsoid(params: Params, need_ellps: bool = True) -> Ellipsoid:
    """pj_ellipsoid: R overrules everything; then ellps= base, overridden
    by explicit size (a) / shape (rf,f,es,e,b); then spherification flags."""
    if params.has("R"):
        a = params.float_("R")
        if a <= 0 or a == HUGE_VAL:
            raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN)
        return Ellipsoid(a=a, es=0.0).derive()

    a = 0.0
    es = 0.0
    e = f = b = 0.0
    rf = HUGE_VAL
    shape_given = False

    name = params.str_("ellps")
    if name:
        if name not in ELLPS_TABLE:
            raise ProjError(ERR_UNKNOWN_ELLP_PARAM, name)
        size_def, shape_def = ELLPS_TABLE[name]
        base = Params.parse("+" + size_def + " +" + shape_def)
        a = base.float_("a")
        es, e, f, b, rf = _shape_from(base, a)
        shape_given = True

    if params.has("a"):
        a = params.float_("a")
        if a <= 0 or a == HUGE_VAL:
            raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN)
    if a == 0:
        raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN)

    if any(params.has(k) for k in ("rf", "f", "es", "e", "b")):
        es, e, f, b, rf = _shape_from(params, a)
        shape_given = True

    if not shape_given:
        es = 0.0  # no shape parameter → sphere
        b = a

    ell = Ellipsoid(a=a, es=es, e=e, f=f, b=b, rf=rf).derive()

    # Spherification flags (ell_set.cpp ellps_spherification); a new
    # radius ≤ 0 is a size error, as in the reference (:410-412)
    new_a = None
    if params.has("R_A"):  # authalic sphere (same surface area)
        es_ = ell.es
        new_a = ell.a * (1.0 - es_ * (1.0 / 6.0 + es_ * (17.0 / 360.0 + es_ * 67.0 / 3024.0)))
    elif params.has("R_V"):  # sphere of same volume
        es_ = ell.es
        new_a = ell.a * (1.0 - es_ * (1.0 / 6.0 + es_ * (5.0 / 72.0 + es_ * 55.0 / 1296.0)))
    elif params.has("R_a"):  # arithmetic mean of a,b
        new_a = 0.5 * (ell.a + ell.b)
    elif params.has("R_g"):  # geometric mean
        prod = ell.a * ell.b
        new_a = math.sqrt(prod) if prod >= 0 else -1.0
    elif params.has("R_h"):  # harmonic mean
        if ell.a + ell.b == 0:
            raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN)
        new_a = 2 * ell.a * ell.b / (ell.a + ell.b)
    if new_a is not None:
        if not new_a > 0:
            raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN)
        return Ellipsoid(a=new_a, es=0.0).derive()
    if params.has("R_lat_a") or params.has("R_lat_g"):
        arith = params.has("R_lat_a")
        key = "R_lat_a" if arith else "R_lat_g"
        phi = params.rad(key)
        t = math.sin(phi)
        if abs(t) > 1:
            raise ProjError(ERR_INVALID_ECCENTRICITY, "|R_lat| > 90")
        t = 1 - ell.es * t * t
        if t == 0:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        if arith:
            a_new = ell.a * (1.0 - ell.es + t) / (2 * t * math.sqrt(t))
        else:
            a_new = ell.a * math.sqrt(1 - ell.es) / t
        ell = Ellipsoid(a=a_new, es=0.0).derive()

    return ell


def _shape_from(params: Params, a: float) -> tuple[float, float, float, float, float]:
    """Return (es, e, f, b, rf) from the first shape key present,
    relative to semimajor axis ``a`` (ell_set.cpp ellps_shape)."""
    if params.has("rf"):
        rf = params.float_("rf")
        if rf == 0:
            raise ProjError(ERR_REV_FLATTENING_IS_ZERO)
        f = 1.0 / rf
        es = 2 * f - f * f
        return es, 0.0, f, 0.0, rf
    if params.has("f"):
        f = params.float_("f")
        rf = 1.0 / f if f != 0.0 else HUGE_VAL
        es = 2 * f - f * f
        if not es >= 0:
            raise ProjError(ERR_ES_LESS_THAN_ZERO)
        return es, 0.0, f, 0.0, rf
    if params.has("es"):
        es = params.float_("es")
        if es >= 1:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        if not es >= 0:
            raise ProjError(ERR_ES_LESS_THAN_ZERO)
        return es, 0.0, 0.0, 0.0, HUGE_VAL
    if params.has("e"):
        e = params.float_("e")
        if e < 0 or e >= 1:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        return e * e, e, 0.0, 0.0, HUGE_VAL
    if params.has("b"):
        b = params.float_("b")
        if b <= 0:
            raise ProjError(ERR_INVALID_ECCENTRICITY)
        if b == a:
            return 0.0, 0.0, 0.0, b, HUGE_VAL
        f = (a - b) / a
        es = 2 * f - f * f
        if not es >= 0:
            raise ProjError(ERR_ES_LESS_THAN_ZERO)
        return es, 0.0, f, b, 1.0 / f if f else HUGE_VAL
    raise ProjError(ERR_MAJOR_AXIS_NOT_GIVEN, "no shape parameter")

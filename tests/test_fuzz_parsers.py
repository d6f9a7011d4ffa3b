"""Parser-robustness fuzz: the user-facing plan-time surfaces
(proj-string → create_operation, WKT1/WKT2/ESRI → from_wkt,
PROJJSON → from_projjson, DMS → dms_to_rad) must fail CLEANLY on
arbitrary or corrupted input — a defined error type, never an
internal-shaped crash (IndexError / AttributeError / TypeError /
UnboundLocalError / RecursionError) and never a hang.

The reference hardens the same surfaces with libfuzzer harnesses
(/root/reference/test/fuzzers/standard_fuzzer.cpp — proj_create over
arbitrary bytes); this is the pytest/hypothesis equivalent, with the
allowed-exception set standing in for "returns NULL with an errno".
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rayproj.core.dms import dms_to_rad
from rayproj.core.errors import ProjError
from rayproj.core.factory import create_operation
from rayproj.core.wkt import from_projjson, from_wkt, to_wkt1, to_wkt2

# Plan-time failures may surface as any of these; anything else is an
# unhandled internal path. OSError covers file-backed ops (+file=...)
# pointed at nonexistent paths.
ALLOWED = (ProjError, ValueError, KeyError, NotImplementedError, OSError)

FUZZ = settings(
    # CI default 150; deep-fuzz sessions raise via FUZZ_EXAMPLES=N.
    max_examples=int(os.environ.get("FUZZ_EXAMPLES", "150")),
    deadline=None,  # this host time-shares noisily; wall-time asserts lie
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# ---------------------------------------------------------------------------
# proj-string surface

_PROJ_NAMES = ["merc", "utm", "tmerc", "lcc", "aea", "stere", "longlat",
               "cart", "helmert", "pipeline", "unitconvert", "axisswap",
               "noop", "krovak", "geos", "nosuchproj"]
_KEYS = ["proj", "ellps", "datum", "zone", "lat_0", "lat_1", "lat_2",
         "lat_ts", "lon_0", "k_0", "x_0", "y_0", "units", "to_meter",
         "a", "b", "rf", "es", "f", "R", "step", "inv", "order", "axis",
         "towgs84", "south", "over", "pm", "init", "file", "h", "sweep",
         "o_proj", "garbage_key"]
_VALUES = ["0", "1", "-1", "90", "-90", "91", "360", "1e300", "-1e300",
           "nan", "inf", "-inf", "0.0001", "WGS84", "GRS80", "intl",
           "m", "ft", "deg", "junk", "", "1,2,3", "1,2,3,4,5,6,7",
           "2,1", "enu", "wsu", "epsg:4326", "zzz:1", "🌍", "1e", "--5"]


@st.composite
def projstrings(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    toks = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            toks.append("+proj=" + draw(st.sampled_from(_PROJ_NAMES)))
        elif kind == 1:
            k = draw(st.sampled_from(_KEYS))
            v = draw(st.sampled_from(_VALUES))
            toks.append(f"+{k}={v}")
        elif kind == 2:
            toks.append("+" + draw(st.sampled_from(_KEYS)))
        else:
            toks.append(draw(st.text(min_size=1, max_size=12)))
    return " ".join(toks)


@FUZZ
@given(projstrings())
def test_create_operation_fails_cleanly(s):
    try:
        op = create_operation(s)
    except ALLOWED:
        return
    # construction succeeded: the op must also TRANSFORM without
    # raising — runtime errors are in-band (err column / inf lanes)
    from rayproj.core.op import FWD, Coords

    coo = Coords(np.array([0.1, np.nan, 2.0]), np.array([0.2, 0.5, np.inf]))
    op.trans(FWD, coo)


@FUZZ
@given(st.text(max_size=64))
def test_create_operation_arbitrary_text(s):
    try:
        create_operation(s)
    except ALLOWED:
        pass


# ---------------------------------------------------------------------------
# WKT surface

_VALID_WKTS = [
    to_wkt2(create_operation("+proj=utm +zone=33 +ellps=GRS80")),
    to_wkt2(create_operation(
        "+proj=lcc +lat_1=49 +lat_2=44 +lat_0=46.5 +lon_0=3 "
        "+x_0=700000 +y_0=6600000 +ellps=GRS80 +towgs84=0,0,0")),
    to_wkt1(create_operation("+proj=merc +lat_ts=2 +ellps=WGS84")),
    to_wkt1(create_operation("+proj=stere +lat_0=90 +lat_ts=70 +ellps=WGS84"),
            esri=True),
]


@st.composite
def mutated_wkt(draw):
    base = draw(st.sampled_from(_VALID_WKTS))
    n_edits = draw(st.integers(min_value=1, max_value=6))
    s = base
    for _ in range(n_edits):
        if not s:
            break
        pos = draw(st.integers(min_value=0, max_value=len(s) - 1))
        action = draw(st.integers(min_value=0, max_value=2))
        if action == 0:  # delete a char
            s = s[:pos] + s[pos + 1:]
        elif action == 1:  # insert a char
            c = draw(st.sampled_from('[]",x0 '))
            s = s[:pos] + c + s[pos:]
        else:  # swap two adjacent chars
            if pos + 1 < len(s):
                s = s[:pos] + s[pos + 1] + s[pos] + s[pos + 2:]
    return s


@FUZZ
@given(mutated_wkt())
def test_from_wkt_mutated_fails_cleanly(s):
    try:
        out = from_wkt(s)
    except ALLOWED:
        return
    assert isinstance(out, str)


@FUZZ
@given(mutated_wkt())
def test_wkt_import_mutated_never_raises(s):
    """The general describe importer returns None (or a dict whose
    PROJ.4 export fails with a per-format error) on corrupted WKT —
    never a traceback reaching the CLI. The one error it passes on is
    a missing EPSG registry, which the CLI reports as such."""
    from rayproj.state import dbcrs, projdb, wktcrs

    try:
        out = wktcrs.wkt_import(s)
    except FileNotFoundError:
        assert not projdb.available()
        return
    if out is not None:
        warnings, crs = out
        assert isinstance(crs, dict)
        try:
            p4 = dbcrs.to_proj4(crs)
            assert isinstance(p4, str)
        except (dbcrs.NotFound, NotImplementedError, ValueError):
            pass  # the CLI prints these as per-format export errors


@FUZZ
@given(st.text(max_size=80))
def test_from_wkt_arbitrary_text(s):
    try:
        from_wkt(s)
    except ALLOWED:
        pass


# ---------------------------------------------------------------------------
# PROJJSON surface

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["ProjectedCRS", "GeographicCRS", "name", "Mercator",
                     "metre", "degree", "EPSG", "", "🌍", "4326"]),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(
            st.sampled_from(["type", "name", "base_crs", "conversion",
                             "method", "parameters", "value", "unit", "id",
                             "authority", "code", "coordinate_system",
                             "datum", "ellipsoid", "semi_major_axis",
                             "inverse_flattening", "junk"]),
            kids, max_size=6),
    ),
    max_leaves=20,
)


@FUZZ
@given(_JSON_DOCS)
# shapes hypothesis has found: a non-object datum, a non-finite
# ellipsoid axis (int(inf) in the number formatter), a non-object base_crs
@example({"type": "GeographicCRS", "datum": "ProjectedCRS"})
@example({"type": "GeographicCRS",
          "datum": {"ellipsoid": {"semi_major_axis": float("inf")}}})
@example({"type": "ProjectedCRS", "base_crs": 4326,
          "conversion": {"method": {"name": "Mercator"}}})
def test_from_projjson_fails_cleanly(doc):
    try:
        out = from_projjson(doc)
    except ALLOWED + (TypeError,):
        # TypeError is allowed HERE only because the input is a parsed
        # Python object of arbitrary shape (a non-dict doc is a caller
        # type error, same as json.loads(3))
        return
    assert isinstance(out, str)


# ---------------------------------------------------------------------------
# DMS surface

@FUZZ
@given(st.text(
    alphabet="0123456789.+-eEdDrRnNsSwW'\" _", max_size=16))
def test_dms_to_rad_fails_cleanly(s):
    try:
        v = dms_to_rad(s)
    except ProjError:
        return
    assert isinstance(v, float)


@FUZZ
@given(st.text(max_size=16))
def test_dms_to_rad_arbitrary_text(s):
    try:
        v = dms_to_rad(s)
    except ProjError:
        return
    assert isinstance(v, float)


@FUZZ
@given(st.text(
    alphabet="0123456789.+-eEdDrRnNsSwW'\" \t_x", max_size=24),
    st.integers(min_value=0, max_value=4))
def test_prefix_parsers_never_raise(s, i):
    """strtod_prefix/dmstor_prefix are total: any text yields a float
    plus an end index in [i, len(s)] that never moves backwards."""
    from rayproj.core.dms import dmstor_prefix, strtod_prefix

    i = min(i, len(s))
    for fn in (strtod_prefix, dmstor_prefix):
        v, j = fn(s, i)
        assert isinstance(v, float)
        assert i <= j <= len(s)


@FUZZ
@given(st.floats(min_value=-3.2, max_value=3.2,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=8),
       st.booleans())
def test_rtodms_roundtrip_random(r, fract, fixed):
    """rtodms output always re-parses via dmstor to within the
    emitted precision."""
    from rayproj.core.dms import dmstor_prefix, rtodms

    txt = rtodms(r, "E", "W", fract, fixed)
    back, consumed = dmstor_prefix(txt)
    assert consumed == len(txt)
    import math
    tol = math.pi / 180.0 / 3600.0 * (10.0 ** -fract) * 0.51
    assert abs(back - r) <= tol


def test_crs_to_crs_random_pairs_fail_cleanly():
    """The engine analogue of the reference's proj_crs_to_crs_fuzzer
    (test/fuzzers/proj_crs_to_crs_fuzzer.cpp): random registry CRS
    pairs either build a working operation or raise one of the clean
    planner error types — never a raw TypeError/AttributeError/
    IndexError — and transforming a probe point never raises."""
    import numpy as np

    from rayproj.core.errors import ProjError
    from rayproj.core.op import FWD, Coords
    from rayproj.state import projdb

    if not projdb.available():
        import pytest

        pytest.skip("EPSG sql scripts not available")
    con = projdb._db()
    codes = [f"{a}:{c}" for a, c in con.execute(
        "SELECT auth_name, code FROM geodetic_crs WHERE deprecated=0 "
        "UNION ALL SELECT auth_name, code FROM projected_crs "
        "WHERE deprecated=0")]
    rng = np.random.default_rng(7)
    built = 0
    for _ in range(150):
        s, t = (codes[i] for i in rng.integers(0, len(codes), 2))
        try:
            op = projdb.create_crs_to_crs(s, t)
        except (KeyError, NotImplementedError, ValueError, ProjError):
            continue
        built += 1
        coo = Coords(np.array([0.1]), np.array([0.7]), np.zeros(1))
        op.trans(FWD, coo)  # may poison to inf, must not raise
    assert built >= 30, built


def test_no_inverse_projection_poisons_not_raises():
    """peirce_q is 'No inv' in the reference (adams.cpp:36); proj_trans
    through its missing inverse returns proj_coord_error with errno
    EINVAL (inv.cpp:166), it does not crash. Mirror: error coords."""
    import numpy as np

    from rayproj.core.errors import EINVAL
    from rayproj.core.factory import create_operation
    from rayproj.core.op import INV, Coords

    op = create_operation("+proj=peirce_q +ellps=sphere")
    assert not op.has_inverse
    coo = Coords(np.array([1e5, 2e5]), np.array([1e5, -2e5]), np.zeros(2))
    op.trans(INV, coo)
    assert np.all(np.isinf(coo.x)) and np.all(coo.err == EINVAL)


# ---------------------------------------------------------------------------
# init-file dictionary parser (resources.load_init vs init.cpp get_init)
# ---------------------------------------------------------------------------

_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.=+-", min_size=1,
    max_size=12).filter(lambda s: "<" not in s and "#" not in s)


@st.composite
def _init_files(draw):
    """A scratch init dictionary: sections of random tokens spread over
    1-3 lines, optionally '<>'-terminated, with comments sprinkled in.
    Returns (text, {section: [raw tokens]})."""
    n_sections = draw(st.integers(1, 4))
    lines, sections = [], {}
    for i in range(n_sections):
        name = f"SEC{i}"
        toks = draw(st.lists(_token, min_size=1, max_size=6))
        sections[name] = toks
        n_lines = draw(st.integers(1, 3))
        per = max(1, (len(toks) + n_lines - 1) // n_lines)
        chunks = [toks[j:j + per] for j in range(0, len(toks), per)]
        first = True
        for chunk in chunks:
            body = " ".join(f"+{t}" if draw(st.booleans()) else t
                            for t in chunk)
            if first:
                lines.append(f"<{name}> {body}")
                first = False
            else:
                lines.append(body)
            if draw(st.booleans()):
                lines.append(f"# comment {i}")
        if draw(st.booleans()) or i < n_sections - 1:
            # explicit terminator for all but (sometimes) the last
            # section; an unterminated final section must end at EOF
            if draw(st.booleans()):
                lines[-1] += " <>"
            else:
                lines.append("<>")
    return "\n".join(lines) + "\n", sections


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_init_files(), pick=st.integers(0, 3))
def test_load_init_matches_token_oracle(tmp_path_factory, data, pick):
    """Every section parses to exactly its own tokens (split on '=',
    '+' stripped) no matter how lines, comments and terminators fall —
    including sections that end at EOF or at the next header."""
    import rayproj.core.resources as resources

    text, sections = data
    name = list(sections)[pick % len(sections)]
    d = tmp_path_factory.mktemp("initfuzz")
    fname = f"fuzz_dict_{abs(hash(text)) % 10 ** 12:x}"
    (d / fname).write_text(text)
    resources.add_search_path(str(d))
    try:
        pairs = resources.load_init(f"{fname}:{name}")
    finally:
        resources._extra_paths.remove(str(d))
        resources._init_cache.pop((fname, name), None)
    expected = []
    for t in sections[name]:
        t = t.lstrip("+")
        if not t:
            continue
        if "=" in t:
            expected.append(tuple(t.split("=", 1)))
        else:
            expected.append((t, None))
    assert pairs == expected

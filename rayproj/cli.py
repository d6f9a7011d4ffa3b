"""Command-line entry points mirroring the reference's apps.

Reference parity (SURVEY.md §3 lifecycle entry points):

* ``proj``  — single-projection filter (src/apps/proj.cpp): text lines
  ``lon lat [z [t]]`` in degrees → projected ``x y``; ``-I`` inverts.
* ``cs2cs`` — CRS→CRS (src/apps/cs2cs.cpp): ``+src_args +to +dst_args``
  via the WGS84 datum hub (the factory's cs2cs emulation, exactly the
  reference's pj_transform path).
* ``cct``   — 4D pipeline filter (src/apps/cct.cpp): applies any
  proj-string operation to ``x y [z [t]]`` records, degrees for
  angular ends.
* ``gie``   — conformance-test runner (src/apps/gie.cpp) over .gie files.

Every transform subcommand also takes ``--parquet IN OUT`` to run the
same operation as a Ray Data ``map_batches`` pipeline over a parquet
table (columns via --x-col/--y-col/...) — the 100-TB path; the text
mode is the byte-for-byte-comparable reference UX.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .core.constants import DEG_TO_RAD, RAD_TO_DEG
from .core.dms import dmstor_prefix, rtodms, strtod_prefix
from .core.errors import ProjError
from .core.factory import create_operation
from .core.op import FWD, INV, Coords

# printf numeric format accepted by -f: exactly one %-conversion of the
# float family (proj.cpp validate_form_string_for_numbers via emess)
_OFORM = re.compile(r"^[^%]*%[-+ 0#]*\d*(?:\.\d+)?[eEfgG][^%]*$")


def _join_args(toks) -> str:
    """Join argv tokens into one proj string, re-quoting values that
    contain whitespace so Params' quote-aware tokenizer reassembles
    them — the reference's pj_double_quote_string_param_if_needed
    (internal.cpp:362, applied by proj_create_argv, 4D_api.cpp:829)."""
    out = []
    for t in toks:
        if "=" in t and any(ch.isspace() for ch in t):
            k, v = t.split("=", 1)
            if not (v.startswith('"') and v.endswith('"')):
                v = '"' + v.replace('"', '""') + '"'
            t = k + "=" + v
        out.append(t)
    return " ".join(out)


def _parse_filter_lines(stream, *, informat, reversein=False, tag="#",
                        read_zt=False):
    """Reference line scanner (src/apps/proj.cpp:57-105,
    src/apps/cs2cs.cpp:90-135): per line, either a tag-echo record
    ``("echo", line)`` or a data record
    ``("data", u, v, z, echoed_prefix, trailing)``.

    ``u``/``v`` are parsed with the prefix-consuming ``informat``
    (dmstor for angular input, strtod otherwise); a failed dmstor
    yields ``inf`` (the reference's HUGE_VAL error lane) and a failed
    strtod yields ``0.0`` with no characters consumed — both exactly
    the C behavior. With ``read_zt`` a third strtod field is consumed
    as ``z`` and a fourth is *probed* as ``t`` but rewound
    (cs2cs.cpp:117-129: the t value feeds the 4D transform yet the
    output echoes the input's t text verbatim); a missing t probes to
    ``inf``. Everything after ``z`` is passed through as ``trailing``.
    """
    recs = []
    inf = float("inf")
    tag = (tag or "#")[:1]  # the reference keeps only the first char
    for line in stream:
        if not line.endswith("\n"):
            line += "\n"
        if line[:1] == tag:
            recs.append(("echo", line))
            continue
        i = 0
        if reversein:
            v, i = informat(line, i)
            u, i = informat(line, i)
        else:
            u, i = informat(line, i)
            v, i = informat(line, i)
        z, t = 0.0, 0.0
        if read_zt:
            z, i = strtod_prefix(line, i)
            t, j = strtod_prefix(line, i)
            if j == i:
                t = inf
        if v == inf:
            u = inf
        prefix = line[:i]
        trailing = line[i:]
        if not trailing:
            trailing = "\n"
        recs.append(("data", u, v, z, t, prefix, trailing))
    return recs


def _emit_filtered(recs, coo, *, ang_out, oform, oterr, echoin=False,
                   reverseout=False, lat_first=False, fract=3,
                   fixed_width=False, with_z=False, facs=None, out=None):
    """Reference output formatter (src/apps/proj.cpp:126-173,
    src/apps/cs2cs.cpp:166-219): error rows print ``oterr``; angular
    output prints DMS via ``rtodms`` unless ``-f``/``-d`` set a printf
    ``oform``; projected output prints through ``oform``; the line's
    trailing text (which carries cs2cs's verbatim ``t`` column) is
    appended byte-identically."""
    out = out if out is not None else sys.stdout
    k = 0
    inf = float("inf")
    for rec in recs:
        if rec[0] == "echo":
            out.write(rec[1])
            continue
        _, pu, pv, pz, pt, prefix, trailing = rec
        if echoin:
            out.write(prefix + "\t")
        u, v, z = coo.x[k], coo.y[k], coo.z[k]
        bad = (coo.err[k] != 0 or pu == inf or not np.isfinite(u)
               or not np.isfinite(v))
        k += 1
        if bad:
            out.write(oterr)
        elif ang_out and not oform:
            # u is always longitude in this engine's data layout;
            # lat_first (the reference's destIsLatLong) only flips the
            # print order — the reference normalizes axes so its u
            # holds latitude for lat-first CRSs, same output bytes
            first_lat = lat_first != reverseout
            pairs = ([(v, ("N", "S")), (u, ("E", "W"))] if first_lat
                     else [(u, ("E", "W")), (v, ("N", "S"))])
            out.write("\t".join(
                rtodms(val, lt[0], lt[1], fract, fixed_width)
                for val, lt in pairs))
        else:
            f = oform or "%.2f"
            if ang_out:
                u *= RAD_TO_DEG
                v *= RAD_TO_DEG
            a, b = (v, u) if (lat_first != reverseout) else (u, v)
            out.write((f % a) + "\t" + (f % b))
        if with_z:
            # parse-error rows keep the input z (the transform block is
            # skipped, cs2cs.cpp:147-163); transform-error rows print
            # the failed result, which formats as inf/nan like printf
            zv = pz if pu == inf else z
            out.write(" " + ((oform or "%.3f") % zv))
        if facs is not None:
            # printed even after oterr (proj.cpp:165-172 has no guard);
            # rows whose factors failed print the star form
            h, kk, s, w, ta, tb = facs[k - 1]
            if np.isfinite(h):
                out.write("\t<%g %g %g %g %g %g>" % (h, kk, s, w, ta, tb))
            else:
                out.write("\t<* * * * * *>")
        out.write(trailing)
    return 0


def _filter_opts(args):
    """Resolve the text-filter output flags: ``-f`` printf format wins
    over ``-d`` digits (proj.cpp:431-438); ``-w``/``-W`` set the
    rtodms fractional-second digits / constant-width mode
    (proj.cpp:420-428 via set_rtodms)."""
    oform = getattr(args, "oform", None)
    if oform is not None and not _OFORM.match(oform):
        raise SystemExit("rayproj: invalid -f format string (need one "
                         "%e/%f/%g conversion)")
    digits = getattr(args, "digits", None)
    if oform is None and digits is not None:
        oform = "%%.%df" % max(0, digits)
    fract, fixed = 3, False
    if getattr(args, "dms_fixed", None) is not None:
        fract, fixed = args.dms_fixed, True
    elif getattr(args, "dms_digits", None) is not None:
        fract = args.dms_digits
    return oform, fract, fixed


def _parse_mult(mv: str, inverse: bool):
    """``-m`` cartesian multiplier (proj.cpp:404-423): ``1/x``/``1:x``
    is a reciprocal ratio; returns ``(prescale, postscale)`` — inverse
    mode flips the post-transform scale to a pre-transform divide
    (proj.cpp:470-474)."""
    try:
        fscale = (1.0 / float(mv[2:])) if mv[:2] in ("1/", "1:") \
            else float(mv)
    except (ValueError, ZeroDivisionError):
        fscale = 0.0
    if fscale == 0.0 or not np.isfinite(fscale):
        raise SystemExit("rayproj: invalid -m multiplier")
    if inverse:
        return 1.0 / fscale, None
    return None, fscale


def _apply_parquet(args, transform, out_cols=("x", "y", "z")):
    import pyarrow as pa
    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")

    def fn(batch: pa.Table) -> pa.Table:
        x = batch.column(args.x_col).to_numpy().copy()
        y = batch.column(args.y_col).to_numpy().copy()
        z = (batch.column(args.z_col).to_numpy().copy()
             if args.z_col and args.z_col in batch.column_names
             else np.zeros(len(x)))
        coo = transform(Coords(x, y, z))
        out = batch
        for name, vals in zip(out_cols, (coo.x, coo.y, coo.z)):
            out = out.append_column(name, pa.array(vals, type=pa.float64()))
        return out.append_column("trans_err", pa.array(coo.err, type=pa.int32()))

    rd.read_parquet(args.parquet[0]).map_batches(
        fn, batch_format="pyarrow"
    ).write_parquet(args.parquet[1])


def _proj_vprocess(args, op) -> int:
    """proj -V verbose per-point analysis, byte-format of the
    reference's vprocess (src/apps/proj.cpp:178-290): lon/lat echoed
    in DMS + %.11g degrees, easting/northing through oform (default
    %.3f in -V mode), the six factors with %-error annotations, and
    convergence in DMS. A leading ``I``/``i`` on a line flips that
    line to inverse input."""
    from .core.factors import factors as _factors

    oform, fract, fixedw = _filter_opts(args)
    oform = oform or "%.3f"
    tag = (getattr(args, "tag", "#") or "#")[:1]
    prescale = postscale = None
    if getattr(args, "mult", None):
        # vprocess applies -m too: prescale before pj_inv
        # (proj.cpp:228), postscale after pj_fwd (proj.cpp:249)
        prescale, postscale = _parse_mult(args.mult, args.inverse)
    for line in sys.stdin:
        if not line.endswith("\n"):
            line += "\n"
        if line[:1] == tag:
            sys.stdout.write(line)
            continue
        i = 0
        linvers = args.inverse
        if line[:1] in "Ii":
            linvers = True
            i = 1
        if linvers:
            x, i = strtod_prefix(line, i)
            y, i = strtod_prefix(line, i)
            if prescale:
                x *= prescale
                y *= prescale
            if getattr(args, "rev_in", False):
                x, y = y, x
            coo = Coords(np.array([x]), np.array([y]))
            with np.errstate(all="ignore"):
                op.trans(INV, coo)
            lam, phi = float(coo.x[0]), float(coo.y[0])
            if not (np.isfinite(lam) and np.isfinite(phi)):
                print("lon-lat input conversion failure", file=sys.stderr)
                continue
        else:
            lam, i = dmstor_prefix(line, i)
            phi, i = dmstor_prefix(line, i)
            if not (np.isfinite(lam) and np.isfinite(phi)):
                print("lon-lat input conversion failure", file=sys.stderr)
                continue
            if getattr(args, "rev_in", False):
                lam, phi = phi, lam
            coo = Coords(np.array([lam]), np.array([phi]))
            with np.errstate(all="ignore"):
                op.trans(FWD, coo)
            x, y = float(coo.x[0]), float(coo.y[0])
            if postscale:
                x *= postscale
                y *= postscale
        if coo.err[0] != 0 or not (np.isfinite(x) and np.isfinite(y)):
            print("projection failure", file=sys.stderr)
            continue
        with np.errstate(all="ignore"):
            f = _factors(op, np.array([lam]), np.array([phi]))
        if not f.ok[0]:
            print("failed to compute factors\n", file=sys.stderr)
            continue
        trailing = line[i:]
        if trailing != "\n":
            sys.stdout.write(trailing)
        w = sys.stdout.write
        w("Longitude: %s [ %.11g ]\n"
          % (rtodms(lam, "E", "W", fract, fixedw), lam * RAD_TO_DEG))
        w("Latitude:  %s [ %.11g ]\n"
          % (rtodms(phi, "N", "S", fract, fixedw), phi * RAD_TO_DEG))
        w("Easting (x):   " + (oform % x) + "\n")
        w("Northing (y):  " + (oform % y) + "\n")
        h, k, s = float(f.h[0]), float(f.k[0]), float(f.s[0])
        w("Meridian scale (h) : %.8f  ( %.4g %% error )\n"
          % (h, (h - 1.0) * 100.0))
        w("Parallel scale (k) : %.8f  ( %.4g %% error )\n"
          % (k, (k - 1.0) * 100.0))
        w("Areal scale (s):     %.8f  ( %.4g %% error )\n"
          % (s, (s - 1.0) * 100.0))
        w("Angular distortion (w): %.3f\n"
          % (float(f.omega[0]) * RAD_TO_DEG))
        w("Meridian/Parallel angle: %.5f\n"
          % (float(f.thetap[0]) * RAD_TO_DEG))
        w("Convergence : %s [ %.8f ]\n"
          % (rtodms(float(f.conv[0]), "", "", fract, fixedw),
             float(f.conv[0]) * RAD_TO_DEG))
        w("Max-min (Tissot axis a-b) scale error: %.5f %.5f\n\n"
          % (float(f.a[0]), float(f.b[0])))
    return 0


def cmd_proj(args) -> int:
    op = create_operation(_join_args(args.projargs))
    # the proj app's issue-#1782 hack (proj.cpp:489-496): General
    # Oblique Transformation with WHATEVER output is rebound to
    # PROJECTED so +to_meter/x_0 apply on output
    if op.name == "ob_tran" and op.right == "whatever":
        from .core.op import IO_PROJECTED

        op.right = IO_PROJECTED
    if getattr(args, "verbose_factors", False):
        return _proj_vprocess(args, op)
    direction = INV if args.inverse else FWD
    ang_in = op.angular_input(direction)
    ang_out = op.angular_output(direction)

    prescale = postscale = None
    if getattr(args, "mult", None):
        prescale, postscale = _parse_mult(args.mult, args.inverse)

    def transform(coo: Coords) -> Coords:
        if ang_in:
            coo.x *= DEG_TO_RAD
            coo.y *= DEG_TO_RAD
        if prescale:
            coo.x *= prescale
            coo.y *= prescale
        op.trans(direction, coo)
        if postscale:
            coo.x *= postscale
            coo.y *= postscale
        if ang_out:
            coo.x *= RAD_TO_DEG
            coo.y *= RAD_TO_DEG
        return coo

    if args.parquet:
        _apply_parquet(args, transform)
        return 0

    # reference text-filter path (src/apps/proj.cpp:57-176): dmstor
    # prefix parsing on the angular side, strtod on the projected side,
    # tag-line echo, trailing-text passthrough, DMS output on inverse.
    oform, fract, fixedw = _filter_opts(args)
    informat = dmstor_prefix if ang_in else strtod_prefix
    recs = _parse_filter_lines(sys.stdin, informat=informat,
                               reversein=args.rev_in, tag=args.tag)
    data = [r for r in recs if r[0] == "data"]
    coo = Coords(np.array([r[1] for r in data], dtype=np.float64),
                 np.array([r[2] for r in data], dtype=np.float64))
    facs = None
    if getattr(args, "factors", False):
        # the reference computes proj_factors at the PRE-transform
        # coordinate in both directions (proj.cpp:108-121 copies
        # coord.lp before the transform) — for -I that means projected
        # values read as radians, which mostly yields the <* * * * * *>
        # row; we reproduce that byte behavior rather than "fix" it
        from .core.factors import factors as _factors

        with np.errstate(all="ignore"):
            f = _factors(op, coo.x.copy(), coo.y.copy())
        facs = np.column_stack([f.h, f.k, f.s,
                                np.degrees(f.omega), f.a, f.b])
        facs[~f.ok] = np.nan
    if prescale:
        coo.x *= prescale
        coo.y *= prescale
    with np.errstate(all="ignore"):
        op.trans(direction, coo)
    if postscale:
        coo.x *= postscale
        coo.y *= postscale
    _emit_filtered(recs, coo, ang_out=ang_out, oform=oform,
                   oterr=args.oterr, echoin=args.echo_in,
                   reverseout=args.rev_out, fract=fract,
                   fixed_width=fixedw, facs=facs)
    return 0


def _expand_crs_tokens(toks):
    """CRS shorthand expansion: 'EPSG:nnnn' → '+init=epsg:nnnn'
    (bundled static catalog + formulaic UTM families; the full
    registry is proj.db scope), and a WKT1/WKT2 CRS string (passed
    as one shell-quoted token) → its proj-string lowering via
    rayproj.core.wkt.from_wkt (io.cpp importFromWkt direction), and a
    PROJJSON document likewise via from_projjson (io.cpp:4905
    JSONParser direction)."""
    from .core.wkt import (from_projjson, from_wkt, looks_like_projjson,
                           looks_like_wkt)

    out = []
    for t in toks:
        if t.upper().startswith("EPSG:") and t[5:].isdigit():
            out.append(f"+init=epsg:{t[5:]}")
        elif t.upper().startswith("ESRI:") and t[5:].isdigit():
            out.append(f"+init=ESRI:{t[5:]}")
        elif t.upper().startswith("IGNF:") and t[5:].replace("_", "").isalnum():
            out.append(f"+init=IGNF:{t[5:]}")
        elif looks_like_wkt(t):
            out.extend(from_wkt(t).split())
        elif looks_like_projjson(t):
            out.extend(from_projjson(t).split())
        else:
            out.append(t)
    return out


def _normalize_defn(defn: str) -> str:
    """Whole-definition normalization: WKT strings (which contain
    spaces inside quoted names) and PROJJSON documents are lowered
    before token expansion."""
    from .core.wkt import (from_projjson, from_wkt, looks_like_projjson,
                           looks_like_wkt)

    if looks_like_wkt(defn):
        return from_wkt(defn)
    if looks_like_projjson(defn):
        return from_projjson(defn)
    return " ".join(_expand_crs_tokens(defn.split()))


def _print_db_candidates(s_crs: str, t_crs: str) -> None:
    """Registry-backed candidate transformations between the geodetic
    bases of two authority:code CRSs (iso19111/factory.cpp
    createOperations direct leg), accuracy-ranked."""
    import re

    m_s = re.match(r"^(EPSG|IGNF|ESRI):(.+)$", s_crs, re.I)
    m_t = re.match(r"^(EPSG|IGNF|ESRI):(.+)$", t_crs, re.I)
    if not (m_s and m_t):
        return
    try:
        from .state import projdb

        if not projdb.available():
            return
        b_s = projdb.geodetic_base(m_s.group(1).upper(), m_s.group(2))
        b_t = projdb.geodetic_base(m_t.group(1).upper(), m_t.group(2))
        if not (b_s and b_t):
            return
        ops = projdb.candidate_operations(*b_s, *b_t)
    except Exception:
        return
    if not ops:
        return
    print(f"== candidate operations between geodetic bases "
          f"{b_s[0]}:{b_s[1]} and {b_t[0]}:{b_t[1]} (proj.db): {len(ops)} ==")
    for o in ops[:10]:
        acc = "?" if o["accuracy"] is None else f"{o['accuracy']:g} m"
        inv = " (inverse)" if o["inverse"] else ""
        extra = f" grid={o['grid']}" if o.get("grid") else ""
        print(f"  {o['auth']}:{o['code']} {o['name']} [{o['method']}] "
              f"acc={acc}{extra}{inv}")
    if len(ops) > 10:
        print(f"  ... {len(ops) - 10} more")


_PROJINFO_FMTS = ("PROJ", "WKT2_2015", "WKT2_2019", "WKT1_GDAL",
                  "WKT1_ESRI", "PROJJSON")


def _projinfo_formats(raw: str) -> list[str] | None:
    """-o value -> ordered section list (src/apps/projinfo.cpp -o
    parsing); None when the value belongs to the legacy proj-string
    describe path only."""
    names = [p.strip().upper().replace(":", "_").replace("-", "_")
             for p in raw.split(",") if p.strip()]
    out: list[str] = []
    for n in names:
        if n in ("DEFAULT",):
            out += ["PROJ", "WKT2_2019"]
        elif n == "ALL":
            out += list(_PROJINFO_FMTS)
        elif n == "PROJ":
            out.append("PROJ")
        elif n in ("WKT2", "WKT2_2019"):
            out.append("WKT2_2019")
        elif n == "WKT2_2015":
            out.append("WKT2_2015")
        elif n in ("WKT1", "WKT1_GDAL"):
            out.append("WKT1_GDAL")
        elif n == "WKT1_ESRI":
            out.append("WKT1_ESRI")
        elif n == "PROJJSON":
            out.append("PROJJSON")
        else:
            return None
    seen: set[str] = set()
    return [f for f in out if not (f in seen or seen.add(f))]


def _projinfo_db_describe(defn: str, args) -> bool:
    """Reference-parity describe of a proj.db object (projinfo.cpp
    outputObject:298-560): section per format with a leading blank line
    between sections, WKT1 blocks also trailed by a blank, deprecation
    warnings with replacement codes. Returns False when `defn` is not a
    database object (caller falls back to the proj-string describe)."""
    from .state import projdb

    if not projdb.available():
        return False
    from .state import dbcrs

    fmts = _projinfo_formats(args.output)
    if fmts is None:
        return False
    quiet = getattr(args, "quiet", False)
    single = getattr(args, "single_line", False)
    kind = getattr(args, "kind", "crs")
    m = re.match(r"([A-Za-z_]+):([0-9A-Za-z_]+)$", defn)

    printed = False

    def header(title: str) -> None:
        nonlocal printed
        if printed:
            print()
        printed = True
        if not quiet:
            print(title)

    if kind == "ellipsoid":
        found = dbcrs.find_ellipsoid(defn)
        if found is None:
            return False
        for f in fmts:
            if f == "PROJ":
                tok = dbcrs.ellipsoid_proj(*found)
                if tok:
                    header("PROJ string:")
                    print(tok)
            elif f.startswith("WKT2"):
                header(f"WKT2:{f[5:]} string:")
                print(dbcrs.ellipsoid_wkt2(*found))
            elif f == "PROJJSON":
                import json as _json

                header("PROJJSON:")
                print(_json.dumps(dbcrs.ellipsoid_projjson(*found),
                                  indent=2))
            elif f.startswith("WKT1"):
                print(f"Error when exporting to {f}: ellipsoid has no "
                      "standalone WKT1 form", file=sys.stderr)
        return True
    if kind == "datum":
        found = dbcrs.find_datum(defn)
        if found is None:
            return False
        for f in fmts:
            if f.startswith("WKT2"):
                header(f"WKT2:{f[5:]} string:")
                print(dbcrs.datum_wkt2(*found))
            elif f == "PROJJSON":
                import json as _json

                header("PROJJSON:")
                print(_json.dumps(dbcrs.datum_projjson(*found), indent=2))
            # PROJ/WKT1: a datum is not proj-string exportable (the
            # reference silently skips its PROJ section too)
        return True
    if kind == "operation":
        if m is None:
            return False
        try:
            pipe = dbcrs.operation_proj_pipeline(
                m.group(1).upper(), m.group(2), multiline=not single)
        except dbcrs.NotFound:
            return False
        for f in fmts:
            if f == "PROJ":
                header("PROJ string:")
                print(pipe)
            elif f.startswith("WKT2"):
                print(f"Error when exporting to {f}: operation WKT "
                      "emission not implemented", file=sys.stderr)
        return True

    # kind == crs
    crs = None
    if defn.lstrip().startswith("GEOGCS"):
        # lenient WKT1 GEOGCS import (non-compliant-WKT1 describe)
        try:
            imported = dbcrs.wkt1_geogcs_import(defn)
        except Exception:
            imported = None
        if imported is not None:
            warnings, crs = imported
            for w in warnings:
                print(w)
    if crs is None:
        # general WKT text import (WKT1-GDAL / WKT2 CRS forms) — the
        # reference describes ANY WKT input with the same format blocks
        # as database objects (projinfo.cpp buildObject -> outputObject)
        from .state import wktcrs

        try:
            imported = wktcrs.wkt_import(defn)
        except FileNotFoundError as e:
            # the WKT names units/datums only the registry resolves;
            # main() reports this instead of a fallback description
            raise FileNotFoundError(
                f"EPSG registry unavailable, cannot import WKT ({e})") from None
        if imported is not None:
            warnings, crs = imported
            for w in warnings:
                print(w)
    if crs is None and m is not None:
        auth_u, code_u = m.group(1).upper(), m.group(2)
        try:
            crs = dbcrs.load_crs(auth_u, code_u)
        except Exception as exc:
            # ESRI text_definition-only rows (53xxx/54xxx world series)
            # have no relational CRS structure to describe: serve the
            # PROJ expansion and the stored ESRI WKT1 verbatim
            td = dbcrs.text_definition(auth_u, code_u)
            if td is None:
                if isinstance(exc, dbcrs.NotFound):
                    return False
                raise
            from .state.projdb import resolve_crs

            for f in fmts:
                if f == "PROJ":
                    header("PROJ.4 string:")
                    print(" ".join(
                        f"+{k}={v}" if v is not None else f"+{k}"
                        for k, v in resolve_crs(auth_u, code_u))
                        + " +type=crs")
                elif f == "WKT1_ESRI":
                    header("WKT1:ESRI string:")
                    print(td)
                    print()
                else:
                    print(f"Error when exporting to {f}: only the "
                          "stored ESRI WKT1 definition is available "
                          "for this CRS", file=sys.stderr)
            return True
    elif crs is None:
        # bare name: CRS first, then datum (the reference's
        # createObjectsFromName cross-type search, projinfo.cpp:215)
        try:
            from .state.projdb import resolve_crs_name

            named = resolve_crs_name(defn)
        except Exception:
            named = None
        if named:
            try:
                crs = dbcrs.load_crs(named[0], named[1])
            except dbcrs.NotFound:
                crs = None
        if crs is None:
            found = dbcrs.find_datum(defn)
            if found is not None:
                for f in fmts:
                    if f.startswith("WKT2"):
                        header(f"WKT2:{f[5:]} string:")
                        print(dbcrs.datum_wkt2(*found))
                return True
            return False

    if crs.get("deprecated") and not quiet:
        print("Warning: object is deprecated")
        repl = dbcrs.deprecation_replacements(crs["auth"], crs["code"])
        if repl:
            print("Alternative non-deprecated CRS:")
            for ra, rc_ in repl:
                print(f"  {ra}:{rc_}")
        print()

    if getattr(args, "promote3d", False):
        crs = dbcrs.promote_to_3d(crs)

    for f in fmts:
        try:
            if f == "PROJ":
                header("PROJ.4 string:")
                print(dbcrs.to_proj4(crs))
            elif f in ("WKT2_2015", "WKT2_2019"):
                header(f"WKT2:{f[5:]} string:")
                print(dbcrs.to_wkt2(crs, f[5:], single=single,
                                    remark=crs.get("remark")))
            elif f == "WKT1_GDAL":
                header("WKT1:GDAL string:")
                print(dbcrs.to_wkt1_gdal(crs))
                print()
            elif f == "WKT1_ESRI":
                header("WKT1:ESRI string:")
                print(dbcrs.to_wkt1_esri(crs))
                print()
            elif f == "PROJJSON":
                import json as _json

                header("PROJJSON:")
                print(_json.dumps(dbcrs.to_projjson(crs), indent=2))
        except (dbcrs.NotFound, NotImplementedError, ValueError) as e:
            # projinfo.cpp outputObject: export failures (no PROJ
            # equivalent for the method, unmapped params, ...) print a
            # per-format error and continue with the other formats
            print(f"Error when exporting to {f}: {e}", file=sys.stderr)
    return True


def _projinfo_db_pair(args) -> bool:
    """Reference-parity candidate listing for the canonical same-datum
    geog→projected pair (projinfo.cpp outputOperations: the single
    candidate is the target's deriving conversion). Other pairs keep
    the engine-format candidate listing."""
    from .state import projdb

    if not projdb.available():
        return False
    from .state import dbcrs

    fmts = _projinfo_formats(args.output)
    if fmts is None:
        return False
    single = getattr(args, "single_line", False)
    quiet = getattr(args, "quiet", False)
    pat = r"([A-Za-z_]+):([0-9A-Za-z_]+)$"
    ms, mt = re.match(pat, args.s_crs), re.match(pat, args.t_crs)
    conv = None
    if ms is not None and mt is not None:
        try:
            s_crs = dbcrs.load_crs(ms.group(1).upper(), ms.group(2))
            t_crs = dbcrs.load_crs(mt.group(1).upper(), mt.group(2))
        except dbcrs.NotFound:
            return False
        conv = dbcrs.same_datum_conversion_op(s_crs, t_crs)
    if conv is None:
        # stored PROJ-authority pipeline ops (defmodel/tinshift chains);
        # quiet mode only — the non-quiet candidate block needs the
        # full createOperations ranking the engine lists its own way
        if quiet and "PROJ" in fmts:
            try:
                pipe = dbcrs.crs_pair_pipeline(args.s_crs, args.t_crs,
                                               single=single)
            except Exception:
                pipe = None
            if pipe is None:
                try:
                    pipe = dbcrs.compound_pair_pipeline(
                        args.s_crs, args.t_crs, single=single)
                except Exception:
                    pipe = None
            if pipe is None:
                pipe = _geoidgrids_pipeline(args.s_crs, args.t_crs, single)
            if pipe is not None:
                print(pipe)
                return True
        # AOI-restricted candidate summary (--bbox / --area + --summary)
        aoi = None
        if getattr(args, "area", None):
            res = dbcrs.area_lookup(args.area)
            if res[0] == "err":
                print(res[1])
                return True
            if res[0] == "none":
                print("No area of use matching provided name")
                return True
            if res[0] == "several":
                print("Several candidates area of use matching "
                      "provided name :")
                for ea, ec, desc in res[1]:
                    print(f"  {ea}:{ec} : {desc}")
                return True
            aoi = res[1]
        elif getattr(args, "bbox", None):
            try:
                w, s_, e, n = [float(v) for v in args.bbox.split(",")]
                aoi = (s_, w, n, e)
            except ValueError:
                aoi = None
        # vertical grid-shift candidate listing (NGF/NAVD88-style)
        try:
            cands = dbcrs.vgrid_candidates(args.s_crs, args.t_crs, aoi=aoi)
        except Exception:
            cands = None
        if cands is not None and ("PROJ" in fmts
                                  or getattr(args, "summary", False)):
            if not quiet:
                print(f"Candidate operations found: {len(cands)}")
            if getattr(args, "summary", False):
                for c in cands:
                    area = f", {c['area']}" if c["area"] else ""
                    print(f"{c['id']}, {c['name']}, {c['accuracy']}{area}")
                return True
            for i, c in enumerate(cands):
                if not quiet:
                    if i:
                        print()
                    print("-------------------------------------")
                    print(f"Operation No. {i + 1}:")
                    print()
                    area = f", {c['area']}" if c["area"] else ""
                    print(f"{c['id']}, {c['name']}, {c['accuracy']}{area}")
                    print()
                    print("PROJ string:")
                if c["steps"] is None:
                    print("Error when exporting to PROJ string: "
                          + ("export of composed operations not "
                             "implemented" if c.get("composed")
                             else "no PROJ-usable grid"),
                          file=sys.stderr)
                else:
                    print(dbcrs._format_pipeline(c["steps"], single))
                if "WKT2_2019" in fmts and c.get("wkt") is not None:
                    s_ep, t_ep = c["endpoints"]
                    print()
                    if not quiet:
                        print("WKT2:2019 string:")
                    print(dbcrs.candidate_wkt2(c["wkt"], s_ep, t_ep,
                                               single=single))
            return True
        # geodetic-pair candidate operations (NAD27→NAD83 pattern)
        try:
            res = dbcrs.geog_pair_candidates(
                args.s_crs, args.t_crs,
                spatial_test=getattr(args, "spatial_test", None)
                or "contains",
                hide_ballpark=getattr(args, "hide_ballpark", False),
                aoi=aoi, grid_check=getattr(args, "grid_check", None))
        except Exception:
            res = None
        if res is not None:
            shown, inter, s_crs, t_crs = res
            if not quiet:
                print(f"Candidate operations found: {len(shown)}")
                if inter > len(shown):
                    print("Note: using '--spatial-test intersects' would "
                          f"bring more results ({inter})")
            if getattr(args, "summary", False):
                for c in shown:
                    print(dbcrs.candidate_display(c))
                return True
            for i, c in enumerate(shown):
                if not quiet:
                    if i:
                        print()
                    print("-------------------------------------")
                    print(f"Operation No. {i + 1}:")
                    print()
                    print(dbcrs.candidate_display(c))
                printed = False
                composed = c["kind"] in ("chain", "other") or \
                    bool(c.get("prefix"))
                if "PROJ" in fmts:
                    if not quiet:
                        print()
                        print("PROJ string:")
                    steps = dbcrs.candidate_proj_steps(c)
                    if steps == ["+proj=noop"]:
                        print("+proj=noop")
                    elif steps is not None:
                        print(dbcrs._format_pipeline(steps, single))
                    elif composed:
                        print("Error when exporting to PROJ string: "
                              "export of composed operations not "
                              "implemented", file=sys.stderr)
                    else:
                        print("Error when exporting to PROJ string: "
                              "unsupported operation method",
                              file=sys.stderr)
                    printed = True
                if "WKT2_2019" in fmts:
                    if printed or not quiet:
                        print()
                    if not quiet:
                        print("WKT2:2019 string:")
                    if composed:
                        print("Error when exporting to WKT2:2019: "
                              "composed operation WKT emission not "
                              "implemented", file=sys.stderr)
                    else:
                        print(dbcrs.candidate_wkt2(c, s_crs, t_crs,
                                                   single=single))
            return True
        return False
    if not quiet:
        print("Candidate operations found: 1")
        print("-------------------------------------")
        print("Operation No. 1:")
        print()
        area = dbcrs.conversion_area(conv)
        print(f"{conv['auth']}:{conv['code']}, {conv['name']}, 0 m"
              + (f", {area}" if area else ""))
        print()
    printed = False
    if "PROJ" in fmts:
        if not quiet:
            print("PROJ string:")
        print(dbcrs.conversion_pipeline(s_crs, t_crs, single=single))
        printed = True
    for f in fmts:
        if f in ("WKT2_2015", "WKT2_2019"):
            if printed:
                print()
            if not quiet:
                print(f"WKT2:{f[5:]} string:")
            print(dbcrs.conversion_wkt2(conv, single=single))
            printed = True
    return True


def _geoidgrids_pipeline(s_crs: str, t_crs: str,
                         single: bool) -> str | None:
    """BoundCRS-with-geoidgrids → its geographic hub: the vertical leg
    is exactly the +geoidgrids vgridshift (projinfo.cpp via
    createBoundVerticalCRS; no registry ranking involved)."""
    m = re.search(r"\+geoidgrids=(\S+)", s_crs)
    if m is None or "+proj=longlat" not in s_crs:
        return None
    mt = re.match(r"EPSG:(\d+)$", t_crs)
    if mt is None:
        return None
    from .state import dbcrs, projdb

    if not projdb.available():
        return None
    try:
        tgt = dbcrs.load_crs("EPSG", mt.group(1))
    except Exception:
        return None
    if tgt["kind"] != "geographic":
        return None
    steps = ["+proj=unitconvert +xy_in=deg +xy_out=rad",
             f"+proj=vgridshift +grids={m.group(1)} +multiplier=1",
             "+proj=unitconvert +xy_in=rad +xy_out=deg"]
    if tgt["cs"]["axes"][0]["orientation"] == "north":
        steps.append("+proj=axisswap +order=2,1")
    return dbcrs._format_pipeline(steps, single)


def cmd_projinfo(args) -> int:
    """CRS resolution at the proj-string level (src/apps/projinfo.cpp):
    expand EPSG codes / proj-strings, print the normalized parameter
    list + derived ellipsoid (-o proj, the default) or a WKT2:2019
    rendering (-o wkt2 / wkt2:2019, the subset io.cpp's WKTFormatter
    can express without proj.db); with -s and -t, print the cs2cs
    datum-hub plan between them. Database-backed outputs remain
    iso19111/factory.cpp scope (SURVEY.md §2.1)."""
    out_fmt = args.output.lower()
    want_wkt = out_fmt.startswith("wkt2")
    want_wkt1 = out_fmt.startswith("wkt1")
    wkt1_esri = out_fmt in ("wkt1:esri", "wkt1_esri")
    want_json = out_fmt == "projjson"

    def describe(defn: str) -> None:
        defn = _normalize_defn(defn)
        op = create_operation(defn)
        if want_wkt:
            from .core.wkt import pretty, to_wkt2

            print(pretty(to_wkt2(op)))
            return
        if want_wkt1:
            from .core.wkt import pretty, to_wkt1

            print(pretty(to_wkt1(op, esri=wkt1_esri)))
            return
        if want_json:
            import json as _json

            from .core.wkt import to_projjson

            print(_json.dumps(to_projjson(op), indent=2))
            return
        toks = []
        for k, v in op.params.pairs:
            toks.append(f"+{k}={v}" if v is not None else f"+{k}")
        print(f"definition: {defn}")
        print(f"expansion:  {' '.join(toks)}")
        e = op.ell
        if e is not None:
            rf = "inf" if e.f == 0 else f"{e.rf:.9f}"
            print(f"ellipsoid:  a={e.a:.9g} rf={rf} es={e.es:.17g}")
        print(f"operation:  {op.name} (angular_out={bool(op.angular_output(FWD))})")

    if args.s_crs and args.t_crs:
        if _projinfo_db_pair(args):
            return 0
        print("== source ==")
        describe(args.s_crs)
        print("== target ==")
        describe(args.t_crs)
        s = _normalize_defn(args.s_crs)
        t = _normalize_defn(args.t_crs)
        print("== operation (WGS84 geodetic hub, cs2cs semantics) ==")
        print(f"+proj=pipeline +step +inv {s} +step {t}")
        _print_db_candidates(args.s_crs, args.t_crs)
        return 0
    for defn in args.crs:
        if _projinfo_db_describe(defn, args):
            continue
        try:
            describe(defn)
        except Exception as exc:
            # the reference's projinfo.cpp:1251 failure path
            print(f"buildObject failed: {exc}", file=sys.stderr)
            return 1
    return 0


_GEODETIC_KEYS = {
    "ellps", "a", "b", "rf", "es", "e", "f", "R", "R_A", "R_V", "R_a",
    "R_g", "R_h", "datum", "towgs84", "nadgrids", "pm", "geoidgrids",
    "vunits", "vto_meter", "over",
}


def _geog_base_tokens(toks):
    """The geographic CRS underlying a projected proj-string: keep only
    its geodetic parameters under +proj=latlong (cs2cs.cpp
    get_geog_crs_proj_string_from_proj_crs equivalent)."""
    out = ["+proj=latlong"]
    for t in toks:
        key = t.lstrip("+").split("=", 1)[0]
        if key in _GEODETIC_KEYS:
            out.append(t)
    return out


# operator kernels that read or write the vertical coordinate — a
# cs2cs end built on one of these is 3D and must not have its height
# pinned by the 2D push/pop emulation
_Z_ACTIVE_OPS = {
    "geocent", "cart", "sch", "affine", "axisswap", "pipeline",
    "topocentric", "geogoffset", "molodensky", "deformation",
    "xyzgridshift", "tinshift", "defmodel", "vgridshift", "unitconvert",
}


def _crs_is_3d(op) -> bool:
    """True when a cs2cs end is inherently 3D — geocentric, a
    z-transforming kernel, or carrying vertical machinery — so the
    input height must flow through instead of being preserved (the
    reference wraps only the datum leg of 2D-CRS pipelines in
    +push v_3 ... +pop v_3; conversions like sch still map z)."""
    if op.name in _Z_ACTIVE_OPS:
        return True
    p = op.params
    return any(p.has(k)
               for k in ("geoidgrids", "vunits", "vto_meter", "vgrids"))


def _tok_lat_first(side_toks) -> bool:
    # only bare authority strings are axis-normalized; +init=epsg:...
    # keeps classic lon-first proj4 init rules (cs2cs.cpp:543
    # proj_context_use_proj4_init_rules(TRUE))
    for t in side_toks:
        m = re.match(r"(EPSG|IGNF|ESRI):(\w+)$", t, re.I)
        if m:
            from .state.projdb import crs_is_lat_first

            try:
                return crs_is_lat_first(m.group(1).upper(), m.group(2))
            except FileNotFoundError as e:
                # guessing lon-first would print a silently wrong
                # coordinate for lat-first CRSs; main() reports this
                raise FileNotFoundError(
                    f"EPSG registry unavailable, axis order of {t} "
                    f"unknown ({e})") from None
    return False


def _latlong_sides(raw_toks, inverse: bool) -> tuple[bool, bool]:
    """(srcIsLatFirst, dstIsLatFirst) — cs2cs.cpp:560-607
    instantiate_crs isLatFirst on each side of +to. A lat-first
    geographic SOURCE consumes input as lat lon (axis normalization on
    the input side); a lat-first DESTINATION prints lat/N-S first."""
    toks = list(raw_toks)
    sep = "+to" if "+to" in toks else ("to" if "to" in toks else None)
    if sep is None:
        return False, False
    split = toks.index(sep)
    a, b = toks[:split], toks[split + 1:]
    if inverse:
        a, b = b, a
    return _tok_lat_first(a), _tok_lat_first(b)


def _strip_datum_tokens(toks):
    """Drop datum-shift info while keeping the implied ellipsoid —
    used to emulate pj_datum_transform's rule that the shift is
    skipped entirely when EITHER side has no datum information
    (transform.cpp: PJD_UNKNOWN short-circuit)."""
    from .core.datums import DATUM_TABLE

    out = []
    for t in toks:
        key, _, val = t.lstrip("+").partition("=")
        if key in ("towgs84", "nadgrids", "grid_fallback"):
            continue
        if key == "datum":
            ell = DATUM_TABLE.get(val, (None, None))[1]
            if ell:
                out.append(f"+ellps={ell}")
            continue
        if key == "init" and val:
            # the datum info hides inside the catalog expansion: inline
            # the expansion minus its datum tokens, so the UNKNOWN rule
            # strips BOTH sides (transform.cpp PJD_UNKNOWN short-circuit)
            try:
                from .core.resources import load_init

                exp = load_init(val)
            except Exception:
                out.append(t)
                continue
            if any(k in ("datum", "towgs84", "nadgrids") for k, _ in exp):
                out.extend(_strip_datum_tokens(
                    [f"+{k}={v}" if v is not None else f"+{k}"
                     for k, v in exp]))
                continue
            out.append(t)
            continue
        out.append(t)
    return out


def _datum_known(toks) -> bool:
    for t in toks:
        key, _, val = t.lstrip("+").partition("=")
        if key in ("datum", "towgs84", "nadgrids"):
            return True
        if key == "init" and val:
            # the datum info may live inside the catalog expansion
            try:
                from .core.resources import load_init

                if any(k in ("datum", "towgs84", "nadgrids")
                       for k, _ in load_init(val)):
                    return True
            except Exception:
                pass
    return False


def cmd_cs2cs(args) -> int:
    raw = list(args.projargs)
    if getattr(args, "db_route", False):
        return _cs2cs_db_route(args, raw)
    named_lat_first: list = [None, None]
    if "+to" in raw or "to" in raw:
        split = raw.index("+to" if "+to" in raw else "to")
        raw_src, raw_dst = raw[:split], raw[split + 1:]
    elif raw and not any(t.startswith("+") for t in raw):
        # positional {source_crs} {target_crs} [files...] form (cs2cs
        # usage line): non-file tokens are CRSs, the rest input files
        crs_pos, files = [], []
        for t in raw:
            if len(crs_pos) < 2 and not os.path.exists(t):
                crs_pos.append(t)
            else:
                files.append(t)
        if len(crs_pos) != 2:
            print("cs2cs: missing source/target CRS", file=sys.stderr)
            return 2
        # bare frame/datum names resolve by registry name search
        # (createFromUserInput's name leg); names in the classic datum
        # table ('NAD27', 'NAD83') expand to their grid/towgs84 datum
        # definition — the reference's createOperations picks the same
        # grid chain — while keeping the authority CRS's axis order
        named_lat_first = [None, None]
        for i, tok in enumerate(crs_pos):
            if ":" not in tok:
                from .core.datums import DATUM_TABLE
                from .state.projdb import (crs_is_lat_first,
                                           resolve_crs_name)

                ac = resolve_crs_name(tok)
                if ac is not None:
                    named_lat_first[i] = crs_is_lat_first(*ac)
                if tok in DATUM_TABLE:
                    crs_pos[i] = f"+proj=latlong +datum={tok}"
                elif ac is not None:
                    crs_pos[i] = f"{ac[0]}:{ac[1]}"
        raw_src, raw_dst = crs_pos[0].split(), crs_pos[1].split()
        if args.inverse:
            named_lat_first.reverse()
        if files:
            import itertools

            args._in_stream = itertools.chain.from_iterable(
                open(f) for f in files)
    else:
        # no +to: the destination is the geographic CRS of the source
        # (cs2cs.cpp:564-572 get_geog_crs_proj_string_from_proj_crs) —
        # classic invproj-style usage
        raw_src, raw_dst = raw, None
    if args.inverse:
        raw_src, raw_dst = raw_dst, raw_src
    src_toks = _expand_crs_tokens(raw_src) if raw_src is not None else None
    dst_toks = _expand_crs_tokens(raw_dst) if raw_dst is not None else None
    if dst_toks is None:
        dst_toks = _geog_base_tokens(src_toks)
    elif src_toks is None:
        src_toks = _geog_base_tokens(dst_toks)
    if not (_datum_known(src_toks) and _datum_known(dst_toks)):
        # the towgs84 hub can't express this pair — try a DIRECT
        # (possibly time-dependent) registry Helmert between the two
        # frames (EPSG 1053-family; ITRF/ETRF cases)
        fr = _frame_pair_op(raw_src, raw_dst)
        if fr is not None:
            return fr(args)
    else:
        # geocentric↔geocentric database pairs use the DIRECT registry
        # Helmert between the two frames when one exists (the op
        # createOperations would pick — e.g. IGNF RGR92→REUN47 TSG355,
        # which is NOT the algebraic inverse of the towgs84 hub legs)
        fr = _frame_pair_op(raw_src, raw_dst, require_geocentric=True)
        if fr is not None:
            return fr(args)
    if _datum_known(src_toks) != _datum_known(dst_toks):
        # one side has no datum info: the reference skips the datum
        # shift on BOTH sides (pj_datum_transform PJD_UNKNOWN rule)
        src_toks = _strip_datum_tokens(src_toks)
        dst_toks = _strip_datum_tokens(dst_toks)
    src = create_operation(_join_args(src_toks))
    dst = create_operation(_join_args(dst_toks))

    def _rotated_longlat(op):
        # +proj=ob_tran +o_proj=longlat is a geographic CRS to the CRS
        # machinery (io.cpp rotated-pole special case, #1525): ob_tran
        # leaves right=WHATEVER exactly when the linked op is angular
        from .core.op import IO_WHATEVER

        return op.name == "ob_tran" and op.right == IO_WHATEVER

    ang_in = (True if src.is_latlong or _rotated_longlat(src)
              else src.angular_input(INV))
    ang_out = (True if dst.is_latlong or _rotated_longlat(dst)
               else dst.angular_output(FWD))

    def transform(coo: Coords) -> Coords:
        if ang_in:
            coo.x *= DEG_TO_RAD
            coo.y *= DEG_TO_RAD
        # src → WGS84 geodetic hub → dst (4D_api.cpp cs2cs emulation:
        # each op's prepare/finalize applies its datum machinery)
        src.inv(coo)
        dst.fwd(coo)
        if ang_out:
            coo.x *= RAD_TO_DEG
            coo.y *= RAD_TO_DEG
        return coo

    if args.parquet:
        _apply_parquet(args, transform)
        return 0

    # reference text-filter path (src/apps/cs2cs.cpp:84-221): dmstor
    # radians on a geographic source, z consumed, t probed-but-echoed,
    # DMS output on a geographic destination unless -f/-d.
    def text_transform(coo: Coords) -> Coords:
        src.inv(coo)
        dst.fwd(coo)
        return coo

    src_lf = (named_lat_first[0] if named_lat_first[0] is not None
              else _tok_lat_first(raw_src or []))
    dst_lf = (named_lat_first[1] if named_lat_first[1] is not None
              else _tok_lat_first(raw_dst or []))
    return _run_cs2cs_filter(args, text_transform, ang_in, ang_out,
                             lat_first=dst_lf, src_lat_first=src_lf,
                             preserve_z=not (_crs_is_3d(src)
                                             or _crs_is_3d(dst)))


def _run_cs2cs_filter(args, text_transform, ang_in, ang_out,
                      lat_first=False, src_lat_first=False,
                      preserve_z=False) -> int:
    """Shared cs2cs text path: parse, 4D transform over radians,
    reference output formatting (x y␣z + verbatim trailing text)."""
    oform, fract, fixedw = _filter_opts(args)
    informat = dmstor_prefix if ang_in else strtod_prefix
    # a lat-first source consumes lat before lon: same mechanics as -r
    # (the reference normalizes axes inside the transform instead)
    rev_in = args.rev_in != src_lat_first
    stream = getattr(args, "_in_stream", None) or sys.stdin
    recs = _parse_filter_lines(stream, informat=informat,
                               reversein=rev_in, tag=args.tag,
                               read_zt=True)
    data = [r for r in recs if r[0] == "data"]
    coo = Coords(np.array([r[1] for r in data], dtype=np.float64),
                 np.array([r[2] for r in data], dtype=np.float64),
                 np.array([r[3] for r in data], dtype=np.float64),
                 np.array([r[4] for r in data], dtype=np.float64))
    z_in = coo.z.copy() if preserve_z else None
    with np.errstate(all="ignore"):
        text_transform(coo)
    if z_in is not None:
        # 2D-CRS pipelines keep the input height byte-identical
        # (the reference's +push v_3 / +pop v_3 wrap) — but only on
        # rows whose transform succeeded; error rows keep the error z
        ok = (coo.err == 0) & np.isfinite(coo.x) & np.isfinite(coo.y)
        coo.z[ok] = z_in[ok]
    _emit_filtered(recs, coo, ang_out=ang_out, oform=oform,
                   oterr=args.oterr, echoin=args.echo_in,
                   reverseout=args.rev_out, fract=fract,
                   fixed_width=fixedw, with_z=True, lat_first=lat_first)
    return 0


def _cs2cs_db_route(args, toks) -> int:
    """cs2cs --db-route EPSG:A +to EPSG:B: route through the registry's
    direct datum candidates (per-point bbox+accuracy selection,
    state/projdb.create_crs_to_crs) instead of the towgs84 hub —
    the reference's proj_create_crs_to_crs default behavior."""
    from .state.projdb import create_crs_to_crs

    sep = "+to" if "+to" in toks else ("to" if "to" in toks else None)
    if sep is None:
        print("cs2cs: missing +to separator", file=sys.stderr)
        return 2
    split = toks.index(sep)
    s_crs = _join_args(toks[:split]).strip()
    t_crs = _join_args(toks[split + 1:]).strip()
    if args.inverse:
        s_crs, t_crs = t_crs, s_crs
    op = create_crs_to_crs(s_crs, t_crs)
    ang_in = op.angular_input(FWD)
    ang_out = op.angular_output(FWD)

    def transform(coo: Coords) -> Coords:
        if ang_in:
            coo.x *= DEG_TO_RAD
            coo.y *= DEG_TO_RAD
        op.trans(FWD, coo)
        if ang_out:
            coo.x *= RAD_TO_DEG
            coo.y *= RAD_TO_DEG
        return coo

    if args.parquet:
        _apply_parquet(args, transform)
        return 0

    def text_transform(coo: Coords) -> Coords:
        op.trans(FWD, coo)
        return coo

    src_lf, dst_lf = _latlong_sides(toks, args.inverse)
    return _run_cs2cs_filter(args, text_transform, ang_in, ang_out,
                             lat_first=dst_lf, src_lat_first=src_lf)


def _single_crs_token(side) -> tuple[str, str] | None:
    """(AUTH, code) when a cs2cs side is exactly one `AUTH:code` or
    `+init=AUTH:code` token; else None."""
    if not (side and len(side) == 1 and ":" in side[0]):
        return None
    tok = side[0]
    for pre in ("+init=", "init="):
        if tok.startswith(pre):
            tok = tok[len(pre):]
            break
    a, _, c = tok.partition(":")
    if not (a and c) or "=" in a:
        return None
    return a.upper(), c


def _frame_pair_op(raw_src, raw_dst, require_geocentric=False):
    """When both cs2cs sides are single authority tokens naming
    reference frames with a direct registry Helmert (time-dependent
    ITRF/ETRF family, or plain geocentric pairs like IGNF
    RGR92→REUN47), return a runner applying that operation; else
    None. Axis order and angular ends follow the CRS types."""
    s_tok, t_tok = _single_crs_token(raw_src), _single_crs_token(raw_dst)
    if not (s_tok and t_tok):
        return None
    try:
        from .state.projdb import (_crs_datum_and_type, crs_is_lat_first,
                                   frame_shift_operation)

        sa, sc = s_tok
        ta, tc = t_tok
        if require_geocentric:
            # a geocentric END cannot ride the towgs84 hub (the
            # cs2cs-emulation's cart_wgs84 leg is absent for geocent
            # ops — the reference's 4D_api null-P coordinate error);
            # such pairs use the direct registry operation instead
            sd = _crs_datum_and_type(sa, sc)
            td = _crs_datum_and_type(ta, tc)
            if not (sd and td and "geocentric" in (sd[2], td[2])):
                return None
        op = frame_shift_operation(sa, sc, ta, tc)
        if op is None:
            return None
        s_kind = _crs_datum_and_type(sa, sc)[2]
        t_kind = _crs_datum_and_type(ta, tc)[2]
        src_lf = crs_is_lat_first(sa, sc)
        dst_lf = crs_is_lat_first(ta, tc)
    except Exception:
        return None
    ang_in = s_kind != "geocentric"
    ang_out = t_kind != "geocentric"

    def run(args):
        def text_transform(coo: Coords) -> Coords:
            op.trans(FWD, coo)
            return coo

        return _run_cs2cs_filter(args, text_transform, ang_in, ang_out,
                                 lat_first=dst_lf, src_lat_first=src_lf)

    return run


def cmd_cct(args) -> int:
    op = create_operation(_join_args(args.projargs))
    direction = INV if args.inverse else FWD

    def transform(coo: Coords) -> Coords:
        if op.angular_input(direction):
            coo.x *= DEG_TO_RAD
            coo.y *= DEG_TO_RAD
        op.trans(direction, coo)
        if op.angular_output(direction):
            coo.x *= RAD_TO_DEG
            coo.y *= RAD_TO_DEG
        return coo

    if args.parquet:
        _apply_parquet(args, transform)
        return 0

    # reference text path (src/apps/cct.cpp:333-408): whitespace
    # columns picked by -c (1-based), -z/-t fixed constants, -s skip,
    # blank/# lines reflected, unreadable records flagged, fixed-width
    # output (%14.10f angles / %13.4f distances by default, -d
    # overrides both) with trailing columns echoed as a comment.
    cols = [1, 2, 3, 4]
    if getattr(args, "columns", None):
        picked = [int(c) for c in args.columns.split(",") if c.strip()]
        cols = (picked + [0, 0, 0, 0])[:4]
    fixed_z = getattr(args, "fixed_z", None)
    fixed_t = getattr(args, "fixed_t", None)
    skip = getattr(args, "skip_lines", 0) or 0
    dec_ang = args.digits if args.digits is not None else 10
    dec_dist = args.digits if args.digits is not None else 4
    ang_in = op.angular_input(direction)
    ang_out = op.angular_output(direction)
    colmax = max(cols)
    inf = float("inf")

    recs = []
    rec_no = -1
    for line in sys.stdin:
        rec_no += 1  # optargpm.h record_index: counts every read line
        if not line.endswith("\n"):
            line += "\n"
        if skip > 0:
            skip -= 1
            continue
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            recs.append(("echo", line))
            continue

        def _col(n):
            if n < 1 or n > len(fields):
                return inf
            val, end = strtod_prefix(fields[n - 1])
            return val if end else inf

        x, y = _col(cols[0]), _col(cols[1])
        # missing z/t columns stay HUGE_VAL and flow into the 4D
        # transform and the output (cct.cpp parse_input_line:457-460);
        # only a missing/unparseable x marks the record unreadable
        z = fixed_z if fixed_z is not None else _col(cols[2])
        t = fixed_t if fixed_t is not None else _col(cols[3])
        if x == inf:
            recs.append(("echo", "# Record %d UNREADABLE: %s"
                         % (rec_no, line)))
            print("cct: Could not parse file '<stdin>' line %d"
                  % (rec_no + 1), file=sys.stderr)
            continue
        comment = " ".join(fields[colmax:])
        recs.append(("data", x, y, z, t, comment, rec_no, line))

    data = [r for r in recs if r[0] == "data"]
    coo = Coords(np.array([r[1] for r in data]),
                 np.array([r[2] for r in data]),
                 np.array([r[3] for r in data]),
                 np.array([r[4] for r in data]))
    if ang_in:
        coo.x *= DEG_TO_RAD
        coo.y *= DEG_TO_RAD
    with np.errstate(all="ignore"):
        op.trans(direction, coo)
    k = 0
    for rec in recs:
        if rec[0] == "echo":
            sys.stdout.write(rec[1])
            continue
        comment = rec[5]
        x, y, z, t = coo.x[k], coo.y[k], coo.z[k], coo.t[k]
        bad = coo.err[k] != 0 or not (np.isfinite(x) and np.isfinite(y))
        k += 1
        if bad:
            sys.stdout.write("# Record %d TRANSFORMATION ERROR: %s"
                             % (rec[6], rec[7]))
            continue
        sep = " " if comment else ""
        if ang_out:
            fmt = "%%14.%df  %%14.%df  %%12.%df  %%12.4f%%s%%s\n" % (
                dec_ang, dec_ang, dec_dist)
            sys.stdout.write(fmt % (x * RAD_TO_DEG, y * RAD_TO_DEG,
                                    z, t, sep, comment))
        else:
            fmt = "%%13.%df  %%13.%df  %%12.%df  %%12.4f%%s%%s\n" % (
                dec_dist, dec_dist, dec_dist)
            sys.stdout.write(fmt % (x, y, z, t, sep, comment))
    return 0


def _geod_line_mode(par, a: float, f: float, args) -> int:
    """geod line/arc mode (src/apps/geod.cpp do_geod/do_arc +
    geod_set.cpp:53-74): the line is fixed by +lat_1/+lon_1 and either
    +lat_2/+lon_2 (solved by the inverse problem) or +A/+S (forward);
    +n_S=N prints N+1 points along it (endpoints included), +del_S=d
    picks N = round(S/d), +n_A/+del_A sweeps the azimuth instead
    (arc mode). Coordinates print as DMS via rtodms (printLL,
    geod.cpp:27-35) unless -f/-d select a printf format."""
    import numpy as np

    from .mathx.geodesic import geod_direct, geod_inverse

    oform, fract, fixedw = _filter_opts(args)
    lat1 = par.rad("lat_1")
    lon1 = par.rad("lon_1")
    if par.str_("lat_2") is not None:
        lat2 = par.rad("lat_2")
        lon2 = par.rad("lon_2")
        s12, al12, _ = geod_inverse(
            a, f, np.array([lat1]), np.array([lon1]),
            np.array([lat2]), np.array([lon2]))
        S, al12 = float(s12[0]), float(al12[0])
    elif par.str_("S") is not None:
        # presence test (geod_set.cpp pj_param tS), not truthiness: an
        # explicit +S=0 is a degenerate but valid distance
        S = par.float_("S")
        al12 = par.rad("A")
        la2, lo2, _ = geod_direct(
            a, f, np.array([lat1]), np.array([lon1]),
            np.array([al12]), np.array([S]))
        lat2, lon2 = float(la2[0]), float(lo2[0])
    else:
        print("geod: incomplete geodesic/arc info", file=sys.stderr)
        return 1

    def show(phi, lam):
        # printLL (geod.cpp:27-35): DMS via rtodms unless -f/-d set a
        # printf format; latitude first
        if oform:
            print((oform % (phi * RAD_TO_DEG)) + "\t"
                  + (oform % (lam * RAD_TO_DEG)))
        else:
            print(rtodms(phi, "N", "S", fract, fixedw) + "\t"
                  + rtodms(lam, "E", "W", fract, fixedw))

    n_alpha = par.int_("n_A")
    if n_alpha > 0:  # arc mode: rotate the azimuth del_A per step
        del_alpha = par.rad("del_A")
        if del_alpha == 0.0:
            print("geod: del azimuth == 0", file=sys.stderr)
            return 1
        show(lat2, lon2)
        az = al12
        for _ in range(n_alpha):
            az += del_alpha
            la, lo, _ = geod_direct(
                a, f, np.array([lat1]), np.array([lon1]),
                np.array([az]), np.array([S]))
            show(float(la[0]), float(lo[0]))
        return 0
    del_S = abs(par.float_("del_S"))
    n_S = int(S / del_S + 0.5) if del_S else par.int_("n_S")
    if n_S <= 0:
        print("geod: no interval divisor selected", file=sys.stderr)
        return 1
    show(lat1, lon1)
    fracs = np.arange(1, n_S) * (S / n_S)
    if len(fracs):
        la, lo, _ = geod_direct(
            a, f, np.full(len(fracs), lat1), np.full(len(fracs), lon1),
            np.full(len(fracs), al12), fracs)
        for i in range(len(fracs)):
            show(float(la[i]), float(lo[i]))
    show(lat2, lon2)
    return 0


def cmd_geod(args) -> int:
    """Geodesic problems (src/apps/geod.cpp): forward ``lat1 lon1 azi1
    s12`` → ``lat2 lon2 azi2-back``; inverse (-I) ``lat1 lon1 lat2
    lon2`` → ``azi1 azi2 s12``."""
    from .core.ellps import resolve_ellipsoid
    from .core.params import Params
    from .mathx.geodesic import geod_direct, geod_inverse

    par = Params.parse(_join_args(args.projargs) or "+ellps=WGS84")
    ell = resolve_ellipsoid(par)
    f = (ell.a - ell.b) / ell.a
    R = DEG_TO_RAD
    if par.str_("lat_1") is not None:
        return _geod_line_mode(par, ell.a, f, args)
    if args.parquet:
        # bulk inverse problem over a parquet table:
        # (lat1, lon1, lat2, lon2) degrees → azi1, azi2 (deg), dist_m
        import pyarrow as pa
        import ray
        import ray.data as rd

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False, logging_level="ERROR")

        def fn(batch: pa.Table) -> pa.Table:
            s12, azi1, azi2 = geod_inverse(
                ell.a, f,
                batch.column("lat1").to_numpy() * R,
                batch.column("lon1").to_numpy() * R,
                batch.column("lat2").to_numpy() * R,
                batch.column("lon2").to_numpy() * R,
            )
            out = batch.append_column("azi1", pa.array(azi1 * RAD_TO_DEG))
            out = out.append_column("azi2", pa.array(azi2 * RAD_TO_DEG))
            return out.append_column("dist_m", pa.array(s12))

        rd.read_parquet(args.parquet[0]).map_batches(
            fn, batch_format="pyarrow"
        ).write_parquet(args.parquet[1])
        return 0
    # reference text-filter path (src/apps/geod.cpp:62-127): dmstor
    # inputs (lat lon order), tag-line echo, trailing-text passthrough,
    # DMS output via rtodms unless -f; distance through -F (default
    # %.3f) scaled by +units; -a full output; -p positive azimuths.
    from .core.units import linear_unit_to_meter

    oform, fract, fixedw = _filter_opts(args)
    osform = getattr(args, "osform", None) or "%.3f"
    if not _OFORM.match(osform):
        raise SystemExit("rayproj: invalid -F format string")
    to_meter = 1.0
    if par.str_("units") is not None:
        to_meter = linear_unit_to_meter(par.str_("units"))
    elif par.float_("to_meter"):
        to_meter = par.float_("to_meter")
    tag = (args.tag or "#")[:1]
    recs = []
    for line in sys.stdin:
        if not line.endswith("\n"):
            line += "\n"
        if line[:1] == tag:
            recs.append(("echo", line))
            continue
        i = 0
        a1, i = dmstor_prefix(line, i)
        a2, i = dmstor_prefix(line, i)
        a3, i = dmstor_prefix(line, i)
        if args.inverse:
            a4, i = dmstor_prefix(line, i)
        else:
            # 4th field is a distance: re-parse it as plain strtod
            # from where the 3rd parse ended (dmstor would misread
            # 12d34 units); reference uses strtod directly
            a4, i = strtod_prefix(line, i)
            a4 *= to_meter
        recs.append(("data", a1, a2, a3, a4, line[i:] or "\n"))

    data = [r for r in recs if r[0] == "data"]
    cols = [np.array([r[j] for r in data], dtype=np.float64)
            for j in (1, 2, 3, 4)]
    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if args.inverse:
                s12, al12, al21 = geod_inverse(ell.a, f, cols[0], cols[1],
                                               cols[2], cols[3])
                phi2, lam2 = cols[2], cols[3]
            else:
                phi2, lam2, al21 = geod_direct(ell.a, f, cols[0], cols[1],
                                               cols[2], cols[3])
                s12, al12 = cols[3], cols[2]
    # back azimuth: azi2 += azi2 >= 0 ? -180 : 180
    # (geod_interface.cpp:20,32 — applied in both geod_for and geod_inv)
    al21 = np.where(al21 >= 0, al21 - np.pi, al21 + np.pi)
    if getattr(args, "pos_azi", False):
        al12 = np.where(al12 < 0, al12 + 2 * np.pi, al12)
        al21 = np.where(al21 < 0, al21 + 2 * np.pi, al21)

    def _ll(phi, lam):
        if oform:
            return ((oform % (phi * RAD_TO_DEG)) + "\t"
                    + (oform % (lam * RAD_TO_DEG)))
        return (rtodms(phi, "N", "S", fract, fixedw) + "\t"
                + rtodms(lam, "E", "W", fract, fixedw))

    def _az(a):
        if oform:
            return oform % (a * RAD_TO_DEG)
        return rtodms(a, "", "", fract, fixedw)

    k = 0
    for rec in recs:
        if rec[0] == "echo":
            sys.stdout.write(rec[1])
            continue
        trailing = rec[5]
        parts = []
        if getattr(args, "fullout", False):
            parts.append(_ll(cols[0][k], cols[1][k]))
            parts.append(_ll(phi2[k], lam2[k]))
            parts.append(_az(al12[k]) + "\t" + _az(al21[k]) + "\t"
                         + (osform % (s12[k] / to_meter)))
        elif args.inverse:
            parts.append(_az(al12[k]) + "\t" + _az(al21[k]) + "\t"
                         + (osform % (s12[k] / to_meter)))
        else:
            parts.append(_ll(phi2[k], lam2[k]) + "\t" + _az(al21[k]))
        sys.stdout.write("\t".join(parts) + trailing)
        k += 1
    return 0


def cmd_gie(args) -> int:
    from .testing.gie import GieResult, run_gie_file

    tot = GieResult()
    for path in args.files:
        r = run_gie_file(path, create_operation)
        print(f"{path}: ok {r.ok} failed {r.failed} skipped {r.skipped}")
        tot.merge(r)
    for f in tot.failures[:20]:
        print(f"  FAIL {f.file}:{f.lineno} {f.operation[:60]} dev={f.deviation}")
    return 1 if tot.failed else 0


def cmd_lists(args) -> int:
    """-lp/-le/-lu/-ld listings (ref src/apps/proj.cpp list handling;
    tables from src/pj_list.h, ellps.cpp, units.cpp, datums.cpp)."""
    if getattr(args, "list_projs", False):
        from .ops import REGISTRY, load_all

        load_all()
        for name in sorted(set(REGISTRY) | {"pipeline"}):
            print(name)
    if getattr(args, "list_ellps", False):
        from .core.ellps import ELLPS_TABLE

        for eid, (major, shape) in ELLPS_TABLE.items():
            print(f"{eid:>12} {major:16} {shape:16}")
    if getattr(args, "list_units", False):
        from .core.units import LINEAR_UNITS

        for uid, to_m in LINEAR_UNITS.items():
            print(f"{uid:>12} {to_m:.12g} m")
    if getattr(args, "list_datums", False):
        from .core.datums import DATUM_TABLE

        for did, (shift, ellps) in DATUM_TABLE.items():
            print(f"{did:>14} {ellps:10} {shift}")
    return 0


# options that consume a following value token, per transform
# subcommand — used to hoist options placed after the +proj-string
# (argparse REMAINDER would otherwise swallow them silently; the
# reference apps accept options anywhere on the command line)
_VALUE_OPTS = {
    "proj": {"-d", "-m", "-f", "-e", "-t", "-w", "-W"},
    "cs2cs": {"-d", "-f", "-e", "-t", "-w", "-W"},
    "geod": {"-d", "-f", "-F", "-t", "-w", "-W"},
    "cct": {"-d", "-c", "-z", "-t", "-s"},
}
_COMMON_VALUE_OPTS = {"--digits", "--x-col", "--y-col", "--z-col"}


def _hoist_options(cmd: str, toks: list[str]) -> list[str]:
    """Reorder a transform subcommand's argv so every option (plus its
    value tokens) precedes the positional proj-string — the reference
    apps scan options anywhere (proj.cpp:300-460), while argparse's
    REMAINDER stops option recognition at the first ``+`` token."""
    value_opts = _VALUE_OPTS.get(cmd, set()) | _COMMON_VALUE_OPTS
    head: list[str] = []
    tail: list[str] = []
    i = 0
    while i < len(toks):
        tk = toks[i]
        if len(tk) > 1 and tk.startswith("-"):
            head.append(tk)
            nval = 2 if tk == "--parquet" else (1 if tk in value_opts else 0)
            for _ in range(nval):
                i += 1
                if i < len(toks):
                    head.append(toks[i])
        else:
            tail.append(tk)
        i += 1
    return head + tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="rayproj")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn in [("proj", cmd_proj), ("cs2cs", cmd_cs2cs), ("cct", cmd_cct),
                     ("geod", cmd_geod)]:
        p = sub.add_parser(name)
        p.add_argument("-I", "--inverse", action="store_true")
        p.add_argument("-d", "--digits", type=int, default=None)
        if name == "proj":
            p.add_argument("-V", "--verbose-factors", action="store_true")
            p.add_argument("-S", dest="factors", action="store_true",
                           help="append <h k s w a b> scale factors")
            p.add_argument("-m", dest="mult", default=None,
                           help="cartesian multiplier (x, 1/x or 1:x)")
        if name in ("proj", "cs2cs", "geod"):
            # reference text-filter flags (proj.cpp:325-448,
            # cs2cs.cpp:314-500, geod.cpp:146-210)
            p.add_argument("-f", dest="oform", default=None,
                           help="printf output format, e.g. %%.4f")
            p.add_argument("-t", dest="tag", default="#",
                           help="pass-through line tag character")
            p.add_argument("-w", dest="dms_digits", type=int, default=None,
                           help="DMS fractional-second digits")
            p.add_argument("-W", dest="dms_fixed", type=int, default=None,
                           help="constant-width DMS with N digits")
        if name in ("proj", "cs2cs"):
            p.add_argument("-e", dest="oterr", default="*\t*",
                           help="error line text")
            p.add_argument("-E", dest="echo_in", action="store_true",
                           help="echo input line before output")
            p.add_argument("-r", dest="rev_in", action="store_true",
                           help="reverse input coordinate order")
            p.add_argument("-s", dest="rev_out", action="store_true",
                           help="reverse output coordinate order")
        if name == "geod":
            p.add_argument("-F", dest="osform", default=None,
                           help="printf format for distances")
            p.add_argument("-p", dest="pos_azi", action="store_true",
                           help="azimuths as positive angles")
            p.add_argument("-a", dest="fullout", action="store_true",
                           help="full output: both endpoints + azimuths")
        if name == "cct":
            # reference cct column/constant flags (cct.cpp:207-285)
            p.add_argument("-c", dest="columns", default=None,
                           help="1-based input columns as x,y,z,t")
            p.add_argument("-z", dest="fixed_z", type=float, default=None,
                           help="fixed height for all records")
            p.add_argument("-t", dest="fixed_t", type=float, default=None,
                           help="fixed time for all records")
            p.add_argument("-s", dest="skip_lines", type=int, default=0,
                           help="skip N first lines of input")
        p.add_argument("-lp", action="store_true", dest="list_projs",
                       help="list projection ids")
        p.add_argument("-le", action="store_true", dest="list_ellps",
                       help="list ellipsoids")
        p.add_argument("-lu", action="store_true", dest="list_units",
                       help="list linear units")
        p.add_argument("-ld", action="store_true", dest="list_datums",
                       help="list datums")
        if name == "cs2cs":
            p.add_argument("--db-route", action="store_true",
                           help="route datum shift through registry "
                                "candidates (per-point bbox+accuracy)")
        p.add_argument("--parquet", nargs=2, metavar=("IN", "OUT"))
        p.add_argument("--x-col", default="lon")
        p.add_argument("--y-col", default="lat")
        p.add_argument("--z-col", default=None)
        p.add_argument("projargs", nargs=argparse.REMAINDER)
        p.set_defaults(fn=fn)
    g = sub.add_parser("gie")
    g.add_argument("files", nargs="+")
    g.set_defaults(fn=cmd_gie)
    pi = sub.add_parser("projinfo")
    pi.add_argument("-s", "--s-crs", default=None)
    pi.add_argument("-t", "--t-crs", default=None)
    pi.add_argument("-o", "--output", default="default",
                    help="output format(s), comma separated: PROJ, "
                         "WKT2_2015, WKT2_2019, WKT1_GDAL, WKT1_ESRI, "
                         "PROJJSON, ALL (default: PROJ + WKT2:2019)")
    pi.add_argument("-k", "--kind", default="crs",
                    choices=["crs", "operation", "ellipsoid", "datum"])
    pi.add_argument("-q", "--quiet", action="store_true")
    pi.add_argument("--3d", dest="promote3d", action="store_true")
    pi.add_argument("--single-line", action="store_true")
    # accepted for reference-CLI compatibility; candidate filtering
    # beyond the canonical cases keeps the engine-format listing
    pi.add_argument("--grid-check", default=None)
    pi.add_argument("--spatial-test", default=None)
    pi.add_argument("--summary", action="store_true")
    pi.add_argument("--hide-ballpark", action="store_true")
    pi.add_argument("--bbox", default=None)
    pi.add_argument("--area", default=None)
    pi.add_argument("crs", nargs="*")
    pi.set_defaults(fn=cmd_projinfo)
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("proj", "cs2cs", "cct", "geod"):
        argv = [argv[0]] + _hoist_options(argv[0], argv[1:])
    args = ap.parse_args(argv)
    # emess(3, ...) behavior (apps/emess.cpp + e.g. proj.cpp "projection
    # initialization failure"): plan-time and file errors print
    # "<prog>: <cause>" to stderr and exit nonzero — never a traceback.
    try:
        if getattr(args, "list_projs", False) or getattr(args, "list_ellps", False) \
                or getattr(args, "list_units", False) or getattr(args, "list_datums", False):
            return cmd_lists(args)
        return args.fn(args)
    except (ProjError, NotImplementedError) as e:
        print(f"{args.cmd}: initialization failure\ncause: {e}",
              file=sys.stderr)
        return 1
    except OSError as e:
        print(f"{args.cmd}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

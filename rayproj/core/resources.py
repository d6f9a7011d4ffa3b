"""Resource-file search path (+init catalogs, grid files).

The engine equivalent of PROJ_LIB (init.cpp:212-318 get_init,
filemanager search semantics): a colon-separated list of directories
from ``RAYPROJ_DATA`` plus programmatic additions. The engine ships no
catalog/grid data itself — like the reference without proj-data,
resources are user-provided.
"""

from __future__ import annotations

import os
import re
import tempfile

from .errors import ERR_NO_ARGS, ProjError

_extra_paths: list[str] = []
_init_cache: dict[tuple[str, str], list[tuple[str, str | None]]] = {}
# in-memory catalogs (e.g. a gie file's own <code> … <> sections)
_catalog_overrides: dict[str, dict[str, list[tuple[str, str | None]]]] = {}


def publish(path: str, write) -> None:
    """Atomically publish the file ``path``: ``write(tmp)`` fills a
    temp file in ``path``'s directory, which then replaces ``path`` in
    one rename. If ``write`` or the rename raises, the temp file is
    removed and ``path`` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    os.close(fd)
    os.unlink(tmp)  # ``write`` creates it, with the mode the umask gives, not 0600
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def set_catalog_override(fname: str, mapping: dict[str, list[tuple[str, str | None]]]) -> None:
    _catalog_overrides[fname] = mapping


def clear_catalog_override(fname: str) -> None:
    _catalog_overrides.pop(fname, None)


def search_paths() -> list[str]:
    paths = list(_extra_paths)
    env = os.environ.get("RAYPROJ_DATA", "")
    paths.extend(p for p in env.split(":") if p)
    return paths


def add_search_path(path: str) -> None:
    if path not in _extra_paths:
        _extra_paths.insert(0, path)


# proj_context_set_file_finder (filemanager.cpp): a user callback
# consulted before the search paths; returns a resolved path or None
# to fall through to the normal lookup.
_file_finder = None


def set_file_finder(finder) -> None:
    global _file_finder
    _file_finder = finder


def find_file(name: str) -> str | None:
    if _file_finder is not None:
        cand = _file_finder(name)
        if cand and os.path.exists(cand):
            return cand
    # only absolute, home-relative or EXPLICITLY relative ("./", "../")
    # names resolve against the filesystem directly — bare names go to
    # the search paths (filemanager.cpp is_rel_or_absolute_filename),
    # so a stray cwd file can't shadow a grid in the data dir
    if (os.path.isabs(name) or name.startswith(("./", "../", "~"))) \
            and os.path.isfile(os.path.expanduser(name)):
        return os.path.expanduser(name)
    for d in search_paths():
        cand = os.path.join(d, name)
        if os.path.exists(cand):
            return cand
    return None


_SECTION = re.compile(r"<(\w+)>")


def load_init(key: str) -> list[tuple[str, str | None]]:
    """Expand 'file:section' into parameter pairs (init.cpp get_init).

    Raises NotImplementedError for epsg:/IGNF: catalogs (served from
    proj.db in the reference — out of scope per SURVEY.md §2.1).
    """
    if ":" not in key:
        raise ProjError(ERR_NO_ARGS, f"no colon in init key {key!r}")
    fname, section = key.split(":", 1)
    override = _catalog_overrides.get(fname)
    if override is not None and section in override:
        return override[section]
    if fname in ("IGNF", "ESRI"):
        dbp = _projdb_crs(fname, section)
        if dbp is not None:
            return dbp
        raise NotImplementedError(
            f"init catalog {fname!r} requires the EPSG database"
        )
    ck = (fname, section)
    if ck in _init_cache:
        return _init_cache[ck]
    path = find_file(fname)
    bundled_epsg = False
    if path is None and fname == "epsg":
        # bundled static transcription of the GIGS-corpus codes (the
        # full catalog lives in proj.db in the reference — out of
        # scope, so codes missing from the transcription raise
        # NotImplementedError like the catalog itself used to)
        cand = os.path.join(os.path.dirname(__file__), "..", "data", "epsg")
        if os.path.exists(cand):
            path = cand
            bundled_epsg = True
    if path is None:
        raise NotImplementedError(f"init file {fname!r} not found on RAYPROJ_DATA path")
    pairs: list[tuple[str, str | None]] = []
    in_section = False
    with open(path, errors="replace") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not in_section:
                m = _SECTION.match(line)
                if m and m.group(1) == section:
                    in_section = True
                    line = line[m.end():]
                else:
                    continue
            # a section ends at ANY '<' — the explicit '<>' terminator
            # or the next section's header — or at EOF
            # (init.cpp get_init_string "end_i_cator" loop)
            end = line.find("<")
            if end >= 0:
                line = line[:end]
            for tok in line.split():
                tok = tok.lstrip("+")
                if not tok:
                    continue
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    pairs.append((k, v))
                else:
                    pairs.append((tok, None))
            if end >= 0:
                _init_cache[ck] = pairs
                return pairs
    if in_section:
        # EOF also ends a section (init.cpp: "End of file? - done!")
        _init_cache[ck] = pairs
        return pairs
    if bundled_epsg:
        synth = _formulaic_epsg(section)
        if synth is not None:
            _init_cache[ck] = synth
            return synth
        dbp = _projdb_epsg(section)
        if dbp is not None:
            _init_cache[ck] = dbp
            return dbp
        raise NotImplementedError(
            f"epsg:{section} not in the bundled static catalog and the EPSG "
            "database (data/sql) is unavailable or lacks the code"
        )
    raise ProjError(-2, f"init section {section!r} not found in {fname!r}")


def _projdb_crs(auth: str, section: str) -> list[tuple[str, str | None]] | None:
    """Full-registry fallback: resolve the (authority, code) from the
    EPSG database built out of the reference's data/sql scripts
    (state/projdb.py). Returns None when the database can't be built
    here or the code is unknown/unmapped — callers then raise the
    catalog error."""
    try:
        from ..state import projdb

        if not projdb.available():
            return None
        return projdb.resolve_crs(auth, section)
    except (KeyError, NotImplementedError, ValueError, OSError):
        return None


def _projdb_epsg(section: str) -> list[tuple[str, str | None]] | None:
    try:
        return _projdb_crs("EPSG", str(int(section)))
    except ValueError:
        return None


def _formulaic_epsg(section: str) -> list[tuple[str, str | None]] | None:
    """Synthesize the formulaic UTM-grid EPSG families from the public
    registry's parameterization (each family is one rule over the zone
    number — no database needed): WGS 84 326xx/327xx, ETRS89 258xx,
    NAD83 269xx, GDA94 MGA 283xx, ED50 UTM 230xx, DHDN Gauss-Krueger
    3146x, Pulkovo 1942 Gauss-Krueger 284xx. Grid-dependent datums
    (e.g. NAD27) are deliberately excluded — they need proj.db + grid
    files."""
    try:
        code = int(section)
    except ValueError:
        return None

    def utm(zone: int, extra: str, south: bool = False):
        s = f"proj=utm zone={zone}" + (" south" if south else "")
        s += f" {extra} units=m no_defs"
        return [
            tuple(t.split("=", 1)) if "=" in t else (t, None) for t in s.split()
        ]

    if 32601 <= code <= 32660:
        return utm(code - 32600, "datum=WGS84")
    if 32701 <= code <= 32760:
        return utm(code - 32700, "datum=WGS84", south=True)
    if 25828 <= code <= 25838:
        return utm(code - 25800, "ellps=GRS80 towgs84=0,0,0,0,0,0,0")
    if 26901 <= code <= 26923:
        return utm(code - 26900, "ellps=GRS80 towgs84=0,0,0,0,0,0,0")
    if 28348 <= code <= 28358:
        return utm(code - 28300, "ellps=GRS80 towgs84=0,0,0,0,0,0,0", south=True)
    if 23028 <= code <= 23038:  # ED50 / UTM zones 28N-38N
        return utm(code - 23000, "ellps=intl towgs84=-87,-98,-121,0,0,0,0")

    def gk(zone: int, lon_0: float, extra: str):
        s = (
            f"proj=tmerc lat_0=0 lon_0={lon_0:g} k=1 "
            f"x_0={zone * 1_000_000 + 500_000} y_0=0 {extra} units=m no_defs"
        )
        return [
            tuple(t.split("=", 1)) if "=" in t else (t, None) for t in s.split()
        ]

    if 31466 <= code <= 31469:  # DHDN / 3-degree Gauss-Krueger zones 2-5
        zone = code - 31464
        return gk(zone, 3 * zone,
                  "ellps=bessel towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7")
    if 28402 <= code <= 28432:  # Pulkovo 1942 / 6-degree Gauss-Krueger
        zone = code - 28400
        return gk(zone, 6 * zone - 3,
                  "ellps=krass towgs84=23.92,-141.27,-80.9,0,0.35,0.82,-0.12")
    return None


class InitInfo:
    """PJ_INIT_INFO (4D_api.cpp proj_init_info): metadata for a named
    init file. All-empty when the file is missing; fields default to
    'Unknown' when the file exists but lacks a <metadata> section."""

    __slots__ = ("name", "filename", "version", "origin", "lastupdate")

    def __init__(self, name="", filename="", version="", origin="",
                 lastupdate=""):
        self.name = name
        self.filename = filename
        self.version = version
        self.origin = origin
        self.lastupdate = lastupdate


def init_info(initname: str) -> InitInfo:
    """proj_init_info semantics: a file on the search path reports its
    <metadata> section (version/origin/lastupdate, 'Unknown' when
    absent); the epsg/IGNF database catalogs report the registry
    version/date from proj.db metadata; anything else is all-empty."""
    path = find_file(initname)
    if path is None or len(initname) > 64:
        if initname.lower() in ("epsg", "ignf"):
            origin = initname.upper() if initname.lower() == "ignf" \
                else "EPSG"
            info = InitInfo(name=initname, origin=origin)
            try:
                from ..state.projdb import _db

                for field_name, key in (("version", f"{origin}.VERSION"),
                                        ("lastupdate", f"{origin}.DATE")):
                    row = _db().execute(
                        "SELECT value FROM metadata WHERE key=?",
                        (key,)).fetchone()
                    if row:
                        setattr(info, field_name, row[0])
            except Exception:
                pass
            return info
        return InitInfo()
    info = InitInfo(name=initname, filename=path, version="Unknown",
                    origin="Unknown", lastupdate="Unknown")
    try:
        pairs = dict(load_init(f"{initname}:metadata"))
    except Exception:
        return info
    for key in ("version", "origin", "lastupdate"):
        if pairs.get(key):
            setattr(info, key, pairs[key])
    return info

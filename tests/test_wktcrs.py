"""WKT-text import -> reference-parity PROJ.4 emission.

Ports the exportToPROJString vectors of the reference's
test/unit/test_io.cpp through the engine's general WKT importer
(rayproj/state/wktcrs.py) and PROJ.4 emitter (dbcrs.to_proj4):
every expected string below is byte-for-byte the reference's own
googletest expectation.
"""

import pytest

from rayproj.state import dbcrs, projdb, wktcrs

# every import resolves datums/units/methods through the EPSG registry
pytestmark = pytest.mark.skipif(
    not projdb.available(), reason="EPSG SQL scripts not available"
)


def p4(wkt: str) -> str:
    imported = wktcrs.wkt_import(wkt)
    assert imported is not None, "wkt_import returned None"
    warnings, crs = imported
    return dbcrs.to_proj4(crs)


_GEOGCS_WGS84 = (
    'GEOGCS["unknown",DATUM["WGS_1984",'
    'SPHEROID["WGS 84",6378137,298.257223563,AUTHORITY["EPSG","7030"]],'
    'AUTHORITY["EPSG","6326"]],'
    'PRIMEM["Greenwich",0,AUTHORITY["EPSG","8901"]],'
    'UNIT["degree",0.0174532925199433,AUTHORITY["EPSG","9122"]]]'
)


def _projcs(projection: str, params: list[tuple[str, float]],
            axes: str = "", extension: str = "") -> str:
    body = ",".join(
        f'PARAMETER["{n}",{v}]' for n, v in params)
    return (
        f'PROJCS["unknown",{_GEOGCS_WGS84},'
        f'PROJECTION["{projection}"],{body},'
        f'UNIT["metre",1,AUTHORITY["EPSG","9001"]]{axes}{extension}]'
    )


def test_mercator_1sp_without_scale_factor():
    # test_io.cpp wkt1_Mercator_1SP_without_scale_factor:1195-1227
    wkt = (
        'PROJCS["unnamed",GEOGCS["WGS 84",DATUM["unknown",'
        'SPHEROID["WGS84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],PROJECTION["Mercator_1SP"],'
        'PARAMETER["central_meridian",0],PARAMETER["false_easting",0],'
        'PARAMETER["false_northing",0],UNIT["Meter",1],'
        'AXIS["Easting",EAST],AXIS["Northing",NORTH]]'
    )
    assert p4(wkt) == (
        "+proj=merc +lon_0=0 +k=1 +x_0=0 +y_0=0 +ellps=WGS84 +units=m "
        "+no_defs +type=crs"
    )


def test_mercator_1sp_gdal_3026_hack():
    # io.cpp:3505-3533 — non-zero latitude_of_origin becomes the 2SP
    # standard parallel (Mercator variant B, +lat_ts)
    wkt = _projcs("Mercator_1SP", [
        ("latitude_of_origin", 40), ("central_meridian", 1),
        ("false_easting", 2), ("false_northing", 3)])
    got = p4(wkt)
    assert got == (
        "+proj=merc +lat_ts=40 +lon_0=1 +x_0=2 +y_0=3 +datum=WGS84 "
        "+units=m +no_defs +type=crs"
    )


def test_polar_stereographic_variant_b_lat70():
    # test_io.cpp wkt1_polar_stereographic_latitude_of_origin_70
    wkt = _projcs("Polar_Stereographic", [
        ("latitude_of_origin", 70), ("central_meridian", 2),
        ("false_easting", 3), ("false_northing", 4)])
    assert p4(wkt) == (
        "+proj=stere +lat_0=90 +lat_ts=70 +lon_0=2 "
        "+x_0=3 +y_0=4 +datum=WGS84 +units=m +no_defs +type=crs"
    )


def test_polar_stereographic_variant_b_lat90_scale1():
    # test_io.cpp wkt1_polar_stereographic_latitude_of_origin_90[_scale_factor_1]
    for params in (
        [("latitude_of_origin", 90), ("central_meridian", 2),
         ("false_easting", 3), ("false_northing", 4)],
        [("latitude_of_origin", 90), ("central_meridian", 2),
         ("scale_factor", 1), ("false_easting", 3),
         ("false_northing", 4)],
    ):
        wkt = _projcs("Polar_Stereographic", params)
        assert p4(wkt) == (
            "+proj=stere +lat_0=90 +lat_ts=90 +lon_0=2 "
            "+x_0=3 +y_0=4 +datum=WGS84 +units=m +no_defs +type=crs"
        )


def test_polar_stereographic_variant_a_scale_factor():
    # test_io.cpp wkt1_polar_stereographic_scale_factor
    wkt = _projcs("Polar_Stereographic", [
        ("latitude_of_origin", 90), ("central_meridian", 2),
        ("scale_factor", 0.99), ("false_easting", 3),
        ("false_northing", 4)])
    assert p4(wkt) == (
        "+proj=stere +lat_0=90 +lon_0=2 +k=0.99 +x_0=3 "
        "+y_0=4 +datum=WGS84 +units=m +no_defs +type=crs"
    )


def test_spherical_cross_track_height():
    # test_io.cpp wkt1_Spherical_Cross_Track_Height
    wkt = _projcs("Spherical_Cross_Track_Height", [
        ("peg_point_latitude", 1), ("peg_point_longitude", 2),
        ("peg_point_heading", 3), ("peg_point_height", 4)])
    assert p4(wkt) == (
        "+proj=sch +plat_0=1 +plon_0=2 +phdg_0=3 +h_0=4 "
        "+datum=WGS84 +units=m +no_defs +type=crs"
    )


def test_krovak_south_west():
    # test_io.cpp wkt1_krovak_south_west:1229-1343
    wkt = (
        'PROJCS["S-JTSK / Krovak",'
        'GEOGCS["S-JTSK",'
        'DATUM["System_Jednotne_Trigonometricke_Site_Katastralni",'
        'SPHEROID["Bessel 1841",6377397.155,299.1528128,'
        'AUTHORITY["EPSG","7004"]],AUTHORITY["EPSG","6156"]],'
        'PRIMEM["Greenwich",0,AUTHORITY["EPSG","8901"]],'
        'UNIT["degree",0.0174532925199433,AUTHORITY["EPSG","9122"]],'
        'AUTHORITY["EPSG","4156"]],'
        'PROJECTION["Krovak"],'
        'PARAMETER["latitude_of_center",49.5],'
        'PARAMETER["longitude_of_center",24.83333333333333],'
        'PARAMETER["azimuth",30.2881397527778],'
        'PARAMETER["pseudo_standard_parallel_1",78.5],'
        'PARAMETER["scale_factor",0.9999],'
        'PARAMETER["false_easting",0],'
        'PARAMETER["false_northing",0],'
        'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
        'AXIS["X",SOUTH],AXIS["Y",WEST],'
        'AUTHORITY["EPSG","5513"]]'
    )
    assert p4(wkt) == (
        "+proj=krovak +axis=swu +lat_0=49.5 "
        "+lon_0=24.8333333333333 +alpha=30.2881397527778 "
        "+k=0.9999 +x_0=0 +y_0=0 +ellps=bessel +units=m "
        "+no_defs +type=crs"
    )


def test_krovak_north_oriented():
    # test_io.cpp wkt1_krovak_north_oriented: default axes select the
    # North-Orientated method (no +axis=swu)
    wkt = (
        'PROJCS["S-JTSK / Krovak East North",'
        'GEOGCS["S-JTSK",'
        'DATUM["System_Jednotne_Trigonometricke_Site_Katastralni",'
        'SPHEROID["Bessel 1841",6377397.155,299.1528128]],'
        'PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],'
        'PROJECTION["Krovak"],'
        'PARAMETER["latitude_of_center",49.5],'
        'PARAMETER["longitude_of_center",24.83333333333333],'
        'PARAMETER["azimuth",30.2881397527778],'
        'PARAMETER["pseudo_standard_parallel_1",78.5],'
        'PARAMETER["scale_factor",0.9999],'
        'PARAMETER["false_easting",0],'
        'PARAMETER["false_northing",0],'
        'UNIT["metre",1]]'
    )
    got = p4(wkt)
    assert got.startswith("+proj=krovak +lat_0=49.5")
    assert "+axis=swu" not in got


def test_proj4_extension_escape():
    # test_io.cpp wkt1_projected_with_PROJ4_extension
    wkt = (
        'PROJCS["unnamed",GEOGCS["WGS 84",DATUM["unknown",'
        'SPHEROID["WGS84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],PROJECTION["Mercator_1SP"],'
        'PARAMETER["central_meridian",0],PARAMETER["scale_factor",1],'
        'PARAMETER["false_easting",0],PARAMETER["false_northing",0],'
        'UNIT["Meter",1],AXIS["Easting",EAST],AXIS["Northing",NORTH],'
        'EXTENSION["PROJ4","+proj=merc +wktext"]]'
    )
    assert p4(wkt) == "+proj=merc +wktext +type=crs"


def test_wkt2_projected_utm_collapse():
    # test_io.cpp wkt2_projected — UTM zone 31N collapses to +proj=utm
    wkt = (
        'PROJCRS["WGS 84 / UTM zone 31N",'
        'BASEGEODCRS["WGS 84",'
        'DATUM["World Geodetic System 1984",'
        'ELLIPSOID["WGS 84",6378137,298.257223563,'
        'LENGTHUNIT["metre",1,ID["EPSG",9001]],ID["EPSG",7030]],'
        'ID["EPSG",6326]],'
        'PRIMEM["Greenwich",0,ANGLEUNIT["degree",0.0174532925199433,'
        'ID["EPSG",9122]],ID["EPSG",8901]]],'
        'CONVERSION["UTM zone 31N",'
        'METHOD["Transverse Mercator",ID["EPSG",9807]],'
        'PARAMETER["Latitude of natural origin",0,'
        'ANGLEUNIT["degree",0.0174532925199433,ID["EPSG",9122]],'
        'ID["EPSG",8801]],'
        'PARAMETER["Longitude of natural origin",3,'
        'ANGLEUNIT["degree",0.0174532925199433,ID["EPSG",9122]],'
        'ID["EPSG",8802]],'
        'PARAMETER["Scale factor at natural origin",0.9996,'
        'SCALEUNIT["unity",1,ID["EPSG",9201]],ID["EPSG",8805]],'
        'PARAMETER["False easting",500000,'
        'LENGTHUNIT["metre",1,ID["EPSG",9001]],ID["EPSG",8806]],'
        'PARAMETER["False northing",0,'
        'LENGTHUNIT["metre",1,ID["EPSG",9001]],ID["EPSG",8807]],'
        'ID["EPSG",16031]],'
        'CS[Cartesian,2],'
        'AXIS["(E)",east,ORDER[1],LENGTHUNIT["metre",1,ID["EPSG",9001]]],'
        'AXIS["(N)",north,ORDER[2],LENGTHUNIT["metre",1,ID["EPSG",9001]]],'
        'ID["EPSG",32631]]'
    )
    assert p4(wkt) == (
        "+proj=utm +zone=31 +datum=WGS84 +units=m +no_defs +type=crs"
    )


def test_wkt2_method_by_name_without_id():
    # WKT2 METHOD resolved by NAME against the database when no ID node
    wkt = (
        'PROJCRS["test",'
        'BASEGEOGCRS["WGS 84",'
        'DATUM["World Geodetic System 1984",'
        'ELLIPSOID["WGS 84",6378137,298.257223563]]],'
        'CONVERSION["c",METHOD["Transverse Mercator"],'
        'PARAMETER["Latitude of natural origin",1],'
        'PARAMETER["Longitude of natural origin",2],'
        'PARAMETER["Scale factor at natural origin",0.99],'
        'PARAMETER["False easting",3],'
        'PARAMETER["False northing",4]],'
        'CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],'
        'LENGTHUNIT["metre",1]]'
    )
    assert p4(wkt) == (
        "+proj=tmerc +lat_0=1 +lon_0=2 +k=0.99 +x_0=3 +y_0=4 "
        "+datum=WGS84 +units=m +no_defs +type=crs"
    )


def test_wkt1_towgs84_carried():
    # WKT1 TOWGS84 node inside DATUM reaches the PROJ.4 string
    wkt = (
        'GEOGCS["DHDN",DATUM["Deutsches_Hauptdreiecksnetz",'
        'SPHEROID["Bessel 1841",6377397.155,299.1528128],'
        'TOWGS84[598.1,73.7,418.2,0.202,0.045,-2.455,6.7]],'
        'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]]'
    )
    got = p4(wkt)
    assert "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7" in got
    assert got.startswith("+proj=longlat +ellps=bessel")


def test_wkt1_4807_grad_mess():
    # test_io.cpp wkt1_EPSG_4807_grad_mess: the PRIMEM value is in
    # DEGREES even though the GEOGCS unit is grad; the model converts
    # it back into grad (2.5969213) and +pm=paris is recognized
    wkt = (
        'GEOGCS["NTF (Paris)",'
        'DATUM["Nouvelle_Triangulation_Francaise_Paris",'
        'SPHEROID["Clarke 1880 (IGN)",6378249.2,293.466021293627,'
        'AUTHORITY["EPSG","6807"]],AUTHORITY["EPSG","6807"]],'
        'PRIMEM["Paris",2.33722917,AUTHORITY["EPSG","8903"]],'
        'UNIT["grad",0.015707963267949,AUTHORITY["EPSG","9105"]],'
        'AXIS["latitude",NORTH],AXIS["longitude",EAST],'
        'AUTHORITY["EPSG","4807"]]'
    )
    imported = wktcrs.wkt_import(wkt)
    assert imported is not None
    _, crs = imported
    pm = crs["datum"]["pm"]
    assert abs(pm["value"] - 2.5969213) < 1e-7  # grad (reference check)
    assert pm["unit"]["factor"] == pytest.approx(0.015707963267949)
    got = dbcrs.to_proj4(crs)
    assert "+pm=paris" in got
    assert "+ellps=clrk80ign" in got


def test_spherical_method_selection():
    # io.cpp selectSphericalOrEllipsoidal: a zero-flattening base picks
    # the spherical EPSG variant (here CEA 9835 -> 9834); the PROJ
    # string is the same +proj=cea either way
    wkt = (
        'PROJCS["unknown",GEOGCS["unknown",DATUM["unknown",'
        'SPHEROID["sphere",6371000,0]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],'
        'PROJECTION["Cylindrical_Equal_Area"],'
        'PARAMETER["standard_parallel_1",30],'
        'PARAMETER["central_meridian",1],'
        'PARAMETER["false_easting",2],'
        'PARAMETER["false_northing",3],UNIT["metre",1]]'
    )
    imported = wktcrs.wkt_import(wkt)
    assert imported is not None
    _, crs = imported
    assert crs["conversion"]["method_code"] == "9834"
    got = dbcrs.to_proj4(crs)
    assert got == (
        "+proj=cea +lat_ts=30 +lon_0=1 +x_0=2 +y_0=3 +R=6371000 "
        "+units=m +no_defs +type=crs"
    )


def test_wkt1_geocentric():
    # test_io.cpp wkt1_geocentric:884-903 (checkGeocentric); the PROJ
    # string is the reference's geocentric export convention
    wkt = (
        'GEOCCS["WGS 84 (geocentric)",DATUM["WGS_1984",'
        'SPHEROID["WGS 84",6378137,298.257223563,'
        'AUTHORITY["EPSG","7030"]],AUTHORITY["EPSG","6326"]],'
        'PRIMEM["Greenwich",0,AUTHORITY["EPSG","8901"]],'
        'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
        'AXIS["Geocentric X",OTHER],AXIS["Geocentric Y",OTHER],'
        'AXIS["Geocentric Z",NORTH],AUTHORITY["EPSG","4328"]]'
    )
    assert p4(wkt) == "+proj=geocent +datum=WGS84 +units=m +no_defs +type=crs"


def test_geographic_proj4_extension():
    # test_io.cpp wkt1_geographic_with_PROJ4_extension:588-618
    wkt = (
        'GEOGCS["WGS 84",DATUM["unknown",'
        'SPHEROID["WGS84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433],'
        'EXTENSION["PROJ4","+proj=longlat +foo=bar +wktext"]]'
    )
    assert p4(wkt) == "+proj=longlat +foo=bar +wktext +type=crs"


def test_geocentric_proj4_extension():
    # test_io.cpp wkt1_geocentric_with_PROJ4_extension:622-651
    wkt = (
        'GEOCCS["WGS 84",DATUM["unknown",'
        'SPHEROID["WGS84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["Meter",1],AXIS["Geocentric X",OTHER],'
        'AXIS["Geocentric Y",OTHER],AXIS["Geocentric Z",NORTH],'
        'EXTENSION["PROJ4","+proj=geocent +foo=bar +wktext"]]'
    )
    assert p4(wkt) == "+proj=geocent +foo=bar +wktext +type=crs"


def test_projinfo_cli_wkt_input(capsys):
    # the CLI routes arbitrary WKT input through the db-describe
    # surface: reference-style "PROJ.4 string:" block, byte-parity body
    from rayproj import cli

    wkt = _projcs("Transverse_Mercator", [
        ("latitude_of_origin", 0), ("central_meridian", 9),
        ("scale_factor", 0.9996), ("false_easting", 500000),
        ("false_northing", 0)])
    assert cli.main(["projinfo", wkt, "-o", "PROJ"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "PROJ.4 string:\n"
        "+proj=utm +zone=32 +datum=WGS84 +units=m +no_defs +type=crs\n"
    )

"""Port of the reference's test/unit/proj_context_test.cpp resolution
tests: the user file-finder hook and explicit search paths, each
resolving a scratch +init dictionary (proj_context_set_ca_bundle_path
and the network user-writable-directory test stay out of scope — no
network in this engine by design)."""

import os

import pytest

import rayproj.core.resources as resources
from rayproj.core.factory import create_operation

DICT_LINE = ("<MY_PIPELINE> +proj=pipeline +step +proj=utm +zone=31 "
             "+ellps=GRS80\n")


@pytest.fixture(autouse=True)
def _clean_finder():
    yield
    resources.set_file_finder(None)


def test_set_file_finder(tmp_path):
    """proj_context_test.cpp:91-127: the finder callback resolves the
    init dictionary and receives the requested file name."""
    (tmp_path / "temp_proj_dic1").write_text(DICT_LINE)
    seen = {}

    def finder(name):
        seen["name"] = name
        return os.path.join(str(tmp_path), name)

    resources.set_file_finder(finder)
    P = create_operation("+init=temp_proj_dic1:MY_PIPELINE")
    assert P is not None
    assert seen["name"] == "temp_proj_dic1"
    assert P.name == "pipeline"


def test_set_search_paths(tmp_path):
    """proj_context_test.cpp:131-151: an added search path resolves the
    init dictionary by bare name."""
    (tmp_path / "temp_proj_dic2").write_text(DICT_LINE)
    resources.add_search_path(str(tmp_path))
    P = create_operation("+init=temp_proj_dic2:MY_PIPELINE")
    assert P is not None
    assert P.name == "pipeline"


def test_finder_fallthrough(tmp_path):
    """A finder that returns None falls back to the search paths."""
    (tmp_path / "temp_proj_dic3").write_text(DICT_LINE)
    resources.set_file_finder(lambda name: None)
    resources.add_search_path(str(tmp_path))
    assert resources.find_file("temp_proj_dic3") == \
        str(tmp_path / "temp_proj_dic3")


def test_init_info():
    """gie_self_tests.cpp:400-408 proj_init_info: unknown name is
    all-empty; 'epsg' reports the registry origin; an on-path init
    file reports its <metadata> lastupdate."""
    ref_data = "/root/reference/data"
    resources.add_search_path(ref_data)
    try:
        assert resources.init_info("unknowninit").filename == ""
        info = resources.init_info("epsg")
        assert info.origin in ("EPSG", "Unknown")
        assert info.name == "epsg"
        if not os.path.isfile(os.path.join(ref_data, "nad27")):
            pytest.skip("reference init file nad27 not available")
        nad = resources.init_info("nad27")
        assert nad.filename != ""
        assert nad.lastupdate == "1992-12-20"
        assert nad.origin == "Unknown"  # nad27 has no origin field
    finally:
        resources._extra_paths.remove(ref_data)

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "requires_projdb: skip unless the EPSG registry "
        "(projdb.available()) can be built")


def pytest_collection_modifyitems(config, items):
    """One skip rule for every ``requires_projdb`` test."""
    from rayproj.state import projdb

    if projdb.available():
        return
    skip = pytest.mark.skip(reason="EPSG SQL scripts not available")
    for item in items:
        if item.get_closest_marker("requires_projdb"):
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_SF_DIR_TEST", "/root/testdata/sf0.001")

import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, so a property failure reproduces as is;
# tests keep their own @settings on top of this profile
settings.register_profile("displab", derandomize=True, deadline=None)
settings.load_profile("displab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow", action="store_true", default=False,
        help="skip the multi-second cross-validation tests",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: multi-second numerical cross-checks")

import numpy as np
import pytest
from hypothesis import settings

from permaframe import build_cache

# one fixed, bounded profile: the same examples on every run, no flaky
# deadlines on a loaded machine, and no example database left on disk
settings.register_profile(
    "permaframe", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("permaframe")


@pytest.fixture(scope="session")
def cache4_all():
    return build_cache(4, "all")


@pytest.fixture(scope="session")
def cache5_all():
    return build_cache(5, "all")


@pytest.fixture(scope="session")
def cache6_all():
    return build_cache(6, "all")


@pytest.fixture(scope="session")
def cache5_h():
    return build_cache(5, "h")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

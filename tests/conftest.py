import pytest
from hypothesis import HealthCheck, settings

from gintail.fixtures import five_lines_ideal, load_bundled_ideal
from gintail.gin import compute_gin

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def quintic_ideal():
    return load_bundled_ideal("quintic")


@pytest.fixture(scope="session")
def quintic_cert(quintic_ideal):
    return compute_gin(quintic_ideal, seed=42, trials=2)


@pytest.fixture(scope="session")
def two_planes_ideal():
    return load_bundled_ideal("two_planes")


@pytest.fixture(scope="session")
def two_planes_cert(two_planes_ideal):
    return compute_gin(two_planes_ideal, seed=11, trials=2)


@pytest.fixture(scope="session")
def five_lines_cert():
    return compute_gin(five_lines_ideal(), seed=5, trials=2)


@pytest.fixture(scope="session")
def three_lines_cert():
    return compute_gin(load_bundled_ideal("three_lines_embedded_point"),
                       seed=3, trials=2)


@pytest.fixture(scope="session")
def twisted_cubic_cert():
    return compute_gin(load_bundled_ideal("twisted_cubic"), seed=9, trials=2)

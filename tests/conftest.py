import pytest
from hypothesis import HealthCheck, settings

from perfcone.complexes import build_registry
from perfcone.quadform import load_bundled_catalog, principal_form

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def reg2():
    return build_registry(2)


@pytest.fixture(scope="session")
def reg3():
    return build_registry(3)


@pytest.fixture(scope="session")
def reg4():
    return build_registry(4)


@pytest.fixture(scope="session")
def reg5():
    return build_registry(5)


@pytest.fixture(scope="session")
def reg6_principal(reg5):
    """The g = 6 registry of the principal cone alone, on the bundled
    catalogs below it: 696 orbits, 533 of rank 6."""

    def catalog(k):
        return [principal_form(6)] if k == 6 else load_bundled_catalog(k)

    return build_registry(6, catalog, prev=reg5)

import pytest

from dgres import battery

P = 32003


@pytest.fixture(scope="session")
def algebras():
    algs = battery.battery_algebras(P)
    return algs


@pytest.fixture(scope="session")
def koszul(algebras):
    return algebras["koszul_dual_numbers"]


@pytest.fixture(scope="session")
def tri2(algebras):
    return algebras["triangular2"]


@pytest.fixture(scope="session")
def nilp2(algebras):
    return algebras["nilpotent2"]


@pytest.fixture(scope="session")
def k2():
    # the two-variable Koszul algebra, the first builtin whose resolutions grow
    return battery.builtin_algebra("koszul(x,y; k[x,y]/(x^2,y^2))", P)

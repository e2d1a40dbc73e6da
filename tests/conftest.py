import numpy as np
import pytest
from hypothesis import strategies as st

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk

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


def generated_module(data, R):
    """A heart simple, R, or R + R[n], then up to two shifts or cones of a
    free map onto a random cocycle."""
    sims = len(hk.simples(hk.heart_of(R).h0))
    M = data.draw(st.sampled_from([R.regular_module(), battery.m_of(R, 1), battery.m_of(R, 2)]
                                  + [battery.heart_simple(R, i) for i in range(sims)]))
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            M = dg.shift(M, data.draw(st.integers(-2, 2)))
            continue
        cycles = {i: Z for i, Z in dg.cohomology(M, with_action=False).cycle_basis.items() if Z.dim}
        if not cycles:
            continue
        s = data.draw(st.sampled_from(sorted(cycles)))
        coeffs = data.draw(st.lists(st.integers(0, P - 1), min_size=cycles[s].dim, max_size=cycles[s].dim))
        z = la.matmul(cycles[s].basis.T, np.array(coeffs, dtype=np.int64), P)
        M = dg.cone_module(dg.free_map(dg.free_module(R, [s]), M, [z]))
    return M

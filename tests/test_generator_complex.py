"""The semifree route's tensor complex read off the generators of F.

(F ⊗_R L)^n = ⊕_g L^{n - s_g}, with the signed d_L on each block and the
twists acting between blocks, must be the strict tensor complex of F in
another basis: the same dimension and the same rank of d in every degree,
so the same H.  Hom goes through it by k-duality and must give H of the
strict Hom complex of F.  The strict complexes solve balance relations on
F's components and stay the oracle.

A sign error can hide: with twists only along a chain, or all generators in
even degrees, a wrong sign is undone by rescaling the generators.  Cones
onto single cycle-basis vectors, such as x in R^0, give twists in R^0
between generators of adjacent degrees, and two of them over K2 give a
triangle of twists, which no rescaling fixes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import generated_module
from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk

P = 32003
NAMES = sorted(battery.battery_algebras(P)) + ["K2"]


def modules(R):
    sims = len(hk.simples(hk.heart_of(R).h0))
    return [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(sims)]


def sparse_cone(R, M, s, k):
    """The cone of e -> z for z the k-th cycle-basis vector of M^s."""
    z = dg.cohomology(M, with_action=False).cycle_basis[s].basis[k]
    return dg.cone_module(dg.free_map(dg.free_module(R, [s]), M, [z]))


def drawn_module(data, R):
    """generated_module followed by up to two more sparse cones, which over
    K2 can give a triangle of twists."""
    M = generated_module(data, R)
    for _ in range(data.draw(st.integers(0, 2))):
        cycles = {i: Z.dim for i, Z in dg.cohomology(M, with_action=False).cycle_basis.items() if Z.dim}
        if cycles:
            s = data.draw(st.sampled_from(sorted(cycles)))
            M = sparse_cone(R, M, s, data.draw(st.integers(0, cycles[s] - 1)))
    return M


def h_dims(X, window):
    coh = dg.cohomology(X, with_action=False, window=window)
    return {n: coh.dim(n) for n in range(window[0], window[1] + 1) if coh.dim(n)}


def check_against_the_strict_complexes(R, M, L, a, b):
    """Tor on (-b, -a) with L, and Hom on (a, b) into R, m_of(1) and the
    heart simples, from one semifree resolution deep enough for all."""
    tor_window, hom_window, Ns = (-b, -a), (a, b), modules(R)
    sf = dv.semifree(M, min([-b - L.hi() - 2] + [N.lo() - b - 2 for N in Ns]))
    gens, strict = dv._generator_complex(sf, L, tor_window), dg.tensor_complex(sf.free, L, window=tor_window)
    for n in range(tor_window[0] - 1, tor_window[1] + 2):
        assert gens.dim(n) == strict.dim(n), n
        assert la.rank(gens.diff_mat(n), P) == la.rank(strict.diff_mat(n), P), n
    assert dv.ltensor(M, L, tor_window, resolution=sf).dims == h_dims(gens, tor_window) == h_dims(strict, tor_window)
    for N in Ns:
        hom = h_dims(dg.hom_complex(sf.free, N, hom_window), hom_window)
        assert dv.rhom(M, N, hom_window, resolution=sf).dims == hom, N.label


def test_sign_sensitive_resolutions_over_k2(k2):
    R = k2.regular_module()
    one = sparse_cone(k2, R, 0, 1)  # e -> x: generators 0, -1 with the twist x
    two = sparse_cone(k2, one, -1, 0)  # generators 0, -1, -2 with a triangle of twists
    for M, twists in ((one, [(0, 1)]), (two, [(0, 1), (0, 2), (1, 2)])):
        assert sorted(dv.semifree(M, -6).twists) == twists
        for L in modules(k2.opposite()):
            check_against_the_strict_complexes(k2, M, L, 0, 3)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NAMES), st.data())
def test_generator_complex_is_the_tensor_complex_of_the_semifree_resolution(algebras, k2, name, data):
    R = k2 if name == "K2" else algebras[name]
    M = drawn_module(data, R)
    L = data.draw(st.sampled_from(modules(R.opposite())))
    a = data.draw(st.integers(-3, 3))
    check_against_the_strict_complexes(R, M, L, a, a + data.draw(st.integers(0, 5)))

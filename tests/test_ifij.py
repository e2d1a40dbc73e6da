"""The inf-injective side: stage maps built through the coinduction
adjunction, and a pinned injdim over the two-variable Koszul algebra."""

import pytest

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"


@pytest.fixture(scope="module")
def k2():
    return battery.builtin_algebra(K2_SPEC, P)


def heart_simples(R):
    return [battery.heart_simple(R, i) for i in range(len(hk.simples(hk.heart_of(R).h0)))]


def test_ifij_stage_maps_are_strict_and_injective_on_bottom(algebras, k2):
    algs = dict(algebras, K2=k2)
    for name, R in algs.items():
        for M in [R.regular_module()] + heart_simples(R):
            res = rv.IfijResolution(M)
            res.ensure(3)
            for i, f in enumerate(res.maps):
                coh = res.cohs[i]
                t = coh.inf
                assert dg.validate_morphism(f) == [], (name, M.label, i)
                hmap = dg.cohomology_map(f, t, coh, dg.cohomology(res.terms[i], with_action=False))
                assert la.rank(hmap, P) == coh.dim(t), (name, M.label, i)


def test_injdim_heart_simple_over_k2(k2):
    rep = rv.injdim(battery.heart_simple(k2, 0), cap=3)
    assert rep.at_least == 3 and rep.exact is None
    assert [(s.edge, s.term_rank) for s in rep.stages] == [(0, 16), (1, 32), (2, 48)]
    assert rep.certificate["stage_bound"] == 6

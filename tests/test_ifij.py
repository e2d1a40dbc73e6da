"""The inf-injective side: stage maps built through the coinduction
adjunction, and a pinned injdim over the two-variable Koszul algebra."""

import time

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003


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


def test_injdim_heart_simple_over_k2_cap5(k2):
    # the phi systems of stages 3 and 4 are the largest sparse solves of the
    # ifij side (up to 3220 x 640 at about 0.1% nonzero)
    start = time.perf_counter()
    rep = rv.injdim(battery.heart_simple(k2, 0), cap=5)
    elapsed = time.perf_counter() - start
    assert rep.at_least == 5 and rep.exact is None
    assert [(s.edge, s.term_rank) for s in rep.stages] == [(0, 16), (1, 32), (2, 48), (3, 64), (4, 80)]
    assert rep.certificate["stage_bound"] == 10
    assert elapsed < 1.0, f"injdim cap 5 took {elapsed:.2f} s"

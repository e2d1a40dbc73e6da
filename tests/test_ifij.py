"""The inf-injective side: stage maps built through the coinduction
adjunction, one R0-envelope per stage, and a pinned injdim over the
two-variable Koszul algebra."""

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


def two_step_multiplicities(R, Q):
    """The R0-envelope multiplicities by the former route: the H0-envelope
    E of Q first, then the R0-envelope of E restricted along R0 ↠ H0."""
    hd = hk.heart_of(R)
    return hk.injective_envelope(hk.restrict_to_r0(hd, hk.injective_envelope(Q).module)).multiplicities


def test_one_r0_envelope_per_ifij_stage(algebras, k2, monkeypatch):
    # R0 acts on Q = H^inf(M) through R0 ↠ H0, which maps rad R0 onto rad H0,
    # so Q and its H0-envelope have one socle over R0, hence one R0-envelope
    envelope, calls = hk.injective_envelope, []

    def counted(N):
        calls.append(envelope(N))
        return calls[-1]

    algs = dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2)
    stages = []
    for R in algs.values():
        for A in (R, R.opposite()):
            h0 = hk.heart_of(A).h0
            for M in [A.regular_module()] + [dg.heart_embed(A, N) for N in hk.simples(h0) + [hk.regular_module(h0)]]:
                calls.clear()
                monkeypatch.setattr(hk, "injective_envelope", counted)
                res = rv.IfijResolution(M)
                res.ensure(3)
                monkeypatch.undo()
                assert len(calls) == len(res.terms), (A.label, M.label)
                for i, hull in enumerate(calls):
                    t = res.cohs[i].inf
                    stages.append((A, dg.heart_module(res.models[i], t, res.cohs[i]), hull))
    # 22 of the 94 tops are not H0-injective, where the two routes part
    assert len(stages) >= 90 and sum(not hk.is_injective(Q) for _, Q, _ in stages) >= 20
    for A, Q, hull in stages:
        assert hull.multiplicities == two_step_multiplicities(A, Q), (A.label, Q.label)

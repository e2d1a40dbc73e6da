"""The inf-injective side: stage maps read off the envelope through the
coinduction adjunction with no elimination, one R0-envelope per stage, a
pinned injdim over the two-variable Koszul algebra, and injdim against pd
of the k-dual on generated modules."""

import time

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import generated_module, is_injective
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
    # stages 3 and 4 carry the largest strict maps of the ifij side, whose
    # phi systems reached 3220 x 640 before phi was read off the envelope
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
    assert len(stages) >= 90 and sum(not is_injective(Q) for _, Q, _ in stages) >= 20
    for A, Q, hull in stages:
        assert hull.multiplicities == two_step_multiplicities(A, Q), (A.label, Q.label)


def test_strict_maps_into_psi_run_no_elimination(algebras, k2, monkeypatch):
    # phi is read off the envelope in closed form (resolve docstring), so no
    # rref runs inside _strict_map_to_psi; a linear solve there would show
    rref, strict_map, inside, calls = la.rref, rv._strict_map_to_psi, [False], []

    def counted(*args, **kwargs):
        calls.append(inside[0])
        return rref(*args, **kwargs)

    def flagged(*args):
        inside[0] = True
        try:
            return strict_map(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(la, "rref", counted)
    monkeypatch.setattr(rv, "_strict_map_to_psi", flagged)
    algs = dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2)
    stages = 0
    for R in algs.values():
        for M in [R.regular_module(), battery.m_of(R, 1)] + heart_simples(R):
            res = rv.IfijResolution(M)
            res.ensure(3)
            stages += len(res.maps)
    assert stages >= 50 and len(calls) > 100
    assert sum(calls) == 0


NAMES = sorted(battery.battery_algebras(P)) + ["K2"]


def psi_values(R, hull, f, t, coh):
    """f_t(z_q)(1) for the representatives z_q of H^t, read in the spaces of
    psi of the whole envelope, which the term is, bit for bit, shifted."""
    maps = dg.psi(R, hull.module)._psi_spaces[0].matrices()  # (dim I^t, dim K, dim R^0)
    return np.einsum("aq,akb,b->kq", la.matmul(f.block(t), coh.reps[t], P), maps, R.unit) % P


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NAMES), st.data())
def test_ifij_stages_and_injdim_against_pd_of_the_dual_on_generated_modules(algebras, k2, name, data):
    R = k2 if name == "K2" else algebras[name]
    M = generated_module(data, R)
    cap = 4
    res = rv.IfijResolution(M)
    res.ensure(cap)
    for i, f in enumerate(res.maps):
        coh, t = res.cohs[i], res.cohs[i].inf
        assert dg.validate_morphism(f) == [], (M.label, i)
        hull = hk.injective_envelope(hk.restrict_to_r0(hk.heart_of(R), dg.heart_module(res.models[i], t, coh)))
        assert np.array_equal(psi_values(R, hull, f, t, coh), hull.map), (M.label, i)
    D = dg.dualize(M)
    sppj = rv.SppjResolution(D)
    inj, proj = rv.injdim(M, cap, resolution=res), rv.pd(D, cap, resolution=sppj)
    # the two resolutions need not take the same number of stages (over a
    # non-local R0 the free terms of pd can take more), but either side
    # succeeds at a stage e <= its value, so an exact value v on one side
    # bounds the stages the other side needs
    v = inj.exact if inj.exact is not None else proj.exact
    if v is not None and v > cap:
        inj, proj = rv.injdim(M, v, resolution=res), rv.pd(D, v, resolution=sppj)
    assert (inj.zero_object, inj.exact, inj.at_least) == (proj.zero_object, proj.exact, proj.at_least), M.label
    assert inj.certificate.get("stage_bound") == proj.certificate.get("stage_bound"), M.label

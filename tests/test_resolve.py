import dataclasses

import numpy as np
import pytest

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003


def test_membership_free_and_shift(koszul):
    ok, cert = rv.membership_P(dg.free_module(koszul, [0, 0, 0]))
    assert ok and cert["free_rank"] == 3 and cert["quasi_iso_certified"]
    ok, cert = rv.membership_P(dg.shift(koszul.regular_module(), 5))
    assert ok and cert["sup"] == -5


def test_membership_heart_fails(koszul):
    k = battery.heart_simple(koszul, 0)
    ok, cert = rv.membership_P(k)
    assert not ok
    assert cert["action_map_failure_degree"] == 1


def test_membership_projective_nonfree(tri2):
    # the projective simple over the triangular algebra: membership without a free certificate
    hd = hk.heart_of(tri2)
    sims = hk.simples(hd.h0)
    proj_simples = [s for s in sims if hk.is_projective(s)]
    assert len(proj_simples) == 1
    M = dg.heart_embed(tri2, proj_simples[0])
    ok, cert = rv.membership_P(M)
    assert ok and cert["free_rank"] is None


def test_pd_of_regular(algebras):
    for name, R in algebras.items():
        rep = rv.pd(R.regular_module(), cap=4)
        assert rep.exact == 0, name


def test_pd_of_zero(koszul):
    rep = rv.pd(dg.zero_module(koszul), cap=4)
    assert rep.zero_object


def test_pd_worked_example_small(koszul, tri2, nilp2):
    for R in (koszul, tri2, nilp2):
        for n in range(0, 4):
            rep = rv.pd(battery.m_of(R, n), cap=8)
            assert rep.exact == n, (R.label, n)


def test_pd_shift_invariance(koszul):
    M = battery.m_of(koszul, 2)
    base = rv.pd(M, cap=8).exact
    for n in (-3, -1, 1, 3):
        assert rv.pd(dg.shift(M, n), cap=8).exact == base


def test_pd_heart_infinite(koszul, nilp2):
    # the syzygy of the heart drops one degree per stage over the Koszul
    # algebra, while over the ordinary dual numbers it stays in degree zero
    expected = {id(koszul): [0, -1, -2, -3, -4], id(nilp2): [0, 0, 0, 0, 0]}
    for R in (koszul, nilp2):
        rep = rv.pd(battery.heart_simple(R, 0), cap=5)
        assert rep.at_least == 5
        sups = [s.edge for s in rep.stages]
        assert sups == expected[id(R)]


def test_sppj_step_minimal_on_worked_example(koszul):
    M = battery.m_of(koszul, 3)
    P, f, nxt, g, info, cohP = rv.sppj_step(M)
    assert cohP.dims == dg.cohomology(P).dims
    assert info.term_rank == 1  # H^0(M) is free of rank one over H0
    assert dg.validate_morphism(f) == []
    assert dg.validate_morphism(g) == []
    # the cocone is a shifted free module up to quasi-isomorphism
    ok, cert = rv.membership_P(nxt)
    assert ok


def test_sppj_resolution_explicit_generators(nilp2):
    # the spliced resolution with a redundant zero generator at every stage
    M = battery.m_of(nilp2, 3)
    res = rv.SppjResolution(M)
    coh = res.coh(0)
    for stage in range(3):
        cohs = res.coh(stage)
        q = cohs.dim(cohs.sup)
        gens = la.zeros(q, 2)
        gens[0, 0] = 1  # the unit class of the leading free summand
        res.step(generators=gens)
        assert res.infos[stage].term_rank == 2
    rep = rv.pd(M, cap=8, resolution=res)
    assert rep.exact == 3
    assert rep.e == 3


def test_injdim_of_psi(algebras):
    for name, R in algebras.items():
        I = battery.psi_cogenerator(R)
        rep = rv.injdim(I, cap=3)
        assert rep.exact == 0, name
        ok, cert = rv.membership_I(I)
        assert ok, name
        ok, cert = rv.membership_I(dg.shift(I, 2))
        assert ok, name


def test_membership_I_heart_fails(koszul):
    k = battery.heart_simple(koszul, 0)
    ok, cert = rv.membership_I(k)
    assert not ok


def test_injdim_simples_triangular(tri2):
    vals = sorted(rv.injdim(battery.heart_simple(tri2, i), cap=6).exact for i in range(2))
    assert vals == [0, 1]


def test_pd_simples_triangular(tri2):
    vals = sorted(rv.pd(battery.heart_simple(tri2, i), cap=6).exact for i in range(2))
    assert vals == [0, 1]


def test_injdim_heart_infinite(nilp2):
    rep = rv.injdim(battery.heart_simple(nilp2, 0), cap=4)
    assert rep.at_least == 4


def test_ifij_step_structure(koszul):
    k = battery.heart_simple(koszul, 0)
    I, f, nxt, g, info, cohI = rv.ifij_step(k)
    assert dg.validate_module(I) == []
    assert dg.validate_morphism(f) == []
    hdims = dg.cohomology(I, with_action=False).dims
    assert hdims == {0: 1, 1: 1}
    assert cohI.dims == hdims


def test_fd_equals_pd(koszul, tri2):
    for R in (koszul, tri2):
        for M in (R.regular_module(), battery.m_of(R, 2), battery.heart_simple(R, 0)):
            a = rv.fd(M, cap=5)
            b = rv.pd(M, cap=5)
            assert (a.exact, a.at_least) == (b.exact, b.at_least)


def test_gldim_values(algebras):
    assert rv.gldim(algebras["field"], cap=4).exact == 0
    assert rv.gldim(algebras["field_x_field"], cap=4).exact == 0
    assert rv.gldim(algebras["matrix2"], cap=4).exact == 0
    assert rv.gldim(algebras["triangular2"], cap=6).exact == 1
    assert rv.gldim(algebras["nilpotent2"], cap=4).at_least == 4
    assert rv.gldim(algebras["koszul_dual_numbers"], cap=4).at_least == 4


def test_gorenstein(algebras):
    for name, want in (("field", 0), ("nilpotent2", 0)):
        out = rv.gorenstein_check(algebras[name], cap=4)
        assert out["gorenstein"]
        assert out["injdim_right"].exact == want
        assert out["injdim_left"].exact == want
    out = rv.gorenstein_check(algebras["triangular2"], cap=6)
    assert out["gorenstein"]
    assert out["injdim_right"].exact <= 1
    assert out["injdim_left"].exact <= 1


def test_semisimple_zero(algebras):
    # gldim 0 exactly when R has no negative cohomology and H0 is semisimple
    expected = {"field": True, "field_x_field": True, "matrix2": True,
                "nilpotent2": False, "triangular2": False, "koszul_dual_numbers": False}
    for name, want in expected.items():
        assert (rv.gldim(algebras[name], cap=4).exact == 0) == want, name


def test_duality_injdim_pd(algebras, k2):
    # the value, exact or not, and the stage bound agree in every case
    for R in list(algebras.values()) + [k2]:
        simples = hk.simples(hk.heart_of(R).h0)
        for M in [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(len(simples))]:
            a = rv.injdim(M, cap=5)
            b = rv.pd(dg.dualize(M), cap=5)
            assert (a.exact, a.at_least, a.zero_object) == (b.exact, b.at_least, b.zero_object), (R.label, M.label)
            assert a.certificate.get("stage_bound") == b.certificate.get("stage_bound"), (R.label, M.label)


def test_monotone_stage_bound(koszul):
    M = battery.heart_simple(koszul, 0)
    res = rv.SppjResolution(M)
    rep = rv.pd(M, cap=5, resolution=res)
    s0 = res.cohs[0].sup
    bounds = [i + s0 - res.coh(i).sup for i in range(5)]
    assert bounds == sorted(bounds)


def test_star_bound_from_witness(koszul, nilp2):
    # each terminating resolution certifies pd <= e + sup P_0 - sup P_e
    for R in (koszul, nilp2):
        M = battery.m_of(R, 2)
        res = rv.SppjResolution(M)
        rep = rv.pd(M, cap=8, resolution=res)
        assert rep.exact is not None
        e = rep.e
        if e > 0:
            span = e + res.infos[0].edge - res.infos[e - 1].edge
            assert rep.exact <= span + 1  # the witness interval covers the value


def test_triangle_bound(koszul):
    # pd M - sup M <= max over the other two vertices of a triangle
    R = koszul
    L = battery.free(R, 1, 0)
    N = battery.m_of(R, 1)
    f = dg.DGMorphism(L, N, {i: la.zeros(N.dim(i), L.dim(i)) for i in L.degrees()})
    C, _, _ = dg.cone(f)
    reports = {}
    for name, M in (("L", L), ("N", N), ("C", C)):
        rep = rv.pd(M, cap=6)
        assert rep.exact is not None
        reports[name] = rep.exact - dg.cohomology(M, with_action=False).sup
    assert reports["N"] <= max(reports["L"], reports["C"]) + 0  # N sits in L -> N -> C


def test_the_criterion_builds_the_degree_zero_map_only_when_the_unit_does_not_act_as_one(algebras, k2, monkeypatch):
    # over field x field, with H0 basis e1, e2, the unit e1 + e2 acts on the
    # top H^0(R) = k^2 by [[1, 1], [1, 1]]; each e_i still has a rank-one
    # image and those images span, so the cover is onto and the i = 0 map
    # decides: its source is 0-dimensional, so the certificate fails in degree 0
    degrees, action_map = [], rv._action_map

    def recorded(R, coh, s, i):
        degrees.append(i)
        return action_map(R, coh, s, i)

    monkeypatch.setattr(rv, "_action_map", recorded)
    R = algebras["field_x_field"]
    coh = dg.cohomology(R.regular_module())
    E = np.array([[[1, 1], [0, 0]], [[0, 0], [1, 1]]], dtype=np.int64)  # v . e_b = E[b] v
    bad = dataclasses.replace(coh, action={**coh.action, (0, 0): np.transpose(E, (2, 0, 1)).copy()})
    ok, cert, _ = rv._projective_criterion(R, bad, "non-unital")
    assert not ok and degrees == [0]
    assert cert == {"sup": 0, "h_sup_dim": 2, "h_sup_projective": True,
                    "action_map_failure_degree": 0, "action_map_dims": [0, 2]}
    # on a unital top the criterion builds degrees i >= 1 only
    del degrees[:]
    for R in [*algebras.values(), k2]:
        sims = hk.simples(hk.heart_of(R).h0)
        for M in [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(len(sims))]:
            rv.pd(M, cap=3)
            rv.injdim(M, cap=3)
    assert degrees and min(degrees) == 1

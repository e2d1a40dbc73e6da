import time

import numpy as np
import pytest

from conftest import identity_morphism
from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
WINDOW = (-4, 6)


def hdims(M):
    return dg.cohomology(M, with_action=False).dims


def test_semifree_of_free(koszul):
    R = koszul.regular_module()
    sf = dv.semifree(R, -4)
    assert sf.gen_degrees == [0]
    assert dg.validate_module(sf.free) == []
    assert dg.validate_morphism(sf.augmentation) == []
    assert dg.is_quasi_iso(sf.augmentation)


def test_semifree_of_heart(koszul, nilp2):
    # over the ordinary dual numbers: the classical one-generator-per-degree
    # free resolution; over the Koszul algebra the twisted differential kills
    # the degree -1 class too, so generators appear every other degree
    k = battery.heart_simple(nilp2, 0)
    sf = dv.semifree(k, -4)
    assert sf.ranks_by_degree() == {0: 1, -1: 1, -2: 1, -3: 1}
    k = battery.heart_simple(koszul, 0)
    sf = dv.semifree(k, -4)
    assert sf.ranks_by_degree() == {0: 1, -2: 1}
    C, _, _ = dg.cone(sf.augmentation)
    ch = dg.cohomology(C, with_action=False)
    assert all(i <= -4 for i, d in ch.dims.items() if d)
    assert dg.validate_module(sf.free) == []
    assert dg.validate_morphism(sf.augmentation) == []


def test_semifree_of_acyclic(koszul):
    C, _, _ = dg.cone(identity_morphism(koszul.regular_module()))
    sf = dv.semifree(C, -3)
    assert sf.gen_degrees == []


def test_rhom_from_regular(koszul, tri2):
    for R in (koszul, tri2):
        for N in (battery.m_of(R, 2), battery.heart_simple(R, 0)):
            t = dv.rhom(R.regular_module(), N, WINDOW)
            want = {n: d for n, d in hdims(N).items() if WINDOW[0] <= n <= WINDOW[1]}
            assert t.dims == want


def test_rhom_agrees_with_direct_hom_into_psi(koszul, tri2, nilp2):
    # DG-injective target: the strict Hom complex already computes RHom
    for R in (koszul, tri2, nilp2):
        I = battery.psi_cogenerator(R)
        for M in (battery.m_of(R, 2), battery.heart_simple(R, 0)):
            direct = dg.cohomology(dg.hom_complex(M, I, window=WINDOW), with_action=False)
            t = dv.rhom(M, I, WINDOW)
            for n in range(WINDOW[0], WINDOW[1] + 1):
                assert t.dim(n) == direct.dim(n), (R.label, M.label, n)


def test_ltensor_unit_laws(koszul, tri2):
    for R in (koszul, tri2):
        L = battery.regular(R.opposite())
        M = battery.m_of(R, 2)
        t = dv.ltensor(M, L, WINDOW)
        want = {n: d for n, d in hdims(M).items() if WINDOW[0] <= n <= WINDOW[1]}
        assert t.dims == want
        t2 = dv.ltensor(R.regular_module(), battery.heart_simple(R.opposite(), 0), WINDOW)
        k_op = battery.heart_simple(R.opposite(), 0)
        direct = dg.cohomology(dg.tensor_complex(R.regular_module(), k_op, window=WINDOW), with_action=False)
        assert t2.dims == {n: d for n, d in direct.dims.items() if WINDOW[0] <= n <= WINDOW[1]}


def test_ltensor_heart_heart(koszul, nilp2):
    # over the ordinary dual numbers every degree carries a Tor class; over
    # the Koszul algebra (formal, exterior on a degree -1 class) the classes
    # sit in even degrees, at the slots -i + sup P_i = -2i
    k = battery.heart_simple(nilp2, 0)
    kop = battery.heart_simple(nilp2.opposite(), 0)
    t = dv.ltensor(k, kop, (-3, 0))
    assert t.dims == {0: 1, -1: 1, -2: 1, -3: 1}
    k = battery.heart_simple(koszul, 0)
    kop = battery.heart_simple(koszul.opposite(), 0)
    t = dv.ltensor(k, kop, (-3, 0))
    assert t.dims == {0: 1, -2: 1}


def test_hom_table_sppj_regular(koszul):
    hd = hk.heart_of(koszul)
    N = hk.simples(hd.h0)[0]
    t = dv.hom_table_via_sppj(koszul.regular_module(), N, window=(0, 4))
    assert t.dims == {0: hk.hom_space(hk.regular_module(hd.h0), N).dim}


def test_three_route_agreement_small(koszul, tri2):
    window = (-3, 5)
    for R in (koszul, tri2):
        hd = hk.heart_of(R)
        hearts = list(hk.simples(hd.h0)) + [hk.regular_module(hd.h0)]
        for M in (R.regular_module(), battery.m_of(R, 2), battery.heart_simple(R, 0)):
            sres = rv.SppjResolution(M)
            ires = rv.IfijResolution(M)
            sf = None
            for N in hearts:
                t1 = dv.rhom(M, dg.heart_embed(R, N), window, resolution=sf)
                t2 = dv.hom_table_via_sppj(M, N, sres, window)
                assert t1.same_dims(t2), (R.label, M.label, N.label, t1.dims, t2.dims)
                t3 = dv.rhom(dg.heart_embed(R, N), M, window)
                t4 = dv.hom_table_via_ifij(N, M, ires, window)
                assert t3.same_dims(t4), (R.label, M.label, N.label, t3.dims, t4.dims)


def test_tor_route_agreement_small(koszul, tri2):
    window = (-5, 2)
    for R in (koszul, tri2):
        hd = hk.heart_of(R)
        hd_op = hk.heart_of(R.opposite())
        lefts = list(hk.simples(hd_op.h0)) + [hk.regular_module(hd_op.h0)]
        for M in (R.regular_module(), battery.m_of(R, 2), battery.heart_simple(R, 0)):
            sres = rv.SppjResolution(M)
            for T in lefts:
                # T is a right module over H0(R^op) = H0^op, i.e. a left heart module
                t1 = dv.ltensor(M, dg.heart_embed(R.opposite(), T), window)
                TL = hk.FDModule(hd.h0.opposite(), T.dim, T.action, label=T.label)
                t2 = dv.tor_table_via_spft(M, TL, sres, window)
                assert t1.same_dims(t2), (R.label, M.label, T.label, t1.dims, t2.dims)


def test_tor_table_regular(koszul):
    hd = hk.heart_of(koszul)
    hd_op = hk.heart_of(koszul.opposite())
    T = hk.simples(hd_op.h0)[0]
    TL = hk.FDModule(hd.h0.opposite(), T.dim, T.action, label=T.label)
    t = dv.tor_table_via_spft(koszul.regular_module(), TL, window=(-4, 0))
    dim0, _, _ = dv.tensor_over_h0(dg.heart_module(koszul.regular_module(), 0), TL)
    assert t.dims == {0: dim0}


def test_minimal_resolution_simple_specialization(koszul, nilp2):
    # over a local H0 the engine's minimal resolution is a genuine minimal
    # resolution: against a simple, the table at each slot is the full Hom
    for R in (koszul, nilp2):
        hd = hk.heart_of(R)
        S = hk.simples(hd.h0)[0]
        M = battery.heart_simple(R, 0)
        res = rv.SppjResolution(M)
        t = dv.hom_table_via_sppj(M, S, res, (0, 5))
        for i in range(len(res.terms)):
            s = res.infos[i].edge
            slot = i - s
            if 0 <= slot <= 5:
                q = dg.heart_module(res.terms[i], s)
                assert t.dim(slot) == hk.hom_space(q, S).dim, (R.label, i)


def test_slot_arithmetic(koszul):
    M = battery.m_of(koszul, 2)
    res = rv.SppjResolution(M)
    rv.pd(M, cap=8, resolution=res)
    slots = []
    for i in range(len(res.terms)):
        s = res.edge(i)
        if s is None:
            break
        slots.append(i - s)
    assert len(set(slots)) == len(slots)
    for a_i, s_i in enumerate(slots):
        for b_i, s_j in enumerate(slots):
            if s_i + 1 == s_j:
                assert b_i == a_i + 1 and res.infos[a_i].edge == res.infos[b_i].edge


def test_concentration_scan(koszul, tri2, nilp2):
    out = dv.concentration_scan(koszul.regular_module(), window=(-4, 4))
    assert out["support"] == (0, 0)
    for R in (koszul, tri2):
        for n in (1, 2):
            M = battery.m_of(R, n)
            rep = rv.pd(M, cap=8)
            out = dv.concentration_scan(M, window=(-4, n + 3))
            assert out["support"] == (0, n), (R.label, n)
            # the resolution's length is the Ext-vanishing dimension
            assert rep.exact == n == dg.cohomology(M).sup + out["support"][1], (R.label, n)
    # heart simple over the Koszul algebra: classes at the even slots 2i
    out = dv.concentration_scan(battery.heart_simple(koszul, 0), window=(0, 5))
    assert out["support"] == (0, 4)
    assert set(out["per_module"]["0:S0"]) == {0, 2, 4}
    # over the ordinary dual numbers: every slot in the window
    out = dv.concentration_scan(battery.heart_simple(nilp2, 0), window=(0, 5))
    assert out["support"] == (0, 5)


def test_edge_of_hom_support(koszul, tri2):
    # RHom(M, heart of the top cohomology) is nonzero at degree -sup M
    for R in (koszul, tri2):
        for M in (R.regular_module(), battery.m_of(R, 1), battery.heart_simple(R, 0)):
            coh = dg.cohomology(M)
            s = coh.sup
            Q = dg.heart_module(M, s, coh)
            t = dv.rhom(M, dg.heart_embed(R, Q), (-s - 1, -s + 1))
            assert t.dim(-s) > 0, (R.label, M.label)


def test_tor_hom_duality(koszul):
    # dim H^{-n}(M (x)^L T) = dim H^n RHom(M, D(T)) for left heart modules T
    R = koszul
    hd = hk.heart_of(R)
    hd_op = hk.heart_of(R.opposite())
    T = hk.simples(hd_op.h0)[0]
    M = battery.m_of(R, 2)
    tor = dv.ltensor(M, dg.heart_embed(R.opposite(), T), (-6, 2))
    DT = hk.dual_module(T)
    DT = hk.FDModule(hd.h0, DT.dim, DT.action, label="D(T)")
    hom = dv.rhom(M, dg.heart_embed(R, DT), (-2, 6))
    for n in range(-2, 7):
        assert hom.dim(n) == tor.dim(-n), n


def test_slot_routes_cover_long_windows_and_stop_at_the_stage_cap(nilp2, monkeypatch):
    # over the dual numbers heart(S0) has one stage per slot in every route,
    # so a window of seven slots needs at least seven stages
    hd = hk.heart_of(nilp2)
    S = hk.simples(hd.h0)[0]
    T = hk.simples(hk.heart_of(nilp2.opposite()).h0)[0]
    TL = hk.FDModule(hd.h0.opposite(), T.dim, T.action, label=T.label)
    M = battery.heart_simple(nilp2, 0)
    monkeypatch.setattr(dv, "STAGE_CAP", 8)
    assert dv.hom_table_via_sppj(M, S, window=(0, 6)).dims == {n: 1 for n in range(0, 7)}
    assert dv.hom_table_via_ifij(S, M, window=(0, 6)).dims == {n: 1 for n in range(0, 7)}
    assert dv.tor_table_via_spft(M, TL, window=(-6, 0)).dims == {n: 1 for n in range(-6, 1)}
    monkeypatch.setattr(dv, "STAGE_CAP", 2)
    with pytest.raises(dv.InsufficientStagesError, match="stage cap"):
        dv.hom_table_via_ifij(S, M, window=(0, 6))
    with pytest.raises(dv.InsufficientStagesError, match="stage cap"):
        dv.tor_table_via_spft(M, TL, window=(-6, 0))
    with pytest.raises(dv.InsufficientStagesError, match="stage cap"):
        dv.hom_table_via_sppj(M, S, window=(0, 6))


def test_induced_hom_maps_match_loop_oracles(koszul, tri2, nilp2, k2, monkeypatch):
    # _pulled_back and _pushed_forward take every basis map in one coords
    # call; the loop form, one call per basis map, is the oracle
    def pulled_back_oracle(alpha, G, H):
        (_, g), (_, h) = G, H
        cols = [g.coords(la.matmul(h.matrix(k), alpha, g.p)) for k in range(h.dim)]
        return np.stack(cols, axis=1) if cols else la.zeros(g.dim, 0)

    def pushed_forward_oracle(beta, G, H):
        (_, g), (_, h) = G, H
        cols = [h.coords(la.matmul(beta, g.matrix(k), h.p)) for k in range(g.dim)]
        return np.stack(cols, axis=1) if cols else la.zeros(h.dim, 0)

    calls = []
    for name, oracle in (("_pulled_back", pulled_back_oracle), ("_pushed_forward", pushed_forward_oracle)):
        def record(*args, name=name, f=getattr(dv, name), oracle=oracle):
            calls.append((name, f(*args), oracle(*args)))
            return calls[-1][1]

        monkeypatch.setattr(dv, name, record)
    for R in (koszul, tri2, nilp2, k2):
        for i, S in enumerate(hk.simples(hk.heart_of(R).h0)):
            M = battery.heart_simple(R, i)
            dv.hom_table_via_sppj(M, S, window=(0, 4))
            dv.hom_table_via_ifij(S, M, window=(0, 4))
    assert {name for name, _, _ in calls} == {"_pulled_back", "_pushed_forward"} and len(calls) > 10
    assert all(got.shape == want.shape and np.array_equal(got, want) for _, got, want in calls)


def test_resolutions_adjoin_the_fewest_generators():
    # over matrix(2), R = S0 + S0 is free of rank one and one generator covers S0
    R = battery.builtin_algebra("matrix(2)", P)
    assert dv.semifree(R.regular_module(), -6).ranks_by_degree() == {0: 1}
    S, S0 = battery.heart_simple(R, 0), hk.simples(hk.heart_of(R).h0)[0]
    res = rv.SppjResolution(S)
    res.ensure(4)
    assert [s.term_rank for s in res.infos] == [1, 1, 1, 1]
    start = time.perf_counter()
    table = dv.hom_table_via_sppj(S, S0, window=(0, 3))
    assert time.perf_counter() - start < 1
    assert table.dims == dv.rhom(S, dg.heart_embed(R, S0), (0, 3)).dims == {0: 1}
    prod = battery.builtin_algebra("product(matrix(2),triangular(2))", P)
    ranks = []
    for i in range(3):
        res = rv.SppjResolution(battery.heart_simple(prod, i))
        res.ensure(4)
        ranks.append([s.term_rank for s in res.infos])
    assert ranks == [[1, 1, 1, 1], [1, 2, 2, 2], [1, 1, 1, 1]]

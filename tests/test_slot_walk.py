"""The slot-formula walk builds only the stages its window reads.

Stage i's edge is sup or inf of H(M_i), which the resolution holds before
T_i is built, so the walk stops at the first slot past the window and never
builds the stage there unless a transition map into the window needs it.
The tables must not change: every slot route agrees with the semifree route
on generated windows, and a slot table is the restriction of the same
route's table on a wider window.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"
NAMES = ["field", "field_x_field", "matrix2", "nilpotent2", "triangular2", "koszul_dual_numbers", "K2"]


def left_simples(R):
    """The simples of H0(R^op) as left H0(R)-modules, and as right heart
    modules over R^op."""
    h0 = hk.heart_of(R).h0
    sims = hk.simples(hk.heart_of(R.opposite()).h0)
    return [(hk.FDModule(h0.opposite(), T.dim, T.action, label=T.label), dg.heart_embed(R.opposite(), T))
            for T in sims]


def test_slot_routes_build_only_the_stages_in_the_window():
    # over K2, heart(S0) has one stage per even slot with a new edge each
    # time, so the stage at the first slot past the window is never built
    K2 = battery.builtin_algebra(K2_SPEC, P)
    S = battery.heart_simple(K2, 0)
    S0 = hk.simples(hk.heart_of(K2).h0)[0]
    (S0_left, _), = left_simples(K2)
    runs = [
        (rv.SppjResolution(S), lambda r: dv.hom_table_via_sppj(S, S0, r, (0, 7)), {0: 1, 2: 2, 4: 3, 6: 4}, 4),
        (rv.SppjResolution(S), lambda r: dv.tor_table_via_spft(S, S0_left, r, (-7, 0)),
         {0: 1, -2: 2, -4: 3, -6: 4}, 4),
        (rv.IfijResolution(S), lambda r: dv.hom_table_via_ifij(S0, S, r, (0, 7)), {0: 1, 2: 2, 4: 3, 6: 4}, 4),
        (rv.IfijResolution(S), lambda r: dv.hom_table_via_ifij(S0, S, r, (0, 3)), {0: 1, 2: 2}, 2),
    ]
    for res, table, dims, stages in runs:
        assert table(res).dims == dims
        assert len(res.terms) == stages
        assert [res.edge(i) for i in range(stages)] == [info.edge for info in res.infos]


def test_edge_is_read_off_the_model_and_ends_past_the_length(algebras):
    for R in algebras.values():
        for M in (R.regular_module(), battery.m_of(R, 1), battery.heart_simple(R, 0)):
            for res in (rv.SppjResolution(M), rv.IfijResolution(M)):
                res.ensure(4)
                edges = [res.edge(i) for i in range(len(res.terms))]
                assert edges == [info.edge for info in res.infos]
                assert edges == [getattr(dg.cohomology(m), res.edge_name) for m in res.models[: len(edges)]]
                if res.length is not None:
                    assert res.edge(res.length + 1) is None and res.edge(res.length + 2) is None
    # the regular module is its own term: the resolution ends at stage 0
    res = rv.SppjResolution(algebras["koszul_dual_numbers"].regular_module())
    assert res.edge(0) == 0 and res.edge(1) is None and res.length == 0


def test_an_acyclic_module_ends_at_construction_and_no_model_lies_past_the_length(algebras):
    field = algebras["field"]
    C, _, _ = dg.cone(dg.identity_morphism(field.regular_module()))
    for res in (rv.SppjResolution(C), rv.IfijResolution(C)):
        assert res.length == -1 and res.model(0) is C and res.coh(0).is_acyclic()
        assert [res.edge(i) for i in range(4)] == [None] * 4 and res.terms == []
        for read in (res.model, res.coh):
            with pytest.raises(IndexError, match="model 1 lies past the last model of a resolution of length -1"):
                read(1)
    res = rv.SppjResolution(field.regular_module())
    assert res.coh(1).is_acyclic() and res.length == 0
    with pytest.raises(IndexError, match="model 3 lies past the last model of a resolution of length 0"):
        res.model(3)


def test_the_stage_cap_counts_the_stages_the_window_needs(nilp2, monkeypatch):
    # over the dual numbers heart(S0) has one stage per slot, so the window
    # (0, 6) reads stages 0..6 and the walk stops at stage 7's edge
    S = hk.simples(hk.heart_of(nilp2).h0)[0]
    M = battery.heart_simple(nilp2, 0)
    monkeypatch.setattr(dv, "STAGE_CAP", 6)
    assert dv.hom_table_via_ifij(S, M, window=(0, 6)).dims == {n: 1 for n in range(0, 7)}
    monkeypatch.setattr(dv, "STAGE_CAP", 5)
    with pytest.raises(dv.InsufficientStagesError, match="stage cap"):
        dv.hom_table_via_ifij(S, M, window=(0, 6))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NAMES), st.data())
def test_slot_routes_agree_with_the_semifree_route_on_generated_windows(algebras, k2, name, data):
    R = k2 if name == "K2" else algebras[name]
    sims = hk.simples(hk.heart_of(R).h0)
    M = data.draw(st.sampled_from([R.regular_module(), battery.m_of(R, 1)]
                                  + [battery.heart_simple(R, i) for i in range(len(sims))]))
    N = data.draw(st.sampled_from(sims))
    a = data.draw(st.integers(-2, 3))
    b = a + data.draw(st.integers(0, 5))
    wide = (a - 1, b + 2)

    def restricted(table, window):
        return {n: d for n, d in table.dims.items() if window[0] <= n <= window[1]}

    sppj = dv.hom_table_via_sppj(M, N, window=(a, b))
    assert sppj.dims == dv.rhom(M, dg.heart_embed(R, N), (a, b)).dims
    assert sppj.dims == restricted(dv.hom_table_via_sppj(M, N, window=wide), (a, b))
    ifij = dv.hom_table_via_ifij(N, M, window=(a, b))
    assert ifij.dims == dv.rhom(dg.heart_embed(R, N), M, (a, b)).dims
    assert ifij.dims == restricted(dv.hom_table_via_ifij(N, M, window=wide), (a, b))
    L, L_op = data.draw(st.sampled_from(left_simples(R)))
    spft = dv.tor_table_via_spft(M, L, window=(-b, -a))
    assert spft.dims == dv.ltensor(M, L_op, (-b, -a)).dims
    assert spft.dims == restricted(dv.tor_table_via_spft(M, L, window=(-b - 2, -a + 1)), (-b, -a))

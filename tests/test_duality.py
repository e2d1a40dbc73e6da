"""k-duality read off cohomology: H(D M) as the transpose of H(M), and the
injective membership test that runs on it.

The old route, membership_P of dualize(M) with the canonical H(D M), stays
here as the oracle: the certificates must agree key for key, and the
certified reports of injdim, gldim and gorenstein_check are pinned by digest.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv
from conftest import generated_module

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def dual_matches(M, coh):
    """dg.dual_cohomology(M, coh) is the full H(D M) in another basis.

    T_a, the full classes of the dual representatives in degree a, is
    invertible (so the representatives are cocycles of D M and a basis of
    its cohomology), the dims are the full nonzero ones, and the T's carry
    every dual action tensor onto the full one.
    """
    dual, full = dg.dual_cohomology(M, coh), dg.cohomology(dg.dualize(M))
    if dual.dims != {a: h for a, h in full.dims.items() if h} or dual.action.keys() != full.action.keys():
        return False
    T = {a: full.project(a, dual.reps[a]) for a in dual.dims}
    if any(la.rank(t, M.p) != t.shape[0] for t in T.values()):
        return False
    return all(
        same(np.einsum("xq,xby->qby", T[a], full.action[(a, j)]) % M.p,
             np.einsum("qbc,yc->qby", dual.action[(a, j)], T[a + j]) % M.p)
        for a, j in dual.action
    )


def old_membership_I(M):
    """membership_I by the route it replaced: the projective criterion on
    the k-dual module and its own cohomology."""
    ok, cert = rv.membership_P(dg.dualize(M))
    return ok, {"inf": -cert["sup"], "dual_membership_P": cert}


def certified_inputs(seed=0):
    algs = dict(battery.battery_algebras(P, seed))
    algs["triangular4"] = battery.builtin_algebra("triangular(4)", P, seed)
    algs["K2"] = battery.builtin_algebra(K2_SPEC, P, seed)
    for name, R in algs.items():
        sims = len(hk.simples(hk.heart_of(R).h0))
        yield name, R, [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(sims)]


def test_certificates_are_pinned_by_digest():
    # sha256 of the sorted-key reports of injdim, gldim and gorenstein_check
    # at cap 4 over the battery, triangular(4) and K2; 27 of them certify a
    # quasi-isomorphism from a free module
    out = {}
    for name, R, mods in certified_inputs():
        for M in mods:
            out[f"{name}.injdim.{M.label}"] = rv.injdim(M, cap=4).to_json()
        out[f"{name}.gldim"] = rv.gldim(R, cap=4).to_json()
        g = rv.gorenstein_check(R, cap=4)
        out[f"{name}.gorenstein"] = {"gorenstein": g["gorenstein"], "injdim_right": g["injdim_right"].to_json(),
                                     "injdim_left": g["injdim_left"].to_json()}
    text = json.dumps(out, sort_keys=True)
    assert (len(out), text.count('"quasi_iso_certified": true')) == (45, 27)
    assert hashlib.sha256(text.encode()).hexdigest() == "e9d2bbb346459638f7c50feac9c079eadb5ef1326a85379e64acda04df3918c2"


def test_injdim_dualizes_only_to_certify_a_free_top(monkeypatch):
    dualize, calls = dg.dualize, []

    def counted(M):
        calls.append(M)
        return dualize(M)

    monkeypatch.setattr(dg, "dualize", counted)
    certified = 0
    for name, R, mods in certified_inputs():
        for M in mods:
            calls.clear()
            rep = rv.injdim(M, cap=4)
            dual = rep.certificate.get("dual_membership_P", {})
            free = rep.exact is not None and dual.get("free_rank") is not None
            assert len(calls) == free and dual.get("quasi_iso_certified", False) == free, (name, M.label)
            certified += free
    assert certified > 10


def test_project_refuses_the_dual_classes(algebras):
    M = battery.m_of(algebras["koszul_dual_numbers"], 1)
    dual = dg.dual_cohomology(M, dg.cohomology(M))
    for a, h in dual.dims.items():
        with pytest.raises(ValueError, match=rf"degree {a} has classes but no cycle basis"):
            dual.project(a, dual.reps[a])
    empty = max(dual.dims) + 1
    assert dual.project(empty, np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


# ---------------------------------------------------------------------------
# generated modules


NAMES = sorted(battery.battery_algebras(P)) + ["K2"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NAMES), st.data())
def test_dual_cohomology_and_membership_on_generated_modules(algebras, k2, name, data):
    R = k2 if name == "K2" else algebras[name]
    cohR, cohRop = dg.algebra_cohomology(R), dg.algebra_cohomology(R.opposite())
    assert cohRop.reps.keys() == cohR.reps.keys() and all(same(cohRop.reps[i], cohR.reps[i]) for i in cohR.reps)
    M = generated_module(data, R)
    assert dg.validate(M) == []
    coh = dg.cohomology(M)
    assume(not coh.is_acyclic())
    assert dual_matches(M, coh)
    assert rv.membership_I(M, coh) == old_membership_I(M)

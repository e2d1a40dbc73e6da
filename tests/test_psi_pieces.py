"""psi terms as block sums of memoised pieces.

dg.psi_sum assembles psi(R, K)[n] and its cohomology from copies of
psi(R, E_i) and H(psi E_i); both must equal, bit for bit, what dg.psi and
dg.cohomology build for the whole envelope K, and psi(R, K)'s spaces must be
the pieces' spaces block by block.  The strict map into such a term is
read off the envelope in closed form and must equal conftest's single-
system solve over all of K, the envelope, with the spaces of dg.psi(R, K).
The pieces are memoised on the algebra and must survive every use
unchanged.
"""

import numpy as np
import pytest

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv
from conftest import heart_sums, identity_morphism, record_strict_maps, strict_map_to_psi_oracle

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"


@pytest.fixture(scope="module")
def algs(algebras, k2):
    out = dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2)
    return {label: A for R in out.values() for label, A in ((R.label, R), (R.label + "^op", R.opposite()))}


def same_arrays(a: dict, b: dict):
    return a.keys() == b.keys() and all(a[k].shape == b[k].shape and np.array_equal(a[k], b[k]) for k in a)


def same_subspace(a, b):
    return (a.ambient_dim, a.pivots) == (b.ambient_dim, b.pivots) and np.array_equal(a.basis, b.basis)


def same_cohomology(a, b):
    return (
        a.dims == b.dims
        and a.window == b.window
        and same_arrays(a.reps, b.reps)
        and same_arrays(a.class_proj, b.class_proj)
        and same_arrays(a.action, b.action)
        and a.cycle_basis.keys() == b.cycle_basis.keys()
        and all(same_subspace(a.cycle_basis[i], b.cycle_basis[i]) for i in a.cycle_basis)
    )


def test_assembled_terms_equal_psi_and_cohomology(algs):
    repeated = mixed = 0
    for name, R in algs.items():
        for J in heart_sums(R):
            for t in (0, 1, -2):
                I, cohI, hull = rv._psi_target(R, J, t)
                whole = dg.psi(R, hull.module)
                want = dg.shift(whole, -t)
                assert I.dims == want.dims and same_arrays(I.diff, want.diff), (name, J.label, t)
                assert same_arrays(I.act, want.act), (name, J.label, t)
                copies = [dg.psi_piece(R, i)[0] for i, m in enumerate(hull.multiplicities) for _ in range(m)]
                assert [(id(X), n) for X, n in I.parts] == [(id(X), -t) for X in copies], (name, J.label, t)
                for i, sp in whole._psi_spaces.items():
                    got = pieces_space([X._psi_spaces[i] for X in copies])
                    assert (got.rows, got.cols, got.pivots) == (sp.rows, sp.cols, sp.pivots), (name, J.label, i)
                    assert np.array_equal(got.basis, sp.basis), (name, J.label, i)
                assert same_cohomology(cohI, dg.cohomology(want)), (name, J.label, t)
                assert same_cohomology(cohI, dg.cohomology(I)), (name, J.label, t)
            ms = hull.multiplicities
            repeated += max(ms) >= 2
            mixed += sum(1 for m in ms if m) >= 2
    assert repeated >= 10 and mixed >= 5


def pieces_space(spaces):
    """The block sum of the pieces' MapSpaces on contiguous row chunks: block-
    diagonal bases, each piece's pivots past the chunks before it."""
    basis = np.zeros((sum(sp.dim for sp in spaces), sum(sp.rows * sp.cols for sp in spaces)), dtype=np.int64)
    pivots, r, c = [], 0, 0
    for sp in spaces:
        basis[r : r + sp.dim, c : c + sp.rows * sp.cols] = sp.basis
        pivots += [c + q for q in sp.pivots]
        r, c = r + sp.dim, c + sp.rows * sp.cols
    return la.MapSpace(P, sum(sp.rows for sp in spaces), spaces[0].cols, basis, pivots)


def test_strict_maps_equal_the_single_system_solve(algs, monkeypatch):
    calls = record_strict_maps(monkeypatch)
    for R in algs.values():
        for J in heart_sums(R):
            rv.IfijResolution(dg.heart_embed(R, J)).ensure(2)
    monkeypatch.undo()
    pieces = [[m for m in hull.multiplicities if m] for _, _, hull in calls]
    assert sum(max(ms) >= 2 for ms in pieces) >= 10 and sum(len(ms) >= 2 for ms in pieces) >= 5
    for args, f, hull in calls:
        want = strict_map_to_psi_oracle(*args, hull.module)
        assert same_arrays(f.blocks, want.blocks), args[1].label


def test_ifij_step_builds_the_cone_and_its_inclusion(algs):
    for R in algs.values():
        for J in heart_sums(R)[1:]:
            M = dg.heart_embed(R, J)
            I, f, nxt, g, _, _ = rv.ifij_step(M)
            C, inc, _ = dg.cone(f)
            assert nxt.dims == C.dims and same_arrays(nxt.diff, C.diff) and same_arrays(nxt.act, C.act)
            assert g.source is I and g.target is nxt and same_arrays(g.blocks, inc.blocks)


def fresh_k2():
    R = battery.builtin_algebra(K2_SPEC, P)
    return R, battery.builtin_module(R, "heart(S0)")


def test_injdim_builds_psi_once_per_algebra(monkeypatch):
    built = []
    psi = dg.psi

    def counted(R, K):
        built.append(K)
        return psi(R, K)

    monkeypatch.setattr(dg, "psi", counted)
    R, S = fresh_k2()
    first = rv.injdim(S, cap=2).to_json()
    assert len(built) == 1
    assert rv.injdim(S, cap=2).to_json() == first
    assert len(built) == 1


def snapshot(I, H, pim):
    # pim is the projective P_i with its inclusion, whose dual is the piece's K
    P, incl = pim
    mod = [I.label, P.label, dict(I.dims)] + [a.copy() for a in (*I.diff.values(), *I.act.values())]
    mod += [sp.basis.copy() for sp in I._psi_spaces.values()] + [P.action.copy(), incl.copy()]
    coh = [dict(H.dims)] + [a.copy() for a in (*H.reps.values(), *H.class_proj.values(), *H.action.values())]
    coh += [Z.basis.copy() for Z in H.cycle_basis.values()]
    return mod + coh


def same_snapshot(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


@pytest.mark.parametrize("spec", ["triangular(3)", K2_SPEC])
def test_memoised_pieces_survive_gldim(spec):
    R = battery.builtin_algebra(spec, P)
    n = len(hk.simples(hk.heart_of(R).r0))
    pieces = [dg.psi_piece(R, i) for i in range(n)]
    pims = [hk.projective_indecomposable(hk.heart_of(R).r0.opposite(), i) for i in range(n)]
    before = [snapshot(*pc, pim) for pc, pim in zip(pieces, pims)]
    rv.gldim(R, cap=3)
    assert all(dg.psi_piece(R, i) is pc for i, pc in enumerate(pieces))
    assert all(same_snapshot(snapshot(*pc, pim), b) for pc, pim, b in zip(pieces, pims, before))
    # the unshifted term of a degree-zero stage is a fresh module too
    I, _, _ = rv._psi_target(R, hk.simples(hk.heart_of(R).h0)[0], 0)
    assert all(I is not X for X, _ in pieces)


def test_concentration_scan_computes_h_of_m_once(monkeypatch):
    R, S = fresh_k2()
    calls = []
    cohomology = dg.cohomology

    def counted(M, *args, **kwargs):
        calls.append(M)
        return cohomology(M, *args, **kwargs)

    monkeypatch.setattr(dg, "cohomology", counted)
    scan = dv.concentration_scan(S)
    assert scan["support"] is not None
    assert sum(1 for M in calls if M is S) == 1


def test_rhom_and_ltensor_of_an_acyclic_module_are_empty(k2):
    C, _, _ = dg.cone(identity_morphism(k2.regular_module()))
    N = battery.builtin_module(k2, "heart(S0)")
    assert dv.rhom(C, N, (-3, 3)).dims == {}
    assert dv.ltensor(C, dg.dualize(N), (-3, 3)).dims == {}
    sf = dv.semifree(C, -5)
    assert sf.gen_degrees == [] and dv.rhom(C, N, (-3, 3), resolution=sf).dims == {}

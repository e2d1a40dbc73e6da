"""Semifree resolutions grown one cone step per round, checked entry for
entry against the former construction, which rebuilt F, the augmentation
and the whole cone from every generator in every round."""

import numpy as np
import pytest

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk

P = 32003


def semifree_oracle(M, floor):
    """The former dv.semifree: H(M) first, then each round rebuilds the
    cone of the augmentation by all generators so far."""
    R, p = M.algebra, M.p
    sf = dv.SemifreeResolution(M, floor)
    coh0 = dg.cohomology(M, with_action=False)
    if coh0.is_acyclic():
        sf.free = dg.free_module(R, [])
        sf.augmentation = dg.DGMorphism(sf.free, M, {})
        return sf
    j = coh0.sup
    for _ in range(int(coh0.sup) - floor + 5):
        F = dg.free_module(R, sf.gen_degrees, twists=sf.twists, label="F")
        eps = dg.free_map(F, M, list(sf.images))
        C = dg.cone_module(eps)
        cohC = dg.cohomology(C, window=(floor + 1, j))
        if cohC.is_acyclic():
            sf.free, sf.augmentation = F, eps
            return sf
        j = cohC.sup
        lifts = hk.projective_cover(dg.heart_module(C, j, cohC)).generators
        for t in range(lifts.shape[1]):
            rep = cohC.rep(j, lifts[:, t])  # cocycle in C^j = M^j + F^{j+1}
            m_part, x_part = rep[: M.dim(j)], rep[M.dim(j) :]
            g_new = len(sf.gen_degrees)
            for h, sh in enumerate(sf.gen_degrees):
                nb = R.dim(j + 1 - sh)
                if nb == 0:
                    continue
                off = sum(X.dim(j + 1 + n) for X, n in F.parts[:h])
                z = x_part[off : off + nb]
                if np.any(z):
                    sf.twists[(h, g_new)] = z.copy()
            sf.gen_degrees.append(j)
            sf.images.append((-m_part) % p)
    raise RuntimeError("semifree oracle failed to reach the floor")


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_list(a, b):
    return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))


def reads_the_same(X, Y):
    """Equal dims and equal diff_mat and act_tensor in every degree."""
    degs = sorted(set(X.dims) | set(Y.dims))
    return X.dims == Y.dims and all(
        same(X.diff_mat(i), Y.diff_mat(i))
        and all(same(X.act_tensor(i, j), Y.act_tensor(i, j)) for j in X.algebra.degrees())
        for i in degs
    )


def same_resolution(a, b):
    ta, tb = a.augmentation, b.augmentation
    return (
        a.gen_degrees == b.gen_degrees
        and list(a.twists) == list(b.twists) and same_list(list(a.twists.values()), list(b.twists.values()))
        and same_list(a.images, b.images)
        and reads_the_same(a.free, b.free)
        and ta.blocks.keys() == tb.blocks.keys() and all(same(ta.blocks[i], tb.blocks[i]) for i in ta.blocks)
    )


def modules(R):
    """Heart simples, a shifted simple, an acyclic cone, the cone of
    e -> b for b the last basis vector of R^0, R and m_of(1).  The cone of
    e -> b has cocycles with parts on both M and the newest generators, so
    it tells the coupling -rep from +rep."""
    sims = [battery.heart_simple(R, i) for i in range(len(hk.simples(hk.heart_of(R).h0)))]
    C, _, _ = dg.cone(dg.identity_morphism(R.regular_module()))
    b = la.eye(R.dim(0))[-1]
    times_b = dg.cone_module(dg.free_map(dg.free_module(R, [0]), R.regular_module(), [b]))
    return sims + [dg.shift(sims[0], 2), C, times_b, R.regular_module(), battery.m_of(R, 1)]


@pytest.fixture(scope="module")
def algs(algebras, k2):
    return dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2, K2op=k2.opposite())


def test_semifree_matches_the_rebuilding_oracle(algs):
    checked = 0
    for name, R in algs.items():
        for M in modules(R):
            for floor in (0, -1, -3, -5):
                got, want = dv.semifree(M, floor), semifree_oracle(M, floor)
                assert same_resolution(got, want), (name, M.label, floor)
                checked += 1
    assert checked == 236


def test_semifree_of_an_acyclic_module_is_empty(k2):
    C, _, _ = dg.cone(dg.identity_morphism(k2.regular_module()))
    sf = dv.semifree(C, -4)
    assert sf.gen_degrees == [] and sf.free.dims == {} and sf.augmentation.blocks == {}

"""Degree-zero structure theory is computed once per algebra: opposite
algebras share one heart, and projective covers are memoised by action
table.  Every shared or memoised result must equal a fresh build bit for bit.
"""

from dataclasses import replace

import numpy as np

from dgres import battery
from dgres import derived as dv
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
SPECS = (
    "triangular(4)",
    "product(matrix(2),triangular(2))",
    "koszul(x,y; k[x,y]/(x^2,y^2))",
    "koszul(x,y,z; k[x,y,z]/(x^2,y^2,z^2))",
)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_module(M, N):
    return (M.dim, M.label) == (N.dim, N.label) and same(M.action, N.action)


def same_subspace(a, b):
    return a.pivots == b.pivots and same(a.basis, b.basis)


def same_cover(c, d):
    return (
        same_module(c.module, d.module)
        and same(c.map, d.map)
        and c.multiplicities == d.multiplicities
    )


def fresh_algebras(seed=0):
    """New algebra objects, so no heart or memo is built yet."""
    algs = list(battery.battery_algebras(P, seed).values())
    return algs + [battery.builtin_algebra(s, P, seed=seed) for s in SPECS]


def fresh_heart(R):
    d = R.diff_mat(-1)
    return hk.heart_data(R.p, R.mult_tensor(0, 0), R.unit, list(d.T), label=R.label, seed=R.seed)


def same_structure(A, B):
    """Equal tables, simples, lifted idempotents and PIMs of two ordinary algebras."""
    if not (same(A.mult, B.mult) and same(A.unit, B.unit) and A.seed == B.seed):
        return False
    sa, sb = hk.simples(A), hk.simples(B)
    ea, eb = hk._lift_idempotents(A), hk._lift_idempotents(B)
    if len(sa) != len(sb) or not all(map(same_module, sa, sb)) or not all(map(same, ea, eb)):
        return False
    for i in range(len(sa)):
        (pa, ia), (pb, ib) = hk.projective_indecomposable(A, i), hk.projective_indecomposable(B, i)
        if not (same_module(pa, pb) and same(ia, ib)):
            return False
    return True


def test_opposite_heart_is_shared_and_equals_a_fresh_build():
    for op_first in (False, True):
        for R in fresh_algebras(seed=3):
            Rop = R.opposite()
            first, second = (Rop, R) if op_first else (R, Rop)
            h = hk.heart_of(first)
            shared = hk.heart_of(second)
            assert shared.r0 is h.r0.opposite() and shared.h0 is h.h0.opposite()
            built = fresh_heart(second)
            assert same(shared.project, built.project) and same(shared.lift, built.lift)
            assert same_subspace(shared.boundaries, built.boundaries)
            assert same_structure(shared.r0, built.r0) and same_structure(shared.h0, built.h0)


def test_heart_without_boundaries_is_r0():
    for R in fresh_algebras():
        hd = hk.heart_of(R)
        if hd.boundaries.dim == 0:
            assert hd.h0 is hd.r0
            Q, proj, sect = hk.quotient_algebra(hd.r0, hd.boundaries)
            assert same(Q.mult, hd.h0.mult) and same(Q.unit, hd.h0.unit)
            assert same(proj, hd.project) and same(sect, hd.lift)
        else:
            assert hd.h0 is not hd.r0


def test_module_labels_do_not_depend_on_which_heart_came_first():
    # the regular H0-module is named after the DG-algebra, not after the
    # ordinary algebra object that carries H0 (R0, or H0 of the opposite)
    for op_first in (False, True):
        for R in fresh_algebras():
            pair = (R.opposite(), R) if op_first else (R, R.opposite())
            for X in pair:
                hk.heart_of(X)
            for X in pair:
                labels = [N.label for N in dv.heart_battery(X)]
                assert labels[len(hk.simples(hk.heart_of(X).h0))] == X.label + ".H0"


def test_opposites_point_both_ways():
    for R in fresh_algebras():
        assert R.opposite().opposite() is R
        assert R != R.opposite()  # algebras compare by identity
        for A in (hk.heart_of(R).r0, hk.heart_of(R).h0):
            assert A.opposite().opposite() is A
            commutative = np.array_equal(A.mult, np.swapaxes(A.mult, 0, 1))
            assert (A.opposite() is A) == commutative


def test_a_copied_algebra_starts_without_a_heart():
    # a copy with other tables must not inherit the heart of the original
    for R in fresh_algebras():
        hk.heart_of(R)
        assert replace(R, _memo={})._heart is None


def test_memoised_covers_equal_fresh_builds(monkeypatch):
    cover = hk.projective_cover
    covered = []

    def recorded(N):
        covered.append(N)
        return cover(N)

    monkeypatch.setattr(hk, "projective_cover", recorded)
    for R in battery.battery_algebras(P).values():
        rv.gldim(R, cap=5)
    monkeypatch.undo()
    assert any(N.dim for N in covered)
    for N in covered:
        if N.dim:
            assert same_cover(hk.projective_cover(N), hk._build_cover(N))


def test_gldim_builds_structure_theory_once(monkeypatch):
    split, build = hk._block_split, hk._build_cover
    splits, builds = {}, {}

    def counted_split(A, S, rng):
        splits.setdefault(id(A), [A, 0])[1] += 1  # holds A, so no id is reused
        return split(A, S, rng)

    def counted_build(N):
        key = (id(N.algebra), N.action.tobytes())
        builds.setdefault(key, [N.algebra, 0])[1] += 1
        return build(N)

    monkeypatch.setattr(hk, "_block_split", counted_split)
    monkeypatch.setattr(hk, "_build_cover", counted_build)
    rv.gldim(battery.builtin_algebra("triangular(4)", P), cap=6)
    assert splits and all(n == 1 for _, n in splits.values())
    assert builds and all(n == 1 for _, n in builds.values())

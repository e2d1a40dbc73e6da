"""Direct sums from one builder, dg.block_sum, and their cohomology from one
assembler, dg.block_sum_cohomology.

free_module and cone_module each kept their own offset loops before they
were built from block_sum; those bodies are kept here as test-only oracles.
The new modules must read the same through dims, diff_mat and act_tensor,
and store their entries by the one rule of the dgcore module docstring.
block_sum never modifies a part, and the parts include shared ones: the
regular module and the memoised psi pieces.
"""

import numpy as np
import pytest

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
GEN_DEGREES = ([], [0], [0, -1, -1, 2], [-2, 0, -2], [1, 0], [-3])


# ---------------------------------------------------------------------------
# oracles: free_module and cone_module before block_sum


def free_module_oracle(R, gen_degrees, twists=None):
    p = R.p
    twists = twists or {}
    degs = sorted({s + d for s in gen_degrees for d in R.degrees()})
    offs = {}
    dims = {}
    for i in degs:
        off = 0
        for g, s in enumerate(gen_degrees):
            offs[(i, g)] = off
            off += R.dim(i - s)
        dims[i] = off
    dims = {i: n for i, n in dims.items() if n}
    diff = {}
    for i in degs:
        if dims.get(i, 0) == 0 or dims.get(i + 1, 0) == 0:
            continue
        d = la.zeros(dims[i + 1], dims[i])
        for g, s in enumerate(gen_degrees):
            nb = R.dim(i - s)
            if nb == 0:
                continue
            c0 = offs[(i, g)]
            sign = -1 if s % 2 else 1
            blk = (sign * R.diff_mat(i - s)) % p
            if i + 1 - s <= 0 and R.dim(i + 1 - s):
                d[offs[(i + 1, g)] : offs[(i + 1, g)] + R.dim(i + 1 - s), c0 : c0 + nb] = blk
            for h, sh in enumerate(gen_degrees):
                z = twists.get((h, g))
                if z is None:
                    continue
                zdeg = s + 1 - sh
                mat = R.left_mult_matrix(z, zdeg, i - s)
                rows = R.dim(i + 1 - sh)
                if rows:
                    r0 = offs[(i + 1, h)]
                    d[r0 : r0 + rows, c0 : c0 + nb] = (d[r0 : r0 + rows, c0 : c0 + nb] + mat) % p
        diff[i] = d
    act = {}
    for i in degs:
        if dims.get(i, 0) == 0:
            continue
        for j in R.degrees():
            k = i + j
            if dims.get(k, 0) == 0:
                continue
            t = np.zeros((dims[i], R.dim(j), dims[k]), dtype=np.int64)
            for g, s in enumerate(gen_degrees):
                nb, nk = R.dim(i - s), R.dim(k - s)
                if nb == 0 or nk == 0:
                    continue
                t[offs[(i, g)] : offs[(i, g)] + nb, :, offs[(k, g)] : offs[(k, g)] + nk] = R.mult_tensor(i - s, j)
            act[(i, j)] = t
    return dg.DGModule(R, dims, diff, act), offs


def cone_module_oracle(f):
    M, N, p = f.source, f.target, f.p
    R = M.algebra
    degs = sorted(set(N.degrees()) | {i - 1 for i in M.degrees()})
    dims = {i: N.dim(i) + M.dim(i + 1) for i in degs}
    diff, act = {}, {}
    for i in degs:
        rN, rM = N.dim(i + 1), M.dim(i + 2)
        cN, cM = N.dim(i), M.dim(i + 1)
        d = la.zeros(rN + rM, cN + cM)
        d[:rN, :cN] = N.diff_mat(i)
        d[:rN, cN:] = f.block(i + 1)
        d[rN:, cN:] = (-M.diff_mat(i + 1)) % p
        diff[i] = d
        for j in R.degrees():
            t = np.zeros((cN + cM, R.dim(j), N.dim(i + j) + M.dim(i + j + 1)), dtype=np.int64)
            t[:cN, :, : N.dim(i + j)] = N.act_tensor(i, j)
            t[cN:, :, N.dim(i + j) :] = M.act_tensor(i + 1, j)
            act[(i, j)] = t
    return dg.DGModule(R, dims, diff, act)


# ---------------------------------------------------------------------------
# comparisons


def reads_the_same(a, b):
    """Equal dims, and equal arrays through diff_mat and act_tensor."""
    if a.dims != b.dims:
        return False
    degs, R = a.degrees(), a.algebra
    for i in range(min(degs, default=0) - 1, max(degs, default=0) + 1):
        x, y = a.diff_mat(i), b.diff_mat(i)
        if x.shape != y.shape or not np.array_equal(x, y):
            return False
    return all(np.array_equal(a.act_tensor(i, j), b.act_tensor(i, j)) for i in degs for j in R.degrees())


def keeps_the_rule(X):
    """diff[i] iff i and i + 1 are degrees, act[(i, j)] iff i and i + j are."""
    degs = set(X.degrees())
    return (set(X.dims) == degs
            and set(X.diff) == {i for i in degs if i + 1 in degs}
            and set(X.act) == {(i, j) for i in degs for j in X.algebra.degrees() if i + j in degs})


def same_cohomology(a, b):
    same = lambda x, y: x.keys() == y.keys() and all(x[k].shape == y[k].shape and np.array_equal(x[k], y[k]) for k in x)
    return (
        (a.dims, a.window) == (b.dims, b.window)
        and same(a.reps, b.reps) and same(a.class_proj, b.class_proj) and same(a.action, b.action)
        and a.cycle_basis.keys() == b.cycle_basis.keys()
        and all((x.ambient_dim, x.pivots) == (y.ambient_dim, y.pivots) and x.basis.shape == y.basis.shape
                and np.array_equal(x.basis, y.basis)
                for x, y in ((a.cycle_basis[i], b.cycle_basis[i]) for i in a.cycle_basis))
    )


@pytest.fixture(scope="module")
def algs(algebras, k2):
    return dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2)


def heart_simples(R):
    return [battery.heart_simple(R, i) for i in range(len(hk.simples(hk.heart_of(R).h0)))]


def semifree_frees(R):
    """The twisted F of semifree(S, -4) for each heart simple S."""
    return [dv.semifree(S, -4) for S in heart_simples(R)]


def stage_maps(R):
    """Every sppj stage map to stage 3 and every ifij stage map to stage 2."""
    maps = []
    for S in heart_simples(R):
        sppj, ifij = rv.SppjResolution(S), rv.IfijResolution(S)
        sppj.ensure(3)
        ifij.ensure(2)
        maps += sppj.maps + ifij.maps
    return maps


# ---------------------------------------------------------------------------
# tests


def test_free_modules_match_the_oracle(algs):
    twisted = 0
    for name, R in algs.items():
        cases = [(degs, None) for degs in GEN_DEGREES]
        cases += [(sf.gen_degrees, sf.twists) for sf in semifree_frees(R)]
        for degs, twists in cases:
            got = dg.free_module(R, degs, twists=twists)
            want, offs = free_module_oracle(R, degs, twists)
            assert reads_the_same(got, want) and keeps_the_rule(got), (name, degs)
            assert [n for _, n in got.parts] == [-s for s in degs], (name, degs)
            assert all(X is R.regular_module() for X, _ in got.parts), (name, degs)
            # free_map's running sums of X.dim(i + n) are the oracle's block offsets
            assert all(o == sum(X.dim(i + n) for X, n in got.parts[:g]) for (i, g), o in offs.items()), (name, degs)
            twisted += bool(twists)
    assert twisted >= 5


def test_cones_match_the_oracle(algs):
    count = 0
    for name, R in algs.items():
        maps = stage_maps(R)
        maps += [sf.augmentation for sf in semifree_frees(R)]
        for f in maps:
            got = dg.cone_module(f)
            assert reads_the_same(got, cone_module_oracle(f)) and keeps_the_rule(got), (name, f.target.label)
        count += len(maps)
    assert count >= 60


def test_mixed_degree_free_sums_have_the_cohomology_of_their_parts(algs):
    for name, R in algs.items():
        for A in (R, R.opposite()):
            H = dg.algebra_cohomology(A)
            for degs in GEN_DEGREES:
                F = dg.free_module(A, degs)
                got = dg.block_sum_cohomology(A, [(H, -s) for s in degs])
                assert same_cohomology(got, dg.cohomology(F)), (A.label, degs)


def test_block_sum_lays_out_its_parts():
    R = battery.builtin_algebra("koszul(x; k[x]/(x^2))", P)
    S = battery.heart_simple(R, 0)
    X, offs = dg.block_sum(R, [(S, 0), (R.regular_module(), 1), (S, -1)])
    # degree i holds S^i, then R^{i+1}, then S^{i-1}; S = S^0 has dim 1, R = R^{-1} + R^0
    assert X.dims == {-2: 2, -1: 2, 0: 1, 1: 1}
    assert offs == {(i, g): o for i, row in {-2: (0, 0, 2), -1: (0, 0, 2), 0: (0, 1, 1), 1: (0, 0, 0)}.items()
                    for g, o in enumerate(row)}
    assert keeps_the_rule(X) and dg.validate(X) == []
    assert np.array_equal(X.diff_mat(-2), (-R.diff_mat(-1)) % P)  # R[1] carries the sign -1


def test_building_leaves_shared_parts_unchanged(algs):
    def arrays(X):
        return [*X.diff.values(), *X.act.values()]

    def snapshot(R):
        pieces = [v for k, v in R._memo.items() if isinstance(k, tuple) and k[0] == "psi_piece"]
        mods = [R.regular_module()] + [I for I, _ in pieces]
        cohs = [H for _, H in pieces]
        out = [a.copy() for X in mods for a in arrays(X)]
        out += [a.copy() for H in cohs for a in (*H.reps.values(), *H.class_proj.values(), *H.action.values())]
        out += [sp.basis.copy() for I in mods[1:] for sp in I._psi_spaces.values()]
        return mods, out

    for name, R in algs.items():
        for S in heart_simples(R):
            rv.IfijResolution(S).ensure(2)  # memoises the pieces
        mods, before = snapshot(R)
        for degs in GEN_DEGREES:
            F = dg.free_module(R, degs)
            assert not any(np.shares_memory(a, b) for a in arrays(F) for X in mods for b in arrays(X)), name
        for f in stage_maps(R):
            C = dg.cone_module(f)
            assert not any(np.shares_memory(a, b) for a in arrays(C) for b in arrays(f.source) + arrays(f.target))
        semifree_frees(R)
        for J in hk.simples(hk.heart_of(R).h0):
            I, _ = dg.psi_sum(R, hk.injective_envelope(hk.restrict_to_r0(hk.heart_of(R), J)).multiplicities, 1)
            assert not any(np.shares_memory(a, b) for a in arrays(I) for X in mods for b in arrays(X)), name
        after_mods, after = snapshot(R)
        assert [id(X) for X in after_mods] == [id(X) for X in mods], name
        assert len(before) == len(after) and all(np.array_equal(a, b) for a, b in zip(before, after)), name

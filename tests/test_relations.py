"""The one relation builder, exactla.relations, and the one system builder
on top of it, exactla.balance_rows, against the per-site loop and kron
constructions they replaced, which are kept here as test-only oracles.
Every Hom basis, tensor quotient, psi space and action map must come out
bit-identical, over the battery algebras and the two-variable Koszul
algebra (whose odd degrees exercise the tensor sign).  The psi stage maps,
read off the envelope in closed form, must equal conftest's kron solve of
one system over the whole envelope."""

import numpy as np
import pytest

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv
from conftest import record_strict_maps, strict_map_to_psi_oracle

P = 32003


# ---------------------------------------------------------------------------
# oracles: the loop and kron relation code of each site


def map_space(p, rows, cols, vectors):
    sp = la.span(vectors if len(vectors) else la.zeros(0, rows * cols), rows * cols, p)
    return la.MapSpace(p, rows, cols, sp.basis, sp.pivots)


def right_mult(t, b):
    """Matrix of x -> x . e_b for an action tensor t (x, b, y)."""
    return t[:, b, :].T.copy()


def hom_space_oracle(M, N):
    A, p = M.algebra, M.algebra.p
    r, c = N.dim, M.dim
    if r == 0 or c == 0:
        return map_space(p, r, c, la.zeros(0, r * c))
    blocks = []
    for a in range(A.dim):
        # phi @ rhoM_a - rhoN_a @ phi = 0, row-major vectorization
        blocks.append(np.kron(la.eye(r), M.action[a].T) - np.kron(N.action[a], la.eye(c)))
    big = np.concatenate(blocks, axis=0) % p
    ker = la.kernel(big, p)
    return map_space(p, r, c, ker.basis)


def hom_component_oracle(M, N, n):
    p = M.p
    R = M.algebra
    layout = []
    for i in M.degrees():
        if N.dim(i + n):
            layout.append((i, N.dim(i + n), M.dim(i)))
    total = sum(r * c for _, r, c in layout)
    if total == 0:
        return map_space(p, 1, 1, la.zeros(0, 1)), layout
    offs = {}
    off = 0
    for i, r, c in layout:
        offs[i] = off
        off += r * c
    rows = []
    for i in M.degrees():
        for j in R.degrees():
            k = i + j
            tgt_rows = N.dim(k + n)
            if M.dim(i) == 0 or R.dim(j) == 0:
                continue
            if tgt_rows == 0:
                continue
            for a in range(M.dim(i)):
                for b in range(R.dim(j)):
                    # phi_{i+j}(m_a . r_b) - phi_i(m_a) . r_b = 0
                    row_block = np.zeros((tgt_rows, total), dtype=np.int64)
                    v = M.act_tensor(i, j)[a, b]
                    if k in offs:
                        r_, c_ = N.dim(k + n), M.dim(k)
                        row_block[:, offs[k] : offs[k] + r_ * c_] = np.kron(la.eye(r_), v.reshape(1, -1))
                    if i in offs:
                        Rb = right_mult(N.act_tensor(i + n, j), b)
                        sel = np.zeros((M.dim(i), 1), dtype=np.int64)
                        sel[a, 0] = 1
                        w = N.dim(i + n) * M.dim(i)
                        row_block[:, offs[i] : offs[i] + w] = (row_block[:, offs[i] : offs[i] + w] - np.kron(Rb, sel.T)) % p
                    rows.append(row_block % p)
    basis = la.kernel(np.concatenate(rows, axis=0), p).basis if rows else la.eye(total)
    return map_space(p, 1, total, basis), layout


def tensor_complex_oracle(M, L, window=None):
    R = M.algebra
    Rop = L.algebra
    p = M.p
    if not M.degrees() or not L.degrees():
        return dg.KComplex(p, {}, {}, label="Tensor")
    nlo, nhi = M.lo() + L.lo(), M.hi() + L.hi()
    if window:
        nlo, nhi = max(nlo, window[0] - 1), min(nhi, window[1] + 1)
    layouts, projs, sects = {}, {}, {}
    for n in range(nlo, nhi + 1):
        layout = [(i, M.dim(i), L.dim(n - i)) for i in M.degrees() if L.dim(n - i)]
        layouts[n] = layout
        total = sum(a * b for _, a, b in layout)
        if total == 0:
            continue
        offs = {}
        off = 0
        for i, a, b in layout:
            offs[i] = off
            off += a * b
        rels = []
        for i in M.degrees():
            for j in Rop.degrees():
                # (m r) (x) l - (-1)^{|r||l|} m (x) (l *op r),  r in R^j, l in L^t
                t = n - i - j
                if L.dim(t) == 0 or R.dim(j) == 0 or M.dim(i) == 0:
                    continue
                for mi in range(M.dim(i)):
                    for rj in range(R.dim(j)):
                        mr = M.act_tensor(i, j)[mi, rj]
                        for lt in range(L.dim(t)):
                            rel = np.zeros(total, dtype=np.int64)
                            if (i + j) in offs:
                                rel[offs[i + j] + np.arange(M.dim(i + j)) * L.dim(t) + lt] = mr
                            lr = L.act_tensor(t, j)[lt, rj]
                            sign = -1 if (j * t) % 2 else 1
                            if i in offs:
                                idx = offs[i] + mi * L.dim(n - i) + np.arange(L.dim(t + j))
                                rel[idx] = (rel[idx] - sign * lr) % p
                            rels.append(rel % p)
        sub = la.span(rels if rels else la.zeros(0, total), total, p)
        projs[n], sects[n] = la.quotient_basis(sub)
    dims = {n: projs[n].shape[0] for n in projs if projs[n].shape[0]}
    diff = {}
    for n in sorted(projs):
        if n + 1 not in projs or dims.get(n, 0) == 0 or dims.get(n + 1, 0) == 0:
            continue
        offs_n1 = {}
        off = 0
        for i, a, b in layouts[n + 1]:
            offs_n1[i] = off
            off += a * b
        cols = []
        for col in range(dims[n]):
            vec = sects[n][:, col]
            img = np.zeros(off, dtype=np.int64)
            o = 0
            for i, a, b in layouts[n]:
                blk = vec[o : o + a * b].reshape(a, b)
                o += a * b
                dm = la.matmul(M.diff_mat(i), blk, p)
                if (i + 1) in offs_n1:
                    img[offs_n1[i + 1] : offs_n1[i + 1] + dm.size] += dm.reshape(-1)
                dl = la.matmul(blk, L.diff_mat(n - i).T, p)
                if i in offs_n1 and L.dim(n + 1 - i):
                    img[offs_n1[i] : offs_n1[i] + dl.size] += (-1 if i % 2 else 1) * dl.reshape(-1)
            cols.append(la.matmul(projs[n + 1], img % p, p))
        diff[n] = np.stack(cols, axis=1)
    return dg.KComplex(p, dims, diff)


def psi_spaces_oracle(R, K):
    hd = hk.heart_of(R)
    p = R.p
    spaces = {}
    for i in range(0, -min(R.degrees()) + 1):
        src = -i
        if R.dim(src) == 0 or K.dim == 0:
            continue
        rows, cols = K.dim, R.dim(src)
        constraints = []
        for b in range(hd.r0.dim):
            # phi(s . e_b) = phi(s) . e_b
            Rb = right_mult(R.mult_tensor(src, 0), b)
            constraints.append((np.kron(la.eye(rows), Rb.T) - np.kron(K.action[b], la.eye(cols))) % p)
        basis = la.kernel(np.concatenate(constraints, axis=0), p).basis if constraints else la.eye(rows * cols)
        spaces[i] = map_space(p, rows, cols, basis)
    return spaces


def tensor_over_h0_oracle(Q, L):
    A = Q.algebra
    p = A.p
    big = Q.dim * L.dim
    if big == 0:
        return 0, la.zeros(0, 0), la.zeros(0, 0)
    rels = []
    for a in range(A.dim):
        qa = Q.action[a]
        al = L.action[a]
        for qi in range(Q.dim):
            for li in range(L.dim):
                rel = np.zeros(big, dtype=np.int64)
                rel[np.arange(Q.dim) * L.dim + li] = qa[:, qi]
                rel[qi * L.dim + np.arange(L.dim)] = (rel[qi * L.dim + np.arange(L.dim)] - al[:, li]) % p
                rels.append(rel)
    proj, sect = la.quotient_basis(la.span(rels, big, p))
    return proj.shape[0], proj, sect


def action_map_oracle(R, cohM, s, i):
    p = R.p
    cohR = dg.algebra_cohomology(R)
    hd = hk.heart_of(R)
    q, v = cohM.dim(s), cohR.dim(-i)
    tgt = cohM.dim(s - i)
    if q == 0 or v == 0:
        return la.zeros(tgt, 0), 0
    qa = cohM.action.get((s, 0), np.zeros((q, hd.h0.dim, q), dtype=np.int64))
    av = cohR.action.get((0, -i), np.zeros((hd.h0.dim, v, v), dtype=np.int64))
    rows = np.einsum("iaj,uw->iaujw", qa, la.eye(v))
    rows -= np.einsum("ij,auw->iaujw", la.eye(q), av)
    proj, sect = la.quotient_basis(la.span(rows.reshape(-1, q * v), q * v, p))
    t = cohM.action.get((s, -i), np.zeros((q, v, tgt), dtype=np.int64))
    return la.matmul(t.reshape(q * v, tgt).T, sect, p), proj.shape[0]


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def algs(algebras, k2):
    return dict(algebras, K2=k2)


def modules(R):
    sims = hk.simples(hk.heart_of(R).h0)
    return [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(len(sims))]


def heart_modules(R):
    h0 = hk.heart_of(R).h0
    return hk.simples(h0) + [hk.regular_module(h0)]


def same_space(a, b):
    return (a.rows, a.cols, a.pivots) == (b.rows, b.cols, b.pivots) and np.array_equal(a.basis, b.basis)


def same_complex(a, b):
    return a.dims == b.dims and a.diff.keys() == b.diff.keys() and all(
        np.array_equal(a.diff[n], b.diff[n]) for n in a.diff
    )


# ---------------------------------------------------------------------------
# the builder itself


def test_relations_blocks_are_the_balance_relations():
    rng = np.random.default_rng(3)
    p = 101
    src = rng.integers(0, p, (2, 3, 4))
    tgt = rng.integers(0, p, (5, 3, 2))
    for sign in (1, -1):
        left, right = la.relations(src, tgt, p, sign)
        assert left.shape == (2 * 3 * 5, 4 * 5) and right.shape == (2 * 3 * 5, 2 * 2)
        for x, a, y in np.ndindex(2, 3, 5):
            row = (x * 3 + a) * 5 + y
            xa_y = np.outer(src[x, a], la.eye(5)[y]).reshape(-1)
            x_ya = np.outer(la.eye(2)[x], tgt[y, a]).reshape(-1)
            assert np.array_equal(left[row], xa_y)
            assert np.array_equal(right[row], -sign * x_ya)


def balance_rows_oracle(terms, widths):
    """Row by row: (x.a) (x) y at the left block's columns plus
    -sign * x (x) (y.a) at the right block's, zero rows left out."""
    offs = np.concatenate([[0], np.cumsum(widths)]).astype(int)
    rows = []
    for src, tgt, sign, lb, rb in terms:
        (m, A, _), (n, _, _) = src.shape, tgt.shape
        for x, a, y in np.ndindex(m, A, n):
            row = np.zeros(offs[-1], dtype=np.int64)
            if lb is not None:
                row[offs[lb] : offs[lb + 1]] += np.outer(src[x, a], la.eye(n)[y]).reshape(-1)
            if rb is not None:
                row[offs[rb] : offs[rb + 1]] -= sign * np.outer(la.eye(m)[x], tgt[y, a]).reshape(-1)
            if row.any():
                rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, offs[-1])


def test_balance_rows_lays_out_the_relations():
    rng = np.random.default_rng(5)
    p = 101

    def sparse(*shape):
        return rng.integers(0, p, shape) * (rng.random(shape) < 0.3)

    # blocks of widths 4, 6 and 20: block 1 takes both sides of one term,
    # and a term with no side placed gives no rows (the last case)
    a, b = sparse(2, 3, 4), sparse(5, 3, 2)
    c, d = sparse(2, 3, 3), sparse(2, 3, 3)
    e, f = sparse(2, 2, 4), sparse(2, 2, 2)
    multi = [(a, b, 1, 2, 0), (c, d, -1, 1, 1), (e, f, 1, None, 0), (e, f, 1, None, None)]
    single = [(c, d, 1, 0, 0), (c, d, -1, 0, None), (c, d, 1, None, 0)]
    for terms, widths in ((multi, [4, 6, 20]), (single, [6]), (multi[3:], [4, 6, 20])):
        before = [(s.copy(), t.copy()) for s, t, *_ in terms]
        got = la.balance_rows(terms, widths, p)
        want = balance_rows_oracle(terms, widths)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert all(np.array_equal(s, s0) and np.array_equal(t, t0) for (s, t, *_), (s0, t0) in zip(terms, before))
    # zero rows occur, and are dropped
    assert la.balance_rows(multi, [4, 6, 20], p).shape[0] < sum(s.shape[0] * s.shape[1] * t.shape[0]
                                                                 for s, t, *_ in multi[:3])


# ---------------------------------------------------------------------------
# every site, bit-identical to its oracle


def test_hom_and_tensor_over_h0_match_oracles(algs):
    for name, R in algs.items():
        hms = heart_modules(R)
        for X in hms:
            for Y in hms:
                assert same_space(hk.hom_space(X, Y), hom_space_oracle(X, Y)), (name, X.label, Y.label)
                DY = hk.dual_module(Y)
                got, want = dv.tensor_over_h0(X, DY), tensor_over_h0_oracle(X, DY)
                assert got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:])), name


def test_hom_complex_matches_oracle(algs, monkeypatch):
    for name, R in algs.items():
        mods = modules(R)
        for M in mods:
            for N in mods:
                got = dg.hom_complex(M, N)
                with monkeypatch.context() as m:
                    m.setattr(dg, "_hom_component", hom_component_oracle)
                    want = dg.hom_complex(M, N)
                assert same_complex(got, want), (name, M.label, N.label)
                for n, sp in want.basis.get("spaces", {}).items():
                    assert same_space(got.basis["spaces"][n], sp), (name, M.label, N.label, n)


def test_tensor_complex_matches_oracle(algs):
    for name, R in algs.items():
        for M in modules(R):
            for L in (R.opposite().regular_module(), dg.dualize(M)):
                got, want = dg.tensor_complex(M, L), tensor_complex_oracle(M, L)
                assert same_complex(got, want), (name, M.label, L.label)


def test_psi_spaces_match_oracle(algs):
    for name, R in algs.items():
        hd = hk.heart_of(R)
        for K in hk.simples(hd.r0) + [hk.regular_module(hd.r0), hk.injective_envelope(hk.simples(hd.r0)[0]).module]:
            got, want = dg.psi(R, K)._psi_spaces, psi_spaces_oracle(R, K)
            assert got.keys() == want.keys(), name
            assert all(same_space(got[i], want[i]) for i in want), (name, K.label)


def test_action_maps_and_psi_stage_maps_match_oracles(algs, monkeypatch):
    # the heart sums' stage maps are checked in test_psi_pieces.  The
    # criterion skips i = 0 on a unital top, so the action maps are built
    # here at each input it is given, over its full range of degrees
    inputs, criterion = [], rv._projective_criterion

    def record_input(R, coh, label):
        inputs.append((R, coh))
        return criterion(R, coh, label)

    monkeypatch.setattr(rv, "_projective_criterion", record_input)
    psi_calls = record_strict_maps(monkeypatch)
    for R in algs.values():
        for M in modules(R):
            rv.pd(M, cap=3)
            rv.IfijResolution(M).ensure(3)
    action_calls = [(R, coh, coh.sup, i) for R, coh in inputs if not coh.is_acyclic()
                    for i in rv._action_map_ranges(R, coh, coh.sup)]
    assert len(action_calls) > 50 and len(psi_calls) > 30
    for args in action_calls:
        (R, coh, s, i), (mat, src) = args, rv._action_map(*args)
        want_mat, want_src = action_map_oracle(*args)
        assert src == want_src and np.array_equal(mat, want_mat)
        if i == 0:  # Q (x)_{H0} H0 -> Q is bijective, the theorem the criterion's skip rests on
            assert src == coh.dim(s) == la.rank(mat, R.p)
    for args, f, hull in psi_calls:
        want = strict_map_to_psi_oracle(*args, hull.module)
        assert f.blocks.keys() == want.blocks.keys(), args[1].label
        assert all(np.array_equal(f.blocks[j], want.blocks[j]) for j in want.blocks), args[1].label

import numpy as np
import pytest

from conftest import is_injective, is_projective
from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003


def _algebra(table, unit, label):
    n = len(unit)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), combo in table.items():
        for c, coeff in combo:
            mult[a, b, c] = coeff % P
    A = hk.OrdinaryAlgebra(P, n, mult, np.array(unit, dtype=np.int64) % P, label=label)
    assert A.validate() == []
    return A


def field_alg():
    return _algebra({(0, 0): [(0, 1)]}, [1], "k")


def dual_numbers():
    # k[x]/(x^2), basis 1, x
    return _algebra(
        {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)], (1, 1): []},
        [1, 0],
        "k[x]/(x^2)",
    )


def product_kk():
    return _algebra({(0, 0): [(0, 1)], (1, 1): [(1, 1)]}, [1, 1], "k x k")


def upper_triangular():
    # basis E11, E12, E22
    return _algebra(
        {
            (0, 0): [(0, 1)],
            (0, 1): [(1, 1)],
            (1, 2): [(1, 1)],
            (2, 2): [(2, 1)],
        },
        [1, 0, 1],
        "T2",
    )


def matrix2():
    # basis E11, E12, E21, E22
    tbl = {}
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                tbl[(a, b)] = [(idx[(i, l)], 1)]
    return _algebra(tbl, [1, 0, 0, 1], "M2")


def test_radical_known():
    assert hk.radical(product_kk()).dim == 0
    rad = hk.radical(dual_numbers())
    assert rad == la.span([[0, 1]], 2, P)
    rad = hk.radical(upper_triangular())
    assert rad == la.span([[0, 1, 0]], 3, P)
    assert hk.radical(matrix2()).dim == 0


def test_radical_requires_large_p():
    A = field_alg()
    small = hk.OrdinaryAlgebra(1009, 1, A.mult, A.unit)
    hk.radical(small)  # fine: 1009 > 1
    bad = hk.OrdinaryAlgebra(2, 2, dual_numbers().mult, dual_numbers().unit)
    with pytest.raises(hk.ConfigurationError):
        hk.radical(bad)


def test_radical_nilpotent():
    for A in (dual_numbers(), upper_triangular()):
        chain = hk.radical_chain(A)
        assert chain[-1].dim == 0
        assert len(chain) <= A.dim + 1


def test_simples_known():
    assert [s.dim for s in hk.simples(field_alg())] == [1]
    assert sorted(s.dim for s in hk.simples(product_kk())) == [1, 1]
    assert sorted(s.dim for s in hk.simples(upper_triangular())) == [1, 1]
    assert [s.dim for s in hk.simples(matrix2())] == [2]
    assert [s.dim for s in hk.simples(dual_numbers())] == [1]


def test_simples_reconstruct_semisimple_quotient():
    for A in (field_alg(), product_kk(), upper_triangular(), matrix2(), dual_numbers()):
        S, _, _ = hk.semisimple_quotient(A)
        assert sum(s.dim * s.dim for s in hk.simples(A)) == S.dim


def test_simples_validate_as_modules():
    for A in (upper_triangular(), matrix2()):
        for s in hk.simples(A):
            assert s.validate() == []


def ordinary_validate_oracle(A):
    """The basis loops that OrdinaryAlgebra.validate replaced."""
    bad = []
    n = A.dim
    basis = la.eye(n)
    for a in range(n):
        if np.any(A.multiply(A.unit, basis[a]) != basis[a]):
            bad.append(f"unit fails on left of e_{a}")
        if np.any(A.multiply(basis[a], A.unit) != basis[a]):
            bad.append(f"unit fails on right of e_{a}")
    for a in range(n):
        for b in range(n):
            ab = A.multiply(basis[a], basis[b])
            for c in range(n):
                if np.any(A.multiply(ab, basis[c]) != A.multiply(basis[a], A.multiply(basis[b], basis[c]))):
                    bad.append(f"associativity fails at ({a},{b},{c})")
    return bad


def module_validate_oracle(M):
    """The basis loops that FDModule.validate replaced."""
    A, p = M.algebra, M.algebra.p
    if M.dim == 0:
        return []
    bad = ["unit does not act as identity"] if np.any(M.action_of(A.unit) != la.eye(M.dim)) else []
    for a in range(A.dim):
        for b in range(A.dim):
            if np.any(M.action_of(A.mult[a, b]) != la.matmul(M.action[b], M.action[a], p)):
                bad.append(f"action breaks associativity at ({a},{b})")
    return bad


def test_validate_reports_a_corrupted_unit_and_a_corrupted_product():
    # each check reports what the basis loops report, as a multiset, and
    # every corruption is reported
    kinds = ("unit fails on", "associativity fails", "unit does not act", "action breaks associativity")
    seen = set()

    def check(X, oracle, corrupted):
        got = X.validate()
        assert sorted(got) == sorted(oracle(X)) and bool(got) == corrupted
        seen.update(k for k in kinds if any(m.startswith(k) for m in got))

    for A in (field_alg(), dual_numbers(), product_kk(), upper_triangular(), matrix2()):
        n, u = A.dim, int(np.flatnonzero(A.unit)[0])
        check(A, ordinary_validate_oracle, False)
        check(hk.OrdinaryAlgebra(P, n, A.mult, (A.unit + la.eye(n)[n - 1]) % P), ordinary_validate_oracle, True)
        # e_u e_{n-1} gains an e_0 term, e_u the unit's first basis element
        mult = A.mult.copy()
        mult[u, n - 1, 0] = (mult[u, n - 1, 0] + 1) % P
        check(hk.OrdinaryAlgebra(P, n, mult, A.unit), ordinary_validate_oracle, True)
        # the regular module, then with one entry of the matrix of e_u, or
        # of the next basis element, disturbed
        M = hk.regular_module(A)
        check(M, module_validate_oracle, False)
        for a in (u, (u + 1) % n):
            action = M.action.copy()
            action[a, 0, n - 1] = (action[a, 0, n - 1] + 1) % P
            check(hk.FDModule(A, n, action), module_validate_oracle, True)
    assert seen == set(kinds)
    assert hk.FDModule(field_alg(), 0, np.zeros((1, 0, 0), dtype=np.int64)).validate() == []


def test_projective_cover_regular():
    for A in (dual_numbers(), upper_triangular(), matrix2()):
        reg = hk.regular_module(A)
        cd = hk.projective_cover(reg)
        assert cd.module.dim == reg.dim
        assert la.kernel(cd.map, P).dim == 0
        assert is_projective(reg)


def test_projective_cover_of_simple_over_dual_numbers():
    A = dual_numbers()
    k = hk.simples(A)[0]
    cd = hk.projective_cover(k)
    assert cd.module.dim == 2
    assert la.kernel(cd.map, P).dim == 1
    assert not is_projective(k)


def test_cover_kernel_superfluous():
    for A in (dual_numbers(), upper_triangular()):
        for s in hk.simples(A):
            cd = hk.projective_cover(s)
            prad = hk.module_times_ideal(cd.module, hk.radical(A))
            for row in la.kernel(cd.map, P).basis:
                assert prad.contains(row)


def test_injective_envelope_dual_numbers():
    A = dual_numbers()
    k = hk.simples(A)[0]
    cd = hk.injective_envelope(k)
    assert cd.module.dim == 2  # self-injective local algebra
    assert not is_injective(k)
    reg = hk.regular_module(A)
    assert is_injective(reg)


def test_injective_envelope_essential():
    A = upper_triangular()
    for s in hk.simples(A):
        cd = hk.injective_envelope(s)
        img = la.span(cd.map.T, cd.module.dim, P)
        for t in range(cd.module.dim):
            v = la.eye(cd.module.dim)[t]
            gen = la.span([cd.module.act(v, la.eye(A.dim)[a]) for a in range(A.dim)], cd.module.dim, P)
            assert la.intersection(gen, img).dim > 0


def test_injectivity_of_dual_regular():
    for A in (dual_numbers(), upper_triangular(), matrix2()):
        d = hk.dual_module(hk.regular_module(A))
        assert is_injective(d)


def test_projective_injective_duality():
    A = upper_triangular()
    for s in hk.simples(A):
        assert is_projective(s) == is_injective(hk.dual_module(s))


def test_pi_shriek_examples():
    # ordinary algebra: no boundaries, pi! is the identity
    hd = hk.heart_data(P, dual_numbers().mult, dual_numbers().unit, [])
    K = hk.regular_module(hd.r0)
    out, sub = pi_shriek(hd, K)
    assert out.dim == K.dim

    # Koszul degree-zero data: R0 = k[x]/(x^2), B0 = (x)
    hd = hk.heart_data(P, dual_numbers().mult, dual_numbers().unit, [[0, 1]])
    assert hd.h0.dim == 1
    E = hk.regular_module(hd.r0)  # E(k) for the self-injective R0
    out, sub = pi_shriek(hd, E)
    assert out.dim == 1
    assert sub == la.span([[0, 1]], 2, P)
    assert is_injective(out)

    z = hk.zero_module(hd.r0)
    out, _ = pi_shriek(hd, z)
    assert out.dim == 0


def test_pi_shriek_hull_roundtrip():
    # pi!(E_{R0}(J)) == J for injective H0-modules J
    hd = hk.heart_data(P, dual_numbers().mult, dual_numbers().unit, [[0, 1]])
    for J in (hk.regular_module(hd.h0),):
        JR = hk.restrict_to_r0(hd, J)
        env = hk.injective_envelope(JR)
        out, _ = pi_shriek(hd, env.module)
        assert out.dim == J.dim


def test_free_rank_and_basis():
    A = upper_triangular()
    reg = hk.regular_module(A)
    assert hk.free_rank(reg) == 1
    two, _ = hk.direct_sum([reg, reg])
    assert hk.free_rank(two) == 2
    s = hk.simples(A)[0]
    assert hk.free_rank(s) is None
    # projective but not free
    M2 = matrix2()
    simple = hk.simples(M2)[0]
    assert is_projective(simple)
    assert hk.free_rank(simple) is None


def test_unsplit_factor_detected():
    # GF(5)[x]/(x^2 - 2) is a field extension of GF(5): 2 is not a square mod 5
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[1, 1, 0] = 2
    A = hk.OrdinaryAlgebra(5, 2, mult, np.array([1, 0]), label="GF(25)")
    assert A.validate() == []
    with pytest.raises(hk.UnsplitFactorError):
        hk.simples(A)


# ---------------------------------------------------------------------------
# restrict, quotient and pull_back against the per-basis loop forms they
# replaced, kept here as test-only oracles.  Every output must come out
# bit-identical over the battery, triangular(4), product(matrix(2),
# triangular(2)) and the Koszul algebras K2 and K3, and their opposites, on
# the simples, the regular and dual-regular modules and their covers and
# envelopes, over H0 and over R0.


def regular_module_oracle(A):
    action = np.stack([A.right_mult(la.eye(A.dim)[a]) for a in range(A.dim)])
    return hk.FDModule(A, A.dim, action, label=A.label or "A")


def submodule_oracle(M, vectors, label=""):
    p = M.algebra.p
    rows = [la.as_field(v, p) for v in vectors]
    closed = list(rows)
    for v in rows:
        for a in range(M.algebra.dim):
            closed.append(la.matmul(M.action[a], v, p))
    sub = la.span(closed if closed else la.zeros(0, M.dim), M.dim, p)
    incl = sub.basis.T.copy()
    d = sub.dim
    action = np.zeros((M.algebra.dim, d, d), dtype=np.int64)
    for a in range(M.algebra.dim):
        coords = la.solve_many(incl, la.matmul(M.action[a], incl, p), p)
        assert coords is not None
        action[a] = coords
    return hk.FDModule(M.algebra, d, action, label=label), incl


def quotient_module_oracle(M, sub, label=""):
    p = M.algebra.p
    proj, sect = la.quotient_basis(sub)
    q = proj.shape[0]
    action = np.zeros((M.algebra.dim, q, q), dtype=np.int64)
    for a in range(M.algebra.dim):
        action[a] = la.matmul(proj, la.matmul(M.action[a], sect, p), p)
    return hk.FDModule(M.algebra, q, action, label=label), proj


def quotient_algebra_oracle(A, ideal):
    proj, sect = la.quotient_basis(ideal)
    q = proj.shape[0]
    mult = np.zeros((q, q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            mult[a, b] = la.matmul(proj, A.multiply(sect[:, a], sect[:, b]), A.p)
    for row in ideal.basis:
        for a in range(A.dim):
            e = la.eye(A.dim)[a]
            assert not np.any(la.matmul(proj, A.multiply(row, e), A.p))
            assert not np.any(la.matmul(proj, A.multiply(e, row), A.p))
    return mult, la.matmul(proj, A.unit, A.p), proj, sect


def module_on_subspace_oracle(A, S, proj, W, label):
    p = A.p
    action = np.zeros((A.dim, W.dim, W.dim), dtype=np.int64)
    for a in range(A.dim):
        imgs = la.matmul(S.right_mult(la.matmul(proj, la.eye(A.dim)[a], p)), W.basis.T, p)
        action[a] = la.solve_many(W.basis.T, imgs, p)
    return hk.FDModule(A, W.dim, action, label=label)


# The simples by polynomial arithmetic over GF(p), the oracle of hk.simples:
# the minimal polynomial of a random element is split by gcds with
# (x + delta)^((p-1)/2) - 1, and central idempotents are Lagrange products.


def _ptrim(f, p):
    while len(f) > 1 and f[-1] % p == 0:
        f = f[:-1]
    return [c % p for c in f]


def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out, p)


def _pdivmod(f, g, p):
    f = [c % p for c in f]
    g = _ptrim(g, p)
    if g == [0]:
        raise ZeroDivisionError
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(1, len(f) - len(g) + 1)
    r = list(f)
    while len(_ptrim(r, p)) >= len(g) and _ptrim(r, p) != [0]:
        r = _ptrim(r, p)
        k = len(r) - len(g)
        c = (r[-1] * inv) % p
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
    return _ptrim(q, p), _ptrim(r, p)


def _pgcd(f, g, p):
    f, g = _ptrim(f, p), _ptrim(g, p)
    while g != [0]:
        f, g = g, _pdivmod(f, g, p)[1]
    inv = pow(f[-1], p - 2, p)
    return _ptrim([c * inv % p for c in f], p)


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _split_roots(f, p, rng):
    """All roots of a monic polynomial that is squarefree and split over GF(p)."""
    f = _ptrim(f, p)
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]
    deg = len(f) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-f[0]) % p]
    # f | x^p - x  iff  f is squarefree with all roots in GF(p)
    xp = _ppowmod([0, 1], p, f, p)
    xp_minus_x = _ptrim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xp + [0, 0])], p)
    if xp_minus_x != [0]:
        raise hk.UnsplitFactorError("minimal polynomial does not split over GF(p)")
    for _ in range(hk.ROOT_SPLIT_TRIES):
        delta = int(rng.integers(0, p))
        g = _ppowmod([delta, 1], (p - 1) // 2, f, p)
        g = _ptrim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(g + [0])], p)
        if g == [0]:
            continue
        d = _pgcd(g, f, p)
        if 0 < len(d) - 1 < deg:
            q, r = _pdivmod(f, d, p)
            if r != [0]:
                raise RuntimeError("a gcd of f does not divide f; polynomial arithmetic over GF(p) is corrupt")
            return sorted(_split_roots(d, p, rng) + _split_roots(q, p, rng))
    raise hk.UnsplitFactorError("root splitting exceeded the retry budget")


def block_split_oracle(A, S, rng):
    """Central primitive idempotents of the semisimple algebra S."""
    center = hk._center(S)
    queue = [S.unit.copy()]
    finished = []
    while queue:
        u = queue.pop()
        # center of the block uS: central elements z with zu = z
        uZ = [S.multiply(z, u) for z in center]
        basis = la.span(uZ, S.dim, S.p)
        if basis.dim == 1:
            finished.append(u)
            continue
        split = False
        for _ in range(hk.CENTRAL_SPLIT_TRIES):
            coeffs = rng.integers(0, S.p, size=basis.dim)
            z = (coeffs @ basis.basis) % S.p
            # minimal polynomial of z inside the unital block algebra uSu
            f = _minpoly_in_block(S, u, z)
            if len(f) - 1 < 2:
                continue
            roots = _split_roots(f, S.p, rng)
            if len(roots) < 2:
                continue
            for lam in roots:
                # Lagrange idempotent at lam
                e = u.copy()
                denom = 1
                for mu in roots:
                    if mu == lam:
                        continue
                    e = (S.multiply(z, e) - mu * e) % S.p
                    denom = denom * (lam - mu) % S.p
                e = (e * pow(denom % S.p, S.p - 2, S.p)) % S.p
                queue.append(e)
            split = True
            break
        if not split:
            raise hk.UnsplitFactorError("central splitting exceeded the retry budget")
    return finished


def _minpoly_in_block(S, u, z) -> list[int]:
    vecs = [u.copy()]
    w = u.copy()
    while True:
        w = S.multiply(w, z)
        stacked = np.stack(vecs, axis=1)
        sol = la.solve(stacked, w, S.p)
        if sol is not None:
            return [int(-c) % S.p for c in sol] + [1]
        vecs.append(w.copy())


def simple_of_block_oracle(S, u, rng):
    p = S.p
    B = la.span([S.multiply(u, la.eye(S.dim)[a]) for a in range(S.dim)], S.dim, p)
    n = int(round(B.dim ** 0.5))
    if n == 1:
        return la.span([u], S.dim, p), n
    for _ in range(60):
        b = (rng.integers(0, p, size=B.dim) @ B.basis) % p
        f = _minpoly_in_block(S, u, b)
        try:
            roots = _split_roots(f, p, rng)
        except hk.UnsplitFactorError:
            continue
        for lam in roots:
            op = (S.left_mult(b) - lam * la.eye(S.dim)) % p
            coords = la.solve_many(B.basis.T, la.matmul(op, B.basis.T, p), p)
            ker = la.kernel(coords, p)
            if ker.dim == n:
                return la.span([(v @ B.basis) % p for v in ker.basis], S.dim, p), n
    raise AssertionError("simple extraction exceeded the retry budget")


def simple_ideals_oracle(A):
    """The central primitive idempotents u of A/rad in order, and the simple
    right ideal W of each block uS."""
    rng = np.random.default_rng(A.seed)
    S, _, _ = hk.semisimple_quotient(A)
    blocks = sorted(block_split_oracle(A, S, rng), key=lambda u: tuple(int(x) for x in u))
    return blocks, [simple_of_block_oracle(S, u, rng)[0] for u in blocks]


def simples_and_idempotents_oracle(A):
    """The simples and the lifted primitive idempotents, by the loop forms."""
    p = A.p
    S, proj, sect = hk.semisimple_quotient(A)
    blocks, Ws = simple_ideals_oracle(A)
    mods = [module_on_subspace_oracle(A, S, proj, W, label=f"S{i}") for i, W in enumerate(Ws)]
    idems = []
    for u, W in zip(blocks, Ws):
        # e in uS acting on W as the projection onto its first basis vector
        B = la.span([S.multiply(u, la.eye(S.dim)[a]) for a in range(S.dim)], S.dim, p)
        target = la.zeros(W.dim, W.dim)
        target[0, 0] = 1
        cols = []
        for r in range(B.dim):
            imgs = la.matmul(S.right_mult(B.basis[r]), W.basis.T, p)
            cols.append(la.solve_many(W.basis.T, imgs, p).reshape(-1))
        sol = la.solve(np.stack(cols, axis=1), target.reshape(-1), p)
        a = la.matmul(sect, (sol @ B.basis) % p, p)
        for _ in range(64):
            sq = A.multiply(a, a)
            if np.array_equal(sq, a):
                break
            a = (3 * sq - 2 * A.multiply(sq, a)) % p
        idems.append(a)
    return mods, idems


def top_multiplicities_oracle(A, N):
    top, _ = quotient_module_oracle(N, hk.module_times_ideal(N, hk.radical(A)))
    return [la.rank(top.action_of(e), A.p) for e in hk._lift_idempotents(A)]


def build_cover_oracle(N):
    """hk._build_cover with no block skipped: a block absent from the top
    still builds its P_i, both pull-backs and its (zero) generator part."""
    A, p = N.algebra, N.algebra.p
    idems = hk._lift_idempotents(A)
    _, _, sect = hk.semisimple_quotient(A)
    top, proj_top = hk.top_of(N)
    imgs = [la.span(top.action_of(e).T, top.dim, p) for e in idems]
    lifts = la.solve_many(proj_top, np.concatenate([img.basis for img in imgs]).T, p)
    n = max(-(-img.dim // len(V)) for img, V in zip(imgs, hk._matrix_units(A)))
    pieces, maps, start, gens = [], [], 0, la.zeros(N.dim, n)
    for i, (e, img, V) in enumerate(zip(idems, imgs, hk._matrix_units(A))):
        P, incl = hk.projective_indecomposable(A, i)
        vs = la.matmul(N.action_of(e), lifts[:, start : start + img.dim], p)
        images = la.matmul(hk.pull_back(N.action, incl, p), vs, p)
        maps.append(np.transpose(images, (1, 2, 0)).reshape(N.dim, -1))
        pieces += [P] * img.dim
        start += img.dim
        r = len(V)
        padded = np.concatenate([vs, la.zeros(N.dim, n * r - img.dim)], axis=1).reshape(N.dim, n, r)
        gens = (gens + np.einsum("kde,eck->dc", hk.pull_back(N.action, la.matmul(sect, V[0].T, p), p), padded)) % p
    cover, _ = hk.direct_sum(pieces)
    return hk.CoverData(cover, np.concatenate(maps, axis=1) % p, [img.dim for img in imgs], gens)


def free_rank_oracle(N):
    A = N.algebra
    if N.dim == 0:
        return 0
    if N.dim % A.dim:
        return None
    n = N.dim // A.dim
    if not is_projective(N):
        return None
    m_free = top_multiplicities_oracle(A, regular_module_oracle(A))
    m_n = top_multiplicities_oracle(A, N)
    return n if all(mn == n * mf for mn, mf in zip(m_n, m_free)) else None


def restrict_to_r0_oracle(hd, N):
    p = hd.r0.p
    action = np.zeros((hd.r0.dim, N.dim, N.dim), dtype=np.int64)
    for a in range(hd.r0.dim):
        action[a] = N.action_of(la.matmul(hd.project, la.eye(hd.r0.dim)[a], p))
    return hk.FDModule(hd.r0, N.dim, action, label=N.label)


def pi_shriek(hd, K):
    """The H0-module {k in K : k . B0 = 0}, with its subspace inside K.

    For K injective over R0 the result is injective over H0.  B0 acts as
    zero on it, so H0 acts along the section hd.lift.
    """
    p = hd.r0.p
    if K.dim == 0:
        return hk.zero_module(hd.h0), la.span(la.zeros(0, 0), 0, p)
    ann = la.kernel(hk.pull_back(K.action, hd.boundaries.basis.T, p).reshape(-1, K.dim), p)
    action = hk.restrict(hk.pull_back(K.action, hd.lift, p), ann, "pi_shriek")
    return hk.FDModule(hd.h0, ann.dim, action, label=f"pi!({K.label})"), ann


def pi_shriek_oracle(hd, K):
    p = hd.r0.p
    if K.dim == 0:
        return hk.zero_module(hd.h0), la.span(la.zeros(0, 0), 0, p)
    rows = [K.action_of(b) for b in hd.boundaries.basis]
    ann = la.kernel(np.concatenate(rows, axis=0), p) if rows else la.span(la.eye(K.dim), K.dim, p)
    action = np.zeros((hd.h0.dim, ann.dim, ann.dim), dtype=np.int64)
    for a in range(hd.h0.dim):
        imgs = la.matmul(K.action_of(hd.lift[:, a]), ann.basis.T, p)
        action[a] = la.solve_many(ann.basis.T, imgs, p)
    return hk.FDModule(hd.h0, ann.dim, action, label=f"pi!({K.label})"), ann


def heart_embed_oracle(R, N):
    hd = hk.heart_of(R)
    if N.dim == 0:
        return dg.zero_module(R)
    t = np.zeros((N.dim, R.dim(0), N.dim), dtype=np.int64)
    for b in range(R.dim(0)):
        t[:, b, :] = N.action_of(la.matmul(hd.project, la.eye(R.dim(0))[b], R.p)).T
    return dg.DGModule(R, {0: N.dim}, {}, {(0, 0): t}, label=f"heart({N.label})")


def truncate_oracle(M, n, side):
    p = M.p
    R = M.algebra
    Z = la.kernel(M.diff_mat(n), p)
    if side == "below":
        incl = {i: la.eye(M.dim(i)) for i in M.degrees() if i < n}
        dims = {i: M.dim(i) for i in M.degrees() if i < n}
        if Z.dim:
            incl[n] = Z.basis.T.copy()
            dims[n] = Z.dim
        diff = {}
        for i in [d for d in dims if d < n]:
            if i + 1 < n:
                diff[i] = M.diff_mat(i)
            elif i + 1 == n and Z.dim:
                diff[i] = la.solve_many(Z.basis.T, la.matmul(M.diff_mat(i), la.eye(M.dim(i)), p), p)
        act = {}
        for i in dims:
            for j in R.degrees():
                k = i + j
                if dims.get(k, 0) == 0:
                    continue
                t = np.zeros((dims[i], R.dim(j), dims[k]), dtype=np.int64)
                for a in range(dims[i]):
                    for b in range(R.dim(j)):
                        img = M.action(incl[i][:, a], i, la.eye(R.dim(j))[b], j)
                        t[a, b] = la.solve(incl[n], img, p) if k == n else img
                act[(i, j)] = t
        S = dg.DGModule(R, dims, diff, act, label=f"trunc<= {n}({M.label})")
        return S, dg.DGMorphism(S, M, incl)
    proj_n, sect_n = la.quotient_basis(Z)
    q = proj_n.shape[0]
    dims = {i: M.dim(i) for i in M.degrees() if i > n}
    proj = {i: la.eye(M.dim(i)) for i in M.degrees() if i > n}
    diff = {}
    if q:
        dims[n], proj[n] = q, proj_n
        diff[n] = la.matmul(M.diff_mat(n), sect_n, p)
    for i in [d for d in dims if d > n]:
        diff[i] = M.diff_mat(i)
    act = {}
    for i in dims:
        for j in R.degrees():
            k = i + j
            if dims.get(k, 0) == 0:
                continue
            t = np.zeros((dims[i], R.dim(j), dims[k]), dtype=np.int64)
            sect_i = sect_n if i == n else la.eye(M.dim(i))
            for a in range(dims[i]):
                for b in range(R.dim(j)):
                    t[a, b] = la.matmul(proj[k], M.action(sect_i[:, a], i, la.eye(R.dim(j))[b], j), p)
            act[(i, j)] = t
    Q = dg.DGModule(R, dims, diff, act, label=f"trunc> {n}({M.label})")
    return Q, dg.DGMorphism(M, Q, proj)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_module(M, N):
    return (M.algebra, M.dim, M.label) == (N.algebra, N.dim, N.label) and same(M.action, N.action)


def same_subspace(a, b):
    return a.pivots == b.pivots and same(a.basis, b.basis)


def same_blocks(a, b):
    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def same_dg(M, N):
    return (M.dims, M.label) == (N.dims, N.label) and same_blocks(M.diff, N.diff) and same_blocks(M.act, N.act)


# ---------------------------------------------------------------------------
# fixtures for the oracle comparisons


@pytest.fixture(scope="module")
def dg_algebras(algebras, k2):
    specs = ("triangular(4)", "product(matrix(2),triangular(2))", "koszul(x,y,z; k[x,y,z]/(x^2,y^2,z^2))")
    algs = list(algebras.values()) + [k2] + [battery.builtin_algebra(s, P) for s in specs]
    return algs + [R.opposite() for R in algs]


@pytest.fixture(scope="module")
def ordinary(dg_algebras):
    return [A for R in dg_algebras for A in (hk.heart_of(R).h0, hk.heart_of(R).r0)]


def heart_inputs(A):
    """Simples, regular and dual-regular modules, and their covers and envelopes."""
    d = hk.dual_module(hk.regular_module(A.opposite()))
    base = hk.simples(A) + [hk.regular_module(A), hk.FDModule(A, d.dim, d.action, label="D(A)")]
    return base + [hk.projective_cover(N).module for N in base] + [hk.injective_envelope(N).module for N in base]


# ---------------------------------------------------------------------------
# oracle comparisons


def test_regular_module_and_quotient_algebra_match_oracles(dg_algebras, ordinary):
    for A in ordinary:
        assert same_module(hk.regular_module(A), regular_module_oracle(A))
        for ideal in hk.radical_chain(A):
            Q, proj, sect = hk.quotient_algebra(A, ideal)
            mult, unit, proj_o, sect_o = quotient_algebra_oracle(A, ideal)
            assert same(Q.mult, mult) and same(Q.unit, unit) and same(proj, proj_o) and same(sect, sect_o)
    for R in dg_algebras:
        hd = hk.heart_of(R)
        mult, unit, proj, sect = quotient_algebra_oracle(hd.r0, hd.boundaries)
        assert same(hd.h0.mult, mult) and same(hd.h0.unit, unit) and same(hd.project, proj) and same(hd.lift, sect)


def test_simples_and_idempotents_match_oracle(ordinary):
    for A in ordinary:
        mods, idems = simples_and_idempotents_oracle(A)
        sims = hk.simples(A)
        assert len(sims) == len(mods) and all(same_module(s, m) for s, m in zip(sims, mods))
        lifted = hk._lift_idempotents(A)
        assert len(lifted) == len(idems) and all(same(e, f) for e, f in zip(lifted, idems))


SWEEP_SPECS = (
    "field()", "nilpotent(2)", "nilpotent(3)", "triangular(2)", "triangular(3)", "matrix(2)", "matrix(3)",
    "product(field(),field())", "product(matrix(2),triangular(2))", "product(matrix(2),matrix(2))",
    "product(matrix(3),product(field(),matrix(2)))", "koszul(x; k[x]/(x^2))", "koszul(x,y; k[x,y]/(x^2,y^2))",
)
SWEEP_PRIMES = (7, 11, 13, 101, 32003, 1000003)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_simples_and_idempotents_match_oracle_over_primes_and_seeds(spec, monkeypatch):
    # the smallest prime of the sweep at which the spec builds (p > dim R^0)
    # and the largest; seeds 0-3; R and R^op; H0 and R0.  The simple right
    # ideals W are compared too, since the simple read off W = eS is the
    # same for almost every rank-one idempotent e of a matrix block
    simple_of_block, ideals = hk._simple_of_block, []

    def recorded(*args):
        ideals.append(simple_of_block(*args))
        return ideals[-1]

    monkeypatch.setattr(hk, "_simple_of_block", recorded)
    n0 = battery.builtin_algebra(spec, P).dim(0)
    for p in (min(q for q in SWEEP_PRIMES if q > n0), SWEEP_PRIMES[-1]):
        for seed in range(4):
            R = battery.builtin_algebra(spec, p, seed)
            heart = [A for X in (R, R.opposite()) for A in (hk.heart_of(X).h0, hk.heart_of(X).r0)]
            for A in {id(A): A for A in heart}.values():
                ideals.clear()
                sims = hk.simples(A)
                Ws = simple_ideals_oracle(A)[1]
                assert len(ideals) == len(Ws) and all(same_subspace(W, w) for (_, W, _), w in zip(ideals, Ws))
                mods, idems = simples_and_idempotents_oracle(A)
                assert len(sims) == len(mods) and all(same_module(s, m) for s, m in zip(sims, mods))
                lifted = hk._lift_idempotents(A)
                assert len(lifted) == len(idems) and all(same(e, f) for e, f in zip(lifted, idems))


def test_unsplit_central_factor_raises_like_the_oracle():
    # GF(5) x GF(25), basis 1_5, 1_25, t with t^2 = 2: a central element
    # with a nonzero t-part has eigenvalues outside GF(5)
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = mult[1, 1, 1] = mult[1, 2, 2] = mult[2, 1, 2] = 1
    mult[2, 2, 1] = 2
    A = hk.OrdinaryAlgebra(5, 3, mult, np.array([1, 1, 0]), label="GF(5) x GF(25)")
    assert A.validate() == []
    S, _, _ = hk.semisimple_quotient(A)
    assert S.dim == 3
    for seed in range(8):
        for split in (hk._block_split, block_split_oracle):
            with pytest.raises(hk.UnsplitFactorError):
                split(A, S, np.random.default_rng(seed))
    with pytest.raises(hk.UnsplitFactorError):
        hk.simples(A)


def first_b_unsplit_seed():
    """A seed at which the first b drawn in matrix(2) has an irreducible
    characteristic polynomial: its discriminant is not a square mod P.
    The central split of M_2(k) draws nothing, so b is the first draw."""
    for seed in range(64):
        (a, b), (c, d) = np.random.default_rng(seed).integers(0, P, size=4).reshape(2, 2).tolist()
        if pow(((a + d) ** 2 - 4 * (a * d - b * c)) % P, (P - 1) // 2, P) == P - 1:
            return seed
    raise AssertionError("no seed below 64 draws an unsplit b")


def test_unsplit_b_is_skipped(monkeypatch):
    seed = first_b_unsplit_seed()
    S, _, _ = hk.semisimple_quotient(hk.heart_of(battery.builtin_algebra("matrix(2)", P, seed)).h0)
    results = []
    eigen = hk._eigen_idempotents

    def recorded(*args):
        results.append(eigen(*args))
        return results[-1]

    monkeypatch.setattr(hk, "_eigen_idempotents", recorded)
    _, W, n = hk._simple_of_block(S, S.unit, np.random.default_rng(seed))
    assert n == 2 and results[0] is None and len(results) > 1
    assert same_subspace(W, simple_of_block_oracle(S, S.unit, np.random.default_rng(seed))[0])


def test_simple_extraction_budget(monkeypatch):
    monkeypatch.setattr(hk, "SIMPLE_EXTRACT_TRIES", 1)
    A = hk.heart_of(battery.builtin_algebra("matrix(2)", P, first_b_unsplit_seed())).h0
    with pytest.raises(hk.UnsplitFactorError, match="simple extraction exceeded the retry budget"):
        hk.simples(A)


def test_submodules_quotients_and_freeness_match_oracles(ordinary):
    rng = np.random.default_rng(7)
    for A in ordinary:
        rad = hk.radical(A)
        for N in heart_inputs(A):
            assert hk.free_rank(N) == free_rank_oracle(N)
            if N.dim == 0:
                continue
            assert hk.projective_cover(N).multiplicities == top_multiplicities_oracle(A, N)
            for vectors in (rng.integers(0, P, size=(2, N.dim)), [la.eye(N.dim)[0]]):
                sub, incl = hk.submodule(N, list(vectors), label="s")
                sub_o, incl_o = submodule_oracle(N, list(vectors), label="s")
                assert same_module(sub, sub_o) and same(incl, incl_o)
                gen = la.span(incl.T, N.dim, P)
                q, proj = hk.quotient_module(N, gen, label="q")
                q_o, proj_o = quotient_module_oracle(N, gen, label="q")
                assert same_module(q, q_o) and same(proj, proj_o)
            nrad = hk.module_times_ideal(N, rad)
            sub, incl = hk.subspace_module(N, nrad, label="r")
            sub_o, incl_o = submodule_oracle(N, list(nrad.basis), label="r")
            assert same_module(sub, sub_o) and same(incl, incl_o)
            q, proj = hk.quotient_module(N, nrad, label="t")
            q_o, proj_o = quotient_module_oracle(N, nrad, label="t")
            assert same_module(q, q_o) and same(proj, proj_o)


def test_cover_generators_are_the_fewest_that_generate(ordinary):
    # n = max ceil(m_i / dim S_i) columns that span N as a module; sums of
    # r + 1 copies of a simple of dim r need a second, partly empty generator
    matrix3 = hk.heart_of(battery.builtin_algebra("matrix(3)", P)).h0
    checked = 0
    for A in {id(A): A for A in ordinary + [matrix2(), matrix3]}.values():
        sims = hk.simples(A)
        extra = [hk.direct_sum([S] * (S.dim + 1))[0] for S in sims]
        for N in heart_inputs(A) + extra:
            gens = hk.projective_cover(N).generators
            fewest = max(-(-m // S.dim) for m, S in zip(top_multiplicities_oracle(A, N), sims))
            assert gens.shape == (N.dim, fewest)
            assert hk.submodule(N, list(gens.T))[0].dim == N.dim
            assert hk.free_rank(N) == free_rank_oracle(N)
            checked += 1
    assert checked == 242


def test_covers_skip_blocks_absent_from_the_top_like_the_full_loop(dg_algebras):
    checked = skipped = 0
    for R in dg_algebras:
        for N in dv.heart_battery(R):
            for X in (N, hk.dual_module(N)):
                got, want = hk._build_cover(X), build_cover_oracle(X)
                assert got.module.dim == want.module.dim and same(got.module.action, want.module.action)
                assert same(got.map, want.map) and same(got.generators, want.generators)
                assert got.multiplicities == want.multiplicities
                checked += 1
                skipped += 0 in want.multiplicities
    assert (checked, skipped) == (132, 70)  # 70 covers have a block absent from the top


def test_restrict_to_r0_and_pi_shriek_match_oracles(dg_algebras):
    for R in dg_algebras:
        hd = hk.heart_of(R)
        for N in heart_inputs(hd.h0):
            NR = hk.restrict_to_r0(hd, N)
            assert same_module(NR, restrict_to_r0_oracle(hd, N))
            E = hk.injective_envelope(NR).module
            for K in (E, NR):
                (pi, sub), (pi_o, sub_o) = pi_shriek(hd, K), pi_shriek_oracle(hd, K)
                assert same_module(pi, pi_o) and same_subspace(sub, sub_o)
        for K in heart_inputs(hd.r0):
            (pi, sub), (pi_o, sub_o) = pi_shriek(hd, K), pi_shriek_oracle(hd, K)
            assert same_module(pi, pi_o) and same_subspace(sub, sub_o)


def test_truncate_and_heart_embed_match_oracles(dg_algebras):
    for R in dg_algebras:
        hd = hk.heart_of(R)
        for N in heart_inputs(hd.h0):
            assert same_dg(dg.heart_embed(R, N), heart_embed_oracle(R, N))
        mods = [R.regular_module()] + [battery.heart_simple(R, i) for i in range(len(hk.simples(hd.h0)))]
        if R.total_dim < 64:  # m_of(K3, 1) would take most of the test's time
            mods.append(battery.m_of(R, 1))
        for M in mods:
            for n in range(min(R.degrees()) - 1, 2):
                for side in ("below", "above"):
                    (T, f), (T_o, f_o) = dg.truncate(M, n, side), truncate_oracle(M, n, side)
                    assert same_dg(T, T_o) and same_blocks(f.blocks, f_o.blocks)


def test_unstable_subspace_raises():
    # the span of 1 in k[x]/(x^2) is not stable: 1 . x = x
    A = dual_numbers()
    reg = hk.regular_module(A)
    line = la.span([[1, 0]], 2, P)
    with pytest.raises(RuntimeError, match="subspace_module"):
        hk.subspace_module(reg, line)
    with pytest.raises(RuntimeError, match="quotient_algebra"):
        hk.quotient_algebra(A, line)
    # E12 spans a two-sided ideal of T2, E11 only a left one
    T = upper_triangular()
    assert hk.quotient_algebra(T, la.span([[0, 1, 0]], 3, P))[0].dim == 2
    with pytest.raises(RuntimeError, match="quotient_algebra"):
        hk.quotient_algebra(T, la.span([[1, 0, 0]], 3, P))


# ---------------------------------------------------------------------------
# guards: one projective cover per heart module, no elimination on a
# subspace's own basis


def test_membership_and_sppj_step_build_one_cover_per_heart_module(dg_algebras, monkeypatch):
    cover = hk.projective_cover
    seen = {}

    def counted(N):
        seen.setdefault(id(N), [N, 0])[1] += 1  # holds N, so no id is reused
        return cover(N)

    monkeypatch.setattr(hk, "projective_cover", counted)
    calls = 0
    for R in dg_algebras[:8]:
        mods = [R.regular_module(), battery.m_of(R, 1)] + [
            battery.heart_simple(R, i) for i in range(len(hk.simples(hk.heart_of(R).h0)))
        ]
        for M in mods:
            coh = dg.cohomology(M)
            for step in (rv.membership_P, rv.sppj_step):
                seen.clear()
                step(M, coh=coh)
                calls += len(seen)
                assert all(n <= 1 for _, n in seen.values()), step.__name__
    assert calls


def test_restrictions_make_no_elimination(dg_algebras, monkeypatch):
    R = dg_algebras[-1]  # K3^op
    hd = hk.heart_of(R)
    reg = hk.regular_module(hd.r0)
    e = hk._lift_idempotents(hd.r0)[0]
    K = hk.injective_envelope(hk.restrict_to_r0(hd, hk.simples(hd.h0)[0])).module
    M = R.regular_module()
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("elimination on a subspace's own basis")

    monkeypatch.setattr(la, "solve", forbidden)
    monkeypatch.setattr(la, "solve_many", forbidden)
    hk.submodule(reg, [e])
    pi_shriek(hd, K)
    for n in range(min(R.degrees()) - 1, 2):
        dg.truncate(M, n, "below")
        dg.truncate(M, n, "above")
    assert calls == []

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import exactla as la

P = 101
PRIMES = (5, 101, 32003)


def rref_oracle(m, p):
    """Dense reference RREF: every pivot sweeps every row and column."""
    m = la.as_field(m, p).copy()
    rows, cols = m.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for k in range(r, rows):
            if m[k, c]:
                pr = k
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def kernel_oracle(m, p):
    """Two eliminations: the vectors at the free columns of rref(m), then
    their RREF.  Returns (basis, pivots)."""
    m = la.as_field(m, p)
    cols = m.shape[1]
    rr, piv = rref_oracle(m, p)
    free = [c for c in range(cols) if c not in piv]
    basis = la.zeros(len(free), cols)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = (-rr[: len(piv), free].T) % p
    rr, piv = rref_oracle(basis, p)
    return rr[: len(piv)], piv


def solve_many_oracle(m, rhs, p):
    """Column by column, one elimination of [m | b] per column."""
    m, rhs = la.as_field(m, p), la.as_field(rhs, p)
    n = m.shape[1]
    x = la.zeros(n, rhs.shape[1])
    for j in range(rhs.shape[1]):
        rr, piv = rref_oracle(np.concatenate([m, rhs[:, j : j + 1]], axis=1), p)
        if n in piv:
            return None
        x[piv, j] = rr[: len(piv), -1]
    return x


@st.composite
def sparse_mats(draw):
    """Sparse matrices with zero rows and columns and dependent rows, up to
    40 x 60, over one of PRIMES."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.02, 0.1, 0.4, 1.0)))
    m = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    if draw(st.booleans()) and rows and cols:
        # low rank: rows are combinations of a few sparse rows
        k = int(rng.integers(1, min(rows, cols) + 1))
        m = (rng.integers(0, p, size=(rows, k)) * (rng.random((rows, k)) < 0.5)) @ m[:k] % p
    m[rng.random(rows) < 0.2] = 0
    m[:, rng.random(cols) < 0.2] = 0
    return m.astype(np.int64), p


def test_rref_identity():
    rr, piv = la.rref(np.eye(2, dtype=np.int64), P)
    assert np.array_equal(rr, np.eye(2, dtype=np.int64))
    assert piv == [0, 1]


def test_rref_zero():
    rr, piv = la.rref(la.zeros(3, 3), P)
    assert not np.any(rr)
    assert piv == []


def test_rref_rank_one_gf5():
    rr, piv = la.rref([[1, 2], [2, 4]], 5)
    assert np.array_equal(rr, np.array([[1, 2], [0, 0]]))
    assert piv == [0]


def test_kernel_identity_and_zero():
    assert la.kernel(np.eye(4, dtype=np.int64), P).dim == 0
    full = la.kernel(la.zeros(3, 3), P)
    assert full.dim == 3
    assert np.array_equal(full.basis, np.eye(3, dtype=np.int64))


def test_kernel_gf5_hand_example():
    ker = la.kernel([[1, 2], [2, 4]], 5)
    # solved by hand: spanned by (-2, 1)
    assert ker == la.span([[-2, 1]], 2, 5)


def test_solve_hand_examples():
    assert np.array_equal(la.solve(np.eye(3, dtype=np.int64), [5, 6, 7], P), [5, 6, 7])
    assert la.solve(la.zeros(2, 2), [1, 0], P) is None
    x = la.solve([[1, 1], [0, 1]], [3, 1], 7)
    assert np.array_equal(x, [2, 1])


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        la.solve(la.zeros(2, 3), [1, 2, 3], P)


def test_quotient_of_zero_subspace():
    sub = la.span(la.zeros(0, 2), 2, P)
    proj, sect = la.quotient_basis(sub)
    assert np.array_equal(proj, np.eye(2, dtype=np.int64))
    assert np.array_equal(la.matmul(proj, sect, P), np.eye(2, dtype=np.int64))


def test_quotient_of_full_subspace():
    sub = la.span(np.eye(2, dtype=np.int64), 2, P)
    proj, sect = la.quotient_basis(sub)
    assert proj.shape == (0, 2)
    assert sect.shape == (2, 0)


def test_quotient_of_line():
    sub = la.span([[1, 0]], 2, P)
    proj, sect = la.quotient_basis(sub)
    assert proj.shape == (1, 2)
    assert proj[0, 1] == 1
    assert np.array_equal(la.matmul(proj, sect, P), np.eye(1, dtype=np.int64))
    assert la.kernel(proj, P) == sub


small_mats = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, P - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rank_nullity(rows):
    m = np.array(rows, dtype=np.int64)
    assert la.rank(m, P) + la.kernel(m, P).dim == m.shape[1]


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rref_idempotent(rows):
    m = np.array(rows, dtype=np.int64)
    rr, piv = la.rref(m, P)
    rr2, piv2 = la.rref(rr, P)
    assert np.array_equal(rr, rr2)
    assert piv == piv2


@settings(max_examples=60, deadline=None)
@given(small_mats, st.lists(st.integers(0, P - 1), min_size=1, max_size=5))
def test_solve_exactness(rows, xs):
    m = np.array(rows, dtype=np.int64)
    x = np.array(xs[: m.shape[1]] + [0] * max(0, m.shape[1] - len(xs)), dtype=np.int64)
    b = la.matmul(m, x, P)
    sol = la.solve(m, b, P)
    assert sol is not None
    assert np.array_equal(la.matmul(m, sol, P), b)


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_quotient_rank_and_kernel(rows):
    m = np.array(rows, dtype=np.int64)
    sub = la.span(m, m.shape[1], P)
    proj, sect = la.quotient_basis(sub)
    assert la.rank(proj, P) == sub.ambient_dim - sub.dim
    assert la.kernel(proj, P) == sub
    q = proj.shape[0]
    assert np.array_equal(la.matmul(proj, sect, P), np.eye(q, dtype=np.int64))


def test_kernel_basis_is_canonical():
    # two generating sets of the same kernel give identical Subspace values
    m = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    k1 = la.kernel(m, 7)
    k2 = la.span([v for v in k1.basis[::-1]], 3, 7)
    assert k1 == k2


def test_intersection():
    a = la.span([[1, 0, 0], [0, 1, 0]], 3, P)
    b = la.span([[0, 1, 0], [0, 0, 1]], 3, P)
    assert la.intersection(a, b) == la.span([[0, 1, 0]], 3, P)


@settings(max_examples=150, deadline=None)
@given(sparse_mats())
def test_rref_matches_dense_oracle(mp):
    m, p = mp
    rr, piv = la.rref(m, p)
    want, want_piv = rref_oracle(m, p)
    assert np.array_equal(rr, want)
    assert piv == want_piv
    assert np.array_equal(m, la.as_field(m, p))  # the input is left alone


def _first_nonzero(row):
    return int(np.flatnonzero(row)[0])


@settings(max_examples=100, deadline=None)
@given(sparse_mats(), st.integers(0, 2**32 - 1))
def test_span_pivots_and_coordinates(mp, seed):
    m, p = mp
    n = m.shape[1]
    sub = la.span(m, n, p)
    assert sub.pivots == [_first_nonzero(row) for row in sub.basis]
    if n == 0:
        return
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, p, size=sub.dim)
    member = la.as_field(coeffs @ sub.basis, p)
    assert np.array_equal(sub.coordinates(member), coeffs)
    assert sub.contains(member)
    free = [c for c in range(n) if c not in sub.pivots]
    if free:
        outside = member.copy()
        outside[free[int(rng.integers(len(free)))]] += 1
        assert sub.coordinates(outside) is None
        assert not sub.contains(outside)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if la.is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert la.is_prime(32003) and not la.is_prime(32004) and not la.is_prime(9)
    assert la.is_prime(2**61 - 1) and not la.is_prime(2**61 + 1)
    # strong pseudoprimes to the first bases
    assert not la.is_prime(3215031751) and not la.is_prime(3825123056546413051)


@settings(max_examples=150, deadline=None)
@given(sparse_mats())
def test_kernel_matches_two_elimination_oracle(mp):
    m, p = mp
    ker = la.kernel(m, p)
    basis, piv = kernel_oracle(m, p)
    assert ker.basis.shape == basis.shape and np.array_equal(ker.basis, basis)
    assert ker.pivots == piv and all(type(c) is int for c in ker.pivots)
    assert ker.ambient_dim == m.shape[1]
    assert not la.matmul(m, ker.basis.T, p).any()


@settings(max_examples=150, deadline=None)
@given(sparse_mats(), st.integers(0, 4), st.sampled_from(("consistent", "inconsistent", "random")),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_solve_many_matches_per_column_oracle(mp, k, kind, no_rows, seed):
    m, p = mp
    if no_rows:
        m = m[:0]
    rng = np.random.default_rng(seed)
    rows, n = m.shape
    if kind == "random":
        rhs = rng.integers(0, p, (rows, k))
    else:
        rhs = la.matmul(m, rng.integers(0, p, (n, k)), p)
        if kind == "inconsistent" and rows and k:
            rhs[int(rng.integers(rows)), int(rng.integers(k))] += int(rng.integers(1, p))
    got, want = la.solve_many(m, rhs, p), solve_many_oracle(m, rhs, p)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.shape == want.shape == (n, k) and np.array_equal(got, want)
        assert np.array_equal(la.matmul(m, got, p), la.as_field(rhs, p))
    if kind == "consistent":
        assert got is not None


def test_solve_many_edge_shapes():
    m = np.array([[1, 2, 0], [0, 0, 1]], dtype=np.int64)
    assert la.solve_many(m, la.zeros(2, 0), P).shape == (3, 0)
    assert np.array_equal(la.solve_many(la.zeros(0, 3), la.zeros(0, 2), P), la.zeros(3, 2))
    # the second column is inconsistent: the whole system has no solution
    assert la.solve_many([[1, 1], [1, 1]], [[2, 1], [2, 2]], 7) is None
    assert np.array_equal(la.solve_many([[1, 1], [1, 1]], [[2, 1], [2, 1]], 7), [[2, 1], [0, 0]])
    with pytest.raises(ValueError):
        la.solve_many(m, la.zeros(3, 1), P)


def _near_rref(rr, piv, mutant, rng, p):
    """A copy of rr, with pivots piv, that the named change takes out of RREF,
    or None when rr has no room for that change."""
    r, x = len(piv), rr.copy()
    if r == 0:
        return None
    i = int(rng.integers(r))
    if mutant == "leading entry not 1":
        x[i] = x[i] * int(rng.integers(2, p)) % p
    elif mutant == "second nonzero in a pivot column":
        if x.shape[0] == 1:
            return None
        k = int(rng.choice([k for k in range(x.shape[0]) if k != i]))
        x[k, piv[i]] = int(rng.integers(1, p))
    elif mutant == "zero row in the middle":
        x = np.insert(x[:r], i, 0, axis=0)
    elif mutant == "rows out of order":
        if r == 1:
            return None
        k = int(rng.choice([k for k in range(r) if k != i]))
        x[[i, k]] = x[[k, i]]
    elif mutant == "equal leading columns":
        y = x[i].copy()
        y[piv[i] + 1 :] = rng.integers(0, p, y.size - piv[i] - 1)
        x = np.insert(x, i + 1, y, axis=0)
    return x


@settings(max_examples=200, deadline=None)
@given(sparse_mats(), st.sampled_from(("leading entry not 1", "second nonzero in a pivot column",
                                       "zero row in the middle", "rows out of order", "equal leading columns")),
       st.integers(0, 2**32 - 1))
def test_rref_of_rref_input_and_of_near_rref_mutants(mp, mutant, seed):
    m, p = mp
    rr, piv = rref_oracle(m, p)
    got, got_piv = la.rref(rr, p)
    assert np.array_equal(got, rr) and got_piv == piv  # RREF input comes back as it is
    x = _near_rref(rr, piv, mutant, np.random.default_rng(seed), p)
    if x is None:
        return
    want, want_piv = rref_oracle(x, p)
    assert not np.array_equal(want, x)  # the mutant is not in RREF
    got, got_piv = la.rref(x, p)
    assert np.array_equal(got, want) and got_piv == want_piv


P_MAX = 3_037_000_493  # the largest prime with p^2 < 2^63, the largest p a DGAlgebra accepts


def rref_int_oracle(rows, cols, p):
    """RREF of a list of rows of Python ints, with every product exact."""
    m = [[int(v) % p for v in row] for row in rows]
    r, pivots = 0, []
    for c in range(cols):
        k = next((k for k in range(r, len(m)) if m[k][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(a - f * b) % p for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _int_array(rows, cols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols)


@st.composite
def mats_at_p_max(draw):
    """Matrices over GF(P_MAX) as lists of Python ints: random with many
    entries -1, low rank, monomial (one nonzero per column), in RREF, and
    near-RREF mutants."""
    p = P_MAX
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 14))
    kind = draw(st.sampled_from(("random", "low rank", "monomial", "rref", "near rref")))

    def entry():
        return int(rng.choice([1, p - 1, int(rng.integers(1, p))])) if rng.random() < 0.4 else 0

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "low rank" and rows:
        base = m[: max(1, rows // 3)]
        coeffs = [[int(rng.integers(0, p)) for _ in base] for _ in range(rows)]
        m = [[sum(c * b[j] for c, b in zip(cs, base)) % p for j in range(cols)] for cs in coeffs]
    elif kind == "monomial":
        m = [[0] * cols for _ in range(rows)]
        for j in range(cols if rows else 0):
            m[int(rng.integers(rows))][j] = int(rng.integers(1, p))
    elif kind in ("rref", "near rref"):
        m, piv = rref_int_oracle(m, cols, p)
        if kind == "near rref":
            mutant = draw(st.sampled_from(("leading entry not 1", "second nonzero in a pivot column",
                                           "zero row in the middle", "rows out of order", "equal leading columns")))
            x = _near_rref(_int_array(m, cols), piv, mutant, rng, p)
            m = m if x is None else x.tolist()
    return m, cols


def test_p_max_is_the_largest_prime_the_entry_check_accepts():
    assert la.is_prime(P_MAX) and P_MAX**2 < 2**63
    assert not any(la.is_prime(q) for q in range(P_MAX + 1, math.isqrt(2**63 - 1) + 1))


@settings(max_examples=150, deadline=None)
@given(mats_at_p_max(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_elimination_is_exact_at_the_largest_accepted_prime(mc, k, seed):
    rows, cols = mc
    p, m = P_MAX, _int_array(rows, cols)
    rr, piv = rref_int_oracle(rows, cols, p)
    got, got_piv = la.rref(m, p)
    assert np.array_equal(got, _int_array(rr, cols)) and got_piv == piv
    assert la.rank(m, p) == len(piv)
    sub = la.span(m, cols, p)
    assert np.array_equal(sub.basis, _int_array(rr[: len(piv)], cols)) and sub.pivots == piv
    # the kernel's canonical basis: a vector per free column, then their RREF
    free = [c for c in range(cols) if c not in piv]
    vecs = [[int(c == f) for c in range(cols)] for f in free]
    for v, f in zip(vecs, free):
        for i, c in enumerate(piv):
            v[c] = -rr[i][f] % p
    ker_rr, ker_piv = rref_int_oracle(vecs, cols, p)
    ker = la.kernel(m, p)
    assert np.array_equal(ker.basis, _int_array(ker_rr, cols)) and ker.pivots == ker_piv
    # solve_many against one exact elimination of [m | b] per column, with
    # some columns in the image of m
    rng = np.random.default_rng(seed)
    rhs = [[int(rng.integers(0, p)) for _ in range(k)] for _ in rows]
    for j in range(0, k, 2):
        x = [int(rng.integers(0, p)) for _ in range(cols)]
        for i, row in enumerate(rows):
            rhs[i][j] = sum(a * b for a, b in zip(row, x)) % p
    want = np.zeros((cols, k), dtype=np.int64)
    for j in range(k):
        aug_rr, aug_piv = rref_int_oracle([row + [b[j]] for row, b in zip(rows, rhs)], cols + 1, p)
        if cols in aug_piv:
            want = None
            break
        for i, c in enumerate(aug_piv):
            want[c, j] = aug_rr[i][cols]
    got = la.solve_many(m, _int_array(rhs, k), p)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# products at large p: matmul and contract reduce after each chunk of
# products that an int64 sum holds, one product at P_MAX and five at P_MID

P_MID = 1_358_000_087  # a prime whose chunk is five products


def test_chunks_at_the_test_primes():
    assert [la._chunk(p) for p in (P_MAX, P_MID, 32003, 2)] == [1, 5, 9_006_073_460, 2**63 - 1]


def _entries(draw, shape, p):
    """Python ints, each 0, 1, p - 1 or uniform below p."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(0, 4, size=shape)
    return np.where(pick == 0, 0, np.where(pick == 1, 1, np.where(pick == 2, p - 1, rng.integers(0, p, size=shape))))


def contract_int_oracle(spec, a, b, p):
    """np.einsum(spec, a, b) mod p by a loop over every index, in Python ints."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    size = dict(zip(sa, a.shape)) | dict(zip(sb, b.shape))
    letters = list(dict.fromkeys(sa + sb))
    got = {}
    for idx in itertools.product(*(range(size[c]) for c in letters)):
        at = dict(zip(letters, idx))
        key = tuple(at[c] for c in out)
        got[key] = got.get(key, 0) + int(a[tuple(at[c] for c in sa)]) * int(b[tuple(at[c] for c in sb)])
    want = np.zeros(tuple(size[c] for c in out), dtype=np.int64)
    for key, v in got.items():
        want[key] = v % p
    return want


MATMUL_SHAPES = {  # the spec of each kind of product, and its operands' shapes for (m, k, n)
    "matrix": ("mk,kn->mn", lambda m, k, n: ((m, k), (k, n))),
    "row": ("k,kn->n", lambda m, k, n: ((k,), (k, n))),
    "column": ("mk,k->m", lambda m, k, n: ((m, k), (k,))),
    "stack": ("smk,kn->smn", lambda m, k, n: ((2, m, k), (k, n))),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((P_MAX, P_MID)), st.integers(0, 20), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(sorted(MATMUL_SHAPES)))
def test_matmul_is_exact_at_large_p(data, p, k, m, n, kind):
    spec, shapes = MATMUL_SHAPES[kind]
    a_shape, b_shape = shapes(m, k, n)
    a, b = _entries(data.draw, a_shape, p), _entries(data.draw, b_shape, p)
    assert np.array_equal(la.matmul(a, b, p), contract_int_oracle(spec, a, b, p))


CONTRACT_SPECS = (
    "ab,bc->ac",  # a matrix product
    "a,abc->cb",  # a left multiplication matrix
    "abx,xcy->abcy",  # associativity, one summed letter
    "xby,b->yx",  # a twist block
    "abc,abd->cd",  # two summed letters
    "jbc,bc->j",  # a trace against the identity
    "ab,axy->bxy",  # a pull-back
    "STU,uvw->SuTvUw",  # an outer product, nothing summed
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from((P_MAX, P_MID)), st.sampled_from(CONTRACT_SPECS))
def test_contract_is_exact_at_large_p(data, p, spec):
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    # summed letters up to 20, the others small enough to keep the oracle quick
    size = {c: data.draw(st.integers(0, 20 if c not in out else 3)) for c in dict.fromkeys(sa + sb)}
    a = _entries(data.draw, tuple(size[c] for c in sa), p)
    b = _entries(data.draw, tuple(size[c] for c in sb), p)
    got = la.contract(spec, a, b, p)
    assert got.dtype == np.int64 and np.array_equal(got, contract_int_oracle(spec, a, b, p))


def test_contract_accepts_entries_above_minus_p():
    # the sign of -1 survives the reduction, as np.einsum(...) % p gives it
    a = np.array([[-1, P_MAX - 1]], dtype=np.int64)
    b = np.array([[P_MAX - 1], [-1]], dtype=np.int64)
    assert la.contract("ab,bc->ac", a, b, P_MAX).tolist() == [[(-(P_MAX - 1) - (P_MAX - 1)) % P_MAX]]


def test_coordinates_of_a_member_at_p_max():
    # the member (p - 1) row0 + (p - 1) row1 = (p - 1, p - 1, 2): its check
    # adds 2 (p - 1)^2, which overflows one int64 sum
    p = P_MAX
    sub = la.span([[1, 0, p - 1], [0, 1, p - 1]], 3, p)
    v = np.array([p - 1, p - 1, 2], dtype=np.int64)
    assert sub.contains(v) and sub.coordinates(v).tolist() == [p - 1, p - 1]
    assert sub.coordinates(np.stack([v, [1, 0, p - 1]])).tolist() == [[p - 1, p - 1], [1, 0]]
    assert sub.coordinates(np.stack([v, [1, 0, 0]])) is None
    sp = la.MapSpace(p, 1, 3, sub.basis, sub.pivots)
    assert sp.coords(v.reshape(1, 3)).tolist() == [p - 1, p - 1]
    assert sp.coords(np.stack([v, v]).reshape(2, 1, 3)).tolist() == [[p - 1, p - 1]] * 2
    with pytest.raises(ValueError, match="outside the space"):
        sp.coords(np.array([[1, 0, 0]]))
    # and an intersection whose members are read through such sums
    assert la.intersection(sub, la.span([v], 3, p)) == la.span([v], 3, p)

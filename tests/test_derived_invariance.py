"""The paper's derived invariance of global dimension, checked on algebras
with different R^0.

R ⊗ B' is quasi-isomorphic to R, B' = k<1, t> ⊕ k u with |u| = -1, du = t
and every product of t and u zero, since H(B') = k; its R^0 is
R^0 ⊗ k[t]/(t^2), not R^0.  R ⊗ M_2(k) is Morita equivalent to R, and its
H0 has a 2 x 2 matrix block.  Either way gldim must not change.  A
product A x B splits every module into its A and B parts, so its gldim is
the larger of the two.
"""

import numpy as np
import pytest

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import resolve as rv

P = 32003
CAP = 4
SPECS = ("field()", "nilpotent(2)", "triangular(2)")
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"
PRODUCTS = (
    ("field()", "nilpotent(2)"),
    ("triangular(2)", "matrix(2)"),
    ("nilpotent(2)", "triangular(2)"),
    ("triangular(2)", K2_SPEC),
    ("koszul(x; k[x]/(x^2))", "triangular(2)"),
)


def tensor_dga(A, B):
    """A ⊗ B with (a⊗b)(a'⊗b') = (-1)^{|b||a'|} aa'⊗bb' and
    d = d⊗1 + (-1)^{|a|} 1⊗d.

    Degree n has the blocks A^i ⊗ B^{n-i}, i ascending, and a⊗b at
    a * dim B^{n-i} + b within its block.
    """
    p = A.p
    pieces = {}  # degree -> [(i, j, offset)]
    for i in A.degrees():
        for j in B.degrees():
            n = i + j
            at = sum(A.dim(i2) * B.dim(j2) for i2, j2, _ in pieces.get(n, []))
            pieces.setdefault(n, []).append((i, j, at))
    dims = {n: sum(A.dim(i) * B.dim(j) for i, j, _ in ps) for n, ps in pieces.items()}
    where = {(i, j): at for ps in pieces.values() for i, j, at in ps}
    mult = {(n, m): np.zeros((dims[n], dims[m], dims[n + m]), dtype=np.int64)
            for n in dims for m in dims if n + m in dims}
    for (n, m), t in mult.items():
        for i, j, at in pieces[n]:
            for i2, j2, at2 in pieces[m]:
                if (i + i2, j + j2) not in where:
                    continue
                sign = -1 if j * i2 % 2 else 1
                block = sign * np.einsum("acx,bdy->abcdxy", A.mult_tensor(i, i2), B.mult_tensor(j, j2))
                rows, cols = A.dim(i) * B.dim(j), A.dim(i2) * B.dim(j2)
                out = A.dim(i + i2) * B.dim(j + j2)
                to = where[(i + i2, j + j2)]
                t[at : at + rows, at2 : at2 + cols, to : to + out] += block.reshape(rows, cols, out)
        t %= p
    diff = {}
    for n in dims:
        if n + 1 not in dims:
            continue
        d = la.zeros(dims[n + 1], dims[n])
        for i, j, at in pieces[n]:
            cols = A.dim(i) * B.dim(j)
            if (i + 1, j) in where:
                to = where[(i + 1, j)]
                d[to : to + A.dim(i + 1) * B.dim(j), at : at + cols] += np.kron(A.diff_mat(i), la.eye(B.dim(j)))
            if (i, j + 1) in where:
                to = where[(i, j + 1)]
                sign = -1 if i % 2 else 1
                d[to : to + A.dim(i) * B.dim(j + 1), at : at + cols] += sign * np.kron(la.eye(A.dim(i)), B.diff_mat(j))
        diff[n] = d % p
    return dg.DGAlgebra(p, dims, mult, diff, np.kron(A.unit, B.unit) % p, label=f"({A.label})⊗({B.label})")


def b_prime(p=P):
    """B' = k<1, t> in degree 0 and k u in degree -1, du = t, t^2 = tu = ut = 0."""
    mult = {
        (0, 0): np.zeros((2, 2, 2), dtype=np.int64),
        (0, -1): np.zeros((2, 1, 1), dtype=np.int64),
        (-1, 0): np.zeros((1, 2, 1), dtype=np.int64),
    }
    mult[(0, 0)][0, 0, 0] = mult[(0, 0)][0, 1, 1] = mult[(0, 0)][1, 0, 1] = 1
    mult[(0, -1)][0, 0, 0] = mult[(-1, 0)][0, 0, 0] = 1
    diff = {-1: np.array([[0], [1]], dtype=np.int64)}
    return dg.DGAlgebra(p, {0: 2, -1: 1}, mult, diff, np.array([1, 0], dtype=np.int64), label="B'")


def same_gldim(R, S):
    a, b = rv.gldim(R, cap=CAP), rv.gldim(S, cap=CAP)
    return (a.exact, a.at_least) == (b.exact, b.at_least)


def test_b_prime_is_quasi_isomorphic_to_k():
    Bp = b_prime()
    assert dg.validate(Bp) == []
    coh = dg.cohomology(Bp.regular_module(), with_action=False)
    assert {i: coh.dim(i) for i in (-1, 0)} == {-1: 0, 0: 1}
    # B'^0 = k[t]/(t^2) has infinite global dimension, B' has gldim 0
    assert rv.gldim(Bp, cap=CAP).exact == 0


@pytest.mark.parametrize("spec", SPECS + (K2_SPEC,))
def test_gldim_is_invariant_under_a_quasi_isomorphism(spec):
    R = battery.builtin_algebra(spec, P)
    T = tensor_dga(R, b_prime())
    assert dg.validate(T) == []
    assert T.dim(0) == 2 * R.dim(0)
    assert same_gldim(T, R)


@pytest.mark.parametrize("spec", SPECS)
def test_gldim_is_invariant_under_morita_equivalence(spec):
    R = battery.builtin_algebra(spec, P)
    T = tensor_dga(R, battery.builtin_algebra("matrix(2)", P))
    assert dg.validate(T) == []
    assert same_gldim(T, R)


@pytest.mark.parametrize("specs", PRODUCTS)
def test_gldim_of_a_product_is_the_larger_gldim(specs):
    A, B = (battery.builtin_algebra(spec, P) for spec in specs)
    a, b, t = (rv.gldim(R, cap=CAP) for R in (A, B, battery.product_dga(A, B)))
    if a.exact is None or b.exact is None:
        # a factor of gldim at least CAP makes the product's at least CAP too
        assert (t.exact, t.at_least) == (None, CAP)
    else:
        assert (t.exact, t.at_least) == (max(a.exact, b.exact), None)

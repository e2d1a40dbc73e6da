"""Exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced mod p; a matrix of
shape (m, n) represents a linear map k^n -> k^m acting on column vectors.
Subspaces are stored by their unique reduced row echelon basis, so subspace
equality is plain array comparison.  A Subspace also carries the pivot
columns of that basis (pivots[i] is the first nonzero column of row i), so
coordinates (Subspace.coordinates, the one reader), membership and
quotients are read off at the pivots without eliminating again.

rref is one sparse Gauss-Jordan elimination over rows held as {column:
value} dicts of Python ints, which costs one dict update per nonzero it
touches and no numpy call per pivot (see rref).

Each caller eliminates once.  kernel eliminates the columns in reverse
order: its vectors at the free columns, with the columns put back, are then
already the canonical basis, so they need no second elimination.
solve_many eliminates [m | rhs] once for all columns of rhs.  Each input
is reduced mod p once: span, kernel and solve_many leave that to rref.

p must be prime; dgcore.DGAlgebra checks this with is_prime when an algebra
is built, together with p > dim R^0 (the trace-form radical of R^0 needs it)
and p^2 * max(total_dim, 1) < 2^63.  rref works in Python ints, exactly for
every p.  Every product of arrays of field elements is formed by matmul or
contract, and no other module contracts arrays: an int64 sum adds at most
max(1, (2^63 - 1) // (p - 1)^2) products of entries below p, a chunk, and is
reduced mod p after each (delayed modular reduction, Dumas, Giorgi and
Pernet, "FFLAS and FFPACK", ACM TOMS 35(3), 2008).  At p = 32003 a chunk
holds 9e9 products, so each contraction is one numpy call; near the largest
accepted p it holds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

DEFAULT_PRIME = 32003
INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_field(m, p: int) -> np.ndarray:
    return np.asarray(m, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _chunk(p: int) -> int:
    """The most products of two entries below p that one int64 sum holds."""
    return max(1, INT64_MAX // (p - 1) ** 2)


def _cut(x: np.ndarray, letters: str, c: str, lo: int, hi: int) -> np.ndarray:
    """x with every axis labelled c cut to [lo, hi)."""
    return x[tuple(slice(lo, hi) if t == c else slice(None) for t in letters)]


def matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p, with numpy's broadcasting, for entries of absolute value
    below p; the inner sum is reduced after each chunk (module docstring)."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = a.shape[-1]
    if n * (p - 1) ** 2 <= INT64_MAX:
        return (a @ b) % p
    step = _chunk(p)
    return sum((a[..., lo : lo + step] @ (b[lo : lo + step] if b.ndim == 1 else b[..., lo : lo + step, :])) % p
               for lo in range(0, n, step)) % p


def contract(spec: str, a, b, p: int) -> np.ndarray:
    """np.einsum(spec, a, b) mod p for a spec such as "ab,bc->ac" and entries
    of absolute value below p.  While the summed letters' sizes multiply to
    more than a chunk (module docstring), the first is cut into slabs."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    # every summed letter labels an axis of a or b, so a.size * b.size bounds the products per sum
    if a.size * b.size * (p - 1) ** 2 <= INT64_MAX:
        return np.einsum(spec, a, b) % p
    sa, sb, out = spec.replace("->", ",").split(",")
    size = dict(zip(sa + sb, a.shape + b.shape))
    summed = [c for c in size if c not in out and size[c] > 1]
    n, step = math.prod(size[c] for c in summed), _chunk(p)
    if n <= step:
        return np.einsum(spec, a, b) % p
    c = summed[0]
    w = max(1, step // (n // size[c]))
    slabs = (contract(spec, _cut(a, sa, c, lo, lo + w), _cut(b, sb, c, lo, lo + w), p) for lo in range(0, size[c], w))
    return sum(slabs) % p


def _subtract(dst: dict[int, int], f: int, src: dict[int, int], p: int) -> None:
    """dst -= f * src in place, mod p, dropping the entries that cancel."""
    for j, v in src.items():
        if x := (dst.get(j, 0) - f * v) % p:
            dst[j] = x
        else:
            dst.pop(j, None)


def _pivot_rows(m: np.ndarray, p: int) -> dict[int, dict[int, int]]:
    """The nonzero rows of rref(m) as {lead column: {column: value}}, for m reduced mod p."""
    r, c = np.nonzero(m)
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in zip(r.tolist(), c.tolist(), m[r, c].tolist()):
        rows.setdefault(i, {})[j] = v
    piv: dict[int, dict[int, int]] = {}
    for row in rows.values():
        for lead in [j for j in row if j in piv]:
            _subtract(row, row[lead], piv[lead], p)
        if not row:
            continue
        lead = min(row)
        if row[lead] != 1:
            inv = pow(row[lead], p - 2, p)
            row = {j: v * inv % p for j, v in row.items()}
        for other in piv.values():
            if lead in other:
                _subtract(other, other[lead], row, p)
        piv[lead] = row
    return piv


def rref(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Each row is read once from np.nonzero into a {column: value} dict of
    Python ints and reduced by the pivot rows found so far; a row that
    survives is normalised at its lead column, which is then cleared from
    the earlier pivot rows.  The cost is one dict update per nonzero
    touched, which suits the very sparse systems built here; a dense
    100 x 100 matrix takes ten times as long as a numpy sweep per pivot.
    The arithmetic is exact for every p, and the RREF is unique, so the
    order in which rows are reduced does not show in the result.
    """
    m = as_field(m, p)
    piv = _pivot_rows(m, p)
    pivots = sorted(piv)
    out = zeros(*m.shape)
    for i, c in enumerate(pivots):
        for j, v in piv[c].items():
            out[i, j] = v
    return out, pivots


def rank(m, p: int) -> int:
    return len(_pivot_rows(as_field(m, p), p))


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^ambient_dim given by its canonical RREF row basis."""

    p: int
    ambient_dim: int
    basis: np.ndarray  # (dim, ambient_dim), reduced row echelon, full row rank
    pivots: list[int]  # pivots[i] is the first nonzero column of basis[i]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coordinates in the RREF basis of v, or of each vector in a stack
        (..., ambient_dim), as (..., dim), read at the pivots; None if one
        product rebuilding the vectors from them shows any outside."""
        v = as_field(v, self.p)
        coords = v[..., self.pivots]
        if np.any(matmul(coords, self.basis, self.p) != v):
            return None
        return coords

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and np.array_equal(self.basis, other.basis))


def span(vectors, ambient_dim: int, p: int) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    if ambient_dim == 0:
        return Subspace(p, 0, zeros(0, 0), [])
    rr, piv = rref(np.reshape(vectors, (-1, ambient_dim)), p)
    return Subspace(p, ambient_dim, rr[: len(piv)].copy(), piv)


def _non_pivots(n: int, piv: list[int]) -> np.ndarray:
    free = np.ones(n, dtype=bool)
    free[piv] = False
    return np.flatnonzero(free)


def kernel(m, p: int) -> Subspace:
    """{v : m v = 0} with canonical basis, from one elimination.

    Eliminating the columns in reverse order makes the kernel vector of each
    free column f vanish left of f once the columns are put back, so the
    vectors, ordered by f, are the canonical basis with pivots f.
    """
    m = np.asarray(m)
    cols = m.shape[1]
    rr, piv = rref(m[:, ::-1], p)
    free = _non_pivots(cols, piv)[::-1]
    basis = zeros(free.size, cols)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-rr[: len(piv), free].T) % p
    return Subspace(p, cols, basis[:, ::-1].copy(), (cols - 1 - free).tolist())


def solve(m, b, p: int):
    """Some x with m x = b, or None when the system is inconsistent."""
    x = solve_many(m, np.reshape(b, (-1, 1)), p)
    return None if x is None else x[:, 0]


def quotient_basis(sub: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Projection and section for k^n -> k^n / sub.

    projection has full row rank n - dim(sub) and kernel exactly sub;
    section is a right inverse selecting the non-pivot coordinates.
    """
    p, n = sub.p, sub.ambient_dim
    free = _non_pivots(n, sub.pivots)
    proj = zeros(free.size, n)
    section = zeros(n, free.size)
    proj[np.arange(free.size), free] = 1
    proj[:, sub.pivots] = (-sub.basis[:, free].T) % p
    section[free, np.arange(free.size)] = 1
    return proj, section


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim or a.p != b.p:
        raise ValueError("intersection: ambient mismatch")
    stacked = np.concatenate([a.basis.T, -b.basis.T % a.p], axis=1)
    ker = kernel(stacked, a.p)
    return span(matmul(ker.basis[:, : a.dim], a.basis, a.p), a.ambient_dim, a.p)


class MapSpace(Subspace):
    """A subspace of Hom_k(k^cols, k^rows) with a canonical basis: the
    Subspace of row-major vectorisations, ambient_dim = rows * cols."""

    def __init__(self, p: int, rows: int, cols: int, basis: np.ndarray, pivots: list[int]):
        super().__init__(p, rows * cols, basis, pivots)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def matrix(self, k: int) -> np.ndarray:
        return self.basis[k].reshape(self.rows, self.cols)

    def matrices(self) -> np.ndarray:
        """The basis maps as one stack (dim, rows, cols)."""
        return self.basis.reshape(self.dim, self.rows, self.cols)

    def coords(self, mats) -> np.ndarray:
        """Coordinates of a map known to lie in the space, or of each map in
        a stack (..., rows, cols), as an array (..., dim)."""
        shape = np.shape(mats)[:-2]
        c = self.coordinates(np.reshape(mats, shape + (self.ambient_dim,)))
        if c is None:
            raise ValueError("MapSpace.coords: map is outside the space")
        return c


def relations(src, tgt, p: int, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Balance relations (x.a) (x) y - sign * x (x) (y.a), as two blocks.

    src (m, A, m2) and tgt (n, A, n2) are action tensors over one basis of
    A: src[x, a, u] is the coefficient of u in x.a, and likewise for tgt.
    Row (x, a, y), row-major, is one relation.  The first block holds the
    coefficients of (x.a) (x) y on k^m2 (x) k^n, the second those of
    -sign * x (x) (y.a) on k^m (x) k^n2; columns are row-major too.  When
    the two spaces coincide the relations are the sum of the blocks;
    balance_rows lays the blocks out, adds them and drops the zero rows.

    One matrix serves tensor quotients and Hom spaces, because
    Hom_A(Q, D L) = D(Q (x)_A L) = D(L (x)_{A^op} Q) for the k-dual D:

      tensor  Q (x)_A L is k^m (x) k^n modulo the row span of
              relations(Q, L, p, sign).
      Hom     phi : Q -> N is A-linear iff its row-major vectorisation,
              rows indexing N and columns Q, is in the kernel of
              relations(D N, Q, p) with the dual action
              D N = np.swapaxes(N, 0, 2).  Row (y, a, x) then reads
              (phi(x).a - phi(x.a))[y]: the first block acts on phi at the
              degree of x, the second on phi at the degree of x.a.

    With a zero target action (n2 = 0) the second block alone holds
    phi |-> -phi(x.a), which prescribes phi on the elements x.a.
    """
    src, tgt = np.asarray(src, dtype=np.int64), np.asarray(tgt, dtype=np.int64)
    (m, A, m2), (n, _, n2) = src.shape, tgt.shape
    # C order, so that the reshapes are views whatever the layout of the inputs
    left = np.einsum("xau,yv->xayuv", src, eye(n), order="C").reshape(m * A * n, m2 * n)
    right = np.einsum("xu,yaw->xayuw", eye(m), tgt, order="C").reshape(m * A * n, m * n2)
    if sign == 1:
        np.negative(right, out=right)
    return left, right


def balance_rows(terms, widths, p: int) -> np.ndarray:
    """The nonzero rows of balance relations over column blocks of the given widths.

    A term (src, tgt, sign, left_block, right_block) places the two blocks of
    relations(src, tgt, p, sign) at the columns of those blocks and leaves
    out a side whose block is None.  The sides add where they meet, in place
    when there is only one block, so no array of the full height is copied.
    """
    offsets = [0, *accumulate(widths)]
    out = []
    for src, tgt, sign, lb, rb in terms:
        if lb is None and rb is None:
            continue
        left, right = relations(src, tgt, p, sign)
        if len(widths) == 1:
            rows = left if rb is None else right if lb is None else np.add(left, right, out=left)
        else:
            rows = zeros(left.shape[0], offsets[-1])
            for b, side in ((lb, left), (rb, right)):
                if b is not None:
                    rows[:, offsets[b] : offsets[b + 1]] += side
        del left, right
        out.append(rows[rows.any(axis=1)])
    return out[0] if len(out) == 1 else np.concatenate([zeros(0, offsets[-1]), *out])


def solve_many(m, rhs, p: int):
    """Solve m X = rhs columnwise; None if any column is inconsistent.

    One elimination of [m | rhs]: a pivot in the rhs part marks an
    inconsistent column, and otherwise X is zero at the free unknowns and
    reads the reduced rhs at the pivots.
    """
    m, rhs = np.asarray(m), np.asarray(rhs)
    n = m.shape[1]
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(f"solve: {m.shape[0]} rows vs a rhs with {rhs.shape[0]} rows")
    rr, piv = rref(np.concatenate([m, rhs], axis=1), p)
    if piv and piv[-1] >= n:
        return None
    x = zeros(n, rhs.shape[1])
    x[piv] = rr[: len(piv), n:]
    return x

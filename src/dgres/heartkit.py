"""Finite-dimensional ordinary algebras over GF(p) and their module category.

This is the engine for the degree-zero world: the zeroth cohomology algebra
H0 of a connective DG-algebra and the degree-zero subalgebra R0.  Everything
a resolution step needs from the abelian heart lives here: Jacobson radical,
the list of simple modules, projective covers and injective envelopes.

Conventions: a right module of dimension d over an algebra of dimension n
stores its action as an (n, d, d) array, action[a] being the matrix of right
multiplication by the a-th basis element (v . e_a = action[a] @ v).  The
regular module's action is np.transpose(mult, (1, 2, 0)).

An action tensor is carried to a new module in one of three ways, each
written once below:

  restrict   to a stable subspace W: the action is applied to W's RREF
             basis and the coordinates of the images are read at W's
             pivots, where the basis is the identity; one whole-array
             check confirms that every image stayed inside W.  No
             elimination runs.
  quotient   to k^d / W: one contraction through the projection and the
             section of la.quotient_basis(W).
  pull_back  along a linear map m into the algebra (an algebra map, or the
             section of a quotient by an ideal that acts as zero): one
             contraction over the algebra axis, b acting as
             sum_a m[a, b] action[a].

The structure theory of an algebra (radical, semisimple quotient, blocks,
simples, lifted idempotents, PIMs) is cached on the algebra object, so it is
computed once per object, and algebras with the same tables are made the
same object where the theory allows it: A^op^op is A and a commutative A is
its own opposite; the heart of R^op is built from the heart of R when that
exists (R0 and H0 swapped, the same B0, projection and section); H0 is R0
itself when B0 = 0.  Projective covers are memoised on the algebra by the
module's action table, and injective envelopes reach that memo through the
dual over A^op.  No memo is process-wide: each lives and dies with its
algebra.

Generators and freeness are read off the projective cover.  Over a split
algebra top(A_A) = ⊕ S_i^{r_i}, r_i = dim S_i, so n elements generate N only
if n r_i >= m_i, the multiplicity of S_i in top(N).  The cover records the
n = max_i ⌈m_i / r_i⌉ generators Σ_i Σ_k v_{i, c r_i + k} . V_i[0][k], c < n,
where the v_{i, j} lift a basis of top(N).e_i (zero past m_i) and V_i[x][y]
are the matrix units of block i of A/rad; by Nakayama they span N.  So N is
free iff n dim A = dim N, and then they are a free basis.

The radical is computed with the trace-form method, which is valid whenever
the characteristic exceeds the algebra dimension; this is checked at entry.
Simple modules are found by splitting the semisimple quotient S inside S
(Cantor-Zassenhaus in k[x], as in Eberly and Giesbrecht): a random central
element splits S into blocks uS, a random b in an n x n block splits it into
eigen-idempotents e, and the simple is the first eS of dimension n in the
order of the eigenvalues.  x in uSu is split semisimple iff x^p = x.  An
idempotent e of k[x] on which x is not scalar is split by f = (w^2 + w)/2,
w = ((x + δu) e)^((p-1)/2): f is 1 exactly at the eigenvalues λ with λ + δ
a nonzero square, the partition that the gcd of x's minimal polynomial with
(x + δ)^((p-1)/2) - 1 makes.  Primitive idempotents of k[x] are unique and
the square part is split first, so the simples are those of that polynomial
route draw for draw; tests/test_heartkit.py keeps it as the oracle.  The
base field is assumed to be a splitting field and an UnsplitFactorError is
raised otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactla as la
from .exactla import Subspace


# retry budgets of the randomised steps
ROOT_SPLIT_TRIES = 64
CENTRAL_SPLIT_TRIES = 40
SIMPLE_EXTRACT_TRIES = 60


class UnsplitFactorError(RuntimeError):
    """The semisimple quotient has a factor not split by GF(p)."""


class ConfigurationError(ValueError):
    """Invalid session parameters (e.g. p not exceeding the dimension)."""


# ---------------------------------------------------------------------------
# algebras


@dataclass(eq=False)
class OrdinaryAlgebra:
    p: int
    dim: int
    mult: np.ndarray  # (dim, dim, dim): mult[a, b, c] = coeff of e_c in e_a e_b
    unit: np.ndarray  # (dim,)
    label: str = ""
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def multiply(self, u, v) -> np.ndarray:
        return la.matmul(self.left_mult(u), la.as_field(v, self.p), self.p)

    def left_mult(self, v) -> np.ndarray:
        """Matrix of x -> v x."""
        return la.contract("a,abc->cb", la.as_field(v, self.p), self.mult, self.p)

    def right_mult(self, v) -> np.ndarray:
        """Matrix of x -> x v."""
        return la.contract("b,abc->ca", la.as_field(v, self.p), self.mult, self.p)

    def opposite(self) -> "OrdinaryAlgebra":
        if "opposite" not in self._cache:
            swapped = np.swapaxes(self.mult, 0, 1)
            if np.array_equal(self.mult, swapped):
                self._cache["opposite"] = self
            else:
                op = OrdinaryAlgebra(
                    self.p, self.dim, swapped.copy(), self.unit.copy(), label=self.label + "^op", seed=self.seed
                )
                op._cache["opposite"] = self
                self._cache["opposite"] = op
        return self._cache["opposite"]

    def validate(self) -> list[str]:
        """Failures of the unit and associativity identities, each one tensor
        equation mod p: left_mult(unit) = 1 = right_mult(unit), and
        einsum("abx,xcy->abcy", mult, mult) = einsum("bcx,axy->abcy", mult, mult)."""
        n, p, mult = self.dim, self.p, self.mult
        left = (self.left_mult(self.unit) != la.eye(n)).any(axis=0)
        right = (self.right_mult(self.unit) != la.eye(n)).any(axis=0)
        bad = [f"unit fails on {side} of e_{a}" for a in range(n) for side, x in (("left", left), ("right", right)) if x[a]]
        lhs = la.contract("abx,xcy->abcy", mult, mult, p)
        rhs = la.contract("bcx,axy->abcy", mult, mult, p)
        return bad + [f"associativity fails at ({a},{b},{c})" for a, b, c in np.argwhere((lhs != rhs).any(axis=-1))]


def quotient_algebra(A: OrdinaryAlgebra, ideal: Subspace):
    """A / ideal with projection and section; ideal must be two-sided.

    The product of A / ideal is the regular action on the quotient, pulled
    back along the section: mult[a, b] = proj(sect_a sect_b).
    """
    # two-sided: stable under the regular actions of A and of its opposite
    regular = regular_module(A).action
    restrict(np.concatenate([regular, regular_module(A.opposite()).action]), ideal, "quotient_algebra")
    act, proj, sect = quotient(regular, ideal)
    mult = np.transpose(pull_back(act, sect, A.p), (2, 0, 1)).copy()
    unit = la.matmul(proj, A.unit, A.p)
    return OrdinaryAlgebra(A.p, proj.shape[0], mult, unit, label=A.label + "/I", seed=A.seed), proj, sect


def _trace_kernel(A: OrdinaryAlgebra) -> Subspace:
    # G[a, b] = trace of left multiplication by e_a e_b; t[j] = tr(L_{e_j})
    t = la.contract("jbc,bc->j", A.mult, la.eye(A.dim), A.p)
    G = la.contract("abj,j->ab", A.mult, t, A.p)
    return la.kernel(G.T, A.p)


def radical(A: OrdinaryAlgebra) -> Subspace:
    """Jacobson radical via the trace form, iterated to a fixpoint."""
    if A.p <= A.dim:
        raise ConfigurationError(f"radical needs p > dim, got p={A.p}, dim={A.dim}")
    if "radical" in A._cache:
        return A._cache["radical"]
    rad = _trace_kernel(A)
    while True:
        Q, proj, sect = quotient_algebra(A, rad)
        k = _trace_kernel(Q)
        if k.dim == 0:
            break
        pulled = [la.matmul(sect, row, A.p) for row in k.basis]
        rad = la.span(list(rad.basis) + pulled, A.dim, A.p)
    A._cache["radical"] = rad
    return rad


def radical_chain(A: OrdinaryAlgebra) -> list[Subspace]:
    """rad^0 = A ⊇ rad ⊇ rad^2 ⊇ ... down to 0."""
    chain = [la.span(la.eye(A.dim), A.dim, A.p), radical(A)]
    while chain[-1].dim > 0:
        prev = chain[-1]
        prods = [A.multiply(u, v) for u in prev.basis for v in radical(A).basis]
        nxt = la.span(prods if prods else la.zeros(0, A.dim), A.dim, A.p)
        if nxt.dim == prev.dim:
            raise RuntimeError("radical is not nilpotent; algebra tables are corrupt")
        chain.append(nxt)
    return chain


def semisimple_quotient(A: OrdinaryAlgebra):
    if "semis" not in A._cache:
        A._cache["semis"] = quotient_algebra(A, radical(A))
    return A._cache["semis"]


# ---------------------------------------------------------------------------
# modules


@dataclass
class FDModule:
    algebra: OrdinaryAlgebra
    dim: int
    action: np.ndarray  # (algebra.dim, dim, dim)
    label: str = ""

    def act(self, v, a) -> np.ndarray:
        """v . a for an algebra element a given by coordinates."""
        return la.matmul(self.action_of(a), la.as_field(v, self.algebra.p), self.algebra.p)

    def action_of(self, a) -> np.ndarray:
        return la.contract("a,aij->ij", la.as_field(a, self.algebra.p), self.action, self.algebra.p)

    def validate(self) -> list[str]:
        """Failures of the module identities, each one tensor equation mod p:
        action_of(unit) = 1, and v . (e_a e_b) = (v . e_a) . e_b, that is
        einsum("abc,cij->abij", mult, action) = einsum("bik,akj->abij", action, action)."""
        A, p = self.algebra, self.algebra.p
        bad = ["unit does not act as identity"] if np.any(self.action_of(A.unit) != la.eye(self.dim)) else []
        lhs = la.contract("abc,cij->abij", A.mult, self.action, p)
        rhs = la.contract("bik,akj->abij", self.action, self.action, p)
        return bad + [f"action breaks associativity at ({a},{b})" for a, b in np.argwhere((lhs != rhs).any(axis=(2, 3)))]


def zero_module(A: OrdinaryAlgebra) -> FDModule:
    return FDModule(A, 0, np.zeros((A.dim, 0, 0), dtype=np.int64), label="0")


def regular_module(A: OrdinaryAlgebra) -> FDModule:
    # action[a][c, b] = mult[b, a, c], the coefficient of e_c in e_b e_a
    return FDModule(A, A.dim, np.transpose(A.mult, (1, 2, 0)) % A.p, label=A.label or "A")


def direct_sum(mods: list[FDModule]):
    """Direct sum with the list of inclusion matrices."""
    A = mods[0].algebra
    total = sum(m.dim for m in mods)
    action = np.zeros((A.dim, total, total), dtype=np.int64)
    incls = []
    off = 0
    for m in mods:
        action[:, off : off + m.dim, off : off + m.dim] = m.action
        inc = la.zeros(total, m.dim)
        inc[off : off + m.dim] = la.eye(m.dim)
        incls.append(inc)
        off += m.dim
    return FDModule(A, total, action), incls


# ---------------------------------------------------------------------------
# carrying an action tensor: restrict, quotient, pull_back


def coordinates(sub: Subspace, cols, what: str) -> np.ndarray:
    """Coordinates in sub's RREF basis of the columns of cols (..., n, k), as
    (..., dim sub, k); a RuntimeError naming `what` if one lies outside sub."""
    coords = sub.coordinates(np.swapaxes(cols, -1, -2))
    if coords is None:
        raise RuntimeError(f"{what}: subspace is not stable under the action")
    return np.swapaxes(coords, -1, -2)


def restrict(action, sub: Subspace, what: str) -> np.ndarray:
    """The action tensor (A, n, n) on the stable subspace sub, (A, d, d)."""
    return coordinates(sub, la.matmul(action, sub.basis.T, sub.p), what)


def quotient(action, sub: Subspace):
    """The action tensor (A, n, n) on k^n / sub, with its projection and
    section; sub must be stable."""
    proj, sect = la.quotient_basis(sub)
    return la.matmul(proj, la.matmul(action, sect, sub.p), sub.p), proj, sect


def pull_back(action, m, p: int) -> np.ndarray:
    """The action tensor (A, d, d) along the linear map m (A, B) into the
    algebra: b acts as sum_a m[a, b] action[a], (B, d, d)."""
    return la.contract("ab,axy->bxy", la.as_field(m, p), action, p)


def submodule(M: FDModule, vectors, label="") -> tuple[FDModule, np.ndarray]:
    """Submodule generated by the given vectors; returns (module, inclusion)."""
    p = M.algebra.p
    rows = la.as_field(vectors, p).reshape(len(vectors), M.dim)
    # v . A is the submodule generated by v, since the unit acts as 1
    images = np.swapaxes(la.matmul(M.action, rows.T, p), 1, 2).reshape(-1, M.dim)
    return subspace_module(M, la.span(np.concatenate([rows, images]), M.dim, p), label=label)


def subspace_module(M: FDModule, sub: Subspace, label="") -> tuple[FDModule, np.ndarray]:
    """A stable subspace as a module, with its inclusion."""
    return FDModule(M.algebra, sub.dim, restrict(M.action, sub, "subspace_module"), label=label), sub.basis.T.copy()


def quotient_module(M: FDModule, sub: Subspace, label="") -> tuple[FDModule, np.ndarray]:
    """M / sub for a stable subspace; returns (module, projection)."""
    action, proj, _ = quotient(M.action, sub)
    return FDModule(M.algebra, proj.shape[0], action, label=label), proj


def module_times_ideal(M: FDModule, ideal: Subspace) -> Subspace:
    p = M.algebra.p
    cols = []
    for r in ideal.basis:
        mat = M.action_of(r)
        cols.extend(mat.T)
    return la.span(cols if cols else la.zeros(0, M.dim), M.dim, p)


def top_of(M: FDModule) -> tuple[FDModule, np.ndarray]:
    """M / M.rad with projection."""
    return quotient_module(M, module_times_ideal(M, radical(M.algebra)), label="top")


def hom_space(M: FDModule, N: FDModule) -> la.MapSpace:
    """Basis of algebra-equivariant maps M -> N as a canonical map space."""
    p = M.algebra.p
    # action[a] acts on columns; as a tensor, action[a][u, x] is the
    # coefficient of u in x.a, and the dual of N transposes each action[a]
    terms = [(np.swapaxes(N.action, 0, 1), np.transpose(M.action, (2, 0, 1)), 1, 0, 0)]
    ker = la.kernel(la.balance_rows(terms, [N.dim * M.dim], p), p)
    return la.MapSpace(p, N.dim, M.dim, ker.basis, ker.pivots)


def dual_module(M: FDModule, label="") -> FDModule:
    """k-dual as a module over the opposite algebra."""
    action = np.swapaxes(M.action, 1, 2) % M.algebra.p
    return FDModule(M.algebra.opposite(), M.dim, action, label=label or ("D(" + M.label + ")"))


# ---------------------------------------------------------------------------
# simples and peirce decomposition


def _center(A: OrdinaryAlgebra) -> np.ndarray:
    # row (a, c), column b: the e_c coefficient of e_a e_b - e_b e_a
    comm = np.transpose(A.mult - np.swapaxes(A.mult, 0, 1), (0, 2, 1)).reshape(-1, A.dim)
    return la.kernel(comm % A.p, A.p).basis


def _power(L, n: int, v, p: int) -> np.ndarray:
    """L^n v, by repeated squaring of the matrix L."""
    while n:
        if n & 1:
            v = la.matmul(L, v, p)
        L = la.matmul(L, L, p)
        n >>= 1
    return v


def _eigen_idempotents(S: OrdinaryAlgebra, u, x, rng):
    """The primitive idempotents e of k[x] inside the block uSu, each paired
    with the eigenvalue λ for which x e = λ e, sorted by λ.

    None when x is not split semisimple, or when a split runs out of δ draws
    (module docstring).
    """
    p = S.p
    L = S.left_mult(x)
    if not np.array_equal(_power(L, p, u, p), x):
        return None

    def split(e):
        xe = la.matmul(L, e, p)
        i = np.flatnonzero(e)[0]
        lam = int(xe[i]) * pow(int(e[i]), p - 2, p) % p
        if np.array_equal(xe, lam * e % p):
            return [(lam, e)]
        for _ in range(ROOT_SPLIT_TRIES):
            delta = int(rng.integers(0, p))
            w = _power((L + delta * la.eye(S.dim)) % p, (p - 1) // 2, e, p)
            f = (la.matmul(S.left_mult(w), w, p) + w) * ((p + 1) // 2) % p
            if f.any() and not np.array_equal(f, e):
                square = split(f)
                rest = square and split((e - f) % p)
                return rest and square + rest
        return None

    pairs = split(u)
    return pairs and sorted(pairs, key=lambda pair: pair[0])


def _block_split(A: OrdinaryAlgebra, S: OrdinaryAlgebra, rng):
    """Central primitive idempotents of the semisimple algebra S."""
    center = _center(S)
    queue = [S.unit.copy()]
    finished = []
    while queue:
        u = queue.pop()
        # center of the block uS: central elements z with zu = z
        basis = la.span(la.matmul(center, S.right_mult(u).T, S.p), S.dim, S.p)
        if basis.dim == 1:
            finished.append(u)
            continue
        for _ in range(CENTRAL_SPLIT_TRIES):
            coeffs = rng.integers(0, S.p, size=basis.dim)
            pairs = _eigen_idempotents(S, u, la.matmul(coeffs, basis.basis, S.p), rng)
            if pairs is None:
                raise UnsplitFactorError("a central element of A/rad does not split over GF(p)")
            if len(pairs) > 1:
                queue += [e for _, e in pairs]
                break
        else:
            raise UnsplitFactorError("central splitting exceeded the retry budget")
    return finished


def _simple_of_block(S: OrdinaryAlgebra, u, rng):
    """The block uS, a simple right ideal W of it and the size n of the
    matrix algebra uS, as (uS, W, n) with uS and W subspaces of S."""
    p = S.p
    B = la.span(S.left_mult(u).T, S.dim, p)  # basis of uS inside S, spanned by the u e_a
    d = B.dim
    n = int(round(d ** 0.5))
    if n * n != d:
        raise UnsplitFactorError(f"block of dimension {d} is not a matrix algebra over GF(p)")
    if n == 1:
        return B, la.span([u], S.dim, p), n
    for _ in range(SIMPLE_EXTRACT_TRIES):
        coeffs = rng.integers(0, p, size=d)
        # e uS is the λ-eigenspace of left multiplication by b on uS: a
        # simple right ideal when λ is a simple eigenvalue of b
        for _, e in _eigen_idempotents(S, u, la.matmul(coeffs, B.basis, p), rng) or ():
            W = la.span(la.matmul(S.left_mult(e), B.basis.T, p).T, S.dim, p)
            if W.dim == n:
                return B, W, n
    raise UnsplitFactorError("simple extraction exceeded the retry budget")


def _verify_simple(mod: FDModule) -> bool:
    # images[k] holds the vectors e_k . a over the basis of the algebra
    images = np.transpose(mod.action % mod.algebra.p, (2, 0, 1))
    return all(la.rank(img, mod.algebra.p) == mod.dim for img in images)


def simples(A: OrdinaryAlgebra) -> list[FDModule]:
    """Complete irredundant list of simple right A-modules."""
    key = "simples"
    if key in A._cache:
        return A._cache[key]
    rng = np.random.default_rng(A.seed)
    S, proj, _ = semisimple_quotient(A)
    blocks = _block_split(A, S, rng)
    blocks.sort(key=lambda u: tuple(int(x) for x in u))
    regular = regular_module(S).action
    mods = []
    block_data = []
    for u in blocks:
        B, W, _ = _simple_of_block(S, u, rng)
        # W is a right ideal of S, and A acts on it through A -> S
        on_W = restrict(regular, W, "simples")
        mod = FDModule(A, W.dim, pull_back(on_W, proj, A.p), label=f"S{len(mods)}")
        if not _verify_simple(mod):
            raise UnsplitFactorError("extracted module failed the simplicity check")
        mods.append(mod)
        block_data.append((B, on_W))
    A._cache[key] = mods
    A._cache["blocks"] = block_data
    return mods


def _matrix_units(A: OrdinaryAlgebra):
    """Matrix units of each block of A/rad, one (r, r, dim A/rad) array per simple.

    V[x][y] acts on the block's simple W as the map w_x -> w_y of its basis,
    so V[a][b] V[c][d] = δ_bc V[a][d].  One solve per block: the block acts
    on W faithfully, so each unit is unique.
    """
    if "units" not in A._cache:
        simples(A)
        units = []
        for B, on_W in A._cache["blocks"]:
            # column y*w + x of the solve is the element sending w_x to w_y
            w = on_W.shape[1]
            cols = pull_back(on_W, B.basis.T, A.p).reshape(B.dim, w * w).T
            sol = la.solve_many(cols, la.eye(w * w), A.p)
            if sol is None:
                raise UnsplitFactorError("no matrix units realize the block's action on its simple")
            units.append(np.swapaxes(la.matmul(sol.T, B.basis, A.p).reshape(w, w, -1), 0, 1))
        A._cache["units"] = units
    return A._cache["units"]


def _lift_idempotents(A: OrdinaryAlgebra):
    """One primitive idempotent of A per simple, V[0][0] of its block lifted from A/rad."""
    if "prim_idem" in A._cache:
        return A._cache["prim_idem"]
    _, _, sect = semisimple_quotient(A)
    p = A.p
    # lift each to A by the Newton iteration; the error a^2 - a lies in the
    # radical, so convergence is geometric in the nilpotency index
    lifted = []
    for V in _matrix_units(A):
        a = la.matmul(sect, V[0, 0], p)
        for _ in range(64):
            sq = A.multiply(a, a)
            if np.array_equal(sq, a):
                break
            a = (3 * sq - 2 * A.multiply(sq, a)) % p
        else:
            raise RuntimeError("idempotent lifting did not converge")
        lifted.append(a)
    A._cache["prim_idem"] = lifted
    return lifted


def projective_indecomposable(A: OrdinaryAlgebra, i: int) -> tuple[FDModule, np.ndarray]:
    """P(S_i) = e_i A as a module, with its inclusion into the regular module."""
    key = ("pim", i)
    if key not in A._cache:
        A._cache[key] = submodule(regular_module(A), [_lift_idempotents(A)[i]], label=f"P{i}")
    return A._cache[key]


def pim_generator(A: OrdinaryAlgebra, i: int) -> np.ndarray:
    """e_i in the basis of P(S_i) = e_i A, read at the pivots of its RREF basis."""
    return _lift_idempotents(A)[i][(projective_indecomposable(A, i)[1] != 0).argmax(axis=0)]


@dataclass
class CoverData:
    module: FDModule
    map: np.ndarray  # cover -> N for projective covers, N -> envelope for injective
    # block multiplicities m_i, nonzero N only: P(N) = ⊕ P_i^{m_i} for a cover,
    # E(N) = ⊕ D(P_i)^{m_i} over the P_i of A^op for an envelope
    multiplicities: list[int] | None = None
    # fewest generators of N as columns (projective covers only; module docstring)
    generators: np.ndarray | None = None


def projective_cover(N: FDModule) -> CoverData:
    """P(N) ↠ N with superfluous kernel, P(N) = ⊕ P(S_i)^{m_i}.

    Memoised on the algebra by N's action tensor; the result is shared and
    must not be modified.
    """
    A = N.algebra
    if N.dim == 0:
        return CoverData(zero_module(A), la.zeros(0, 0), generators=la.zeros(0, 0))
    key = ("cover", N.dim, N.action.tobytes())
    if key not in A._cache:
        A._cache[key] = _build_cover(N)
    return A._cache[key]


def _build_cover(N: FDModule) -> CoverData:
    """projective_cover(N) without the memo."""
    A, p = N.algebra, N.algebra.p
    idems = _lift_idempotents(A)
    _, _, sect = semisimple_quotient(A)
    top, proj_top = top_of(N)
    imgs = [la.span(top.action_of(e).T, top.dim, p) for e in idems]
    tops = np.concatenate([img.basis for img in imgs])
    if not len(tops):
        raise RuntimeError("projective_cover: module has empty top")
    # vectors of N lifting the top vectors, one elimination for all of them
    lifts = la.solve_many(proj_top, tops.T, p)
    n = max(-(-img.dim // len(V)) for img, V in zip(imgs, _matrix_units(A)))
    pieces, maps, start, gens = [], [], 0, la.zeros(N.dim, n)
    for i, (e, img, V) in enumerate(zip(idems, imgs, _matrix_units(A))):
        if not img.dim:  # S_i is not in the top: no copies of P_i, no columns, no generator part
            continue
        P, incl = projective_indecomposable(A, i)
        # v = lift . e_i in N.e_i, and e_i a -> v.a for the basis e_i a of P
        vs = la.matmul(N.action_of(e), lifts[:, start : start + img.dim], p)
        images = la.matmul(pull_back(N.action, incl, p), vs, p)  # (P.dim, N.dim, m_i)
        maps.append(np.transpose(images, (1, 2, 0)).reshape(N.dim, -1))
        pieces += [P] * img.dim
        start += img.dim
        # generator c takes v_{c r + k} . V[0][k], k < r: the top copies c r .. c r + r - 1 of S_i
        r = len(V)
        padded = np.concatenate([vs, la.zeros(N.dim, n * r - img.dim)], axis=1).reshape(N.dim, n, r)
        gens = (gens + la.contract("kde,eck->dc", pull_back(N.action, la.matmul(sect, V[0].T, p), p), padded, p)) % p
    cover, _ = direct_sum(pieces)
    cover_map = np.concatenate(maps, axis=1) % p
    if la.rank(cover_map, p) != N.dim:
        raise RuntimeError("projective_cover: structure map is not surjective")
    return CoverData(cover, cover_map, [img.dim for img in imgs], gens)


def injective_envelope(N: FDModule) -> CoverData:
    """N ↪ E(N), constructed as the dual of the projective cover of D(N).

    E(N) is the block sum ⊕ D(P_i)^{m_i} over the indecomposable
    projectives P_i of A^op, in index order, with the cover's multiplicities.
    """
    A = N.algebra
    dn = dual_module(N)
    cd = projective_cover(dn)
    env = dual_module(cd.module)  # module over A^{op,op} = A, same tables
    env = FDModule(A, env.dim, env.action, label=f"E({N.label})")
    emb = cd.map.T.copy() % A.p  # D of the cover map, via the evaluation iso
    if la.rank(emb, A.p) != N.dim:
        raise RuntimeError("injective_envelope: structure map is not injective")
    return CoverData(env, emb, cd.multiplicities)


def free_rank(N: FDModule, cover: CoverData | None = None):
    """Rank when N is free, else None.

    The cover's n generators span N, so N is free of rank n iff
    n dim A = dim N (module docstring).  `cover` is N's projective cover
    when the caller already has it.
    """
    n = (cover or projective_cover(N)).generators.shape[1]
    return n if n * N.algebra.dim == N.dim else None


# ---------------------------------------------------------------------------
# degree-zero data of a connective DG-algebra


@dataclass
class HeartData:
    """R0, H0 = R0/B0 and the projection between them."""

    r0: OrdinaryAlgebra
    h0: OrdinaryAlgebra
    project: np.ndarray  # (dim h0, dim r0)
    lift: np.ndarray  # (dim r0, dim h0)
    boundaries: Subspace  # B0 inside R0


def heart_data(p: int, r0_mult, r0_unit, boundary_vectors, label="", seed: int = 0) -> HeartData:
    r0_mult = la.as_field(r0_mult, p)
    n0 = r0_mult.shape[0]
    b0 = la.span(boundary_vectors if len(boundary_vectors) else la.zeros(0, n0), n0, p)
    r0 = OrdinaryAlgebra(p, n0, r0_mult, la.as_field(r0_unit, p), label=label + ".R0", seed=seed)
    if b0.dim == 0:
        # H0 = R0: the quotient by the zero ideal would rebuild the same table
        return HeartData(r0, r0, la.eye(n0), la.eye(n0), b0)
    h0, proj, sect = quotient_algebra(r0, b0)
    h0.label = label + ".H0"
    return HeartData(r0, h0, proj, sect, b0)


def heart_of(R) -> HeartData:
    """Degree-zero data of a DG-algebra; cached on the algebra object.

    R^op shares the heart of R when that is already built: R0 and H0 of
    R^op are those of R with the factors swapped (degree 0 carries no sign)
    and B0 is the same subspace.
    """
    if R._heart is None:
        op = R._memo.get("opposite")
        if op is not None and op._heart is not None:
            h = op._heart
            R._heart = HeartData(h.r0.opposite(), h.h0.opposite(), h.project, h.lift, h.boundaries)
        else:
            d = R.diff_mat(-1)
            R._heart = heart_data(R.p, R.mult_tensor(0, 0), R.unit, list(d.T), label=R.label, seed=R.seed)
    return R._heart


def restrict_to_r0(hd: HeartData, N: FDModule) -> FDModule:
    """An H0-module viewed as an R0-module along R0 ↠ H0."""
    return FDModule(hd.r0, N.dim, pull_back(N.action, hd.project, hd.r0.p), label=N.label)

"""Finite-dimensional ordinary algebras over GF(p) and their module category.

This is the engine for the degree-zero world: the zeroth cohomology algebra
H0 of a connective DG-algebra and the degree-zero subalgebra R0.  Everything
a resolution step needs from the abelian heart lives here: Jacobson radical,
the list of simple modules, projective covers, injective envelopes, the
functor sending an R0-module K to the H0-submodule killed by the
0-boundaries, and split-map tests.

Conventions: a right module of dimension d over an algebra of dimension n
stores its action as an (n, d, d) array, action[a] being the matrix of right
multiplication by the a-th basis element (v . e_a = action[a] @ v).

The radical is computed with the trace-form method, which is valid whenever
the characteristic exceeds the algebra dimension; this is checked at entry.
Simple modules are found by splitting the semisimple quotient with random
central elements; the base field is assumed to be a splitting field and an
UnsplitFactorError is raised otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactla as la
from .exactla import Subspace


class UnsplitFactorError(RuntimeError):
    """The semisimple quotient has a factor not split by GF(p)."""


class ConfigurationError(ValueError):
    """Invalid session parameters (e.g. p not exceeding the dimension)."""


# ---------------------------------------------------------------------------
# algebras


@dataclass
class OrdinaryAlgebra:
    p: int
    dim: int
    mult: np.ndarray  # (dim, dim, dim): mult[a, b, c] = coeff of e_c in e_a e_b
    unit: np.ndarray  # (dim,)
    label: str = ""
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def multiply(self, u, v) -> np.ndarray:
        return np.einsum("a,b,abc->c", la.as_field(u, self.p), la.as_field(v, self.p), self.mult) % self.p

    def left_mult(self, v) -> np.ndarray:
        """Matrix of x -> v x."""
        return np.einsum("a,abc->cb", la.as_field(v, self.p), self.mult) % self.p

    def right_mult(self, v) -> np.ndarray:
        """Matrix of x -> x v."""
        return np.einsum("b,abc->ca", la.as_field(v, self.p), self.mult) % self.p

    def power(self, v, k: int) -> np.ndarray:
        out = self.unit.copy()
        for _ in range(k):
            out = self.multiply(out, v)
        return out

    def opposite(self) -> "OrdinaryAlgebra":
        if "opposite" not in self._cache:
            op = OrdinaryAlgebra(
                self.p, self.dim, np.swapaxes(self.mult, 0, 1).copy(), self.unit.copy(),
                label=self.label + "^op", seed=self.seed,
            )
            self._cache["opposite"] = op
        return self._cache["opposite"]

    def validate(self) -> list[str]:
        bad = []
        n, p = self.dim, self.p
        basis = la.eye(n)
        for a in range(n):
            if np.any(self.multiply(self.unit, basis[a]) != basis[a]):
                bad.append(f"unit fails on left of e_{a}")
            if np.any(self.multiply(basis[a], self.unit) != basis[a]):
                bad.append(f"unit fails on right of e_{a}")
        for a in range(n):
            for b in range(n):
                ab = self.multiply(basis[a], basis[b])
                for c in range(n):
                    lhs = self.multiply(ab, basis[c])
                    rhs = self.multiply(basis[a], self.multiply(basis[b], basis[c]))
                    if np.any(lhs != rhs):
                        bad.append(f"associativity fails at ({a},{b},{c})")
        return bad


def quotient_algebra(A: OrdinaryAlgebra, ideal: Subspace):
    """A / ideal with projection and section; ideal must be two-sided."""
    proj, sect = la.quotient_basis(ideal)
    q = proj.shape[0]
    mult = np.zeros((q, q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            prod = A.multiply(sect[:, a], sect[:, b])
            mult[a, b] = la.matmul(proj, prod, A.p)
    unit = la.matmul(proj, A.unit, A.p)
    Q = OrdinaryAlgebra(A.p, q, mult, unit, label=A.label + "/I", seed=A.seed)
    for row in ideal.basis:
        for a in range(A.dim):
            if np.any(la.matmul(proj, A.multiply(row, la.eye(A.dim)[a]), A.p)) or np.any(
                la.matmul(proj, A.multiply(la.eye(A.dim)[a], row), A.p)
            ):
                raise ValueError("quotient_algebra: subspace is not a two-sided ideal")
    return Q, proj, sect


def _trace_kernel(A: OrdinaryAlgebra) -> Subspace:
    # G[a, b] = trace of left multiplication by e_a e_b
    t = np.array([int(np.trace(A.left_mult(la.eye(A.dim)[j]))) % A.p for j in range(A.dim)], dtype=np.int64)
    G = np.einsum("abj,j->ab", A.mult, t) % A.p
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
# polynomial helpers over GF(p), used only for splitting central elements


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


def _split_roots(f, p, rng, budget=64):
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
        raise UnsplitFactorError("minimal polynomial does not split over GF(p)")
    for _ in range(budget):
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
            return sorted(_split_roots(d, p, rng, budget) + _split_roots(q, p, rng, budget))
    raise UnsplitFactorError("root splitting exceeded the retry budget")


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
        mat = np.einsum("a,aij->ij", la.as_field(a, self.algebra.p), self.action) % self.algebra.p
        return la.matmul(mat, v, self.algebra.p)

    def action_of(self, a) -> np.ndarray:
        return np.einsum("a,aij->ij", la.as_field(a, self.algebra.p), self.action) % self.algebra.p

    def validate(self) -> list[str]:
        A, p = self.algebra, self.algebra.p
        bad = []
        if self.dim == 0:
            return bad
        if np.any(self.action_of(A.unit) != la.eye(self.dim)):
            bad.append("unit does not act as identity")
        for a in range(A.dim):
            for b in range(A.dim):
                ab = A.mult[a, b]
                lhs = self.action_of(ab)
                rhs = la.matmul(self.action[b], self.action[a], p)
                if np.any(lhs != rhs):
                    bad.append(f"action breaks associativity at ({a},{b})")
        return bad


def zero_module(A: OrdinaryAlgebra) -> FDModule:
    return FDModule(A, 0, np.zeros((A.dim, 0, 0), dtype=np.int64), label="0")


def regular_module(A: OrdinaryAlgebra) -> FDModule:
    action = np.stack([A.right_mult(la.eye(A.dim)[a]) for a in range(A.dim)])
    return FDModule(A, A.dim, action, label=A.label or "A")


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


def submodule(M: FDModule, vectors, label="") -> tuple[FDModule, np.ndarray]:
    """Submodule generated by the given vectors; returns (module, inclusion)."""
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
        img = la.matmul(M.action[a], incl, p)
        coords = la.solve_many(incl, img, p)
        if coords is None:
            raise RuntimeError("submodule: generated span is not action-closed")
        action[a] = coords
    return FDModule(M.algebra, d, action, label=label), incl


def subspace_module(M: FDModule, sub: Subspace, label="") -> tuple[FDModule, np.ndarray]:
    """The subspace (assumed action-stable) as a module with inclusion."""
    return submodule(M, list(sub.basis) if sub.dim else [], label=label)


def quotient_module(M: FDModule, sub: Subspace, label="") -> tuple[FDModule, np.ndarray]:
    """M / sub for an action-stable subspace; returns (module, projection)."""
    p = M.algebra.p
    proj, sect = la.quotient_basis(sub)
    q = proj.shape[0]
    action = np.zeros((M.algebra.dim, q, q), dtype=np.int64)
    for a in range(M.algebra.dim):
        action[a] = la.matmul(proj, la.matmul(M.action[a], sect, p), p)
    return FDModule(M.algebra, q, action, label=label), proj


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
    rows, right = la.relations(np.swapaxes(N.action, 0, 1), np.transpose(M.action, (2, 0, 1)), p)
    rows += right
    del right
    ker = la.kernel(rows[rows.any(axis=1)], p)
    return la.MapSpace(p, N.dim, M.dim, ker.basis, ker.pivots)


def dual_module(M: FDModule, label="") -> FDModule:
    """k-dual as a module over the opposite algebra."""
    op = M.algebra.opposite()
    action = np.stack([M.action[a].T.copy() for a in range(op.dim)]) if M.dim else np.zeros(
        (op.dim, 0, 0), dtype=np.int64
    )
    return FDModule(op, M.dim, action % M.algebra.p, label=label or ("D(" + M.label + ")"))


# ---------------------------------------------------------------------------
# simples and peirce decomposition


def _center(A: OrdinaryAlgebra) -> np.ndarray:
    rows = []
    for a in range(A.dim):
        e = la.eye(A.dim)[a]
        rows.append((A.left_mult(e) - A.right_mult(e)) % A.p)
    big = np.concatenate(rows, axis=0)
    return la.kernel(big, A.p).basis


def _block_split(A: OrdinaryAlgebra, S: OrdinaryAlgebra, rng, budget=40):
    """Central primitive idempotents of the semisimple algebra S."""
    center = _center(S)
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
        for _ in range(budget):
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
            raise UnsplitFactorError("central splitting exceeded the retry budget")
    return finished


def _minpoly_in_block(S: OrdinaryAlgebra, u, z) -> list[int]:
    vecs = [u.copy()]
    w = u.copy()
    while True:
        w = S.multiply(w, z)
        stacked = np.stack(vecs, axis=1)
        sol = la.solve(stacked, w, S.p)
        if sol is not None:
            return [int(-c) % S.p for c in sol] + [1]
        vecs.append(w.copy())


def _simple_of_block(S: OrdinaryAlgebra, u, rng, budget=60):
    """A simple right ideal of the split-simple block uS, with its basis."""
    p = S.p
    block_rows = [S.multiply(u, la.eye(S.dim)[a]) for a in range(S.dim)]
    B = la.span(block_rows, S.dim, p)  # basis of uS inside S
    d = B.dim
    n = int(round(d ** 0.5))
    if n * n != d:
        raise UnsplitFactorError(f"block of dimension {d} is not a matrix algebra over GF(p)")
    if n == 1:
        W = la.span([u], S.dim, p)
        return W, n
    for _ in range(budget):
        coeffs = rng.integers(0, p, size=d)
        b = (coeffs @ B.basis) % p
        f = _minpoly_in_block(S, u, b)
        try:
            roots = _split_roots(f, p, rng)
        except UnsplitFactorError:
            continue
        for lam in roots:
            # left multiplication by (b - lam u) restricted to uS
            op = (S.left_mult(b) - lam * la.eye(S.dim)) % p
            imgs = la.matmul(op, B.basis.T, p)
            coords = la.solve_many(B.basis.T, imgs, p)
            ker = la.kernel(coords, p)
            if ker.dim == n:
                W = la.span([(v @ B.basis) % p for v in ker.basis], S.dim, p)
                return W, n
    raise UnsplitFactorError("simple extraction exceeded the retry budget")


def _verify_simple(mod: FDModule) -> bool:
    p = mod.algebra.p
    for k in range(mod.dim):
        v = la.eye(mod.dim)[k]
        gen = la.span([la.matmul(mod.action[a], v, p) for a in range(mod.algebra.dim)], mod.dim, p)
        if gen.dim != mod.dim:
            return False
    return True


def _module_on_subspace(A: OrdinaryAlgebra, act_source: OrdinaryAlgebra, proj, W: Subspace, label=""):
    """Right A-module structure on W ⊆ act_source via a -> proj(a)."""
    p = A.p
    action = np.zeros((A.dim, W.dim, W.dim), dtype=np.int64)
    for a in range(A.dim):
        abar = la.matmul(proj, la.eye(A.dim)[a], p) if proj is not None else la.eye(A.dim)[a]
        R = act_source.right_mult(abar)
        imgs = la.matmul(R, W.basis.T, p)
        coords = la.solve_many(W.basis.T, imgs, p)
        if coords is None:
            raise RuntimeError("subspace is not stable under the action")
        action[a] = coords
    return FDModule(A, W.dim, action, label=label)


def simples(A: OrdinaryAlgebra, seed: int | None = None) -> list[FDModule]:
    """Complete irredundant list of simple right A-modules."""
    key = "simples"
    if key in A._cache:
        return A._cache[key]
    rng = np.random.default_rng(A.seed if seed is None else seed)
    S, proj, sect = semisimple_quotient(A)
    blocks = _block_split(A, S, rng)
    blocks.sort(key=lambda u: tuple(int(x) for x in u))
    mods = []
    block_data = []
    for u in blocks:
        W, n = _simple_of_block(S, u, rng)
        mod = _module_on_subspace(A, S, proj, W, label=f"S{len(mods)}")
        if not _verify_simple(mod):
            raise UnsplitFactorError("extracted module failed the simplicity check")
        mods.append(mod)
        block_data.append((u, W, n))
    A._cache[key] = mods
    A._cache["blocks"] = block_data
    A._cache["ss_proj"] = proj
    A._cache["ss_sect"] = sect
    return mods


def _lift_idempotents(A: OrdinaryAlgebra):
    """One primitive idempotent of A per simple, lifted from A/rad."""
    if "prim_idem" in A._cache:
        return A._cache["prim_idem"]
    simples(A)
    S, proj, sect = semisimple_quotient(A)
    p = A.p
    prims_bar = []
    for u, W, n in A._cache["blocks"]:
        # solve for e in uS acting on W as the projection onto the first basis vector
        block_rows = [S.multiply(u, la.eye(S.dim)[a]) for a in range(S.dim)]
        B = la.span(block_rows, S.dim, p)
        target = la.zeros(W.dim, W.dim)
        target[0, 0] = 1
        cols = []
        for r in range(B.dim):
            b = B.basis[r]
            R = S.right_mult(b)
            imgs = la.matmul(R, W.basis.T, p)
            coords = la.solve_many(W.basis.T, imgs, p)
            cols.append(coords.reshape(-1))
        sol = la.solve(np.stack(cols, axis=1), target.reshape(-1), p)
        if sol is None:
            raise UnsplitFactorError("no idempotent realizes the rank-one projection")
        prims_bar.append((sol @ B.basis) % p)
    # lift each to A by the Newton iteration; the error a^2 - a lies in the
    # radical, so convergence is geometric in the nilpotency index
    lifted = []
    for ebar in prims_bar:
        a = la.matmul(sect, ebar, p)
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
        e = _lift_idempotents(A)[i]
        reg = regular_module(A)
        A._cache[key] = submodule(reg, [e], label=f"P{i}")
    return A._cache[key]


def top_multiplicities(A: OrdinaryAlgebra, N: FDModule) -> list[int]:
    """Multiplicity of each simple in N / N.rad."""
    top, _ = top_of(N)
    idems = _lift_idempotents(A)
    return [la.rank(top.action_of(e), A.p) for e in idems]


@dataclass
class CoverData:
    module: FDModule
    map: np.ndarray  # cover -> N for projective covers, N -> envelope for injective
    kernel: Subspace | None


def projective_cover(N: FDModule) -> CoverData:
    """P(N) ↠ N with superfluous kernel, P(N) = ⊕ P(S_i)^{m_i}."""
    A, p = N.algebra, N.algebra.p
    if N.dim == 0:
        return CoverData(zero_module(A), la.zeros(0, 0), la.span(la.zeros(0, 0), 0, p))
    idems = _lift_idempotents(A)
    top, proj_top = top_of(N)
    pieces = []
    maps = []
    for i, e in enumerate(idems):
        e_on_top = top.action_of(e)
        img = la.span(e_on_top.T, top.dim, p)
        P, incl = projective_indecomposable(A, i)
        for row in img.basis:
            # v in N.e_i lifting the top vector `row`; map e_i a -> v.a
            lift = la.solve(proj_top, row, p)
            v = N.act(lift, e)
            pieces.append(P)
            cols = [N.act(v, incl[:, t]) for t in range(P.dim)]
            maps.append(np.stack(cols, axis=1) if cols else la.zeros(N.dim, 0))
    if not pieces:
        raise RuntimeError("projective_cover: module has empty top")
    cover, _ = direct_sum(pieces)
    cover_map = np.concatenate(maps, axis=1) % p
    if la.rank(cover_map, p) != N.dim:
        raise RuntimeError("projective_cover: structure map is not surjective")
    return CoverData(cover, cover_map, la.kernel(cover_map, p))


def injective_envelope(N: FDModule) -> CoverData:
    """N ↪ E(N), constructed as the dual of the projective cover of D(N)."""
    A = N.algebra
    dn = dual_module(N)
    cd = projective_cover(dn)
    env = dual_module(cd.module)  # module over A^{op,op} = A, same tables
    env = FDModule(A, env.dim, env.action, label=f"E({N.label})")
    emb = cd.map.T.copy() % A.p  # D of the cover map, via the evaluation iso
    if la.rank(emb, A.p) != N.dim:
        raise RuntimeError("injective_envelope: structure map is not injective")
    return CoverData(env, emb, None)


def is_projective(N: FDModule) -> bool:
    return projective_cover(N).module.dim == N.dim if N.dim else True


def is_injective(N: FDModule) -> bool:
    return injective_envelope(N).module.dim == N.dim if N.dim else True


def free_rank(N: FDModule):
    """Rank when N is free, else None."""
    A = N.algebra
    if N.dim == 0:
        return 0
    if N.dim % A.dim:
        return None
    n = N.dim // A.dim
    if not is_projective(N):
        return None
    m_free = top_multiplicities(A, regular_module(A))
    m_n = top_multiplicities(A, N)
    return n if all(mn == n * mf for mn, mf in zip(m_n, m_free)) else None


def free_basis(N: FDModule, budget: int = 64):
    """Elements g_1..g_n with (a_c) -> sum g_c . a_c an isomorphism A^n -> N.

    Returns None when N is not free.  For a free module a random generator
    tuple works with probability close to 1 over a large field; the result is
    certified by an exact rank computation, never assumed.
    """
    A, p = N.algebra, N.algebra.p
    n = free_rank(N)
    if n is None:
        return None
    if n == 0:
        return []
    rng = np.random.default_rng(A.seed + 0x5EED)
    for _ in range(budget):
        gens = [rng.integers(0, p, size=N.dim).astype(np.int64) for _ in range(n)]
        cols = []
        for g in gens:
            for a in range(A.dim):
                cols.append(la.matmul(N.action[a], g, p))
        if la.rank(np.stack(cols, axis=1), p) == N.dim:
            return gens
    return None


# ---------------------------------------------------------------------------
# split-map tests


def split_mono_check(source: FDModule, target: FDModule, g) -> bool:
    """True iff g : source -> target admits an equivariant retraction."""
    A, p = source.algebra, source.algebra.p
    hs = hom_space(target, source)
    if source.dim == 0:
        return True
    cols = [la.matmul(hs.matrix(k), g, p).reshape(-1) for k in range(hs.dim)]
    if not cols:
        return False
    return la.solve(np.stack(cols, axis=1), la.eye(source.dim).reshape(-1), p) is not None


def split_epi_check(source: FDModule, target: FDModule, g) -> bool:
    """True iff g : source -> target admits an equivariant section."""
    A, p = source.algebra, source.algebra.p
    hs = hom_space(target, source)
    if target.dim == 0:
        return True
    cols = [la.matmul(g, hs.matrix(k), p).reshape(-1) for k in range(hs.dim)]
    if not cols:
        return False
    return la.solve(np.stack(cols, axis=1), la.eye(target.dim).reshape(-1), p) is not None


def composition_length(N: FDModule) -> int:
    A = N.algebra
    idems = _lift_idempotents(A)
    total = 0
    cur = N
    while cur.dim:
        layer, _ = top_of(cur)
        total += sum(la.rank(layer.action_of(e), A.p) for e in idems)
        sub = module_times_ideal(cur, radical(A))
        cur, _ = subspace_module(cur, sub)
    return total


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


def heart_data(p: int, r0_mult, r0_unit, boundary_vectors, label="") -> HeartData:
    r0_mult = la.as_field(r0_mult, p)
    n0 = r0_mult.shape[0]
    r0 = OrdinaryAlgebra(p, n0, r0_mult, la.as_field(r0_unit, p), label=label + ".R0")
    b0 = la.span(boundary_vectors if len(boundary_vectors) else la.zeros(0, n0), n0, p)
    h0, proj, sect = quotient_algebra(r0, b0)
    h0.label = label + ".H0"
    return HeartData(r0, h0, proj, sect, b0)


def heart_of(R) -> HeartData:
    """Degree-zero data of a DG-algebra; cached on the algebra object."""
    if getattr(R, "_heart", None) is None:
        d = R.diff_mat(-1)
        R._heart = heart_data(
            R.p, R.mult_tensor(0, 0), R.unit, [d[:, j] for j in range(d.shape[1])], label=R.label
        )
        R._heart.h0.seed = getattr(R, "seed", 0)
        R._heart.r0.seed = getattr(R, "seed", 0)
    return R._heart


def restrict_to_r0(hd: HeartData, N: FDModule) -> FDModule:
    """An H0-module viewed as an R0-module along R0 ↠ H0."""
    p = hd.r0.p
    action = np.zeros((hd.r0.dim, N.dim, N.dim), dtype=np.int64)
    for a in range(hd.r0.dim):
        action[a] = N.action_of(la.matmul(hd.project, la.eye(hd.r0.dim)[a], p))
    return FDModule(hd.r0, N.dim, action, label=N.label)


def pi_shriek(hd: HeartData, K: FDModule) -> tuple[FDModule, Subspace]:
    """The H0-module {k in K : k . B0 = 0}, with its subspace inside K.

    For K injective over R0 the result is injective over H0.
    """
    p = hd.r0.p
    if K.dim == 0:
        return zero_module(hd.h0), la.span(la.zeros(0, 0), 0, p)
    rows = [K.action_of(b) for b in hd.boundaries.basis]
    if rows:
        ann = la.kernel(np.concatenate(rows, axis=0), p)
    else:
        ann = la.span(la.eye(K.dim), K.dim, p)
    action = np.zeros((hd.h0.dim, ann.dim, ann.dim), dtype=np.int64)
    for a in range(hd.h0.dim):
        mat = K.action_of(hd.lift[:, a])
        imgs = la.matmul(mat, ann.basis.T, p)
        coords = la.solve_many(ann.basis.T, imgs, p)
        if coords is None:
            raise RuntimeError("annihilator of the boundaries is not H0-stable")
        action[a] = coords
    return FDModule(hd.h0, ann.dim, action, label=f"pi!({K.label})"), ann

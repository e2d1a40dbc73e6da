"""Finite-dimensional connective DG-algebras, right DG-modules and the
triangulated toolkit: cohomology, shifts, cones, truncations, Hom and tensor
complexes, dualities and the injective-producing functor psi.

Grading is cohomological; differentials raise degree by one.  The algebra is
concentrated in degrees [w, 0] with w <= 0, which makes the standard
t-structure available and forces the degree-zero part R0 to consist of
cocycles.

One coherent Koszul sign system is fixed once and used by every
construction, so that independently computed Hom and Tor groups agree on
the nose:

  shift       d_{M[n]}   = (-1)^n d_M, action unchanged
  cone(f)     C^i = N^i + M^{i+1},  d(n, m) = (d n + f m, -d m)
  Hom complex (d phi)     = d_N phi - (-1)^{|phi|} phi d_M
  tensor      d(m (x) l)  = d m (x) l + (-1)^{|m|} m (x) d l
  opposite    a *op b     = (-1)^{|a||b|} b a
  dual        d(f)        = -(-1)^{|f|} f d_M,  (f . a)(m) = (-1)^{|a||f|} f(m a)

Any globally consistent alternative changes no dimension output.

Direct sums have one layout, built by block_sum.  The block sum of parts
(X_g, n_g) is the sum of the X_g[n_g]: degree i has the bases of the
X_g^{i+n_g}, grouped by part in list order; d and the action are
block-diagonal, and part g's block of d is signed (-1)^{n_g} as in shift.
diff[i] is stored iff i and i + 1 are degrees of the sum, act[(i, j)] iff
i and i + j are.  free_module (the R[-s_g], plus twists), cone_module
(N and M[1], plus f) and psi_sum (copies of psi pieces) are block sums, and
block_sum_cohomology assembles H of one whose d couples no two parts.
free_module and psi_sum record their parts in DGModule.parts, which
free_map and the strict map into a psi term read; cone_module records none,
so no model keeps the models before it alive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import exactla as la
from . import heartkit as hk

NEG_INF = -math.inf
POS_INF = math.inf


# ---------------------------------------------------------------------------
# core types


class Graded:
    """Degree reads shared by algebras, modules and complexes over k: dims
    maps a degree to its dimension and diff[i] is d : X^i -> X^{i+1}."""

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def degrees(self) -> list[int]:
        return sorted(d for d, n in self.dims.items() if n)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def lo(self) -> int:
        degs = self.degrees()
        return degs[0] if degs else 0

    def hi(self) -> int:
        degs = self.degrees()
        return degs[-1] if degs else 0

    def diff_mat(self, i: int) -> np.ndarray:
        d = self.diff.get(i)
        if d is None:
            d = la.zeros(self.dim(i + 1), self.dim(i))
        return d


@dataclass(eq=False)
class DGAlgebra(Graded):
    """Structure-constant tables of a connective DG-algebra over GF(p).

    mult[(i, j)] has shape (dim_i, dim_j, dim_{i+j}); diff[i] is the matrix
    of the differential R^i -> R^{i+1}; unit is a degree-zero vector.
    Components live in degrees [w, 0] only.
    """

    p: int
    dims: dict[int, int]
    mult: dict[tuple[int, int], np.ndarray]
    diff: dict[int, np.ndarray]
    unit: np.ndarray
    label: str = ""
    seed: int = 0
    _memo: dict = field(default_factory=dict, repr=False)
    _heart: hk.HeartData | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # exactla's inverses need p prime, the trace-form radical p > dim R^0;
        # the overflow clause keeps one product of two entries below p in int64,
        # as a chunk of exactla's contractions and an entrywise product need
        p, n = self.p, self.total_dim
        if not la.is_prime(p):
            raise hk.ConfigurationError(f"p must be prime, got p={p}")
        if p <= self.dim(0):
            raise hk.ConfigurationError(f"p must exceed dim R^0 = {self.dim(0)}, got p={p}")
        if p * p * max(n, 1) >= 2**63:
            raise hk.ConfigurationError(f"p^2 * max(total_dim, 1) must be below 2^63, got p={p}, total_dim={n}")

    def mult_tensor(self, i: int, j: int) -> np.ndarray:
        t = self.mult.get((i, j))
        if t is None:
            t = np.zeros((self.dim(i), self.dim(j), self.dim(i + j)), dtype=np.int64)
        return t

    def multiply(self, u, i: int, v, j: int) -> np.ndarray:
        return la.matmul(self.left_mult_matrix(u, i, j), la.as_field(v, self.p), self.p)

    def left_mult_matrix(self, u, i: int, j: int) -> np.ndarray:
        """Matrix of R^j -> R^{i+j}, x -> u x, for u in R^i."""
        return la.contract("a,abc->cb", la.as_field(u, self.p), self.mult_tensor(i, j), self.p)

    def regular_module(self) -> "DGModule":
        if "regular" not in self._memo:
            self._memo["regular"] = DGModule(
                self, dict(self.dims), dict(self.diff), dict(self.mult), label=self.label or "R"
            )
        return self._memo["regular"]

    def opposite(self) -> "DGAlgebra":
        if "opposite" not in self._memo:
            mult = {}
            for (i, j), t in self.mult.items():
                sign = -1 if (i * j) % 2 else 1
                mult[(j, i)] = (sign * np.swapaxes(t, 0, 1)) % self.p
            op = DGAlgebra(
                self.p, dict(self.dims), mult, {k: v.copy() for k, v in self.diff.items()},
                self.unit.copy(), label=self.label + "^op", seed=self.seed,
            )
            op._memo["opposite"] = self
            self._memo["opposite"] = op
        return self._memo["opposite"]


@dataclass
class DGModule(Graded):
    """A right DG-module given by per-degree dimensions, differentials and
    action tables act[(i, j)] of shape (dim_i, dimR_j, dim_{i+j})."""

    algebra: DGAlgebra
    dims: dict[int, int]
    diff: dict[int, np.ndarray]
    act: dict[tuple[int, int], np.ndarray]
    label: str = ""
    # the (X_g, n_g) a free module or a psi sum is the block sum of (module
    # docstring); set by free_module and psi_sum only
    parts: list | None = field(default=None, repr=False, compare=False)
    # psi(K)'s component spaces Hom_{R0}(R^{-i}, K) by degree i; set by psi
    _psi_spaces: dict | None = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.algebra.p

    def act_tensor(self, i: int, j: int) -> np.ndarray:
        t = self.act.get((i, j))
        if t is None:
            t = np.zeros((self.dim(i), self.algebra.dim(j), self.dim(i + j)), dtype=np.int64)
        return t

    def action(self, m, i: int, r, j: int) -> np.ndarray:
        right = la.contract("a,abc->bc", la.as_field(m, self.p), self.act_tensor(i, j), self.p)
        return la.matmul(la.as_field(r, self.p), right, self.p)


@dataclass
class DGMorphism:
    source: DGModule
    target: DGModule
    blocks: dict[int, np.ndarray]  # degree i -> matrix (target dim_i, source dim_i)
    label: str = ""

    @property
    def p(self) -> int:
        return self.source.p

    def block(self, i: int) -> np.ndarray:
        b = self.blocks.get(i)
        if b is None:
            b = la.zeros(self.target.dim(i), self.source.dim(i))
        return b

    def apply(self, v, i: int) -> np.ndarray:
        return la.matmul(self.block(i), v, self.p)


def compose(g: DGMorphism, f: DGMorphism) -> DGMorphism:
    """g after f."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise ValueError("compose: middle modules differ")
    degs = set(f.blocks) | set(g.blocks)
    blocks = {
        i: la.matmul(g.block(i), f.block(i), f.p)
        for i in degs
        if f.source.dim(i) and g.target.dim(i)
    }
    return DGMorphism(f.source, g.target, blocks)


def zero_module(R: DGAlgebra) -> DGModule:
    return DGModule(R, {}, {}, {}, label="0")


# ---------------------------------------------------------------------------
# validation: each identity is one tensor equation per degree pair or triple,
# each contraction reduced mod p before terms combine; failures are read back
# where the sides differ.  t(i, j)[a, b] is x_a r_b, d(i) leaves degree i.

_ASSOC_BLOCK = 1 << 20  # entries of one associativity slab, to bound memory


def _differ(lhs, rhs, p):
    """Index tuples over all but the last axis where lhs != rhs mod p."""
    return np.argwhere(((lhs - rhs) % p).any(axis=-1))


def _dd_failures(X) -> list[str]:
    return [f"d o d != 0 at degree {i}" for i in X.degrees() if np.any(la.matmul(X.diff_mat(i + 1), X.diff_mat(i), X.p))]


def _leibniz_failures(t, d, dR, i, j, p):
    lhs = la.contract("abx,cx->abc", t(i, j), d(i + j), p)
    rhs = la.contract("xa,xbc->abc", d(i), t(i + 1, j), p) + (-1) ** i * la.contract("yb,ayc->abc", dR(j), t(i, j + 1), p)
    return _differ(lhs, rhs, p)


def _assoc_failures(t, mR, i, j, k, p):
    ab, bc, a_bc, ab_c = t(i, j), mR(j, k), t(i, j + k), t(i + j, k)
    step = max(1, _ASSOC_BLOCK // max(1, bc.shape[0] * bc.shape[1] * a_bc.shape[2]))
    out = []
    for a0 in range(0, ab.shape[0], step):
        lhs = la.contract("abx,xcy->abcy", ab[a0 : a0 + step], ab_c, p)
        rhs = la.contract("bcx,axy->abcy", bc, a_bc[a0 : a0 + step], p)
        out += [(a0 + a, b, c) for a, b, c in _differ(lhs, rhs, p)]
    return out


def validate_algebra(R: DGAlgebra) -> list[str]:
    """Failures of the DG-algebra identities, each checked as a tensor
    equation mod p with m_ij = mult_tensor(i, j), d_i = diff_mat(i), unit u:

      d o d          d_{i+1} d_i = 0
      unit           einsum("a,abc->bc", u, m_0j) = 1 = einsum("b,abc->ac", u, m_j0)
      Leibniz        einsum("abx,cx->abc", m_ij, d_{i+j})
                       = einsum("xa,xbc->abc", d_i, m_{i+1,j}) + (-1)^i einsum("yb,ayc->abc", d_j, m_{i,j+1})
      associativity  einsum("abx,xcy->abcy", m_ij, m_{i+j,k}) = einsum("bcx,axy->abcy", m_jk, m_{i,j+k})
    """
    bad = [f"component in positive degree {i}" for i in R.degrees() if i > 0]
    if R.dim(0) == 0:
        return bad + ["no degree-zero component"]
    p, degs, m, u = R.p, R.degrees(), R.mult_tensor, la.as_field(R.unit, R.p)
    bad += _dd_failures(R)
    for j in degs:
        left = (la.contract("a,abc->bc", u, m(0, j), p) != la.eye(R.dim(j))).any(axis=1)
        right = (la.contract("b,abc->ac", u, m(j, 0), p) != la.eye(R.dim(j))).any(axis=1)
        for b in range(R.dim(j)):
            bad += [f"unit fails on {side} of basis ({j},{b})" for side, x in (("left", left), ("right", right)) if x[b]]
    for i in degs:
        for j in degs:
            bad += [f"Leibniz fails at degrees ({i},{j}) basis ({a},{b})"
                    for a, b in _leibniz_failures(m, R.diff_mat, R.diff_mat, i, j, p)]
    for i in degs:
        for j in degs:
            for k in degs:
                bad += [f"associativity fails at ({i},{j},{k}) basis ({a},{b},{c})"
                        for a, b, c in _assoc_failures(m, m, i, j, k, p)]
    return bad


def validate_module(M: DGModule) -> list[str]:
    """Failures of the right DG-module identities, each checked as a tensor
    equation mod p with a_ij = act_tensor(i, j), d_i = diff_mat(i) and the
    algebra's product m_jk, differential d^R and unit u:

      d o d          d_{i+1} d_i = 0
      unit           einsum("b,abc->ac", u, a_i0) = 1
      Leibniz        einsum("abx,cx->abc", a_ij, d_{i+j})
                       = einsum("xa,xbc->abc", d_i, a_{i+1,j}) + (-1)^i einsum("yb,ayc->abc", d^R_j, a_{i,j+1})
      associativity  einsum("abx,xcy->abcy", a_ij, a_{i+j,k}) = einsum("bcx,axy->abcy", m_jk, a_{i,j+k})

    An associativity failure is reported once per failing basis triple.
    """
    R, p = M.algebra, M.p
    bad, u = _dd_failures(M), la.as_field(R.unit, p)
    for i in M.degrees():
        unit = la.contract("b,abc->ac", u, M.act_tensor(i, 0), p)
        bad += [f"unit fails on basis ({i},{m})" for (m,) in _differ(unit, la.eye(M.dim(i)), p)]
    for i in M.degrees():
        for j in R.degrees():
            bad += [f"module Leibniz fails at ({i},{j}) basis ({m},{r})"
                    for m, r in _leibniz_failures(M.act_tensor, M.diff_mat, R.diff_mat, i, j, p)]
            for k in R.degrees():
                fails = _assoc_failures(M.act_tensor, R.mult_tensor, i, j, k, p)
                bad += [f"action associativity fails at ({i},{j},{k})"] * len(fails)
    return bad


def validate_morphism(f: DGMorphism) -> list[str]:
    """Failures of a strict DG-module map f : M -> N with blocks f_i, each
    checked as a tensor equation mod p with a^M, a^N the action tensors:

      chain map  f_{i+1} d^M_i = d^N_i f_i
      R-linear   einsum("mrx,yx->mry", a^M_ij, f_{i+j}) = einsum("xm,xry->mry", f_i, a^N_ij)
    """
    M, N, p = f.source, f.target, f.p
    bad = []
    if M.algebra is not N.algebra and M.algebra.dims != N.algebra.dims:
        bad.append("source and target over different algebras")
    for i in set(M.degrees()) | set(N.degrees()):
        if np.any(la.matmul(f.block(i + 1), M.diff_mat(i), p) != la.matmul(N.diff_mat(i), f.block(i), p)):
            bad.append(f"not a chain map at degree {i}")
    for i in M.degrees():
        for j in M.algebra.degrees():
            lhs = la.contract("mrx,yx->mry", M.act_tensor(i, j), f.block(i + j), p)
            rhs = la.contract("xm,xry->mry", f.block(i), N.act_tensor(i, j), p)
            bad += [f"not R-linear at ({i},{j}) basis ({m},{r})" for m, r in _differ(lhs, rhs, p)]
    return bad


def validate(x) -> list[str]:
    if isinstance(x, DGAlgebra):
        return validate_algebra(x)
    if isinstance(x, DGModule):
        return validate_module(x)
    if isinstance(x, DGMorphism):
        return validate_morphism(x)
    raise TypeError(f"cannot validate {type(x).__name__}")


# ---------------------------------------------------------------------------
# cohomology


@dataclass
class CohomologyData:
    """Graded cohomology with chosen cocycle representatives.

    reps[i] has the representatives as columns; project(i, z) gives the
    class coordinates of a cocycle z.  When built from a DG-module together
    with the algebra's own cohomology, action[(i, j)] holds the induced
    right action of H^j(R) on H^i(M).  Only the degrees in the inclusive
    window were computed; dim reads 0 outside it.
    """

    p: int
    dims: dict[int, int]
    reps: dict[int, np.ndarray]
    cycle_basis: dict[int, la.Subspace]
    class_proj: dict[int, np.ndarray]  # (h_i, dim Z^i): class coords from cycle coords
    action: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    window: tuple = (NEG_INF, POS_INF)

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    @property
    def sup(self):
        degs = [d for d, n in self.dims.items() if n]
        return max(degs) if degs else NEG_INF

    @property
    def inf(self):
        degs = [d for d, n in self.dims.items() if n]
        return min(degs) if degs else POS_INF

    def is_acyclic(self) -> bool:
        return not any(self.dims.values())

    def project(self, i: int, z) -> np.ndarray:
        """Class coordinates of a cocycle z in degree i; a matrix z holds
        cocycles as columns and gets their coordinates as columns."""
        lo, hi = self.window
        if not lo <= i <= hi:
            raise ValueError(f"degree {i} lies outside the cohomology window [{lo}, {hi}]")
        z = np.asarray(z)
        Z = self.cycle_basis.get(i)
        if Z is None:
            if self.dim(i):
                raise ValueError(f"degree {i} has classes but no cycle basis to project onto")
            return np.zeros((0,) + z.shape[1:], dtype=np.int64)
        coords = Z.coordinates(z.T)
        if coords is None:
            raise ValueError(f"vector is not a cocycle in degree {i}")
        return la.matmul(self.class_proj.get(i, la.zeros(0, Z.dim)), coords.T, self.p)

    def rep(self, i: int, coords) -> np.ndarray:
        return la.matmul(self.reps[i], coords, self.p)


def cohomology(M, with_action: bool = True, window: tuple | None = None) -> CohomologyData:
    """H(M) with canonical representatives; M is a DGModule or a KComplex.

    For a DGModule the induced right action of H(R) on H(M) is computed by
    acting on representatives and projecting.  window = (lo, hi) is
    inclusive, either end may be infinite, and confines cycles, boundaries,
    representatives, class projections and the action to degrees i with
    lo <= i <= hi (action[(i, j)] needs i + j inside too).  A degree's data
    depend only on d_{i-1}, d_i and its own action, so they equal the full
    computation's; a skipped degree still checks d_i d_{i-1} = 0.
    """
    p = M.p
    lo, hi = window or (NEG_INF, POS_INF)
    dims, reps, cyc, cproj = {}, {}, {}, {}
    for i in M.degrees():
        if not lo <= i <= hi:
            if np.any(la.matmul(M.diff_mat(i), M.diff_mat(i - 1), p)):
                raise RuntimeError("boundary is not a cycle; differential tables corrupt")
            continue
        Z = la.kernel(M.diff_mat(i), p)
        B = la.span(M.diff_mat(i - 1).T, M.dim(i), p)
        # B inside Z, in Z's coordinates: B's pivots are among Z's, so bc is in RREF
        bc = Z.coordinates(B.basis)
        if bc is None:
            raise RuntimeError("boundary is not a cycle; differential tables corrupt")
        Bin = la.Subspace(p, Z.dim, bc, [Z.pivots.index(c) for c in B.pivots])
        proj, sect = la.quotient_basis(Bin)
        cyc[i] = Z
        if proj.shape[0]:
            dims[i], cproj[i] = proj.shape[0], proj
            reps[i] = la.matmul(Z.basis.T, sect, p)  # columns are representatives
    data = CohomologyData(p, dims, reps, cyc, cproj, window=(lo, hi))
    if with_action and isinstance(M, DGModule):
        _fill_action(M, data)
    return data


def algebra_cohomology(R: DGAlgebra) -> CohomologyData:
    """H(R) with its multiplicative structure, cached on the algebra."""
    if "coh" not in R._memo:
        R._memo["coh"] = cohomology(R.regular_module())
    return R._memo["coh"]


def _fill_action(M: DGModule, data: CohomologyData):
    # H(R) acts through its full data; only H(R) itself may use its own
    full = data.window == (NEG_INF, POS_INF) and M is M.algebra.regular_module()
    cohR = data if full else algebra_cohomology(M.algebra)
    p = M.p
    for i, hi in data.dims.items():
        for j, hj in cohR.dims.items():
            if data.dim(i + j) == 0:
                continue
            # the products rep_a . rep_b as columns, in (a, b) order
            prod = la.contract("xa,xyc->ayc", data.reps[i], M.act_tensor(i, j), p)
            prod = la.contract("yb,ayc->cab", cohR.reps[j], prod, p)
            classes = data.project(i + j, prod.reshape(-1, hi * hj))
            data.action[(i, j)] = classes.T.reshape(hi, hj, -1)


def cohomology_map(f: DGMorphism, i: int, coh_src: CohomologyData, coh_tgt: CohomologyData) -> np.ndarray:
    """Matrix of H^i(f) in the chosen class bases."""
    hs, ht = coh_src.dim(i), coh_tgt.dim(i)
    if hs == 0 or ht == 0:
        return la.zeros(ht, hs)
    return coh_tgt.project(i, f.apply(coh_src.reps[i], i))


def heart_module(M: DGModule, i: int, coh: CohomologyData | None = None) -> hk.FDModule:
    """H^i(M) as a right module over H0 = H0(R)."""
    return heart_classes(M.algebra, i, coh or cohomology(M), f"H^{i}({M.label})")


def heart_classes(R: DGAlgebra, i: int, coh: CohomologyData, label: str) -> hk.FDModule:
    """Degree i of the cohomology data coh of an R-module, as a right
    H0(R)-module; it reads only coh.dims and coh.action[(i, 0)]."""
    hd = hk.heart_of(R)
    h = coh.dim(i)
    # H0 basis classes are exactly cohR's degree-zero classes; action[b] = t[:, b, :].T
    t = coh.action.get((i, 0), np.zeros((h, hd.h0.dim, h), dtype=np.int64))
    action = np.transpose(t, (1, 2, 0)).copy()
    return hk.FDModule(hd.h0, h, action, label=label)


# ---------------------------------------------------------------------------
# shift, cone, truncation


def shift(M: DGModule, n: int) -> DGModule:
    """M[n] with (M[n])^i = M^{i+n} and d = (-1)^n d_M."""
    if n == 0:
        return M
    sign = -1 if n % 2 else 1
    dims = {i - n: d for i, d in M.dims.items()}
    diff = {i - n: (sign * m) % M.p for i, m in M.diff.items()}
    act = {(i - n, j): t for (i, j), t in M.act.items()}
    return DGModule(M.algebra, dims, diff, act, label=f"{M.label}[{n}]")


def cone_module(f: DGMorphism) -> DGModule:
    """The mapping cone C = N + M[1], a block sum (module docstring), with
    d(n, m) = (d n + f m, -d m): f's blocks are added into d."""
    M, N = f.source, f.target
    C, offs = block_sum(M.algebra, [(N, 0), (M, 1)])
    for i, b in f.blocks.items():
        if b.size:
            r, c = offs[(i, 0)], offs[(i - 1, 1)]
            C.diff[i - 1][r : r + b.shape[0], c : c + b.shape[1]] = b
    C.label = f"cone({f.label or f.source.label + '->' + f.target.label})"
    return C


def cone_inclusion(f: DGMorphism, C: DGModule) -> DGMorphism:
    """The strict inclusion of the target N of f into C = cone_module(f)."""
    M, N = f.source, f.target
    return DGMorphism(N, C, {i: np.concatenate([la.eye(N.dim(i)), la.zeros(M.dim(i + 1), N.dim(i))]) for i in C.dims})


def cone(f: DGMorphism):
    """The mapping cone with the inclusion of the target and the projection
    to M[1]: returns (C, include: N -> C, project: C -> M[1])."""
    M, N = f.source, f.target
    C = cone_module(f)
    inc = cone_inclusion(f, C)
    prj = DGMorphism(C, shift(M, 1), {i: np.concatenate([la.zeros(M.dim(i + 1), N.dim(i)), la.eye(M.dim(i + 1))], axis=1) for i in C.dims})
    return C, inc, prj


def cocone(f: DGMorphism):
    """cone(f)[-1] with its strict projection onto the source of f.

    For f : P -> M this produces the triangle  cocone -> P -> M  used by
    resolution steps; returns (cocone, project: cocone -> P).
    """
    N = shift(cone_module(f), -1)
    N.label = f"cocone({f.label or f.source.label + '->' + f.target.label})"
    P = f.source
    blocks = {}
    for i in N.degrees():
        cM = f.target.dim(i - 1)
        blocks[i] = np.concatenate([la.zeros(P.dim(i), cM), la.eye(P.dim(i))], axis=1)
    return N, DGMorphism(N, P, blocks)


def truncate(M: DGModule, n: int, side: str):
    """Smart truncation for the standard t-structure.

    side='below' is the DG-submodule with components M^i for i < n and
    ker(d_n) in degree n, returned with its inclusion; side='above' is the
    quotient by it, returned with the projection.  Degree n of the
    submodule is carried by heartkit's restriction read: images in M^n are
    read at the pivots of ker(d_n).  Degree n of the quotient is carried
    through the projection and section of M^n / ker(d_n).
    """
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    p, R = M.p, M.algebra
    below = side == "below"
    Z = la.kernel(M.diff_mat(n), p)
    proj_n, sect_n = la.quotient_basis(Z)
    # each kept degree i as the columns basis[i] in M^i, and the blocks of
    # the inclusion (below) or the projection (above)
    basis = {i: la.eye(M.dim(i)) for i in M.degrees() if (i < n if below else i > n)}
    blocks = dict(basis)
    if below and Z.dim:
        basis[n] = blocks[n] = Z.basis.T.copy()
    elif not below and proj_n.shape[0]:
        basis[n], blocks[n] = sect_n, proj_n
    dims = {i: b.shape[1] for i, b in basis.items()}

    def read(k, cols):
        """Columns of M^k in the coordinates of degree k of the result."""
        if k != n:
            return cols
        return hk.coordinates(Z, cols, "truncate") if below else la.matmul(proj_n, cols, p)

    # d_n vanishes on ker(d_n); every other kept degree keeps its differential
    diff = {
        i: read(i + 1, la.matmul(M.diff_mat(i), basis[i], p))
        for i in dims
        if not (below and i == n) and (i + 1 != n or n in dims)
    }
    act = {}
    for i in dims:
        for j in R.degrees():
            if i + j in dims:
                # t[x, b, y] is (basis_x . r_b)[y]; read acts on columns y
                t = la.contract("xk,xby->kby", basis[i], M.act_tensor(i, j), p)
                act[(i, j)] = np.moveaxis(read(i + j, np.moveaxis(t, 0, -1)), -1, 0)
    if below:
        S = DGModule(R, dims, diff, act, label=f"trunc<= {n}({M.label})")
        return S, DGMorphism(S, M, blocks)
    Q = DGModule(R, dims, diff, act, label=f"trunc> {n}({M.label})")
    return Q, DGMorphism(M, Q, blocks)


def is_quasi_iso(f: DGMorphism) -> bool:
    return cohomology(cone_module(f), with_action=False).is_acyclic()


def is_acyclic(M: DGModule) -> bool:
    return cohomology(M, with_action=False).is_acyclic()


# ---------------------------------------------------------------------------
# block sums and free modules


def block_sum(R: DGAlgebra, parts: list) -> tuple[DGModule, dict]:
    """The block sum of X_g[n_g] over parts (X_g, n_g), and its offsets.

    The layout is the module docstring's; offsets[(i, g)] is the first
    basis index of part g in degree i, for every degree i of the sum.  The
    arrays are fresh and no part is modified, so parts may be shared ones
    such as R.regular_module() or a psi_piece.  Each distinct (X, n) is
    shifted once; only the entries a part has are written.
    """
    shifted = {}
    for X, n in parts:
        if (id(X), n) not in shifted:
            shifted[(id(X), n)] = shift(X, n)
    mods = [shifted[(id(X), n)] for X, n in parts]
    offsets, dims = {}, {}
    for i in sorted({i for Y in mods for i in Y.degrees()}):
        dims[i] = 0
        for g, Y in enumerate(mods):
            offsets[(i, g)], dims[i] = dims[i], dims[i] + Y.dim(i)
    diff = {i: la.zeros(dims[i + 1], dims[i]) for i in dims if i + 1 in dims}
    act = {(i, j): np.zeros((dims[i], R.dim(j), dims[i + j]), dtype=np.int64)
           for i in dims for j in R.degrees() if i + j in dims}
    for g, Y in enumerate(mods):
        for i, m in Y.diff.items():
            if m.size:
                r, c = offsets[(i + 1, g)], offsets[(i, g)]
                diff[i][r : r + m.shape[0], c : c + m.shape[1]] = m
        for (i, j), t in Y.act.items():
            if t.size:
                a, c = offsets[(i, g)], offsets[(i + j, g)]
                act[(i, j)][a : a + t.shape[0], :, c : c + t.shape[2]] = t
    return DGModule(R, dims, diff, act), offsets


def block_sum_cohomology(R: DGAlgebra, parts: list) -> CohomologyData:
    """H of a block sum of X_g[n_g] whose differential couples no two parts,
    from parts (H(X_g), n_g), each computed over all degrees with the action.

    A cycle or a boundary of such a sum is a sum of the parts' ones, and
    the sign (-1)^{n_g} on d changes neither.  The canonical basis of a
    block sum is the block sum of the canonical bases, so every field of
    H is block-diagonal copies of the parts' fields in degree i + n_g:
    cycle bases with each part's pivots past the parts before it, reps,
    class_proj and the H(R) action class by class.  This is what
    cohomology() computes on the sum itself.
    """
    p = R.p
    empty = la.Subspace(p, 0, la.zeros(0, 0), [])
    coh = CohomologyData(p, {}, {}, {}, {})
    for i in sorted({i - n for H, n in parts for i in H.cycle_basis}):
        Zs = [H.cycle_basis.get(i + n, empty) for H, n in parts]
        offsets = itertools.accumulate((Z.ambient_dim for Z in Zs), initial=0)
        pivots = [o + c for o, Z in zip(offsets, Zs) for c in Z.pivots]
        coh.cycle_basis[i] = la.Subspace(p, sum(Z.ambient_dim for Z in Zs), _block_diag([Z.basis for Z in Zs]), pivots)
        if h := sum(H.dim(i + n) for H, n in parts):
            coh.dims[i] = h
            coh.reps[i] = _block_diag([H.reps.get(i + n, la.zeros(Z.ambient_dim, 0)) for (H, n), Z in zip(parts, Zs)])
            coh.class_proj[i] = _block_diag([H.class_proj.get(i + n, la.zeros(0, Z.dim)) for (H, n), Z in zip(parts, Zs)])
    for i in coh.dims:
        for j, hj in algebra_cohomology(R).dims.items():
            if coh.dim(i + j):
                coh.action[(i, j)] = _block_diag([
                    H.action[(i + n, j)] if (i + n, j) in H.action
                    else np.zeros((H.dim(i + n), hj, H.dim(i + j + n)), dtype=np.int64)
                    for H, n in parts
                ])
    return coh


def _block_diag(parts) -> np.ndarray:
    """The block sum of matrices, or of action tensors (x, b, y) along x and y."""
    rows, cols = sum(a.shape[0] for a in parts), sum(a.shape[-1] for a in parts)
    out = np.zeros((rows,) + parts[0].shape[1:-1] + (cols,), dtype=np.int64)
    r = c = 0
    for a in parts:
        out[r : r + a.shape[0], ..., c : c + a.shape[-1]] = a
        r, c = r + a.shape[0], c + a.shape[-1]
    return out


def free_module(R: DGAlgebra, gen_degrees: list[int], twists: dict | None = None, label="") -> DGModule:
    """The block sum of R[-s_g] over generator degrees s_g (module
    docstring), with optional lower-triangular twists: twists[(h, g)] is an
    R-vector in degree s_g + 1 - s_h giving the e_h-coefficient of d(e_g),
    added into d.  Without twists this is a plain free module.
    """
    p = R.p
    parts = [(R.regular_module(), -s) for s in gen_degrees]
    F, offs = block_sum(R, parts)
    for (h, g), z in (twists or {}).items():
        s, zdeg = gen_degrees[g], gen_degrees[g] + 1 - gen_degrees[h]
        for k in R.degrees():
            # d(e_g . b) includes e_h . (z b) for b in R^k, in degree s + k
            rows = R.dim(zdeg + k)
            if rows:
                r0, c0 = offs[(s + k + 1, h)], offs[(s + k, g)]
                blk = F.diff[s + k][r0 : r0 + rows, c0 : c0 + R.dim(k)]
                blk[...] = (blk + R.left_mult_matrix(z, zdeg, k)) % p
    F.label = label or f"free{gen_degrees}"
    F.parts = parts
    return F


def free_cohomology(R: DGAlgebra, s: int, n: int) -> CohomologyData:
    """H(R^n[-s]), a block sum (module docstring): block_sum_cohomology of
    n copies of H(R) shifted by -s."""
    return block_sum_cohomology(R, [(algebra_cohomology(R), -s)] * n)


def free_map(F: DGModule, M: DGModule, images: list[np.ndarray]) -> DGMorphism:
    """The R-linear map F -> M with e_g . b -> images[g] . b, for F =
    free_module(R, s_g): part g is (R, -s_g), and in degree i its block
    starts past the R^{i - s_h} of the parts h before it."""
    p = F.p
    blocks = {}
    for i in F.degrees():
        b, c0 = la.zeros(M.dim(i), F.dim(i)), 0
        for (X, n), image in zip(F.parts, images):
            nb = X.dim(i + n)
            if nb and M.dim(i):
                b[:, c0 : c0 + nb] = la.contract("x,xtc->ct", la.as_field(image, p), M.act_tensor(-n, i + n), p)
            c0 += nb
        blocks[i] = b
    return DGMorphism(F, M, blocks)


# ---------------------------------------------------------------------------
# complexes over the base field (Hom and tensor outputs)


@dataclass
class KComplex(Graded):
    """A bounded complex of GF(p) vector spaces."""

    p: int
    dims: dict[int, int]
    diff: dict[int, np.ndarray]
    label: str = ""
    basis: dict = field(default_factory=dict, repr=False)  # per-degree MapSpace or similar


def hom_complex(M: DGModule, N: DGModule, window: tuple[int, int] | None = None) -> KComplex:
    """The complex of R-linear graded maps M -> N.

    Degree-n component: families phi_i : M^i -> N^{i+n} with
    phi(m . r) = phi(m) . r; differential d(phi) = d_N phi - (-1)^n phi d_M.
    """
    if M.algebra is not N.algebra and M.algebra.dims != N.algebra.dims:
        raise ValueError("hom_complex: modules over different algebras")
    p = M.p
    if not M.degrees() or not N.degrees():
        return KComplex(p, {}, {}, label="Hom")
    nlo = N.lo() - M.hi()
    nhi = N.hi() - M.lo()
    if window:
        nlo, nhi = max(nlo, window[0] - 1), min(nhi, window[1] + 1)
    spaces: dict[int, la.MapSpace] = {}
    layouts: dict[int, list] = {}
    for n in range(nlo, nhi + 1):
        spaces[n], layouts[n] = _hom_component(M, N, n)
    dims = {n: sp.dim for n, sp in spaces.items() if sp.dim}
    diff = {}
    for n in range(nlo, nhi):
        src, tgt = spaces[n], spaces[n + 1]
        if src.dim == 0 or tgt.dim == 0:
            continue
        sign = -1 if n % 2 else 1
        phi = _unflatten(src.basis, layouts[n])  # all basis maps at once
        dphi = []
        for i, r, c in layouts[n + 1]:
            d = la.matmul(N.diff_mat(i + n), phi[i], p) if i in phi else np.zeros((src.dim, r, c), dtype=np.int64)
            if i + 1 in phi:
                d = (d - sign * la.matmul(phi[i + 1], M.diff_mat(i), p)) % p
            dphi.append(d.reshape(src.dim, r * c))
        diff[n] = tgt.coords(np.concatenate(dphi, axis=1)[:, None, :]).T
    hc = KComplex(p, dims, diff, label=f"Hom({M.label},{N.label})")
    hc.basis = {"spaces": spaces, "layouts": layouts, "source": M, "target": N}
    return hc


def _hom_component(M: DGModule, N: DGModule, n: int):
    """Canonical basis of degree-n R-linear maps with its block layout."""
    p = M.p
    layout = [(i, N.dim(i + n), M.dim(i)) for i in M.degrees() if N.dim(i + n)]  # blocks phi_i, both sides nonzero
    if not layout:
        return la.MapSpace(p, 1, 1, la.zeros(0, 1), []), layout
    block = {i: b for b, (i, _, _) in enumerate(layout)}
    # phi_i(m) . r - phi_{i+j}(m . r) = 0 for m in M^i, r in R^j
    terms = ((np.swapaxes(N.act_tensor(i + n, j), 0, 2), M.act_tensor(i, j), 1, block.get(i), block.get(i + j))
             for i in M.degrees() for j in M.algebra.degrees())
    ker = la.kernel(la.balance_rows(terms, [r * c for _, r, c in layout], p), p)
    return la.MapSpace(p, 1, ker.ambient_dim, ker.basis, ker.pivots), layout


def _unflatten(vecs, layout):
    """Blocks i -> phi_i of flat maps vecs (..., total), as stacks (..., r, c)."""
    out, off = {}, 0
    for i, r, c in layout:
        out[i] = vecs[..., off : off + r * c].reshape(vecs.shape[:-1] + (r, c))
        off += r * c
    return out


def tensor_complex(M: DGModule, L: DGModule, window: tuple[int, int] | None = None) -> KComplex:
    """(M ⊗_R L) as a complex over k, for M a right module over R and L a
    right module over R^op (i.e. a left R-module).

    Degree n is the quotient of ⊕_i M^i ⊗ L^{n-i} by the action relations
    (m r) ⊗ l - (-1)^{|r||l|} m ⊗ (l *op r).
    """
    R = M.algebra
    Rop = L.algebra
    if R.opposite().dims != Rop.dims and R.dims != Rop.dims:
        raise ValueError("tensor_complex: side mismatch")
    p = M.p
    if not M.degrees() or not L.degrees():
        return KComplex(p, {}, {}, label="Tensor")
    nlo, nhi = M.lo() + L.lo(), M.hi() + L.hi()
    if window:
        nlo, nhi = max(nlo, window[0] - 1), min(nhi, window[1] + 1)
    layouts, projs, sects = {}, {}, {}
    for n in range(nlo, nhi + 1):
        layout = [(i, M.dim(i), L.dim(n - i)) for i in M.degrees() if L.dim(n - i)]
        layouts[n] = layout
        if not layout:
            continue
        widths = [a * b for _, a, b in layout]
        block = {i: b for b, (i, _, _) in enumerate(layout)}
        # (m r) ⊗ l - (-1)^{|r||l|} m ⊗ (l *op r),  r in R^j, l in L^t, t = n - i - j
        terms = ((M.act_tensor(i, j), L.act_tensor(n - i - j, j), -1 if (j * (n - i - j)) % 2 else 1,
                  block.get(i + j), block.get(i))
                 for i in M.degrees() for j in Rop.degrees())
        projs[n], sects[n] = la.quotient_basis(la.span(la.balance_rows(terms, widths, p), sum(widths), p))
    dims = {n: projs[n].shape[0] for n in projs if projs[n].shape[0]}
    diff = {}
    for n in sorted(projs):
        if n + 1 not in projs or dims.get(n, 0) == 0 or dims.get(n + 1, 0) == 0:
            continue
        # d(m ⊗ l) = d m ⊗ l + (-1)^i m ⊗ d l on every section column at once
        x = _unflatten(sects[n].T, layouts[n])  # blocks i -> stacks (cols, a, b)
        img = []
        for i, a, b in layouts[n + 1]:
            d = la.matmul(M.diff_mat(i - 1), x[i - 1], p) if i - 1 in x else np.zeros((dims[n], a, b), dtype=np.int64)
            if i in x:
                sign = -1 if i % 2 else 1
                d = (d + sign * la.matmul(x[i], L.diff_mat(n - i).T, p)) % p
            img.append(d.reshape(dims[n], a * b))
        diff[n] = la.matmul(projs[n + 1], np.concatenate(img, axis=1).T, p)
    return KComplex(p, dims, diff, label=f"({M.label})⊗({L.label})")


# ---------------------------------------------------------------------------
# psi, heart embedding, duality


def psi(R: DGAlgebra, K: hk.FDModule) -> DGModule:
    """The DG-injective module Hom_{R0}(R, K) for a right R0-module K.

    Degree i is Hom_{R0}(R^{-i}, K); the right action is (phi . r)(s) =
    phi(r s) and the differential is -(-1)^{|phi|} phi d_R.  H^0 is the
    submodule of K killed by the 0-boundaries.
    """
    hd = hk.heart_of(R)
    if K.algebra.dim != hd.r0.dim or np.any(K.algebra.mult != hd.r0.mult):
        raise ValueError("psi: K is not a module over the degree-zero subalgebra")
    p = R.p
    spaces: dict[int, la.MapSpace] = {}
    for i in range(0, -min(R.degrees()) + 1):
        src = -i
        if R.dim(src) == 0 or K.dim == 0:
            continue
        # phi(s . e) = phi(s) . e for e in R0
        terms = [(np.swapaxes(K.action, 0, 1), R.mult_tensor(src, 0), 1, 0, 0)]
        ker = la.kernel(la.balance_rows(terms, [K.dim * R.dim(src)], p), p)
        spaces[i] = la.MapSpace(p, K.dim, R.dim(src), ker.basis, ker.pivots)
    dims = {i: sp.dim for i, sp in spaces.items() if sp.dim}
    phis = {i: sp.matrices() for i, sp in spaces.items() if sp.dim}
    diff = {}
    for i in phis:
        if i + 1 in phis:
            sign = -1 if i % 2 else 1  # d(phi) = -(-1)^i phi d_R
            dphis = (-sign * la.matmul(phis[i], R.diff_mat(-i - 1), p)) % p
            diff[i] = spaces[i + 1].coords(dphis).T
    act = {}
    for i in phis:
        for j in R.degrees():
            k = i + j
            if k in phis:
                # (phi . r)(s) = phi(r s) on R^{-k}, for phi and r in the bases
                maps = la.contract("akc,bxc->abkx", phis[i], R.mult_tensor(j, -k), p)
                act[(i, j)] = spaces[k].coords(maps)
    return DGModule(R, dims, diff, act, label=f"psi({K.label})", _psi_spaces=spaces)


def psi_piece(R: DGAlgebra, i: int) -> tuple[DGModule, CohomologyData]:
    """psi(R, E_i) and its cohomology, memoised on R.

    E_i = D(P_i) is the i-th indecomposable injective R0-module, the dual of
    the i-th indecomposable projective of R0^op that heartkit's covers use.
    The pair is shared and must not be modified.
    """
    key = ("psi_piece", i)
    if key not in R._memo:
        P, _ = hk.projective_indecomposable(hk.heart_of(R).r0.opposite(), i)
        I = psi(R, hk.dual_module(P, label=f"E{i}"))
        R._memo[key] = (I, cohomology(I))
    return R._memo[key]


def psi_sum(R: DGAlgebra, multiplicities: list[int], n: int) -> tuple[DGModule, CohomologyData]:
    """psi(R, K)[n] and its cohomology for K = ⊕_i E_i^{m_i}, blocks in
    index order: the block sum of copies of the memoised psi_piece(R, i)
    (module docstring) and block_sum_cohomology of their H.

    psi is additive, and the R0-linearity relations of a map R^{-i} -> K
    hold block by block of K.  The blocks' rows are contiguous chunks of
    the row-major vectorisation, so Hom_{R0}(R^{-i}, K) is the sum of the
    pieces' spaces on those chunks and its RREF basis is their bases
    concatenated, pivots offset by the chunk.  So the result equals, bit
    for bit, psi(R, K) shifted by n and its cohomology, and a map into it
    has, copy by copy, the coordinates of its piece's spaces.  It is a
    fresh module whose parts are the copies (psi(E_i), n) in block order.
    """
    copies = [psi_piece(R, i) for i, m in enumerate(multiplicities) for _ in range(m)]
    parts = [(X, n) for X, _ in copies]
    I, _ = block_sum(R, parts)
    I.label, I.parts = f"psi(K)[{n}]", parts
    return I, block_sum_cohomology(R, [(H, n) for _, H in copies])


def heart_embed(R: DGAlgebra, N: hk.FDModule) -> DGModule:
    """An H0-module as a DG-module concentrated in degree zero."""
    hd = hk.heart_of(R)
    if N.algebra.dim != hd.h0.dim or np.any(N.algebra.mult != hd.h0.mult):
        raise ValueError("heart_embed expects a module over H0")
    if N.dim == 0:
        return zero_module(R)
    # R0 acts along R0 ↠ H0; act[(0, 0)][x, b, y] = action[b][y, x]
    t = np.transpose(hk.restrict_to_r0(hd, N).action, (2, 0, 1)).copy()
    return DGModule(R, {0: N.dim}, {}, {(0, 0): t}, label=f"heart({N.label})")


def dualize(M: DGModule) -> DGModule:
    """The k-dual as a DG-module over the opposite algebra.

    D(M)^i = Hom_k(M^{-i}, k), d(f) = -(-1)^{|f|} f d_M and
    (f . a)(m) = (-1)^{|a|(|f|+1)} f(m a), the unique sign (up to a global
    convention) making the right action of the opposite algebra satisfy the
    module Leibniz rule against this differential.
    """
    R = M.algebra
    op = R.opposite()
    p = M.p
    dims = {-i: d for i, d in M.dims.items()}
    diff = {}
    for i in dims:
        # d_D^i : D^i -> D^{i+1} is -(-1)^i (d_M^{-i-1})^T
        dm = M.diff_mat(-i - 1)
        if dm.size:
            sign = -1 if i % 2 else 1
            diff[i] = (-sign * dm.T) % p
    act = {}
    for i in dims:
        for j in op.degrees():
            k = i + j
            if dims.get(k, 0) == 0 or dims.get(i, 0) == 0:
                continue
            tM = M.act_tensor(-k, j)  # (M^{-k}, R^j, M^{-i})
            if tM.size == 0:
                continue
            sign = -1 if (j * (i + 1)) % 2 else 1
            act[(i, j)] = (sign * np.transpose(tM, (2, 1, 0))) % p
    return DGModule(op, dims, diff, act, label=f"D({M.label})")


def dual_cohomology(M: DGModule, coh: CohomologyData) -> CohomologyData:
    """H(D M) over the opposite algebra, read off coh = H(M) with no elimination.

    D is exact, so H^{-i}(D M) = D H^i(M), and the window is coh's negated.
    The representatives of H^{-i}(D M) are the rows of class_proj[i] placed
    at the pivot columns of Z^i: functionals on M^i that send a cycle to its
    class coordinates.  They vanish on B^i, so they are cocycles of D M, and
    they are the basis dual to reps[i].  H(R^op) has H(R)'s representatives,
    as R^op has R's differential.  Evaluating f_q . r_b on reps[i] gives the
    action: with a = -(i + j),

        action[(a, j)][q, b, c] = (-1)^{j(a+1)} coh.action[(i, j)][c, b, q],

    the sign (-1)^{|r|(|f|+1)} with which dualize lets R^op act.  No cycle
    basis is kept, so project raises on every degree that has classes.
    """
    p = coh.p
    dims, reps = {}, {}
    for i, h in coh.dims.items():
        if h:
            f = la.zeros(h, M.dim(i))
            f[:, coh.cycle_basis[i].pivots] = coh.class_proj[i]
            dims[-i], reps[-i] = h, np.ascontiguousarray(f.T)
    action = {}
    for (i, j), t in coh.action.items():
        sign = -1 if (j * (1 - i - j)) % 2 else 1
        action[(-i - j, j)] = (sign * np.transpose(t, (2, 1, 0))) % p
    lo, hi = coh.window
    return CohomologyData(p, dims, reps, {}, {}, action, window=(-hi, -lo))

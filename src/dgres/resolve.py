"""Resolutions that measure homological dimensions.

A sup-projective (sppj) resolution peels a DG-module M from the top: each
stage picks a strict map f from a shifted free module onto the top
cohomology of the current model and passes to the cocone.  Dually an
inf-injective (ifij) resolution embeds the bottom cohomology into a shifted
DG-injective module of psi type and passes to the cone.  Sup-flat (spft)
resolutions reuse free terms, since over a finite-dimensional zeroth
cohomology algebra finitely generated flat modules are projective.

The projective dimension is read off at the first stage whose model lies in
the shifted class of projectives: if that happens at stage e then

    pd M = e + sup M - sup M_e,

and dually  injdim M = e + inf M_{-e} - inf M.  First success is correct
regardless of minimality: while membership keeps failing, each step drops
the dimension by exactly 1 + sup M_i - sup M_{i+1}, so the count is forced.
The non-split condition on the last structure map is then automatic and is
recorded as a derived certification instead of being decided separately.

Membership in the shifted projective class is decided by the graded
criterion: H^sup(M) must be projective over H0 and every action map
H^sup(M) (x)_{H0} H^{-i}(R) -> H^{sup-i}(M) must be bijective.  For
i = 0 that map is Q (x)_{H0} H0 -> Q, q (x) a -> q a, with Q = H^sup(M):
it is an isomorphism whenever the unit of H0 acts on Q as 1, so it is not
built then; an input on which the unit does not act as 1 gets it built
and checked like every other degree.  This is
complete: given the criterion, a map from a shifted object of the class
inducing an isomorphism on top cohomology is a quasi-isomorphism, because
both cohomologies are generated over H(R) by the top.  When H^sup(M) is
free the engine additionally produces the quasi-isomorphism from a shifted
free module and certifies it directly.

The inf-injective side rests on two theorems.  Its terms are psi(K) =
Hom_{R0}(R, K), shifted, for K injective over R0.  By the coinduction
adjunction, strict degree-0 maps f : M -> psi(K)[-t] correspond exactly to
R0-linear phi : M^t -> K through

    f_j(m)(s) = phi(m s),   m in M^j, s in R^{t-j},

and phi(x) = f_t(x)(1).  With the signs of dgcore, f is a chain map iff
phi(d(m s)) = 0 for all m and s, by the Leibniz rule
d(m s) = dm s + (-1)^j m ds.  Taking s = 1 shows these elements fill
B^t(M), so the chain condition is just phi|B^t = 0.  Membership in the
shifted psi class is decided by k-duality: D(psi(E)) = R (x)_{R0} D(E) is a
summand of a free R^op-module, and D is an exact duality on
finite-dimensional DG-modules, so M lies in the class iff D(M) passes the
projective criterion over R^op.  The criterion reads only cohomology, and
H^i(D M) = D H^{-i}(M) is the transpose of H(M): dg.dual_cohomology builds
it from the classes the resolution already holds, with no elimination.
D(M) itself is built only for the certificate, when the top of D(M) is
free and the quasi-isomorphism from a free module is checked on it.

K is the R0-envelope of Q = H^t(M) itself, and phi takes the hull Q -> K
on the representatives.  R0 acts on Q through R0 ↠ H0, which maps rad R0
onto rad H0, so Q and its H0-envelope have one socle over R0, hence one
R0-envelope: no H0-envelope is built.

The terms are block sums of memoised pieces.  The R0-envelope is K =
⊕ E_i^{m_i} over the indecomposable R0-injectives E_i, and psi is
additive, so dg.psi_sum copies psi(E_i) and H(psi E_i), built once per
algebra by dg.psi_piece, into the block-diagonal term and its cohomology,
bit for bit what psi(K) and cohomology would build; the term's parts are
the copies, and each copy's blocks of f are read in its piece's spaces,
which psi(K)'s spaces hold at contiguous row chunks.

phi is read off the hull copy by copy, with no linear system.  E_i =
D(P_i) for a left ideal P_i = e_i R0^op of R0 with basis b_k, and e_i =
sum_k eps_k b_k.  The hull is the transpose of the projective cover of
D(Q) over R0^op, whose copy c of P_i sends e_i to some v_c in D(Q) e_i
and b_k to v_c b_k: its row (c, k) is q -> v_c(q b_k), and v_c =
sum_k eps_k row (c, k).  The rows of Y, dg.dual_cohomology's
representatives in degree -t, send a cocycle of M^t to its class
coordinates and vanish on B^t.  With y_c = v_c Y,

    phi_c(x)(b_k) = y_c(x b_k)

is R0-linear, as (x r) b = x (r b); vanishes on B^t, as B^t b lies in
B^t; and sends z_q to the hull's column q, as y_c(z_q b_k) = v_c(q b_k).

The cohomology of each new model is computed only where it can be nonzero.
Along sppj the term P_i = R^n[-s] lies in degrees <= s = sup M_i, and
sppj_step checks that H^s(f_i) is onto.  In the long exact sequence

    H^{j-1}(P_i) -> H^{j-1}(M_i) -> H^j(M_{i+1}) -> H^j(P_i)

the right end vanishes for j > s and the left map is onto (the check at
j = s + 1, H^{j-1}(M_i) = 0 above), so H(M_{i+1}) is computed on
(-inf, s].  Along ifij the term I_i = psi(K)[-t] lies in degrees >= t =
inf M_i, and ifij_step checks that H^t(f_i) is injective.  In

    H^j(I_i) -> H^j(M_{i+1}) -> H^{j+1}(M_i) -> H^{j+1}(I_i)

the left end vanishes for j < t and the right map is injective (the check
at j = t - 1, H^{j+1}(M_i) = 0 below), so H(M_{i+1}) is computed on
[t, +inf).  Either window holds all of the model's cohomology, so its sup,
inf and acyclicity are exact.  The same sequences give its dims before
M_{i+1} is built, from the ranks of H(f_i) alone:

    dim H^j(M_{i+1}) = dim coker H^{j-1}(f_i) + dim ker H^j(f_i)   (sppj)
    dim H^j(M_{i+1}) = dim coker H^j(f_i) + dim ker H^{j+1}(f_i)   (ifij)

Resolution.edge reads them (les_dims), so a slot walk that stops at a stage
never builds its model; a model built after its dims were read must have
them, or the resolution raises RuntimeError naming the stage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dgcore as dg
from . import exactla as la
from . import heartkit as hk


@dataclass
class StageInfo:
    index: int
    edge: int | float  # sup of the model (sppj/spft) or inf (ifij)
    term_rank: int  # generators of the free term (sppj); total dimension of the psi term (ifij)
    term_shift: int | None
    term_kind: str  # 'free' or 'psi'
    minimal: str  # 'cover' (free top) or 'free-minimal' (fewest generators), 'explicit' (sppj); 'envelope'


@dataclass
class DimensionReport:
    kind: str  # pd | injdim | fd | gldim
    exact: int | None = None
    at_least: int | None = None
    zero_object: bool = False
    e: int | None = None
    stages: list[StageInfo] = field(default_factory=list)
    certificate: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    children: dict = field(default_factory=dict)  # per-simple reports for gldim

    def value(self):
        if self.zero_object:
            return -math.inf
        return self.exact if self.exact is not None else None

    def to_json(self) -> dict:
        if self.zero_object:
            val = {"exact": None, "zero_object": True}
        elif self.exact is not None:
            val = {"exact": self.exact}
        else:
            val = {"at_least": self.at_least}
        out = {
            "kind": self.kind,
            "value": val,
            "e": self.e,
            "stages": [
                {
                    "index": s.index,
                    "edge": s.edge if isinstance(s.edge, int) else str(s.edge),
                    "term": {"kind": s.term_kind, "rank": s.term_rank, "shift": s.term_shift},
                    "minimal": s.minimal,
                }
                for s in self.stages
            ],
            "certificate": {k: _jsonable(v) for k, v in self.certificate.items()},
            "notes": list(self.notes),
        }
        if self.children:
            out["per_simple"] = {k: v.to_json() for k, v in self.children.items()}
        return out


def _jsonable(v):
    if isinstance(v, (bool, int, str, float)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


# ---------------------------------------------------------------------------
# membership in the shifted projective / flat class


def _action_map_ranges(R, cohM, s):
    cohR = dg.algebra_cohomology(R)
    lo_r = min((d for d, n in cohR.dims.items() if n), default=0)
    lo_m = min((d for d, n in cohM.dims.items() if n), default=s)
    return range(0, max(-lo_r, s - lo_m) + 1)


def _action_map(R, cohM, s, i):
    """The map H^sup(M) (x)_{H0} H^{-i}(R) -> H^{sup-i}(M) and its source dim."""
    p = R.p
    cohR = dg.algebra_cohomology(R)
    hd = hk.heart_of(R)
    q, v = cohM.dim(s), cohR.dim(-i)
    tgt = cohM.dim(s - i)
    if q == 0 or v == 0:
        return la.zeros(tgt, 0), 0
    qa = cohM.action.get((s, 0), np.zeros((q, hd.h0.dim, q), dtype=np.int64))
    av = cohR.action.get((0, -i), np.zeros((hd.h0.dim, v, v), dtype=np.int64))
    # relations (q . a) (x) v - q (x) (a . v) over H0
    sub = la.span(la.balance_rows([(qa, np.swapaxes(av, 0, 1), 1, 0, 0)], [q * v], p), q * v, p)
    proj, sect = la.quotient_basis(sub)
    t = cohM.action.get((s, -i), np.zeros((q, v, tgt), dtype=np.int64))
    big = t.reshape(q * v, tgt).T
    mat = la.matmul(big, sect, p)
    return mat, proj.shape[0]


def _projective_criterion(R, coh, label):
    """The graded criterion on the cohomology data coh of an R-module with
    the given label: (member, certificate, cover of H^sup).

    It reads only coh's dims and the action maps out of its top degree, so
    it runs on H(M) and on dg.dual_cohomology alike.  A member's
    certificate records the free rank of its top, None when the top is
    projective but not free.
    """
    if coh.is_acyclic():
        raise ValueError("membership is undefined for the zero object")
    s = coh.sup
    Q = dg.heart_classes(R, s, coh, f"H^{s}({label})")
    cert = {"sup": s, "h_sup_dim": Q.dim}
    cover = hk.projective_cover(Q)
    if cover.module.dim != Q.dim:
        cert["h_sup_projective"] = False
        return False, cert, cover
    cert["h_sup_projective"] = True
    # i = 0 is Q (x)_{H0} H0 = Q, bijective when the unit acts as 1 (module docstring)
    start = 1 if np.array_equal(Q.action_of(Q.algebra.unit), la.eye(Q.dim)) else 0
    for i in _action_map_ranges(R, coh, s)[start:]:
        mat, src = _action_map(R, coh, s, i)
        tgt = coh.dim(s - i)
        if src != tgt or (src and la.rank(mat, R.p) != src):
            cert["action_map_failure_degree"] = i
            cert["action_map_dims"] = [int(src), int(tgt)]
            return False, cert, cover
    cert["action_maps_bijective"] = True
    cert["free_rank"] = hk.free_rank(Q, cover)
    if cert["free_rank"] is None:
        cert["note"] = "projective non-free top; membership certified by the graded criterion"
    return True, cert, cover


def _certify_free(M, coh, cert, cover):
    """Certify a member with free top directly: the free module on the
    cover's generators maps to M by a quasi-isomorphism."""
    s = cert["sup"]
    P = dg.free_module(M.algebra, [s] * cert["free_rank"])
    phi = dg.free_map(P, M, list(coh.rep(s, cover.generators).T))
    if not dg.is_quasi_iso(phi):
        raise RuntimeError("membership criterion contradicted the quasi-isomorphism certificate")
    cert["quasi_iso_certified"] = True


def membership_P(M: dg.DGModule, coh: dg.CohomologyData | None = None):
    """Is M a shift of a direct summand of a coproduct of R, with certificate."""
    coh = coh or dg.cohomology(M)
    ok, cert, cover = _projective_criterion(M.algebra, coh, M.label)
    if ok and cert["free_rank"] is not None:
        _certify_free(M, coh, cert, cover)
    return ok, cert


def membership_F(M: dg.DGModule, coh: dg.CohomologyData | None = None):
    """Flat-class membership; over finite-dimensional H0, flat = projective."""
    ok, cert = membership_P(M, coh)
    cert["flat_equals_projective"] = "finitely generated flat modules over a finite-dimensional algebra are projective"
    return ok, cert


# ---------------------------------------------------------------------------
# resolution steps


def sppj_term(M: dg.DGModule, generators=None, coh: dg.CohomologyData | None = None):
    """One resolution stage's term: (P, f, info, H(P)).

    P is free with all generators in degree sup M; f is strict with
    H^sup(f) surjective; H(P) carries the H(R) action.  By default the
    generators are the fewest that generate H^sup(M) over H0, as its
    projective cover records them; `generators` may prescribe class
    coordinates of H^sup(M) explicitly (columns; zero columns allowed).
    """
    R = M.algebra
    coh = coh or dg.cohomology(M)
    if coh.is_acyclic():
        raise ValueError("the zero object admits no sup-projective morphism")
    s = coh.sup
    Q = dg.heart_module(M, s, coh)
    mode = "explicit"
    if generators is None:
        cover = hk.projective_cover(Q)
        generators, mode = cover.generators, "free-minimal" if hk.free_rank(Q, cover) is None else "cover"
    generators = la.as_field(generators, M.p).reshape(Q.dim, -1)
    g_count = generators.shape[1]
    P = dg.free_module(R, [s] * g_count, label=f"R^{g_count}[{-s}]")
    f = dg.free_map(P, M, list(coh.rep(s, generators).T))
    cohP = dg.free_cohomology(R, s, g_count)
    hmap = dg.cohomology_map(f, s, cohP, coh)
    if la.rank(hmap, M.p) != Q.dim:
        raise ValueError("chosen generators do not surject onto the top cohomology")
    return P, f, StageInfo(-1, s, g_count, -s, "free", mode), cohP


def sppj_step(M: dg.DGModule, generators=None, coh: dg.CohomologyData | None = None):
    """One resolution stage: (P, f, next_model, g, info, H(P)), the stage
    of sppj_term with next_model the cocone of f and g its strict
    projection onto P."""
    P, f, info, cohP = sppj_term(M, generators, coh)
    return (P, f, *dg.cocone(f), info, cohP)


def _strict_map_to_psi(M, I, t, cohM, values):
    """The strict morphism f : M -> I = psi(K)[-t] with f_t(z_q)(1) = values[:, q].

    z_q are the representatives of H^t(M) in cohM and values is the hull
    H^t(M) -> K of _psi_target; f_j(m)(s) = phi(m s) for phi read off the
    hull (module docstring), in each copy's piece's spaces (dg.psi_sum).
    """
    p, R, A = M.p, M.algebra, hk.heart_of(M.algebra).r0.opposite()
    # functionals on M^t that send a cocycle to its class coordinates, zero on B^t
    Y = dg.dual_cohomology(M, cohM).reps[-t].T
    blocks, r = {}, 0
    for _, group in itertools.groupby(I.parts, key=lambda part: id(part[0])):
        piece, copies = next(group)[0], 1 + sum(1 for _ in group)
        # the piece's index, looked up in the memo of dg.psi_piece, which built it
        i = next(i for i in itertools.count() if R._memo.get(("psi_piece", i), (None,))[0] is piece)
        _, incl = hk.projective_indecomposable(A, i)
        k = incl.shape[1]
        vals, r = values[r : r + copies * k].reshape(copies, k, -1), r + copies * k
        # y_c = v_c . Y for the copy's generator v_c = sum_k eps_k values[(c, k)] in D H^t(M)
        y = la.matmul(la.matmul(hk.pim_generator(A, i), vals, p), Y, p)
        # phi_c(x)(b_k) = y_c(x b_k), as (copies, k, n)
        phi = np.transpose(la.matmul(y, la.matmul(np.swapaxes(M.act_tensor(t, 0), 1, 2), incl, p), p), (1, 2, 0))
        if np.any(la.matmul(phi, cohM.reps[t], p) != vals):
            raise RuntimeError("the prescribed values are not those of the R0-envelope of H^t(M)")
        for j in M.degrees():
            sp = piece._psi_spaces.get(j - t)
            if sp is None or sp.dim == 0:
                continue
            # f_j(m) : R^{t-j} -> E,  s -> phi(m s), for each copy
            maps = la.contract("gkc,msc->mgks", phi, M.act_tensor(j, t - j), p)
            blocks.setdefault(j, []).append(sp.coords(maps).reshape(M.dim(j), -1).T)
    return dg.DGMorphism(M, I, {j: np.concatenate(bs) for j, bs in blocks.items()})


def _psi_target(R, J: hk.FDModule, t: int):
    """I = psi(R, K)[-t] and H(I) for the R0-envelope K = E_{R0}(J) of an
    H0-module J, and the hull J -> K.

    Returns (I, H(I), hull).  K = ⊕ E_i^{m_i} with the envelope's
    multiplicities, so I and H(I) are block copies of memoised pieces
    (dg.psi_sum), and I's parts are those copies for _strict_map_to_psi.
    """
    hull = hk.injective_envelope(hk.restrict_to_r0(hk.heart_of(R), J))
    I, cohI = dg.psi_sum(R, hull.multiplicities, -t)
    I.label = f"psi(E({J.label}))[{-t}]"
    return I, cohI, hull


def ifij_term(M: dg.DGModule, coh: dg.CohomologyData | None = None):
    """One inf-injective stage's term: (I, f, info, H(I)).

    I is a shifted psi-type DG-injective, f : M -> I is strict with
    injective H^inf(f), and H(I) carries the H(R) action.
    """
    R = M.algebra
    coh = coh or dg.cohomology(M)
    if coh.is_acyclic():
        raise ValueError("the zero object admits no inf-injective morphism")
    t = coh.inf
    Q = dg.heart_module(M, t, coh)
    I, cohI, hull = _psi_target(R, Q, t)
    f = _strict_map_to_psi(M, I, t, coh, hull.map)
    hmap = dg.cohomology_map(f, t, coh, cohI)
    if la.rank(hmap, M.p) != Q.dim:
        raise RuntimeError("bottom cohomology map failed to be injective")
    return I, f, StageInfo(-1, t, I.total_dim, -t, "psi", "envelope"), cohI


def _cone_with_inclusion(f: dg.DGMorphism):
    C = dg.cone_module(f)
    return C, dg.cone_inclusion(f, C)


def ifij_step(M: dg.DGModule, coh: dg.CohomologyData | None = None):
    """One inf-injective stage: (I, f, next_model, g, info, H(I)), the
    stage of ifij_term with next_model = cone(f) and g : I -> next_model."""
    I, f, info, cohI = ifij_term(M, coh)
    return (I, f, *_cone_with_inclusion(f), info, cohI)


def membership_I(M: dg.DGModule, coh: dg.CohomologyData | None = None):
    """Is M a shift of a psi-type DG-injective, with certificate.

    Decided by k-duality as the projective criterion for D(M) over R^op
    (module docstring), run on H(D M) as dg.dual_cohomology reads it off
    H(M) = `coh`.  D(M) itself is built only when the criterion holds with
    a free top, to certify the quasi-isomorphism onto it.
    """
    coh = coh or dg.cohomology(M)
    dual = dg.dual_cohomology(M, coh)
    ok, cert, cover = _projective_criterion(M.algebra.opposite(), dual, f"D({M.label})")
    if ok and cert["free_rank"] is not None:
        _certify_free(dg.dualize(M), dual, cert, cover)
    return ok, {"inf": -cert["sup"], "dual_membership_P": cert}


# ---------------------------------------------------------------------------
# resolutions and the dimension reader


class Resolution:
    """Iterated stages of a fixed module M_0 = M.

    Stage i maps between the model M_i and a term T_i by a strict f_i, and
    passes to the next model M_{i+1} with its strict structure map g_{i+1}.
    cohs[i] is H(M_i) and term_cohs[i] is H(T_i), both with the H(R) action;
    cohs[i] for i >= 1 is computed only on the side of the edge of stage
    i - 1 where it can be nonzero (module docstring).  The model after the
    last stage is built when model, coh, ensure, the next step or the
    lists models, cohs and gs read it; until then edge reads its dims off
    les_dims.  Subclasses fix the edge each stage peels off, which fixes
    the step and the order in which f and g splice.
    """

    edge_name: str  # 'sup' or 'inf'

    def __init__(self, M: dg.DGModule):
        self.base = M
        self._models, self._cohs, self._gs = [M], [dg.cohomology(M)], []
        self.terms, self.term_cohs, self.maps, self.infos = [], [], [], []
        self._les: tuple | None = None  # (i, les_dims) while M_i is unbuilt
        # the stage whose next model is acyclic, once one is; -1 for an acyclic M_0
        self.length: int | None = -1 if self._cohs[0].is_acyclic() else None

    models = property(lambda self: self._read(self._models))
    cohs = property(lambda self: self._read(self._cohs))
    gs = property(lambda self: self._read(self._gs))

    def _read(self, built: list) -> list:
        self._next_model()
        return built

    def model(self, i: int) -> dg.DGModule:
        return self._models[self._built(i)]

    def coh(self, i: int) -> dg.CohomologyData:
        return self._cohs[self._built(i)]

    def _built(self, i: int) -> int:
        self.ensure(i)
        if i >= len(self._models):
            raise IndexError(f"model {i} lies past the last model of a resolution of length {self.length}")
        return i

    def ensure(self, i: int):
        """Build the stages before i and the model after the last of them."""
        self.build_stages(i)
        self._next_model()

    def build_stages(self, i: int):
        """Build the stages before i, each after its model, and no model past them."""
        while len(self.terms) < i and self.length is None:
            self._next_model()
            if self.length is None:
                self.step()

    def _next_model(self):
        """Build M_i for i = len(terms) unless it is built, with the dims les_dims read for it."""
        i = len(self.terms)
        if i < len(self._models):
            return
        e, sup = self.infos[-1].edge, self.edge_name == "sup"
        nxt, g = dg.cocone(self.maps[-1]) if sup else _cone_with_inclusion(self.maps[-1])
        # H(nxt) vanishes beyond the edge just peeled (module docstring)
        coh = dg.cohomology(nxt, window=(dg.NEG_INF, e) if sup else (e, dg.POS_INF))
        if self._les is not None and self._les[0] == i and self._les[1] != coh.dims:
            raise RuntimeError(f"stage {i}: H(M_{i}) has dims {coh.dims}, the long exact sequence gave {self._les[1]}")
        self._models.append(nxt)
        self._cohs.append(coh)
        self._gs.append(g)
        if coh.is_acyclic():
            self.length = i - 1

    def step(self, **options):
        self._next_model()
        if self.length is not None:
            raise RuntimeError("resolution already terminated")
        i = len(self.terms)
        stage = sppj_term if self.edge_name == "sup" else ifij_term
        term, f, info, term_coh = stage(self._models[i], coh=self._cohs[i], **options)
        info.index = i
        self.terms.append(term)
        self.term_cohs.append(term_coh)
        self.maps.append(f)
        self.infos.append(info)

    def les_dims(self) -> dict:
        """H(M_i)'s dims for the unbuilt M_i, i = len(terms), by the ranks
        of H(f_{i-1}) (module docstring); sets the length if they vanish."""
        i, sup = len(self.terms), self.edge_name == "sup"
        if self._les is None or self._les[0] != i:
            f = self.maps[-1]
            src, tgt = (self.term_cohs[-1], self._cohs[-1]) if sup else (self._cohs[-1], self.term_cohs[-1])
            rank = {k: la.rank(dg.cohomology_map(f, k, src, tgt), f.p) for k in src.dims if tgt.dim(k)}
            # dim coker H^{k - sup}(f) + dim ker H^{k + 1 - sup}(f)
            dims = {k: tgt.dim(k - sup) - rank.get(k - sup, 0) + src.dim(k + 1 - sup) - rank.get(k + 1 - sup, 0)
                    for k in {k + sup for k in tgt.dims} | {k + sup - 1 for k in src.dims}}
            self._les = (i, {k: d for k, d in sorted(dims.items()) if d})
            if not self._les[1]:
                self.length = i - 1
        return self._les[1]

    def edge(self, i: int):
        """The edge of stage i, sup or inf of H(M_i), which infos[i].edge
        holds once stage i is built; None when M_i is acyclic or lies past
        the terminated length, so that T_i = 0.  Builds stages < i only,
        and reads an unbuilt M_i off les_dims."""
        self.build_stages(i)
        dims = self._cohs[i].dims if i < len(self._models) else self.les_dims() if i == len(self.terms) else {}
        return (max if self.edge_name == "sup" else min)(dims, default=None)

    def delta(self, i: int) -> dg.DGMorphism:
        """The spliced map between T_i and T_{i-1}, in the resolution's direction."""
        if i < 1:
            raise ValueError("delta is defined for stage >= 1")
        self.build_stages(i + 1)
        f, g = self.maps[i], self._gs[i - 1]
        return dg.compose(g, f) if self.edge_name == "sup" else dg.compose(f, g)


class SppjResolution(Resolution):
    """Sup-projective stages: f_i : P_i -> M_i, g_{i+1} : M_{i+1} -> P_i."""

    edge_name = "sup"


class IfijResolution(Resolution):
    """Inf-injective stages: f_i : M_i -> I_{-i}, g_i : I_{-i} -> M_{i+1}."""

    edge_name = "inf"


def _dimension(res: Resolution, cap: int, kind: str, member) -> DimensionReport:
    """Read the dimension at the first stage e whose model is a member.

    exact = e + eps (edge M - edge M_e) with eps = +1 for the sup edge and
    -1 for the inf edge; the same expression at stage `cap` bounds the
    dimension from below when no stage up to `cap` succeeds.
    """
    coh0 = res.cohs[0]
    if coh0.is_acyclic():
        return DimensionReport(kind=kind, zero_object=True, notes=["zero object"])
    edge, eps = res.edge_name, 1 if res.edge_name == "sup" else -1

    def drop(coh):
        return eps * (getattr(coh0, edge) - getattr(coh, edge))

    report = DimensionReport(kind=kind)
    for i in range(cap + 1):
        model, coh = res.model(i), res.coh(i)
        if coh.is_acyclic():
            # resolution terminated strictly one stage earlier
            e = i - 1
            report.exact = e + drop(res.coh(e))
            report.e = e
            report.certificate = {"terminated_strictly": True}
            report.stages = list(res.infos[: max(e + 1, 0)])
            report.notes.append("final stage map is a quasi-isomorphism with its term")
            return report
        ok, cert = member(model, coh)
        if ok:
            report.exact = i + drop(coh)
            report.e = i
            report.certificate = cert
            report.certificate["first_success_stage"] = i
            report.certificate["non_split_condition"] = (
                "derived: membership fails at stages < e, so the last structure map cannot split"
            )
            report.stages = list(res.infos[:i])
            return report
    report.at_least = cap
    report.certificate = {
        "stage_bound": int(cap + drop(res.coh(cap))),
        "bound_rule": f"{kind} >= i {'+' if eps > 0 else '-'} ({edge} M - {edge} M_i) at every unterminated stage i",
    }
    report.stages = list(res.infos[:cap])
    return report


def pd(M: dg.DGModule, cap: int = 16, resolution: SppjResolution | None = None) -> DimensionReport:
    """Projective dimension via sup-projective resolutions."""
    res = resolution or SppjResolution(M)
    return _dimension(res, cap, "pd", membership_P)


def fd(M: dg.DGModule, cap: int = 16, resolution: SppjResolution | None = None) -> DimensionReport:
    """Flat dimension via sup-flat resolutions (free terms, flat membership)."""
    res = resolution or SppjResolution(M)
    rep = _dimension(res, cap, "fd", membership_F)
    rep.notes.append("sup-flat terms are free; flat covers of finitely generated modules over a finite-dimensional algebra are projective covers")
    return rep


def injdim(M: dg.DGModule, cap: int = 16, resolution: IfijResolution | None = None) -> DimensionReport:
    """Injective dimension via inf-injective resolutions."""
    res = resolution or IfijResolution(M)
    return _dimension(res, cap, "injdim", membership_I)


# ---------------------------------------------------------------------------
# global dimension and friends


def gldim(R: dg.DGAlgebra, cap: int = 16) -> DimensionReport:
    """Global dimension: the maximum of pd over the simple heart modules.

    The report also computes the maximum of injdim over the simples and
    checks that the two agree whenever every per-simple value is exact.
    """
    hd = hk.heart_of(R)
    sims = hk.simples(hd.h0)
    report = DimensionReport(kind="gldim")
    pd_vals, inj_vals = [], []
    all_exact = True
    for i, S in enumerate(sims):
        module = dg.heart_embed(R, S)
        module.label = f"heart(S{i})"
        rp = pd(module, cap=cap)
        ri = injdim(module, cap=cap)
        report.children[f"S{i}.pd"] = rp
        report.children[f"S{i}.injdim"] = ri
        pd_vals.append(rp)
        inj_vals.append(ri)
        all_exact = all_exact and rp.exact is not None and ri.exact is not None
    if all(r.exact is not None for r in pd_vals):
        report.exact = max(r.exact for r in pd_vals)
    else:
        report.at_least = max(
            [r.at_least for r in pd_vals if r.at_least is not None]
            + [r.exact for r in pd_vals if r.exact is not None]
        )
    if all_exact:
        mx_pd = max(r.exact for r in pd_vals)
        mx_inj = max(r.exact for r in inj_vals)
        if mx_pd != mx_inj:
            raise RuntimeError(f"max-simple pd {mx_pd} != max-simple injdim {mx_inj}")
        report.certificate["max_injdim_agrees"] = True
    return report


def gorenstein_check(R: dg.DGAlgebra, cap: int = 16) -> dict:
    """Finite self-injective dimension on both sides."""
    left = injdim(R.regular_module(), cap=cap)
    Rop = R.opposite()
    right = injdim(Rop.regular_module(), cap=cap)
    return {
        "gorenstein": left.exact is not None and right.exact is not None,
        "injdim_right": left,
        "injdim_left": right,
    }

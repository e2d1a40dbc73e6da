"""Derived Hom and tensor functors on bounded windows, three ways.

Route one resolves the source by a semifree DG-module F, grown with no
cone per round (a generator's column of the cone differential is fixed when
it is adjoined), and reads the tensor complex off its generators:
(F ⊗_R L)^n = ⊕_g L^{n - s_g}, with d_L on each block and the twists
acting between blocks, so no balance relation is solved.  Hom goes through
the same complex by k-duality, Hom_R(F, N) = D(F ⊗_R D N).  Routes two and
three read the same dimensions off a sup-projective or inf-injective
resolution through the slot formulas: with s_i = sup P_i the group
Hom(M, N[n]) vanishes unless n = i - s_i for some stage i, and at a slot
it is computed from the three-term complex of Hom_{H0}(H^sup(P_*), N)
spaces, with the kernel, cokernel or middle-cohomology case keyed on the
equality pattern of adjacent stage sups.  Tor tables use the tensor
analogue with slots n = -i + s_i, and inf-injective resolutions give the
Hom tables with a heart source at slots n = i + inf I_{-i}.  Stage i's
edge is sup or inf of H(M_i), read off the long exact sequence of
H(f_{i-1}) before M_i is built; the walk stops at the first slot past the
window, building neither M_i nor T_i there, and only the stages in the
window and their equal-edge neighbours have T_i and its group built.

Every functor takes an explicit finite window; the semifree construction
takes a floor deep enough that the window is unaffected by truncating the
resolution, namely H^i(cone(augmentation)) = 0 for all i above the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import dgcore as dg
from . import exactla as la
from . import heartkit as hk
from .resolve import IfijResolution, SppjResolution

STAGE_CAP = 64  # the last stage index a slot table may need before its window ends


@dataclass
class HomTable:
    window: tuple[int, int]
    dims: dict[int, int]
    route: str

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def support(self) -> list[int]:
        return sorted(n for n, d in self.dims.items() if d)

    def same_dims(self, other) -> bool:
        a, b = self.window
        return all(self.dim(n) == other.dim(n) for n in range(a, b + 1))


TorTable = HomTable


# ---------------------------------------------------------------------------
# semifree resolutions


@dataclass
class SemifreeResolution:
    """A free DG-module with a filtration-compatible differential and a
    quasi-isomorphism onto the target above the floor.

    The generators, twists and images define F and the augmentation, which
    are built on first read: no table needs them."""

    module: dg.DGModule  # the resolved module
    floor: int
    gen_degrees: list[int] = field(default_factory=list)
    twists: dict = field(default_factory=dict)  # (h, g) -> R-vector, h earlier than g
    images: list = field(default_factory=list)  # augmentation images of the generators
    _free: dg.DGModule | None = field(default=None, init=False, repr=False)
    _augmentation: dg.DGMorphism | None = field(default=None, init=False, repr=False)

    @property
    def free(self) -> dg.DGModule:
        if self._free is None:
            self._free = dg.free_module(self.module.algebra, self.gen_degrees, twists=self.twists, label="F")
        return self._free

    @free.setter
    def free(self, F: dg.DGModule):
        self._free = F

    @property
    def augmentation(self) -> dg.DGMorphism:
        if self._augmentation is None:
            self._augmentation = dg.free_map(self.free, self.module, self.images)
        return self._augmentation

    @augmentation.setter
    def augmentation(self, eps: dg.DGMorphism):
        self._augmentation = eps

    def ranks_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.gen_degrees:
            out[s] = out.get(s, 0) + 1
        return out


def semifree(M: dg.DGModule, floor: int) -> SemifreeResolution:
    """Adjoin free generators top-down until the cone C of the augmentation
    is acyclic above the floor.

    Round j, from M.hi() down to floor + 1, computes H^j(C) for the
    generators adjoined so far, all in degrees above j, and kills it by one
    new generator e per generator of H^j over H0, the fewest that its
    projective cover records, lifted to a cocycle (m, x) in C^j = M^j +
    F^{j+1}: e maps to -m, the twist d(e) = x, so the new C is the cone of
    e -> -(m, x), as the F[1] block of a cone carries -d_F.  The generators
    of H^j over H0 map onto it and H^{j+1}(R) = 0, so by the long exact
    sequence the new C has no cohomology in degrees >= j.  An acyclic M
    gets the empty free module, whose Hom and tensor complexes vanish.

    C is M until the first generator, and no cone is built: C^i is M^i
    followed by R^{i+1-s_g} for each generator g in order, the columns of
    d_C on new generators are fixed when they are adjoined (_columns), and
    round j assembles d_C^{j-1}, d_C^j and act_C(j, 0) from M's blocks and
    those columns (_round_cone).
    """
    R, p = M.algebra, M.p
    sf = SemifreeResolution(M, floor)
    batches = []  # per round that adjoins: (degree, count, {k: their columns of d_C on R^k})
    for j in range(M.hi(), floor, -1):
        C = _round_cone(M, batches, j) if batches else M
        cohC = dg.cohomology(C, window=(j, j))
        if not cohC.dim(j):
            continue
        reps = cohC.rep(j, hk.projective_cover(dg.heart_module(C, j, cohC)).generators)  # cocycles (m, x)
        # x's blocks of F^{j+1}, one per earlier generator h, of width R.dim(j + 1 - s_h)
        ends = np.cumsum([M.dim(j)] + [R.dim(j + 1 - s) for s in sf.gen_degrees])
        # the (new, earlier) generator pairs with a twist, new-major as the keys are ordered
        new, rows = np.nonzero(reps[M.dim(j) :].T)
        earlier = np.searchsorted(ends, rows + M.dim(j), "right") - 1
        for c, h in dict.fromkeys(zip(new.tolist(), earlier.tolist())):
            sf.twists[(h, len(sf.gen_degrees) + c)] = reps[ends[h] : ends[h + 1], c].copy()
        images = (-reps) % p
        if j > floor + 1:  # rounds j - 1 down to floor + 1 read these columns
            cols = {k: _columns(M, batches, images, j, k) for k in R.degrees() if k > floor - j}
            batches.append((j, images.shape[1], cols))
        sf.gen_degrees += [j] * images.shape[1]
        sf.images += [v[: M.dim(j)].copy() for v in images.T]
    return sf


def _offsets(M: dg.DGModule, batches: list, i: int) -> list[int]:
    """Where C^i's blocks start: M^i, then (R^{i+1-s})^n per batch of n generators in degree s."""
    rdim = M.algebra.dims.get
    return list(accumulate([M.dim(i)] + [n * rdim(i + 1 - s, 0) for s, n, _ in batches], initial=0))


def _action(M: dg.DGModule, batches: list, i: int, k: int) -> np.ndarray:
    """act_C(i, k): M's on M^i and R's on each generator's block."""
    R, src, tgt = M.algebra, _offsets(M, batches, i), _offsets(M, batches, i + k)
    t = np.zeros((src[-1], R.dim(k), tgt[-1]), dtype=np.int64)
    t[: src[1], :, : tgt[1]] = M.act_tensor(i, k)
    for b, (s, _, _) in enumerate(batches):
        if (w := R.dim(i + 1 - s)) and (wk := R.dim(i + 1 - s + k)):
            for a, c in zip(range(src[b + 1], src[b + 2], w), range(tgt[b + 1], tgt[b + 2], wk)):
                t[a : a + w, :, c : c + wk] = R.mult_tensor(i + 1 - s, k)
    return t


def _columns(M: dg.DGModule, batches: list, images: np.ndarray, j: int, k: int) -> np.ndarray:
    """The columns of d_C on e R^k for new generators e in degree j with
    images in C^j (columns): image . b by C's action, which is image_g b
    into M and -z_{h,g} b into each earlier h; then -(-1)^j d_R b into e's
    own block, and nothing into another new generator's."""
    R, p, n = M.algebra, M.p, images.shape[1]
    into = la.contract("xn,xtc->cnt", images, _action(M, batches, j, k), p)
    col = la.zeros(len(into) + n * R.dim(k + 1), n * R.dim(k))
    col[: len(into)] = into.reshape(len(into), n * R.dim(k))
    own = col[len(into) :].reshape(n, R.dim(k + 1), n, R.dim(k))
    own[range(n), :, range(n)] = -(-1) ** (j % 2) * R.diff_mat(k) % p
    return col


def _round_cone(M: dg.DGModule, batches: list, j: int) -> dg.DGModule:
    """Degrees j - 1, j and j + 1 of round j's cone C, with act_C(j, 0)."""
    R = M.algebra
    offs = {i: _offsets(M, batches, i) for i in (j - 1, j, j + 1)}
    dims = {i: o[-1] for i, o in offs.items() if o[-1]}
    diff = {}
    for i in (j - 1, j):
        if i in dims and i + 1 in dims:
            d = diff[i] = la.zeros(dims[i + 1], dims[i])
            d[: M.dim(i + 1), : M.dim(i)] = M.diff_mat(i)
            for b, (s, _, cols) in enumerate(batches):
                if R.dim(i + 1 - s):
                    d[: len(cols[i + 1 - s]), offs[i][b + 1] : offs[i][b + 2]] = cols[i + 1 - s]
    act = {(j, 0): _action(M, batches, j, 0)} if j in dims else {}
    return dg.DGModule(R, dims, diff, act, label=f"C^{j}({M.label})")


# ---------------------------------------------------------------------------
# windowed derived functors, route one


def rhom(M: dg.DGModule, N: dg.DGModule, window: tuple[int, int],
         resolution: SemifreeResolution | None = None) -> HomTable:
    """Per-degree dimensions of H^n RHom(M, N) for n in the window.

    Hom_R(F, N) = D(F ⊗_R D N) by k-duality, so H^n is the dual of
    H^{-n}(F ⊗_R D N): the Tor table of D N on the negated window, which
    asks for the same floor N.lo() - window[1] - 2."""
    a, b = window
    tor = ltensor(M, dg.dualize(N), (-b, -a), resolution)
    return HomTable(window, {n: tor.dim(-n) for n in range(a, b + 1) if tor.dim(-n)}, "semifree")


def ltensor(M: dg.DGModule, L: dg.DGModule, window: tuple[int, int],
            resolution: SemifreeResolution | None = None) -> TorTable:
    """Per-degree dimensions of H^n (M ⊗^L L) for n in the window; L is a
    right module over the opposite algebra."""
    if not L.degrees():
        return TorTable(window, {}, "semifree")
    floor = window[0] - L.hi() - 2
    if resolution is None:
        resolution = semifree(M, floor)
    elif resolution.floor > floor:
        raise ValueError(f"semifree floor {resolution.floor} is too shallow: the window needs {floor}")
    coh = dg.cohomology(_generator_complex(resolution, L, window), with_action=False, window=window)
    return TorTable(window, {n: coh.dim(n) for n in range(window[0], window[1] + 1) if coh.dim(n)}, "semifree")


def _generator_complex(sf: SemifreeResolution, L: dg.DGModule, window: tuple[int, int]) -> dg.KComplex:
    """F ⊗_R L in the window widened by one degree, read off the generators
    of F with no elimination: degree n is ⊕_g L^{n - s_g}, blocks in
    generator order.  d(e_g ⊗ l) = d(e_g) ⊗ l + (-1)^{s_g} e_g ⊗ d l, and the
    twist z of d(e_g) moves to l as e_h z ⊗ l = (-1)^{|z||l|} e_h ⊗ (l *op z)."""
    s, p = sf.gen_degrees, L.p
    degs = range(window[0] - 1, window[1] + 2)
    offs = {n: np.cumsum([0] + [L.dim(n - sg) for sg in s]) for n in degs}
    dims = {n: int(o[-1]) for n, o in offs.items() if o[-1]}
    diff = {}
    for n in degs[:-1]:
        if n not in dims or n + 1 not in dims:
            continue
        d, src, tgt = la.zeros(dims[n + 1], dims[n]), offs[n], offs[n + 1]
        for g, sg in enumerate(s):
            d[tgt[g] : tgt[g + 1], src[g] : src[g + 1]] = (-1) ** (sg % 2) * L.diff_mat(n - sg)
        for (h, g), z in sf.twists.items():
            t, zdeg = n - s[g], s[g] + 1 - s[h]
            if L.dim(t) and L.dim(t + zdeg):
                blk = la.contract("xby,b->yx", L.act_tensor(t, zdeg), z, p)
                d[tgt[h] : tgt[h + 1], src[g] : src[g + 1]] += (-1) ** (zdeg * t % 2) * blk
        diff[n] = d % p
    return dg.KComplex(p, dims, diff, label=f"F⊗({L.label})")


# ---------------------------------------------------------------------------
# slot-formula routes


class InsufficientStagesError(RuntimeError):
    pass


def _slot_dims(res, slot, group, induced, window) -> dict[int, int]:
    """Nonzero dimensions at the slots in window, read off the stages of res.

    Stage i sits at slot(i, e) with e = res.edge(i), sup or inf of H(M_i),
    which the resolution reads before M_i or T_i is built.  Slots move strictly one
    way along the stages, so the walk stops at the first stage whose slot
    is past the window.  STAGE_CAP bounds the stages before that one: the
    walk raises when the window needs a stage past index STAGE_CAP.
    group(Q) is (dim, ...) for the group of the stage's heart module
    Q = H^e(T_i).  When stages i-1 and i share their edge, induced(alpha, G,
    H) is the map of groups induced by alpha = H^e(res.delta(i)), where G
    and H are the groups of delta's source and target stage.  A slot's group
    is the middle cohomology of the three-term complex through its stage,
    whose outer maps exist between stages of equal edge only, so for every
    route and either direction of the maps

        dim_i - rank(trans_i) [e_{i-1} = e_i] - rank(trans_{i+1}) [e_{i+1} = e_i].

    It reads nothing else, so T_i, its group and delta are built only for
    the stages in the window and their equal-edge neighbours.
    """
    a, b = window
    up = slot(1, 0) > slot(0, 0)  # slots rise along sppj and ifij, fall along spft
    edges = []
    while (e := res.edge(len(edges))) is not None:
        i, n = len(edges), slot(len(edges), e)
        edges.append(e)
        if (n > b) if up else (n < a):
            break
        if i > STAGE_CAP:
            raise InsufficientStagesError("extend resolution: stage cap reached before covering the window")
    inside = [i for i, e in enumerate(edges) if a <= slot(i, e) <= b]
    pairs = [i for i in range(1, len(edges)) if edges[i - 1] == edges[i] and {i - 1, i} & set(inside)]
    built = sorted(set(inside) | {j for i in pairs for j in (i - 1, i)})
    res.build_stages(max(built, default=-1) + 1)
    groups = {i: group(dg.heart_module(res.terms[i], edges[i], res.term_cohs[i])) for i in built}
    trans = {}
    for i in pairs:
        src, tgt = (i, i - 1) if res.edge_name == "sup" else (i - 1, i)
        alpha = dg.cohomology_map(res.delta(i), edges[i], res.term_cohs[src], res.term_cohs[tgt])
        trans[i] = induced(alpha, groups[src], groups[tgt])
    p = res.base.p
    dims = {}
    for i in inside:
        val = groups[i][0] - sum(la.rank(trans[j], p) for j in (i, i + 1) if j in trans)
        if val:
            dims[slot(i, edges[i])] = val
    return dims


def _pulled_back(alpha, G, H):
    """Hom(Q_H, N) -> Hom(Q_G, N), phi -> phi alpha, for alpha : Q_G -> Q_H."""
    (_, g), (_, h) = G, H
    return g.coords(la.matmul(h.matrices(), alpha, g.p)).T


def _pushed_forward(beta, G, H):
    """Hom(N, J_G) -> Hom(N, J_H), phi -> beta phi, for beta : J_G -> J_H."""
    (_, g), (_, h) = G, H
    return h.coords(la.matmul(beta, g.matrices(), h.p)).T


def hom_table_via_sppj(M: dg.DGModule, N: hk.FDModule, resolution: SppjResolution | None = None,
                       window: tuple[int, int] = (0, 8)) -> HomTable:
    """Hom(M, N[n]) for a heart module N, read off a sup-projective
    resolution through the slot formula, slots n = i - sup P_i."""
    res = resolution or SppjResolution(M)
    dims = _slot_dims(res, lambda i, s: i - s, lambda Q: ((h := hk.hom_space(Q, N)).dim, h), _pulled_back, window)
    return HomTable(window, dims, "sppj")


def tensor_over_h0(Q: hk.FDModule, L: hk.FDModule):
    """Q (x)_{H0} L for Q a right module and L a right module over the
    opposite algebra (a left module); returns (dim, proj, sect) for the
    quotient of the ambient Q (x) L by the middle-action relations."""
    # action[a] acts on columns; as a tensor, action[a][u, x] is the
    # coefficient of u in x.a
    p = Q.algebra.p
    terms = [(np.transpose(Q.action, (2, 0, 1)), np.transpose(L.action, (2, 0, 1)), 1, 0, 0)]
    proj, sect = la.quotient_basis(la.span(la.balance_rows(terms, [Q.dim * L.dim], p), Q.dim * L.dim, p))
    return proj.shape[0], proj, sect


def tor_table_via_spft(M: dg.DGModule, L: hk.FDModule, resolution: SppjResolution | None = None,
                       window: tuple[int, int] = (-8, 0)) -> TorTable:
    """H^n(M (x)^L T) for a left heart module T, via the sup-flat slot
    formula with slots n = -i + sup P_i."""
    res = resolution or SppjResolution(M)

    def induced(alpha, G, H):
        # Q_i (x) L -> Q_{i-1} (x) L through the ambient tensor products
        return la.matmul(H[1], la.matmul(np.kron(alpha, la.eye(L.dim)), G[2], M.p), M.p)

    dims = _slot_dims(res, lambda i, s: s - i, lambda Q: tensor_over_h0(Q, L), induced, window)
    return TorTable(window, dims, "spft")


def hom_table_via_ifij(N: hk.FDModule, M: dg.DGModule, resolution: IfijResolution | None = None,
                       window: tuple[int, int] = (0, 8)) -> HomTable:
    """Hom(N, M[n]) for a heart module N, read off an inf-injective
    resolution through the dual slot formula, slots n = i + inf I_{-i}."""
    res = resolution or IfijResolution(M)
    dims = _slot_dims(res, lambda i, t: i + t, lambda J: ((h := hk.hom_space(N, J)).dim, h), _pushed_forward, window)
    return HomTable(window, dims, "ifij")


# ---------------------------------------------------------------------------
# concentration scan


def heart_battery(R: dg.DGAlgebra) -> list[hk.FDModule]:
    """Simples, the regular H0-module and its radical layers."""
    hd = hk.heart_of(R)
    out = list(hk.simples(hd.h0))
    reg = hk.regular_module(hd.h0)
    reg.label = R.label + ".H0"  # hd.h0 may be R0 itself, or shared with R^op
    out.append(reg)
    chain = hk.radical_chain(hd.h0)
    for k in range(1, len(chain) - 1):
        sub_k, _ = hk.subspace_module(reg, chain[k], label=f"rad^{k}")
        layer, _ = hk.quotient_module(sub_k, _coords_in(chain[k], chain[k + 1], R.p), label=f"rad^{k}/rad^{k+1}")
        if layer.dim:
            out.append(layer)
    return out


def _coords_in(outer: la.Subspace, inner: la.Subspace, p: int) -> la.Subspace:
    return la.span(outer.coordinates(inner.basis), outer.dim, p)


def concentration_scan(M: dg.DGModule, battery: list[hk.FDModule] | None = None,
                       window: tuple[int, int] = (-8, 8),
                       resolution: SemifreeResolution | None = None) -> dict:
    """Union of the supports of RHom(M, heart(N)) over a battery of heart
    modules, as an interval report."""
    R = M.algebra
    battery = battery if battery is not None else heart_battery(R)
    resolution = resolution or semifree(M, -window[1] - 2)
    per = {}
    lo, hi = None, None
    for idx, N in enumerate(battery):
        table = rhom(M, dg.heart_embed(R, N), window, resolution=resolution)
        sup_n = table.support()
        per[f"{idx}:{N.label}"] = sup_n
        if sup_n:
            lo = sup_n[0] if lo is None else min(lo, sup_n[0])
            hi = sup_n[-1] if hi is None else max(hi, sup_n[-1])
    return {"window": window, "support": None if lo is None else (lo, hi), "per_module": per}

"""Builtin example algebras and modules.

These generators back the CLI's instance references and the test battery:
ordinary algebras (field, truncated polynomials, upper triangular, full
matrix, products) placed in degree zero, Koszul complexes over commutative
monomial bases, and the standard module builtins (free shifts, R + R[n],
heart embeddings, psi-type injectives).
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from . import dgcore as dg
from . import exactla as la
from . import heartkit as hk
from .exactla import DEFAULT_PRIME


def _dga_from_ordinary(p, mult, unit, label, names=None, seed=0) -> dg.DGAlgebra:
    n = len(unit)
    R = dg.DGAlgebra(p, {0: n}, {(0, 0): la.as_field(mult, p)}, {}, la.as_field(unit, p), label=label, seed=seed)
    R.names = {0: names or [f"b{i}" for i in range(n)]}
    return R


def field_dga(p=DEFAULT_PRIME, seed=0) -> dg.DGAlgebra:
    mult = np.ones((1, 1, 1), dtype=np.int64)
    return _dga_from_ordinary(p, mult, [1], "field", names=["one"], seed=seed)


def nilpotent_dga(p=DEFAULT_PRIME, m=2, seed=0) -> dg.DGAlgebra:
    """k[x]/(x^m) concentrated in degree zero."""
    mult = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            if a + b < m:
                mult[a, b, a + b] = 1
    unit = np.zeros(m, dtype=np.int64)
    unit[0] = 1
    names = ["one"] + [f"x{'' if e == 1 else e}" for e in range(1, m)]
    return _dga_from_ordinary(p, mult, unit, f"nilpotent({m})", names=names, seed=seed)


def _matrix_units(p, n, pairs, label, seed) -> dg.DGAlgebra:
    """The span of the matrix units E_ij, (i, j) in pairs, closed under products."""
    idx = {pr: t for t, pr in enumerate(pairs)}
    d = len(pairs)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                mult[a, b, idx[(i, l)]] = 1
    unit = np.zeros(d, dtype=np.int64)
    for i in range(n):
        unit[idx[(i, i)]] = 1
    names = [f"E{i + 1}{j + 1}" for (i, j) in pairs]
    return _dga_from_ordinary(p, mult, unit, label, names=names, seed=seed)


def triangular_dga(p=DEFAULT_PRIME, n=2, seed=0) -> dg.DGAlgebra:
    """Upper triangular n x n matrices."""
    return _matrix_units(p, n, [(i, j) for i in range(n) for j in range(i, n)], f"triangular({n})", seed)


def matrix_dga(p=DEFAULT_PRIME, n=2, seed=0) -> dg.DGAlgebra:
    return _matrix_units(p, n, [(i, j) for i in range(n) for j in range(n)], f"matrix({n})", seed)


def product_dga(A: dg.DGAlgebra, B: dg.DGAlgebra, seed=0) -> dg.DGAlgebra:
    if A.p != B.p:
        raise ValueError("product of algebras over different primes")
    p = A.p
    degs = sorted(set(A.degrees()) | set(B.degrees()))
    dims = {i: A.dim(i) + B.dim(i) for i in degs}
    mult, diff = {}, {}
    for i in degs:
        if dims.get(i + 1, 0):
            d = la.zeros(dims[i + 1], dims[i])
            d[: A.dim(i + 1), : A.dim(i)] = A.diff_mat(i)
            d[A.dim(i + 1) :, A.dim(i) :] = B.diff_mat(i)
            diff[i] = d
        for j in degs:
            k = i + j
            if dims.get(k, 0) == 0:
                continue
            t = np.zeros((dims[i], dims[j], dims[k]), dtype=np.int64)
            t[: A.dim(i), : A.dim(j), : A.dim(k)] = A.mult_tensor(i, j)
            t[A.dim(i) :, A.dim(j) :, A.dim(k) :] = B.mult_tensor(i, j)
            mult[(i, j)] = t
    unit = np.concatenate([A.unit, B.unit])
    R = dg.DGAlgebra(p, dims, mult, diff, unit, label=f"product({A.label},{B.label})", seed=seed)
    names_a = getattr(A, "names", {})
    names_b = getattr(B, "names", {})
    R.names = {
        i: [f"l_{nm}" for nm in names_a.get(i, [f"b{t}" for t in range(A.dim(i))])]
        + [f"r_{nm}" for nm in names_b.get(i, [f"b{t}" for t in range(B.dim(i))])]
        for i in degs
    }
    return R


# ---------------------------------------------------------------------------
# commutative monomial bases and Koszul complexes


def monomial_base(p, variables: list[tuple[str, int]], seed=0):
    """k[x_1,..,x_n]/(x_1^{m_1},..,x_n^{m_n}) with its monomial coordinates.

    Returns (DGAlgebra in degree zero, dict monomial-name -> vector).
    """
    bounds = [m for _, m in variables]
    if any(m < 1 for m in bounds):
        raise ValueError("variable bounds must be >= 1")
    monos = list(itertools.product(*[range(m) for m in bounds]))
    monos.sort(key=lambda e: (sum(e), e))
    index = {e: t for t, e in enumerate(monos)}
    d = len(monos)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for ea, a in index.items():
        for eb, b in index.items():
            ec = tuple(x + y for x, y in zip(ea, eb))
            if all(x < m for x, m in zip(ec, bounds)):
                mult[a, b, index[ec]] = 1
    unit = np.zeros(d, dtype=np.int64)
    unit[index[tuple(0 for _ in bounds)]] = 1

    def name_of(e):
        if sum(e) == 0:
            return "one"
        parts = []
        for (v, _), k in zip(variables, e):
            if k == 1:
                parts.append(v)
            elif k > 1:
                parts.append(f"{v}^{k}")
        return "*".join(parts)

    names = [name_of(e) for e in monos]
    label = "k[" + ",".join(v for v, _ in variables) + "]/(" + ",".join(f"{v}^{m}" for v, m in variables) + ")"
    R = _dga_from_ordinary(p, mult, unit, label, names=names, seed=seed)
    vectors = {}
    for e, t in index.items():
        v = np.zeros(d, dtype=np.int64)
        v[t] = 1
        vectors[names[t]] = v
    return R, vectors


def koszul_dga(base: dg.DGAlgebra, elements: list[np.ndarray], element_names=None, seed=0) -> dg.DGAlgebra:
    """Koszul complex over a commutative degree-zero base B: the exterior
    algebra on generators e_s in degree -1, tensored with B, with
    d(e_S b) = sum over s in S, at position pos, of (-1)^pos e_{S - s} b x_s.

    Degree -k has the basis e_S b_u, the size-k subsets S in lexicographic
    order and, within each, the basis b_u of B.
    """
    if base.degrees() != [0]:
        raise ValueError("koszul base must be concentrated in degree zero")
    p, m, B = base.p, base.dim(0), base.mult_tensor(0, 0)
    subsets = [list(itertools.combinations(range(len(elements)), k)) for k in range(len(elements) + 1)]
    where = {S: t for subs in subsets for t, S in enumerate(subs)}
    dims = {-k: len(subs) * m for k, subs in enumerate(subsets)}
    mult = {}
    for ki, left in enumerate(subsets):
        for kj, right in enumerate(subsets[: len(subsets) - ki]):
            # e_S e_T = (-1)^{inversions} e_{S + T} when S and T are disjoint
            ext = np.zeros((len(left), len(right), len(subsets[ki + kj])), dtype=np.int64)
            for (a, S), (b, T) in itertools.product(enumerate(left), enumerate(right)):
                if not set(S) & set(T):
                    ext[a, b, where[tuple(sorted(S + T))]] = (-1) ** sum(s > t for s in S for t in T)
            shape = (dims[-ki], dims[-kj], dims[-ki - kj])
            mult[(-ki, -kj)] = la.contract("STU,uvw->SuTvUw", ext, B, p).reshape(shape)
    # b_u -> b_u x_s as a matrix, one per element
    right_mult = [la.contract("b,ubw->wu", la.as_field(x, p), B, p) for x in elements]
    diff = {}
    for k in range(1, len(subsets)):
        diff[-k] = d = la.zeros(dims[1 - k], dims[-k])
        for a, S in enumerate(subsets[k]):
            for pos, s in enumerate(S):
                c = where[S[:pos] + S[pos + 1 :]]
                d[c * m : (c + 1) * m, a * m : (a + 1) * m] = (-1) ** pos * right_mult[s] % p
    base_names = getattr(base, "names", {})
    if isinstance(base_names, dict):
        base_names = base_names.get(0, [f"b{t}" for t in range(m)])
    element_names = element_names or [f"e{t}" for t in range(len(elements))]
    names = {}
    for k, subs in enumerate(subsets):
        names[-k] = []
        for S in subs:
            wedge = "^".join(f"e_{element_names[s]}" for s in S)
            names[-k] += [nm if not S else wedge if nm == "one" else f"{nm}*{wedge}" for nm in base_names]
    label = f"koszul({','.join(element_names)}; {base.label})"
    R = dg.DGAlgebra(p, dims, mult, diff, np.array(base.unit, dtype=np.int64), label=label, seed=seed)
    R.names = names
    return R


# ---------------------------------------------------------------------------
# module builtins


def regular(R: dg.DGAlgebra) -> dg.DGModule:
    return R.regular_module()


def m_of(R: dg.DGAlgebra, n: int) -> dg.DGModule:
    """R + R[n]."""
    M = dg.free_module(R, [0, -n], label=f"M_of({n})")
    return M


def free(R: dg.DGAlgebra, n: int, shift_by: int = 0) -> dg.DGModule:
    return dg.free_module(R, [-shift_by] * n, label=f"free({n},{shift_by})")


def heart_simple(R: dg.DGAlgebra, i: int) -> dg.DGModule:
    hd = hk.heart_of(R)
    sims = hk.simples(hd.h0)
    if not 0 <= i < len(sims):
        raise ValueError(f"algebra has {len(sims)} simples, asked for S{i}")
    M = dg.heart_embed(R, sims[i])
    M.label = f"heart(S{i})"
    return M


def heart_h0(R: dg.DGAlgebra) -> dg.DGModule:
    hd = hk.heart_of(R)
    M = dg.heart_embed(R, hk.regular_module(hd.h0))
    M.label = "heart(H0)"
    return M


def psi_cogenerator(R: dg.DGAlgebra) -> dg.DGModule:
    """psi of the dual regular R0-module, an injective cogenerator."""
    hd = hk.heart_of(R)
    K = hk.dual_module(hk.regular_module(hd.r0.opposite()))
    K = hk.FDModule(hd.r0, K.dim, K.action, label="D(R0)")
    M = dg.psi(R, K)
    M.label = "psi(D(R0))"
    return M


# ---------------------------------------------------------------------------
# spec-string parsing for the CLI


_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$", re.S)


def _split_args(s: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur and "".join(cur).strip():
        out.append("".join(cur).strip())
    return out


_BASE = re.compile(r"^\s*k\[([^\]]*)\]\s*/\s*\(([^)]*)\)\s*$")


def parse_base(spec: str, p: int, seed=0):
    m = _BASE.match(spec)
    if not m:
        raise ValueError(f"cannot parse base algebra {spec!r}; expected k[x,..]/(x^a,..)")
    variables = [v.strip() for v in m.group(1).split(",") if v.strip()]
    bounds = {}
    for rel in m.group(2).split(","):
        rel = rel.strip()
        rm = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)\s*\^\s*(\d+)$", rel)
        if not rm:
            raise ValueError(f"cannot parse relation {rel!r}; expected var^power")
        bounds[rm.group(1)] = int(rm.group(2))
    missing = [v for v in variables if v not in bounds]
    if missing:
        raise ValueError(f"variables without a bounding relation: {missing}")
    return monomial_base(p, [(v, bounds[v]) for v in variables], seed=seed)


def _parse_monomial(expr: str, variables_vs: dict, base: dg.DGAlgebra):
    total = None
    for factor in expr.replace(" ", "").split("*"):
        fm = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$", factor)
        if not fm or fm.group(1) not in {v.split("^")[0] for v in variables_vs}:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        name, e = fm.group(1), int(fm.group(2) or 1)
        v = variables_vs.get(name)
        if v is None:
            raise ValueError(f"unknown variable {name!r}")
        for _ in range(e):
            total = v if total is None else base.multiply(total, 0, v, 0)
    if total is None:
        raise ValueError(f"empty monomial {expr!r}")
    return total


def builtin_algebra(spec: str, p: int = DEFAULT_PRIME, seed: int = 0) -> dg.DGAlgebra:
    """Build a named algebra instance, e.g. 'triangular(2)' or
    'koszul(x; k[x]/(x^2))'."""
    m = _CALL.match(spec)
    if not m:
        raise ValueError(f"cannot parse algebra spec {spec!r}")
    name, args = m.group(1), m.group(2)
    if name == "field":
        return field_dga(p, seed=seed)
    if name == "nilpotent":
        inner = (args or "").strip()
        bm = re.match(r"^k\[[^\]]*\]\s*/\s*\(\s*[A-Za-z_][A-Za-z_0-9]*\^(\d+)\s*\)$", inner)
        m_ = int(bm.group(1)) if bm else int(inner or 2)
        return nilpotent_dga(p, m_, seed=seed)
    if name == "triangular":
        return triangular_dga(p, int(args or 2), seed=seed)
    if name == "matrix":
        return matrix_dga(p, int(args or 2), seed=seed)
    if name == "product":
        parts = _split_args(args or "")
        if len(parts) != 2:
            raise ValueError("product(...) takes two algebra specs")
        return product_dga(builtin_algebra(parts[0], p, seed), builtin_algebra(parts[1], p, seed), seed=seed)
    if name == "koszul":
        if args is None or ";" not in args:
            raise ValueError("koszul needs 'elements; base'")
        elems_s, base_s = args.split(";", 1)
        base, vectors = parse_base(base_s, p, seed=seed)
        elems, enames = [], []
        for e in _split_args(elems_s):
            elems.append(_parse_monomial(e, vectors, base))
            enames.append(e.replace(" ", ""))
        return koszul_dga(base, elems, element_names=enames, seed=seed)
    raise ValueError(f"unknown builtin algebra {name!r}")


def builtin_module(R: dg.DGAlgebra, spec: str) -> dg.DGModule:
    """Build a named module instance over R, e.g. 'M_of(3)' or 'heart(S0)'."""
    m = _CALL.match(spec)
    if not m:
        raise ValueError(f"cannot parse module spec {spec!r}")
    name, args = m.group(1), m.group(2)
    if name in ("R", "regular"):
        return regular(R)
    if name == "M_of":
        if args is None:
            raise ValueError("M_of needs a shift, as in M_of(3)")
        return m_of(R, int(args))
    if name == "free":
        parts = _split_args(args or "1")
        n = int(parts[0])
        s = int(parts[1]) if len(parts) > 1 else 0
        return free(R, n, s)
    if name == "heart":
        a = (args or "").strip()
        if a == "H0":
            return heart_h0(R)
        sm = re.match(r"^S(\d+)$", a)
        if sm:
            return heart_simple(R, int(sm.group(1)))
        raise ValueError(f"unknown heart module {a!r}; use H0 or S<i>")
    if name == "psi_cogen":
        return psi_cogenerator(R)
    if name == "shifted_regular":
        return dg.shift(regular(R), int(args or 1))
    raise ValueError(f"unknown builtin module {name!r}")


# ---------------------------------------------------------------------------
# the test battery


def battery_algebras(p: int = DEFAULT_PRIME, seed: int = 0) -> dict[str, dg.DGAlgebra]:
    return {
        "field": builtin_algebra("field()", p, seed),
        "field_x_field": builtin_algebra("product(field(), field())", p, seed),
        "matrix2": builtin_algebra("matrix(2)", p, seed),
        "nilpotent2": builtin_algebra("nilpotent(2)", p, seed),
        "triangular2": builtin_algebra("triangular(2)", p, seed),
        "koszul_dual_numbers": builtin_algebra("koszul(x; k[x]/(x^2))", p, seed),
    }

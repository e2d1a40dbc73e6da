"""Koszul algebras built as the exterior algebra tensored with the base,
checked entry for entry against the former subset-by-subset loops."""

import itertools

import numpy as np
import pytest

from dgres import battery
from dgres import exactla as la
from dgres import dgcore as dg

SPECS = [
    "koszul(x; k[x]/(x^2))",
    "koszul(x,y; k[x,y]/(x^2,y^2))",
    "koszul(x,y,z; k[x,y,z]/(x^2,y^2,z^2))",
    "koszul(x,y,z,w; k[x,y,z,w]/(x^2,y^2,z^2,w^2))",
    "koszul(x*y, x; k[x,y]/(x^2,y^2))",
    "koszul(x,x; k[x]/(x^2))",
    "koszul(x^2; k[x]/(x^3))",
    "koszul(x, y^2; k[x,y]/(x^2,y^3))",
    "koszul(x*y; k[x,y]/(x^2,y^2))",
    "product(koszul(x,y; k[x,y]/(x^2,y^2)), triangular(2))",
]


def koszul_oracle(base, elements, element_names=None, seed=0):
    """The former koszul_dga: every table entry written by its own loop."""
    if base.degrees() != [0]:
        raise ValueError("koszul base must be concentrated in degree zero")
    p = base.p
    m = base.dim(0)
    d = len(elements)
    base_mult = base.mult_tensor(0, 0)
    subsets = {k: sorted(itertools.combinations(range(d), k)) for k in range(d + 1)}
    index = {}
    dims = {}
    for k in range(d + 1):
        cnt = 0
        for S in subsets[k]:
            for u in range(m):
                index[(S, u)] = (-k, cnt)
                cnt += 1
        if cnt:
            dims[-k] = cnt

    def shuffle_sign(S, T):
        inv = sum(1 for s in S for t in T if s > t)
        return -1 if inv % 2 else 1

    mult = {}
    for ki in range(d + 1):
        for kj in range(d + 1):
            if ki + kj > d:
                continue
            i, j = -ki, -kj
            t = np.zeros((dims.get(i, 0), dims.get(j, 0), dims.get(i + j, 0)), dtype=np.int64)
            for S in subsets[ki]:
                for T in subsets[kj]:
                    if set(S) & set(T):
                        continue
                    U = tuple(sorted(S + T))
                    sgn = shuffle_sign(S, T)
                    for u in range(m):
                        for v in range(m):
                            prod = base_mult[u, v]
                            _, a = index[(S, u)]
                            _, b = index[(T, v)]
                            for w in range(m):
                                if prod[w]:
                                    _, c = index[(U, w)]
                                    t[a, b, c] = (t[a, b, c] + sgn * prod[w]) % p
            mult[(i, j)] = t
    diff = {}
    for k in range(1, d + 1):
        i = -k
        mat = la.zeros(dims.get(i + 1, 0), dims.get(i, 0))
        for S in subsets[k]:
            for u in range(m):
                _, a = index[(S, u)]
                for pos, s in enumerate(S):
                    rest = tuple(x for x in S if x != s)
                    sgn = -1 if pos % 2 else 1
                    img = base.multiply(la.eye(m)[u], 0, elements[s], 0)
                    for w in range(m):
                        if img[w]:
                            _, c = index[(rest, w)]
                            mat[c, a] = (mat[c, a] + sgn * img[w]) % p
        diff[i] = mat
    unit = np.zeros(dims[0], dtype=np.int64)
    base_names = getattr(base, "names", [f"b{t}" for t in range(m)])
    if isinstance(base_names, dict):
        base_names = base_names.get(0, [f"b{t}" for t in range(m)])
    for u in range(m):
        if base.unit[u]:
            _, c = index[((), u)]
            unit[c] = base.unit[u]
    element_names = element_names or [f"e{t}" for t in range(d)]
    names = {}
    for k in range(d + 1):
        deg = -k
        if dims.get(deg, 0) == 0:
            continue
        lst = [""] * dims[deg]
        for S in subsets[k]:
            wedge = "^".join(f"e_{element_names[s]}" for s in S)
            for u in range(m):
                _, c = index[(S, u)]
                nm = base_names[u]
                lst[c] = wedge if not S == () and nm == "one" else (nm if S == () else f"{nm}*{wedge}")
        names[deg] = lst
    label = f"koszul({','.join(element_names)}; {base.label})"
    R = dg.DGAlgebra(p, dims, mult, diff, unit, label=label, seed=seed)
    R.names = names
    return R


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_tables(a: dict, b: dict):
    return list(a) == list(b) and all(same(a[k], b[k]) for k in a)


@pytest.mark.parametrize("p", [32003, 101, 17])
@pytest.mark.parametrize("spec", SPECS)
def test_koszul_matches_the_loop_oracle(spec, p, monkeypatch):
    R = battery.builtin_algebra(spec, p, seed=1)
    monkeypatch.setattr(battery, "koszul_dga", koszul_oracle)
    O = battery.builtin_algebra(spec, p, seed=1)
    assert R.dims == O.dims and list(R.dims) == list(O.dims)
    assert same_tables(R.mult, O.mult) and same_tables(R.diff, O.diff)
    assert same(R.unit, O.unit)
    assert R.names == O.names and (R.label, R.seed) == (O.label, O.seed)

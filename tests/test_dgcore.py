import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv
from dgres import textio
from test_heartkit import pi_shriek

P = 32003


def hdims(M):
    return {i: d for i, d in dg.cohomology(M, with_action=False).dims.items()}


def test_battery_algebras_validate(algebras):
    for name, R in algebras.items():
        assert dg.validate_algebra(R) == [], name
        assert dg.validate_module(R.regular_module()) == [], name


# ---------------------------------------------------------------------------
# the basis-loop validators, kept as test-only oracles for the tensor checks


def validate_algebra_oracle(R):
    """Reference check of a DG-algebra: every identity on basis vectors."""
    bad = []
    p = R.p
    for i in R.degrees():
        if i > 0:
            bad.append(f"component in positive degree {i}")
    if R.dim(0) == 0:
        bad.append("no degree-zero component")
        return bad
    for i in R.degrees():
        if np.any(la.matmul(R.diff_mat(i + 1), R.diff_mat(i), p)):
            bad.append(f"d o d != 0 at degree {i}")
    for j in R.degrees():
        for b in range(R.dim(j)):
            e = la.eye(R.dim(j))[b]
            if np.any(R.multiply(R.unit, 0, e, j) != e):
                bad.append(f"unit fails on left of basis ({j},{b})")
            if np.any(R.multiply(e, j, R.unit, 0) != e):
                bad.append(f"unit fails on right of basis ({j},{b})")
    for i in R.degrees():
        for j in R.degrees():
            for a in range(R.dim(i)):
                for b in range(R.dim(j)):
                    ea, eb = la.eye(R.dim(i))[a], la.eye(R.dim(j))[b]
                    lhs = la.matmul(R.diff_mat(i + j), R.multiply(ea, i, eb, j), p)
                    rhs = (
                        R.multiply(la.matmul(R.diff_mat(i), ea, p), i + 1, eb, j)
                        + (-1) ** i * R.multiply(ea, i, la.matmul(R.diff_mat(j), eb, p), j + 1)
                    ) % p
                    if np.any(lhs != rhs):
                        bad.append(f"Leibniz fails at degrees ({i},{j}) basis ({a},{b})")
    for i in R.degrees():
        for j in R.degrees():
            for k in R.degrees():
                for a in range(R.dim(i)):
                    for b in range(R.dim(j)):
                        ea, eb = la.eye(R.dim(i))[a], la.eye(R.dim(j))[b]
                        ab = R.multiply(ea, i, eb, j)
                        for c in range(R.dim(k)):
                            ec = la.eye(R.dim(k))[c]
                            lhs = R.multiply(ab, i + j, ec, k)
                            rhs = R.multiply(ea, i, R.multiply(eb, j, ec, k), j + k)
                            if np.any(lhs != rhs):
                                bad.append(f"associativity fails at ({i},{j},{k}) basis ({a},{b},{c})")
    return bad


def validate_module_oracle(M):
    """Reference check of a right DG-module: every identity on basis vectors."""
    bad = []
    R, p = M.algebra, M.p
    for i in M.degrees():
        if np.any(la.matmul(M.diff_mat(i + 1), M.diff_mat(i), p)):
            bad.append(f"d o d != 0 at degree {i}")
    for i in M.degrees():
        for m in range(M.dim(i)):
            em = la.eye(M.dim(i))[m]
            if np.any(M.action(em, i, R.unit, 0) != em):
                bad.append(f"unit fails on basis ({i},{m})")
    for i in M.degrees():
        for j in R.degrees():
            for m in range(M.dim(i)):
                for r in range(R.dim(j)):
                    em, er = la.eye(M.dim(i))[m], la.eye(R.dim(j))[r]
                    lhs = la.matmul(M.diff_mat(i + j), M.action(em, i, er, j), p)
                    rhs = (
                        M.action(la.matmul(M.diff_mat(i), em, p), i + 1, er, j)
                        + (-1) ** i * M.action(em, i, la.matmul(R.diff_mat(j), er, p), j + 1)
                    ) % p
                    if np.any(lhs != rhs):
                        bad.append(f"module Leibniz fails at ({i},{j}) basis ({m},{r})")
                    mr = M.action(em, i, er, j)
                    for k in R.degrees():
                        for s in range(R.dim(k)):
                            es = la.eye(R.dim(k))[s]
                            lhs2 = M.action(mr, i + j, es, k)
                            rhs2 = M.action(em, i, R.multiply(er, j, es, k), j + k)
                            if np.any(lhs2 != rhs2):
                                bad.append(f"action associativity fails at ({i},{j},{k})")
    return bad


def validate_morphism_oracle(f):
    """Reference check of a strict DG-module map: every identity on basis vectors."""
    bad = []
    M, N, p = f.source, f.target, f.p
    if M.algebra is not N.algebra and M.algebra.dims != N.algebra.dims:
        bad.append("source and target over different algebras")
    for i in set(M.degrees()) | set(N.degrees()):
        lhs = la.matmul(f.block(i + 1), M.diff_mat(i), p)
        rhs = la.matmul(N.diff_mat(i), f.block(i), p)
        if np.any(lhs != rhs):
            bad.append(f"not a chain map at degree {i}")
    for i in M.degrees():
        for j in M.algebra.degrees():
            for m in range(M.dim(i)):
                for r in range(M.algebra.dim(j)):
                    em, er = la.eye(M.dim(i))[m], la.eye(M.algebra.dim(j))[r]
                    lhs = f.apply(M.action(em, i, er, j), i + j)
                    rhs = N.action(f.apply(em, i), i, er, j)
                    if np.any(lhs != rhs):
                        bad.append(f"not R-linear at ({i},{j}) basis ({m},{r})")
    return bad


def _bump(tables, rng):
    """A copy of a dict of arrays with one entry moved by a nonzero amount mod P."""
    keys = sorted(k for k, t in tables.items() if t.size)
    key = keys[rng.integers(len(keys))]
    out = {k: t.copy() for k, t in tables.items()}
    idx = tuple(int(rng.integers(n)) for n in out[key].shape)
    out[key][idx] = (out[key][idx] + rng.integers(1, P)) % P
    return out


def _heart_simples(R):
    return [battery.heart_simple(R, i) for i in range(len(hk.simples(hk.heart_of(R).h0)))]


def _mutants(tables, rng, count):
    return [_bump(tables, rng) for _ in range(count)] if any(t.size for t in tables.values()) else []


def test_validate_algebra_matches_oracle_on_mutants(algebras, k2):
    rng = np.random.default_rng(0)
    caught = 0
    for name, R in dict(algebras, K2=k2).items():
        mutants = [R]
        mutants += [replace(R, mult=m, _memo={}) for m in _mutants(R.mult, rng, 6)]
        mutants += [replace(R, diff=d, _memo={}) for d in _mutants(R.diff, rng, 2)]
        mutants += [replace(R, unit=u[0], _memo={}) for u in _mutants({0: R.unit}, rng, 2)]
        for X in mutants:
            want = validate_algebra_oracle(X)
            assert dg.validate_algebra(X) == want, name
            caught += bool(want)
    assert caught >= 50  # 56 of the 60 mutants break an identity


def test_validate_module_matches_oracle_on_mutants(algebras, k2):
    rng = np.random.default_rng(1)
    caught = 0
    for name, R in dict(algebras, K2=k2).items():
        for M in [R.regular_module()] + _heart_simples(R):
            mutants = [M]
            mutants += [replace(M, act=a) for a in _mutants(M.act, rng, 3)]
            mutants += [replace(M, diff=d) for d in _mutants(M.diff, rng, 2)]
            for X in mutants:
                want = validate_module_oracle(X)
                # the oracle interleaves Leibniz and associativity messages
                assert Counter(dg.validate_module(X)) == Counter(want), (name, M.label)
                caught += bool(want)
    assert caught >= 45  # all 52 mutants break an identity


def test_validate_morphism_matches_oracle_on_mutants(algebras, k2):
    rng = np.random.default_rng(2)
    caught = 0
    for name, R in dict(algebras, K2=k2).items():
        for M in [R.regular_module()] + _heart_simples(R):
            res = rv.IfijResolution(M)
            res.ensure(3)
            for f in res.maps:
                for X in [f] + [replace(f, blocks=b) for b in _mutants(f.blocks, rng, 2)]:
                    want = validate_morphism_oracle(X)
                    assert dg.validate_morphism(X) == want, (name, M.label)
                    caught += bool(want)
    # 29 of the 48 mutants break an identity; a scalar multiple of a map
    # between one-dimensional modules, say, is still a strict map
    assert caught >= 25


def test_associativity_slabs_give_the_same_report(k2, monkeypatch):
    rng = np.random.default_rng(3)
    reg = k2.regular_module()
    objs = [replace(k2, mult=m, _memo={}) for m in _mutants(k2.mult, rng, 4)]
    objs += [replace(reg, act=a) for a in _mutants(reg.act, rng, 4)]
    whole = [dg.validate(X) for X in objs]
    assert sum("associativity" in r for rep in whole for r in rep) > 0
    monkeypatch.setattr(dg, "_ASSOC_BLOCK", 1)  # one first-factor basis vector per slab
    assert [dg.validate(X) for X in objs] == whole


def test_parse_rejects_broken_product(k2):
    text = textio.emit(textio.InputDocument(P, k2))
    assert "\nmul y x = x*y\n" in text
    with pytest.raises(textio.ParseError, match="associativity|Leibniz"):
        textio.parse(text.replace("\nmul y x = x*y\n", "\nmul y x = 0\n"))


def test_emit_parse_round_trip_with_p_below_total_dimension():
    # p is checked once, when the algebra is built: 13 > dim K2^0 = 4 although
    # K2 has total dimension 16
    R = battery.builtin_algebra("koszul(x,y; k[x,y]/(x^2,y^2))", 13)
    text = textio.emit(textio.InputDocument(13, R))
    doc = textio.parse(text)
    assert doc.algebra.dims == R.dims and textio.emit(doc) == text
    S = doc.algebra
    assert all(np.array_equal(S.mult_tensor(i, j), R.mult_tensor(i, j)) for i in R.degrees() for j in R.degrees())
    assert all(np.array_equal(S.diff_mat(i), R.diff_mat(i)) for i in R.degrees())
    with pytest.raises(hk.ConfigurationError, match=r"dim R\^0 = 4, got p=3"):
        textio.parse(text.replace("p 13\n", "p 3\n"))


def test_p_bounds_checked_at_construction():
    # the trace-form radical of R^0 needs p > dim R^0 = 3
    with pytest.raises(hk.ConfigurationError, match=r"dim R\^0 = 3, got p=3"):
        battery.builtin_algebra("triangular(2)", 3)
    assert battery.builtin_algebra("triangular(2)", 5).dims == {0: 3}
    # above 3.04e9 one product of two entries already overflows int64
    p = next(n for n in itertools.count(3_040_000_000) if la.is_prime(n))
    a = np.full((3, 3), p - 1, dtype=np.int64)
    assert la.matmul(a, a, p)[0, 0] != 3 * (p - 1) ** 2 % p
    with pytest.raises(hk.ConfigurationError, match=rf"2\^63, got p={p}, total_dim=1"):
        battery.builtin_algebra("field()", p)


def test_validate_sees_d_squared_at_the_largest_accepted_prime():
    # d1 d0 = 3 (p - 1)^2 + 581,896,575 (p - 1) = 2,455,103,921 mod p, a sum
    # that wraps as one int64 sum of products
    p = 3_037_000_493
    R = battery.builtin_algebra("field()", p)
    dims = {0: 1, 1: 4, 2: 1}
    d0 = np.full((4, 1), p - 1, dtype=np.int64)
    d1 = np.array([[p - 1, p - 1, p - 1, 581_896_575]], dtype=np.int64)
    act = {(i, 0): la.eye(n)[:, None, :] for i, n in dims.items()}
    M = dg.DGModule(R, dims, {0: d0, 1: d1}, act)
    assert dg.validate(M) == ["d o d != 0 at degree 0"]
    assert int(la.matmul(d1, d0, p)[0, 0]) == 2_455_103_921


def test_boundaries_in_cycles_are_rref_without_elimination(algebras, k2, monkeypatch):
    # cohomology builds B inside Z from the pivots of B and Z; it must be the
    # subspace that eliminating bc again gives
    modules = []
    for R in dict(algebras, K2=k2).values():
        for M in [R.regular_module()] + _heart_simples(R):
            sppj, ifij = rv.SppjResolution(M), rv.IfijResolution(M)
            sppj.ensure(2)
            ifij.ensure(2)
            modules += [M] + sppj.terms + ifij.terms
    seen = []
    quotient_basis = la.quotient_basis

    def spy(sub):
        seen.append(sub)
        return quotient_basis(sub)

    monkeypatch.setattr(la, "quotient_basis", spy)
    for X in modules:
        dg.cohomology(X, with_action=False)
    assert sum(sub.dim for sub in seen) > 0
    for sub in seen:
        again = la.span(sub.basis, sub.ambient_dim, P)
        assert sub == again and sub.pivots == again.pivots


def test_koszul_tables(koszul):
    assert koszul.dims == {-1: 2, 0: 2}
    assert koszul.total_dim == 4


def test_validate_catches_leibniz_violation(koszul):
    bad = dg.DGAlgebra(
        koszul.p,
        dict(koszul.dims),
        {k: v.copy() for k, v in koszul.mult.items()},
        {k: v.copy() for k, v in koszul.diff.items()},
        koszul.unit.copy(),
        label="broken",
    )
    # send the second degree -1 basis vector to x as well: breaks Leibniz
    d = bad.diff[-1].copy()
    d[:, 1] = d[:, 0]
    bad.diff[-1] = d
    report = dg.validate_algebra(bad)
    assert any("Leibniz" in r for r in report)


def test_cohomology_koszul(koszul):
    assert hdims(koszul.regular_module()) == {0: 1, -1: 1}


def test_cohomology_free_additivity(koszul):
    F = dg.free_module(koszul, [0, 0, 0])
    assert hdims(F) == {0: 3, -1: 3}


def test_cohomology_cone_of_identity(koszul):
    C, _, _ = dg.cone(dg.identity_morphism(koszul.regular_module()))
    assert dg.is_acyclic(C)
    assert dg.validate_module(C) == []


def test_shift_properties(koszul):
    M = battery.m_of(koszul, 2)
    assert dg.shift(M, 0) is M
    s = dg.shift(dg.shift(M, 2), 1)
    t = dg.shift(M, 3)
    assert s.dims == t.dims
    for i in s.degrees():
        assert np.array_equal(s.diff_mat(i), t.diff_mat(i))
    assert dg.cohomology(dg.shift(koszul.regular_module(), 3), with_action=False).sup == -3
    assert dg.validate_module(dg.shift(M, 1)) == []
    assert dg.validate_module(dg.shift(M, -1)) == []


def test_cone_of_zero_map(koszul):
    R = koszul.regular_module()
    M = battery.free(koszul, 1, 1)  # R[1]
    z = dg.DGMorphism(M, R, {})
    C, inc, prj = dg.cone(z)
    assert dg.validate_module(C) == []
    want = {}
    for i, d in hdims(R).items():
        want[i] = want.get(i, 0) + d
    for i, d in hdims(dg.shift(M, 1)).items():
        want[i] = want.get(i, 0) + d
    assert hdims(C) == want


def heart_k(R):
    return battery.heart_simple(R, 0)


def test_cocone_projection_to_heart(koszul):
    # R -> heart(k): cocone has cohomology k concentrated in degree -1
    R = koszul.regular_module()
    k = heart_k(koszul)
    hd = hk.heart_of(koszul)
    f = dg.DGMorphism(R, k, {0: hd.project})
    assert dg.validate_morphism(f) == []
    N, g = dg.cocone(f)
    assert dg.validate_module(N) == []
    assert dg.validate_morphism(g) == []
    assert hdims(N) == {-1: 1}


def _les_ranks(f):
    C, inc, prj = dg.cone(f)
    cs, ct, cc = (dg.cohomology(x, with_action=False) for x in (f.source, f.target, C))
    cshift = dg.cohomology(dg.shift(f.source, 1), with_action=False)
    degs = sorted(set(cs.dims) | set(ct.dims) | set(cc.dims))
    for i in degs:
        a = dg.cohomology_map(f, i, cs, ct)
        b = dg.cohomology_map(inc, i, ct, cc)
        c = dg.cohomology_map(prj, i, cc, cshift)
        # exactness at H^i(target) and H^i(cone)
        assert not np.any(la.matmul(b, a, P) % P)
        assert la.rank(a, P) == ct.dim(i) - la.rank(b, P)
        assert la.rank(b, P) == cc.dim(i) - la.rank(c, P)


def test_long_exact_sequence(koszul, tri2):
    for R in (koszul, tri2):
        reg = R.regular_module()
        k = heart_k(R)
        hd = hk.heart_of(R)
        blocks = {0: hk.simples(hd.h0)[0].dim and _simple_quotient_block(R)}
        f = dg.DGMorphism(reg, k, {0: _simple_quotient_block(R)})
        assert dg.validate_morphism(f) == []
        _les_ranks(f)
        _les_ranks(dg.identity_morphism(reg))


def _simple_quotient_block(R):
    hd = hk.heart_of(R)
    S = hk.simples(hd.h0)[0]
    hs = hk.hom_space(hk.regular_module(hd.h0), S)
    assert hs.dim >= 1
    # an H0-linear surjection H0 -> S, precomposed with R0 -> H0
    for k in range(hs.dim):
        m = hs.matrix(k)
        if la.rank(m, P) == S.dim:
            return la.matmul(m, hd.project, P)
    raise AssertionError("no surjection H0 -> S found")


def test_truncate_below_and_above(koszul):
    M = battery.m_of(koszul, 2)  # sup = 0, cohomology also at -2, -3
    s = dg.cohomology(M, with_action=False).sup
    lower, incl = dg.truncate(M, s, "below")
    assert dg.validate_module(lower) == []
    assert dg.validate_morphism(incl) == []
    assert dg.is_quasi_iso(incl)
    upper, proj = dg.truncate(M, s, "above")
    assert dg.validate_module(upper) == []
    assert dg.validate_morphism(proj) == []
    assert dg.is_acyclic(upper)
    # koszul regular, truncated at -1: cohomology k in degree -1
    RK = koszul.regular_module()
    low, _ = dg.truncate(RK, -1, "below")
    assert hdims(low) == {-1: 1}


def test_truncation_matches_cohomology_window(koszul):
    M = battery.m_of(koszul, 3)
    full = hdims(M)
    for n in range(-4, 1):
        low, _ = dg.truncate(M, n, "below")
        assert hdims(low) == {i: d for i, d in full.items() if i <= n}
        up, _ = dg.truncate(M, n, "above")
        assert hdims(up) == {i: d for i, d in full.items() if i > n}


def test_psi_over_field():
    F = battery.field_dga(P)
    hd = hk.heart_of(F)
    K = hk.regular_module(hd.r0)
    I = dg.psi(F, K)
    assert I.dims == {0: 1}
    assert dg.validate_module(I) == []


def test_psi_koszul_example(koszul):
    hd = hk.heart_of(koszul)
    E = hk.regular_module(hd.r0)  # E_{R0}(k) = R0 for the self-injective R0
    I = dg.psi(koszul, E)
    assert dg.validate_module(I) == []
    assert I.dims == {0: 2, 1: 2}
    assert hdims(I) == {0: 1, 1: 1}


def test_psi_h0_is_pi_shriek(algebras):
    for name, R in algebras.items():
        hd = hk.heart_of(R)
        K = hk.dual_module(hk.regular_module(hd.r0.opposite()))
        K = hk.FDModule(hd.r0, K.dim, K.action, label="D(R0)")
        assert hk.is_injective(K)
        I = dg.psi(R, K)
        assert dg.validate_module(I) == [], name
        pi_mod, _ = pi_shriek(hd, K)
        assert dg.cohomology(I, with_action=False).dim(0) == pi_mod.dim, name


def test_heart_embed_of_regular_ordinary(nilp2):
    hd = hk.heart_of(nilp2)
    M = dg.heart_embed(nilp2, hk.regular_module(hd.h0))
    R = nilp2.regular_module()
    assert M.dims == R.dims
    assert np.array_equal(M.act_tensor(0, 0), R.act_tensor(0, 0))


def test_heart_embed_validates(koszul):
    k = heart_k(koszul)
    assert dg.validate_module(k) == []
    assert k.dims == {0: 1}
    z = dg.heart_embed(koszul, hk.zero_module(hk.heart_of(koszul).h0))
    assert z.total_dim == 0


def test_hom_complex_from_regular(koszul):
    R = koszul.regular_module()
    for N in (battery.m_of(koszul, 2), heart_k(koszul), battery.psi_cogenerator(koszul)):
        hc = dg.hom_complex(R, N)
        assert {i: hc.dim(i) for i in hc.degrees()} == {i: N.dim(i) for i in N.degrees()}
        got = dg.cohomology(hc, with_action=False).dims
        assert got == hdims(N)


def test_hom_complex_into_zero(koszul):
    z = dg.zero_module(koszul)
    hc = dg.hom_complex(battery.m_of(koszul, 1), z)
    assert hc.dims == {}


def test_hom_complex_h0_matches_heart_homs(algebras):
    # dim H^0 Hom(R^n, M) == dim Hom_{H0}(H^0(R^n), H^0(M))
    for name, R in algebras.items():
        hd = hk.heart_of(R)
        F = dg.free_module(R, [0, 0])
        for M in (R.regular_module(), battery.heart_simple(R, 0), battery.m_of(R, 1)):
            hc = dg.hom_complex(F, M, window=(-1, 1))
            h0 = dg.cohomology(hc, with_action=False).dim(0)
            q = dg.heart_module(F, 0)
            n = dg.heart_module(M, 0)
            assert h0 == hk.hom_space(q, n).dim, (name, M.label)


def test_tensor_unit_laws(koszul, tri2):
    for R in (koszul, tri2):
        L = battery.regular(R.opposite())
        M = battery.m_of(R, 2)
        t = dg.tensor_complex(M, L)
        assert dg.cohomology(t, with_action=False).dims == hdims(M)
        t2 = dg.tensor_complex(battery.regular(R), battery.m_of(R.opposite(), 1))
        assert dg.cohomology(t2, with_action=False).dims == hdims(battery.m_of(R.opposite(), 1))


def test_tensor_heart_with_heart(koszul):
    k = heart_k(koszul)
    kop = battery.heart_simple(koszul.opposite(), 0)
    t = dg.tensor_complex(k, kop)
    assert dg.cohomology(t, with_action=False).dims == {0: 1}


def test_dualize(koszul):
    Rop = koszul.opposite()
    assert dg.validate_algebra(Rop) == []
    D = dg.dualize(koszul.regular_module())
    assert dg.validate_module(D) == []
    assert hdims(D) == {0: 1, 1: 1}
    theta = dg.double_dual_map(battery.m_of(koszul, 2))
    assert dg.validate_morphism(theta) == []
    assert dg.is_quasi_iso(theta)


def test_dualize_field():
    F = battery.field_dga(P)
    D = dg.dualize(F.regular_module())
    assert D.dims == {0: 1}


def test_is_quasi_iso(koszul):
    R = koszul.regular_module()
    assert dg.is_quasi_iso(dg.identity_morphism(R))
    M = battery.m_of(koszul, 1)
    z = dg.DGMorphism(M, R, {})
    assert not dg.is_quasi_iso(z)


@settings(max_examples=12, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_shift_composition_random(a, b):
    R = battery.builtin_algebra("koszul(x; k[x]/(x^2))", P)
    M = battery.m_of(R, 2)
    s = dg.shift(dg.shift(M, a), b)
    t = dg.shift(M, a + b)
    assert s.dims == t.dims
    for i in s.degrees():
        assert np.array_equal(s.diff_mat(i) % P, t.diff_mat(i) % P)
        for j in R.degrees():
            assert np.array_equal(s.act_tensor(i, j), t.act_tensor(i, j))


def test_free_module_and_map_validate(koszul):
    F = dg.free_module(koszul, [0, -2])
    assert dg.validate_module(F) == []
    M = battery.m_of(koszul, 2)
    coh = dg.cohomology(M)
    # map sending generators to cocycle representatives
    z0 = coh.rep(0, la.eye(coh.dim(0))[0])
    z2 = coh.rep(-2, la.eye(coh.dim(-2))[0])
    f = dg.free_map(F, M, [z0, z2])
    assert dg.validate_morphism(f) == []


@pytest.mark.parametrize("p", [9, 32004])
def test_non_prime_p_rejected_at_construction(p):
    for spec in ("field()", "triangular(2)", "koszul(x,y; k[x,y]/(x^2,y^2))"):
        with pytest.raises(hk.ConfigurationError, match=f"p={p}"):
            battery.builtin_algebra(spec, p)
    text = textio.emit(textio.InputDocument(P, battery.builtin_algebra("triangular(2)", P)))
    assert text.startswith(f"p {P}\n")
    for doc in (text.replace(f"p {P}", f"p {p}", 1), f"p {p}\nalgebra builtin koszul(x; k[x]/(x^2))\n"):
        with pytest.raises(hk.ConfigurationError, match=f"p={p}"):
            textio.parse(doc)


# ---------------------------------------------------------------------------
# the basis-loop forms of psi and of the Hom differential, kept as test-only
# oracles for the stacked versions


def psi_oracle(R, spaces):
    """psi's dims, differential and action, one coords call per basis map."""
    p = R.p
    dims = {i: sp.dim for i, sp in spaces.items() if sp.dim}
    diff, act = {}, {}
    for i in sorted(dims):
        if dims.get(i + 1, 0):
            sign = -1 if i % 2 else 1
            cols = [spaces[i + 1].coords((-sign * la.matmul(spaces[i].matrix(a), R.diff_mat(-i - 1), p)) % p)
                    for a in range(dims[i])]
            diff[i] = np.stack(cols, axis=1)
        for j in R.degrees():
            k = i + j
            if dims.get(k, 0) == 0:
                continue
            t = np.zeros((dims[i], R.dim(j), dims[k]), dtype=np.int64)
            for a in range(dims[i]):
                for b in range(R.dim(j)):
                    Lb = R.left_mult_matrix(la.eye(R.dim(j))[b], j, -k)  # R^{-k} -> R^{-i}
                    t[a, b] = spaces[k].coords(la.matmul(spaces[i].matrix(a), Lb, p))
            act[(i, j)] = t
    return dims, diff, act


def hom_differential_oracle(M, N, hc):
    """The differential of hc = hom_complex(M, N), one coords call per basis map."""
    p, spaces, layouts = M.p, hc.basis["spaces"], hc.basis["layouts"]
    diff = {}
    for n in spaces:
        if n + 1 not in spaces or spaces[n].dim == 0 or spaces[n + 1].dim == 0:
            continue
        sign = -1 if n % 2 else 1
        cols = []
        for k in range(spaces[n].dim):
            phi, off = {}, 0
            for i, r, c in layouts[n]:
                phi[i], off = spaces[n].basis[k, off : off + r * c].reshape(r, c), off + r * c
            parts = []
            for i, _, _ in layouts[n + 1]:
                a = la.matmul(N.diff_mat(i + n), phi.get(i, la.zeros(N.dim(i + n), M.dim(i))), p)
                b = la.matmul(phi.get(i + 1, la.zeros(N.dim(i + 1 + n), M.dim(i + 1))), M.diff_mat(i), p)
                parts.append(((a - sign * b) % p).reshape(-1))
            cols.append(spaces[n + 1].coords(np.concatenate(parts)))
        diff[n] = np.stack(cols, axis=1)
    return diff


def _same_arrays(a: dict, b: dict):
    return a.keys() == b.keys() and all(a[k].shape == b[k].shape and np.array_equal(a[k], b[k]) for k in a)


def test_psi_matches_loop_oracle(algebras, k2):
    checked = 0
    for R in dict(algebras, K2=k2).values():
        for A in (R, R.opposite()):
            r0 = hk.heart_of(A).r0
            for K in hk.simples(r0) + [hk.regular_module(r0), hk.injective_envelope(hk.simples(r0)[0]).module]:
                I = dg.psi(A, K)
                dims, diff, act = psi_oracle(A, I._psi_spaces)
                assert I.dims == dims and _same_arrays(I.diff, diff) and _same_arrays(I.act, act), (A.label, K.label)
                checked += len(act)
    assert checked > 50


def test_hom_differential_matches_loop_oracle(algebras, k2):
    for R in dict(algebras, K2=k2).values():
        mods = [R.regular_module(), battery.m_of(R, 1)] + _heart_simples(R)
        for M in mods:
            for N in mods:
                hc = dg.hom_complex(M, N)
                assert _same_arrays(hc.diff, hom_differential_oracle(M, N, hc)), (R.label, M.label, N.label)


def test_mapspace_coords_of_a_stack(k2):
    sp = dg.psi(k2, hk.regular_module(hk.heart_of(k2).r0))._psi_spaces[1]
    rng = np.random.default_rng(1)
    c = rng.integers(0, P, (2, 3, sp.dim))
    maps = la.as_field(c @ sp.basis, P).reshape(2, 3, sp.rows, sp.cols)
    assert np.array_equal(sp.coords(maps), c)
    assert np.array_equal(sp.coords(maps[1, 2]), c[1, 2])
    assert sp.coords(maps[:0]).shape == (0, 3, sp.dim)
    # a unit vector at a non-pivot position has coordinates 0 but is not 0
    outside = la.zeros(sp.rows, sp.cols)
    outside.flat[next(c for c in range(outside.size) if c not in sp.pivots)] = 1
    with pytest.raises(ValueError, match="outside the space"):
        sp.coords(np.stack([maps[0, 0], outside]))


# ---------------------------------------------------------------------------
# free-term cohomology copied from H(R)


K3_SPEC = "koszul(x,y,z; k[x,y,z]/(x^2,y^2,z^2))"


def _same_cohomology(a, b):
    cycles = a.cycle_basis.keys() == b.cycle_basis.keys() and all(
        (x.ambient_dim, x.pivots) == (y.ambient_dim, y.pivots) and x.basis.shape == y.basis.shape
        and np.array_equal(x.basis, y.basis)
        for x, y in ((a.cycle_basis[i], b.cycle_basis[i]) for i in a.cycle_basis)
    )
    return (a.p, a.dims) == (b.p, b.dims) and cycles and _same_arrays(a.reps, b.reps) and _same_arrays(
        a.class_proj, b.class_proj) and _same_arrays(a.action, b.action)


def test_free_cohomology_matches_cohomology(algebras, k2):
    algs = dict(algebras, K2=k2, K3=battery.builtin_algebra(K3_SPEC, P))
    for R in algs.values():
        for A in (R, R.opposite()):
            for s, n in ((0, 1), (0, 3), (-1, 2), (2, 1), (0, 0)):
                F = dg.free_module(A, [s] * n)
                assert _same_cohomology(dg.free_cohomology(A, s, n), dg.cohomology(F)), (A.label, s, n)


def test_each_elimination_happens_once(algebras, k2, monkeypatch):
    # kernel and solve_many eliminate once; sppj terms take H(P) from H(R)
    rref, cohomology = la.rref, dg.cohomology
    rrefs, cohomology_args = [], []

    def counted_rref(m, p):
        rrefs.append(np.shape(m))
        return rref(m, p)

    def counted_cohomology(M, *args, **kwargs):
        cohomology_args.append(M)
        return cohomology(M, *args, **kwargs)

    monkeypatch.setattr(la, "rref", counted_rref)
    monkeypatch.setattr(dg, "cohomology", counted_cohomology)
    rng = np.random.default_rng(0)
    for rows, cols in ((0, 3), (4, 0), (5, 7), (30, 20)):
        m = rng.integers(0, P, (rows, cols)) * (rng.random((rows, cols)) < 0.3)
        rrefs.clear()
        la.kernel(m, P)
        assert len(rrefs) == 1
        for k in (0, 1, 6):
            for rhs in (la.matmul(m, rng.integers(0, P, (cols, k)), P), rng.integers(0, P, (rows, k))):
                rrefs.clear()
                la.solve_many(m, rhs, P)
                assert len(rrefs) == 1
    terms = []
    for R in dict(algebras, K2=k2).values():
        for M in [R.regular_module()] + _heart_simples(R):
            res = rv.SppjResolution(M)
            res.ensure(3)
            terms += res.terms
    assert len(terms) > 20 and cohomology_args
    assert not any(X is T for X in cohomology_args for T in terms)

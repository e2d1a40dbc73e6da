import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import textio

P = 32003


def hdims(M):
    return {i: d for i, d in dg.cohomology(M, with_action=False).dims.items()}


def test_battery_algebras_validate(algebras):
    for name, R in algebras.items():
        assert dg.validate_algebra(R) == [], name
        assert dg.validate_module(R.regular_module()) == [], name


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
        pi_mod, _ = hk.pi_shriek(hd, K)
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

"""Cohomology computed only in a window of degrees.

Resolution models get their cohomology on the side of an edge that the
exact triangle proves, and semifree cones one degree at a time from the
top; inside the window every field must equal the full computation bit for
bit, and outside it (above it, for a cone) the full computation must show
nothing that the window hides.  The cohomology of a model's dual
is read off the model's window by transpose and must be the full H(D M) in
another basis.
"""

import itertools

import numpy as np
import pytest

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv
from test_duality import dual_matches, old_membership_I

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_arrays(a: dict, b: dict):
    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def inside(window, i):
    return window[0] <= i <= window[1]


def same_in_window(win, full):
    """win equals full restricted to win.window, field for field."""
    w = win.window
    cut = {k: v for k, v in full.cycle_basis.items() if inside(w, k)}
    cycles = win.cycle_basis.keys() == cut.keys() and all(
        (x.ambient_dim, x.pivots) == (y.ambient_dim, y.pivots) and same(x.basis, y.basis)
        for x, y in ((win.cycle_basis[i], cut[i]) for i in cut)
    )
    return (
        win.p == full.p
        and win.dims == {i: d for i, d in full.dims.items() if inside(w, i)}
        and cycles
        and same_arrays(win.reps, {i: r for i, r in full.reps.items() if inside(w, i)})
        and same_arrays(win.class_proj, {i: c for i, c in full.class_proj.items() if inside(w, i)})
        and same_arrays(win.action, {(i, j): a for (i, j), a in full.action.items()
                                     if inside(w, i) and inside(w, i + j)})
    )


def hidden_degrees(win, full, side=None):
    """Degrees outside win.window where full has cohomology; side 'above'
    looks only above the window."""
    lo, hi = win.window
    return [i for i, d in full.dims.items() if d and (i > hi or (side is None and i < lo))]


def modules(R):
    sims = len(hk.simples(hk.heart_of(R).h0))
    return [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(sims)]


def spy_cohomology(monkeypatch):
    """Record (module, window, result) of every dg.cohomology call."""
    cohomology, calls = dg.cohomology, []

    def spy(M, *args, **kwargs):
        out = cohomology(M, *args, **kwargs)
        calls.append((M, kwargs.get("window"), out))
        return out

    monkeypatch.setattr(dg, "cohomology", spy)
    return calls


def test_resolution_models_and_duals_match_the_full_cohomology(algebras, k2):
    algs = dict(algebras, triangular4=battery.builtin_algebra("triangular(4)", P), K2=k2)
    checked = duals = 0
    for name, R in algs.items():
        for M in modules(R):
            for res, n in ((rv.SppjResolution(M), 5), (rv.IfijResolution(M), 4)):
                res.ensure(n)
                assert res.cohs[0].window == (dg.NEG_INF, dg.POS_INF)
                for i in range(1, len(res.models)):
                    model, win = res.models[i], res.cohs[i]
                    where = (name, M.label, res.edge_name, i)
                    assert win.window == ((dg.NEG_INF, res.infos[i - 1].edge) if res.edge_name == "sup"
                                          else (res.infos[i - 1].edge, dg.POS_INF))
                    full = dg.cohomology(model)
                    assert same_in_window(win, full), where
                    assert hidden_degrees(win, full) == [], where
                    checked += 1
                    if win.is_acyclic():
                        continue
                    # H(D M_i) read off the windowed H(M_i): a change of basis from the full one
                    assert dual_matches(model, win), where
                    answer = rv.membership_I(model, win)
                    assert answer == rv.membership_I(model) == old_membership_I(model), where
                    duals += 1
    assert (checked, duals) == (139, 96)


def test_semifree_cones_and_derived_complexes_match_the_full_cohomology(k2, monkeypatch):
    # rhom reads the tensor complex of D N on the negated window
    S, L = battery.heart_simple(k2, 0), battery.heart_simple(k2.opposite(), 0)
    for run, window, floor in ((lambda: dv.rhom(S, S, (0, 7)), (-7, 0), S.lo() - 7 - 2),
                               (lambda: dv.ltensor(S, L, (-7, 0)), (-7, 0), -7 - L.hi() - 2)):
        calls = spy_cohomology(monkeypatch)
        run()
        monkeypatch.undo()
        cones = [(X, out) for X, w, out in calls if w is not None and isinstance(X, dg.DGModule)]
        complexes = [(X, out) for X, w, out in calls if isinstance(X, dg.KComplex)]
        assert len(complexes) == 1
        # one degree per call, top-down from M.hi() to floor + 1, each degree once
        assert all(out.window[0] == out.window[1] for _, out in cones)
        assert [out.window[0] for _, out in cones] == list(range(S.hi(), floor, -1))
        for X, out in cones:
            full = dg.cohomology(X)
            assert same_in_window(out, full), X.label
            assert hidden_degrees(out, full, side="above") == [], X.label
        # the calls on one cone are consecutive, and each cone but the last is
        # scanned down to its first degree with classes, which the next one kills
        runs = [[out for _, out in run] for _, run in itertools.groupby(cones, key=lambda c: id(c[0]))]
        assert len(runs) == len({id(X) for X, _ in cones}) >= 5
        for k, outs in enumerate(runs):
            has = [out.dim(out.window[0]) > 0 for out in outs]
            assert not any(has[:-1]) and (has[-1] or k == len(runs) - 1)
        X, out = complexes[0]
        assert out.window == window and same_in_window(out, dg.cohomology(X, with_action=False))


def test_rref_calls_of_a_windowed_sppj_resolution(monkeypatch):
    # widening the windows by one degree adds eliminations; H(M_0) and the
    # covers of a fresh algebra are counted too, its heart and H(R) are not.
    # rank eliminates without going through rref, so both are counted
    R = battery.builtin_algebra(K2_SPEC, P)
    S = battery.heart_simple(R, 0)
    dg.algebra_cohomology(R)
    calls = []

    def counted(f):
        def call(m, p):
            calls.append(np.shape(m))
            return f(m, p)

        return call

    for name in ("rref", "rank"):
        monkeypatch.setattr(la, name, counted(getattr(la, name)))
    res = rv.SppjResolution(S)
    res.ensure(7)
    assert [s.edge for s in res.infos] == [0, -1, -2, -3, -4, -5, -6]
    assert len(calls) == 81


def test_project_refuses_degrees_outside_the_window(koszul):
    M = koszul.regular_module()
    full = dg.cohomology(M)
    i = full.sup
    win = dg.cohomology(M, window=(i, i))
    assert win.window == (i, i) and same_in_window(win, full)
    z = full.reps[i]
    assert same(win.project(i, z), full.project(i, z))
    for j in M.degrees():
        if j != i:
            with pytest.raises(ValueError, match=rf"degree {j} lies outside the cohomology window \[{i}, {i}\]"):
                win.project(j, np.zeros(M.dim(j), dtype=np.int64))


def test_skipped_degrees_still_check_the_differential():
    # k -> k -> k with both maps the identity, so d_1 d_0 != 0; degree 1
    # raises whether it is computed or skipped
    one = np.ones((1, 1), dtype=np.int64)
    broken = dg.KComplex(P, {0: 1, 1: 1, 2: 1}, {0: one, 1: one}, label="broken")
    for window in (None, (0, 0), (2, 2), (dg.NEG_INF, 0), (2, dg.POS_INF), (1, 1), (3, 2)):
        with pytest.raises(RuntimeError, match="boundary is not a cycle"):
            dg.cohomology(broken, window=window)
    fine = dg.KComplex(P, {0: 1, 1: 1, 2: 1}, {0: one}, label="fine")
    assert dg.cohomology(fine, window=(1, 2)).dims == {2: 1}


def test_windowed_cohomology_of_the_regular_module_keeps_the_h0_action(algebras, k2):
    # R's own regular module acts on itself through H(R); a window must not
    # drop the classes of H(R) that act from outside it
    for R in list(algebras.values()) + [k2]:
        reg, copy = R.regular_module(), dg.free_module(R, [0])
        for window in ((-2, -1), (-1, -1), (-1, 0), (-3, 0), (-2, 2)):
            win, ref = dg.cohomology(reg, window=window), dg.cohomology(copy, window=window)
            assert same_in_window(win, ref) and win.action.keys() == ref.action.keys(), (R.label, window)
            for i in win.dims:
                assert same(dg.heart_module(reg, i, win).action, dg.heart_module(copy, i, ref).action), (R.label, i)

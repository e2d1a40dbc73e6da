import numpy as np
import pytest
from hypothesis import strategies as st

from dgres import battery
from dgres import dgcore as dg
from dgres import exactla as la
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003


# helpers that only tests call


def identity_morphism(M):
    return dg.DGMorphism(M, M, {i: la.eye(M.dim(i)) for i in M.degrees()})


def double_dual_map(M):
    """The canonical strict isomorphism M -> D(D(M))."""
    dd = dg.dualize(dg.dualize(M))
    dd = dg.DGModule(M.algebra, dd.dims, dd.diff, dd.act, label=dd.label)
    blocks = {}
    for i in M.degrees():
        sign = -1 if i % 2 else 1
        blocks[i] = (sign * la.eye(M.dim(i))) % M.p
    return dg.DGMorphism(M, dd, blocks)


def is_projective(N):
    return hk.projective_cover(N).module.dim == N.dim if N.dim else True


def is_injective(N):
    return hk.injective_envelope(N).module.dim == N.dim if N.dim else True


@pytest.fixture(scope="session")
def algebras():
    algs = battery.battery_algebras(P)
    return algs


@pytest.fixture(scope="session")
def koszul(algebras):
    return algebras["koszul_dual_numbers"]


@pytest.fixture(scope="session")
def tri2(algebras):
    return algebras["triangular2"]


@pytest.fixture(scope="session")
def nilp2(algebras):
    return algebras["nilpotent2"]


@pytest.fixture(scope="session")
def k2():
    # the two-variable Koszul algebra, the first builtin whose resolutions grow
    return battery.builtin_algebra("koszul(x,y; k[x,y]/(x^2,y^2))", P)


def generated_module(data, R):
    """A heart simple, R, or R + R[n], then up to two shifts or cones of a
    free map onto a cocycle.  The cocycle is either random, which in R^0 is
    almost always a unit and then gives an acyclic cone, or a single
    cycle-basis vector, such as x in R^0, which gives a cone with
    cohomology."""
    sims = len(hk.simples(hk.heart_of(R).h0))
    M = data.draw(st.sampled_from([R.regular_module(), battery.m_of(R, 1), battery.m_of(R, 2)]
                                  + [battery.heart_simple(R, i) for i in range(sims)]))
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            M = dg.shift(M, data.draw(st.integers(-2, 2)))
            continue
        cycles = {i: Z for i, Z in dg.cohomology(M, with_action=False).cycle_basis.items() if Z.dim}
        if not cycles:
            continue
        s = data.draw(st.sampled_from(sorted(cycles)))
        if data.draw(st.booleans()):
            z = cycles[s].basis[data.draw(st.integers(0, cycles[s].dim - 1))]
        else:
            coeffs = data.draw(st.lists(st.integers(0, P - 1), min_size=cycles[s].dim, max_size=cycles[s].dim))
            z = la.matmul(cycles[s].basis.T, np.array(coeffs, dtype=np.int64), P)
        M = dg.cone_module(dg.free_map(dg.free_module(R, [s]), M, [z]))
    return M


def heart_sums(R):
    """H0-modules whose R0-envelopes repeat pieces and mix piece types."""
    h0 = hk.heart_of(R).h0
    sims = hk.simples(h0)
    mods = [hk.regular_module(h0), hk.direct_sum([sims[0]] * 2)[0], hk.direct_sum(sims + [sims[-1]])[0]]
    for k, J in enumerate(mods):
        J.label = f"J{k}"
    return mods


def record_strict_maps(monkeypatch):
    """Spy on resolve._strict_map_to_psi: the returned list collects, per call,
    its arguments, its value and the hull its target was built from."""
    calls, hulls = [], []
    strict_map, psi_target = rv._strict_map_to_psi, rv._psi_target

    def record_target(*args):
        out = psi_target(*args)
        hulls.append(out[2])
        return out

    def record(*args):
        calls.append((args, strict_map(*args), hulls[-1]))
        return calls[-1][1]

    monkeypatch.setattr(rv, "_psi_target", record_target)
    monkeypatch.setattr(rv, "_strict_map_to_psi", record)
    return calls


def strict_map_to_psi_oracle(M, I, t, cohM, values, K):
    """The strict map into psi(K)[-t], K the whole R0-envelope: phi solved as
    one kron system over all of K, then adjoined in the spaces of dg.psi(R, K)."""
    p = M.p
    n, k = M.dim(t), K.dim
    rows = [
        np.kron(la.eye(k), M.act_tensor(t, 0)[:, b, :]) - np.kron(K.action[b], la.eye(n))
        for b in range(M.algebra.dim(0))
    ]
    rows.append(np.kron(la.eye(k), M.diff_mat(t - 1).T))
    rows.append(np.kron(la.eye(k), cohM.reps[t].T))
    rhs = np.zeros(sum(r.shape[0] for r in rows), dtype=np.int64)
    rhs[rhs.size - values.size :] = la.as_field(values, p).reshape(-1)
    phi = la.solve(np.concatenate(rows), rhs, p).reshape(k, n)
    spaces = dg.psi(M.algebra, K)._psi_spaces
    blocks = {}
    for j in M.degrees():
        sp = spaces.get(j - t)
        if sp is None or sp.dim == 0:
            continue
        maps = np.einsum("kc,msc->mks", phi, M.act_tensor(j, t - j)) % p
        blocks[j] = np.stack([sp.coords(mat) for mat in maps], axis=1)
    return dg.DGMorphism(M, I, blocks)

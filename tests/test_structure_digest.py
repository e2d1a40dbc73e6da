"""The resolutions' structure pinned bit for bit by one digest.

A change of representation (how blocks are stored, how actions are
assembled) must leave every model, term, map and cohomology the same.  The
digest covers, for R, m_of(1) and every heart simple over the battery,
triangular(4) and K2:

  SppjResolution to stage 3: models, terms, maps f and g, H of each;
  IfijResolution to stage 3: terms and their H only, since a change of the
    prescribed values on H^inf (a basis of the envelope map) moves the
    models and maps by an isomorphism but leaves the terms;
  semifree(M, -4): gen_degrees, twists, images, F and the augmentation.

Arrays enter with dtype and shape, dict keys in sorted order.
"""

import hashlib

import numpy as np

from dgres import battery
from dgres import derived as dv
from dgres import heartkit as hk
from dgres import resolve as rv

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"


class Digest:
    def __init__(self):
        self.items = 0
        self.h = hashlib.sha256()

    def add(self, b: bytes):
        self.items += 1
        self.h.update(hashlib.sha256(b).digest())

    def array(self, a):
        a = np.asarray(a)
        self.add(f"{a.dtype}{a.shape}".encode() + a.tobytes())

    def arrays(self, d: dict):
        self.add(repr(sorted(d)).encode())
        for k in sorted(d):
            self.array(d[k])

    def module(self, X):
        self.add(repr(sorted(X.dims.items())).encode())
        self.arrays(X.diff)
        self.arrays(X.act)

    def cohomology(self, H):
        self.add(repr((sorted(H.dims.items()), H.window)).encode())
        for d in (H.reps, H.class_proj, H.action):
            self.arrays(d)
        for i in sorted(H.cycle_basis):
            self.add(repr(H.cycle_basis[i].pivots).encode())
            self.array(H.cycle_basis[i].basis)


def inputs():
    algs = dict(battery.battery_algebras(P))
    algs["triangular4"] = battery.builtin_algebra("triangular(4)", P)
    algs["K2"] = battery.builtin_algebra(K2_SPEC, P)
    for R in algs.values():
        sims = len(hk.simples(hk.heart_of(R).h0))
        yield from [R.regular_module(), battery.m_of(R, 1)] + [battery.heart_simple(R, i) for i in range(sims)]


def test_resolution_structure_is_pinned_by_digest():
    digest = Digest()
    for M in inputs():
        sppj, ifij = rv.SppjResolution(M), rv.IfijResolution(M)
        sppj.ensure(3)
        ifij.ensure(3)
        for X in sppj.models + sppj.terms + ifij.terms:
            digest.module(X)
        for f in sppj.maps + sppj.gs:
            digest.arrays(f.blocks)
        for H in sppj.cohs + sppj.term_cohs + ifij.term_cohs:
            digest.cohomology(H)
        sf = dv.semifree(M, -4)
        digest.add(repr((sf.gen_degrees, list(sf.twists))).encode())
        for z in [*sf.twists.values(), *sf.images]:
            digest.array(z)
        digest.module(sf.free)
        digest.arrays(sf.augmentation.blocks)
    assert digest.items == 4326
    assert digest.h.hexdigest() == "a933cbcfd024df421c57e69c8a67849f2f3143a389b3f776c67171d3483e42a5"

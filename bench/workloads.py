"""The four benchmark workloads: instances, queries and pinned outputs.

Every workload is a closed loop of identical queries in one process.  A
query returns its answers in canonical form: a dimension report becomes its
value (exact / at_least / zero_object), e and the (edge, term kind, rank,
shift) of each stage; a table becomes its dims.  Timing fields and the
wording of certificates and notes are left out on purpose, so that a change
to those does not count as a wrong answer.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from dgres import battery
from dgres import derived as dv
from dgres import dgcore as dg
from dgres import heartkit as hk
from dgres import resolve as rv
from dgres import textio

P = 32003
K2_SPEC = "koszul(x,y; k[x,y]/(x^2,y^2))"
CAPS = {"injdim": 2, "pd": 8, "gldim": 6}
HOM_WINDOW = (0, 7)
TOR_WINDOW = (-7, 0)
REFERENCE = Path(__file__).with_name("reference.json")


def report_canon(r: rv.DimensionReport) -> dict:
    if r.zero_object:
        value = {"zero_object": True}
    elif r.exact is not None:
        value = {"exact": int(r.exact)}
    else:
        value = {"at_least": int(r.at_least)}
    out = {
        "value": value,
        "e": None if r.e is None else int(r.e),
        "stages": [
            [s.edge if isinstance(s.edge, int) else str(s.edge), s.term_kind, int(s.term_rank),
             None if s.term_shift is None else int(s.term_shift)]
            for s in r.stages
        ],
    }
    if r.children:
        out["children"] = {k: report_canon(v) for k, v in r.children.items()}
    return out


def table_canon(t: dv.HomTable) -> dict:
    return {"dims": {str(n): int(d) for n, d in sorted(t.dims.items())}}


# ---------------------------------------------------------------------------
# instances


def k2_instance(seed: int) -> SimpleNamespace:
    """K2, S = heart(S0) over K2 and its left-module counterparts, with the
    caches that live on the algebra objects warmed."""
    K2 = battery.builtin_algebra(K2_SPEC, P, seed=seed)
    K2op = K2.opposite()
    hd, hd_op = hk.heart_of(K2), hk.heart_of(K2op)
    S0 = hk.simples(hd.h0)[0]
    T0 = hk.simples(hd_op.h0)[0]
    dg.algebra_cohomology(K2)
    dg.algebra_cohomology(K2op)
    return SimpleNamespace(
        S=battery.builtin_module(K2, "heart(S0)"),
        S0=S0,
        # heart(S0) over K2^op, the tensor partner of the semifree route
        S_op=battery.builtin_module(K2op, "heart(S0)"),
        # the same simple as a left heart module, for the sup-flat route
        S0_left=hk.FDModule(hd.h0.opposite(), T0.dim, T0.action, label=T0.label),
    )


BATTERY_EXTRA = {"triangular4": "triangular(4)", "K2": K2_SPEC}


def battery_instance(seed: int) -> dict[str, str]:
    """Emitted text of the six battery algebras, triangular(4) and K2."""
    algs = battery.battery_algebras(P, seed)
    for name, spec in BATTERY_EXTRA.items():
        algs[name] = battery.builtin_algebra(spec, P, seed=seed)
    return {name: textio.emit(textio.InputDocument(P, R)) for name, R in algs.items()}


# ---------------------------------------------------------------------------
# queries


def q_injdim(x, seed):
    return {"injdim(S)": report_canon(rv.injdim(x.S, cap=CAPS["injdim"]))}


def q_pd(x, seed):
    return {"pd(S)": report_canon(rv.pd(x.S, cap=CAPS["pd"]))}


def q_tables(x, seed):
    return {
        "rhom(S,S)": table_canon(dv.rhom(x.S, x.S, HOM_WINDOW)),
        "hom_table_via_sppj(S,S0)": table_canon(dv.hom_table_via_sppj(x.S, x.S0, window=HOM_WINDOW)),
        "ltensor(S,S_op)": table_canon(dv.ltensor(x.S, x.S_op, TOR_WINDOW)),
        "tor_table_via_spft(S,S0_left)": table_canon(dv.tor_table_via_spft(x.S, x.S0_left, window=TOR_WINDOW)),
    }


def q_battery(texts, seed):
    out = {}
    for name, text in texts.items():
        R = textio.parse(text, seed=seed).algebra
        out[f"parse({name})"] = {"dims": {str(d): int(n) for d, n in sorted(R.dims.items())}}
        if name != "K2":
            out[f"gldim({name})"] = report_canon(rv.gldim(R, cap=CAPS["gldim"]))
    return out


WORKLOADS = {
    "injdim-k2": SimpleNamespace(
        why="ifij path: large sparse eliminations built by the strict map into psi",
        setup=k2_instance, query=q_injdim, agree=()),
    "pd-k2": SimpleNamespace(
        why="sppj path: thousands of mid-size eliminations driven by cohomology, no psi map",
        setup=k2_instance, query=q_pd, agree=()),
    "tables-k2": SimpleNamespace(
        why="Hom/Tor windows by slot formulas and by semifree resolution; Hom/tensor complex assembly",
        setup=k2_instance, query=q_tables,
        agree=(("rhom(S,S)", "hom_table_via_sppj(S,S0)"), ("ltensor(S,S_op)", "tor_table_via_spft(S,S0_left)"))),
    "battery-gldim": SimpleNamespace(
        why="many tiny algebras: parsing, validation, heart toolkit and per-call overhead",
        setup=battery_instance, query=q_battery, agree=()),
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def problems(name: str, outputs: dict, reference: dict) -> list[str]:
    """Differences between a query's outputs and the pinned reference, plus
    any disagreement between independent routes."""
    want = reference[name]
    out = [f"{k}: got {outputs.get(k)!r}, pinned {v!r}" for k, v in want.items() if outputs.get(k) != v]
    out += [f"unpinned output {k}" for k in outputs if k not in want]
    for a, b in WORKLOADS[name].agree:
        if outputs.get(a) != outputs.get(b):
            out.append(f"routes disagree: {a} {outputs.get(a)!r} vs {b} {outputs.get(b)!r}")
    return out

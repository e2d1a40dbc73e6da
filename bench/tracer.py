"""Outside-in tracer for the dgres modules.

The tracer replaces every public function of each dgres module, plus the
private hot paths named in PRIVATE, by a wrapper that records one span
(name, start, end, parent) per call, and puts the original objects back on
exit.  Calls between dgres modules go through module attributes
(``la.rref``, ``dg.cohomology``, ...) and calls inside a module go through
its globals, which are the same dictionary, so the wrappers see every layer
crossing without any change to the library.

Counters are kept where the work happens: a hook runs after the wrapped
call with its arguments and result.  Hook time falls outside the callee's
span and inside its caller's, so it shows as caller self time; the traced
run reports the whole cost of tracing as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from dgres import battery, derived, dgcore, exactla, heartkit, resolve, textio

# Every dgres module, by the short name that prefixes its metrics.
MODULES = {"exactla": exactla, "heartkit": heartkit, "dgcore": dgcore, "resolve": resolve,
           "derived": derived, "battery": battery, "textio": textio}

# Private functions traced besides the public ones.
PRIVATE = {"resolve": ("_strict_map_to_psi",)}

QUERY = "bench.query"

# Inclusive-time groups: a span counts only when no ancestor span belongs to
# the same group, so recursion and dispatch (validate -> validate_module)
# are not counted twice.
TOTALS = {
    "exactla.solve": ("exactla.solve",),
    "exactla.kernel": ("exactla.kernel",),
    "exactla.span": ("exactla.span",),
    "dgcore.cohomology": ("dgcore.cohomology",),
    "dgcore.hom_complex": ("dgcore.hom_complex",),
    "dgcore.tensor_complex": ("dgcore.tensor_complex",),
    "dgcore.psi": ("dgcore.psi",),
    "dgcore.cone": ("dgcore.cone",),
    "dgcore.cocone": ("dgcore.cocone",),
    "dgcore.validate": (
        "dgcore.validate", "dgcore.validate_algebra", "dgcore.validate_module", "dgcore.validate_morphism",
    ),
    "heartkit.simples": ("heartkit.simples",),
    "heartkit.injective_envelope": ("heartkit.injective_envelope",),
    "heartkit.projective_cover": ("heartkit.projective_cover",),
    "heartkit.hom_space": ("heartkit.hom_space",),
    "resolve.sppj_step": ("resolve.sppj_step",),
    "resolve.ifij_step": ("resolve.ifij_step",),
    "resolve.membership_P": ("resolve.membership_P",),
    "resolve.membership_I": ("resolve.membership_I",),
    "resolve.psi_map": ("resolve._strict_map_to_psi",),
    "derived.semifree": ("derived.semifree",),
    "derived.slot_tables": (
        "derived.hom_table_via_sppj", "derived.tor_table_via_spft", "derived.hom_table_via_ifij",
    ),
    "derived.tensor_over_h0": ("derived.tensor_over_h0",),
    "textio.parse": ("textio.parse",),
}
CALLS = ("exactla.rref", "exactla.solve", "exactla.kernel", "exactla.span", "exactla.matmul", "dgcore.cohomology")
SELF = ("exactla.rref", "exactla.matmul", "textio.parse")
LAYERS = ("exactla", "dgcore", "heartkit", "resolve", "derived")
STAGE_STEPS = ("resolve.sppj_step", "resolve.ifij_step")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rref_hook(tr, args, kwargs, out):
    # inputs arrive reduced mod p, so the raw array is compared and counted
    m = np.asarray(_arg(args, kwargs, 0, "m"))
    rows, cols = m.shape
    c = tr.counters
    c["rref.cells"] += m.size
    c["rref.nnz"] += int(np.count_nonzero(m))
    c["rref.noop"] += bool(np.array_equal(out[0], m))
    c["rref.max_rows"] = max(c["rref.max_rows"], rows)
    c["rref.max_cols"] = max(c["rref.max_cols"], cols)


def _solve_hook(tr, args, kwargs, out):
    rows = np.shape(_arg(args, kwargs, 0, "m"))[0]
    tr.counters["solve.max_rows"] = max(tr.counters["solve.max_rows"], rows)


def _cohomology_hook(tr, args, kwargs, out):
    M = _arg(args, kwargs, 0, "M")
    # the dict holds a reference, so an id is never reused within a query
    tr.counters["cohomology.repeat"] += id(M) in tr.seen
    tr.seen[id(M)] = M
    tr.counters["cohomology.dim_sum"] += sum(out.dims.values())


def _semifree_hook(tr, args, kwargs, out):
    tr.counters["semifree.generators"] += len(out.gen_degrees)


HOOKS = {
    "exactla.rref": _rref_hook,
    "exactla.solve": _solve_hook,
    "dgcore.cohomology": _cohomology_hook,
    "derived.semifree": _semifree_hook,
}


class Tracer:
    """Patch every dgres module on enter, restore them on exit.

    Span i is (names[i], starts[i], ends[i], parents[i]), parent -1 for a
    root; the columns are flat arrays so that a long run adds no objects
    for the garbage collector to scan.  ``query()`` opens one root span per
    benchmark query.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: Counter = Counter()
        self.seen: dict = {}
        self.queries = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            starts.append(clock())
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for layer, mod in MODULES.items():
            extra = PRIVATE.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        return False

    @contextmanager
    def query(self):
        """One root span around a benchmark query; the spans it causes are
        its descendants."""
        self.seen.clear()
        idx = len(self.names)
        self.names.append(QUERY)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(idx)
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
            self.seen.clear()
            self.queries += 1


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def group_totals(spans, groups: dict) -> dict[str, float]:
    """Inclusive time of each group, counting only outermost member spans."""
    member_of: dict[str, frozenset] = {}
    for gname, members in groups.items():
        for name in members:
            member_of[name] = member_of.get(name, frozenset()) | {gname}
    none = frozenset()
    enclosing = [none] * len(spans)  # groups of the ancestors of each span
    totals = dict.fromkeys(groups, 0.0)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            enclosing[i] = enclosing[parent] | member_of.get(spans[parent][0], none)
        for gname in member_of.get(name, none) - enclosing[i]:
            totals[gname] += end - start
    return totals


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-query per-layer metrics from a finished traced run, and the
    per-query self time of every traced function."""
    spans, c = tracer.spans(), tracer.counters
    n = max(tracer.queries, 1)
    selfs = self_times(spans)
    by_name_self: Counter = Counter()
    calls: Counter = Counter()
    for s, t in zip(spans, selfs):
        by_name_self[s[0]] += t
        calls[s[0]] += 1
    by_layer_self: Counter = Counter()
    for name, t in by_name_self.items():
        by_layer_self[name.split(".", 1)[0]] += t
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer_self[layer] / n
    for name in CALLS:
        out[f"{name}.calls"] = calls[name] / n
    for name in SELF:
        out[f"{name}.self_s"] = by_name_self[name] / n
    for gname, total in group_totals(spans, TOTALS).items():
        out[f"{gname}.total_s"] = total / n
    rref_calls = max(calls["exactla.rref"], 1)
    out["exactla.rref.cells"] = c["rref.cells"] / n
    out["exactla.rref.nnz_frac"] = c["rref.nnz"] / max(c["rref.cells"], 1)
    out["exactla.rref.noop_frac"] = c["rref.noop"] / rref_calls
    out["exactla.rref.max_rows"] = c["rref.max_rows"]
    out["exactla.rref.max_cols"] = c["rref.max_cols"]
    out["exactla.solve.max_rows"] = c["solve.max_rows"]
    out["dgcore.cohomology.dim_sum"] = c["cohomology.dim_sum"] / n
    out["dgcore.cohomology.repeat_frac"] = c["cohomology.repeat"] / max(calls["dgcore.cohomology"], 1)
    out["resolve.stages"] = sum(calls[s] for s in STAGE_STEPS) / n
    out["derived.semifree.generators"] = c["semifree.generators"] / n
    return out, {name: t / n for name, t in by_name_self.most_common()}

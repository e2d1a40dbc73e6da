"""Plain-text instance format: one algebra block plus named module blocks.

The format is line-based so fixtures stay bit-exact in the repository:

    p 32003

    algebra
    degree 0 names one x
    degree -1 names e xe
    unit one
    mul x x = 0
    mul e x = xe
    mul x e = xe
    d e = x

    module M
    degree 0 names m
    d m = 0
    act m x = 0

Unspecified products, actions and differentials default to zero.  When the
unit is a single basis vector with coefficient 1, its products and its
action on modules are filled in automatically; a unit with more terms
(field x field, matrix(2), triangular(n)) fills in nothing, so every
nonzero product and action is written out, as emit() does.
Blocks may instead reference builtin generators:

    algebra builtin koszul(x; k[x]/(x^2))
    module N builtin M_of(3)

parse() returns an InputDocument whose instances are validate-clean, or
raises ParseError with the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import battery
from . import dgcore as dg
from . import exactla as la
from . import heartkit as hk


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class InputDocument:
    p: int
    algebra: dg.DGAlgebra
    modules: dict[str, dg.DGModule] = field(default_factory=dict)
    algebra_ref: str | None = None  # builtin spec when referenced
    module_refs: dict[str, str] = field(default_factory=dict)


_NAME = r"[A-Za-z_][A-Za-z_0-9^*]*"
_TERM = re.compile(rf"^\s*(?:(-?\d+)\s*\*\s*)?({_NAME})\s*$")


def _parse_combo(expr, names_to, line_no, p):
    """A linear combination of named basis vectors -> {name: coeff}."""
    expr = expr.strip()
    if expr == "0":
        return {}
    out = {}
    chunks = re.split(r"(?=[+-])", expr.replace(" ", ""))
    for chunk in [c for c in chunks if c]:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        m = _TERM.match(chunk)
        if not m:
            raise ParseError(line_no, f"cannot parse term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        name = m.group(2)
        if name not in names_to:
            raise ParseError(line_no, f"unknown basis name {name!r}")
        out[name] = (out.get(name, 0) + sign * coeff) % p
    return out


class _Block:
    def __init__(self, kind, name, line_no):
        self.kind = kind  # 'algebra' | 'module'
        self.name = name
        self.line_no = line_no
        self.builtin = None
        self.degrees: dict[int, list[str]] = {}
        self.unit_expr = None
        self.unit_line = 0
        self.mul: list = []  # (line, a, b, expr)
        self.diff: list = []  # (line, a, expr)
        self.act: list = []  # (line, m, r, expr)


def _lex(text):
    blocks = []
    p_val = None
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "p":
            if len(toks) != 2 or not re.fullmatch(r"\d+", toks[1]):
                raise ParseError(line_no, "expected 'p <prime>'")
            p_val = int(toks[1])
        elif head == "algebra":
            current = _Block("algebra", None, line_no)
            blocks.append(current)
            if len(toks) >= 2:
                if toks[1] != "builtin":
                    raise ParseError(line_no, "expected 'algebra' or 'algebra builtin <spec>'")
                current.builtin = line.split("builtin", 1)[1].strip()
        elif head == "module":
            if len(toks) < 2:
                raise ParseError(line_no, "module block needs a name")
            current = _Block("module", toks[1], line_no)
            blocks.append(current)
            if len(toks) >= 3:
                if toks[2] != "builtin":
                    raise ParseError(line_no, "expected 'module <name>' or 'module <name> builtin <spec>'")
                current.builtin = line.split("builtin", 1)[1].strip()
        elif current is None:
            raise ParseError(line_no, f"directive {head!r} outside any block")
        elif head == "degree":
            if len(toks) < 3 or toks[2] != "names":
                raise ParseError(line_no, "expected 'degree <d> names <n1> <n2> ...'")
            try:
                d = int(toks[1])
            except ValueError:
                raise ParseError(line_no, f"bad degree {toks[1]!r}")
            if d in current.degrees:
                raise ParseError(line_no, f"degree {d} declared twice")
            names = toks[3:]
            if not names:
                raise ParseError(line_no, "empty basis list")
            current.degrees[d] = names
        elif head == "unit":
            if len(toks) < 2:
                raise ParseError(line_no, "expected 'unit <combo>'")
            current.unit_expr = line.split(None, 1)[1]
            current.unit_line = line_no
        elif head == "mul":
            m = re.match(rf"^mul\s+({_NAME})\s+({_NAME})\s*=\s*(.+)$", line)
            if not m:
                raise ParseError(line_no, "expected 'mul <a> <b> = <combo>'")
            current.mul.append((line_no, m.group(1), m.group(2), m.group(3)))
        elif head == "d":
            m = re.match(rf"^d\s+({_NAME})\s*=\s*(.+)$", line)
            if not m:
                raise ParseError(line_no, "expected 'd <a> = <combo>'")
            current.diff.append((line_no, m.group(1), m.group(2)))
        elif head == "act":
            m = re.match(rf"^act\s+({_NAME})\s+({_NAME})\s*=\s*(.+)$", line)
            if not m:
                raise ParseError(line_no, "expected 'act <m> <r> = <combo>'")
            current.act.append((line_no, m.group(1), m.group(2), m.group(3)))
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")
    return p_val, blocks


def _index_names(degrees: dict[int, list[str]], line_no):
    where = {}
    for d, names in degrees.items():
        for idx, nm in enumerate(names):
            if nm in where:
                raise ParseError(line_no, f"basis name {nm!r} declared twice")
            where[nm] = (d, idx)
    return where


def _combo_vector(combo: dict, where, dims, expect_degree, line_no, p):
    v = np.zeros(dims.get(expect_degree, 0), dtype=np.int64)
    for nm, c in combo.items():
        d, idx = where[nm]
        if d != expect_degree:
            raise ParseError(line_no, f"{nm!r} has degree {d}, expected {expect_degree}")
        v[idx] = c % p
    return v


def _read_diff(block: _Block, where, dims, p: int, noun: str) -> dict[int, np.ndarray]:
    """The differential of a block's 'd' lines; unknown names are `noun`s."""
    diff = {}
    for line_no, a, expr in block.diff:
        if a not in where:
            raise ParseError(line_no, f"unknown {noun} {a!r}")
        ia, xa = where[a]
        combo = _parse_combo(expr, where, line_no, p)
        vec = _combo_vector(combo, where, dims, ia + 1, line_no, p)
        if dims.get(ia + 1, 0):
            diff.setdefault(ia, la.zeros(dims[ia + 1], dims[ia]))[:, xa] = vec
    return diff


def _read_table(entries, left, right, table, dims, p: int, nouns):
    """Fill table[(i, j)][x, y] from the 'mul' or 'act' lines x y = combo.

    x and the combo's names are looked up in left, y in right; unknown names
    are nouns[0] and nouns[1].
    """
    for line_no, a, b, expr in entries:
        for nm, names, noun in ((a, left, nouns[0]), (b, right, nouns[1])):
            if nm not in names:
                raise ParseError(line_no, f"unknown {noun} {nm!r}")
        (i, x), (j, y) = left[a], right[b]
        combo = _parse_combo(expr, left, line_no, p)
        table[(i, j)][x, y, :] = _combo_vector(combo, left, dims, i + j, line_no, p)


def _unit_index(unit) -> int | None:
    """The index of the unit's basis vector when the unit is a single basis
    vector with coefficient 1 (module docstring), else None."""
    (nz,) = np.nonzero(unit)
    return int(nz[0]) if len(nz) == 1 and unit[nz[0]] == 1 else None


def _builtin(block: _Block, build, *args):
    """build(*args) for a builtin block; a bad spec becomes a ParseError on
    the block's line, while a bad p (ConfigurationError) passes through."""
    try:
        return build(*args)
    except hk.ConfigurationError:
        raise
    except ValueError as e:
        raise ParseError(block.line_no, f"builtin {block.builtin!r}: {e}") from e


def _build_algebra(block: _Block, p: int, seed: int) -> dg.DGAlgebra:
    if block.builtin is not None:
        return _builtin(block, battery.builtin_algebra, block.builtin, p, seed)
    if not block.degrees:
        raise ParseError(block.line_no, "algebra block declares no basis")
    where = _index_names(block.degrees, block.line_no)
    dims = {d: len(ns) for d, ns in block.degrees.items()}
    if block.unit_expr is None:
        raise ParseError(block.line_no, "algebra block has no unit")
    unit_combo = _parse_combo(block.unit_expr, where, block.unit_line, p)
    unit = _combo_vector(unit_combo, where, dims, 0, block.unit_line, p)
    mult = {
        (i, j): np.zeros((dims[i], dims[j], dims.get(i + j, 0)), dtype=np.int64)
        for i in dims
        for j in dims
    }
    if (u := _unit_index(unit)) is not None:
        for d, n in dims.items():
            mult[(0, d)][u, np.arange(n), np.arange(n)] = 1
            mult[(d, 0)][np.arange(n), u, np.arange(n)] = 1
    _read_table(block.mul, where, where, mult, dims, p, ("basis name", "basis name"))
    diff = _read_diff(block, where, dims, p, "basis name")
    R = dg.DGAlgebra(p, dims, {k: v for k, v in mult.items() if v.size}, diff, unit, label="algebra", seed=seed)
    R.names = {d: list(ns) for d, ns in block.degrees.items()}
    report = dg.validate_algebra(R)
    if report:
        raise ParseError(block.line_no, "algebra fails validation: " + "; ".join(report[:4]))
    return R


def _build_module(block: _Block, R: dg.DGAlgebra, p: int) -> dg.DGModule:
    if block.builtin is not None:
        return _builtin(block, battery.builtin_module, R, block.builtin)
    where = _index_names(block.degrees, block.line_no)
    dims = {d: len(ns) for d, ns in block.degrees.items()}
    if not dims:
        if block.act or block.diff:
            raise ParseError(block.line_no, f"module {block.name!r} has act or d lines but no degree line")
        return dg.zero_module(R)
    alg_names = getattr(R, "names", {})
    alg_where = {nm: (d, i) for d, ns in alg_names.items() for i, nm in enumerate(ns)}
    act = {
        (i, j): np.zeros((dims[i], R.dim(j), dims.get(i + j, 0)), dtype=np.int64)
        for i in dims
        for j in R.degrees()
    }
    if (u := _unit_index(R.unit % p)) is not None:
        for i, n in dims.items():
            act[(i, 0)][:, u, :] = la.eye(n)
    _read_table(block.act, where, alg_where, act, dims, p, ("module basis name", "algebra basis name"))
    diff = _read_diff(block, where, dims, p, "module basis name")
    M = dg.DGModule(R, dims, diff, {k: v for k, v in act.items() if v.size}, label=block.name)
    M.names = {d: list(ns) for d, ns in block.degrees.items()}
    report = dg.validate_module(M)
    if report:
        raise ParseError(block.line_no, f"module {block.name!r} fails validation: " + "; ".join(report[:4]))
    return M


def parse(text: str, seed: int = 0) -> InputDocument:
    p_val, blocks = _lex(text)
    if p_val is None:
        raise ParseError(1, "missing 'p <prime>' line")
    alg_blocks = [b for b in blocks if b.kind == "algebra"]
    if len(alg_blocks) != 1:
        raise ParseError(alg_blocks[1].line_no if len(alg_blocks) > 1 else 1, "expected exactly one algebra block")
    R = _build_algebra(alg_blocks[0], p_val, seed)
    doc = InputDocument(p_val, R, algebra_ref=alg_blocks[0].builtin)
    for b in blocks:
        if b.kind != "module":
            continue
        if b.name in doc.modules:
            raise ParseError(b.line_no, f"module {b.name!r} declared twice")
        doc.modules[b.name] = _build_module(b, R, p_val)
        if b.builtin:
            doc.module_refs[b.name] = b.builtin
    return doc


# ---------------------------------------------------------------------------
# emission


def _names_for(obj, fallback_prefix="b"):
    names = getattr(obj, "names", None)
    if names:
        return names
    out = {}
    for d in obj.degrees():
        out[d] = [f"{fallback_prefix}{d}_{i}".replace("-", "m") for i in range(obj.dim(d))]
    return out


def _combo_str(vec, names, p):
    terms = []
    for i, c in enumerate(np.asarray(vec) % p):
        c = int(c)
        if c == 0:
            continue
        if c == 1:
            terms.append(names[i])
        else:
            terms.append(f"{c}*{names[i]}")
    return " + ".join(terms) if terms else "0"


def _table_lines(M, keyword, names, alg_names, p):
    """The 'mul' or 'act' lines (keyword) and the 'd' lines of M."""
    R, degs = M.algebra, sorted(M.degrees(), reverse=True)
    lines = []
    for i in degs:
        for j in sorted(R.degrees(), reverse=True):
            t = M.act_tensor(i, j)
            for a, b in np.ndindex(M.dim(i), R.dim(j)):
                if np.any(t[a, b]):
                    lines.append(f"{keyword} {names[i][a]} {alg_names[j][b]} = " + _combo_str(t[a, b], names[i + j], p))
    for i in degs:
        d = M.diff_mat(i)
        for a in range(M.dim(i)):
            if np.any(d[:, a]):
                lines.append(f"d {names[i][a]} = " + _combo_str(d[:, a], names[i + 1], p))
    return lines


def emit(doc: InputDocument) -> str:
    R = doc.algebra
    p = doc.p
    names = _names_for(R)
    lines = [f"p {p}", "", "algebra"]
    lines += [f"degree {d} names " + " ".join(names[d]) for d in sorted(R.degrees(), reverse=True)]
    lines.append("unit " + _combo_str(R.unit, names[0], p))
    lines += _table_lines(R.regular_module(), "mul", names, names, p)
    for name in sorted(doc.modules):
        M = doc.modules[name]
        mnames = _names_for(M, fallback_prefix="m")
        lines += ["", f"module {name}"]
        lines += [f"degree {d} names " + " ".join(mnames[d]) for d in sorted(M.degrees(), reverse=True)]
        lines += _table_lines(M, "act", mnames, names, p)
    return "\n".join(lines) + "\n"

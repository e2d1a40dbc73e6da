"""Rules on the library's own source."""

import ast
import importlib.util
from pathlib import Path

import dgres

SRC = Path(__file__).resolve().parents[1] / "src" / "dgres"


def test_no_assert_statements_in_the_library():
    # checks raise typed errors that name the cause; assert vanishes under -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_names_exist():
    # the benchmark tracer finds its layers by name; a renamed function would
    # make its per-layer metric read 0 without any error
    spec = importlib.util.spec_from_file_location("tracer", SRC.parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [n for group in tracer.TOTALS.values() for n in group]
    names += [f"{mod}.{fn}" for mod, fns in tracer.PRIVATE.items() for fn in fns]
    names += list(tracer.CALLS) + list(tracer.SELF) + list(tracer.STAGE_STEPS)
    missing = [n for n in names if not callable(getattr(getattr(dgres, n.split(".")[0]), n.split(".")[1], None))]
    assert names and missing == []


def test_no_process_wide_memo():
    # every memo sits on an object (an algebra's _cache or _memo), so a
    # re-parsed input starts cold and nothing outlives the objects it serves;
    # module-level names may hold constants and compiled patterns only
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else None
            if value is None:
                continue
            if isinstance(value, ast.Call):
                if ast.unparse(value.func) != "re.compile":
                    found.append(f"{path.name}:{node.lineno} module-level call")
            elif any(isinstance(n, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp))
                     for n in ast.walk(value)):
                found.append(f"{path.name}:{node.lineno} module-level container")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "functools" in ast.unparse(node):
                found.append(f"{path.name}:{node.lineno} functools")
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
                if any(isinstance(d, (ast.List, ast.Dict, ast.Set, ast.Call)) for d in defaults):
                    found.append(f"{path.name}:{node.lineno} mutable default argument")
    assert found == []


def test_relations_are_laid_out_by_one_builder():
    # balance relations reach a Hom kernel or a tensor quotient only through
    # exactla.balance_rows, so a system's layout is decided in one place
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exactla.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "relations"
    ]
    assert found == []


def test_only_two_readers_of_block_parts():
    # a free module's or a psi sum's blocks are located through free_map and
    # _strict_map_to_psi alone, so a change of block representation has
    # these two readers of .parts to move
    readers = {("dgcore.py", "free_map"), ("resolve.py", "_strict_map_to_psi")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in readers
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "parts" and isinstance(node.ctx, ast.Load)
            and id(node) not in allowed
        ]
    assert found == []


def test_only_simples_draws_random_numbers():
    # splitting A/rad in heartkit.simples is the one randomised step, so the
    # generators every resolution adjoins are chosen deterministically
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("heartkit.py", "simples")
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if "default_rng" in (getattr(node, "attr", None), getattr(node, "id", None)) and id(node) not in allowed
        ]
    assert found == []


CONTRACTIONS = {"einsum", "tensordot", "dot", "matmul"}


def contraction_lines(src: Path) -> list[str]:
    """Lines of the library outside exactla.py that contract arrays directly:
    a call of np.einsum, np.tensordot, np.dot or np.matmul, or an @."""
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "exactla.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in CONTRACTIONS and ast.unparse(node.func.value) in ("np", "numpy"))
            if call or isinstance(getattr(node, "op", None), ast.MatMult):
                found.add((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_products_mod_p_go_through_exactla():
    # an int64 sum of products wraps for large p unless it is reduced in
    # chunks, which exactla.matmul and exactla.contract do; no other module
    # forms such a product itself
    assert contraction_lines(SRC) == []


def test_the_contraction_rule_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import numpy as np\n"
        "a = np.einsum('ab,bc->ac', x, y)\n"
        "b = numpy.tensordot(x, y, axes=1)\n"
        "c = np.dot(x, y)\n"
        "d = np.matmul(x, y)\n"
        "e = x @ y\n"
        "x @= y\n"
        "f = la.matmul(x, y, p) + la.contract('a,a->', x, y, p)\n"
    )
    (tmp_path / "exactla.py").write_text("import numpy as np\na = x @ y\n")
    assert contraction_lines(tmp_path) == [f"m.py:{i}" for i in range(2, 8)]

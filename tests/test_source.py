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

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

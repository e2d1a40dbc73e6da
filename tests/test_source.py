"""Rules on the library's own source."""

import ast
from pathlib import Path

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

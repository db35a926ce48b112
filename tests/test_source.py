"""Static checks over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coordrig"


def test_no_assert_statements():
    # `python -O` strips asserts, so hard invariants must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/coordrig: {found}"

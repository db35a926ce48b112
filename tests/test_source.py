"""Static checks over the library source."""

import ast
import re
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


def test_every_public_name_has_a_caller():
    # a public function or class named nowhere but at its definition and in
    # __init__.py is dead weight: either something uses it or it goes
    root = SRC.parent.parent
    texts = {
        path: path.read_text()
        for top in ("src", "tests", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    }
    unused = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(texts[module], filename=str(module))
        used_here = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used_here.add(node.id)
            elif isinstance(node, ast.Attribute):
                used_here.add(node.attr)
        elsewhere = [
            text for path, text in texts.items()
            if path not in (module, SRC / "__init__.py")
        ]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in used_here:
                continue
            pattern = re.compile(rf"\b{name}\b")
            if not any(pattern.search(text) for text in elsewhere):
                unused.append(f"{module.name}:{name}")
    assert not unused, f"public names with no caller: {unused}"


def test_no_unused_imports():
    # no linter runs on this tree, so an import left behind by a refactor
    # would go unnoticed; __init__.py imports to re-export and is skipped
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports in src/coordrig: {unused}"


def _runs_on_import(node):
    # every statement that runs when the module is imported: function
    # bodies wait for a call and an ``if TYPE_CHECKING:`` block never runs
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            continue
        yield child
        yield from _runs_on_import(child)


def test_numpy_is_imported_only_inside_functions():
    # only the float routines need numpy, and loading it takes most of a
    # cold start, so importing coordrig must not load it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _runs_on_import(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numpy imported at module level: {found}"


def test_only_the_cli_touches_the_collector():
    # cli.main pauses the cyclic collector for one command and puts it back;
    # a library call must never change a host process's collector
    importers, switches = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"):
                importers.add(path.name)
            elif (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                switches.add((path.name, node.attr))
    assert importers == {"cli.py"}
    assert switches == {("cli.py", "disable"), ("cli.py", "enable")}

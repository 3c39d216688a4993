"""Every top-level function and class of the package is used by the program.

A definition that only the tests reach is test code kept in the library:
the tests compute such checks themselves (helpers shared between test files
live in tests/reference.py).  A definition counts as used when its name is
read, as a name or an attribute, somewhere in src/legsums/, scripts/ or
perfbench/ outside the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legsums"
PROGRAM = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def _read_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_library_definition_is_used_outside_the_tests():
    statements = [(path, stmt) for path in PROGRAM for stmt in ast.parse(path.read_text()).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unused = [
        f"{path.relative_to(ROOT)}:{stmt.lineno} {stmt.name}"
        for i, (path, stmt) in enumerate(statements)
        if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert not unused, "defined in the package but used only by tests:\n" + "\n".join(unused)

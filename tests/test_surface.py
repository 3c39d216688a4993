"""Every top-level function and class of the package, and every method and
property of its classes, is used by the program.

A definition that only the tests reach is test code kept in the library:
the tests compute such checks themselves (helpers shared between test files
live in tests/reference.py).  A definition counts as used when its name is
read, as a name or an attribute, somewhere in src/legsums/, scripts/ or
perfbench/ outside the definition itself.  A read inside a method or
property counts only once that member is used itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legsums"
PROGRAM = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def _read_names(node, skip=()) -> set[str]:
    """The names node reads, leaving out the subtrees in skip."""
    names, skipped = set(), {id(s) for s in skip}
    stack = [node]
    while stack:
        sub = stack.pop()
        if id(sub) in skipped:
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def test_scripts_are_shims_over_the_cli():
    # a script forwards its arguments to cli.main, which parses them and
    # owns the exit path, so no script parses or computes anything itself
    for path in sorted((ROOT / "scripts").glob("*.py")):
        text = path.read_text()
        nodes = list(ast.walk(ast.parse(text)))
        imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
        assert "argparse" not in imported, path.name
        assert not any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                         ast.ClassDef)) for node in nodes), path.name
        assert len(text.splitlines()) <= 5, path.name


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


def test_every_member_of_a_library_class_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    members = [
        (path, member)
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
    ]
    nodes = [member for _, member in members]
    outside = set().union(*(_read_names(tree, skip=nodes) for tree in trees.values()))
    inside = [_read_names(member) for member in nodes]
    used: set[int] = set()
    while True:  # used: read outside every member, or inside another used one
        grown = {i for i, member in enumerate(nodes) if member.name in outside
                 or any(member.name in inside[j] for j in used if j != i)}
        if grown == used:
            break
        used = grown
    unused = [f"{path.relative_to(ROOT)}:{member.lineno} {member.name}"
              for i, (path, member) in enumerate(members) if i not in used]
    assert not unused, "a package class member used only by tests:\n" + "\n".join(unused)

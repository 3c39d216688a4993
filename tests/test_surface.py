"""Every top-level function, class and assigned name (constant) of the
package, every method and property of its classes, and every field of its
dataclasses is used by the program.

A definition that only the tests reach is test code kept in the library:
the tests compute such checks themselves (helpers shared between test files
live in tests/reference.py).  A definition counts as used when its name is
read, as a name or an attribute, somewhere in src/legsums/ or perfbench/
outside the definition itself.  A read inside a method or property counts
only once that member is used itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legsums"
PROGRAM = [path for folder in (PACKAGE, ROOT / "perfbench")
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


def _defined_names(stmt) -> list[str]:
    """The names a top-level statement defines: a function's or a class's,
    or the plain names an assignment binds, dunders (__all__) left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name) and not node.id.startswith("__")]
    return []


def test_every_library_definition_is_used_outside_the_tests():
    statements = [(path, stmt) for path in PROGRAM for stmt in ast.parse(path.read_text()).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unused = [
        f"{path.relative_to(ROOT)}:{stmt.lineno} {name}"
        for i, (path, stmt) in enumerate(statements) if path.parent == PACKAGE
        for name in _defined_names(stmt)
        if not any(name in names for j, names in enumerate(reads) if j != i)
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


def _name(node) -> str | None:
    """The last name of a dotted name such as dataclasses.asdict."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_field_of_a_library_dataclass_is_read_by_the_program():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    # A record printed whole has every field read: in a program function,
    # dataclasses.asdict(name) where name was assigned the result of a call
    # to a package function whose return annotation is the record's class.
    returns = {node.name: _name(node.returns) for node in nodes
               if isinstance(node, ast.FunctionDef)}
    whole = set()
    for func in (node for node in nodes if isinstance(node, ast.FunctionDef)):
        body = list(ast.walk(func))
        bound = {stmt.targets[0].id: returns.get(_name(stmt.value.func))
                 for stmt in body if isinstance(stmt, ast.Assign)
                 and isinstance(stmt.targets[0], ast.Name) and isinstance(stmt.value, ast.Call)}
        whole |= {bound.get(call.args[0].id) for call in body
                  if isinstance(call, ast.Call) and _name(call.func) == "asdict"
                  and call.args and isinstance(call.args[0], ast.Name)}
    unused = [
        f"{path.relative_to(ROOT)}:{field.lineno} {cls.name}.{field.target.id}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name not in whole
        and any("dataclass" in ast.unparse(dec) for dec in cls.decorator_list)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert not unused, "a package dataclass field read only by tests:\n" + "\n".join(unused)


def test_the_only_module_table_a_function_rebinds_is_the_class_number_table():
    # module state rebound by a function lives as long as the process and is
    # shared by every caller; charsum._forms is the one such table kept, since
    # each one-alpha scan would otherwise sieve its class numbers again
    rebound = {f"{path.stem}.{name}"
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Global)
               for name in node.names}
    assert rebound == {"charsum._forms"}


def test_no_module_restates_its_names_in_all():
    # nothing star-imports the package, so an __all__ list only repeats
    # the names each module already defines
    restated = [f"{path.relative_to(ROOT)}:{node.lineno}"
                for path in PACKAGE.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name) and node.id == "__all__"
                and isinstance(node.ctx, ast.Store)]
    assert not restated, "__all__ assigned at:\n" + "\n".join(restated)


def test_every_exception_class_of_the_package_is_caught_by_the_program():
    # a subclass that nothing catches by name says no more than its base class
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    caught = {name for tree in trees.values() for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for node in ast.walk(handler.type) for name in [_name(node)] if name}
    defined = [
        f"{path.relative_to(ROOT)}:{cls.lineno} {cls.name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        and any(_name(base).endswith(("Error", "Exception", "Warning")) for base in cls.bases
                if _name(base))
        and cls.name not in caught
    ]
    assert not defined, "an exception class no except clause names:\n" + "\n".join(defined)

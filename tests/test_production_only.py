"""`src/` holds production code only.

Every module-level function, class and constant under `src/reasonforge/`,
and every method, property and class attribute of a class there, must be
read somewhere in `src/` besides its own definition, or be part of the
public API in `reasonforge.__all__`.  A name that only tests reach belongs
in the tests.

The rule works on names, not on what a name is bound to: a member whose
name is read anywhere in `src/` counts as used, so a method that shares its
name with a used method of another class is not caught.
"""

import ast
from pathlib import Path

import reasonforge

SRC = Path(reasonforge.__file__).resolve().parent


def assigned_names(body: list[ast.stmt]) -> list[str]:
    """Functions, classes and assignment targets defined directly in body."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.append(name.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def defined_names(tree: ast.Module) -> list[str]:
    """Module-level names, then `Class.member` for every class body."""
    names = assigned_names(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m}" for m in assigned_names(node.body)]
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names read as a variable or an attribute anywhere in the module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_module_level_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set(reasonforge.__all__).union(*(read_names(t) for t in trees.values()))
    unused = [f"{path[:-3]}.{name}"
              for path, tree in trees.items()
              for name in defined_names(tree)
              if name.rpartition(".")[2] not in used]
    assert not unused, unused

"""`src/` holds production code only.

Every module-level function, class and constant under `src/reasonforge/`,
and every method, property and class attribute of a class there, must be
read somewhere in `src/` besides its own definition, or be part of the
public API in `reasonforge.__all__`.  A name that only tests reach belongs
in the tests.

The rule works on names, not on what a name is bound to: a member whose
name is read anywhere in `src/` counts as used, so a method that shares its
name with a used method of another class is not caught.

README's Python API section writes calls as the signatures they resolve to.
"""

import ast
import importlib
import inspect
import pkgutil
import re
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


def readme_api_calls() -> list[tuple[str, list[str]]]:
    """(dotted name, argument texts) of each backticked call in README's
    "Python API" section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    calls = []
    for span in re.findall(r"`([^`]+)`", section):
        head = re.match(r"([A-Za-z_][\w.]*)\(", span)
        if head is None:
            continue
        depth, args = 0, [""]
        for char in span[head.end():]:
            if char == ")" and depth == 0:
                break
            depth += (char in "([") - (char in ")]")
            if char == "," and depth == 0:
                args.append("")
            else:
                args[-1] += char
        calls.append((head.group(1), [arg.strip() for arg in args if arg.strip()]))
    return calls


def resolve(name: str) -> list:
    """The reasonforge callables a dotted README name reads as: its root from
    the package, else from a submodule, else every class member of that
    name; none for a name outside reasonforge."""
    modules = [importlib.import_module(f"reasonforge.{info.name}")
               for info in pkgutil.iter_modules(reasonforge.__path__)]
    root, *rest = name.split(".")
    found = [vars(reasonforge)[root]] if root in vars(reasonforge) else [
        vars(module)[root] for module in modules
        if getattr(vars(module).get(root), "__module__", None) == module.__name__]
    if not found and not rest:
        found = [getattr(cls, root) for module in modules
                 for cls in vars(module).values()
                 if inspect.isclass(cls) and cls.__module__ == module.__name__
                 and root in vars(cls)]
    for attr in rest:
        found = [getattr(obj, attr) for obj in found]
    return found


def test_readme_api_calls_name_the_parameters():
    wrong, checked = [], set()
    for name, args in readme_api_calls():
        for target in resolve(name):
            params = [p for p in inspect.signature(target).parameters.values()
                      if p.name not in ("self", "cls")]
            written = [arg.partition("=") for arg in args]
            if ([n for n, _, _ in written] != [p.name for p in params]
                    or any(equals and ast.literal_eval(default) != param.default
                           for (_, equals, default), param in zip(written, params))):
                wrong.append(f"{name}({', '.join(args)}) is "
                             f"{name}{inspect.signature(target)}")
            checked.add(name)
    assert not wrong, wrong
    assert {"grow_graph", "flip_edges", "sample_chain", "relatives",
            "TemplatePool.for_task"} <= checked, checked

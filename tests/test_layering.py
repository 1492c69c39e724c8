"""The package imports one way: no import is deferred into a function body,
the modules' run-time imports of each other have a topological order, and
only the synthetic models import numpy."""

import ast
import graphlib
from pathlib import Path

import specdec

MODULES = {
    path.stem: ast.parse(path.read_text(), path.name)
    for path in sorted(Path(specdec.__file__).parent.glob("*.py"))
}


def _imports(tree: ast.Module) -> set[tuple[int, str]]:
    """``(level, top-level name)`` of each module ``tree`` imports at run time,
    outside ``if TYPE_CHECKING:``; level 1 is this package, 0 an installed one."""
    found = set()
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            nodes.extend(node.orelse)
        elif isinstance(node, ast.Import):
            found.update((0, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # ``from . import name``
                found.update((node.level, alias.name) for alias in node.names)
            else:
                found.add((node.level, node.module.split(".")[0]))
        else:
            nodes.extend(ast.iter_child_nodes(node))
    return found


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports at run time."""
    return {name for level, name in _imports(tree) if level == 1}


def test_no_import_sits_inside_a_function():
    nested = sorted({
        f"{name}.py:{inner.lineno}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert nested == []


def test_module_imports_have_a_topological_order():
    graph = {name: _package_imports(tree) for name, tree in MODULES.items()}
    assert all(deps <= MODULES.keys() for deps in graph.values())
    # ``static_order`` raises ``CycleError`` when the imports form a cycle.
    assert sorted(graphlib.TopologicalSorter(graph).static_order()) == sorted(MODULES)


def test_only_the_models_import_numpy():
    # The action space, the tree, acceptance and the shell are plain Python.
    assert [name for name, tree in MODULES.items() if (0, "numpy") in _imports(tree)] == ["models"]

"""The package imports one way: no import is deferred into a function body,
and the modules' run-time imports of each other have a topological order."""

import ast
import graphlib
from pathlib import Path

import specdec

MODULES = {
    path.stem: ast.parse(path.read_text(), path.name)
    for path in sorted(Path(specdec.__file__).parent.glob("*.py"))
}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports at run time, outside ``if TYPE_CHECKING:``."""
    found = set()
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            nodes.extend(node.orelse)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # ``from . import name``
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        else:
            nodes.extend(ast.iter_child_nodes(node))
    return found


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

"""The import graph of the package's modules, read from their sources:
the module-level relative imports form no cycle, the tensor layer sits
below the Hopf maps, and the calculus needs neither.  The two imports
made inside functions to break a cycle (`sampling`'s deferred
`MultiVector`, and `from . import sampling` in `check_hopf_axioms`) are
not module-level, so they are not edges here."""

import ast
import os

import lrhopf

SRC = os.path.dirname(os.path.abspath(lrhopf.__file__))


def _imports() -> dict:
    """module -> each package module it imports at module level -> the
    names it takes from there."""
    imports = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        edges = imports[name[:-3]] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # `from . import sampling` imports the module itself
                    key = node.module or alias.name
                    edges.setdefault(key, set()).add(alias.name)
    return imports


def _graph() -> dict:
    """module -> the package modules it imports at module level."""
    return {module: set(edges) for module, edges in _imports().items()}


def test_every_edge_names_a_module_of_the_package():
    graph = _graph()
    assert {"tensor", "hopf", "calculus"} <= set(graph)
    assert all(edges <= set(graph) for edges in graph.values()), graph


def test_the_module_level_imports_form_no_cycle():
    graph = _graph()
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for other in sorted(graph[module]):
            visit(other)
        path.pop()
        done.add(module)

    for module in graph:
        visit(module)


def test_the_tensor_layer_and_the_calculus_sit_below_the_hopf_maps():
    graph = _graph()
    assert "hopf" not in graph["tensor"]
    assert not {"hopf", "tensor"} & graph["calculus"]


def test_no_module_imports_a_private_name_of_the_hopf_maps():
    for module, edges in _imports().items():
        private = {name for name in edges.get("hopf", ()) if name.startswith("_")}
        assert not private, f"{module} imports {sorted(private)} from hopf"

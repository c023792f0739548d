"""The import graph of the package's modules, read from their sources:
the module-level relative imports form no cycle, the tensor layer sits
below the Hopf maps, the calculus needs neither, and the coefficient
algebras import nothing from the package.  The only imports made inside
functions, `sampling`'s deferred bindings of `EnvElement` and
`MultiVector`, break a cycle; they are not module-level, so they are not
edges of the graph."""

import ast
import os

import lrhopf

SRC = os.path.dirname(os.path.abspath(lrhopf.__file__))


def _tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_imports(node) -> list:
    """The imports of the package anywhere under `node`, nested ones
    included, as (line, relative level, module) triples."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and (sub.level or
                                                 (sub.module or "").split(".")[0] == "lrhopf"):
            found.append((sub.lineno, sub.level, sub.module))
        elif isinstance(sub, ast.Import):
            found += [(sub.lineno, 0, alias.name) for alias in sub.names
                      if alias.name.split(".")[0] == "lrhopf"]
    return found


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


def test_the_coefficient_algebras_import_nothing_from_the_package():
    assert _package_imports(_tree("algebra")) == []


def test_only_sampling_imports_inside_a_function():
    nested = {}
    for module in _graph():
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for _, _, name in _package_imports(node):
                    nested.setdefault(module, set()).add(name)
    assert nested == {"sampling": {"enveloping", "calculus"}}

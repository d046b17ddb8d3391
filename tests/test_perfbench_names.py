"""Every rqgraph name the benchmark uses still exists.

The benchmark's untraced jobs never call `perfbench/spans.py`'s
`instrument`, so a deleted traced name would otherwise surface only under
`--trace 1`.  The benchmark files are read with `ast`, not imported.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _traced(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TRACED")


def _module_attributes(tree):
    """(module, attr) for every `module.attr` on a module bound by `from rqgraph import module`."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rqgraph"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_benchmark_names_resolve():
    names = set(_traced(_tree("spans.py")))
    names |= _module_attributes(_tree("spans.py")) | _module_attributes(_tree("workloads.py"))
    assert {module for module, _ in names} == {"bounds", "cli", "dense", "group", "primes", "spectra", "subsets"}
    missing = [(m, a) for m, a in sorted(names) if not hasattr(importlib.import_module(f"rqgraph.{m}"), a)]
    assert missing == []


def test_family_primes_takes_k_min_at_position_3():
    """spans.py's family_primes hook reads k_min as args[3]."""
    from rqgraph.primes import family_primes

    assert list(inspect.signature(family_primes).parameters)[3] == "k_min"


SRC = PERFBENCH.parent / "src" / "rqgraph"

# Reached by nothing yet: ROADMAP item 4 decides whether the family asymptotics stay.
UNREACHED_ALLOWED = {("bounds", "asymptotic_coefficient")}


def test_src_holds_only_what_the_cli_and_the_benchmark_reach():
    """Every definition in src/rqgraph is reached by name references from `cli.main` or a
    name the benchmark uses.  A method ("Class.method") is reached when reached code or the
    benchmark reads an attribute of its name from an object; a dunder always is."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs, imports = {}, {}      # (module, name) -> node; (module, local name) -> (module, name) or a module
    for module, tree in trees.items():
        for node in tree.body:      # a def or class by its name, an assignment by its targets' ids
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]
            defs |= {(module, name): node for t in targets if (name := getattr(t, "id", getattr(t, "name", None)))}
            if isinstance(node, ast.ClassDef):      # its methods stand alone
                defs |= {(module, f"{node.name}.{f.name}"): f for f in node.body if isinstance(f, ast.FunctionDef)}
                node.body = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            for alias in node.names if isinstance(node, ast.ImportFrom) and node.level == 1 else ():
                whole = node.module is None and alias.name in trees       # `from . import module`
                local = (module, alias.asname or alias.name)
                imports[local] = alias.name if whole else (node.module or "__init__", alias.name)
    bench = [_tree("spans.py"), _tree("workloads.py")]
    todo = [("cli", "main"), *_traced(bench[0]), *(key for tree in bench for key in _module_attributes(tree))]
    attrs = {node.attr for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in trees}
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            todo += [imports[key]] if key in imports else []
            continue
        reached.add(key)
        module = key[0]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append((module, node.id))
            elif isinstance(node, ast.Attribute):
                owner = imports.get((module, getattr(node.value, "id", None)))     # a module, for module.attr
                if isinstance(owner, str):
                    todo.append((owner, node.attr))
                else:
                    attrs.add(node.attr)
        todo += [(m, name) for m, name in defs if name.partition(".")[2] in attrs or ".__" in name]
    unreached = sorted(set(defs) - reached - UNREACHED_ALLOWED)
    assert not unreached, f"only tests reach {unreached}"

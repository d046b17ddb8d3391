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

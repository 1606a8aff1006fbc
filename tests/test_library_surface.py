"""The library holds no code that only the tests run."""

import ast
from pathlib import Path

import gintail

TREES = {p.name: ast.parse(p.read_text())
         for p in sorted(Path(gintail.__file__).parent.glob("*.py"))}

UNUSED_ALLOWED = {
    # waiting for the exhaustive atlas of 3-regular Borel-fixed ideals, which
    # will draw from it; until then only tests call it
    ("fixtures.py", "random_nd1_borel_ideals"),
    # the saturate_qq benchmark workload calls it, and so will the CLI once
    # it reports the Gin of an unsaturated input's saturation
    ("groebner.py", "saturate_by_general_linear_form"),
}


def public_functions(tree):
    """(qualified name, name) of each public module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    """Every name the code refers to: bare names, attributes and imports.
    Comments and docstrings refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_function_is_used_in_the_library():
    # a public function or method must be referred to somewhere in the
    # package's code besides the package's re-export in __init__; test-only
    # helpers belong in tests/oracles.py
    used = {name for module, tree in TREES.items() if module != "__init__.py"
            for name in referenced_names(tree)}
    unused = [(module, qualified) for module, tree in TREES.items()
              for qualified, name in public_functions(tree)
              if not name.startswith("_") and name not in used]
    assert sorted(unused) == sorted(UNUSED_ALLOWED)

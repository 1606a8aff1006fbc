"""The library holds no code that only the tests run."""

import ast
import re
from pathlib import Path

import gintail

SOURCES = {p.name: p.read_text() for p in sorted(Path(gintail.__file__).parent.glob("*.py"))}

# random_nd1_borel_ideals is waiting for the exhaustive atlas of 3-regular
# Borel-fixed ideals, which will draw from it; until then only tests call it
UNUSED_ALLOWED = {("fixtures.py", "random_nd1_borel_ideals")}


def test_every_public_function_is_used_in_the_library():
    # a public module-level function must be named somewhere in the package
    # besides its own def and the package's re-export in __init__; test-only
    # helpers belong in tests/oracles.py
    unused = []
    for module, text in SOURCES.items():
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            uses = sum(len(word.findall(other)) for name, other in SOURCES.items()
                       if name != "__init__.py") - 1
            if not uses:
                unused.append((module, node.name))
    assert sorted(unused) == sorted(UNUSED_ALLOWED)

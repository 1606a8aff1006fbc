"""The library holds no code that only the tests run."""

import ast
from collections import defaultdict
from math import inf
from pathlib import Path

import gintail

TREES = {p.name: ast.parse(p.read_text())
         for p in sorted(Path(gintail.__file__).parent.glob("*.py"))}
PERFBENCH_TREES = [
    ast.parse(p.read_text())
    for p in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))]

UNUSED_ALLOWED = {
    # the borel_tailing benchmark workload builds its inputs with it, as the
    # tests' random_nd1_borel_ideals does
    ("borel.py", "borel_closure"),
    # the saturate_qq benchmark workload calls it, and so will the CLI once
    # it reports the Gin of an unsaturated input's saturation
    ("groebner.py", "saturate_by_general_linear_form"),
}

ONE_VALUE_ALLOWED = {
    # the console script calls main() without arguments; the tests pass argv
    ("cli.py", "main", "argv"),
    # mirrors compute_gin's bound, which the CLI will pass once it reports
    # the Gin of an unsaturated input's saturation
    ("groebner.py", "saturate_by_general_linear_form", "bound"),
}

PRIVATE_IMPORTS_ALLOWED = {
    # the regular-sequence witness compares the Gin with the same
    # complete-intersection series that Buchberger's Hilbert bound reads
    ("gin.py", "groebner", "_complete_intersection_hf"),
    # the trials and the saturation draw their sub-seeds from one mixer
    ("gin.py", "groebner", "_mix_seed"),
    # the Macaulay ranks run on the library's one Gaussian elimination
    ("groebner.py", "ring", "_sparse_pivots"),
}


def public_functions(tree):
    """(qualified name, definition) of each public module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def referenced_names(tree):
    """Every name the code reads: bare names, attributes and imports.  A
    name that is only assigned or deleted, as an attribute is by
    self.name = ..., is not read; comments and docstrings refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def private_definitions(tree):
    """(qualified name, name) of each private module-level function and
    class, and of each private method of a module-level class.  Dunder
    methods are left out: Python itself calls them."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield f"{node.name}.{item.name}", item.name


def private_imports(tree):
    """(module, name) of each private name that the code takes from another
    module of the package: by from .module import _name, or as module._name
    off a module bound by from . import module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            else:
                yield from ((node.module, a.name) for a in node.names
                            if a.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.value.id, node.attr


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own; one that another module needs is
    # part of the interface, and each exception says why it is not public
    taken = {(module, *pair) for module, tree in TREES.items()
             for pair in private_imports(tree)}
    assert sorted(taken) == sorted(PRIVATE_IMPORTS_ALLOWED)


def test_every_private_definition_is_used_in_the_library():
    # a private function, class or method that no code in the package refers
    # to is dead: the tests may spy on private names, but do not keep them
    used = {name for tree in TREES.values() for name in referenced_names(tree)}
    unused = [(module, qualified) for module, tree in TREES.items()
              for qualified, name in private_definitions(tree) if name not in used]
    assert unused == []


def test_every_public_function_is_used_in_the_library():
    # a public function or method must be referred to somewhere in the
    # package's code besides the package's re-export in __init__; test-only
    # helpers belong in tests/oracles.py
    used = {name for module, tree in TREES.items() if module != "__init__.py"
            for name in referenced_names(tree)}
    unused = [(module, qualified) for module, tree in TREES.items()
              for qualified, fn in public_functions(tree)
              if not fn.name.startswith("_") and fn.name not in used]
    assert sorted(unused) == sorted(UNUSED_ALLOWED)


def defaulted_parameters(qualified, fn):
    """(name, call position) of each parameter of fn that has a default.  A
    call does not pass a method's self or cls, so the position skips it;
    a keyword-only parameter has position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if "." in qualified and not static else 0
    first_default = len(positional) - len(args.defaults)
    for k, arg in enumerate(positional[first_default:], start=first_default):
        yield arg.arg, k - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls(tree):
    """(called name, positional arguments, keywords) of each call, and of
    each function it forwards to: phases.call(phase, fn, *args, **kwargs)
    passes the arguments after fn on to fn."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for k, callee in enumerate([node.func] + node.args):
                if isinstance(callee, (ast.Name, ast.Attribute)):
                    yield (getattr(callee, "id", getattr(callee, "attr", None)),
                           node.args[k:], node.keywords)


def passed_arguments(trees):
    """For each called name: the most positional arguments any call passes
    (inf past a *args) and every keyword passed (None for a **kwargs)."""
    most, keywords = defaultdict(int), defaultdict(set)
    for tree in trees:
        for name, args, kws in calls(tree):
            starred = any(isinstance(a, ast.Starred) for a in args)
            most[name] = max(most[name], inf if starred else len(args))
            keywords[name].update(k.arg for k in kws)
    return most, keywords


def test_no_defaulted_parameter_takes_one_value():
    # a parameter that no call in the library or the benchmark passes only
    # ever takes its default, so it belongs in the body as a literal
    most, keywords = passed_arguments(list(TREES.values()) + PERFBENCH_TREES)
    never = [(module, qualified, param) for module, tree in TREES.items()
             for qualified, fn in public_functions(tree)
             if not fn.name.startswith("_")
             for param, pos in defaulted_parameters(qualified, fn)
             if not (pos is not None and most[fn.name] > pos
                     or keywords[fn.name] & {param, None})]
    assert sorted(never) == sorted(ONE_VALUE_ALLOWED)

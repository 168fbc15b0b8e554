"""Static guards over the package source.

The core is exact: every probability, weight and expectation is a
Fraction or an int. The float guard walks the syntax tree of each module
and reports float literals, the name ``float`` and ``math`` attributes
outside the integer helpers. The one float the package returns is the
``math.inf`` rank of a lone concept, allowed below by name.

The import guard walks the same trees and reports each name an import
binds that its module never reads, but for the few allowed below with
their reason; ``__future__`` imports and the package's star re-exports
bind no name to read.

The export guard imports every module and resolves each name its
``__all__`` lists, so ``from thicket.x import *`` cannot break on a
stale entry after a removal, and checks that the package lists exactly
the names of its modules' lists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import thicket

SRC = Path(__file__).resolve().parent.parent / "src" / "thicket"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

INTEGER_MATH = frozenset({"lcm", "comb", "gcd", "isqrt"})
# (module, enclosing function, offending token)
ALLOWED = frozenset(
    {
        ("querygraph", "QueryGraph.rank", "math.inf"),
        ("querygraph", "QueryGraph.rank", "float"),
    }
)


def float_hits(source, module):
    """(module, enclosing qualified name, token, line) per float use."""
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        token = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            token = repr(node.value)
        elif isinstance(node, ast.Name) and node.id == "float":
            token = "float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            token = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name not in INTEGER_MATH]
            token = f"from math import {', '.join(names)}" if names else None
        if token is not None:
            hits.append((module, scope, token, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return hits


def test_float_guard_sees_each_kind_of_float():
    source = (
        "import math\n"
        "from math import pi, gcd\n"
        "X = 0.5\n"
        "class QueryGraph:\n"
        "    def rank(self) -> float:\n"
        "        return math.inf\n"
        "    def other(self):\n"
        "        return float(math.log(2)) + math.lcm(2, 3) + math.inf\n"
    )
    hits = sorted(hit[:3] for hit in float_hits(source, "querygraph"))
    assert hits == sorted([
        ("querygraph", "", "from math import pi"),
        ("querygraph", "", "0.5"),
        ("querygraph", "QueryGraph.rank", "float"),
        ("querygraph", "QueryGraph.rank", "math.inf"),
        ("querygraph", "QueryGraph.other", "float"),
        ("querygraph", "QueryGraph.other", "math.log"),
        ("querygraph", "QueryGraph.other", "math.inf"),
    ])


def test_core_is_float_free_but_for_the_lone_concept_rank():
    hits = []
    for module in MODULES:
        hits += float_hits((SRC / f"{module}.py").read_text(encoding="utf-8"), module)
    assert {hit[:3] for hit in hits} == ALLOWED, hits
    assert len(hits) == len(ALLOWED), hits


# (module, imported name): why it stays unread
UNREAD_IMPORTS = {
    ("cli", "drop"): "perfbench/tracer.py wraps it there as thicket.cli.drop",
}


def unread_imports(source, module):
    """(module, bound name, line) per imported name the module never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    hits.append((module, name, node.lineno))
    return sorted(hits, key=lambda hit: hit[2])


def test_import_guard_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import json.decoder\n"
        "from math import gcd, lcm as least\n"
        "from .concepts import *\n"
        "def f() -> os.PathLike:\n"
        "    import re\n"
        "    return least\n"
    )
    assert unread_imports(source, "m") == [
        ("m", "system", 2),
        ("m", "json", 3),
        ("m", "gcd", 4),
        ("m", "re", 7),
    ]


def test_every_imported_name_is_read():
    hits = []
    for module in MODULES:
        hits += unread_imports((SRC / f"{module}.py").read_text(encoding="utf-8"), module)
    assert {hit[:2] for hit in hits} == set(UNREAD_IMPORTS), hits
    assert len(hits) == len(UNREAD_IMPORTS), hits


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    name = "thicket" if module == "__init__" else f"thicket.{module}"
    mod = importlib.import_module(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_package_exports_names_its_modules_export():
    # cli imports __version__ from the package, so the package leaves it out
    listed = {"__version__"}
    for module in MODULES:
        if module not in ("__init__", "cli"):
            listed.update(importlib.import_module(f"thicket.{module}").__all__)
    assert set(thicket.__all__) == listed


# modules a CLI call should not pay to load: dataclasses pulls in inspect,
# ast and dis; hashlib sets up OpenSSL, which only seeded commands use
NEVER_IMPORTED = frozenset({"dataclasses"})
NOT_AT_MODULE_LEVEL = frozenset({"hashlib"})


def imports(source, module):
    """(module, imported module, at module level, line) per import statement."""
    hits = []

    def visit(node, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            top = False
        if isinstance(node, ast.Import):
            hits.extend((module, a.name.split(".")[0], top, node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hits.append((module, node.module.split(".")[0], top, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, top)

    visit(ast.parse(source), True)
    return hits


def test_import_scan_tells_module_level_from_function_level():
    source = (
        "import dataclasses\n"
        "from hashlib import sha256\n"
        "from . import concepts\n"
        "class A:\n"
        "    import json.decoder\n"
        "def f():\n"
        "    import hashlib\n"
    )
    assert imports(source, "m") == [
        ("m", "dataclasses", True, 1),
        ("m", "hashlib", True, 2),
        ("m", "json", True, 5),
        ("m", "hashlib", False, 7),
    ]


def test_no_module_loads_dataclasses_or_hashlib_on_import():
    hits = []
    for module in MODULES:
        for hit in imports((SRC / f"{module}.py").read_text(encoding="utf-8"), module):
            _, name, top, _ = hit
            if name in NEVER_IMPORTED or (top and name in NOT_AT_MODULE_LEVEL):
                hits.append(hit)
    assert hits == []


# trial loops reseed through one path, which matches
# random.Random(derive_seed(seed, i)) at the cost of the C reseed alone
RESEED_HELPERS = frozenset({("learner", "_trial_generators")})


def seed_reads(source, module):
    """(module, enclosing function, line) per generator reseed: a ``seed``
    attribute that is called, or read off a call such as ``super()``."""
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "seed":
                hits.append((module, scope, func.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "seed":
            if isinstance(node.value, ast.Call):
                hits.append((module, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(set(hits), key=lambda hit: hit[2])


def test_seed_scan_sees_each_kind_of_reseed():
    source = (
        "def trials(rng, args):\n"
        "    rng.seed(1)\n"
        "    random.Random.seed(rng, 2)\n"
        "    reseed = super(random.Random, rng).seed\n"
        "    return args.seed, summary.seed\n"
        "random.seed(3)\n"
    )
    assert seed_reads(source, "m") == [
        ("m", "trials", 2),
        ("m", "trials", 3),
        ("m", "trials", 4),
        ("m", "", 6),
    ]


def test_only_the_trial_helper_reseeds_a_generator():
    hits = []
    for module in MODULES:
        hits += seed_reads((SRC / f"{module}.py").read_text(encoding="utf-8"), module)
    assert {hit[:2] for hit in hits} == RESEED_HELPERS, hits

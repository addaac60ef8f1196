"""Every function and method the package defines has a use.

A name defined in src/qeskit that appears nowhere else in src/ or tests/
has no caller and no test; it is dead code.  Dunder methods are called by
the interpreter and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qeskit").glob("*.py"))
CORPUS = "\n".join(p.read_text() for p in SOURCES + sorted((ROOT / "tests").glob("*.py")))


def _defined_functions():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.lineno, node.name


def test_every_function_has_a_use():
    unused = [
        f"{fname}:{line} {name}"
        for fname, line, name in _defined_functions()
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(name)}\b", CORPUS)) < 2
    ]
    assert not unused, "defined but never used: " + ", ".join(unused)

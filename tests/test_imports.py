"""Import policy: no module of the package imports scipy when it is itself
imported.  scipy costs a fresh process about 0.3 s and 25 MB, and only the
Weibull fit needs it, so the fit imports it when it runs; an eager import
anywhere else fails here, before it shows up as set-up time in a benchmark.
"""

import ast
from pathlib import Path

import pytest

import neuralscr

PACKAGE = Path(neuralscr.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def eager_imports(node):
    """The top-level names of the modules `node` imports when it runs: every
    import outside a function body, including those under if, try, with and
    class statements.  Relative imports are left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0]
        yield from eager_imports(child)


def test_the_walker_finds_module_scope_imports_only():
    source = (
        "import numpy as np\n"
        "from scipy.special import psi\n"
        "from . import core\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    import json\n"
        "def f():\n"
        "    import csv\n"
        "    from scipy.optimize import minimize\n"
    )
    assert list(eager_imports(ast.parse(source))) == ["numpy", "scipy", "scipy", "json"]


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_at_module_scope(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "scipy" not in set(eager_imports(tree))

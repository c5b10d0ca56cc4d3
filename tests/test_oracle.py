"""``ionsim.oracle`` is a reference for the tests only: importing the
package does not load it, and no other module of the package imports it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _imports_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "ionsim.oracle" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom):
            if node.module in ("oracle", "ionsim.oracle"):
                return True
            if node.module in (None, "ionsim") and any(a.name == "oracle" for a in node.names):
                return True
    return False


def test_import_ionsim_leaves_oracle_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import sys, ionsim, ionsim.cli; print('ionsim.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_package_module_imports_oracle():
    modules = [p for p in sorted((SRC / "ionsim").glob("*.py")) if p.name != "oracle.py"]
    assert modules
    importers = [p.name for p in modules if _imports_oracle(ast.parse(p.read_text()))]
    assert importers == []

"""What every lnhom process pays for before it does any work: the modules
that ``import lnhom.cli`` loads, and imports kept at module level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lnhom

PACKAGE = Path(lnhom.__file__).resolve().parent


def test_cli_import_does_not_load_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = ("import sys, lnhom.cli; print(sorted(name for name in sys.modules "
            "if name.startswith('scipy.optimize')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_library_imports_only_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = [node.lineno for node in ast.walk(function)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not local, f"{path.name}:{function.name} imports at {local}"

"""What every lnhom process pays for before it does any work: the modules
that ``import lnhom.cli`` loads, and imports kept at module level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lnhom

PACKAGE = Path(lnhom.__file__).resolve().parent


def _run_python(code, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_does_not_load_scipy():
    result = _run_python("import sys, lnhom.cli; print(sorted(name for name "
                         "in sys.modules if name.split('.')[0] == 'scipy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_scenarios_run_where_scipy_cannot_be_imported(tmp_path):
    # the solver, the counting with its dead time, and the full reproduction
    # in one process where any scipy import raises ImportError
    configs = {"modes": "grid_pitch_nm = 40\n",
               "simulate-counts": "pulses_per_point = 20000\n",
               "reproduce-paper": "pulses_per_point = 100000\n"}
    for scenario, text in configs.items():
        (tmp_path / f"{scenario}.cfg").write_text(text, encoding="utf-8")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lnhom.cli import main\n"
            f"for scenario in {sorted(configs)!r}:\n"
            "    code = main([scenario, '--config', scenario + '.cfg',\n"
            "                 '--out', scenario + '-out'])\n"
            "    if code:\n"
            "        sys.exit(f'{scenario} exited {code}')\n")
    result = _run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for scenario in configs:
        assert (tmp_path / f"{scenario}-out" / "report.txt").is_file()


def test_solver_run_loads_no_random_numbers(tmp_path):
    # a fresh process: scipy, which this one has loaded, loads numpy.random,
    # and so does numpy's own import before numpy 2, so the run must add it
    # to sys.modules only where numpy's import had
    config = Path(__file__).resolve().parents[1] / "configs" / "supermodes.cfg"
    code = ("import sys\n"
            "import numpy\n"
            "by_numpy = 'numpy.random' in sys.modules\n"
            "from lnhom.cli import main\n"
            f"code = main(['modes', '--config', {str(config)!r},\n"
            "             '--out', 'modes-out'])\n"
            "print(code, by_numpy, 'numpy.random' in sys.modules)\n")
    result = _run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    code, by_numpy, after_run = result.stdout.split()[-3:]
    assert code == "0"
    assert after_run == by_numpy


def test_library_imports_only_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = [node.lineno for node in ast.walk(function)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not local, f"{path.name}:{function.name} imports at {local}"

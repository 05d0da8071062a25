"""What each entry point imports: ``import ccspectral`` nothing but the
package, and each command only the layers it runs.  Every check starts a
fresh interpreter, since this process has long since loaded everything."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccspectral as cc

SRC = str(Path(cc.__file__).resolve().parents[1])


def loaded_after(code: str, *argv) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


RUN = "import sys\nfrom ccspectral.cli import main\nassert main(sys.argv[1:]) == 0"


def test_import_loads_no_scipy():
    modules = loaded_after("import ccspectral")
    assert not scipy_modules(modules)
    assert {m for m in modules if m.startswith("ccspectral")} == {"ccspectral"}


def test_exports_resolve_lazily():
    code = (
        "import sys, ccspectral as cc\n"
        "cc.h_norm\n"
        "first = sorted(m for m in sys.modules if m.startswith('ccspectral'))\n"
        "star = {}\n"
        "exec('from ccspectral import *', star)\n"
        "bad = [n for n in cc.__all__ if n not in star\n"
        "       or star[n] is not getattr(sys.modules[star[n].__module__], n)]\n"
        "assert (first, bad) == (['ccspectral', 'ccspectral.carnot'], []), (first, bad)\n"
        "assert set(cc.__all__) <= set(dir(cc)) and 'eigensolver' in dir(cc)\n"
        "assert callable(cc.eigensolver._fft_y_inverse)\n"
        "assert cc.ConvergenceError is cc.eigensolver.ConvergenceError\n"
        "assert not hasattr(cc, 'no_such_name')\n")
    loaded_after(code)


def test_carnot_run_loads_no_scipy(tmp_path):
    modules = loaded_after(RUN, "carnot", "--out", tmp_path / "run", "--quiet")
    assert (tmp_path / "run" / "carnot.json").is_file()
    assert not scipy_modules(modules)


def test_load_config_loads_no_scipy(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bc": [{"edge": "x_max", "condition": "dirichlet"}]}))
    code = "import sys\nfrom ccspectral.cli import load_config\nload_config(sys.argv[1])"
    assert not scipy_modules(loaded_after(code, path))


@pytest.mark.parametrize("command, doc", [
    (["cheeger"], {"grid": {"nx": 12, "ny": 24}, "bc": "dirichlet",
                   "cheeger": {"levels": 8, "certificate": {"phi": ["x", "0"]}}}),
    (["grushin-table", "--cross-validate"],
     {"grid": {"nx": 12, "ny": 24}, "table": {"max_n": 1, "max_m": 1}}),
])
def test_cheeger_and_cross_validation_skip_the_nodal_layer(tmp_path, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    modules = loaded_after(RUN, *command, "--config", path, "--out", tmp_path / "run",
                           "--quiet")
    assert "ccspectral.eigensolver" in modules  # the command did solve
    assert "ccspectral.nodal" not in modules
    assert "scipy.sparse.csgraph" not in modules


def test_the_package_table_is_the_one_list_of_public_names():
    # each library module's public classes and functions are exactly its
    # _EXPORTS entry; cli exports only its entry points
    for module, names in cc._EXPORTS.items():
        mod = importlib.import_module(f"ccspectral.{module}")
        assert not hasattr(mod, "__all__"), module
        defined = {name for name, obj in vars(mod).items()
                   if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == mod.__name__}
        assert set(names) <= defined and (module == "cli" or defined == set(names)), module
        assert all(getattr(cc, name) is getattr(mod, name) for name in names), module
    assert cc.SampleError.__module__ == "ccspectral.geometry"
    assert (cc.ModeEntry, cc.CourantEntry) == (cc.grushin.ModeEntry, cc.nodal.CourantEntry)

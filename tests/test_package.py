"""The package's public surface: its re-exported names and its lazy modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fndecomp

PACKAGE = Path(fndecomp.__file__).resolve().parent


def run_fresh(code):
    """stdout of a fresh interpreter with the package on its path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_exported_name_is_its_modules_attribute():
    assert fndecomp.__all__ and len(set(fndecomp.__all__)) == len(fndecomp.__all__)
    for name in fndecomp.__all__:
        module = importlib.import_module(f"fndecomp.{fndecomp._MODULE_OF[name]}")
        assert getattr(fndecomp, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from fndecomp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fndecomp.__all__)
    assert set(fndecomp.__all__) <= set(dir(fndecomp))
    assert {"tables", "errors", "__version__"} <= set(dir(fndecomp))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fndecomp.no_such_name


def test_a_submodule_loads_at_its_first_attribute_access():
    out = run_fresh(
        "import sys, types, fndecomp\n"
        "print(type(sys.modules['fndecomp.tables']) is types.ModuleType)\n"
        "print(fndecomp.tables.load_table.__name__)\n"
        "print(type(sys.modules['fndecomp.tables']) is types.ModuleType)\n"
        "print(fndecomp.tables is sys.modules['fndecomp.tables'])\n")
    assert out == ["False", "load_table", "True", "True"]


def test_the_lazy_registry_holds_every_library_module():
    # a module file the registry missed would be left out of sys.modules,
    # where bench/tracer.py looks for the modules it wraps
    expected = {f"fndecomp.{p.stem}" for p in PACKAGE.glob("*.py")
                if p.stem not in ("__init__", "__main__", "cli")}
    registered = run_fresh(
        "import sys, fndecomp\n"
        "print(*(name for name in sys.modules if name.startswith('fndecomp.')))\n")
    assert set(registered) == expected
    assert {f"fndecomp.{name}" for name in fndecomp._EXPORTS} == expected

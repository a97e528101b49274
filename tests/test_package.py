"""The package's public surface: its re-exported names, its lazy modules and
the messages of its refusals."""

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
    # where bench/tracer.py looks for the modules it wraps; the CLI and its
    # subcommand handlers (cli_<command>) are no library modules
    expected = {f"fndecomp.{p.stem}" for p in PACKAGE.glob("*.py")
                if p.stem not in ("__init__", "__main__", "cli")
                and not p.stem.startswith("cli_")}
    registered = run_fresh(
        "import sys, fndecomp\n"
        "print(*(name for name in sys.modules if name.startswith('fndecomp.')))\n")
    assert set(registered) == expected
    assert {f"fndecomp.{name}" for name in fndecomp._EXPORTS} == expected


def test_phi_domain_is_the_one_library_cache():
    # a functools cache keeps what it is given for the life of the process;
    # the library holds exactly one, bounded, on the small phi domains
    caches = set()
    for path in PACKAGE.glob("[!_]*.py"):
        module = importlib.import_module(f"fndecomp.{path.stem}")
        objects = list(vars(module).values())
        objects += [v for cls in objects if isinstance(cls, type) for v in vars(cls).values()]
        caches |= {(obj.__module__, obj.__qualname__) for obj in objects
                   if callable(getattr(obj, "cache_info", None))}
    assert caches == {("fndecomp.oddsupport", "phi_domain")}
    assert fndecomp.oddsupport.phi_domain.cache_info().maxsize == 8


# an int of 5 000 digits, more than str() converts; negative where a check is
# a lower bound
BIG = 10**4999
Z2, Z3 = fndecomp.Group((2,)), fndecomp.Group((3,))
UNARY = fndecomp.FnTable(2, 1, Z2, (0, 1))
REFUSALS = {
    "FnTable-a_size": lambda: fndecomp.FnTable(-BIG, 1, Z2, (0,)),
    "FnTable-arity": lambda: fndecomp.FnTable(2, -BIG, Z2, (0,)),
    "FnTable.index_of": lambda: UNARY.index_of((BIG,)),
    "simple_minor": lambda: fndecomp.simple_minor(UNARY, (BIG,), 2),
    "identification_minor": lambda: fndecomp.identification_minor(UNARY, BIG, -BIG),
    "_check_positions": lambda: fndecomp.higher_derivative(UNARY, (BIG,), (0,)),
    "_check_point": lambda: fndecomp.higher_derivative(UNARY, (0,), (BIG,)),
    "partial_derivative-position": lambda: fndecomp.partial_derivative(UNARY, BIG, 0),
    "partial_derivative-parameter": lambda: fndecomp.partial_derivative(UNARY, 0, BIG),
    "odd_support-component": lambda: fndecomp.odd_support(2, (BIG,)),
    "odd_support-alphabet": lambda: fndecomp.odd_support(BIG, (-1,)),
    "phi_domain-a_size": lambda: fndecomp.phi_domain(-BIG, 1),
    "phi_domain-n": lambda: fndecomp.phi_domain(2, -BIG),
    "PhiMap-a_size": lambda: fndecomp.PhiMap(-BIG, Z2, 1, {}),
    "representative_tuple": lambda: fndecomp.representative_tuple({0}, -BIG),
    "representative_tuple-n": lambda: fndecomp.representative_tuple({0}, BIG),
    "representative_tuple-letter": lambda: fndecomp.representative_tuple({-BIG}, 1),
    "Group-modulus": lambda: fndecomp.Group((-BIG,)),
    "Z3Params": lambda: fndecomp.Z3Params(BIG, 0, 0, 0),
    "z3_build": lambda: fndecomp.z3_build(-BIG, fndecomp.Z3Params(0, 0, 0, 0)),
    "check_z3_table": lambda: fndecomp.classify.check_z3_table(3, -BIG, Z3),
    "even-sum-m": lambda: fndecomp.even_sum_lhs(-BIG, 0),
    "even-sum-t": lambda: fndecomp.even_sum_rhs(4, BIG),
    "odd-sum-m": lambda: fndecomp.odd_sum_lhs(-BIG, 0),
    "odd-sum-t": lambda: fndecomp.odd_sum_rhs(3, BIG),
}


@pytest.mark.parametrize("site", REFUSALS)
def test_refusals_quote_huge_ints_in_excerpt(site):
    with pytest.raises(fndecomp.FnDecompError) as info:
        REFUSALS[site]()
    message = str(info.value)
    assert "\n" not in message and len(message) <= 200


TERNARY = fndecomp.FnTable(2, 3, Z2, (0,) * 8)
NON_INTEGERS = {
    "partial_derivative-position": (lambda: fndecomp.partial_derivative(TERNARY, 1.0, 1),
                                    "position must be an integer, got 1.0"),
    "partial_derivative-parameter": (lambda: fndecomp.partial_derivative(TERNARY, 1, 1.0),
                                     "parameter must be an integer, got 1.0"),
    "higher_derivative": (lambda: fndecomp.higher_derivative(TERNARY, [0.0], [1, 0, 0]),
                          "position must be an integer, got 0.0"),
    "derivative_at_zero": (lambda: fndecomp.derivative_at_zero(TERNARY, [0], [1.0, 0, 0]),
                           "parameter tuple component must be an integer, got 1.0"),
    "FnTable.eval": (lambda: TERNARY.eval((0, 1, 1.0)), "component must be an integer, got 1.0"),
    "FnTable.index_of": (lambda: TERNARY.index_of((0, 1, 1.0)),
                         "component must be an integer, got 1.0"),
    "odd_support-component": (lambda: fndecomp.odd_support(2, (0, 1.0)),
                              "component must be an integer, got 1.0"),
    "odd_support-alphabet": (lambda: fndecomp.odd_support(2.0, (0, 1)),
                             "alphabet size must be an integer, got 2.0"),
    "Z3Params": (lambda: fndecomp.Z3Params(0.0, 1, 0, 0),
                 "parameter a must be an integer, got 0.0"),
}


@pytest.mark.parametrize("site", NON_INTEGERS)
def test_non_integer_arguments_are_refused(site):
    # each is read through groups.as_int: a float passes a range check, so it
    # is refused before one, not left to fail as an index or a shift
    call, message = NON_INTEGERS[site]
    with pytest.raises(fndecomp.FnDecompError) as info:
        call()
    assert str(info.value) == message

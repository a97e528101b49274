"""The package's public surface: its re-exported names, its lazy modules and
the messages of its refusals."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import fndecomp
from fndecomp.errors import excerpt

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


# The integer contract of the public API.  Each integer parameter of the
# names in fndecomp.__all__ and of the FnTable and Group methods has a row:
# the call with a value in the parameter's place, the name its refusals give
# it, a value the call accepts and the values among -1 and BIG that break its
# bound.  None as the name marks the residues of an element, which
# Group.validate reads and names by the element.
P0 = fndecomp.Z3Params(0, 0, 0, 0)
Z4 = fndecomp.Group((4,))
FULL2 = fndecomp.PhiMap(2, Z2, None, {S: (0,) for S in map(frozenset, ((), (0,), (1,), (0, 1)))})
BOTH = (-1, BIG)


def bundle(positions=(0,), params=(1,), claimed_k=0):
    return fndecomp.WitnessBundle(UNARY, frozenset(positions), params, (1,), claimed_k).verify()


CONTRACT = {
    "FnTable.a_size": (lambda v: fndecomp.FnTable(v, 1, Z2, (0, 1)), "alphabet size", 2, BOTH),
    "FnTable.arity": (lambda v: fndecomp.FnTable(2, v, Z2, (0, 1)), "arity", 1, BOTH),
    "FnTable.from_callable.a_size": (
        lambda v: fndecomp.FnTable.from_callable(v, 1, Z2, lambda x: (0,)), "alphabet size", 2,
        BOTH),
    "FnTable.from_callable.arity": (
        lambda v: fndecomp.FnTable.from_callable(2, v, Z2, lambda x: (0,)), "arity", 1, BOTH),
    "FnTable.constant.a_size": (lambda v: fndecomp.FnTable.constant(v, 1, Z2, (0,)),
                                "alphabet size", 2, BOTH),
    "FnTable.constant.arity": (lambda v: fndecomp.FnTable.constant(2, v, Z2, (0,)), "arity", 1,
                               BOTH),
    "FnTable.index_of.x": (lambda v: UNARY.index_of((v,)), "component", 1, BOTH),
    "FnTable.eval.x": (lambda v: UNARY.eval((v,)), "component", 1, BOTH),
    "Group.moduli": (lambda v: fndecomp.Group((v,)), "cyclic factor modulus", 2, (-1,)),
    "Group.validate.x": (lambda v: Z2.validate((v,)), None, 1, BOTH),
    "Group.add.x": (lambda v: Z2.add((v,), (0,)), None, 1, BOTH),
    "Group.add.y": (lambda v: Z2.add((0,), (v,)), None, 1, BOTH),
    "Group.neg.x": (lambda v: Z2.neg((v,)), None, 1, BOTH),
    "Group.sub.x": (lambda v: Z2.sub((v,), (0,)), None, 1, BOTH),
    "Group.sub.y": (lambda v: Z2.sub((0,), (v,)), None, 1, BOTH),
    "Group.scalar_mul.k": (lambda v: Z2.scalar_mul(v, (1,)), "k", 3, ()),
    "Group.scalar_mul.x": (lambda v: Z2.scalar_mul(1, (v,)), None, 1, BOTH),
    "Group.order_of.x": (lambda v: Z2.order_of((v,)), None, 1, BOTH),
    "Group.encode.x": (lambda v: Z2.encode((v,)), None, 1, BOTH),
    "Group.decode.code": (lambda v: Z2.decode(v), "element code", 1, BOTH),
    "Group.format_element.x": (lambda v: Z2.format_element((v,)), None, 1, BOTH),
    "PhiMap.a_size": (lambda v: fndecomp.PhiMap(v, Z2, None, FULL2.entries), "alphabet size", 2,
                      BOTH),
    "PhiMap.arity": (lambda v: fndecomp.PhiMap(2, Z2, v, {frozenset({d}): (0,) for d in (0, 1)}),
                     "arity", 1, (-1,)),
    "WitnessBundle.positions": (lambda v: bundle(positions=(v,)), "position", 0, BOTH),
    "WitnessBundle.params": (lambda v: bundle(params=(v,)), "parameter tuple component", 1, BOTH),
    "WitnessBundle.claimed_k": (lambda v: bundle(claimed_k=v), "claimed k", 0, BOTH),
    "Z3Params.a": (lambda v: fndecomp.Z3Params(v, 0, 0, 0), "parameter a", 2, BOTH),
    "Z3Params.b": (lambda v: fndecomp.Z3Params(0, v, 0, 0), "parameter b", 2, BOTH),
    "Z3Params.c": (lambda v: fndecomp.Z3Params(0, 0, v, 0), "parameter c", 2, BOTH),
    "Z3Params.d": (lambda v: fndecomp.Z3Params(0, 0, 0, v), "parameter d", 2, BOTH),
    "decomposability_witness.k": (lambda v: fndecomp.decomposability_witness(UNARY, v), "k", 1,
                                  BOTH),
    "decompose_via_taylor.k": (lambda v: fndecomp.decompose_via_taylor(UNARY, v), "k", 1, BOTH),
    "is_k_decomposable.k": (lambda v: fndecomp.is_k_decomposable(UNARY, v), "k", 1, BOTH),
    "derivative_at_zero.vars": (lambda v: fndecomp.derivative_at_zero(UNARY, (v,), (1,)),
                                "position", 0, BOTH),
    "derivative_at_zero.params": (lambda v: fndecomp.derivative_at_zero(UNARY, (0,), (v,)),
                                  "parameter tuple component", 1, BOTH),
    "higher_derivative.vars": (lambda v: fndecomp.higher_derivative(UNARY, (v,), (1,)),
                               "position", 0, BOTH),
    "higher_derivative.params": (lambda v: fndecomp.higher_derivative(UNARY, (0,), (v,)),
                                 "parameter tuple component", 1, BOTH),
    "partial_derivative.i": (lambda v: fndecomp.partial_derivative(UNARY, v, 1), "position", 0,
                             BOTH),
    "partial_derivative.a_val": (lambda v: fndecomp.partial_derivative(UNARY, 0, v), "parameter",
                                 1, BOTH),
    "simple_minor.sigma": (lambda v: fndecomp.simple_minor(UNARY, (v,), 2), "sigma target", 1,
                           BOTH),
    "simple_minor.arity": (lambda v: fndecomp.simple_minor(UNARY, (0,), v), "target arity", 2,
                           BOTH),
    "identification_minor.i": (lambda v: fndecomp.identification_minor(TERNARY, v, 1), "position",
                               0, BOTH),
    "identification_minor.j": (lambda v: fndecomp.identification_minor(TERNARY, 0, v), "position",
                               1, BOTH),
    "odd_support.a_size": (lambda v: fndecomp.odd_support(v, (0,)), "alphabet size", 2, (-1,)),
    "odd_support.x": (lambda v: fndecomp.odd_support(2, (v,)), "component", 1, BOTH),
    # the typed cache of phi_domain holds (2, 1) from the accepted call
    "phi_domain.a_size": (lambda v: fndecomp.phi_domain(v, 1), "alphabet size", 2, BOTH),
    "phi_domain.n": (lambda v: fndecomp.phi_domain(2, v), "arity", 1, (-1,)),
    "determined_count.a_size": (lambda v: fndecomp.determined_count(v, 1, Z2), "alphabet size", 2,
                                BOTH),
    "determined_count.n": (lambda v: fndecomp.determined_count(2, v, Z2), "arity", 1, (-1,)),
    "representative_tuple.S": (lambda v: fndecomp.representative_tuple({v}, 1), "letter", 1,
                               (-1,)),
    "representative_tuple.n": (lambda v: fndecomp.representative_tuple({0}, v), "arity", 1, BOTH),
    "reconstruct_even.n": (lambda v: fndecomp.reconstruct_even(FULL2, v), "arity", 4, BOTH),
    "uniform_system_rank.a_size": (lambda v: fndecomp.uniform_system_rank(v, 5), "alphabet size",
                                   2, BOTH),
    "uniform_system_rank.n": (lambda v: fndecomp.uniform_system_rank(2, v), "arity", 5, BOTH),
    "z3_build.n": (lambda v: fndecomp.z3_build(v, P0), "arity", 4, BOTH),
    "even_sum_lhs.m": (lambda v: fndecomp.even_sum_lhs(v, 0), "m", 4, (-1,)),
    "even_sum_lhs.t": (lambda v: fndecomp.even_sum_lhs(4, v), "t", 1, BOTH),
    "even_sum_rhs.m": (lambda v: fndecomp.even_sum_rhs(v, 0), "m", 4, (-1,)),
    "even_sum_rhs.t": (lambda v: fndecomp.even_sum_rhs(4, v), "t", 1, BOTH),
    "odd_sum_lhs.m": (lambda v: fndecomp.odd_sum_lhs(v, 0), "m", 3, (-1,)),
    "odd_sum_lhs.t": (lambda v: fndecomp.odd_sum_lhs(3, v), "t", 1, BOTH),
    "odd_sum_rhs.m": (lambda v: fndecomp.odd_sum_rhs(v, 0), "m", 3, (-1,)),
    "odd_sum_rhs.t": (lambda v: fndecomp.odd_sum_rhs(3, v), "t", 1, BOTH),
    "odd_sum_pair_count.m": (lambda v: fndecomp.odd_sum_pair_count(v, 0), "m", 3, BOTH),
    "odd_sum_pair_count.t": (lambda v: fndecomp.odd_sum_pair_count(3, v), "t", 1, BOTH),
    "hamming_extension.n": (lambda v: fndecomp.hamming_extension(v, 2, Z3, (1,)), "arity", 3,
                            BOTH),
    "hamming_extension.a_size": (lambda v: fndecomp.hamming_extension(3, v, Z3, (1,)),
                                 "alphabet size", 2, BOTH),
    "hamming_witness.n": (lambda v: fndecomp.hamming_witness(v, Z3, (1,)), "arity", 3, BOTH),
    "large_alphabet_witness.n": (lambda v: fndecomp.large_alphabet_witness(v, 4, Z2, (1,)),
                                 "arity", 3, BOTH),
    "large_alphabet_witness.a_size": (lambda v: fndecomp.large_alphabet_witness(3, v, Z2, (1,)),
                                      "alphabet size", 4, BOTH),
    "tightness_witness.ell": (lambda v: fndecomp.tightness_witness(v, 2, Z4, (1,), 5),
                              "alphabet parameter ell", 2, BOTH),
    "tightness_witness.e": (lambda v: fndecomp.tightness_witness(2, v, Z4, (1,), 5),
                            "exponent parameter e", 2, BOTH),
    "tightness_witness.n": (lambda v: fndecomp.tightness_witness(2, 2, Z4, (1,), v), "arity", 5,
                            BOTH),
}
# integer parameters outside the contract: the per-cell value codes stay
# open, and the result records store what a library call computed
EXEMPT = {"FnTable.values", "Analysis.essential_variables", "Analysis.gap",
          "Analysis.min_decomposition_arity", "BooleanClassification.gap",
          "BooleanGapForm.c", "BooleanGapForm.m"}
INTEGER_ANNOTATION = re.compile(
    r"int( \| None)?|(Sequence|Iterable|tuple|frozenset)\[int(, \.\.\.)?\]")


def annotated_parameters(annotation):
    """owner.parameter for each parameter whose annotation fully matches the
    pattern, of the names in __all__ and of the public FnTable and Group
    methods."""
    owners = {name: getattr(fndecomp, name) for name in fndecomp.__all__
              if name not in fndecomp._EXPORTS["errors"].split()}
    owners.update({f"{cls.__name__}.{name}": getattr(cls, name)
                   for cls in (fndecomp.FnTable, fndecomp.Group)
                   for name, attr in vars(cls).items()
                   if not name.startswith("_") and isinstance(attr, (FunctionType, classmethod))})
    return {f"{owner}.{name}" for owner, call in owners.items()
            for name, param in inspect.signature(call).parameters.items()
            if annotation.fullmatch(str(param.annotation))}


def test_the_integer_contract_lists_every_integer_parameter():
    assert not set(CONTRACT) & EXEMPT
    assert set(CONTRACT) | EXEMPT == annotated_parameters(INTEGER_ANNOTATION)


@pytest.mark.parametrize("param", CONTRACT)
def test_integer_contract(param):
    # the call accepts an integer in the parameter's place, refuses 2.0 and
    # "3" by name before any comparison, and refuses each bound it breaks in
    # one line
    call, what, ok, breaks = CONTRACT[param]
    call(ok)
    for value in (2.0, "3"):
        with pytest.raises(fndecomp.FnDecompError) as info:
            call(value)
        if what is None:
            assert str(info.value) == (f"element {excerpt(repr((value,)))} has a residue "
                                       "that is not an integer")
        else:
            assert str(info.value) == f"{what} must be an integer, got {excerpt(repr(value))}"
    for value in breaks:
        with pytest.raises(fndecomp.FnDecompError) as info:
            call(value)
        message = str(info.value)
        assert "\n" not in message and len(message) <= 200


# The text contract of the public API, beside the integer one.  Each str
# parameter of the same names has a row: the calls that take a text there,
# the name their refusals give it and a text every call accepts.  A text
# reader refuses anything but a str, bytes included, by name and in one line,
# as load_table does.
TEXT = {
    "load_table.text": ((fndecomp.load_table,), "table text", fndecomp.dump_table(UNARY)),
    "load_phi.text": ((fndecomp.load_phi,), "phi text", fndecomp.dump_phi(FULL2)),
    "Group.from_text.text": ((fndecomp.Group.from_text,), "group text", "Z2"),
    "Group.parse_element.text": ((Z2.parse_element, fndecomp.Group(()).parse_element),
                                 "element text", "0"),
}
# str fields of the result records store what a library call computed
TEXT_EXEMPT = {"BooleanGapForm.kind", "Z3Classification.verdict"}


def test_the_text_contract_lists_every_text_parameter():
    assert not set(TEXT) & TEXT_EXEMPT
    assert set(TEXT) | TEXT_EXEMPT == annotated_parameters(re.compile(r"str( \| None)?"))


@pytest.mark.parametrize("param", TEXT)
def test_text_contract(param):
    calls, what, ok = TEXT[param]
    for call in calls:
        call(ok)
        for value in (ok.encode(), None):
            with pytest.raises(fndecomp.ArgumentError) as info:
                call(value)
            assert str(info.value) == f"{what} must be a str, got {type(value).__name__}"

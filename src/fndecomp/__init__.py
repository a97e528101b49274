"""Analysis and additive decomposition of finite functions A^n -> B where B
is a finite abelian group: essential variables and arity gap, odd-support
determination, discrete derivative calculus, decomposability bounds and
witnesses, canonical Boolean-group decompositions, and the explicit gap
classifications for Boolean tables and ternary operations.

Every library module is registered in sys.modules and bound here at import,
but loaded lazily: its source is compiled and run at the first access to one
of its attributes other than __spec__.  The names of __all__, listed
below by module, are served from their modules on access (PEP 562), so a
command compiles only the modules it uses.
"""

import sys
import types
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "ArgumentError CoverageError DomainError FnDecompError InternalConsistencyError "
              "ParseError PreconditionError ResourceError ShapeError",
    "records": "",
    "groups": "Group",
    "packing": "",
    "tables": "FnTable dump_table load_table load_table_file save_table_file",
    "minors": "arity_gap determined_via_symmetry essential_arity essential_variables "
              "identification_minor is_totally_symmetric reduce_to_essential simple_minor",
    "calculus": "decomposability_witness decompose_via_taylor derivative_at_zero "
                "higher_derivative is_k_decomposable min_decomposition_arity "
                "partial_derivative taylor_terms",
    "oddsupport": "Analysis PhiMap analyze determined_count extract_phi is_determined "
                  "odd_support phi_domain representative_tuple table_from_phi",
    "phitext": "dump_phi load_phi",
    "booldecomp": "decompose_even decompose_odd decompose_uniform reconstruct_even "
                  "reconstruct_odd reconstruct_uniform",
    "classify": "BooleanClassification BooleanGapForm Z3Classification Z3Params "
                "classify_boolean z3_build z3_classify",
    "identities": "even_sum_lhs even_sum_rhs odd_sum_lhs odd_sum_pair_count odd_sum_rhs",
    "witnesses": "WitnessBundle hamming_extension hamming_witness large_alphabet_witness "
                 "tightness_witness",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


class _LazyModule(types.ModuleType):
    """A library module not yet run: the first access to any attribute but
    __spec__ compiles and runs it.  A from-import reads __spec__ of the
    module it names and drops any error that read raises (CPython 3.11), so
    the read loads nothing, and an error while the module compiles, out of
    memory among them, reaches the code that first uses it."""

    def __getattribute__(self, name):
        if name == "__spec__":
            return super().__getattribute__(name)
        self.__class__ = types.ModuleType
        self.__spec__.loader.exec_module(self)
        return getattr(self, name)


def _lazy(name):
    """fndecomp.<name>, registered in sys.modules and loaded at its first
    attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


globals().update({module: _lazy(module) for module in _EXPORTS})


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})

"""Analysis and additive decomposition of finite functions A^n -> B where B
is a finite abelian group: essential variables and arity gap, odd-support
determination, discrete derivative calculus, decomposability bounds and
witnesses, canonical Boolean-group decompositions, and the explicit gap
classifications for Boolean tables and ternary operations."""

from .booldecomp import (
    decompose_even,
    decompose_odd,
    decompose_uniform,
    reconstruct_even,
    reconstruct_odd,
    reconstruct_uniform,
    uniform_system_rank,
)
from .calculus import (
    decomposability_witness,
    decompose_via_taylor,
    derivative_at_zero,
    higher_derivative,
    is_k_decomposable,
    min_decomposition_arity,
    partial_derivative,
    taylor_terms,
)
from .classify import (
    BooleanClassification,
    BooleanGapForm,
    Z3Classification,
    Z3Params,
    classify_boolean,
    z3_build,
    z3_classify,
)
from .errors import (
    ArgumentError,
    CoverageError,
    DomainError,
    FnDecompError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
    ResourceError,
    ShapeError,
)
from .groups import Group
from .identities import (
    even_sum_lhs,
    even_sum_rhs,
    odd_sum_lhs,
    odd_sum_pair_count,
    odd_sum_rhs,
)
from .oddsupport import (
    PhiMap,
    determined_count,
    dump_phi,
    extract_phi,
    is_determined,
    load_phi,
    odd_support,
    phi_domain,
    representative_tuple,
    table_from_phi,
)
from .tables import (
    FnTable,
    arity_gap,
    determined_via_symmetry,
    dump_table,
    essential_arity,
    essential_variables,
    identification_minor,
    is_totally_symmetric,
    load_table,
    load_table_file,
    reduce_to_essential,
    save_table_file,
    simple_minor,
)
from .witnesses import (
    WitnessBundle,
    hamming_extension,
    hamming_witness,
    large_alphabet_witness,
    tightness_witness,
)

__version__ = "0.1.0"

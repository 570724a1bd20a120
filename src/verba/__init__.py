"""Word values and verbal subgroups on normal subgroups of finite groups.

The package brute-force verifies, at desk scale, the machinery connecting a
word's value set to the subgroup it generates: value sets over tuples of
normal subgroups, star powers of normal subsets, generator independence,
ascending linear series for the lower central and derived words, and the
generating-set cardinality bounds those series produce.
"""

from .enumeration import DEFAULT_BUDGET, ProductSpace
from .errors import (
    ArityMismatch,
    BadIndex,
    BudgetExceeded,
    DisjointnessViolation,
    InternalInvariantViolation,
    NotAGroup,
    NotNormal,
    OrderCapExceeded,
    PowerConditionFailed,
    PreconditionFailed,
    ProductNotSubgroup,
    UnassignedVariable,
    UnknownCheckId,
    UnknownSpec,
    UnknownVariableFamily,
    VerbaError,
    WordSyntaxError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Subset,
    builtin_group,
    closure,
    commutator_subgroup,
    direct_product,
    evaluate,
    evaluate_arrays,
    group_from_cayley,
    group_from_permutations,
    load_group_file,
    normal_closure,
    star_power,
    subgroup_product,
)
from .harness import (
    CheckResult,
    CheckSpec,
    DEFAULT_CATALOG,
    SurveyRow,
    parse_tuple_spec,
    run_check,
    run_suite,
    survey,
)
from .series import (
    LinearSeries,
    SeriesFactor,
    build_delta_series,
    build_gamma_series,
    generator_bound_report,
    verify_series,
)
from .verbal import (
    LinearityReport,
    SweepReport,
    ValueSet,
    check_disjoint_split,
    check_linearity,
    check_substitution,
    class_generating_subset,
    comm_congruence_sweep,
    extended_width_sweep,
    star_membership_sweep,
    value_set,
    value_set_over,
    verbal_subgroup,
    width_sweep,
)
from .words import (
    ReducedWord,
    Var,
    WordExpr,
    classify_outer_commutator,
    comm,
    delta,
    enumerate_extended,
    exponent_sum,
    extension_degree,
    gamma,
    is_non_commutator,
    is_outer_commutator,
    parse_word,
    reduce_word,
    render,
    substitute,
    variables,
)

__version__ = "0.1.0"

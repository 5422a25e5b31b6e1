"""Exact computation engine for free differential perm algebras.

Canonical normal forms and arithmetic, identity checking for the derived
products (including delta-parametric and formal-vector-field settings),
generated-subalgebra spans with exact multilinear dimensions, the reduction
of a nontrivial identity to a derivative-only one, and Witt-type Lie and
Leibniz brackets with verified structure-constant tables.
"""

from .algebra import (
    CTX_DELTA,
    CTX_Q,
    AlgebraError,
    Context,
    DELTA,
    DeltaPoly,
    DiffPermPoly,
    Monomial,
    Symbol,
    annihilator_test,
    apply_substitution,
    derived_product,
    format_monomial,
    format_poly,
    format_scalar,
    grade,
    is_multilinear,
    monomial_key,
    multiset_normal_form,
    normalize,
    rename_vars,
    specialize_delta,
    symbol,
    x,
)
from .exprs import (
    Assoc,
    Bracket,
    Der,
    DerOp,
    Expr,
    FormalVectorField,
    Mul,
    NonMultilinearError,
    Scale,
    Star,
    Sum,
    SUITE_IDS,
    SuiteCase,
    SuiteResult,
    Var,
    Verdict,
    check_identity,
    eval_delta,
    eval_expr,
    eval_on_generators,
    run_suite,
    standard_identity,
    suite_cases,
    v,
    vf_leibniz_bracket,
    vf_prec,
)
from .reduction import (
    Decomposition,
    OUTCOME_DERIVATIVE_ONLY,
    OUTCOME_RIGHT_ANNIHILATOR,
    ReductionResult,
    TraceStep,
    decompose,
    h0,
    h_step,
    reduce_identity,
)
from .spans import (
    DimensionReport,
    SpanBasis,
    dimension_formula,
    generate_S,
    generate_closure,
    rank,
    verify_dimension,
    weight_minus2_monomials,
)
from .witt import (
    TableVerification,
    WittElement,
    leibniz_bracket,
    lie_bracket,
    structure_table,
    verify_tables,
    witt_prec,
)

__version__ = "0.1.0"

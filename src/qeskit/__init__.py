"""qeskit: exact engine for linear differential operators preserving
polynomial and power-extended function spaces.

The package is layered:

    scalars    exact rationals, parameter rational functions, RatFunc
    operators  normal-ordered and graded Euler-form operators, actions
    spaces     ladder spaces P_n + x^a P_m, generators, invariance, search
    probe      commutator tables, relation checks, polynomial fits
    quadext    spaces P_n + f P_m with f^2 rational, matrix calculus
    dsl / cli  expression language and the qes command-line tool

Every finite space (V1Space, QuadSpace, PairModule) gives basis and images
as term maps; FiniteSpace.matrix reads the action matrix off them once, by
back-substitution, and span coordinates, commutator tables and spectra use it.
"""

from .scalars import (
    NEG_INF,
    PARAM,
    ParamScalar,
    QuasiExponent,
    RatFunc,
    SingularSpecialization,
    arith,
    normalize,
    qexp,
    rat,
    specialize,
)
from .operators import (
    DiffOp,
    NonLaurentCoefficient,
    QuasiDiffOp,
    QuasiPoly,
    act,
    act_poly,
    act_rat,
    commutator,
    compose,
)
from .spaces import (
    InvarianceReport,
    MappingContractError,
    V1Space,
    check_invariance,
    exponent_set_equiv,
    ladder_pattern_exponents,
    make_bosonic,
    make_jumps,
    make_k,
    make_kernels,
    make_mixing,
    make_sl2,
    operator_in_span,
    search_preserving,
    v1_exponents,
)
from .probe import (
    ClosureReport,
    FitResult,
    commutator_table,
    fit_poly_in_J0,
    nilpotency_check,
    verify_relation,
)
from .quadext import (
    MatOp,
    PairModule,
    QuadSpace,
    check_invariance_quad,
    closure_check,
    lame_module_basis,
    lame_preset,
    lame_pullback,
    lift_d,
    lift_f,
    lift_word,
    lift_x,
    module_invariance,
    module_spectrum,
    ratio_sqrt_preset,
    s_generators,
    spectrum_all_real_distinct,
    sqrt_quadratic_preset,
)
from .dsl import eval_ladder, eval_quad, parse, parse_space_or_quad, pprint

__version__ = "0.1.0"

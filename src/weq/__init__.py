"""Exact-arithmetic toolkit for word equations.

Words, morphisms and systems of word equations; their encoding as
vectors of sparse integer polynomials; binomial factorization of the
pair determinants, which classifies rank-(n-1) common solutions by
hyperplane length constraints; principal decompositions; and a
brute-force search that verifies everything at desk scale.
"""

from .analysis import (
    PairAnalysis,
    PairDeterminant,
    bounds,
    cofactor_3vars,
    minimal_count_bounds,
    pair_report_json,
    solution_hyperplanes,
)
from .encode import (
    balanced_residual,
    check_solution_poly,
    is_balanced,
    s_vector,
    t_det,
)
from .poly import (
    BinomialFactorization,
    MultiPoly,
    binomial_factors,
    divide_by_binomial,
    format_poly,
    minimal_monomials,
    pure_difference,
    pure_difference_divisors,
)
from .principal import PrincipalDecomposition, principal_decompose
from .search import (
    BoundCheckReport,
    SearchConfig,
    SearchSpaceError,
    SolutionCatalog,
    SolutionCounts,
    count_solutions,
    enumerate_solutions,
    search_space_size,
    verify_bounds,
    verify_encoding,
)
from .textio import (
    ParseError,
    parse_morphism,
    parse_poly,
    parse_system,
)
from .words import (
    EqSystem,
    Equation,
    InternalError,
    LambdaVector,
    Morphism,
    Word,
    as_system,
    compose,
    gamma_matrix,
    gamma_normal,
    is_solution,
    rank,
    unknown_names,
)

__version__ = "0.1.0"

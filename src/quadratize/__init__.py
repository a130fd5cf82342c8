"""Optimal monomial quadratization of polynomial ODE systems.

Given a system x_i' = f_i(x) with polynomial right-hand sides, find the
smallest set of monomial variables z = x^d whose introduction makes every
right-hand side (of the original and of the new variables) a polynomial of
degree at most two.  The search is an exact branch and bound with two
pruning rules and a root lower bound; a non-optimal linear-size
construction over Laurent monomials is also provided.
"""

from .bruteforce import (
    brute_force_optimal,
    document_violations,
    exhaustive_c4_capacity,
    is_c4star_free,
    is_quadratization,
    quadratization_violations,
)
from .output import ResultDocument, ResultTerm, render_result, render_system
from .parsing import ParseError, parse_system
from .polynomials import (
    Monomial,
    ODESystem,
    lie_derivative,
)
from .solver import (
    NoQuadratizationWithinCap,
    QuadratizationResult,
    SearchStats,
    benchmark_system,
    bnb_search,
    initial_incumbent,
    laurent_quadratize,
)
from .state import SearchState

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "NoQuadratizationWithinCap",
    "ODESystem",
    "ParseError",
    "QuadratizationResult",
    "ResultDocument",
    "ResultTerm",
    "SearchState",
    "SearchStats",
    "benchmark_system",
    "bnb_search",
    "brute_force_optimal",
    "document_violations",
    "exhaustive_c4_capacity",
    "initial_incumbent",
    "is_c4star_free",
    "is_quadratization",
    "laurent_quadratize",
    "lie_derivative",
    "parse_system",
    "quadratization_violations",
    "render_result",
    "render_system",
]

"""Depth-first branch-and-bound driver, Laurent lifting, and benchmark systems.

The search starts from the guaranteed quadratization given by all monomials
inside the per-variable degree box of the system (minus 1 and the variables
themselves), which supplies the initial incumbent order (an order cap, when
smaller, is the initial bound instead), and explores the subproblem tree
depth first with the two pruning rules.  The result is a monomial
quadratization of provably minimal order, plus search statistics.  The order
of the box is counted in closed form; the box itself is built only when it is
the optimum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .branching import generate_children
from .output import (
    ResultDocument,
    ResultTerm,
    choose_new_variable_names,
    format_monomial,
)
from .parsing import parse_system
from .polynomials import (
    Monomial,
    ODESystem,
    grlex_key,
    unit_monomial,
    variable_monomial,
)
from .pruning import prune_by_c4_bound, prune_by_quadratic_bound
from .state import SearchState


@dataclass(frozen=True)
class SolveOptions:
    enable_rule_quadratic: bool = True
    enable_rule_c4: bool = True
    max_order_cap: int | None = None


@dataclass
class SearchStats:
    nodes_visited: int = 0
    pruned_by_quadratic: int = 0
    pruned_by_c4: int = 0
    incumbent_updates: int = 0
    optimal_order: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class QuadratizationResult:
    new_vars: tuple[Monomial, ...]
    order: int
    optimal: bool
    document: ResultDocument


@dataclass(frozen=True)
class LaurentQuadratization:
    new_vars: tuple[Monomial, ...]  # Laurent exponent vectors
    document: ResultDocument


def per_variable_degrees(system: ODESystem) -> tuple[int, ...]:
    """D_i = the largest exponent of variable i across all right-hand sides."""
    maxes = [0] * system.num_vars
    for poly in system.rhs:
        for i, e in enumerate(poly.max_exponents(system.num_vars)):
            if e > maxes[i]:
                maxes[i] = e
    return tuple(maxes)


def degree_box_order(system: ODESystem) -> int:
    """Order of the degree-box quadratization, without building the box.

    The box holds prod(D_i + 1) monomials, of which 1 and every variable x_i
    with D_i >= 1 are not introduced.
    """
    degrees = per_variable_degrees(system)
    return prod(d + 1 for d in degrees) - 1 - sum(1 for d in degrees if d >= 1)


def initial_incumbent(system: ODESystem) -> tuple[tuple[Monomial, ...], int]:
    """Degree-box quadratization, the result when the search finds no smaller one.

    Every monomial with exponents bounded by the per-variable degrees, except
    1 and the variables themselves, is introduced.  Any monomial in any
    resulting derivative has exponents at most twice the box bound, so it
    splits into two box monomials; hence this is always a quadratization.
    """
    degrees = per_variable_degrees(system)
    n = system.num_vars
    skip = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)}
    box = [m for m in product(*(range(d + 1) for d in degrees))
           if m not in skip]
    box.sort(key=grlex_key)
    return tuple(box), len(box)


class NoQuadratizationWithinCap(ValueError):
    """Every monomial quadratization of the system needs more than the cap."""

    def __init__(self, cap: int):
        super().__init__(f"no monomial quadratization with at most {cap} new variables")
        self.lower_bound = cap + 1


def bnb_search(system: ODESystem,
               options: SolveOptions | None = None) -> tuple[QuadratizationResult, SearchStats]:
    """Find a minimal-order monomial quadratization by branch and bound.

    Deterministic: identical inputs and options give identical results and
    statistics.  max_order_cap, when set, is the search's initial bound: the
    result is still optimal, and NoQuadratizationWithinCap is raised when
    every quadratization needs more than cap new variables.
    """
    opts = options or SolveOptions()
    stats = SearchStats()
    cap = opts.max_order_cap
    box = degree_box_order(system)
    bound = box if cap is None else min(box, cap + 1)
    best = None
    root = SearchState.initial(system)
    # Depth-first over a stack of child iterators; map extends each child
    # only when it is visited.
    stack = [iter((root,))]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        stats.nodes_visited += 1
        depth = len(state.new_vars)
        if state.is_quadratization:
            if depth < bound:
                best, bound = state.new_vars, depth
                stats.incumbent_updates += 1
            continue
        if opts.enable_rule_quadratic and prune_by_quadratic_bound(state, bound):
            stats.pruned_by_quadratic += 1
            continue
        if opts.enable_rule_c4 and prune_by_c4_bound(state, bound):
            stats.pruned_by_c4 += 1
            continue
        if depth >= bound:
            # Baseline incumbent bound: a deeper node cannot beat the
            # incumbent since every child only adds variables.  With either
            # rule enabled this is unreachable (the rules subsume it), so it
            # does not perturb their node counts.
            continue
        stack.append(map(state.extended, generate_children(state)))

    if best is None:
        if cap is not None and cap < box:
            raise NoQuadratizationWithinCap(cap)
        best = initial_incumbent(system)[0]
    stats.optimal_order = len(best)
    document = root.extended(best).extract_quadratic_system(stats=stats.as_dict())
    result = QuadratizationResult(new_vars=best, order=len(best), optimal=True,
                                  document=document)
    return result, stats


def laurent_quadratize(system: ODESystem) -> LaurentQuadratization:
    """Linear-size quadratization with Laurent-monomial variables.

    For the j-th monomial m of the i-th right-hand side, introduce
    z = m / x_i.  Then x_i' is a sum of terms z * x_i, and the derivative of
    each z expands into terms proportional to products of two such z's, so
    every right-hand side has degree at most two over the extended variables.
    Duplicates are merged, and z's equal to 1 or to an original variable are
    not introduced (the products above then fall back to existing variables).
    """
    n = system.num_vars
    unit = unit_monomial(n)
    originals = {variable_monomial(n, i): name
                 for i, name in enumerate(system.variables)}

    ratio_of: dict[tuple[int, Monomial], Monomial] = {}
    introduced: list[Monomial] = []
    seen: set[Monomial] = set()
    for i, poly in enumerate(system.rhs):
        for mono, _params, _coeff in poly.sorted_terms():
            z = tuple(e - (1 if s == i else 0) for s, e in enumerate(mono))
            ratio_of[(i, mono)] = z
            if z == unit or z in originals or z in seen:
                continue
            seen.add(z)
            introduced.append(z)

    taken = set(system.variables) | set(system.parameters)
    new_names = choose_new_variable_names(taken, len(introduced))
    name_of: dict[Monomial, str] = {unit: "1"}
    name_of.update(originals)
    for name, z in zip(new_names, introduced):
        name_of[z] = name
    mono_of = {name: z for z, name in name_of.items()}

    def build_equation(terms) -> tuple[ResultTerm, ...]:
        merged: dict[tuple, Fraction] = {}
        for coeff, params, f1, f2 in terms:
            a, b = sorted((f1, f2), key=lambda name: grlex_key(mono_of[name]))
            key = (params, a, b)
            merged[key] = merged.get(key, Fraction(0)) + coeff
        out = []
        for (params, a, b), coeff in merged.items():
            if coeff:
                out.append(ResultTerm(coeff, params, a, b))
        product_key = lambda t: grlex_key(
            tuple(x + y for x, y in zip(mono_of[t.factor1], mono_of[t.factor2])))
        return tuple(sorted(
            out, key=lambda t: (product_key(t), t.params, t.factor1, t.factor2)))

    equations: dict[str, tuple[ResultTerm, ...]] = {}
    for i, poly in enumerate(system.rhs):
        terms = []
        for mono, params, coeff in poly.sorted_terms():
            z = ratio_of[(i, mono)]
            terms.append((coeff, params, name_of[z], system.variables[i]))
        equations[system.variables[i]] = build_equation(terms)

    for z in introduced:
        terms = []
        for s, degree in enumerate(z):
            if not degree:
                continue
            for mono, params, coeff in system.rhs[s].sorted_terms():
                partner = ratio_of[(s, mono)]
                terms.append((coeff * degree, params, name_of[partner], name_of[z]))
        equations[name_of[z]] = build_equation(terms)

    document = ResultDocument(
        variables=system.variables,
        parameters=system.parameters,
        new_variables=tuple(
            (name_of[z], z, format_monomial(z, system.variables)) for z in introduced
        ),
        quadratic_rhs=equations,
        optimal=False,
        stats=None,
    )
    return LaurentQuadratization(new_vars=tuple(introduced), document=document)


def benchmark_system(name: str, n: int | None = None) -> ODESystem:
    """Built-in benchmark families, generated as source text and parsed."""
    if name == "scalar_power":
        if n is None or n < 1:
            raise ValueError("scalar_power needs an exponent n >= 1")
        return parse_system(f"x' = x^{n}" if n > 1 else "x' = x")
    if name == "cubic_cycle":
        if n is None or n < 2:
            raise ValueError("cubic_cycle needs n > 1")
        lines = [f"x{i}' = x{i % n + 1}^3" for i in range(1, n + 1)]
        return parse_system("\n".join(lines))
    if name == "cubic_bicycle":
        if n is None or n < 2:
            raise ValueError("cubic_bicycle needs n > 1")
        lines = []
        for i in range(1, n + 1):
            left = (i - 2) % n + 1
            right = i % n + 1
            lines.append(f"x{i}' = x{left}^3 + x{right}^3")
        return parse_system("\n".join(lines))
    if name == "rf":
        if n is not None:
            raise ValueError("rf does not take a size")
        return parse_system(
            "x' = y*(z - 1 + x^2) + a*x\n"
            "y' = x*(3*z + 1 - x^2) + a*y\n"
            "z' = -2*z*(b + x*y)\n"
        )
    raise ValueError(f"unknown benchmark {name!r}")

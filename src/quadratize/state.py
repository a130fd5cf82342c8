"""Subproblem state for the search: generalized variables and nonsquares.

A state tracks the introduced monomial variables on top of a fixed system.
Its *generalized variables* are ``{1, x_1..x_n}`` plus the introduced
monomials; its *nonsquares* are the monomials occurring in the derivatives of
the generalized variables that are not a product of two generalized
variables.  An empty nonsquare set means the introduced variables form a
monomial quadratization.

One test, ``is_product``, decides whether a monomial m is such a product.
Two of ``1, x_1..x_n`` multiply to exactly the monomials with no negative
exponent and degree at most 2; any other product has an introduced
variable z as a factor, and then m / z is a generalized variable.  So m is
a product iff it has no negative exponent and degree at most 2, or m / z is
a generalized variable for some introduced z.  A nonsquare of a state can
only be covered in an extension through an added variable, so ``extended``
tests the old nonsquares against the additions alone.

States are immutable snapshots: their four fields never change.
``extended`` returns a new state and only updates the nonsquares its
additions can change, taking derivative supports from the memo on the
``ODESystem``, which is what makes deep DFS cheap.  What the pruning rules
derive from a state (the packing rule's factor sets among it) is theirs to
build and keep; see ``pruning.py``.

In the search every generalized variable has non-negative exponents.  The
Laurent lifting (``solver.laurent_quadratize``) builds a state whose
variables are Laurent monomials; the argument above assumes nothing about
signs, so the same state and extraction serve both.
"""

from __future__ import annotations

from .output import ResultDocument, ResultTerm, choose_new_variable_names, format_monomial
from .polynomials import (
    Monomial,
    ODESystem,
    degree,
    divisor_count,
    divisors,
    grlex_key,
    is_exponent_tuple,
    is_nonnegative,
    lie_derivative,
    lie_derivative_support,
    monomial_quotient,
    sorted_terms,
    unit_monomial,
    variable_monomial,
)


def is_product(m: Monomial, vars_set, introduced) -> bool:
    """Whether m is a product of two generalized variables, given all of them
    (`vars_set`) and the introduced ones among them that may be a factor."""
    return ((degree(m) <= 2 and is_nonnegative(m))
            or any(monomial_quotient(m, z) in vars_set for z in introduced))


class SearchState:
    __slots__ = ("system", "new_vars", "vars_set", "nonsquares")

    def __init__(self, system: ODESystem, new_vars, vars_set, nonsquares):
        self.system = system
        self.new_vars = new_vars          # tuple[Monomial], insertion order
        self.vars_set = vars_set          # frozenset[Monomial], incl. 1 and x_i
        self.nonsquares = nonsquares      # frozenset[Monomial]

    @classmethod
    def initial(cls, system: ODESystem) -> "SearchState":
        n = system.num_vars
        variables = [variable_monomial(n, i) for i in range(n)]
        vars_set = frozenset([unit_monomial(n)] + variables)
        derived = set()
        for x in variables:
            derived |= lie_derivative_support(x, system)
        return cls(system, (), vars_set,
                   frozenset(m for m in derived if not is_product(m, vars_set, ())))

    def extended(self, monomials) -> "SearchState":
        """New state with the given monomials introduced as variables.

        Derivatives of the additions are computed; monomials newly expressible
        as a product of two generalized variables leave the nonsquare set,
        while unexpressible monomials from the new derivatives enter it.
        Raises ValueError unless every monomial is a tuple of num_vars ints.
        """
        monomials = tuple(monomials)
        n = self.system.num_vars
        if not all(is_exponent_tuple(m, n) for m in monomials):
            raise ValueError(f"a monomial must be a tuple of {n} ints")
        added = tuple(sorted(set(monomials), key=grlex_key))
        if not added:
            return self
        if any(m in self.vars_set for m in added):
            raise ValueError("monomial is already a generalized variable")

        system = self.system
        vars_set = self.vars_set.union(added)
        new_vars = self.new_vars + added
        keep = [m for m in self.nonsquares if not is_product(m, vars_set, added)]
        fresh = set()
        for a in added:
            fresh |= lie_derivative_support(a, system)
        fresh -= self.nonsquares
        keep.extend(m for m in fresh if not is_product(m, vars_set, new_vars))
        return SearchState(system, new_vars, vars_set, frozenset(keep))

    @property
    def is_quadratization(self) -> bool:
        return not self.nonsquares

    def extract_quadratic_system(self, *, optimal: bool = True,
                                 stats: dict[str, int] | None = None) -> ResultDocument:
        """Rewrite every derivative over factor pairs of generalized variables.

        Raises ValueError unless the nonsquare set is empty, so every emitted
        system is checked to be quadratic.  Each term uses its least factor
        pair: the one whose first factor is least in graded-lex order, found
        by scanning candidates in that order, which stops at the first pair.
        The candidates are the generalized variables, or the term's divisors
        when it has fewer.  Both give the same pair when no variable has a
        negative exponent, since then each factor divides the term; a
        Laurent state scans its variables.
        """
        if self.nonsquares:
            raise ValueError("state is not a quadratization")
        system = self.system
        n = system.num_vars

        taken = set(system.variables) | set(system.parameters)
        new_names = choose_new_variable_names(taken, len(self.new_vars))
        name_of: dict[Monomial, str] = {unit_monomial(n): "1"}
        for i, var in enumerate(system.variables):
            name_of[variable_monomial(n, i)] = var
        for name, z in zip(new_names, self.new_vars):
            name_of[z] = name

        vars_set = self.vars_set
        by_grlex = sorted(vars_set, key=grlex_key)
        walk_divisors = all(map(is_nonnegative, self.new_vars))
        ordered = [variable_monomial(n, i) for i in range(n)] + list(self.new_vars)
        equations: dict[str, tuple[ResultTerm, ...]] = {}
        for v in ordered:
            terms = []
            for mono, params, coeff in sorted_terms(lie_derivative(v, system)):
                candidates = by_grlex
                if walk_divisors and divisor_count(mono) < len(by_grlex):
                    candidates = sorted((d for d in divisors(mono) if d in vars_set), key=grlex_key)
                f1 = next(f for f in candidates if monomial_quotient(mono, f) in vars_set)
                f2 = monomial_quotient(mono, f1)
                terms.append(ResultTerm(coeff, params, name_of[f1], name_of[f2]))
            equations[name_of[v]] = tuple(terms)

        new_variables = tuple(
            (name, z, format_monomial(z, system.variables))
            for name, z in zip(new_names, self.new_vars)
        )
        return ResultDocument(
            variables=system.variables,
            parameters=system.parameters,
            new_variables=new_variables,
            quadratic_rhs=equations,
            optimal=optimal,
            stats=stats,
        )

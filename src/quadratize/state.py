"""Subproblem state for the search: generalized variables and nonsquares.

A state tracks the introduced monomial variables on top of a fixed system.
Its *generalized variables* are ``{1, x_1..x_n}`` plus the introduced
monomials; its *nonsquares* are the monomials occurring in the derivatives of
the generalized variables that are not a product of two generalized
variables.  An empty nonsquare set means the introduced variables form a
monomial quadratization.

States are immutable snapshots: ``extended`` returns a new state and only
updates the nonsquares its additions can change, taking derivatives from the
memo on the ``ODESystem``, which is what makes deep DFS cheap.

In the search every generalized variable has non-negative exponents.  The
Laurent lifting (``solver.laurent_quadratize``) builds a state whose
variables are Laurent monomials; nothing here assumes exponents are
non-negative, so the same state and extraction serve both.
"""

from __future__ import annotations

from .output import ResultDocument, ResultTerm, choose_new_variable_names, format_monomial
from .polynomials import (
    Monomial,
    ODESystem,
    degree,
    grlex_key,
    lie_derivative,
    lie_derivative_support,
    monomial_quotient,
    sorted_terms,
    unit_monomial,
    variable_monomial,
)


class SearchState:
    __slots__ = ("system", "new_vars", "vars_set", "vars_sorted", "nonsquares")

    def __init__(self, system: ODESystem, new_vars, vars_set, vars_sorted, nonsquares):
        self.system = system
        self.new_vars = new_vars          # tuple[Monomial], insertion order
        self.vars_set = vars_set          # frozenset[Monomial], incl. 1 and x_i
        self.vars_sorted = vars_sorted    # tuple[Monomial], ascending graded-lex
        self.nonsquares = nonsquares      # frozenset[Monomial]

    @classmethod
    def initial(cls, system: ODESystem) -> "SearchState":
        n = system.num_vars
        base = [unit_monomial(n)] + [variable_monomial(n, i) for i in range(n)]
        state = cls(system, (), frozenset(base), tuple(sorted(base, key=grlex_key)),
                    frozenset())
        state.nonsquares = state.recomputed_nonsquares()
        return state

    def factor_pair(self, m: Monomial) -> tuple[Monomial, Monomial] | None:
        """Generalized variables (v, q) with m = v*q and v the least in graded-lex
        order, or None if m is not such a product."""
        deg_m = degree(m)
        vset = self.vars_set
        for v in self.vars_sorted:
            if 2 * degree(v) > deg_m:
                break
            q = monomial_quotient(m, v)
            if q in vset:
                return v, q
        return None

    def extended(self, monomials) -> "SearchState":
        """New state with the given monomials introduced as variables.

        Derivatives of the additions are computed; monomials newly expressible
        as a product of two generalized variables leave the nonsquare set,
        while unexpressible monomials from the new derivatives enter it.
        """
        added = tuple(sorted(set(monomials), key=grlex_key))
        if not added:
            return self
        if any(m in self.vars_set for m in added):
            raise ValueError("monomial is already a generalized variable")

        system = self.system
        vars_set = self.vars_set | set(added)
        vars_sorted = tuple(sorted(self.vars_sorted + added, key=grlex_key))
        new_state = SearchState(system, self.new_vars + added, vars_set, vars_sorted,
                                frozenset())

        keep = list(self.uncovered(added, vars_set))
        fresh = set()
        for a in added:
            fresh |= lie_derivative_support(a, system)
        fresh -= self.nonsquares
        keep.extend(m for m in fresh if new_state.factor_pair(m) is None)
        new_state.nonsquares = frozenset(keep)
        return new_state

    def uncovered(self, added, vars_set):
        """The nonsquares of this state that stay nonsquares once `added` is
        introduced, lazily; `vars_set` is the enlarged set of generalized
        variables.

        Every product new to the enlarged span involves an added variable,
        so a nonsquare m stays one exactly when no a in `added` has m / a in
        `vars_set`.
        """
        return (m for m in self.nonsquares
                if all(monomial_quotient(m, a) not in vars_set for a in added))

    @property
    def is_quadratization(self) -> bool:
        return not self.nonsquares

    def recomputed_nonsquares(self) -> frozenset[Monomial]:
        """Nonsquares from the definition: the root's, and a check on ``extended``."""
        n = self.system.num_vars
        candidates = set()
        for i in range(n):
            candidates |= lie_derivative_support(variable_monomial(n, i), self.system)
        for z in self.new_vars:
            candidates |= lie_derivative_support(z, self.system)
        return frozenset(m for m in candidates if self.factor_pair(m) is None)

    def extract_quadratic_system(self, *, optimal: bool = True,
                                 stats: dict[str, int] | None = None) -> ResultDocument:
        """Rewrite every derivative over factor pairs of generalized variables.

        Raises ValueError unless the nonsquare set is empty, so every emitted
        system is checked to be quadratic.  Factor pairs are chosen
        deterministically: first valid pair scanning the generalized
        variables in ascending graded-lex order.
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

        ordered = [variable_monomial(n, i) for i in range(n)] + list(self.new_vars)
        equations: dict[str, tuple[ResultTerm, ...]] = {}
        for v in ordered:
            terms = []
            for mono, params, coeff in sorted_terms(lie_derivative(v, system)):
                f1, f2 = self.factor_pair(mono)
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

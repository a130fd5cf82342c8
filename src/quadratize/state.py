"""Subproblem state for the search: generalized variables and nonsquares.

A state tracks the introduced monomial variables on top of a fixed system.
Its *generalized variables* are ``{1, x_1..x_n}`` plus the introduced
monomials; its *nonsquares* are the monomials occurring in the derivatives of
the generalized variables that are not a product of two generalized
variables.  An empty nonsquare set means the introduced variables form a
monomial quadratization.

States are immutable snapshots: ``extended`` returns a new state sharing the
derivative cache entries of its parent, which is what makes deep DFS cheap.
"""

from __future__ import annotations

from .output import ResultDocument, ResultTerm, choose_new_variable_names, format_monomial
from .polynomials import (
    Monomial,
    ODESystem,
    grlex_key,
    lie_derivative,
    lie_derivative_support,
    unit_monomial,
    variable_monomial,
)


class SearchState:
    __slots__ = ("system", "new_vars", "vars_set", "vars_sorted", "nonsquares")

    def __init__(self, system: ODESystem, new_vars, vars_set, vars_sorted, nonsquares):
        self.system = system
        self.new_vars = new_vars          # tuple[Monomial], insertion order
        self.vars_set = vars_set          # frozenset[Monomial], incl. 1 and x_i
        self.vars_sorted = vars_sorted    # tuple[(degree, Monomial)], ascending
        self.nonsquares = nonsquares      # frozenset[Monomial]

    @classmethod
    def initial(cls, system: ODESystem) -> "SearchState":
        n = system.num_vars
        base = [unit_monomial(n)] + [variable_monomial(n, i) for i in range(n)]
        vars_sorted = tuple(sorted((sum(m), m) for m in base))
        state = cls(system, (), frozenset(base), vars_sorted, frozenset())
        state.nonsquares = state.recomputed_nonsquares()
        return state

    def factor_pair(self, m: Monomial) -> tuple[Monomial, Monomial] | None:
        """Generalized variables (v, q) with m = v*q and v the least in graded-lex
        order, or None if m is not such a product."""
        deg_m = sum(m)
        vset = self.vars_set
        for deg_v, v in self.vars_sorted:
            if 2 * deg_v > deg_m:
                break
            q = tuple(a - b for a, b in zip(m, v))
            if min(q) >= 0 and q in vset:
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
        vars_sorted = tuple(sorted(self.vars_sorted
                                   + tuple((sum(m), m) for m in added)))
        new_state = SearchState(system, self.new_vars + added, vars_set, vars_sorted,
                                frozenset())

        # Every product new to the enlarged span involves an added variable,
        # so surviving old nonsquares only need checking against those.
        keep = []
        for m in self.nonsquares:
            for a in added:
                q = tuple(x - y for x, y in zip(m, a))
                if min(q) >= 0 and q in vars_set:
                    break
            else:
                keep.append(m)
        fresh = set()
        for a in added:
            fresh |= lie_derivative_support(a, system)
        fresh -= self.nonsquares
        keep.extend(m for m in fresh if new_state.factor_pair(m) is None)
        new_state.nonsquares = frozenset(keep)
        return new_state

    @property
    def is_quadratization(self) -> bool:
        return not self.nonsquares

    def generalized_vars(self) -> tuple[Monomial, ...]:
        """All generalized variables in ascending graded-lex order."""
        return tuple(m for _, m in self.vars_sorted)

    def recomputed_nonsquares(self) -> frozenset[Monomial]:
        """Nonsquares from the definition: the root's, and a check on ``extended``."""
        n = self.system.num_vars
        candidates = set()
        for i in range(n):
            candidates |= lie_derivative_support(variable_monomial(n, i), self.system)
        for z in self.new_vars:
            candidates |= lie_derivative_support(z, self.system)
        return frozenset(m for m in candidates if self.factor_pair(m) is None)

    def extract_quadratic_system(self, *,
                                 stats: dict[str, int] | None = None) -> ResultDocument:
        """Rewrite every derivative over factor pairs of generalized variables.

        Requires an empty nonsquare set.  Factor pairs are chosen
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
            for mono, params, coeff in lie_derivative(v, system).sorted_terms():
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
            stats=stats,
        )

"""Result document and the text / structured renderers.

The structured format is a JSON document with a fixed field order
(variables, parameters, new_variables, equations, optimal, stats) and fully
deterministic term ordering, so two runs on the same input are byte-identical
and CI can diff outputs directly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Monomial, ODESystem, ParamExponents


@dataclass(frozen=True)
class ResultTerm:
    """One degree-<=2 term: coeff * factor1 * factor2, factors named, "1" = unit."""

    coeff: Fraction
    params: ParamExponents
    factor1: str
    factor2: str


@dataclass
class ResultDocument:
    """A quadratic system over the original and the introduced variables."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    # (name, exponent vector over the original variables, display string)
    new_variables: tuple[tuple[str, Monomial, str], ...]
    # variable name -> terms of its right-hand side, canonical order
    quadratic_rhs: dict[str, tuple[ResultTerm, ...]]
    optimal: bool = True
    stats: dict[str, int] | None = None


def choose_new_variable_names(taken: set[str], count: int) -> list[str]:
    """Deterministic fresh names z1, z2, ... avoiding every name in taken.

    The prefixes tried in turn are z, w, u, q, then zz, zzz, ...; the first
    whose names are all free is used.
    """
    longer = ("z" * length for length in itertools.count(2))
    for prefix in itertools.chain(("z", "w", "u", "q"), longer):
        names = [f"{prefix}{i}" for i in range(1, count + 1)]
        if taken.isdisjoint(names):
            return names


def format_monomial(m: Monomial, names: tuple[str, ...]) -> str:
    """Display a (possibly Laurent) monomial, e.g. ``x1*x2^2`` or ``x1^-1*x2^4``."""
    parts = []
    for name, e in zip(names, m):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _scaled(coeff: str, factors: str) -> str:
    """The product coeff*factors, where factors "1" is the empty product."""
    if factors == "1":
        return coeff
    if coeff == "1":
        return factors
    if coeff == "-1":
        return "-" + factors
    return f"{coeff}*{factors}"


def _signed_sum(pieces: list[str]) -> str:
    """Join signed terms as ``a + b - c``; the empty sum is ``0``."""
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def format_coefficient(coeff: Fraction, params: ParamExponents,
                       param_names: tuple[str, ...]) -> str:
    """Display a rational-times-parameter coefficient, e.g. ``-3/2*a^2``."""
    return _scaled(str(coeff), format_monomial(params, param_names))


def _format_term(term: ResultTerm, param_names: tuple[str, ...]) -> str:
    factors = [f for f in (term.factor1, term.factor2) if f != "1"]
    if len(factors) == 2 and factors[0] == factors[1]:
        factors = [f"{factors[0]}^2"]
    return _scaled(format_coefficient(term.coeff, term.params, param_names),
                   "*".join(factors) or "1")


def render_result(doc: ResultDocument, format: str = "text") -> str:
    """Render a ResultDocument as human-readable text or machine-diffable JSON."""
    if format == "text":
        lines = []
        if doc.new_variables:
            lines.append("New variables (order %d):" % len(doc.new_variables))
            for name, _, display in doc.new_variables:
                lines.append(f"  {name} = {display}")
        else:
            lines.append("New variables: none (system is already quadratic)")
        if not doc.optimal:
            lines.append("Note: result is not certified optimal")
        lines.append("Quadratic system:")
        for var, terms in doc.quadratic_rhs.items():
            lines.append(f"  {var}' = "
                         + _signed_sum([_format_term(t, doc.parameters) for t in terms]))
        return "\n".join(lines) + "\n"
    if format == "structured":
        payload = {
            "variables": list(doc.variables),
            "parameters": list(doc.parameters),
            "new_variables": [
                {"name": name, "exponents": list(mono), "monomial": display}
                for name, mono, display in doc.new_variables
            ],
            "equations": {
                var: [
                    {
                        "coeff": format_coefficient(t.coeff, t.params, doc.parameters),
                        "factors": [f for f in (t.factor1, t.factor2) if f != "1"],
                    }
                    for t in terms
                ]
                for var, terms in doc.quadratic_rhs.items()
            },
            "optimal": doc.optimal,
            "stats": doc.stats,
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")


def render_system(system: ODESystem) -> str:
    """Echo a system in the input format (parseable back to an equal system)."""
    lines = []
    for name, poly in zip(system.variables, system.rhs):
        pieces = [_scaled(format_coefficient(coeff, params, system.parameters),
                          format_monomial(mono, system.variables))
                  for mono, params, coeff in poly.sorted_terms()]
        lines.append(f"{name}' = {_signed_sum(pieces)}")
    return "\n".join(lines) + "\n"

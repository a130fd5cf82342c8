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


def format_coefficient(coeff: Fraction, params: ParamExponents,
                       param_names: tuple[str, ...]) -> str:
    """Display a rational-times-parameter coefficient, e.g. ``-3/2*a^2``."""
    factors = []
    for name, e in zip(param_names, params):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    if coeff == -1:
        return "-" + "*".join(factors)
    return "*".join([str(coeff)] + factors)


def _format_term(term: ResultTerm, param_names: tuple[str, ...]) -> str:
    factors = [f for f in (term.factor1, term.factor2) if f != "1"]
    if len(factors) == 2 and factors[0] == factors[1]:
        factors = [f"{factors[0]}^2"]
    coeff = format_coefficient(term.coeff, term.params, param_names)
    if not factors:
        return coeff
    if coeff == "1":
        return "*".join(factors)
    if coeff == "-1":
        return "-" + "*".join(factors)
    return "*".join([coeff] + factors)


def _render_equation(terms: tuple[ResultTerm, ...], param_names: tuple[str, ...]) -> str:
    if not terms:
        return "0"
    rendered = [_format_term(t, param_names) for t in terms]
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


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
            lines.append(f"  {var}' = " + _render_equation(terms, doc.parameters))
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
        if poly.is_zero():
            lines.append(f"{name}' = 0")
            continue
        pieces = []
        for mono, params, coeff in poly.sorted_terms():
            coeff_str = format_coefficient(coeff, params, system.parameters)
            mono_str = format_monomial(mono, system.variables)
            if mono_str == "1":
                pieces.append(coeff_str)
            elif coeff_str == "1":
                pieces.append(mono_str)
            elif coeff_str == "-1":
                pieces.append("-" + mono_str)
            else:
                pieces.append(f"{coeff_str}*{mono_str}")
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        lines.append(f"{name}' = {out}")
    return "\n".join(lines) + "\n"

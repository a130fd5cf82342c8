"""Parser for the textual ODE-system format.

The format is line oriented.  Each equation looks like

    name' = expression

where the expression is built from integer or rational literals (``3``,
``1/2``), identifiers, ``+ - * ^`` and parentheses.  ``^`` binds tighter than
``*``, multiplication requires an explicit ``*``, a single leading minus is
allowed in any (sub)expression, and ``#`` starts a comment.  Identifiers that
never appear on a left-hand side are treated as symbolic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import ODESystem, Polynomial, unit_monomial, variable_monomial


class ParseError(ValueError):
    """Input rejected, with 1-based line/column of the offending token."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT INT PRIME EQ PLUS MINUS STAR CARET SLASH LPAREN RPAREN END
    text: str
    line: int
    column: int


_SINGLE = {
    "'": "PRIME",
    "=": "EQ",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
}


# Only ASCII digits: str.isdigit also accepts characters such as "²" that
# int() rejects.
_DIGITS = frozenset("0123456789")


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_" or text[j] == "."):
                raise ParseError(line_no, j + 1, f"unexpected character {text[j]!r} in number")
            tokens.append(_Token("INT", text[i:j], line_no, i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line_no, i + 1))
            i = j
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise ParseError(line_no, i + 1, f"stray character {ch!r}")
        tokens.append(_Token(kind, ch, line_no, i + 1))
        i += 1
    tokens.append(_Token("END", "", line_no, len(text) + 1))
    return tokens


class _ExpressionParser:
    """Recursive-descent parser producing a canonical Polynomial directly."""

    def __init__(self, tokens, var_index, param_index):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.param_index = param_index
        self.num_vars = len(var_index)
        self.num_params = len(param_index)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.column, f"expected {what}")
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.column, message)

    def parse_expression(self) -> Polynomial:
        sign = 1
        if self.peek().kind in ("PLUS", "MINUS"):
            if self.take().kind == "MINUS":
                sign = -1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take()
            term = self.parse_term()
            result = result + term if op.kind == "PLUS" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek().kind == "STAR":
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek().kind == "CARET":
            caret = self.take()
            tok = self.take()
            if tok.kind != "INT" or int(tok.text) < 1:
                self.fail(tok if tok.kind != "END" else caret,
                          "exponent must be a positive integer literal")
            power = base
            for _ in range(int(tok.text) - 1):
                power = power * base
            return power
        return base

    def parse_base(self) -> Polynomial:
        tok = self.take()
        if tok.kind == "INT":
            value = Fraction(int(tok.text))
            if self.peek().kind == "SLASH":
                self.take()
                den = self.take()
                if den.kind != "INT":
                    self.fail(den, "expected an integer denominator")
                if int(den.text) == 0:
                    self.fail(den, "zero denominator")
                value = Fraction(int(tok.text), int(den.text))
            return Polynomial.from_term(value, unit_monomial(self.num_vars),
                                        (0,) * self.num_params)
        if tok.kind == "IDENT":
            idx = self.var_index.get(tok.text)
            if idx is not None:
                return Polynomial.from_term(1, variable_monomial(self.num_vars, idx),
                                            (0,) * self.num_params)
            pidx = self.param_index[tok.text]
            params = [0] * self.num_params
            params[pidx] = 1
            return Polynomial.from_term(1, unit_monomial(self.num_vars), tuple(params))
        if tok.kind == "LPAREN":
            inner = self.parse_expression()
            self.expect("RPAREN", "')'")
            return inner
        self.fail(tok, "expected a number, identifier or '('")


def parse_system(text: str) -> ODESystem:
    """Parse the equation format into a canonical ODESystem.

    Raises ParseError (with line and column) on any input outside the grammar,
    on duplicate left-hand sides, and on non-positive-integer exponents.
    """
    token_lines: list[list[_Token]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0].kind != "END":
            token_lines.append(tokens)
    if not token_lines:
        raise ParseError(1, 1, "no equations found")

    # First pass: left-hand sides fix the state variables (in order of
    # appearance); every other identifier is a parameter.
    variables: list[str] = []
    for tokens in token_lines:
        head = tokens[0]
        if head.kind != "IDENT":
            raise ParseError(head.line, head.column, "expected a variable name")
        if tokens[1].kind != "PRIME":
            raise ParseError(tokens[1].line, tokens[1].column,
                             "expected \"'\" after the variable name")
        if tokens[2].kind != "EQ":
            raise ParseError(tokens[2].line, tokens[2].column, "expected '='")
        if head.text in variables:
            raise ParseError(head.line, head.column,
                             f"duplicate left-hand side {head.text!r}")
        variables.append(head.text)

    var_set = set(variables)
    parameters = sorted(
        {tok.text for tokens in token_lines for tok in tokens
         if tok.kind == "IDENT" and tok.text not in var_set}
    )
    var_index = {name: i for i, name in enumerate(variables)}
    param_index = {name: i for i, name in enumerate(parameters)}

    rhs = []
    for tokens in token_lines:
        parser = _ExpressionParser(tokens[3:], var_index, param_index)
        poly = parser.parse_expression()
        trailing = parser.peek()
        if trailing.kind != "END":
            raise ParseError(trailing.line, trailing.column,
                             f"unexpected {trailing.text!r} after the expression")
        rhs.append(poly)

    return ODESystem(tuple(variables), tuple(parameters), tuple(rhs))

"""Parser for the textual ODE-system format.

The format is line oriented.  Each equation looks like

    name' = expression

where the expression is built from integer or rational literals (``3``,
``1/2``), identifiers, ``+ - * ^`` and parentheses.  ``^`` binds tighter than
``*``, multiplication requires an explicit ``*``, a single leading minus is
allowed in any (sub)expression, and ``#`` starts a comment.  Identifiers that
never appear on a left-hand side are symbolic parameters; one whose terms all
cancel (``x' = a - a``) is dropped, so a rendered system parses back equal.

Each term is built in one pass: one coefficient and one exponent list each
for the variables and the parameters.  A power of a number, an identifier or
a one-term parenthesized expression only scales that accumulator, so
``x^1000000`` costs no more than ``x^3``.  Products and powers of
parenthesized expressions with several terms are multiplied out, one
polynomial product per unit of the exponent; one equation may spend at most
``MAX_EXPANSION`` term products on them, and an input needing more is
rejected with a ``ParseError`` at the ``(`` whose expansion crosses the bound.
Terms are summed with ``polynomials.add_term``, which deletes a term that
cancels.  A coefficient's numerator and denominator stay below
``MAX_COEFFICIENT_DIGITS`` decimal digits, the bound ``polynomials`` defines
and ``ODESystem`` applies again; the parser checks it early, so that an error
has a location and a power that would cross the bound is rejected before it
is computed, at the number or ``(`` it raises.  A term that crosses
``polynomials.too_many_divisors`` is rejected the same way, at the identifier
or ``(`` where it does: ``x^100*y^100*z^100`` at the ``z``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polynomials import (
    MAX_COEFFICIENT_DIGITS,
    MAX_EXPONENT,
    ODESystem,
    add_term,
    coefficient_too_long,
    divisor_count,
    is_identifier,
    polynomial_mul,
    too_many_divisors,
)


class ParseError(ValueError):
    """Input rejected, with 1-based line/column of the offending token."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def _fail(tok, message: str):
    raise ParseError(tok[2], tok[3], message)


# One token after optional whitespace: a number (only ASCII digits, since
# int() rejects characters such as "²" that str.isdigit accepts), a word, a
# symbol, the end of the line or a comment, or any other character.  For str
# patterns \s and \w match exactly str.isspace and str.isalnum or "_".
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\w+)|([-'=+*^/()])|(#|\Z)|(.))", re.S)

# Each nesting level costs a few Python frames in the recursive descent.
MAX_NESTING = 100

# Term products one equation may spend multiplying out products and powers of
# parenthesized sums, a few microseconds each: (x+y+1)^20 needs 4,617 and
# (x+1)^k needs k*(k+1) - 2.
MAX_EXPANSION = 20_000

# 2**_LIMIT_BITS > 10**MAX_COEFFICIENT_DIGITS: a power at least that large
# is too big.
_LIMIT_BITS = (10 ** MAX_COEFFICIENT_DIGITS).bit_length()


def _fail_coefficient(tok):
    _fail(tok, f"coefficient has more than {MAX_COEFFICIENT_DIGITS} digits")


def _fail_divisors(tok):
    _fail(tok, f"term has more than {MAX_EXPONENT + 1} divisors")


def _tokenize_line(text: str, line_no: int) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) tuples, the last of kind END.

    Kinds: IDENT, INT, END, or the symbol itself (one of ' = + - * ^ / ( )).
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        start, end = match.span(group)
        word = match.group(group)
        if group == 1:
            if end < len(text) and (text[end].isalpha() or text[end] in "_."):
                raise ParseError(line_no, end + 1,
                                 f"unexpected character {text[end]!r} in number")
            tokens.append(("INT", word, line_no, start + 1))
        elif group == 2:
            # \w also matches digits such as "²" that cannot start a name.
            if not is_identifier(word):
                raise ParseError(line_no, start + 1, f"stray character {word[0]!r}")
            tokens.append(("IDENT", word, line_no, start + 1))
        elif group == 3:
            tokens.append((word, word, line_no, start + 1))
        elif group == 4:
            break
        else:
            raise ParseError(line_no, start + 1, f"stray character {word!r}")
    tokens.append(("END", "", line_no, len(text) + 1))
    return tokens


class _ExpressionParser:
    """Recursive-descent parser producing each polynomial as a dict directly."""

    def __init__(self, tokens, var_index, param_index):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.expansion = 0
        self.var_index = var_index
        self.param_index = param_index

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            _fail(tok, "integer literal too long")

    def multiply(self, left: dict, right: dict, paren) -> dict:
        """left * right, counted against MAX_EXPANSION before it is formed."""
        self.expansion += len(left) * len(right)
        if self.expansion > MAX_EXPANSION:
            _fail(paren, f"expanding parenthesized sums needs more than "
                         f"{MAX_EXPANSION} term products")
        return self.bounded(polynomial_mul(left, right), paren)

    def power(self, acc: int, base: int, k: int, tok) -> int:
        """acc * base**k, failing at tok when it has too many digits."""
        # |base|**k >= 2**(k * (bits - 1)): a power past the bound is not computed.
        if k * (base.bit_length() - 1) < _LIMIT_BITS:
            result = acc * base ** k
            if not coefficient_too_long(result):
                return result
        _fail_coefficient(tok)

    def bounded(self, poly: dict, tok) -> dict:
        """poly, after failing at tok if one of its coefficients has too many
        digits or one of its terms too many divisors."""
        for (mono, params), coeff in poly.items():
            if coefficient_too_long(coeff):
                _fail_coefficient(tok)
            if too_many_divisors(mono) or too_many_divisors(params):
                _fail_divisors(tok)
        return poly

    def exponent(self) -> int:
        """The power after a factor: 1, or the literal after '^'."""
        if self.tokens[self.pos][0] != "^":
            return 1
        caret = self.take()
        tok = self.take()
        exponent = self.integer(tok) if tok[0] == "INT" else 0
        if exponent < 1:
            _fail(tok if tok[0] != "END" else caret,
                      "exponent must be a positive integer literal")
        return exponent

    def parse_expression(self) -> dict:
        """Signed terms, summed in place by add_term: a term that cancels is
        deleted, and one that reappears after that goes to the end."""
        tokens = self.tokens
        kind = tokens[self.pos][0]
        negate = kind == "-"
        if negate or kind == "+":
            self.pos += 1
        terms = {}
        while True:
            start = tokens[self.pos]
            for key, coeff in self.parse_term().items():
                if coefficient_too_long(add_term(terms, key, -coeff if negate else coeff)):
                    _fail_coefficient(start)
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                break
            negate = kind == "-"
            self.pos += 1
        return terms

    def parse_term(self) -> dict:
        """One product of factors as {(monomial, params): coefficient}.

        Numbers, identifiers and one-term parenthesized factors, with their
        powers, go into one accumulator; parenthesized factors with several
        terms are multiplied as polynomials, and the accumulated term last.
        """
        tokens = self.tokens
        first = tokens[self.pos]
        mono = [0] * len(self.var_index)
        params = [0] * len(self.param_index)
        # divisor_count of mono and of params, kept as each factor changes
        # one exponent, so that a factor costs O(1) and not O(variables).
        counts = [1, 1]
        num = den = 1
        product = None
        while True:
            tok = self.take()
            kind = tok[0]
            if kind == "INT":
                n, d = self.integer(tok), 1
                if tokens[self.pos][0] == "/":
                    self.pos += 1
                    den_tok = self.take()
                    if den_tok[0] != "INT":
                        _fail(den_tok, "expected an integer denominator")
                    d = self.integer(den_tok)
                    if d == 0:
                        _fail(den_tok, "zero denominator")
                k = self.exponent()
                num = self.power(num, n, k, tok)
                den = self.power(den, d, k, tok)
            elif kind == "IDENT":
                k = self.exponent()
                idx = self.var_index.get(tok[1])
                if idx is not None:
                    exponents, part = mono, 0
                else:
                    exponents, part, idx = params, 1, self.param_index[tok[1]]
                # too_many_divisors(exponents), from the count before the factor.
                counts[part] = counts[part] // (exponents[idx] + 1) * (exponents[idx] + k + 1)
                exponents[idx] += k
                if counts[part] > MAX_EXPONENT + 1:
                    _fail_divisors(tok)
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    _fail(tok, f"parentheses nested deeper than {MAX_NESTING}")
                self.depth += 1
                inner = self.parse_expression()
                close = self.take()
                if close[0] != ")":
                    _fail(close, "expected ')'")
                self.depth -= 1
                k = self.exponent()
                if len(inner) > 1:
                    power = inner
                    for _ in range(k - 1):
                        power = self.multiply(power, inner, tok)
                    product = power if product is None else self.multiply(product, power, tok)
                elif inner:
                    ((m, p), c), = inner.items()
                    mono = [a + e * k for a, e in zip(mono, m)]
                    params = [a + e * k for a, e in zip(params, p)]
                    if too_many_divisors(mono) or too_many_divisors(params):
                        _fail_divisors(tok)
                    counts = [divisor_count(mono), divisor_count(params)]
                    num = self.power(num, c.numerator, k, tok)
                    den = self.power(den, c.denominator, k, tok)
                else:
                    num = 0
            else:
                _fail(tok, "expected a number, identifier or '('")
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if not num:
            return {}
        term = {(tuple(mono), tuple(params)): Fraction(num, den)}
        if product is None:
            return term
        # A one-term left factor keeps the product's term order.
        return self.bounded(polynomial_mul(term, product), first)


def parse_system(text: str) -> ODESystem:
    """Parse the equation format into a canonical ODESystem.

    Raises ParseError (with line and column) on any input outside the grammar,
    on duplicate left-hand sides, and on non-positive-integer exponents.
    """
    token_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0][0] != "END":
            token_lines.append(tokens)
    if not token_lines:
        raise ParseError(1, 1, "no equations found")

    # First pass: left-hand sides fix the state variables (in order of
    # appearance); every other identifier is a parameter candidate.
    variables: list[str] = []
    for tokens in token_lines:
        head = tokens[0]
        if head[0] != "IDENT":
            _fail(head, "expected a variable name")
        if tokens[1][0] != "'":
            _fail(tokens[1], "expected \"'\" after the variable name")
        if tokens[2][0] != "=":
            _fail(tokens[2], "expected '='")
        if head[1] in variables:
            _fail(head, f"duplicate left-hand side {head[1]!r}")
        variables.append(head[1])

    var_index = {name: i for i, name in enumerate(variables)}
    parameters = sorted(
        {tok[1] for tokens in token_lines for tok in tokens
         if tok[0] == "IDENT" and tok[1] not in var_index}
    )
    param_index = {name: i for i, name in enumerate(parameters)}

    rhs = []
    for tokens in token_lines:
        parser = _ExpressionParser(tokens[3:], var_index, param_index)
        poly = parser.parse_expression()
        trailing = parser.tokens[parser.pos]
        if trailing[0] != "END":
            _fail(trailing, f"unexpected {trailing[1]!r} after the expression")
        rhs.append(poly)

    # Keep only the parameters of surviving terms.
    used = sorted({i for poly in rhs for _, p in poly for i, e in enumerate(p) if e})
    if len(used) < len(parameters):
        parameters = [parameters[i] for i in used]
        rhs = [{(m, tuple(p[i] for i in used)): c for (m, p), c in poly.items()}
               for poly in rhs]

    return ODESystem(tuple(variables), tuple(parameters), tuple(rhs))

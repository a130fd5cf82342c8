"""Exact sparse arithmetic for monomials and polynomials over ODE state variables.

Representation conventions:

  Monomial   = tuple of integer exponents, one per state variable, in the
               system's variable order.  The all-zeros tuple is the monomial 1.
               Negative exponents are permitted only in Laurent contexts
               (they never occur inside an ODESystem right-hand side).

  Polynomial = plain dict mapping (monomial, parameter exponents) to a
               nonzero int or Fraction coefficient.  Parameters (symbolic
               constants such as reaction rates) carry their own exponent
               tuple so that e.g. a*x and x stay separate terms of the same
               state monomial x; sums of such terms are not representable as
               a single rational-times-parameter coefficient.  No term has a
               zero coefficient, so equality of dicts is equality of
               polynomials: ODESystem rejects a zero coefficient, and
               add_term, through which the parser, polynomial_mul and
               lie_derivative sum their terms, deletes a term as soon as it
               cancels.

This module alone decides what a term may be: is_exponent_tuple checks an
exponent tuple, MAX_COEFFICIENT_DIGITS bounds a coefficient's numerator
and denominator (coefficient_too_long), and too_many_divisors bounds a
term's variable part and its parameter part to MAX_EXPONENT + 1 divisors
each.  ODESystem applies all three to every term; the parser and
SearchState.extended call them too.  It also decides what a name may be:
is_identifier, which ODESystem applies to every variable and parameter name
and the parser's tokenizer to every word.

Nothing mutates a polynomial once it is built, so values are safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, repeat
from operator import add, countOf, itemgetter, le, mod, sub

Monomial = tuple[int, ...]
ParamExponents = tuple[int, ...]
TermKey = tuple[Monomial, ParamExponents]

# Digits of a coefficient's numerator or denominator.  Python's int()
# reads at most 4,300 digits by default, and the cost of the parser's
# arithmetic grows with the digits; output renders coefficients of any
# length (output.format_coefficient), so derivatives may exceed the bound.
MAX_COEFFICIENT_DIGITS = 4_000
_COEFFICIENT_LIMIT = 10 ** MAX_COEFFICIENT_DIGITS

# Branching enumerates the divisors of a nonsquare, which are its possible
# factors: x' = x^1000000 takes about 3 s and 0.3 GB from the command line
# on 2 vCPUs (Python 3.11, the least of four runs), while a term
# x^100*y^100*z^100, with 1,030,301 divisors, did not finish in 120 s.
MAX_EXPONENT = 1_000_000


def coefficient_too_long(coeff) -> bool:
    """Whether an int or Fraction has more than MAX_COEFFICIENT_DIGITS digits
    in its numerator or denominator."""
    return abs(coeff.numerator) >= _COEFFICIENT_LIMIT or coeff.denominator >= _COEFFICIENT_LIMIT


def too_many_divisors(exponents) -> bool:
    """Whether non-negative exponents have more than MAX_EXPONENT + 1 monomial
    divisors, the number x^MAX_EXPONENT has: then the term is too large."""
    # Zero exponents add a factor 1; skipping them keeps long sparse tuples cheap.
    return divisor_count(filter(None, exponents)) > MAX_EXPONENT + 1


def is_exponent_tuple(exponents, length: int) -> bool:
    """Whether exponents is a tuple of `length` ints; a bool is not one."""
    return (type(exponents) is tuple and len(exponents) == length
            and countOf(map(type, exponents), int) == length)


def is_identifier(name) -> bool:
    """Whether name reads as one identifier of the text format: a letter or
    "_", then letters, digits or "_" (str.isalpha, then str.isalnum or "_")."""
    return (type(name) is str and name != "" and (name[0].isalpha() or name[0] == "_")
            and all(c.isalnum() or c == "_" for c in name))


def unit_monomial(num_vars: int) -> Monomial:
    """The monomial 1 (all exponents zero)."""
    return (0,) * num_vars


def variable_monomial(num_vars: int, index: int) -> Monomial:
    """The monomial consisting of the single variable at `index`."""
    exps = [0] * num_vars
    exps[index] = 1
    return tuple(exps)


# The monomial kernel: every exponent-wise operation of the search goes
# through these functions (products, quotients, divisibility, gcds,
# degrees, divisors, partners and images), and no other module reads the
# exponents of the monomials the search works on (its new variables,
# nonsquares, children and orbit keys).  Outside it only the input edge
# reads exponents: the parser builds them, ODESystem and
# SearchState.extended check them, solver.automorphisms and
# solver.per_variable_degrees read the input's terms, and
# output.format_monomial prints them; bruteforce.py stays independent of
# the kernel on purpose.  Monomials compare as tuples, and
# `<` and sorted on them elsewhere rely on that order.

def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_quotient(m: Monomial, v: Monomial) -> Monomial:
    """The exponent vector of m / v.  Not checked: it is Laurent when v does not
    divide m, which the Laurent lifting relies on."""
    return tuple(map(sub, m, v))


def divides(v: Monomial, m: Monomial) -> bool:
    """Whether v divides m, i.e. m / v has no negative exponent."""
    return all(map(le, v, m))


def is_nonnegative(m: Monomial) -> bool:
    """Whether m has no negative exponent; an empty tuple has none."""
    return min(m, default=0) >= 0


def degree(m: Monomial) -> int:
    return sum(m)


def monomial_gcd(monomials) -> Monomial:
    """The greatest common divisor of one or more monomials: each exponent
    is the least of theirs."""
    return tuple(map(min, zip(*monomials)))


def is_square(m: Monomial) -> bool:
    """Whether m is the square of a monomial: every exponent is even."""
    return not any(map(mod, m, repeat(2)))


def grlex_key(m: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded lexicographic order: degree first, then exponents."""
    return (degree(m), m)


def divisor_count(m: Monomial) -> int:
    """Number of monomial divisors of m, i.e. the product of (exponent + 1)."""
    count = 1
    for d in m:
        count *= d + 1
    return count


def divisors(m: Monomial):
    """All monomial divisors of m, in ascending tuple order."""
    return product(*(range(e + 1) for e in m))


def partners(m: Monomial, vars_set, introduced, banned) -> set[Monomial]:
    """P(m): the z outside vars_set and not banned with m = z * w for some
    w in vars_set or w = z, as a new set; vars_set is 1, the x_i and the
    `introduced` monomials.

    They are the quotients of m by the members of vars_set that divide it:
    m itself, m / x_i for each x_i in m, and m / v for each introduced v
    that divides m; and the square root of m when m is a square.
    """
    found = {monomial_quotient(m, v) for v in introduced if divides(v, m)}
    found.add(m)
    found.update(m[:i] + (e - 1,) + m[i + 1:] for i, e in enumerate(m) if e)
    if is_square(m):
        found.add(tuple(e // 2 for e in m))
    found.difference_update(vars_set, banned)
    return found


def image(monomials, sigma):
    """The monomials renamed by the inverse of sigma, as an iterator.

    Exponent i of an image is exponent sigma[i] of its monomial: variable
    sigma[i] becomes variable i.  A group holds the inverse of each
    element, so over a whole group these are the images under the group.
    Monomials have two or more variables (one-variable groups are trivial,
    and the search takes no image under a trivial group).
    """
    return map(itemgetter(*sigma), monomials)


def orbit_key(monomials, group) -> int:
    """The least image of a set of monomials under the group, as one int.

    Equal exactly when the two sets are images of each other under some
    element of the group.  Each image is a sorted list of exponent tuples.
    The least one is packed behind a leading 1 bit, `width` bits per
    exponent, where `width` is the bit length of the largest exponent (the
    same in every image), so the bit length gives the number of monomials.
    Below that come a 0 bit and `width` 1 bits, which give `width` back.  So
    the key is injective for any exponent size.
    """
    width = max(1, max((max(m) for m in monomials), default=0).bit_length())
    least = min(sorted(image(monomials, sigma)) for sigma in group)
    packed = 1
    for e in chain.from_iterable(least):
        packed = packed << width | e
    return (packed << (width + 1)) | ((1 << width) - 1)


def add_term(poly: dict[TermKey, Fraction], key: TermKey, coeff) -> Fraction:
    """Add coeff to the term key of poly and return its new coefficient.

    A term whose sum is 0 is deleted; one added again after that goes to
    the end of the dict.
    """
    acc = poly.get(key)
    if acc is not None:
        coeff = acc + coeff
        if not coeff:
            del poly[key]
            return coeff
    poly[key] = coeff
    return coeff


def polynomial_mul(left: dict[TermKey, Fraction],
                   right: dict[TermKey, Fraction]) -> dict[TermKey, Fraction]:
    """left * right, its keys in the order the term pairs first produce them."""
    out = {}
    for (m1, p1), c1 in left.items():
        for (m2, p2), c2 in right.items():
            add_term(out, (monomial_mul(m1, m2), monomial_mul(p1, p2)), c1 * c2)
    return out


def sorted_terms(poly: dict[TermKey, Fraction]) -> list[tuple[Monomial, ParamExponents, Fraction]]:
    """Terms in canonical order: graded-lex on the state monomial, then params."""
    keys = sorted(poly, key=lambda k: (grlex_key(k[0]), k[1]))
    return [(mono, params, poly[(mono, params)]) for mono, params in keys]


class ODESystem:
    """A polynomial ODE system x_i' = f_i(x) with optional symbolic parameters.

    Parameters are symbols that occur in right-hand sides but have no equation;
    they live in coefficients and contribute no exponent to state monomials.
    """

    __slots__ = ("variables", "parameters", "rhs", "_lie_cache")

    def __init__(self, variables: tuple[str, ...], parameters: tuple[str, ...],
                 rhs: tuple[dict[TermKey, Fraction], ...]):
        if not variables:
            raise ValueError("system must have at least one variable")
        names = list(variables) + list(parameters)
        if not all(map(is_identifier, names)):
            raise ValueError("variable and parameter names must be identifiers: a letter or _, "
                             "then letters, digits or _")
        if len(set(names)) != len(names):
            raise ValueError("variable and parameter names must be distinct")
        if len(rhs) != len(variables):
            raise ValueError("need exactly one right-hand side per variable")
        n, np_ = len(variables), len(parameters)
        for poly in rhs:
            for (mono, params), coeff in poly.items():
                if not (is_exponent_tuple(mono, n) and is_exponent_tuple(params, np_)):
                    raise ValueError(f"a term's exponents must be tuples of {n} and {np_} ints")
                if not (is_nonnegative(mono) and is_nonnegative(params)):
                    raise ValueError("negative exponents are not allowed in a system")
                if too_many_divisors(mono) or too_many_divisors(params):
                    raise ValueError(f"a term has more than {MAX_EXPONENT + 1} divisors")
                # Exact types: a bool is an int, but it renders as True.
                if type(coeff) not in (int, Fraction) or not coeff:
                    raise ValueError("coefficients must be nonzero ints or Fractions")
                if coefficient_too_long(coeff):
                    raise ValueError(f"a coefficient has more than {MAX_COEFFICIENT_DIGITS} digits")
        self.variables = variables
        self.parameters = parameters
        self.rhs = rhs
        # Memo of the supports of Lie derivatives of monomials along this
        # system (lie_derivative_support).  bnb_search empties it when it
        # ends, so it holds no more than one search's supports.
        # lie_derivative_support reads an entry once and returns what it
        # read, so sharing between threads, emptying included, is harmless.
        self._lie_cache = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ODESystem):
            return NotImplemented
        return (self.variables, self.parameters, self.rhs) == (
            other.variables, other.parameters, other.rhs)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"ODESystem(variables={self.variables!r}, "
                f"parameters={self.parameters!r}, rhs={self.rhs!r})")

    @property
    def num_vars(self) -> int:
        return len(self.variables)


def lie_derivative(z: Monomial, system: ODESystem) -> dict[TermKey, Fraction]:
    """Time derivative of the monomial z along the system: sum_s f_s * dz/dx_s.

    Valid for Laurent monomials (negative exponents) as well; the result is
    fully expanded, with cancellation removing zero terms.  Not memoized:
    the search needs only supports, and takes whole derivatives only to
    write out its answer.
    """
    result = {}
    for s, e in enumerate(z):
        if e:
            shifted = z[:s] + (e - 1,) + z[s + 1:]
            for (mono, params), coeff in system.rhs[s].items():
                add_term(result, (monomial_mul(mono, shifted), params), coeff * e)
    return result


def lie_derivative_support(z: Monomial, system: ODESystem) -> frozenset[Monomial]:
    """The monomials of lie_derivative(z, system), memoized on the system."""
    support = system._lie_cache.get(z)
    if support is None:
        support = system._lie_cache[z] = frozenset(mono for mono, _ in lie_derivative(z, system))
    return support

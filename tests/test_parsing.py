import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadratize.output import render_system
from quadratize.parsing import (
    MAX_COEFFICIENT_DIGITS,
    MAX_EXPANSION,
    MAX_NESTING,
    ParseError,
    parse_system,
)
from quadratize.polynomials import MAX_EXPONENT, ODESystem, is_identifier

from conftest import WORKED_EXAMPLES, build_random_corpus


def poly_of(text: str) -> dict:
    return parse_system(f"x' = {text}").rhs[0]


class TestGrammar:
    def test_scalar_power(self):
        sys = parse_system("x' = x^5")
        assert sys.variables == ("x",)
        assert sys.parameters == ()
        assert sys.rhs[0] == {((5,), ()): Fraction(1)}

    def test_two_variable_system(self):
        sys = parse_system("x1' = x2^4\nx2' = x1^2")
        assert sys.variables == ("x1", "x2")
        assert sys.rhs[0] == {((0, 4), ()): Fraction(1)}
        assert sys.rhs[1] == {((2, 0), ()): Fraction(1)}

    def test_zero_right_hand_side(self):
        sys = parse_system("x' = 0")
        assert sys.rhs[0] == {}

    def test_parameters_are_non_lhs_identifiers(self):
        sys = parse_system("x' = a*x + b")
        assert sys.parameters == ("a", "b")
        assert sys.rhs[0] == {
            ((1,), (1, 0)): Fraction(1),
            ((0,), (0, 1)): Fraction(1),
        }

    def test_parentheses_distribute(self):
        assert poly_of("x*(x + 1)") == poly_of("x^2 + x")
        assert poly_of("(x + 1)^2") == poly_of("x^2 + 2*x + 1")
        assert poly_of("-(x - 1)") == poly_of("1 - x")

    def test_caret_binds_tighter_than_star(self):
        assert poly_of("2*x^3") == {((3,), ()): Fraction(2)}

    def test_unary_minus(self):
        assert poly_of("-x") == {((1,), ()): Fraction(-1)}
        assert poly_of("-2*x + x") == {((1,), ()): Fraction(-1)}

    def test_rational_literals(self):
        assert poly_of("1/2*x") == {((1,), ()): Fraction(1, 2)}
        assert poly_of("3/6") == {((0,), ()): Fraction(1, 2)}

    def test_term_merging(self):
        assert poly_of("x^3 + x^3") == {((3,), ()): Fraction(2)}
        assert poly_of("x - x") == {}

    def test_comments_and_blank_lines(self):
        sys = parse_system("# heading\n\nx' = x^2  # trailing\n")
        assert sys.rhs[0] == {((2,), ()): Fraction(1)}

    def test_huge_atom_power_is_direct(self):
        start = time.perf_counter()
        sys = parse_system(f"x' = x^{MAX_EXPONENT}")
        assert time.perf_counter() - start < 1
        assert sys.rhs[0] == {((MAX_EXPONENT,), ()): Fraction(1)}

    def test_cancelled_parameters_are_dropped(self):
        sys = parse_system("x' = a - a + b*x\ny' = c*y - y*c")
        assert sys.parameters == ("b",)
        assert sys.rhs[0] == {((1, 0), (1,)): Fraction(1)}
        assert sys.rhs[1] == {}
        assert parse_system("x' = a - a").parameters == ()


# An exponent of 201 digits, far above the bound.
_HUGE_EXPONENT = 10 ** 200

# Two of these add up to 10 ** MAX_COEFFICIENT_DIGITS, one digit too many.
_HALF_LIMIT_TERM = f"5*10^{MAX_COEFFICIENT_DIGITS - 1}*x^2"


class TestErrors:
    @pytest.mark.parametrize("text,line,column", [
        ("x' = x $ y", 1, 8),          # stray character
        ("x' = x^0", 1, 8),            # exponent must be positive
        ("x' = x^-1", 1, 8),           # negative exponent
        ("x' = 1.5*x", 1, 7),          # no floating point
        ("x = x^2", 1, 3),             # missing prime
        ("x' x^2", 1, 4),              # missing equals
        ("x' =", 1, 5),                # empty expression
        ("x' = x +", 1, 9),            # dangling operator
        ("x' = (x", 1, 8),             # unbalanced parenthesis
        ("x' = x/2", 1, 7),            # division only inside rational literals
        ("x' = 1/0", 1, 8),            # zero denominator
        ("x' = 2 x", 1, 8),            # implicit multiplication
        ("x' = x^\u00b2", 1, 8),        # only ASCII digits are numbers
        ("x' = 1/\u00b2", 1, 8),
        ("x' = 2\u00e9", 1, 7),        # a letter glued to a number
        ("x' = \u00b2*x", 1, 6),        # a digit that is no letter starts no name
        ("x' = x^2\nx' = x", 2, 1),    # duplicate left-hand side
    ])
    def test_located_errors(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_unicode_names_and_whitespace(self):
        # Names are runs of str.isalnum characters (or "_") starting with a
        # letter; any str.isspace character separates tokens.
        assert parse_system("x' = \u00e9*x").parameters == ("\u00e9",)
        assert parse_system("x'\u00a0= x") == parse_system("x' = x")
        assert parse_system("x' = x\u00b2*x").parameters == ("x\u00b2",)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_system("# only a comment\n")

    def test_deep_nesting_is_located(self):
        # After the 5 characters of "x' = ", the opening parenthesis one
        # level past the limit is at column 5 + MAX_NESTING + 1.
        with pytest.raises(ParseError) as err:
            parse_system("x' = " + "(" * 300 + "x" + ")" * 300)
        assert (err.value.line, err.value.column) == (1, 6 + MAX_NESTING)
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_system("x' = " + nested) == parse_system("x' = x")

    @pytest.mark.parametrize("text,column", [
        ("(x+1)^2000", 6),
        ("(x+y+1)^250", 6),
        ("(x+y)^200*(x+z)^200*(y+z)^200", 6),
        # Each factor alone is within the bound; the product of all three is not.
        ("(x+y)^60*(x+z)^60*(y+z)^60", 24),
    ])
    def test_expansion_bound_is_located(self, text, column):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_system(f"x' = {text}\ny' = 0\nz' = 0")
        assert time.perf_counter() - start < 1
        assert (err.value.line, err.value.column) == (1, column)
        assert str(MAX_EXPANSION) in err.value.reason

    def test_expansion_within_bound(self):
        for factor in ("(x+y)^60", "(x+z)^60", "(y+z)^60"):
            parse_system(f"x' = {factor}\ny' = 0\nz' = 0")
        # times() below is the reference product; no term has parameters here
        base = parse_system("x' = x + y + 1\ny' = 0").rhs[0]
        base = power = {mono: c for (mono, _), c in base.items()}
        for _ in range(19):
            power = times(power, base)
        expected = {(mono, ()): c for mono, c in nonzero(power).items()}
        assert parse_system("x' = (x+y+1)^20\ny' = 0").rhs[0] == expected

    @pytest.mark.parametrize("text,column", [
        ("7^30000000*x^3", 6),
        ("10^5000*x^3", 6),
        (f"10^{MAX_COEFFICIENT_DIGITS}*x", 6),
        (f"1/10^{MAX_COEFFICIENT_DIGITS}*x", 6),
        (f"x*(10^{MAX_COEFFICIENT_DIGITS // 2}*x)^2", 8),
        # the product of the expansion, and the sum of two admitted terms
        (f"(10^{MAX_COEFFICIENT_DIGITS - 1}*x + 1)^2", 6),
        (f"x + {_HALF_LIMIT_TERM} + {_HALF_LIMIT_TERM}", 6 + len(f"x + {_HALF_LIMIT_TERM} + ")),
    ])
    def test_coefficient_bound_is_located(self, text, column):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_system(f"x' = {text}")
        assert time.perf_counter() - start < 1
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.reason == f"coefficient has more than {MAX_COEFFICIENT_DIGITS} digits"

    def test_largest_coefficient_is_admitted(self):
        largest = 10 ** MAX_COEFFICIENT_DIGITS - 1
        for text in (f"{largest}*x", f"1/{largest}*x", f"(3*x)^{MAX_COEFFICIENT_DIGITS}",
                     f"5*10^{MAX_COEFFICIENT_DIGITS - 1}*x + 4*10^{MAX_COEFFICIENT_DIGITS - 1}*x"):
            coeff, = parse_system(f"x' = {text}").rhs[0].values()
            assert max(abs(coeff.numerator), coeff.denominator) < 10 ** MAX_COEFFICIENT_DIGITS

    @pytest.mark.parametrize("text,column", [
        (f"x^{_HUGE_EXPONENT}", 6),
        (f"x^{_HUGE_EXPONENT - 1}*x", 6),
        (f"x*a^{_HUGE_EXPONENT}", 8),
        (f"(x^{10 ** 100})^{10 ** 100}", 7),
        (f"(x^{_HUGE_EXPONENT - 1} + 1)^2", 7),
        (f"x*(x^{_HUGE_EXPONENT - 1} + 1)", 9),
        (f"x^{MAX_EXPONENT + 1}", 6),
        (f"x^{MAX_EXPONENT}*x", 6 + len(f"x^{MAX_EXPONENT}*")),
        ("(x^1000)^1001", 6),
        # 101^3 divisors once z joins; the parameters are bounded on their own
        ("x^100*y^100*z^100", 18),
        (f"x^2 + a^{MAX_EXPONENT + 1}", 12),
        ("x*a^1000*b^1000", 15),
        ("(x^1000)*y^1000", 15),
        # the product of the expansion, and a one-term factor times it
        (f"(x^{MAX_EXPONENT} + 1)^2", 6),
        (f"x*(x^{MAX_EXPONENT} + 1)", 6),
    ])
    def test_exponent_bound_is_located(self, text, column):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_system(f"x' = {text}\ny' = 0\nz' = 0")
        assert time.perf_counter() - start < 1
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.reason == f"term has more than {MAX_EXPONENT + 1} divisors"

    def test_largest_exponent_is_admitted(self):
        largest = MAX_EXPONENT
        # 101 * 9,901 = MAX_EXPONENT + 1 divisors, as many as x^MAX_EXPONENT.
        half = largest // 2
        system = parse_system(f"x' = a^{largest}*x^{largest} + (x^{largest - 1} + 1)*x"
                              f" + x^100*y^9900 + b^100*c^9900 + y^{half}*y^{half}\ny' = 0")
        assert set(system.rhs[0]) == {((largest, 0), (largest, 0, 0)),
                                      ((largest, 0), (0, 0, 0)), ((1, 0), (0, 0, 0)),
                                      ((100, 9900), (0, 0, 0)), ((0, 0), (0, 100, 9900)),
                                      ((0, largest), (0, 0, 0))}

    @pytest.mark.parametrize("prefix", ["x' = ", "x' = x^", "x' = 1/"])
    def test_overlong_literal_is_located(self, prefix):
        with pytest.raises(ParseError) as err:
            parse_system(prefix + "9" * 5000)
        assert (err.value.line, err.value.column) == (1, len(prefix) + 1)


_EXPRESSION_ALPHABET = "xya_+-*^/()0129. "
_ALPHABET = _EXPRESSION_ALPHABET + "'=#\t\n"
_EQUATIONS = st.lists(
    st.tuples(st.sampled_from("xy"), st.text(_EXPRESSION_ALPHABET, max_size=30)),
    min_size=1, max_size=3,
).map(lambda lines: "\n".join(f"{lhs}' = {rhs}" for lhs, rhs in lines))


class TestFuzz:
    @given(st.text(_ALPHABET, max_size=40) | _EQUATIONS)
    @settings(max_examples=300, deadline=None)
    def test_only_parse_errors(self, text):
        # Random text and random right-hand sides over the grammar's
        # alphabet: a system or a ParseError, never another exception; every
        # system renders to text that parses back equal.
        try:
            system = parse_system(text)
        except ParseError:
            return
        assert parse_system(render_system(system)) == system


_SYMBOL_NAMES = "xyab"
_LEAVES = (st.fractions(min_value=-5, max_value=5, max_denominator=4).map(lambda c: ("num", c))
           | st.sampled_from(_SYMBOL_NAMES).map(lambda name: ("sym", name)))
_TREES = st.recursive(
    _LEAVES,
    lambda kids: (st.tuples(st.sampled_from("+-*"), kids, kids)
                  | st.tuples(st.just("^"), kids, st.integers(1, 3))
                  | st.tuples(st.just("neg"), kids)),
    max_leaves=10,
)


def render_tree(tree) -> str:
    tag = tree[0]
    if tag == "num":
        text = str(abs(tree[1]))
        return text if tree[1] >= 0 else f"(-{text})"
    if tag == "sym":
        return tree[1]
    if tag == "neg":
        return f"(-{render_tree(tree[1])})"
    if tag == "^":
        base = render_tree(tree[1])
        if tree[1][0] in ("*", "^"):
            base = f"({base})"
        return f"{base}^{tree[2]}"
    if tag == "*":
        return f"{render_tree(tree[1])}*{render_tree(tree[2])}"
    return f"({render_tree(tree[1])} {tag} {render_tree(tree[2])})"


# A reference polynomial arithmetic, independent of the package: a
# polynomial is a dict {(exponents of x, y, a, b): coefficient} that may hold
# zero coefficients until nonzero() drops them.

def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, coeff in q.items():
        out[key] = out.get(key, 0) + coeff
    return out


def negate(p: dict) -> dict:
    return {key: -coeff for key, coeff in p.items()}


def times(p: dict, q: dict) -> dict:
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def nonzero(p: dict) -> dict:
    return {key: coeff for key, coeff in p.items() if coeff}


def evaluate_tree(tree) -> dict:
    """The tree's value by the reference arithmetic over x, y and parameters a, b."""
    tag = tree[0]
    if tag == "num":
        return {(0, 0, 0, 0): tree[1]}
    if tag == "sym":
        exponents = [0, 0, 0, 0]
        exponents[_SYMBOL_NAMES.index(tree[1])] = 1
        return {tuple(exponents): 1}
    if tag == "neg":
        return negate(evaluate_tree(tree[1]))
    if tag == "^":
        base = power = evaluate_tree(tree[1])
        for _ in range(tree[2] - 1):
            power = times(power, base)
        return power
    left, right = evaluate_tree(tree[1]), evaluate_tree(tree[2])
    return {"+": add(left, right), "-": add(left, negate(right)), "*": times(left, right)}[tag]


_X, _Y, _A = ("sym", "x"), ("sym", "y"), ("sym", "a")


class TestTermAccumulator:
    @given(_TREES)
    # Products in which terms cancel: random trees rarely build one.
    @example(("*", ("+", _X, _Y), ("-", _X, _Y)))
    @example(("*", _A, ("*", ("-", _X, _A), ("^", ("+", _X, _A), 2))))
    @settings(max_examples=300, deadline=None)
    def test_matches_polynomial_arithmetic(self, tree):
        # The y equation keeps both parameters, so their indices are fixed.
        system = parse_system(f"x' = {render_tree(tree)}\ny' = a*b")
        assert system.parameters == ("a", "b")
        expected = {(key[:2], key[2:]): coeff for key, coeff in evaluate_tree(tree).items()}
        assert system.rhs[0] == nonzero(expected)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(WORKED_EXAMPLES))
    def test_worked_examples(self, name):
        original = parse_system(WORKED_EXAMPLES[name])
        assert parse_system(render_system(original)) == original

    def test_random_corpus_round_trips(self):
        for system in build_random_corpus(count=12, seed=99):
            assert parse_system(render_system(system)) == system

    def test_negative_and_rational_coefficients(self):
        text = "x' = -1/2*x^3 + 2*a*x - 3\n"
        system = parse_system(text)
        assert parse_system(render_system(system)) == system

    # ODESystem accepts exactly the names the tokenizer reads as one word.
    WORDS = ["x", "_", "_1", "x_1", "Alpha2", "é", "x²", "xⅫ", "1", "12", "1x", "²", "²x",
             "Ⅻ", "", " x", "x y", "a*b", "x'", "a-b", "x.1", "#x"]

    @pytest.mark.parametrize("word", WORDS)
    def test_the_tokenizer_reads_exactly_the_identifiers(self, word):
        try:
            read = parse_system(f"{word}' = {word}^3").variables == (word,)
        except ParseError:
            read = False
        assert read == is_identifier(word)

    @pytest.mark.parametrize("word", WORDS)
    def test_a_system_with_any_accepted_name_round_trips(self, word):
        # "1" was accepted as a variable and rendered as text that reads
        # the number 1, so x' = x^3 came back as a constant.
        try:
            system = ODESystem((word,), ("k",), ({((3,), (1,)): 1},))
        except ValueError:
            assert not is_identifier(word)
        else:
            assert parse_system(render_system(system)) == system

from fractions import Fraction

import pytest

from quadratize.output import render_system
from quadratize.parsing import ParseError, parse_system
from quadratize.polynomials import Polynomial

from conftest import WORKED_EXAMPLES, build_random_corpus


def poly_of(text: str) -> Polynomial:
    return parse_system(f"x' = {text}").rhs[0]


class TestGrammar:
    def test_scalar_power(self):
        sys = parse_system("x' = x^5")
        assert sys.variables == ("x",)
        assert sys.parameters == ()
        assert sys.rhs[0].terms == {((5,), ()): Fraction(1)}

    def test_two_variable_system(self):
        sys = parse_system("x1' = x2^4\nx2' = x1^2")
        assert sys.variables == ("x1", "x2")
        assert sys.rhs[0].terms == {((0, 4), ()): Fraction(1)}
        assert sys.rhs[1].terms == {((2, 0), ()): Fraction(1)}

    def test_zero_right_hand_side(self):
        sys = parse_system("x' = 0")
        assert sys.rhs[0].is_zero()

    def test_parameters_are_non_lhs_identifiers(self):
        sys = parse_system("x' = a*x + b")
        assert sys.parameters == ("a", "b")
        assert sys.rhs[0].terms == {
            ((1,), (1, 0)): Fraction(1),
            ((0,), (0, 1)): Fraction(1),
        }

    def test_parentheses_distribute(self):
        assert poly_of("x*(x + 1)").terms == poly_of("x^2 + x").terms
        assert poly_of("(x + 1)^2").terms == poly_of("x^2 + 2*x + 1").terms
        assert poly_of("-(x - 1)").terms == poly_of("1 - x").terms

    def test_caret_binds_tighter_than_star(self):
        assert poly_of("2*x^3").terms == {((3,), ()): Fraction(2)}

    def test_unary_minus(self):
        assert poly_of("-x").terms == {((1,), ()): Fraction(-1)}
        assert poly_of("-2*x + x").terms == {((1,), ()): Fraction(-1)}

    def test_rational_literals(self):
        assert poly_of("1/2*x").terms == {((1,), ()): Fraction(1, 2)}
        assert poly_of("3/6").terms == {((0,), ()): Fraction(1, 2)}

    def test_term_merging(self):
        assert poly_of("x^3 + x^3").terms == {((3,), ()): Fraction(2)}
        assert poly_of("x - x").is_zero()

    def test_comments_and_blank_lines(self):
        sys = parse_system("# heading\n\nx' = x^2  # trailing\n")
        assert sys.rhs[0].terms == {((2,), ()): Fraction(1)}


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
        ("x' = x^2\nx' = x", 2, 1),    # duplicate left-hand side
    ])
    def test_located_errors(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_system("# only a comment\n")


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

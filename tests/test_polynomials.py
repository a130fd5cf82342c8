import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratize.pruning
from quadratize.parsing import parse_system
from quadratize.solver import benchmark_system, bnb_search
from quadratize.output import render_result
from quadratize.polynomials import (
    MAX_COEFFICIENT_DIGITS,
    MAX_EXPONENT,
    ODESystem,
    add_term,
    degree,
    divides,
    divisor_count,
    grlex_key,
    is_nonnegative,
    is_square,
    lie_derivative,
    monomial_gcd,
    monomial_mul,
    monomial_quotient,
    partners,
    polynomial_mul,
    sorted_terms,
    unit_monomial,
    variable_monomial,
)

from conftest import benchmark_workloads, factor_pairs

monomials = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)


def paired_monomials(exponents=st.integers(0, 4), lengths=st.integers(1, 3)):
    return lengths.flatmap(
        lambda n: st.tuples(
            st.lists(exponents, min_size=n, max_size=n).map(tuple),
            st.lists(exponents, min_size=n, max_size=n).map(tuple),
        )
    )


# Small exponents, so that divisibility and equal degrees are common, and
# exponents past one byte, which a packed representation would overflow.
kernel_exponents = st.one_of(st.integers(0, 3), st.integers(255, 70_000))


def grlex_less(a, b):
    """Graded-lex order from its definition: degree, then the first differing exponent."""
    deg_a = deg_b = 0
    for i in range(len(a)):
        deg_a += a[i]
        deg_b += b[i]
    if deg_a != deg_b:
        return deg_a < deg_b
    for i in range(len(a)):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


class TestMonomialOps:
    def test_mul(self):
        assert monomial_mul((1,), (1,)) == (2,)
        assert monomial_mul((0, 0), (1, 2)) == (1, 2)
        assert monomial_mul((1, 2), (0, 1)) == (1, 3)

    def test_divisor_count(self):
        assert divisor_count((3,)) == 4
        assert divisor_count((0, 0)) == 1
        assert divisor_count((2, 1)) == 6

    @given(paired_monomials(kernel_exponents, st.integers(1, 4)))
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_per_exponent_definition(self, pair):
        a, b = pair
        n = len(a)
        assert monomial_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
        assert monomial_quotient(a, b) == tuple(a[i] - b[i] for i in range(n))
        assert divides(b, a) == all(b[i] <= a[i] for i in range(n))
        assert degree(a) == sum(a[i] for i in range(n))
        for m in (a, monomial_quotient(a, b), monomial_mul(a, a)):
            assert is_square(m) == all(m[i] % 2 == 0 for i in range(n))
        assert (grlex_key(a) < grlex_key(b)) == grlex_less(a, b)
        assert (grlex_key(b) < grlex_key(a)) == grlex_less(b, a)

    @pytest.mark.parametrize("m,expected", [
        ((), True),
        ((0,), True),
        ((0, 0, 0), True),
        ((3, 1), True),
        ((-1,), False),
        ((3, -1), False),
        ((0, -2, 5), False),
        ((-1, -1), False),
    ])
    def test_is_nonnegative(self, m, expected):
        # Laurent monomials have a negative exponent; an empty tuple, the
        # parameter exponents of a system without parameters, has none.
        assert is_nonnegative(m) is expected

    @pytest.mark.parametrize("monomials,expected", [
        ([(2, 0, 3)], (2, 0, 3)),  # one monomial is its own gcd
        ([(2, 1), (1, 3)], (1, 1)),  # x^2*y and x*y^3 give x*y
        ([(2, 0, 0), (0, 1, 4)], (0, 0, 0)),  # disjoint supports give 1
        ([(3, 2), (5, 1), (4, 4)], (3, 1)),  # the least exponent of three
    ])
    def test_monomial_gcd(self, monomials, expected):
        assert monomial_gcd(monomials) == expected


class TestPartners:
    # partners(m) against its definition: the z outside vars_set and not
    # banned with m = z * w for some w in vars_set or w = z, read off the
    # factorizations of m.  Checked on every call the search makes, the
    # greedy swap step's among them.  The root ladder builds the root's
    # partner sets once, for every count from 2 to 5 that it asks about.

    @pytest.fixture(scope="class")
    def calls(self, later_corpus, stream_tail):
        """Every call of partners over corpus seed 11 of the benchmark,
        cubic_cycle(4..6), the later corpus and the stream's tail, as (m,
        vars_set, introduced, banned, result)."""
        calls = []
        real = partners

        def recording(m, vars_set, introduced, banned):
            found = real(m, vars_set, introduced, banned)
            calls.append((m, vars_set, introduced, frozenset(banned), set(found)))
            return found

        systems = ([parse_system(instance.text) for instance in benchmark_workloads().corpus(11)]
                   + [benchmark_system("cubic_cycle", n) for n in (4, 5, 6)] + later_corpus
                   + stream_tail)
        with mock.patch.object(quadratize.pruning, "partners", recording):
            for system in systems:
                bnb_search(system)
        return calls

    def test_matches_the_definition(self, calls):
        for m, vars_set, introduced, banned, found in calls:
            n = len(m)
            assert vars_set == ({unit_monomial(n)} | set(introduced)
                                | {variable_monomial(n, i) for i in range(n)})
            expected = {z for a, b in factor_pairs(m) for z, w in ((a, b), (b, a))
                        if w in vars_set or w == z}
            assert found == expected - vars_set - banned, (m, introduced, banned)
        assert len(calls) == 11207
        assert sum(bool(banned) for *_, banned, _ in calls) == 3372


class TestPolynomial:
    def test_support(self):
        p = parse_system("x' = x^4 + x^3").rhs[0]
        assert {mono for mono, _ in p} == {(3,), (4,)}

    def test_cancellation(self):
        # (x + 1) * (x - 1): the two x terms cancel and leave no zero entry
        p = {((1,), ()): Fraction(1), ((0,), ()): Fraction(1)}
        q = {((1,), ()): Fraction(1), ((0,), ()): Fraction(-1)}
        assert polynomial_mul(p, q) == {((2,), ()): Fraction(1), ((0,), ()): Fraction(-1)}
        assert polynomial_mul(p, {}) == {}

    def test_param_terms_stay_separate(self):
        # a*x + x has one support monomial but two irreducible terms
        sys = parse_system("x' = a*x + x")
        poly = sys.rhs[0]
        assert {mono for mono, _ in poly} == {(1,)}
        assert len(poly) == 2

    def test_product_keys_in_first_production_order(self):
        # (y + x) * (x + 1) gives x*y, y, x^2, x, each where it first occurs
        p = {((0, 1), ()): Fraction(1), ((1, 0), ()): Fraction(1)}
        q = {((1, 0), ()): Fraction(1), ((0, 0), ()): Fraction(1)}
        assert list(polynomial_mul(p, q)) == [((1, 1), ()), ((0, 1), ()), ((2, 0), ()),
                                              ((1, 0), ())]
        # (x - y + 1) * (y + x + x*y): x*y cancels, then 1 * x*y brings it
        # back at the end
        r = {((1, 0), ()): Fraction(1), ((0, 1), ()): Fraction(-1), ((0, 0), ()): Fraction(1)}
        s = {((0, 1), ()): Fraction(1), ((1, 0), ()): Fraction(1), ((1, 1), ()): Fraction(1)}
        assert list(polynomial_mul(r, s)) == [
            ((2, 0), ()), ((2, 1), ()), ((0, 2), ()), ((1, 2), ()), ((0, 1), ()), ((1, 0), ()),
            ((1, 1), ())]

    def test_add_term_sums(self):
        poly = {((1,), ()): Fraction(1, 2)}
        assert add_term(poly, ((1,), ()), Fraction(1, 3)) == Fraction(5, 6)
        assert add_term(poly, ((2,), ()), 3) == 3
        assert poly == {((1,), ()): Fraction(5, 6), ((2,), ()): 3}

    def test_add_term_cancellation_deletes_the_key(self):
        poly = {((1,), ()): Fraction(1, 2), ((2,), ()): 3}
        assert add_term(poly, ((1,), ()), Fraction(-1, 2)) == 0
        assert poly == {((2,), ()): 3}

    def test_add_term_after_cancelling_goes_to_the_end(self):
        poly = {((1,), ()): 1, ((2,), ()): 3}
        add_term(poly, ((1,), ()), -1)
        assert add_term(poly, ((1,), ()), 7) == 7
        assert list(poly.items()) == [(((2,), ()), 3), (((1,), ()), 7)]

    def test_sorted_terms_is_grlex_then_params(self):
        poly = parse_system("x' = 3*y + a*x + x + 2*x^2 + y^2\ny' = a").rhs[0]
        assert sorted_terms(poly) == [
            ((0, 1), (0,), Fraction(3)), ((1, 0), (0,), Fraction(1)),
            ((1, 0), (1,), Fraction(1)), ((0, 2), (0,), Fraction(1)),
            ((2, 0), (0,), Fraction(2))]


class TestLieDerivative:
    def test_scalar_power(self):
        sys = parse_system("x' = x^5")
        assert lie_derivative((4,), sys) == {((8,), ()): Fraction(4)}

    def test_two_variable(self):
        sys = parse_system("x1' = x2^4\nx2' = x1^2")
        assert lie_derivative((3, 0), sys) == {((2, 4), ()): Fraction(3)}

    def test_unit_derivative_is_zero(self):
        sys = parse_system("x' = x^5")
        assert lie_derivative((0,), sys) == {}

    @given(paired_monomials(), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_rule(self, pair, seed):
        u, v = pair
        n = len(u)
        rng = random.Random(seed)
        rhs = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                mono = tuple(rng.randint(0, 3) for _ in range(n))
                terms[(mono, ())] = Fraction(rng.choice((-2, -1, 1, 2, 3)))
            rhs.append(terms)
        sys = ODESystem(tuple(f"x{i}" for i in range(n)), (), tuple(rhs))

        product_deriv = lie_derivative(monomial_mul(u, v), sys)
        # u * D(v) + v * D(u), summed term by term
        expanded = {}
        for m, d in ((u, lie_derivative(v, sys)), (v, lie_derivative(u, sys))):
            for (mono, params), coeff in d.items():
                key = (monomial_mul(m, mono), params)
                expanded[key] = expanded.get(key, 0) + coeff
        assert product_deriv == {key: c for key, c in expanded.items() if c}


class TestODESystem:
    def test_rejects_shared_names(self):
        with pytest.raises(ValueError):
            ODESystem(("x",), ("x",), ({},))

    # Each would render text that the parser reads otherwise or rejects:
    # variable "1" solved to "1' = z1", its factor dropped as the unit.
    @pytest.mark.parametrize("name", ["1", "", "x y", "a*b", "x'", "2x", "²", None, b"x"])
    def test_rejects_names_that_are_not_identifiers(self, name):
        with pytest.raises(ValueError, match="identifiers"):
            ODESystem((name,), (), ({((3,), ()): 1},))
        with pytest.raises(ValueError, match="identifiers"):
            ODESystem(("x",), (name,), ({((3,), (1,)): 1},))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            ODESystem(("x", "y"), (), ({},))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            ODESystem(("x",), (), ({((-1,), ()): Fraction(1)},))

    def test_rejects_mismatched_term_shape(self):
        with pytest.raises(ValueError):
            ODESystem(("x",), (), ({((1, 1), ()): Fraction(1)},))

    # True is an int to isinstance, but would render as "True*x"
    @pytest.mark.parametrize("coeff", [0, Fraction(0), 0.5, 2.0, True, "1", None])
    def test_rejects_zero_and_non_exact_coefficients(self, coeff):
        with pytest.raises(ValueError):
            ODESystem(("x",), (), ({((1,), ()): Fraction(1), ((2,), ()): coeff},))

    # A float or bool exponent is not an exact int; the search and the
    # renderer would fail on it or print it as "True".
    @pytest.mark.parametrize("mono", [(2.5,), (3.0,), (True,)])
    def test_rejects_non_int_variable_exponents(self, mono):
        with pytest.raises(ValueError):
            ODESystem(("x",), (), ({(mono, ()): 1},))

    # a^1.5 and a^-1 would render as text that does not parse back
    @pytest.mark.parametrize("params", [(1.5,), (-1,)])
    def test_rejects_bad_parameter_exponents(self, params):
        with pytest.raises(ValueError):
            ODESystem(("x",), ("a",), ({((1,), params): 1},))

    def test_rejects_too_long_coefficients(self):
        for coeff in (10 ** 4400, Fraction(1, 10 ** MAX_COEFFICIENT_DIGITS)):
            with pytest.raises(ValueError, match="digits"):
                ODESystem(("x",), (), ({((3,), ()): coeff},))

    # One divisor too many in either tuple: 2 * 3 * 166,667 = MAX_EXPONENT + 2.
    # 10 ** 5000 used to reach the search, whose error message could not
    # print it.
    @pytest.mark.parametrize("mono,params", [
        ((1, 2, 166666), (0, 0, 0)),
        ((0, 0, 0), (MAX_EXPONENT + 1, 0, 0)),
        ((10 ** 5000, 0, 0), (0, 0, 0)),
    ])
    def test_rejects_too_long_exponents(self, mono, params):
        names = (("x", "y", "z"), ("a", "b", "c"))
        with pytest.raises(ValueError, match=f"more than {MAX_EXPONENT + 1} divisors"):
            ODESystem(*names, ({(mono, params): 1}, {}, {}))
        # 101 * 9,901 = MAX_EXPONENT + 1 divisors, as many as x^MAX_EXPONENT.
        for largest in ((MAX_EXPONENT, 0, 0), (100, 9900, 0)):
            ODESystem(*names, ({(largest, largest): 1}, {}, {}))

    def test_largest_coefficient_is_accepted_and_renders(self):
        largest = 10 ** MAX_COEFFICIENT_DIGITS - 1
        system = ODESystem(("x",), (), ({((3,), ()): largest},))
        result, _ = bnb_search(system)
        for fmt in ("text", "structured"):
            assert str(largest) in render_result(result.document, fmt)

    def test_accepts_int_and_fraction_coefficients(self):
        system = ODESystem(("x",), (), ({((2,), ()): 3, ((1,), ()): Fraction(-1, 2)},))
        assert system == parse_system("x' = 3*x^2 - 1/2*x")
        assert lie_derivative((2,), system) == {((3,), ()): 6, ((2,), ()): Fraction(-1)}

    def test_unit_and_variable_monomials(self):
        assert unit_monomial(3) == (0, 0, 0)
        assert variable_monomial(3, 1) == (0, 1, 0)

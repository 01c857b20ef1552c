"""The integer evaluation that verify's checks compare on: exact values
over one denominator, a polynomial by Horner's rule on homogeneous
integers, and the basis sum over the lcms of samples and row."""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from aqbernstein.polynomials import Polynomial, poly_eval
from aqbernstein.verify import _horner, _over_lcm, basis_sum

F = Fraction

rationals = st.builds(F, st.integers(-99, 99), st.integers(1, 60))
# the zero polynomial, constants and negative coefficients included, also
# with trailing zeros that Polynomial trims
polynomials = st.lists(st.one_of(st.just(F(0)), rationals), max_size=9).map(
    lambda cs: Polynomial(tuple(cs)))
# x = X/Y, not always in lowest terms (the checks pass t/(2n+1) as it is)
points = st.one_of(
    st.sampled_from([(0, 1), (1, 1), (0, 7), (3, 3)]),
    st.tuples(st.integers(-40, 40), st.integers(1, 40)),
)


@given(st.lists(rationals, max_size=10))
def test_over_lcm(values):
    nums, den = _over_lcm(values)
    assert all(type(v) is int for v in nums) and den >= 1
    assert [F(v, den) for v in nums] == values
    assert den == math.lcm(*[v.denominator for v in values])


@given(polynomials, points)
def test_horner_equals_poly_eval(p, point):
    X, Y = point
    coeffs, den = _over_lcm(p.coeffs)
    value = _horner(coeffs, X, Y)
    assert type(value) is int
    assert F(value, den * Y ** max(p.degree, 0)) == poly_eval(p, F(X, Y))


@given(st.lists(st.tuples(rationals, rationals), max_size=11))
def test_basis_sum_equals_the_fraction_sum(pairs):
    samples, row = [f for f, _ in pairs], tuple(p for _, p in pairs)
    assert basis_sum(samples, row) == sum((f * p for f, p in pairs), F(0))

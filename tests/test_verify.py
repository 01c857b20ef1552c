"""The integers that verify's checks compare on: the per-q table of
closed forms, exact values over one denominator, a polynomial by Horner's
rule on homogeneous integers, and the basis sum over the lcms of samples
and row."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqbernstein import verify
from aqbernstein.polynomials import Polynomial, poly_eval
from aqbernstein.verify import _horner, _over_lcm, basis_sum, q_integer
from test_operator import q_binomial, q_factorial

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


@pytest.mark.parametrize("q", [*verify.Q_GRID, F(2, 3), F(7, 3), F(5, 2)])
def test_closed_forms_are_the_oracles_numerators(q):
    # N_j, F_j and P(r, i) are the reduced numerators of [j]_q, [j]_q! and
    # qbinom(r, i), so each is the oracle's value times a power of b
    a, b, N, Fs, P = verify._closed_forms(q, 14)
    assert (a, b) == (q.numerator, q.denominator)
    assert N == [q_integer(j, q).numerator for j in range(15)]
    assert Fs == [q_factorial(j, q).numerator for j in range(15)]
    assert P == [[q_binomial(r, i, q).numerator for i in range(r + 1)] for r in range(15)]
    assert all(F(N[j], b ** (j - 1)) == q_integer(j, q) for j in range(1, 15))
    assert all(F(Fs[j], b ** (j * (j - 1) // 2)) == q_factorial(j, q) for j in range(15))
    assert all(F(P[r][i], b ** (i * (r - i))) == q_binomial(r, i, q)
               for r in range(15) for i in range(r + 1))


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match=r"^max_n must be >= 1, got 0$"):
        verify.run_verify(0)

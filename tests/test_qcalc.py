import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqbernstein.qcalc import q_difference_table, q_stirling2_rows
from aqbernstein.verify import q_integer, q_stirling2
from test_operator import q_binomial, q_factorial, q_pochhammer

F = Fraction
Q_GRID = [F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]

positive_q = st.fractions(min_value=F(1, 5), max_value=5, max_denominator=10)


def stirling_rows(k, q, width=None):
    """Rows S_q(0, .)..S_q(k, .) of the production recurrence, r < width
    (default k + 1)."""
    return q_stirling2_rows(k, [q_integer(m, q) for m in range(width or k + 1)])


def classical_stirling2(k, r):
    # partition-count recurrence, the classical oracle
    table = [[0] * (r + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for i in range(1, k + 1):
        for j in range(1, min(i, r) + 1):
            table[i][j] = table[i - 1][j - 1] + j * table[i - 1][j]
    return table[k][r]


def monomial_q_difference(k, i, r, n, q):
    """Closed form of Delta_q^r f_i when f samples t^k at the nodes [i]_q/[n]_q.

    Equals (1/[n]_q^k) sum_{s=0}^{r} (-1)^s q^(s(s-1)/2) qbinom(r, s)
    [i+r-s]_q^k, valid for r <= k (the closed form is not extrapolated
    beyond that range).
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if r < 0 or r > k:
        raise ValueError(f"closed form requires 0 <= r <= k, got r={r}, k={k}")
    if i + r > n:
        raise ValueError(f"need i + r <= n, got {i} + {r} > {n}")
    total = sum(
        (-1) ** s
        * q ** (s * (s - 1) // 2)
        * q_binomial(r, s, q)
        * q_integer(i + r - s, q) ** k
        for s in range(r + 1)
    )
    return total / q_integer(n, q) ** k


class TestQInteger:
    def test_zero(self):
        assert q_integer(0, F(3, 7)) == 0

    def test_direct_sum(self):
        assert q_integer(3, F(1, 2)) == 1 + F(1, 2) + F(1, 4) == F(7, 4)

    def test_classical(self):
        assert q_integer(5, F(1)) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1, F(1, 2))

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            q_integer(2, F(0))

    @given(st.integers(0, 25), positive_q)
    @settings(max_examples=80)
    def test_matches_sum(self, n, q):
        assert q_integer(n, q) == sum(q**i for i in range(n))


class TestQFactorial:
    def test_empty(self):
        assert q_factorial(0, F(1, 2)) == 1

    def test_direct(self):
        assert q_factorial(3, F(1, 2)) == 1 * F(3, 2) * F(7, 4) == F(21, 8)

    def test_classical(self):
        assert q_factorial(3, F(1)) == 6


class TestQBinomial:
    def test_edge(self):
        assert q_binomial(4, 0, F(2)) == 1

    def test_value(self):
        assert q_binomial(4, 2, F(2)) == 35

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, 5, F(2)) == 0
        assert q_binomial(3, -1, F(2)) == 0

    def test_symmetry(self):
        for q in Q_GRID:
            for n in range(9):
                for k in range(n + 1):
                    assert q_binomial(n, k, q) == q_binomial(n, n - k, q)

    def test_classical(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binomial(n, k, F(1)) == math.comb(n, k)

    def test_factorial_ratio(self):
        q = F(2, 3)
        for n in range(8):
            for k in range(n + 1):
                expected = q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))
                assert q_binomial(n, k, q) == expected


class TestQPochhammer:
    """The q-shifted factorial that the basis_eval oracle is built from."""

    def test_empty_product(self):
        assert q_pochhammer(F(9, 7), F(1, 3), 0) == 1

    def test_direct(self):
        assert q_pochhammer(F(1, 2), F(1, 2), 2) == F(1, 2) * F(3, 4) == F(3, 8)

    def test_vanishing_first_factor(self):
        assert q_pochhammer(F(1), F(5, 4), 3) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            q_pochhammer(F(1, 2), F(1, 2), -1)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=8),
           positive_q, st.integers(0, 10))
    @settings(max_examples=80)
    def test_one_step_recursion(self, a, q, k):
        assert q_pochhammer(a, q, k + 1) == q_pochhammer(a, q, k) * (1 - a * q**k)


class TestQStirling:
    def test_boundaries(self):
        q = F(5, 7)
        assert q_stirling2(0, 0, q) == 1
        assert q_stirling2(2, 5, q) == 0
        assert q_stirling2(3, 0, q) == 0
        assert q_stirling2(2, 2, q) == 1

    def test_recurrence_path_values(self):
        rows = stirling_rows(3, F(4, 3), width=2)
        assert rows[1][1] == 1
        assert rows[3][1] == 1
        assert rows[0][1] == 0

    def test_two_paths_agree(self):
        for q in Q_GRID:
            for k, row in enumerate(stirling_rows(12, q)):
                for r, value in enumerate(row):
                    assert q_stirling2(k, r, q) == value, (k, r, q)

    def test_scaled_sequence_scales_the_rows(self):
        # run on c [r]_q the recurrence gives c^(m-r) S_q(m, r); the image
        # kernel takes c = b^n for q = a/b, which makes every entry an integer
        n = 12
        for q in Q_GRID:
            b = q.denominator
            rows = q_stirling2_rows(n + 1, [int(q_integer(r, q) * b**n) for r in range(n + 2)])
            for m, row in enumerate(rows):
                for r, value in enumerate(row):
                    assert type(value) is int
                    assert value == q_stirling2(m, r, q) * F(b) ** (n * (m - r)), (q, m, r)

    def test_rows_are_leading_blocks_of_one_triangle(self):
        # k + 1 rows of the width of qints from S_q(0, r) = [r = 0]; fewer
        # rows or a narrower qints (as image_rows passes entries 0..top+1)
        # give the leading block of the larger triangle
        for q in Q_GRID:
            rows = stirling_rows(12, q, width=14)
            assert len(rows) == 13 and {len(row) for row in rows} == {14}
            assert rows[0] == [1] + [0] * 13
            for k in range(13):
                for width in (k + 2, 14):
                    assert stirling_rows(k, q, width) == \
                        [row[:width] for row in rows[: k + 1]], (q, k, width)

    def test_float_rows_are_accurate(self):
        # a sum of positive terms: every entry of a float row is within a
        # few ulps per step of the exact one, where the explicit sum loses
        # all of its digits at q = 1/2
        for q in [F(1, 5), F(1, 2), F(1), F(3, 2)]:
            exact = stirling_rows(30, q)
            floats = stirling_rows(30, float(q))
            for k, (got, want) in enumerate(zip(floats, exact)):
                for r in range(k + 1):
                    assert abs(got[r] - want[r]) <= 1e-14 * k * want[r], (q, k, r)

    def test_classical(self):
        for k in range(9):
            for r in range(9):
                assert q_stirling2(k, r, F(1)) == classical_stirling2(k, r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_stirling2(-1, 0, F(1, 2))


class TestForwardDifference:
    def test_order_zero(self):
        f = [F(3), F(1), F(4)]
        assert q_difference_table(f, F(1, 2))[0][1] == F(1)

    def test_order_one_at_zero(self):
        f = [F(3), F(1), F(4)]
        assert q_difference_table(f, F(7, 5))[1][0] == F(1) - F(3)

    def test_table_consistency(self):
        # Delta_q^r f_i = sum_s (-1)^s q^(s(s-1)/2) qbinom(r, s) f_(i+r-s)
        q = F(2, 3)
        f = [F(i**2, i + 1) for i in range(6)]
        table = q_difference_table(f, q)
        assert [len(row) for row in table] == [6, 5, 4, 3, 2, 1]
        for r in range(6):
            for i in range(6 - r):
                assert table[r][i] == sum(
                    (-1) ** s * q ** (s * (s - 1) // 2) * q_binomial(r, s, q)
                    * f[i + r - s]
                    for s in range(r + 1)
                )

    def test_scaled_by_the_denominator(self):
        # on q's numerator and denominator the loop gives the integers
        # b^(r(r-1)/2) Delta_q^r f_i
        f = [3, -1, 4, 1, -5, 9, 2]
        for q in Q_GRID:
            a, b = q.numerator, q.denominator
            plain, scaled = q_difference_table(f, q), q_difference_table(f, a, b)
            for r, (row, srow) in enumerate(zip(plain, scaled)):
                assert all(type(e) is int for e in srow)
                assert [F(e, b ** (r * (r - 1) // 2)) for e in srow] == list(row), (q, r)
        with pytest.raises(ValueError, match="positive"):
            q_difference_table(f, 1, 0)

    def test_classical_differences(self):
        f = [F(0), F(1), F(8), F(27)]
        table = q_difference_table(f, F(1))
        assert table[1] == (1, 7, 19)
        assert table[2] == (6, 12)
        assert table[3] == (6,)


class TestMonomialDifference:
    def test_order_zero_is_node_power(self):
        q, n, k = F(2, 3), 5, 3
        for i in range(n + 1):
            node = q_integer(i, q) / q_integer(n, q)
            assert monomial_q_difference(k, i, 0, n, q) == node**k

    def test_k1_r1_at_zero(self):
        for q in Q_GRID:
            for n in range(1, 7):
                assert monomial_q_difference(1, 0, 1, n, q) == 1 / q_integer(n, q)

    def test_at_zero_is_stirling_multiple(self):
        # Delta_q^r applied at i = 0 picks up [r]_q! q^(r(r-1)/2) S_q(k,r) / [n]_q^k
        for q in [F(1, 2), F(3, 2)]:
            for n in range(1, 7):
                for k in range(n + 1):
                    for r in range(k + 1):
                        expected = (
                            q_factorial(r, q)
                            * q ** (r * (r - 1) // 2)
                            * q_stirling2(k, r, q)
                            / q_integer(n, q) ** k
                        )
                        assert monomial_q_difference(k, 0, r, n, q) == expected

    def test_matches_generic_difference(self):
        for q in [F(1, 2), F(1), F(2)]:
            for n in range(1, 9):
                nodes = [q_integer(i, q) / q_integer(n, q) for i in range(n + 1)]
                for k in range(n + 1):
                    f = [t**k for t in nodes]
                    for r in range(k + 1):
                        for i in range(n - r + 1):
                            assert monomial_q_difference(k, i, r, n, q) == \
                                q_difference_table(f, q)[r][i], (q, n, k, r, i)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            monomial_q_difference(2, 0, 3, 5, F(1, 2))  # r > k
        with pytest.raises(ValueError):
            monomial_q_difference(3, 4, 2, 5, F(1, 2))  # i + r > n


class TestClassicalLimit:
    def test_q_one_collapses(self):
        # every primitive at q = 1 is its classical counterpart
        one = F(1)
        assert q_integer(7, one) == 7
        assert q_factorial(4, one) == 24
        assert q_binomial(6, 2, one) == 15
        assert q_stirling2(5, 3, one) == classical_stirling2(5, 3)


class TestQIntegerIdentity:
    def test_shift_identity(self):
        # [n-i]_q = ([n]_q - [i]_q) / q^i
        for q in Q_GRID:
            for n in range(31):
                for i in range(n + 1):
                    lhs = q_integer(n - i, q)
                    rhs = (q_integer(n, q) - q_integer(i, q)) / q**i
                    assert lhs == rhs, (n, i, q)

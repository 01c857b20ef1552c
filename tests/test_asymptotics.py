import hashlib
import math
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from aqbernstein.asymptotics import (
    Q_ABOVE_1,
    Q_BELOW_1,
    RegimeError,
    convergence_table,
    limit_coeffs,
    limit_eigenvalue,
    regime_of,
)
from aqbernstein.bernstein import OperatorParams, monomial_image
from aqbernstein.eigen import eigenvector, spectrum
from aqbernstein.scalars import MixedModeError
from aqbernstein.verify import q_integer, q_stirling2
from test_operator import stirling_oracle

F = Fraction
# the exact grid on which limit_coeffs must equal the oracles below; 9/10
# and 11/10 sit one step from 1 on each side, with both a and b above 1 in
# q = a/b
ORACLE_QS = [F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(11, 10), F(3, 2), F(2), F(3), F(7, 3)]
ORACLE_ALPHAS = [F(0), F(1, 4), F(2, 5), F(1, 2), F(1)]
ORACLE_MAX_K = 15
FLOAT_LIMITS_DIGEST = "0ea9f764f81bb385849349cc9f0e600ab97c488f7b7e46590b7d16dc642fc4bd"


def recursion_oracle_q_below_1(q, k):
    """b(j,k) by its top-down recursion, j = k-1 .. 0, with S_q(i,j) from the
    explicit sum; b(k,k) = 1, and b(0,1) = 0 is pinned (its step would
    divide by q^0 - 1)."""
    if k <= 1:
        return (F(1),) if k == 0 else (F(0), F(1))
    b = [F(0)] * k + [F(1)]
    for j in range(k - 1, -1, -1):
        total = sum((1 - q) ** (i - j) * stirling_oracle(i, j, q) * b[i]
                    for i in range(j + 1, k + 1))
        b[j] = total / (q ** ((k - j) * (k + j - 1) // 2) - 1)
    return tuple(b)


@lru_cache(maxsize=None)
def ratio_oracle_q_above_1(q, alpha, k, j):
    """rho_j of the asymptotics module docstring, each q-integer by its
    closed form and S_q(k-j+1, k-j) by the explicit sum."""
    num = stirling_oracle(k - j + 1, k - j, q) + (1 - alpha) * (q - 1) * q ** (
        j - k) * q_integer(k - j, q) * q_integer(k - j + 1, q)
    den = sum(q_integer(t, q) for t in range(k - j, k)) + (1 - alpha) * q ** (
        1 - k) * (q**j - 1) * (q ** (2 * k - j - 1) - 1) / (q - 1)
    return -num / den


def product_oracle_q_above_1(q, alpha, k):
    """d(j,k) = rho_1 ... rho_(k-j), from scratch for each j; for k >= 2 the
    product runs to j = 0, where rho_k has a zero numerator, and d(0,1) = 0
    is pinned (rho_1 at k = 1 is 0/0)."""
    if k <= 1:
        return (F(1),) if k == 0 else (F(0), F(1))
    d = []
    for j in range(k + 1):
        product = F(1)
        for i in range(1, k - j + 1):
            product *= ratio_oracle_q_above_1(q, alpha, k, i)
        d.append(product)
    return tuple(d)


def limit_ratio(q, alpha, k, j):
    """rho_j read from limit_coeffs as d(k-j,k) / d(k-j+1,k)."""
    d = limit_coeffs(q, alpha, k).coeffs
    return d[k - j] / d[k - j + 1]


def literal_limit_coeffs_q_below_1(q, k):
    """The b(j,k) recursion read with S_q(i,k) in place of S_q(i,j), k >= 2.

    That reading zeroes every summand with i < k and is refuted by the
    convergence of the finite-n coefficients.
    """
    b = [q * 0] * k + [q * 0 + 1]
    for j in range(k - 1, -1, -1):
        total = sum((1 - q) ** (i - j) * q_stirling2(i, k, q) * b[i]
                    for i in range(j + 1, k + 1))
        b[j] = total / (q ** ((k - j) * (k + j - 1) // 2) - 1)
    return tuple(b)


def uncorrected_limit_ratio_q_above_1(q, alpha, k, j):
    """The ratio limit rho_j without its two (1-alpha) corrections.

    It drops the (q-1) factor in the numerator and the whole second
    denominator term, so it agrees with the corrected ratio only at alpha = 1.
    """
    den = sum(q_integer(t, q) for t in range(k - j, k))
    num = q_stirling2(k - j + 1, k - j, q) + (1 - alpha) * q ** (j - k) * q_integer(
        k - j, q
    ) * q_integer(k - j + 1, q)
    return -num / den


def limit_monomial_coeff(q, r, k):
    """lim_n a_n(r, k) = q^(r(r-1)/2) (1-q)^(k-r) S_q(k, r), for 0 < q < 1."""
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
    if regime_of(q) != Q_BELOW_1:
        raise RegimeError(f"monomial-coefficient limits need 0 < q < 1, got q={q}")
    return q ** (r * (r - 1) // 2) * (1 - q) ** (k - r) * q_stirling2(k, r, q)


def finite_ratio(q, alpha, k, j, i, n):
    """a_n(k-j, k-i) / (lambda_k - lambda_{k-j}) at finite n (float mode)."""
    params = OperatorParams(n, q, alpha)
    num = monomial_image(k - i, params).coeffs[k - j]
    return num / sum(spectrum(params, k)[1][k - j:])


class TestRegime:
    def test_split(self):
        assert regime_of(F(1, 2)) == Q_BELOW_1
        assert regime_of(F(3, 2)) == Q_ABOVE_1

    def test_q_one_rejected(self):
        with pytest.raises(RegimeError, match="q=1"):
            regime_of(F(1))

    def test_nonpositive_rejected(self):
        with pytest.raises(RegimeError):
            regime_of(F(0))


class TestLimitEigenvalue:
    def test_below_one(self):
        assert limit_eigenvalue(F(1, 2), 2) == F(1, 2)
        assert limit_eigenvalue(F(1, 2), 3) == F(1, 8)

    def test_above_one(self):
        for k in range(6):
            assert limit_eigenvalue(F(2), k) == 1

    def test_value_in_the_mode_of_q(self):
        # an int q is exact; float q stays float, in both regimes
        for q, k in [(2, 3), (F(2), 0), (F(1, 2), 3)]:
            assert type(limit_eigenvalue(q, k)) is F
        assert limit_eigenvalue(2, 3) == F(1)
        assert limit_eigenvalue(0.5, 3) == 0.125 and limit_eigenvalue(2.0, 3) == 1.0
        assert type(limit_eigenvalue(2.0, 3)) is float

    def test_non_finite_q_rejected(self):
        # the rule limit_coeffs applies: a non-finite q is refused, not run
        for q in [math.inf, -math.inf, math.nan]:
            with pytest.raises(ValueError, match="q must be finite"):
                limit_eigenvalue(q, 3)
            with pytest.raises(ValueError, match="q must be finite"):
                limit_coeffs(q, 0.5, 3)

    def test_negative_degree_rejected(self):
        for q, alpha in [(F(1, 2), F(2, 5)), (2.0, 0.4)]:
            with pytest.raises(ValueError, match=r"^need k >= 0, got -1$"):
                limit_eigenvalue(q, -1)
            with pytest.raises(ValueError, match=r"^need k >= 0, got -1$"):
                limit_coeffs(q, alpha, -1)

    def test_q_one_rejected(self):
        with pytest.raises(RegimeError):
            limit_eigenvalue(F(1), 2)
        for q in [0, F(-1, 2), -2.0]:
            with pytest.raises(RegimeError, match="positive"):
                limit_eigenvalue(q, 2)

    def test_finite_values_approach_float(self):
        for q, want in [(0.5, lambda k: 0.5 ** (k * (k - 1) // 2)),
                        (2.0, lambda k: 1.0)]:
            for k in range(6):
                errs = []
                for n in [50, 100, 200]:
                    from aqbernstein.eigen import eigenvalue

                    lam = eigenvalue(k, OperatorParams(n, q, 0.5))
                    errs.append(abs(lam - want(k)))
                assert errs[-1] < 1e-8


NONPOSITIVE_Q_ENTRIES = {
    "limit_eigenvalue": lambda q: limit_eigenvalue(q, 2),
    "limit_coeffs": lambda q: limit_coeffs(q, F(1, 2), 2),
    "convergence_table": lambda q: convergence_table(q, F(1, 2), 2, [5]),
}


@pytest.mark.parametrize("q", [0, F(-1, 2), -2.0], ids=["0", "-1/2", "-2.0"])
@pytest.mark.parametrize("entry", NONPOSITIVE_Q_ENTRIES)
def test_nonpositive_q_is_a_regime_error(entry, q):
    # one bad q, one exception type, whichever limit entry point sees it
    with pytest.raises(RegimeError, match="q must be positive"):
        NONPOSITIVE_Q_ENTRIES[entry](q)


class TestLimitMonomialCoeff:
    def test_diagonal(self):
        for k in range(6):
            assert limit_monomial_coeff(F(1, 2), k, k) == F(1, 2) ** (k * (k - 1) // 2)

    def test_k1(self):
        assert limit_monomial_coeff(F(1, 2), 1, 1) == 1

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            limit_monomial_coeff(F(2), 1, 2)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            limit_monomial_coeff(F(1, 2), 3, 2)

    def test_finite_coefficients_converge(self):
        q = 0.5
        for k in range(1, 6):
            for r in range(k + 1):
                want = limit_monomial_coeff(q, r, k)
                errs = []
                for n in [25, 50, 100]:
                    got = monomial_image(k, OperatorParams(n, q, 0.5)).coeffs[r]
                    errs.append(abs(got - want))
                assert errs[2] <= errs[1] + 1e-9 and errs[1] <= errs[0] + 1e-9
                assert errs[2] < 1e-9


class TestLimitsBelowOne:
    def test_boundary_rows(self):
        assert limit_coeffs(F(1, 2), F(0), 0).coeffs == (1,)
        assert limit_coeffs(F(1, 2), F(1), 1).coeffs == (0, 1)

    def test_degree_two_matches_universal_eigenvector(self):
        for q in [F(1, 4), F(1, 2), F(3, 4)]:
            lc = limit_coeffs(q, F(1, 2), 2)
            assert lc.coeffs == (0, -1, 1)
            assert lc.limit_lambda == q

    def test_alpha_free(self):
        for k in range(5):
            a = limit_coeffs(F(2, 5), F(0), k)
            b = limit_coeffs(F(2, 5), F(1), k)
            assert a.coeffs == b.coeffs

    def test_finite_coefficients_converge(self):
        q = 0.5
        for k in range(2, 6):
            b = limit_coeffs(q, 0.5, k).coeffs
            errs = []
            for n in [25, 50, 100]:
                c = eigenvector(k, OperatorParams(n, q, 0.5))
                errs.append(max(abs(c.coeff(j) - b[j]) for j in range(k + 1)))
            assert errs[2] <= errs[1] + 1e-9 and errs[1] <= errs[0] + 1e-9
            assert errs[2] < 1e-10

    def test_float_agrees_with_exact(self):
        # the q-Stirling rows come from the recurrence, which does not cancel
        # in floats as the explicit sum does (relative error 8.2 and 9.6e52
        # at these points with the sum)
        for q, k in [(F(1, 2), 12), (F(1, 5), 12)]:
            exact = limit_coeffs(q, F(2, 5), k).coeffs
            floats = limit_coeffs(float(q), 0.4, k).coeffs
            for j, (got, want) in enumerate(zip(floats, exact)):
                assert abs(got - want) <= 1e-10 * abs(want), (q, k, j)

    def test_literal_index_reading_diverges(self):
        # with S_q(i,k) instead of S_q(i,j) every interior term vanishes and
        # the finite-n coefficients never approach the result
        q = F(1, 2)
        for k in [3, 4]:
            literal = literal_limit_coeffs_q_below_1(q, k)
            correct = limit_coeffs(q, F(1, 2), k).coeffs
            assert literal != correct
            c = eigenvector(k, OperatorParams(100, 0.5, 0.5))
            err_lit = max(abs(c.coeff(j) - float(literal[j])) for j in range(k + 1))
            err_cor = max(abs(c.coeff(j) - float(correct[j])) for j in range(k + 1))
            assert err_cor < 1e-10
            assert err_lit > 0.1


class TestLimitsAboveOne:
    def test_boundary_rows(self):
        assert limit_coeffs(F(2), F(0), 0).coeffs == (1,)
        assert limit_coeffs(F(2), F(0), 1).coeffs == (0, 1)
        assert limit_coeffs(F(2), F(0), 1).limit_lambda == 1

    def test_degree_two_matches_universal_eigenvector(self):
        # the exact degree-2 eigenvector x^2 - x holds at every n, so the
        # limit coefficient must be -1 for every alpha
        for q in [F(3, 2), F(2), F(3)]:
            for alpha in [F(0), F(1, 2), F(1)]:
                assert limit_coeffs(q, alpha, 2).coeffs == (0, -1, 1)

    def test_ratio_alpha_one_specialization(self):
        for k in range(2, 6):
            for j in range(1, k):
                got = limit_ratio(F(2), F(1), k, j)
                denom = sum(q_integer(t, F(2)) for t in range(k - j, k))
                assert got == -q_stirling2(k - j + 1, k - j, F(2)) / denom

    def test_finite_ratios_converge_to_corrected(self):
        for q in [1.5, 2.0]:
            for alpha in [0.0, 0.5, 1.0]:
                for k in range(2, 6):
                    for j in range(1, k):
                        want = limit_ratio(q, alpha, k, j)
                        e30 = abs(finite_ratio(q, alpha, k, j, j - 1, 30) - want)
                        e60 = abs(finite_ratio(q, alpha, k, j, j - 1, 60) - want)
                        assert e60 <= e30 + 1e-9
                        assert e60 < 1e-6, (q, alpha, k, j, e60)

    def test_finite_ratios_diverge_from_uncorrected(self):
        for q in [1.5, 2.0]:
            for alpha in [0.0, 0.5]:
                got = finite_ratio(q, alpha, 3, 1, 0, 60)
                literal = uncorrected_limit_ratio_q_above_1(q, alpha, 3, 1)
                corrected = limit_ratio(q, alpha, 3, 1)
                assert abs(got - corrected) < 1e-9
                assert abs(got - literal) > 0.05

    def test_lower_order_ratios_vanish(self):
        for alpha in [0.0, 0.5, 1.0]:
            for k in range(3, 6):
                for j in range(2, k):
                    for i in range(j - 1):
                        r30 = abs(finite_ratio(2.0, alpha, k, j, i, 30))
                        r60 = abs(finite_ratio(2.0, alpha, k, j, i, 60))
                        assert r60 <= r30 + 1e-9
                        assert r60 < 1e-6

    def test_alpha_dependence_survives(self):
        d0 = limit_coeffs(F(2), F(0), 3).coeffs
        d1 = limit_coeffs(F(2), F(1), 3).coeffs
        assert d0 != d1
        assert d0[1] == F(10, 27)

    def test_finite_coefficients_converge(self):
        for q in [1.5, 2.0]:
            for alpha in [0.0, 0.5, 1.0]:
                for k in range(2, 5):
                    d = limit_coeffs(q, alpha, k).coeffs
                    errs = []
                    for n in [20, 40, 80]:
                        c = eigenvector(k, OperatorParams(n, q, alpha))
                        errs.append(max(abs(c.coeff(j) - d[j]) for j in range(k + 1)))
                    assert errs[2] <= errs[1] + 1e-9 and errs[1] <= errs[0] + 1e-9
                    assert errs[2] < 1e-4


class TestDispatch:
    def test_routes_by_regime(self):
        assert limit_coeffs(F(1, 2), F(0), 2).regime == Q_BELOW_1
        assert limit_coeffs(F(2), F(0), 2).regime == Q_ABOVE_1

    def test_equals_the_oracles(self):
        # Fraction for Fraction: the b(j,k) recursion below 1, and above 1
        # the product of the ratio formula taken from scratch for each j
        for q in ORACLE_QS:
            for alpha in ORACLE_ALPHAS:
                for k in range(ORACLE_MAX_K + 1):
                    lc = limit_coeffs(q, alpha, k)
                    want = (recursion_oracle_q_below_1(q, k) if q < 1
                            else product_oracle_q_above_1(q, alpha, k))
                    assert lc.coeffs == want, (q, alpha, k)
                    assert lc.limit_lambda == limit_eigenvalue(q, k)

    def test_non_finite_q_rejected(self):
        # an infinite q used to give (nan, nan, nan, nan) without error
        for q in [math.inf, math.nan]:
            with pytest.raises(ValueError, match="q must be finite"):
                limit_coeffs(q, 0.4, 3)

    def test_q_one_rejected(self):
        with pytest.raises(RegimeError):
            limit_coeffs(F(1), F(0), 2)

    def test_float_output_digest(self):
        # SHA-256 over repr of float limit_coeffs, pinned before exact mode
        # left the generic loop: the float path runs that loop unchanged
        digest = hashlib.sha256()
        for q in (0.3, 0.5, 0.9, 1.1, 1.5, 2.0, 3.0):
            for alpha in (0.0, 0.4, 1.0):
                for k in range(30):
                    digest.update(repr(limit_coeffs(q, alpha, k)).encode())
        assert digest.hexdigest() == FLOAT_LIMITS_DIGEST

    @pytest.mark.parametrize("q, k, what", [
        (0.5, 400, "non-finite float in limit_coeffs: nan"),  # 138 of 401 were nan
        (1.5, 2000, "float overflow in limit_coeffs"),  # was a bare OverflowError
    ])
    def test_float_failure_names_the_kernel(self, q, k, what):
        with pytest.raises(FloatingPointError, match=rf"^{what} \(q={q}, alpha=0.4, k={k}\)$"):
            limit_coeffs(q, 0.4, k)

    def test_alpha_outside_unit_interval_rejected(self):
        # the OperatorParams rule; at q = 2, alpha = 9/5 zeroes a ratio's
        # denominator
        for q, alpha in [(F(1, 2), -3), (F(2), F(9, 5)), (2.0, float("nan"))]:
            with pytest.raises(ValueError, match=r"outside \[0,1\]"):
                limit_coeffs(q, alpha, 3)
        with pytest.raises(ValueError, match="outside"):
            convergence_table(F(1, 2), F(6, 5), 2, [10], mode="exact")


CONVERGE_DIGEST = "32e141b975d5da6db1de7e35d262c4a8769479a474404472104dc5939e043b75"


class TestConvergenceTable:
    def test_degree_two_error_is_rounding_noise_at_most(self):
        # identically zero in exact mode (see test_exact_mode); float mode
        # may pick up one ulp in the recursion's division
        rows = convergence_table(F(1, 2), F(2, 5), 2, [10, 20, 40])
        assert len(rows) == 3 * 3
        assert all(r.abs_error < 1e-15 for r in rows)

    def test_errors_shrink(self):
        rows = convergence_table(F(1, 2), F(2, 5), 3, [25, 50, 100])
        worst = {}
        for r in rows:
            worst[r.n] = max(worst.get(r.n, 0.0), r.abs_error)
        assert worst[50] <= worst[25] + 1e-9
        assert worst[100] <= worst[50] + 1e-9
        assert worst[25] > 0

    def test_above_one(self):
        rows = convergence_table(F(2), F(0), 3, [20, 40, 80])
        worst = {r.n: 0.0 for r in rows}
        for r in rows:
            worst[r.n] = max(worst[r.n], r.abs_error)
        assert worst[80] <= worst[40] <= worst[20] + 1e-9
        assert worst[80] < 1e-4

    def test_exact_mode(self):
        rows = convergence_table(F(1, 2), F(1, 2), 2, [5, 10], mode="exact")
        assert all(isinstance(r.finite, F) for r in rows)
        assert all(r.abs_error == 0 for r in rows)

    def test_exact_mode_never_runs_in_float(self):
        # a float q or alpha is refused, not run in float; ints become exact
        for q, alpha in [(0.5, F(1, 2)), (F(1, 2), 0.5), (2.0, 0)]:
            with pytest.raises(MixedModeError):
                convergence_table(q, alpha, 2, [5], mode="exact")
        rows = convergence_table(2, 0, 3, [5, 10], mode="exact")
        assert rows == convergence_table(F(2), F(0), 3, [5, 10], mode="exact")
        assert all(type(v) is F for r in rows for v in (r.finite, r.limit, r.abs_error))

    def test_exact_output_digest(self):
        # SHA-256 over repr of the exact tables on the benchmark's converge
        # grid, pinned before the exact eigenvector recursion ran on the
        # image diagonal alone: there n >> k, so the images are built only to
        # top = k, a shape the eigen digest (n <= 24) does not reach. The
        # reprs run past the default limit of 4300 digits per int.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digest = hashlib.sha256()
            for q in (F(1, 2), F(3, 2)):
                for k in (6, 12):
                    rows = convergence_table(q, F(2, 5), k, (25, 50, 100, 200), mode="exact")
                    digest.update(repr(rows).encode())
        finally:
            sys.set_int_max_str_digits(limit)
        assert digest.hexdigest() == CONVERGE_DIGEST

    def test_float_zero_coefficient_reads_positive(self):
        # float p_k carries c_0 = -0.0 from its last division; the table, and
        # so converge's JSON output, reads 0.0 there
        assert math.copysign(1, eigenvector(3, OperatorParams(10, 0.5, 0.4)).coeffs[0]) == -1
        rows = convergence_table(F(1, 2), F(2, 5), 3, [10])
        assert (rows[0].j, rows[0].finite, math.copysign(1, rows[0].finite)) == (0, 0, 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            convergence_table(F(1, 2), F(0), 3, [2])

    def test_q_one_rejected(self):
        with pytest.raises(RegimeError):
            convergence_table(F(1), F(0), 2, [10])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown mode 'fixed'$"):
            convergence_table(F(1, 2), F(2, 5), 2, [10], mode="fixed")

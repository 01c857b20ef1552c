import functools
import json
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqbernstein import bernstein, eigen, verify
from aqbernstein.bernstein import (
    OperatorParams,
    apply_to_samples,
    basis_values,
    image_rows,
    monomial_image,
    sample_nodes,
)
from aqbernstein.cli import main
from aqbernstein.eigen import eigenvalue, spectrum
from aqbernstein.polynomials import Polynomial, poly_eval
from aqbernstein.qcalc import q_difference_table
from aqbernstein.scalars import MixedModeError, format_scalar, parse_scalar
from aqbernstein.verify import q_integer, q_stirling2, run_verify

F = Fraction
Q_GRID = [F(1, 2), F(1), F(3, 2), F(2)]
A_GRID = [F(0), F(2, 5), F(1)]
XS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
# float parameters; F(v) of each is its exact value, the exact-mode reference
FLOAT_Q_GRID = [0.5, 1.0, 1.5]
FLOAT_A_GRID = [0.0, 0.4, 1.0]
# the float-against-exact comparison of these tests
close = functools.partial(math.isclose, rel_tol=1e-10, abs_tol=1e-12)
# verify's explicit q-Stirling sum, memoized: one sum per (k, r, q) for every
# test that reads it
stirling_oracle = functools.cache(q_stirling2)


def rational_samples(rng, count):
    return [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count)]


def g_difference(samples, i, r, params):
    """Oracle for Delta_q^r g_i through differences of f, n >= 2, i + r < n:
    (1 - q^(n-i-1) [i]/[n-1]) Delta^r f_i + q^(n-i-1-r) [i+r]/[n-1] Delta^r f_(i+1).
    """
    n, q = params.n, params.q
    if n < 2:
        raise ValueError("g is undefined for n < 2")
    if i < 0 or r < 0 or i + r + 1 > n:
        raise ValueError(f"need i, r >= 0 and i + r + 1 <= n, got {i}, {r}, {n}")
    table = q_difference_table(samples, q)
    dn1 = q_integer(n - 1, q)
    w_i = q ** (n - i - 1) * q_integer(i, q) / dn1
    w_i1 = q ** (n - i - 1 - r) * q_integer(i + r, q) / dn1
    return (1 - w_i) * table[r][i] + w_i1 * table[r][i + 1]


def q_factorial(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    out = q * 0 + 1
    for m in range(1, n + 1):
        out = out * q_integer(m, q)
    return out


def q_binomial(n, k, q):
    """q-binomial coefficient, extended by 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return q * 0
    k = min(k, n - k)
    out = q * 0 + 1
    for i in range(1, k + 1):
        out = out * q_integer(n - k + i, q) / q_integer(i, q)
    return out


def q_pochhammer(a, q, k):
    """(a;q)_k = prod_{s=0}^{k-1} (1 - a q^s); the empty product is 1."""
    if k < 0:
        raise ValueError(f"q-Pochhammer needs k >= 0, got {k}")
    out = q * 0 + 1
    for s in range(k):
        out *= 1 - a * q**s
    return out


def binomial_row(params, m):
    """Row m of the q-binomials in the scalar arithmetic of the mode: the
    table's float row, or the Fraction oracle in exact mode, where the
    table holds integer numerators."""
    if params.mode == "float":
        return params.table.binomials[m]
    return tuple([q_binomial(m, i, params.q) for i in range(m + 1)])


def basis_eval(params, i, x):
    """Oracle for p_{n,q,i}^{(alpha)}(x), one index at a time from fresh
    q-binomials and q-shifted products (the three-term form that
    ``basis_values`` documents)."""
    n, q, alpha = params.n, params.q, params.alpha
    if n == 1:
        return 1 - x if i == 0 else x
    total = alpha * q_binomial(n, i, q) * x**i * q_pochhammer(x, q, n - i)
    if i <= n - 2:
        total += (1 - alpha) * q_binomial(n - 2, i, q) * x**i * q_pochhammer(x, q, n - i - 1)
    if i >= 2:
        total += (
            (1 - alpha) * q_binomial(n - 2, i - 2, q) * q ** (n - i)
            * x ** (i - 1) * q_pochhammer(x, q, n - i)
        )
    return total


def reference_basis_values(params, x):
    """The basis row p_0(x)..p_n(x) in the scalar arithmetic of the mode,
    one Fraction (or float) operation at a time: the three-term form of
    ``basis_values`` over the table's q-powers and :func:`binomial_row`, with
    running products for x^i and (x;q)_m. The oracle for the integer form
    of the production kernel."""
    n, alpha, table = params.n, params.alpha, params.table
    x = x + table.zero
    if n == 1:
        return (1 - x, x)
    one, qpow = table.one, table.powers
    xpow = list(accumulate(range(n), lambda p, _: p * x, initial=one))
    poch = list(accumulate(qpow[:n], lambda p, qm: p * (1 - x * qm), initial=one))
    row_n, row_n2 = binomial_row(params, n), binomial_row(params, n - 2)
    values = []
    for i in range(n + 1):
        total = alpha * row_n[i] * xpow[i] * poch[n - i]
        if i <= n - 2:
            total = total + (1 - alpha) * row_n2[i] * xpow[i] * poch[n - i - 1]
        if i >= 2:
            total = total + (
                (1 - alpha) * row_n2[i - 2] * qpow[n - i] * xpow[i - 1] * poch[n - i]
            )
        values.append(total)
    return tuple(values)


def reference_g_samples(samples, params):
    """The blended sequence g_i = (1 - w_i) f_i + w_i f_{i+1}, i = 0..n-1,
    with w_i = q^(n-i-1) [i]_q / [n-1]_q, in the scalar arithmetic of the
    mode."""
    n, qpow, qint = params.n, params.table.powers, params.table.integers
    weights = [qpow[n - i - 1] * qint[i] / qint[n - 1] for i in range(n)]
    return tuple([(1 - w) * f0 + w * f1 for w, f0, f1 in zip(weights, samples, samples[1:])])


def reference_apply_to_samples(samples, params):
    """The coefficients of T(f; .) by the forward-difference form, in the
    scalar arithmetic of the mode: q-difference tables of f and of g over
    the scalar q, weighted by :func:`binomial_row`. The oracle for
    the integer form of the production kernel."""
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    f = tuple([v + table.zero for v in samples])
    if n == 1:
        return Polynomial((f[0], f[1] - f[0])).coeffs
    ftable = q_difference_table(f, q)
    gtable = q_difference_table(reference_g_samples(f, params), q)
    row_n, row_n1 = binomial_row(params, n), binomial_row(params, n - 1)
    coeffs = []
    for r in range(n + 1):
        c = alpha * row_n[r] * ftable[r][0]
        if r <= n - 1:
            c = c + (1 - alpha) * row_n1[r] * gtable[r][0]
        coeffs.append(c)
    return Polynomial(tuple(coeffs)).coeffs


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorParams(0, F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            OperatorParams(3, F(0), F(1, 2))
        with pytest.raises(ValueError):
            OperatorParams(3, F(-1), F(1, 2))
        with pytest.raises(ValueError):
            OperatorParams(3, float("inf"), 0.5)
        with pytest.raises(ValueError):
            OperatorParams(3, 0.5, float("nan"))

    def test_alpha_range_gate(self):
        with pytest.raises(ValueError, match=r"outside \[0,1\]"):
            OperatorParams(3, F(1, 2), F(3, 2))

    def test_mode_consistency(self):
        with pytest.raises(MixedModeError):
            OperatorParams(3, F(1, 2), 0.5)
        assert OperatorParams(3, 0.5, 0.5).mode == "float"
        assert OperatorParams(3, F(1, 2), 1).mode == "exact"


class TestNodes:
    def test_n1(self):
        assert sample_nodes(OperatorParams(1, F(3), F(0))) == (0, 1)

    def test_n2_half(self):
        assert sample_nodes(OperatorParams(2, F(1, 2), F(1))) == (0, F(2, 3), 1)

    def test_classical_equispaced(self):
        assert sample_nodes(OperatorParams(3, F(1), F(1))) == (0, F(1, 3), F(2, 3), 1)

    def test_float_matches_exact(self):
        # the float nodes come from the q-integer recurrence
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    got = sample_nodes(OperatorParams(n, q, alpha))
                    want = sample_nodes(OperatorParams(n, F(q), F(alpha)))
                    assert got[0] == 0 and got[-1] == 1, (n, q)
                    assert all(close(u, float(v)) for u, v in zip(got, want)), \
                        (n, q, alpha)


class TestBasis:
    def test_degree_one(self):
        p = OperatorParams(1, F(2, 3), F(1, 5))
        assert basis_values(p, F(1, 4)) == (F(3, 4), F(1, 4))

    def test_index_range(self):
        # one value per index i = 0..n
        for n in range(1, 7):
            assert len(basis_values(OperatorParams(n, F(1, 2), F(1)), F(1, 3))) == n + 1

    def test_partition_of_unity(self):
        for n in range(1, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    for x in XS:
                        assert sum(basis_values(params, x)) == 1

    def test_row_matches_single(self):
        for n in range(1, 7):
            for q in [F(2, 3), *Q_GRID]:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    for x in XS:
                        row = basis_values(params, x)
                        assert row == tuple(basis_eval(params, i, x) for i in range(n + 1))

    def test_alpha_one_is_q_bernstein(self):
        for n in range(1, 7):
            for q in Q_GRID:
                params = OperatorParams(n, q, F(1))
                for x in XS:
                    row = basis_values(params, x)
                    for i in range(n + 1):
                        expected = (
                            q_binomial(n, i, q) * x**i * q_pochhammer(x, q, n - i)
                        )
                        assert row[i] == expected

    def test_float_matches_exact(self):
        # the float rows come from running products and the q-integer
        # recurrence; exact mode on the same inputs is the reference
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    floats = OperatorParams(n, q, alpha)
                    exact = OperatorParams(n, F(q), F(alpha))
                    for x in XS:
                        got = basis_values(floats, float(x))
                        want = basis_values(exact, x)
                        assert all(close(u, float(v)) for u, v in zip(got, want)), \
                            (n, q, alpha, x)

    def test_nonsingular_at_removable_point(self):
        # x = q^-(n-i-1) zeroes the factor the uncancelled form divides by
        n, i, q = 4, 1, F(1, 2)
        params = OperatorParams(n, q, F(1, 3))
        x = q ** (-(n - i - 1))
        assert basis_values(params, x)[i] == basis_eval(params, i, x)

    def test_mixed_mode_x(self):
        # x must share the operator's mode; an int joins either
        for n in (1, 3):
            with pytest.raises(MixedModeError):
                basis_values(OperatorParams(n, F(1, 2), F(1, 4)), 0.5)
            with pytest.raises(MixedModeError):
                basis_values(OperatorParams(n, 0.5, 0.25), F(1, 2))
            assert basis_values(OperatorParams(n, 0.5, 0.25), 1)[-1] == 1.0


class TestGDifference:
    def test_r0_at_zero_is_f0(self):
        params = OperatorParams(4, F(1, 2), F(1, 3))
        f = rational_samples(random.Random(1), 5)
        assert g_difference(f, 0, 0, params) == f[0]

    def test_r0_is_convex_blend(self):
        params = OperatorParams(5, F(2, 3), F(0))
        n, q = params.n, params.q
        f = rational_samples(random.Random(2), 6)
        for i in range(n):
            w = q ** (n - i - 1) * q_integer(i, q) / q_integer(n - 1, q)
            assert g_difference(f, i, 0, params) == (1 - w) * f[i] + w * f[i + 1]
            assert 0 <= w <= 1

    def test_iterated_differences_of_g(self):
        # differencing the reference oracle's g sequence reproduces the
        # closed form
        rng = random.Random(3)
        for n in range(2, 9):
            for q in [F(1, 2), F(1), F(2)]:
                params = OperatorParams(n, q, F(1, 4))
                f = rational_samples(rng, n + 1)
                g = reference_g_samples(tuple(f), params)
                assert g == tuple(g_difference(f, i, 0, params) for i in range(n))
                table = q_difference_table(g, q)
                for r in range(n):
                    for i in range(n - r):
                        assert table[r][i] == g_difference(f, i, r, params), \
                            (n, q, i, r)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            g_difference([F(0), F(1)], 0, 0, OperatorParams(1, F(1, 2), F(1)))

    def test_index_overflow(self):
        params = OperatorParams(3, F(1, 2), F(1))
        with pytest.raises(ValueError):
            g_difference([F(0)] * 4, 1, 2, params)


class TestApply:
    def test_constants_invariant(self):
        for n in range(1, 7):
            params = OperatorParams(n, F(2, 3), F(2, 5))
            image = apply_to_samples([F(7, 3)] * (n + 1), params)
            assert image == Polynomial((F(7, 3),))

    def test_identity_function_invariant(self):
        for n in range(1, 7):
            for q in Q_GRID:
                params = OperatorParams(n, q, F(1, 4))
                assert apply_to_samples(sample_nodes(params), params) == \
                    Polynomial((0, 1))

    def test_t_squared_n2_leading_coeff(self):
        params = OperatorParams(2, F(1, 2), F(1))
        nodes = sample_nodes(params)
        image = apply_to_samples([t**2 for t in nodes], params)
        assert image.coeffs[2] == F(1, 3)

    def test_wrong_sample_count(self):
        with pytest.raises(ValueError, match="samples"):
            apply_to_samples([F(1)] * 3, OperatorParams(3, F(1, 2), F(1)))

    def test_mixed_mode_samples(self):
        with pytest.raises(MixedModeError):
            apply_to_samples([0.5, 0.5], OperatorParams(1, F(1, 2), F(1)))

    def test_pointwise_endpoints(self):
        rng = random.Random(4)
        for n in range(1, 11):
            for q, alpha in [(F(3, 2), F(1, 2)), (F(1, 2), F(0)), (F(1), F(1))]:
                params = OperatorParams(n, q, alpha)
                f = rational_samples(rng, n + 1)
                assert verify.basis_sum(f, basis_values(params, F(0))) == f[0]
                assert verify.basis_sum(f, basis_values(params, F(1))) == f[-1]

    def test_pointwise_ones(self):
        params = OperatorParams(5, F(1, 2), F(3, 4))
        for x in XS:
            assert verify.basis_sum([F(1)] * 6, basis_values(params, x)) == 1

    def test_float_matches_exact(self):
        rng = random.Random(6)
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    f = [rng.randint(-64, 64) / 8 for _ in range(n + 1)]
                    got = apply_to_samples(f, OperatorParams(n, q, alpha))
                    want = apply_to_samples(
                        [F(v) for v in f], OperatorParams(n, F(q), F(alpha))
                    )
                    for j in range(n + 1):
                        assert close(got.coeff(j), float(want.coeff(j))), \
                            (n, q, alpha, j)

    @given(st.integers(1, 6), st.sampled_from(Q_GRID), st.sampled_from(A_GRID),
           st.lists(st.integers(-10**12, 10**12), min_size=7, max_size=7),
           st.integers(-10**6, 10**6))
    def test_integer_samples_are_linear(self, n, q, alpha, values, s):
        # verify feeds the eigen relation and degree reduction integer
        # samples: they must give the image of the same values as Fractions,
        # and scaling them by an integer s must scale the image by s
        params = OperatorParams(n, q, alpha)
        ints = values[: n + 1]
        image = apply_to_samples(ints, params)
        assert image == apply_to_samples([F(v) for v in ints], params)
        assert all(isinstance(c, F) for c in image.coeffs)
        scaled = apply_to_samples([s * v for v in ints], params)
        assert scaled == Polynomial(tuple([s * c for c in image.coeffs]))

    def test_representation_equivalence(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    xs = [F(0), F(1, 3), F(2, 5), F(1)]
                    rows = [basis_values(params, x) for x in xs]
                    f = rational_samples(rng, n + 1)
                    image = apply_to_samples(f, params)
                    for x, row in zip(xs, rows):
                        assert poly_eval(image, x) == verify.basis_sum(f, row)


class TestIntegerKernels:
    """The integer forms of ``apply_to_samples`` and ``basis_values`` give
    the same reduced Fractions as the Fraction-by-Fraction references, and
    in float mode stay within rounding of them."""

    SAMPLES = [
        lambda rng, n: rational_samples(rng, n + 1),
        lambda rng, n: [rng.randint(-9, 9) for _ in range(n + 1)],  # ints
        lambda rng, n: [F(rng.randint(-9, 9), d) for d in (2, 3, 5, 7, 11, 13, 4, 9, 25)[: n + 1]],
    ]
    XS = [F(0), F(1), F(1, 3), F(-1, 2), F(7, 5)]

    def test_apply_equals_reference(self):
        rng = random.Random(8)
        for n in range(1, 9):
            for q in verify.Q_GRID:
                for alpha in verify.ALPHA_GRID:
                    params = OperatorParams(n, q, alpha)
                    for draw in self.SAMPLES:
                        f = draw(rng, n)
                        got = apply_to_samples(f, params).coeffs
                        assert got == reference_apply_to_samples(f, params), (n, q, alpha, f)
                        assert all(type(c) is F for c in got)

    def test_basis_equals_reference(self):
        for n in range(1, 9):
            for q in verify.Q_GRID:
                for alpha in verify.ALPHA_GRID:
                    params = OperatorParams(n, q, alpha)
                    for x in [*self.XS, 0, 1]:
                        got = basis_values(params, x)
                        assert got == reference_basis_values(params, x), (n, q, alpha, x)
                        assert all(type(v) is F for v in got)

    def test_float_equals_reference(self):
        # the same loop with unit denominators: within rounding of the
        # float references (the basis row is the same arithmetic)
        rng = random.Random(9)
        for n in [1, 2, 3, 8, 20, 40]:
            for q in [0.5, 1.0, 1.5, 2.0]:
                for alpha in FLOAT_A_GRID:
                    params = OperatorParams(n, q, alpha)
                    f = [rng.randint(-64, 64) / 8 for _ in range(n + 1)]
                    got = apply_to_samples(f, params).coeffs
                    want = reference_apply_to_samples(f, params)
                    scale = max(map(abs, want))
                    assert len(got) == len(want)
                    assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got, want)), \
                        (n, q, alpha)
                    for x in [0.0, 1.0, 0.25, -0.5, 1.4]:
                        assert basis_values(params, x) == reference_basis_values(params, x)


def per_coefficient_image(k, params):
    """T(t^k) coefficients one at a time, with no q-Stirling rows: the
    kernel's table and braces arithmetic, the falling products
    G_r = prod_{t=1}^{r-1} (1 - [t]_q/[n]_q) by their definition, and the
    three q-Stirling numbers of each coefficient from the explicit sum."""
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if n == 1:
        return (table.zero, table.one)
    qint, dn = table.integers, table.integers[n]
    ratio_n1 = qint[n - 1] / dn
    lead = dn / qint[n - 1]
    falling = [table.one, *accumulate(range(1, k), lambda g, t: g * (1 - qint[t] / dn),
                                      initial=table.one)]
    coeffs = []
    for r in range(k + 1):
        braces = (1 - alpha) * (qint[n - r] / dn) * (
            (qint[n + r - 1] / dn) * stirling_oracle(k + 1, r + 1, q)
            - qint[r + 1] * ratio_n1 * stirling_oracle(k, r + 1, q)
        ) + alpha * ratio_n1 * stirling_oracle(k, r, q)
        coeffs.append(falling[r] * lead / dn ** (k - r) * braces)
    return tuple(coeffs)


class TestMonomialImage:
    def test_k1_is_identity(self):
        for n in range(1, 6):
            img = monomial_image(1, OperatorParams(n, F(1, 2), F(2, 5)))
            assert img.coeffs == (0, 1)

    def test_leading_is_eigenvalue(self):
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    for k in range(2, n + 1):
                        assert monomial_image(k, params).coeffs[k] == \
                            eigenvalue(k, params)

    def test_constant_coefficient_vanishes(self):
        for n in range(1, 7):
            params = OperatorParams(n, F(5, 4), F(1, 3))
            for k in range(1, n + 1):
                assert monomial_image(k, params).coeffs[0] == 0

    def test_against_interpolation_oracle(self):
        # T(t^k) has degree <= k, so agreeing with the basis sum at k + 2
        # points is the same test as fitting k + 1 of them and checking the
        # last
        for n in range(1, 7):
            for q in [F(1, 2), F(1), F(2)]:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    nodes = sample_nodes(params)
                    for k in range(1, n + 1):
                        f = [t**k for t in nodes]
                        img = Polynomial(monomial_image(k, params).coeffs)
                        for x in [F(t, 2 * n + 1) for t in range(k + 2)]:
                            row = basis_values(params, x)
                            assert poly_eval(img, x) == verify.basis_sum(f, row), \
                                (n, q, alpha, k, x)

    def test_alpha_one_shortcut(self):
        # with alpha = 1 the image coefficients collapse to
        # q^(r(r-1)/2) [n]_q! S_q(k,r) / ([n-r]_q! [n]_q^k)
        for n in range(2, 8):
            for q in Q_GRID:
                params = OperatorParams(n, q, F(1))
                for k in range(1, n + 1):
                    img = monomial_image(k, params)
                    for r in range(k + 1):
                        expected = (
                            q ** (r * (r - 1) // 2)
                            * q_factorial(n, q)
                            * q_stirling2(k, r, q)
                            / (q_factorial(n - r, q) * q_integer(n, q) ** k)
                        )
                        assert img.coeffs[r] == expected, (n, q, k, r)

    def test_degree_reduction(self):
        for n in range(1, 8):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    nodes = sample_nodes(params)
                    for k in range(1, n + 1):
                        image = apply_to_samples([t**k for t in nodes], params)
                        assert image.degree <= k
                        if eigenvalue(k, params) != 0:
                            assert image.degree == k

    def test_equals_per_coefficient_reference(self):
        # Carlitz's recurrence is an identity over the rationals, so exact
        # images equal the per-coefficient explicit sums; float images, read
        # from the same recurrence in floats, are within 1e-12 (relative) of
        # them, q < 1 included, where the explicit sum cancels.
        grid = [(n, q, alpha) for n in range(1, 13)
                for q in verify.Q_GRID for alpha in A_GRID]
        grid += [(20, q, F(2, 5)) for q in (F(1, 2), F(1), F(3, 2))]
        for n, q, alpha in grid:
            exact = OperatorParams(n, q, alpha)
            approx = OperatorParams(n, float(q), float(alpha))
            for k in range(1, n + 1):
                want = per_coefficient_image(k, exact)
                assert monomial_image(k, exact).coeffs == want, (n, q, alpha, k)
                got = monomial_image(k, approx).coeffs
                for r, (g, w) in enumerate(zip(got, want)):
                    assert abs(g - float(w)) <= 1e-12 * abs(float(w)), (n, q, alpha, k, r)

    def test_float_failure_names_the_image(self, monkeypatch):
        # [1024]_2 is infinite in floats: the kernel names itself and
        # (n, q, alpha) before it builds the q-Stirling triangle
        def no_triangle(k, qints):
            raise AssertionError("triangle built")

        monkeypatch.setattr(bernstein, "q_stirling2_rows", no_triangle)
        with pytest.raises(FloatingPointError, match=r"^non-finite float in image_rows: "
                           r"nan \(n=1024, q=2.0, alpha=0.4\)$"):
            monomial_image(1024, OperatorParams(1024, 2.0, 0.4))

    def test_float_images_near_the_float_range_edge(self):
        # the largest images at n = 40, q = 3/2, where a sum of degree k + 1
        # used to overflow, match the exact ones coefficient by coefficient
        exact, floats = OperatorParams(40, F(3, 2), F(2, 5)), OperatorParams(40, 1.5, 0.4)
        for k in (38, 39, 40):
            want = monomial_image(k, exact).coeffs
            got = monomial_image(k, floats).coeffs
            for r, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-12 * abs(w), (k, r)

    def test_range_check(self):
        params = OperatorParams(3, F(1, 2), F(1))
        with pytest.raises(ValueError):
            monomial_image(0, params)
        with pytest.raises(ValueError):
            monomial_image(4, params)


def lcm_rows(images, top):
    """The rows r < top of the image matrix a(r, m), m = 1..top, each over
    the lcm of its reduced denominators, from exact ``images[m]`` =
    (a(0, m), .., a(m, m)): the row form the eigenvector recursion reads."""
    rows = []
    for r in range(top):
        row = [images[m][r] for m in range(r + 1, top + 1)]
        d = math.lcm(*(a.denominator for a in row))
        rows.append((d, [None] * (r + 1) + [a.numerator * (d // a.denominator) for a in row]))
    return rows


class TestImageRows:
    def test_equal_lcm_rows_of_per_coefficient_images(self):
        # the integer kernel against Fraction images one coefficient at a
        # time, put over one denominator per row by the lcm: the same
        # integers, also for top < n, where the rows are over N_n^top
        cases = [(n, q, alpha, n) for n in range(1, 13)
                 for q in verify.Q_GRID for alpha in verify.ALPHA_GRID]
        cases += [(n, q, F(2, 5), top) for n in (50, 200)
                  for q in (F(1, 2), F(3, 2)) for top in (1, 6, 12)]
        for n, q, alpha, top in cases:
            params = OperatorParams(n, q, alpha)
            images = {m: per_coefficient_image(m, params) for m in range(1, top + 1)}
            rows, (den, diagonal) = image_rows(params, top)
            assert rows == lcm_rows(images, top), (n, q, alpha, top)
            entries = [x for r, (d, row) in enumerate(rows) for x in (d, *row[r + 1:])]
            assert all(type(x) is int for x in [*entries, den, *diagonal])
            assert [F(x, den) for x in diagonal] == [1] + [images[m][m] for m in range(1, top + 1)]

    def test_float_entries_near_exact(self):
        # each float entry is a sum of two nonnegative terms, so it stays
        # within a few roundings of the exact value also for q <= 1, where
        # a difference of near-equal products lost up to 1.6e-9 at n = 40;
        # entries below 1e-290 are past float precision and skipped
        for q in (F(1, 3), F(1, 2), F(1)):
            for n in (12, 24, 40):
                for alpha in (F(0), F(2, 5), F(1)):
                    rows, (den, diagonal) = image_rows(OperatorParams(n, q, alpha), n)
                    frows, (one, fdiagonal) = image_rows(
                        OperatorParams(n, float(q), float(alpha)), n)
                    pairs = [(F(x, den), y) for x, y in zip(diagonal, fdiagonal)]
                    pairs += [(F(x, d), y) for r, ((d, row), (_, frow)) in
                              enumerate(zip(rows, frows)) for x, y in
                              zip(row[r + 1:], frow[r + 1:])]
                    assert one == 1 and len(pairs) == (n + 1) * (n + 2) // 2
                    for exact, got in pairs:
                        if exact > 1e-290:
                            assert abs(got - exact) <= 1e-13 * exact, (n, q, alpha)


@pytest.fixture(scope="class")
def verify_calls():
    """run_verify(3) with the per-operator and per-q builders counted."""
    calls = {"systems": [], "images": 0, "tables": [], "qtables": []}
    build_system = verify.eigensystem
    build_images = eigen.image_rows
    build_rows = verify.q_stirling2_rows
    build_qtable = bernstein.QTable

    def qtable(*args):
        calls["qtables"].append(build_qtable(*args))
        return calls["qtables"][-1]

    def system(params):
        calls["systems"].append(params)
        return build_system(params)

    def images(params, top):
        calls["images"] += 1
        return build_images(params, top)

    def rows(k, qints):
        # [2]_q / [1]_q = 1 + q, also for the multiples b^K [r]_q
        calls["tables"].append(F(qints[2], qints[1]) - 1)
        return build_rows(k, qints)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "eigensystem", system)
        mp.setattr(eigen, "image_rows", images)
        mp.setattr(verify, "q_stirling2_rows", rows)
        mp.setattr(bernstein, "QTable", qtable)
        report = run_verify(max_n=3)
    assert report.passed
    return calls


class TestVerify:
    def test_one_eigensystem_per_grid_operator(self, verify_calls):
        systems = verify_calls["systems"]
        assert len(systems) == 75 and len(set(systems)) == 75

    def test_one_set_of_images_per_grid_operator(self, verify_calls):
        # T(t^m), m = 1..n, by one image_rows call per operator: 25
        # (q, alpha) pairs for each of n = 1, 2, 3
        assert verify_calls["images"] == 75

    def test_one_stirling_table_per_q(self, verify_calls):
        # the plain rows and the image kernel's integer rows, once per q
        assert verify_calls["tables"] == [q for q in verify.Q_GRID for _ in range(2)]

    def test_one_q_table_per_grid_operator(self, verify_calls):
        # every check reads the grid's own objects: 75 tables, and one set
        # of q-binomial rows for each of the 50 operators with n >= 2 (the
        # n = 1 kernels read no rows)
        qtables = verify_calls["qtables"]
        assert len(qtables) == 75
        assert sum("binomials" in vars(t) for t in qtables) == 50


class TestQTable:
    def test_exact_entries(self):
        for n in range(1, 13):
            for q in verify.Q_GRID:
                table = OperatorParams(n, q, F(1, 2)).table
                assert (table.zero, table.one) == (0, 1)
                assert table.powers == tuple(q**m for m in range(2 * n))
                assert table.integers == tuple(q_integer(m, q) for m in range(2 * n))
                assert table.numerators == tuple(
                    q_integer(m, q).numerator for m in range(2 * n))
                assert all(N == t * q.denominator ** (m - 1) for m, (N, t) in enumerate(
                    zip(table.numerators[1:], table.integers[1:]), 1))
                assert sorted(table.binomials) == list(range(max(n - 2, 0), n + 1))
                # exact rows hold the reduced numerators over b^(i(m-i))
                for m, row in table.binomials.items():
                    assert row == tuple(q_binomial(m, i, q).numerator for i in range(m + 1))
                    assert all(F(p, q.denominator ** (i * (m - i))) == q_binomial(m, i, q)
                               for i, p in enumerate(row))

    def test_float_entries_near_exact(self):
        for q in [0.5, 1.0, 1.5, 2.0]:
            table = OperatorParams(60, q, 0.4).table
            exact = OperatorParams(60, F(q), F(2, 5)).table
            assert isinstance(table.one, float) and isinstance(table.zero, float)
            pairs = [(table.powers, exact.powers), (table.integers, exact.integers)]
            b = exact.q.denominator
            pairs += [(table.binomials[m],
                       [F(p, b ** (i * (m - i))) for i, p in enumerate(exact.binomials[m])])
                      for m in (58, 59, 60)]
            for got, want in pairs:
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert abs(F(g) - w) <= F(1, 10**14) * abs(w), (q, g, w)

    def test_rows_built_on_first_use(self, monkeypatch):
        # an exact eigenvector and eigensystem read the integer numerators
        # alone: no Fraction q-integers, powers or q-binomials, and no
        # spectrum, whose lambdas are the image diagonal's; float mode sums
        # the gaps of one spectrum call
        calls = []
        clean = eigen.spectrum

        def counted(params, top):
            calls.append((params.mode, params.n, top))
            return clean(params, top)

        monkeypatch.setattr(eigen, "spectrum", counted)
        params = OperatorParams(200, F(3, 2), F(2, 5))
        eigen.eigenvector(12, params)
        assert sorted(vars(params.table)) == ["n", "numerators", "one", "q", "zero"]
        eigen.eigensystem(OperatorParams(12, F(3, 2), F(2, 5)))
        assert calls == []
        eigen.eigenvector(12, OperatorParams(200, 1.5, 0.4))
        eigen.eigensystem(OperatorParams(12, 1.5, 0.4))
        assert calls == [("float", 200, 12), ("float", 12, 12)]
        basis_values(params, F(1, 3))
        assert "binomials" in vars(params.table)


class TestFloatRefusal:
    """Float kernels raise FloatingPointError, naming themselves and the
    operator, where a float overflow would leave a nan or an infinity."""

    def test_nodes_and_basis(self):
        params = OperatorParams(1800, 1.5, 0.4)  # [1800]_1.5 overflows
        at = r"\(n=1800, q=1.5, alpha=0.4\)"
        with pytest.raises(FloatingPointError, match=r"in sample_nodes: nan " + at):
            sample_nodes(params)
        with pytest.raises(FloatingPointError, match=r"in basis_values: nan " + at):
            basis_values(params, 0.5)

    def test_apply(self):
        # the q-binomial row n overflows at n = 1000, q = 2
        params = OperatorParams(1000, 2.0, 0.4)
        with pytest.raises(FloatingPointError, match=r"in apply_to_samples: nan "
                                                     r"\(n=1000, q=2.0, alpha=0.4\)"):
            apply_to_samples([t**2 for t in sample_nodes(params)], params)

    @pytest.mark.parametrize("n, q, alpha", [
        (1023, 2.0, 0.5), (1000, 2.0, 0.4), (1800, 1.5, 0.4),
        (1024, 2.0, 1.0),  # [n]_q is infinite: every lambda_k would read 1
    ])
    def test_spectrum(self, n, q, alpha):
        with pytest.raises(FloatingPointError,
                           match=rf"in spectrum: .* \(n={n}, q={q}, alpha={alpha}\)"):
            spectrum(OperatorParams(n, q, alpha), n)

    def test_monomial_image(self):
        # the image kernel reads [j]_q/[n]_q, and [1800]_1.5 / [1800]_1.5 is nan
        with pytest.raises(FloatingPointError, match=r"^non-finite float in image_rows: "
                                                     r"nan \(n=1800, q=1.5, alpha=0.4\)$"):
            monomial_image(3, OperatorParams(1800, 1.5, 0.4))

    def test_unit_eigenvalues_need_no_table_entry(self):
        # lambda_0 = lambda_1 = 1 read no q-integer, so they come out at any n
        assert spectrum(OperatorParams(1024, 2.0, 0.5), 1) == ((1.0, 1.0), (0.0,))


class TestFaultHook:
    def test_fault_changes_coefficients(self, corrupt_kernel):
        # the corrupted kernel reaches the eigen recursion and verify reports it
        params = OperatorParams(4, F(1, 2), F(1, 2))
        assert eigen.image_rows(params, 3) != image_rows(params, 3)
        report = run_verify(max_n=2)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert failed[0].name == "eigen_relation" and failed[0].counterexample
        # a failed check counts its cases through the first counterexample
        cases = {c.name: c.cases for c in failed}
        assert cases == {"eigen_relation": 53, "example_fixed_points": 1}

    def test_wrong_diagonal_caught_by_leading_check(self, corrupt_diagonal):
        # an exact eigensystem takes lambda_k and the recursion's differences
        # from a(k,k), so a flipped diagonal bends the eigenvalues and the
        # eigenvectors; the leading check sees it against the product form
        # and the closed form. lambda_2 = 0 at (2, 1/3, 0) flips to itself,
        # so each check fails first at (2, 1/3, 1/4)
        report = run_verify(max_n=2)
        assert not report.passed
        failed = {c.name: c for c in report.checks if not c.passed}
        assert {name: c.cases for name, c in failed.items()} == {
            "eigen_relation": 56, "leading_coefficient": 29,
            "distinctness": 2, "example_fixed_points": 2}
        ce = failed["leading_coefficient"].counterexample
        assert (ce["n"], ce["q"], ce["alpha"], ce["k"]) == (2, "1/3", "1/4", 2)
        assert (ce["leading"], ce["eigenvalue"], ce["closed_form"]) == ("-1/16", "1/16", "1/16")

    def test_wrong_stirling_rows_caught(self, monkeypatch):
        # Carlitz's step with [r-1]_q in place of [r]_q, in the one production
        # kernel: the explicit-sum oracle and the eigen relation both see it
        clean = verify.q_stirling2_rows

        def corrupted(k, qints):
            return clean(k, [qints[0], *qints[:-1]])

        monkeypatch.setattr(bernstein, "q_stirling2_rows", corrupted)
        monkeypatch.setattr(verify, "q_stirling2_rows", corrupted)
        report = run_verify(max_n=2)
        failed = {c.name: c for c in report.checks if not c.passed}
        assert not report.passed
        assert failed["stirling_cross_check"].counterexample
        assert failed["eigen_relation"].counterexample

    def test_wrong_gap_caught(self, request):
        # the gaps feed only the float recursion: a doubled lambda_2 - lambda_1
        # halves the x coefficient of float p_2 = x^2 - x, far outside the
        # float-against-exact tolerance (1e-12 relative), and leaves every
        # exact result, and so verify, as it was
        cases = [(n, q) for n in (2, 6) for q in (F(1, 2), F(3, 2))]
        clean = {case: eigen.eigensystem(OperatorParams(*case, F(2, 5))) for case in cases}
        request.getfixturevalue("corrupt_gap")
        for (n, q), exact in clean.items():
            params = OperatorParams(n, q, F(2, 5))
            assert repr(eigen.eigensystem(params)) == repr(exact)
            assert [eigen.eigenvector(k, params) for k in range(n + 1)] == list(exact.vectors)
            got = eigen.eigensystem(OperatorParams(n, float(q), 0.4)).vectors[2].coeff(1)
            want = float(exact.vectors[2].coeff(1))
            assert want == -1 and abs(got - want) > 1e-12 * abs(want), (n, q, got)
            assert got == pytest.approx(-0.5, rel=1e-12)
        assert run_verify(max_n=3).passed

    def test_wrong_order_caught_by_distinctness(self):
        # an eigensystem whose lambda_3 repeats lambda_2, after the cases of
        # two n = 2 systems and its own k = 2
        systems = [eigen.eigensystem(OperatorParams(n, q, F(2, 5)))
                   for n in (2, 3, 4) for q in (F(1, 2), F(3, 2))]
        assert verify.check_distinctness(systems).passed
        params, lams, vectors = systems[2].params, systems[2].lambdas, systems[2].vectors
        systems[2] = eigen.EigenSystem(params, (*lams[:3], lams[2], *lams[4:]), vectors)
        order = verify.check_distinctness(systems)
        assert not order.passed and order.cases == 4
        assert (order.counterexample["n"], order.counterexample["k"]) == (3, 3)

    def test_wrong_order_caught_by_leading_check(self, corrupt_order, capsys):
        # spectrum's lambda_3 = lambda_2 at the first n = 3 operator, whose
        # lambda_3 is 0 at alpha = 0, after 75 cases at n <= 2 and its own
        # k = 1, 2: the product form is compared with the image diagonal and
        # the closed form, which no spectrum fault reaches
        failed = [c for c in run_verify(max_n=3).checks if not c.passed]
        assert [c.name for c in failed] == ["leading_coefficient"]
        assert failed[0].cases == 78
        ce = failed[0].counterexample
        assert (ce["n"], ce["q"], ce["alpha"], ce["k"]) == (3, "1/3", "0", 3)
        assert (ce["leading"], ce["closed_form"], ce["eigenvalue"]) == ("0", "0", "40/169")
        assert main(["verify", "--max-n", "3"]) == 1
        assert not json.loads(capsys.readouterr().out)["passed"]

    def test_failed_axiom_is_reported(self, corrupt_basis):
        # p_0(0) off by one breaks the partition of unity at the first x; the
        # axiom's name goes into the counterexample as it is
        corrupt_basis(lambda n: 0)
        failed = {c.name: c for c in run_verify(max_n=1).checks if not c.passed}
        axioms = failed["operator_axioms"]
        assert axioms.cases == 1
        assert axioms.counterexample == {"axiom": "partition_of_unity", "n": 1, "q": "1/3",
                                         "alpha": "0", "x": "0", "total": "2"}

    def test_wrong_difference_form_caught(self, corrupt_difference):
        # the first image of (2, 1/2, 1/4) gains 1 x^2: the representation
        # check alone sees it, at that operator's first vector (after 75
        # cases at n = 1 and 18 at n = 2) and its first nonzero point; the
        # counterexample carries the two values as Fractions
        target = OperatorParams(2, F(1, 2), F(1, 4))
        corrupt_difference(target)
        failed = [c for c in run_verify(max_n=2).checks if not c.passed]
        assert [c.name for c in failed] == ["representation_equivalence"]
        assert failed[0].cases == 94
        ce = failed[0].counterexample
        f, x = [parse_scalar(v) for v in ce["samples"]], parse_scalar(ce["x"])
        assert (ce["n"], ce["q"], ce["alpha"], ce["x"]) == (2, "1/2", "1/4", "1/5")
        wrong = poly_eval(apply_to_samples(f, target), x) + x**2
        assert ce["difference_form"] == format_scalar(wrong)
        assert ce["basis_form"] == format_scalar(
            sum(fi * p for fi, p in zip(f, basis_values(target, x))))

    @pytest.mark.parametrize("t", [lambda n: n + 1, lambda n: 1],
                             ids=["surplus_point", "interior_point"])
    def test_wrong_basis_value_caught(self, corrupt_basis, t, capsys):
        # the last of the n + 2 points is as much a part of the check as the
        # others: a fault there alone is a failed check, not an exception
        corrupt_basis(t)
        report = run_verify(max_n=2)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["representation_equivalence"]
        ce = failed[0].counterexample
        assert ce["x"] == format_scalar(F(t(ce["n"]), 2 * ce["n"] + 1))
        assert ce["difference_form"] != ce["basis_form"] and ce["samples"]
        assert main(["verify", "--max-n", "2"]) == 1
        assert not json.loads(capsys.readouterr().out)["passed"]

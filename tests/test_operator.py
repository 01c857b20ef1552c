import random
from fractions import Fraction

import pytest

from aqbernstein import eigen, verify
from aqbernstein.bernstein import (
    OperatorParams,
    _g_samples,
    apply_pointwise,
    apply_to_samples,
    basis_values,
    monomial_image,
    sample_nodes,
)
from aqbernstein.eigen import eigenvalue
from aqbernstein.polynomials import Polynomial, poly_eval, poly_fit
from aqbernstein.qcalc import (
    q_binomial,
    q_difference_table,
    q_factorial,
    q_integer,
    q_stirling2,
)
from aqbernstein.scalars import MixedModeError, Tolerance
from aqbernstein.verify import run_verify

F = Fraction
Q_GRID = [F(1, 2), F(1), F(3, 2), F(2)]
A_GRID = [F(0), F(2, 5), F(1)]
XS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
# float parameters; F(v) of each is its exact value, the exact-mode reference
FLOAT_Q_GRID = [0.5, 1.0, 1.5]
FLOAT_A_GRID = [0.0, 0.4, 1.0]


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


def q_pochhammer(a, q, k):
    """(a;q)_k = prod_{s=0}^{k-1} (1 - a q^s); the empty product is 1."""
    if k < 0:
        raise ValueError(f"q-Pochhammer needs k >= 0, got {k}")
    out = q * 0 + 1
    for s in range(k):
        out *= 1 - a * q**s
    return out


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
            OperatorParams(3, 0.5, float("nan"), allow_any_alpha=True)

    def test_alpha_range_gate(self):
        with pytest.raises(ValueError, match="allow_any_alpha"):
            OperatorParams(3, F(1, 2), F(3, 2))
        p = OperatorParams(3, F(1, 2), F(3, 2), allow_any_alpha=True)
        assert not p.alpha_in_unit_interval

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
        tol = Tolerance()
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    got = sample_nodes(OperatorParams(n, q, alpha))
                    want = sample_nodes(OperatorParams(n, F(q), F(alpha)))
                    assert got[0] == 0 and got[-1] == 1, (n, q)
                    assert all(tol.close(u, float(v)) for u, v in zip(got, want)), \
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
        tol = Tolerance()
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    floats = OperatorParams(n, q, alpha)
                    exact = OperatorParams(n, F(q), F(alpha))
                    for x in XS:
                        got = basis_values(floats, float(x))
                        want = basis_values(exact, x)
                        assert all(tol.close(u, float(v)) for u, v in zip(got, want)), \
                            (n, q, alpha, x)

    def test_nonsingular_at_removable_point(self):
        # x = q^-(n-i-1) zeroes the factor the uncancelled form divides by
        n, i, q = 4, 1, F(1, 2)
        params = OperatorParams(n, q, F(1, 3))
        x = q ** (-(n - i - 1))
        assert basis_values(params, x)[i] == basis_eval(params, i, x)


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
        # differencing the library's g sequence reproduces the closed form
        rng = random.Random(3)
        for n in range(2, 9):
            for q in [F(1, 2), F(1), F(2)]:
                params = OperatorParams(n, q, F(1, 4))
                f = rational_samples(rng, n + 1)
                g = _g_samples(tuple(f), params)
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
                assert apply_pointwise(f, params, F(0)) == f[0]
                assert apply_pointwise(f, params, F(1)) == f[-1]

    def test_pointwise_ones(self):
        params = OperatorParams(5, F(1, 2), F(3, 4))
        for x in XS:
            assert apply_pointwise([F(1)] * 6, params, x) == 1

    def test_float_matches_exact(self):
        rng = random.Random(6)
        tol = Tolerance()
        for n in range(1, 13):
            for q in FLOAT_Q_GRID:
                for alpha in FLOAT_A_GRID:
                    f = [rng.randint(-64, 64) / 8 for _ in range(n + 1)]
                    got = apply_to_samples(f, OperatorParams(n, q, alpha))
                    want = apply_to_samples(
                        [F(v) for v in f], OperatorParams(n, F(q), F(alpha))
                    )
                    for j in range(n + 1):
                        assert tol.close(got.coeff(j), float(want.coeff(j))), \
                            (n, q, alpha, j)

    def test_representation_equivalence(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    f = rational_samples(rng, n + 1)
                    image = apply_to_samples(f, params)
                    for x in [F(0), F(1, 3), F(2, 5), F(1)]:
                        assert poly_eval(image, x) == apply_pointwise(f, params, x)


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
        for n in range(1, 7):
            for q in [F(1, 2), F(1), F(2)]:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    nodes = sample_nodes(params)
                    for k in range(1, n + 1):
                        f = [t**k for t in nodes]
                        xs = [F(t, 2 * n + 1) for t in range(k + 2)]
                        pts = [(x, apply_pointwise(f, params, x)) for x in xs]
                        fitted = poly_fit(pts, k)
                        img = Polynomial(monomial_image(k, params).coeffs)
                        assert img == fitted, (n, q, alpha, k)

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

    def test_range_check(self):
        params = OperatorParams(3, F(1, 2), F(1))
        with pytest.raises(ValueError):
            monomial_image(0, params)
        with pytest.raises(ValueError):
            monomial_image(4, params)


@pytest.fixture(scope="class")
def verify_calls():
    """run_verify(3) with the per-operator and per-q builders counted."""
    calls = {"systems": [], "images": 0, "tables": []}
    build_system = verify.eigensystem_from_images
    build_image = eigen.monomial_image
    build_table = verify.q_stirling2_table

    def system(params, images):
        calls["systems"].append(params)
        return build_system(params, images)

    def image(k, params):
        calls["images"] += 1
        return build_image(k, params)

    def table(size, q):
        calls["tables"].append(q)
        return build_table(size, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "eigensystem_from_images", system)
        mp.setattr(eigen, "monomial_image", image)
        mp.setattr(verify, "q_stirling2_table", table)
        report = run_verify(max_n=3)
    assert report.passed
    return calls


class TestVerify:
    def test_one_eigensystem_per_grid_operator(self, verify_calls):
        systems = verify_calls["systems"]
        assert len(systems) == 75 and len(set(systems)) == 75

    def test_one_set_of_images_per_grid_operator(self, verify_calls):
        # T(t^m), m = 1..n, once per operator: 25 (q, alpha) pairs per n
        assert verify_calls["images"] == 25 * (1 + 2 + 3)

    def test_one_stirling_table_per_q(self, verify_calls):
        assert verify_calls["tables"] == list(verify.Q_GRID)


class TestFaultHook:
    def test_fault_changes_coefficients(self, corrupt_kernel):
        # the corrupted kernel reaches the eigen recursion and verify reports it
        params = OperatorParams(4, F(1, 2), F(1, 2))
        assert eigen.monomial_image(3, params) != monomial_image(3, params)
        report = run_verify(max_n=2)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert failed[0].name == "eigen_relation" and failed[0].counterexample

    def test_wrong_diagonal_caught_by_leading_check(self, corrupt_diagonal):
        # a(k,k) feeds no eigenvector, so only the leading check sees it
        report = run_verify(max_n=2)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["leading_coefficient"]
        assert failed[0].counterexample["k"] == 2

import json
import random
from fractions import Fraction

import pytest

from aqbernstein import eigen
from aqbernstein.bernstein import (
    OperatorParams,
    apply_to_samples,
    falling_products,
    sample_nodes,
)
from aqbernstein.eigen import (
    DegenerateEigenvalueError,
    eigensystem,
    eigensystem_from_dict,
    eigenvalue,
    eigenvalue_difference,
    eigenvector,
)
from aqbernstein.polynomials import Polynomial, poly_eval, poly_scale
from aqbernstein.qcalc import q_factorial, q_integer
from aqbernstein.scalars import Tolerance
from aqbernstein.verify import closed_form_eigenvalue

F = Fraction
Q_GRID = [F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
A_GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def eigen_expand(p, system):
    """Weights e_0..e_n with p = sum_k e_k vectors[k], by back-substitution
    from the top degree down (vectors[k] is monic of degree k)."""
    n = system.params.n
    if p.degree > n:
        raise ValueError(f"degree {p.degree} exceeds the system's n={n}")
    residual = [p.coeff(j) for j in range(n + 1)]
    weights = [0] * (n + 1)
    for k in range(n, -1, -1):
        weights[k] = e = residual[k]
        for j in range(k + 1):
            residual[j] -= e * system.vectors[k].coeff(j)
    return tuple(weights)


def operator_power(p, m, system):
    """T^m p through the eigen-expansion: sum_k e_k lambda_k^m vectors[k]."""
    if m < 0:
        raise ValueError(f"power must be >= 0, got {m}")
    weights = eigen_expand(p, system)
    return Polynomial(tuple(
        sum(e * system.lambdas[k] ** m * system.vectors[k].coeff(j)
            for k, e in enumerate(weights))
        for j in range(system.params.n + 1)))


def example_degree3_coeffs(q, alpha):
    """Closed-form coefficients of the monic degree-3 eigenvector at n = 3."""
    den = (1 - alpha) * q**4 + q**3 + 2 * q**2 + (1 + alpha) * q + 1
    a2 = -((1 - alpha) * q**4 + (2 - alpha) * q**3 + 3 * q**2
           + (2 * alpha + 1) * q + 2) / den
    a1 = ((1 - alpha) * q**3 + q**2 + alpha * q + 1) / den
    return (F(0), a1, a2, F(1))


class TestEigenvalue:
    def test_first_two_are_one(self):
        params = OperatorParams(5, F(2, 3), F(1, 3))
        assert eigenvalue(0, params) == 1
        assert eigenvalue(1, params) == 1

    def test_n2_q_half_alpha_one(self):
        assert eigenvalue(2, OperatorParams(2, F(1, 2), F(1))) == F(1, 3)

    def test_top_eigenvalue_vanishes_at_alpha_zero(self):
        for q in Q_GRID:
            assert eigenvalue(2, OperatorParams(2, q, F(0))) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue(3, OperatorParams(2, F(1, 2), F(1)))

    def test_matches_factorial_formula(self):
        # the product form equals the paper's closed form exactly
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    for k in range(2, n + 1):
                        assert eigenvalue(k, params) == closed_form_eigenvalue(k, params)


class TestProductForm:
    def test_agrees_with_closed_form(self):
        # G_r = q^(r(r-1)/2) [n-1]_q! / ([n-r]_q! [n]_q^(r-1)), G_0 = 1
        for n in range(2, 9):
            for q in Q_GRID:
                falling = falling_products(OperatorParams(n, q, F(1, 2)), n)
                assert len(falling) == n + 1 and falling[0] == 1
                for r in range(1, n + 1):
                    assert falling[r] == (
                        q ** (r * (r - 1) // 2)
                        * q_factorial(n - 1, q)
                        / (q_factorial(n - r, q) * q_integer(n, q) ** (r - 1))
                    ), (n, q, r)

    def test_alpha_one_is_q_bernstein_eigenvalue(self):
        for n in range(2, 8):
            for q in Q_GRID:
                params = OperatorParams(n, q, F(1))
                for k in range(2, n + 1):
                    expected = (
                        q ** (k * (k - 1) // 2)
                        * q_factorial(n, q)
                        / (q_factorial(n - k, q) * q_integer(n, q) ** k)
                    )
                    assert eigenvalue(k, params) == expected

    def test_top_vanishes_at_alpha_zero(self):
        assert eigenvalue(4, OperatorParams(4, F(5, 3), F(0))) == 0


class TestEigenvalueDifference:
    def test_identity_with_direct_subtraction(self):
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    lams = [eigenvalue(k, params) for k in range(n + 1)]
                    for k in range(2, n + 1):
                        for m in range(k):
                            assert eigenvalue_difference(k, m, params) == \
                                lams[k] - lams[m], (n, q, alpha, k, m)

    def test_order_validation(self):
        params = OperatorParams(4, F(1, 2), F(1))
        with pytest.raises(ValueError):
            eigenvalue_difference(2, 2, params)
        with pytest.raises(ValueError):
            eigenvalue_difference(1, 2, params)

    def test_exact_collision_detected(self):
        # alpha = 2 makes lambda_2 = lambda_1 = 1 at n = 2, q = 1
        params = OperatorParams(2, F(1), F(2), allow_any_alpha=True)
        assert eigenvalue(2, params) == 1
        with pytest.raises(DegenerateEigenvalueError):
            eigenvalue_difference(2, 1, params)

    def test_float_underflow_detected(self):
        # [1023]_2 ~ 9e307, so lambda_2 - lambda_1 ~ -1.1e-308 is subnormal
        params = OperatorParams(1023, 2.0, 1.0)
        with pytest.raises(DegenerateEigenvalueError):
            eigenvalue_difference(2, 1, params)

    def test_float_accuracy_at_large_n(self):
        # direct float subtraction loses everything here; the factored form
        # must track the exact value to near machine precision
        for k, m in [(2, 1), (4, 2), (4, 3)]:
            got = eigenvalue_difference(k, m, OperatorParams(80, 2.0, 0.5))
            params = OperatorParams(80, F(2), F(1, 2))
            want = float(eigenvalue(k, params) - eigenvalue(m, params))
            assert got != 0 and abs(got - want) <= 1e-12 * abs(want)


class TestEigenvector:
    def test_degree_two_is_universal(self):
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    vec = eigenvector(2, OperatorParams(n, q, alpha))
                    assert vec == Polynomial((0, -1, 1))

    def test_degree_three_closed_form(self):
        for q in [F(1, 2), F(2, 3), F(1), F(3, 2)]:
            for alpha in [F(0), F(2, 5), F(1)]:
                vec = eigenvector(3, OperatorParams(3, q, alpha))
                assert vec.coeffs == example_degree3_coeffs(q, alpha), (q, alpha)

    def test_classical_bernstein_degree_three(self):
        vec = eigenvector(3, OperatorParams(3, F(1), F(1)))
        assert vec == Polynomial((0, F(1, 2), F(-3, 2), 1))

    def test_low_degrees(self):
        params = OperatorParams(4, F(1, 2), F(1, 2))
        assert eigenvector(0, params) == Polynomial((1,))
        assert eigenvector(1, params) == Polynomial((0, 1))

    def test_alpha_gate(self):
        params = OperatorParams(3, F(1, 2), F(3, 2), allow_any_alpha=True)
        vec = eigenvector(2, params)  # still well posed at this alpha
        assert vec.degree == 2


class TestEigenSystem:
    def test_n1(self):
        system = eigensystem(OperatorParams(1, F(3), F(0)))
        assert system.lambdas == (1, 1)
        assert system.vectors == (Polynomial((1,)), Polynomial((0, 1)))

    def test_n2_known_values(self):
        system = eigensystem(OperatorParams(2, F(1, 2), F(1)))
        assert system.lambdas == (1, 1, F(1, 3))
        assert system.vectors[2] == Polynomial((0, -1, 1))

    def test_eigen_relation_exact(self):
        for n in range(1, 7):
            for q in [F(1, 3), F(1), F(2)]:
                for alpha in [F(0), F(1, 2), F(1)]:
                    params = OperatorParams(n, q, alpha)
                    system = eigensystem(params)
                    nodes = sample_nodes(params)
                    for k in range(n + 1):
                        p = system.vectors[k]
                        image = apply_to_samples(
                            [poly_eval(p, t) for t in nodes], params)
                        assert image == poly_scale(p, system.lambdas[k])

    def test_one_falling_table_per_system(self, monkeypatch):
        # G_0..G_n is built once and read by every lambda_k and difference;
        # per-call tables give bit-identical results in both modes
        built = []

        def counted(params, m):
            built.append(m)
            return falling_products(params, m)

        monkeypatch.setattr(eigen, "falling_products", counted)
        for params in [OperatorParams(12, F(3, 2), F(2, 5)), OperatorParams(12, 1.5, 0.4)]:
            built.clear()
            system = eigensystem(params)
            assert built == [12]
            assert system.lambdas == tuple(eigenvalue(k, params) for k in range(13))
            assert system.vectors == tuple(eigenvector(k, params) for k in range(13))

    def test_strictly_decreasing_from_one(self):
        for n in range(2, 11):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    lams = [eigenvalue(k, params) for k in range(n + 1)]
                    assert lams[0] == lams[1] == 1
                    for k in range(2, n + 1):
                        assert lams[k] < lams[k - 1]
                    assert lams[n] >= 0

    def test_monic_triangular_family(self):
        system = eigensystem(OperatorParams(6, F(2, 3), F(1, 4)))
        for k, vec in enumerate(system.vectors):
            assert vec.degree == k
            assert vec.coeff(k) == 1
            if k >= 1:
                assert vec.coeff(0) == 0

    def test_interior_eigenvectors_vanish_at_endpoints(self):
        for n in range(2, 8):
            system = eigensystem(OperatorParams(n, F(3, 2), F(2, 5)))
            for k in range(2, n + 1):
                assert system.lambdas[k] != 1
                assert poly_eval(system.vectors[k], F(0)) == 0
                assert poly_eval(system.vectors[k], F(1)) == 0

    def test_distinctness_flag(self):
        assert eigensystem(OperatorParams(3, F(1, 2), F(1))).distinctness_verified
        out = eigensystem(OperatorParams(3, F(1, 2), F(6, 5), allow_any_alpha=True))
        assert not out.distinctness_verified

    def test_alpha_outside_refused_by_default(self):
        with pytest.raises(ValueError):
            eigensystem(OperatorParams(3, F(1, 2), F(6, 5)))

    def test_json_roundtrip(self):
        system = eigensystem(OperatorParams(4, F(1, 2), F(2, 5)))
        blob = json.dumps(system.as_dict())
        assert eigensystem_from_dict(json.loads(blob)) == system

    def test_float_mode_relation(self):
        params = OperatorParams(5, 0.5, 0.25)
        system = eigensystem(params)
        nodes = sample_nodes(params)
        tol = Tolerance(rel_tol=1e-9, abs_tol=1e-12)
        for k in range(6):
            p = system.vectors[k]
            image = apply_to_samples([poly_eval(p, t) for t in nodes], params)
            want = poly_scale(p, system.lambdas[k])
            for j in range(6):
                assert tol.close(image.coeff(j), want.coeff(j)), (k, j)


STIRLING_CANCELS = pytest.mark.xfail(
    strict=True,
    reason="the explicit-sum q_stirling2 cancels in floats at q = 1 too: "
    "S(20, r) loses 7 digits, eigenvector coefficients err by 5e-7",
)


class TestFloatAgreesWithExact:
    # pins the float kernels to exact mode entry by entry, where float mode
    # is accurate
    @pytest.mark.parametrize("q, n", [
        (F(1), 10),
        pytest.param(F(1), 20, marks=STIRLING_CANCELS),
        (F(3, 2), 10),
        (F(3, 2), 20),
        (F(2), 10),
        (F(2), 20),
    ])
    def test_eigensystem(self, q, n):
        alpha = F(2, 5)
        exact = eigensystem(OperatorParams(n, q, alpha))
        approx = eigensystem(OperatorParams(n, float(q), float(alpha)))

        def close(got, want):
            assert isinstance(got, float)
            if want == 0:
                return abs(got) <= 1e-12
            return abs(got - float(want)) <= 1e-12 * abs(float(want))

        for k in range(n + 1):
            assert close(approx.lambdas[k], exact.lambdas[k]), (k,)
            for j in range(k + 1):
                assert close(approx.vectors[k].coeff(j), exact.vectors[k].coeff(j)), (k, j)


class TestExpansion:
    """The monic eigenvectors are a basis of the polynomials of degree <= n."""

    def test_indicator(self):
        system = eigensystem(OperatorParams(4, F(1, 2), F(1, 2)))
        for k in range(5):
            e = eigen_expand(system.vectors[k], system)
            assert e == tuple(1 if j == k else 0 for j in range(5))

    def test_x_squared(self):
        system = eigensystem(OperatorParams(3, F(2, 3), F(1)))
        e = eigen_expand(Polynomial((0, 0, 1)), system)
        assert e == (0, 1, 1, 0)  # x^2 = (x^2 - x) + x

    def test_roundtrip(self):
        rng = random.Random(6)
        for n in range(1, 8):
            system = eigensystem(OperatorParams(n, F(3, 2), F(1, 3)))
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            p = Polynomial(tuple(coeffs))
            e = eigen_expand(p, system)
            rebuilt = Polynomial(tuple(
                sum(w * system.vectors[k].coeff(j) for k, w in enumerate(e))
                for j in range(n + 1)))
            assert rebuilt == p

    def test_degree_overflow(self):
        system = eigensystem(OperatorParams(2, F(1, 2), F(1)))
        with pytest.raises(ValueError):
            eigen_expand(Polynomial((0, 0, 0, 1)), system)


class TestOperatorPower:
    """Powers of T through the eigensystem agree with applying T directly."""

    def test_zeroth_power_is_identity(self):
        system = eigensystem(OperatorParams(4, F(1, 2), F(2, 5)))
        p = Polynomial((F(1, 3), F(-2), F(0), F(1)))
        assert operator_power(p, 0, system) == p

    def test_first_power_matches_direct(self):
        rng = random.Random(7)
        for n in range(1, 7):
            params = OperatorParams(n, F(2), F(3, 4))
            system = eigensystem(params)
            nodes = sample_nodes(params)
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n + 1)]
            p = Polynomial(tuple(coeffs))
            direct = apply_to_samples([poly_eval(p, t) for t in nodes], params)
            assert operator_power(p, 1, system) == direct

    def test_third_power_matches_iterated(self):
        rng = random.Random(8)
        for n in range(1, 7):
            params = OperatorParams(n, F(1, 2), F(1, 5))
            system = eigensystem(params)
            nodes = sample_nodes(params)
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n + 1)]
            p = Polynomial(tuple(coeffs))
            iterated = p
            for _ in range(3):
                iterated = apply_to_samples(
                    [poly_eval(iterated, t) for t in nodes], params)
            assert operator_power(p, 3, system) == iterated

    def test_negative_power_rejected(self):
        system = eigensystem(OperatorParams(2, F(1, 2), F(1)))
        with pytest.raises(ValueError):
            operator_power(Polynomial((0, 1)), -1, system)

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqbernstein import bernstein, eigen, polynomials, verify
from aqbernstein.bernstein import (
    OperatorParams,
    apply_to_samples,
    sample_nodes,
)
from aqbernstein.eigen import (
    DegenerateEigenvalueError,
    eigensystem,
    eigensystem_from_dict,
    eigenvalue,
    eigenvector,
    spectrum,
)
from aqbernstein.polynomials import Polynomial, poly_eval
from aqbernstein.scalars import MixedModeError
from aqbernstein.verify import closed_form_eigenvalue, q_integer
from test_operator import q_factorial

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

    @pytest.mark.parametrize("n, q, alpha, top", [(60, 0.5, 0.4, 60), (100, 0.3, 0.0, 36)])
    def test_float_spectrum_without_cancellation(self, n, q, alpha, top):
        # each factor of G_k is q^t [n-t]_q/[n]_q, not 1 - [t]_q/[n]_q, which
        # cancelled for q < 1 (3.1e-5 and 1.0 here); every lambda_k and gap in
        # float's normal range now comes within a few ulps of the exact value
        # (at q = 0.3 everything from k = 35 on is below that range)
        lams, gaps = spectrum(OperatorParams(n, q, alpha), n)
        exact_lams, exact_gaps = spectrum(OperatorParams(n, F(q), F(alpha)), top)
        assert top == n or abs(float(exact_lams[top])) < sys.float_info.min
        checked = 0
        for got, want in [*zip(lams, exact_lams), *zip(gaps, exact_gaps)]:
            want = float(want)
            if abs(want) >= sys.float_info.min:
                assert abs(got - want) <= 1e-13 * abs(want), (got, want)
                checked += 1
        assert checked > top


def running_difference(gaps, k, m):
    """lambda_k - lambda_m summed from the gaps as the eigenvector recursion
    sums them, from i = k-1 down to m."""
    diff = gaps[k - 1]
    for i in range(k - 2, m - 1, -1):
        diff = diff + gaps[i]
    return diff


def substitute_gap(monkeypatch, i, value):
    """Make eigen.spectrum return ``value`` as the gap lambda_{i+1} - lambda_i."""
    clean = eigen.spectrum

    def substituted(params, top):
        lambdas, gaps = clean(params, top)
        return lambdas, (*gaps[:i], value, *gaps[i + 1:])

    monkeypatch.setattr(eigen, "spectrum", substituted)


class TestEigenvalueDifference:
    """lambda_k - lambda_m as the eigenvector recursion takes it: a running
    sum of the gaps that :func:`spectrum` returns."""

    def test_identity_with_direct_subtraction(self):
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    lams, gaps = spectrum(params, n)
                    assert len(lams) == n + 1 and len(gaps) == n
                    for k in range(2, n + 1):
                        for m in range(k):
                            assert running_difference(gaps, k, m) == \
                                lams[k] - lams[m], (n, q, alpha, k, m)

    def test_gaps_have_one_sign(self):
        # so their running sums add without cancellation
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    gaps = spectrum(OperatorParams(n, q, alpha), n)[1]
                    assert gaps[0] == 0
                    assert all(g < 0 for g in gaps[1:]), (n, q, alpha, gaps)

    def test_order_validation(self):
        params = OperatorParams(4, F(1, 2), F(1))
        with pytest.raises(ValueError):
            spectrum(params, 5)
        with pytest.raises(ValueError):
            spectrum(params, -1)

    def test_exact_collision_detected(self, monkeypatch):
        # in floats G_39 underflows to 0 at n = 60, q = 1/3, so the gap
        # lambda_40 - lambda_39 is 0.0 (the float recursion reports that as
        # an underflow, test_float_gap_zero_is_underflow); exact
        # differences come from the image diagonal, here forced to
        # L_3 = L_2. A difference that comes out zero is refused, not
        # divided by
        assert spectrum(OperatorParams(60, 1 / 3, 0.5), 40)[1][39] == 0
        clean = bernstein.image_rows

        def collided(params, top):
            den, X = clean(params, top)
            X[3][3] = X[2][2]
            return den, X

        monkeypatch.setattr(eigen, "image_rows", collided)
        params = OperatorParams(4, F(1, 2), F(1, 2))
        for compute in [lambda: eigenvector(3, params), lambda: eigensystem(params)]:
            with pytest.raises(DegenerateEigenvalueError, match=r"lambda_3 - lambda_2 "
                               r"vanished for n=4, q=1/2, alpha=1/2"):
                compute()

    def test_float_underflow_detected(self, monkeypatch):
        # [1023]_2 ~ 9e307, so lambda_2 - lambda_1 = -1/[1023]_2 ~ -1.1e-308
        # is subnormal (monomial_image overflows at [1024]_2 first)
        gap = spectrum(OperatorParams(1023, 2.0, 1.0), 2)[1][1]
        assert gap == -(2.0**-1023) and -gap < sys.float_info.min
        substitute_gap(monkeypatch, 1, gap)
        params = OperatorParams(4, 0.5, 0.5)
        for compute in [lambda: eigensystem(params), lambda: eigenvector(2, params)]:
            with pytest.raises(DegenerateEigenvalueError,
                               match=r"lambda_2 - lambda_1 underflowed in float mode "
                                     r"\(n=4, q=0.5, alpha=0.5\)"):
                compute()

    def test_float_gap_zero_is_underflow(self):
        # every gap is negative in exact arithmetic, so a float difference of
        # exactly 0.0 has underflowed; it was reported as "vanished"
        for k, params in [(40, OperatorParams(60, 1 / 3, 0.5)),
                          (60, OperatorParams(60, 0.5, 0.4))]:
            with pytest.raises(DegenerateEigenvalueError,
                               match=rf"lambda_{k} - lambda_{k - 1} underflowed in float mode "
                                     rf"\(n=60, q={params.q}, alpha={params.alpha}\)"):
                eigenvector(k, params)

    def test_float_accuracy_at_large_n(self):
        # direct float subtraction loses everything here; the gap sums must
        # track the exact value to near machine precision
        gaps = spectrum(OperatorParams(80, 2.0, 0.5), 4)[1]
        lams = spectrum(OperatorParams(80, F(2), F(1, 2)), 4)[0]
        for k, m in [(2, 1), (4, 2), (4, 3)]:
            got = running_difference(gaps, k, m)
            want = float(lams[k] - lams[m])
            assert got != 0 and abs(got - want) <= 1e-12 * abs(want)


class TestEigenvector:
    def test_degree_two_is_universal(self):
        for n in range(2, 9):
            for q in Q_GRID:
                for alpha in A_GRID:
                    vec = eigenvector(2, OperatorParams(n, q, alpha))
                    assert vec == Polynomial((0, -1, 1))

    def test_degree_three_closed_form(self):
        # verify's closed form of the n = 3 degree-3 eigenvector, one case
        # per pair for degree 2 and one for degree 3
        systems = [eigensystem(OperatorParams(3, q, alpha))
                   for q in [F(1, 2), F(2, 3), F(1), F(3, 2)] for alpha in [F(0), F(2, 5), F(1)]]
        result = verify.check_example_fixed_points(systems)
        assert result.passed and result.cases == 24, result

    def test_classical_bernstein_degree_three(self):
        vec = eigenvector(3, OperatorParams(3, F(1), F(1)))
        assert vec == Polynomial((0, F(1, 2), F(-3, 2), 1))

    @pytest.mark.parametrize("q, alpha", [(F(1, 2), F(2, 5)), (0.5, 0.4)])
    @pytest.mark.parametrize("k", [4, -1])
    def test_degree_out_of_range(self, q, alpha, k):
        # the image kernel refuses the degree before it builds anything
        with pytest.raises(ValueError, match=rf"^need 0 <= k <= n, got k={k}, n=3$"):
            eigenvector(k, OperatorParams(3, q, alpha))

    def test_low_degrees(self):
        params = OperatorParams(4, F(1, 2), F(1, 2))
        assert eigenvector(0, params) == Polynomial((1,))
        assert eigenvector(1, params) == Polynomial((0, 1))


def recursion_oracle(k, params, images, gaps):
    """Coefficients of p_k by the top-down recursion in scalar arithmetic,
    one product and one sum at a time (each reduced, in exact mode), from
    the images T(t^m), m <= k, and the gaps lambda_{i+1} - lambda_i."""
    table = params.table
    if k == 1:
        return (table.zero, table.one)
    c = [table.zero] * (k + 1)
    c[k] = table.one
    diff = table.zero
    for j in range(1, k + 1):
        total = table.zero
        for i in range(j):
            total = total + c[k - i] * images[k - i].coeffs[k - j]
        diff = diff + gaps[k - j]
        c[k - j] = total / diff
    return tuple(c)


def exact_parts(coeffs):
    """Each exact coefficient as (type, numerator, denominator)."""
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


@given(st.integers(1, 10**40), st.integers(1, 10**40), st.integers(-10**40, 10**40),
       st.lists(st.sampled_from([2, 3, 5, 7]), max_size=12).map(math.prod))
def test_one_gcd_gives_the_new_denominator(w, S, T, shared):
    # the exact recursion's step: for c = T / (w S), w (S // gcd(T, S)) is
    # lcm(w, denominator of c), and T // gcd(T, S) is c over it; shared
    # prime factors make the three numbers meet
    w, S, T = w * shared, S * shared, T * shared
    h = math.gcd(T, S)
    assert w * (S // h) == math.lcm(w, Fraction(T, w * S).denominator)
    assert Fraction(T // h, w * (S // h)) == Fraction(T, w * S)


@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
                          st.integers(1, 10**12)), max_size=12),
       st.integers(-10**30, 10**30),
       st.lists(st.sampled_from([2, 3, 5, 7]), max_size=12).map(math.prod))
def test_nested_growth_equals_rescaled_dot(known, top, shared):
    # the exact recursion's dot product at r = 0: each v[m] is over the
    # denominator it was formed with, and nested multiplication applies the
    # growth factors g[m] of the later steps; the sum must equal the dot
    # product of the numerators rescaled at every step onto the current
    # denominator; shared prime factors make the numbers meet
    k = len(known) + 1
    v = [0] + [x * shared for x, _, _ in known] + [1]
    row = [None] + [y for _, y, _ in known] + [top]
    g = [1] + [z * shared for _, _, z in known] + [1]
    total = row[k]
    for m in range(k - 1, 0, -1):
        total = total * g[m] + v[m] * row[m]
    scaled = v[:]
    for j in range(k - 1, 0, -1):  # step j grows the denominator by g[j]
        scaled[j + 1:] = [x * g[j] for x in scaled[j + 1:]]
    assert total == sum(scaled[m] * row[m] for m in range(1, k + 1))


class TestIntegerRecursion:
    """The kernel carries p_k as integer numerators over one denominator;
    its output must be the scalar recursion's, value for value."""

    @staticmethod
    def assert_matches_oracle(params, form):
        got = eigensystem(params).vectors
        images = {m: bernstein.monomial_image(m, params) for m in range(1, params.n + 1)}
        gaps = spectrum(params, params.n)[1]
        for k in range(params.n + 1):
            want = recursion_oracle(k, params, images, gaps)
            assert form(got[k].coeffs) == form(want), (params, k)

    @pytest.mark.parametrize("q", [F(1, 2), F(1), F(3, 2), F(7, 3)])
    def test_exact_equals_oracle(self, q):
        for alpha in [F(0), F(2, 5), F(1)]:
            for n in range(1, 17):
                self.assert_matches_oracle(OperatorParams(n, q, alpha), exact_parts)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2)])
    def test_exact_equals_oracle_at_n24(self, q):
        self.assert_matches_oracle(OperatorParams(24, q, F(2, 5)), exact_parts)

    @pytest.mark.parametrize("n", [10, 20, 30])
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
    def test_float_bits_equal_oracle(self, q, n):
        self.assert_matches_oracle(OperatorParams(n, q, 0.4), repr)

    @staticmethod
    def assert_vectors_match_system(params):
        vectors = eigensystem(params).vectors
        for k in range(params.n + 1):
            got = eigenvector(k, params).coeffs
            assert repr(got) == repr(vectors[k].coeffs), (params, k)

    def test_eigenvector_equals_system_vector(self):
        # eigenvector(k) builds its image matrix up to k and eigensystem up
        # to n: the same integers but for the common factor (b N_n)^(n-k),
        # which cancels from every step of the exact recursion; the output
        # must not show which matrix it read
        for n in range(1, 13):
            for q in [F(1, 2), F(1), F(3, 2)]:
                for params in [OperatorParams(n, q, F(2, 5)), OperatorParams(n, float(q), 0.4)]:
                    self.assert_vectors_match_system(params)
        for q in [F(1, 2), F(3, 2)]:
            self.assert_vectors_match_system(OperatorParams(24, q, F(2, 5)))


# SHA-256 over repr of every exact eigensystem, eigenvector(k) and
# monomial_image(k) of the cases below, pinned while the images were still
# built one Fraction operation at a time; a change that only makes exact
# mode faster must leave every exact result, type and reduced form included,
# as it was
EXACT_DIGEST = "c1ea18aac1bf7bc47f9da720f4b88ff4b85cd59f8a789aba83868ed269ab78a3"


def test_exact_output_digest():
    cases = [(n, q, alpha) for n in range(1, 13) for q in verify.Q_GRID
             for alpha in (F(0), F(2, 5), F(1))]
    cases += [(24, q, alpha) for q in (F(1, 2), F(3, 2)) for alpha in (F(0), F(2, 5), F(1))]
    digest = hashlib.sha256()
    for n, q, alpha in cases:
        params = OperatorParams(n, q, alpha)
        digest.update(repr(eigensystem(params)).encode())
        for k in range(n + 1):
            digest.update(repr(eigenvector(k, params)).encode())
        for k in range(1, n + 1):
            digest.update(repr(bernstein.monomial_image(k, params)).encode())
    assert digest.hexdigest() == EXACT_DIGEST


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
        systems = [eigensystem(OperatorParams(n, q, alpha)) for n in range(1, 7)
                   for q in [F(1, 3), F(1), F(2)] for alpha in [F(0), F(1, 2), F(1)]]
        result = verify.check_eigen_relation(systems)
        assert result.passed and result.cases == 9 * sum(n + 1 for n in range(1, 7)), result

    def test_one_falling_table_per_system(self, monkeypatch):
        # in float mode one spectrum call builds G_0..G_n and every lambda_k
        # and gap that the recursions read; an exact system takes both from
        # the image diagonal and calls none. Per-call spectra give
        # bit-identical results in float mode, and the product form equals
        # the diagonal in exact mode
        built = []
        clean = eigen.spectrum

        def counted(params, top):
            built.append(top)
            return clean(params, top)

        monkeypatch.setattr(eigen, "spectrum", counted)
        for params in [OperatorParams(12, F(3, 2), F(2, 5)), OperatorParams(12, 1.5, 0.4)]:
            built.clear()
            system = eigensystem(params)
            assert built == ([12] if params.mode == "float" else [])
            assert system.lambdas == tuple(eigenvalue(k, params) for k in range(13))
            assert system.vectors == tuple(eigenvector(k, params) for k in range(13))

    def test_one_triangle_per_image_set(self, monkeypatch):
        # the image matrix of one call reads one q-Stirling triangle, built
        # to row top and sized by the highest image, not by n: a triangle
        # grown to row n + 1 for a small k at a large n made the convergence
        # tables several times slower. T(t^1) = t needs none
        built = []
        clean_rows = bernstein.q_stirling2_rows

        def rows(k, qints):
            built.append(("rows", k, len(qints)))
            return clean_rows(k, qints)

        monkeypatch.setattr(bernstein, "q_stirling2_rows", rows)
        for params in [OperatorParams(12, F(3, 2), F(2, 5)), OperatorParams(12, 1.5, 0.4)]:
            built.clear()
            eigensystem(params)
            assert built == [("rows", 12, 14)]
        for params in [OperatorParams(12, 0.5, 0.4), OperatorParams(200, F(3, 2), F(2, 5))]:
            for k in (1, 3, 12):
                for build in (eigenvector, bernstein.monomial_image):
                    built.clear()
                    build(k, params)
                    assert built == [("rows", k, k + 2)][: k - 1], (params, k)

    def test_one_table_per_system(self, monkeypatch):
        # the spectrum, the monomial images and every recursion read the
        # q-sequences of one table, built once per OperatorParams object
        built = []
        clean = bernstein.QTable

        def counted(*args):
            built.append(args)
            return clean(*args)

        monkeypatch.setattr(bernstein, "QTable", counted)
        for params in [OperatorParams(12, F(3, 2), F(2, 5)), OperatorParams(12, 1.5, 0.4)]:
            built.clear()
            eigensystem(params)
            eigensystem(params)
            assert len(built) == 1
            assert params.table is params.table
        # an equal but distinct object builds its own table
        OperatorParams(12, F(3, 2), F(2, 5)).table
        assert len(built) == 2

    def test_recursion_refuses_non_finite(self, monkeypatch):
        # an image coefficient past float range overflows p_3's x^2
        # coefficient; the recursion refuses it instead of returning inf
        clean = bernstein.image_rows

        def huge(params, top):
            den, X = clean(params, top)
            X[2][3] = 1e308  # a(2, 3), the x^2 coefficient of T(t^3)
            return den, X

        monkeypatch.setattr(eigen, "image_rows", huge)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite float in eigenvector: (-?inf|nan) "
                                 r"\(n=4, q=0.5, alpha=0.5, k=3\)"):
            eigenvector(3, OperatorParams(4, 0.5, 0.5))

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

    def test_alpha_outside_refused_by_default(self):
        with pytest.raises(ValueError):
            eigensystem(OperatorParams(3, F(1, 2), F(6, 5)))

    def test_json_roundtrip(self):
        system = eigensystem(OperatorParams(4, F(1, 2), F(2, 5)))
        blob = json.dumps(system.as_dict())
        assert eigensystem_from_dict(json.loads(blob)) == system

    @pytest.mark.parametrize("key, value, message", [
        ("n", 3.9, r"n must be an integer >= 1, got 3\.9"),
        ("n", True, r"n must be an integer >= 1, got True"),
        ("lambdas", 2, r"n=3 needs 4 lambdas and vectors, got 2 and 4"),
        ("vectors", 3, r"n=3 needs 4 lambdas and vectors, got 4 and 3"),
    ])
    def test_from_dict_refuses_malformed(self, key, value, message):
        # a float n used to be truncated and a short list accepted; value
        # replaces n, or is the length a list is cut to
        obj = eigensystem(OperatorParams(3, F(1, 2), F(2, 5))).as_dict()
        obj[key] = value if key == "n" else obj[key][:value]
        with pytest.raises(ValueError, match=message):
            eigensystem_from_dict(obj)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", pytest.param(
        "1" + "0" * 400, id="integer-past-float-range")])
    @pytest.mark.parametrize("key, index", [("lambdas", (2,)), ("vectors", (3, 1))],
                             ids=["eigenvalue", "coefficient"])
    def test_from_dict_refuses_non_finite(self, text, key, index):
        # json.loads reads the first three tokens as floats, which used to
        # load as a nan or infinite eigenvalue or coefficient; the integer
        # past float range raised OverflowError
        obj = eigensystem(OperatorParams(3, 0.5, 0.4)).as_dict()
        target = obj[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = json.loads(text)
        with pytest.raises(ValueError, match="must be finite"):
            eigensystem_from_dict(obj)

    @pytest.mark.parametrize("mode, key, index", [
        ("exact", "lambdas", None),  # float eigenvalues for an exact operator
        ("exact", "vectors", 2),  # a float eigenvector in an exact dict
        ("float", "vectors", 2),  # an exact eigenvector in a float dict
    ])
    def test_from_dict_refuses_mixed_modes(self, mode, key, index):
        # the dict comes from outside the program: every eigenvalue and
        # coefficient must be in the mode of q and alpha, never mixed
        exact = OperatorParams(3, F(1, 2), F(2, 5))
        params = exact if mode == "exact" else OperatorParams(3, 0.5, 0.4)
        other = eigensystem(OperatorParams(3, 0.5, 0.4) if mode == "exact" else exact)
        obj, swapped = eigensystem(params).as_dict(), other.as_dict()
        if index is None:
            obj[key] = swapped[key]
        else:
            obj[key][index] = swapped[key][index]
        with pytest.raises(MixedModeError):
            eigensystem_from_dict(obj)

    def test_float_json_roundtrip(self):
        system = eigensystem(OperatorParams(6, 1.5, 0.4))
        assert eigensystem_from_dict(json.loads(json.dumps(system.as_dict()))) == system

    def test_from_dict_refuses_swapped_vectors(self):
        obj = eigensystem(OperatorParams(3, F(1, 2), F(2, 5))).as_dict()
        obj["vectors"][2], obj["vectors"][3] = obj["vectors"][3], obj["vectors"][2]
        with pytest.raises(ValueError, match=r"vectors\[2\] is not monic of degree 2"):
            eigensystem_from_dict(obj)

    def test_from_dict_refuses_non_monic_vector(self):
        obj = eigensystem(OperatorParams(3, F(1, 2), F(2, 5))).as_dict()
        obj["vectors"][3][3] = {"num": "2", "den": "1"}
        with pytest.raises(ValueError, match=r"vectors\[3\] is not monic of degree 3"):
            eigensystem_from_dict(obj)

    def test_from_dict_refuses_alpha_outside(self):
        obj = eigensystem(OperatorParams(2, F(1, 2), F(1))).as_dict()
        obj["alpha"] = {"num": "6", "den": "5"}
        with pytest.raises(ValueError, match=r"alpha=6/5 is outside \[0,1\]"):
            eigensystem_from_dict(obj)

    def test_float_mode_relation(self):
        params = OperatorParams(5, 0.5, 0.25)
        system = eigensystem(params)
        nodes = sample_nodes(params)
        for k in range(6):
            p = system.vectors[k]
            image = apply_to_samples([poly_eval(p, t) for t in nodes], params)
            want = Polynomial(tuple([system.lambdas[k] * c for c in p.coeffs]))
            for j in range(6):
                assert math.isclose(image.coeff(j), want.coeff(j),
                                    rel_tol=1e-9, abs_tol=1e-12), (k, j)


def test_kernels_skip_the_public_check(monkeypatch):
    # the kernels build polynomials from coefficients already in the
    # operator's mode, so they never reach the public constructor's mode
    # check and conversion; with both made to raise, every result is as before
    cases = [OperatorParams(n, q, alpha) for n in (1, 5)
             for q, alpha in ((F(1, 2), F(2, 5)), (1.5, 0.4))]

    def results():
        out = []
        for params in cases:
            system = eigensystem(params)
            one = params.table.one
            samples = [one * (i * 7 % 5 - 2) / (i + 1) for i in range(params.n + 1)]
            out += [system, eigensystem_from_dict(json.loads(json.dumps(system.as_dict()))),
                    apply_to_samples(samples, params), apply_to_samples(sample_nodes(params), params)]
            out += [eigenvector(k, params) for k in range(params.n + 1)]
        return repr(out)

    clean = results()

    def refuse(*args):
        raise AssertionError("a kernel-built polynomial was checked again")

    monkeypatch.setattr(polynomials, "common_mode", refuse)
    monkeypatch.setattr(polynomials, "coerce", refuse)
    with pytest.raises(AssertionError, match="checked again"):
        Polynomial((F(1), 2))
    assert results() == clean


RECURSION_FLOOR = pytest.mark.xfail(
    strict=True,
    reason="the float eigenvector recursion loses digits at q = 1, n = 20 "
    "even from accurate images and gaps: coefficients err by 5.1e-12",
)


class TestFloatAgreesWithExact:
    # pins the float kernels to exact mode entry by entry, where float mode
    # is accurate
    @pytest.mark.parametrize("q, n", [
        (F(1), 10),
        pytest.param(F(1), 20, marks=RECURSION_FLOOR),
        (F(3, 2), 10),
        (F(3, 2), 20),
        (F(2), 10),
        (F(2), 20),
        (F(1, 2), 10),
        (F(3, 2), 41),  # past n = 40, where [n]_q^k leaves float range
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

    def test_small_degree_at_large_n(self):
        # p_12 at n = 200, q = 1/2, whose coefficients erred by 8.2
        # (relative) while its images took explicit-sum q-Stirling numbers
        exact = eigenvector(12, OperatorParams(200, F(1, 2), F(2, 5)))
        approx = eigenvector(12, OperatorParams(200, 0.5, 0.4))
        for j in range(1, 13):
            want = float(exact.coeff(j))
            assert abs(approx.coeff(j) - want) <= 1e-11 * abs(want), j
        assert approx.coeff(0) == exact.coeff(0) == 0

    def test_finite_far_past_the_power_range(self):
        # the images form no [n]_q^(k-r), which leaves float range from
        # n = 41 at q = 3/2 ([n]_q^n is about 10^7000 at n = 200)
        system = eigensystem(OperatorParams(200, 1.5, 0.4))
        assert all(map(math.isfinite, system.lambdas))
        assert all(math.isfinite(c) for p in system.vectors for c in p.coeffs)


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

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqbernstein.polynomials import Polynomial, poly_eval, poly_scale
from aqbernstein.scalars import MixedModeError

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
small_polys = st.lists(rationals, max_size=8).map(lambda cs: Polynomial(tuple(cs)))


class TestConstruction:
    def test_trailing_exact_zeros_trimmed(self):
        assert Polynomial((F(1), F(0), F(0))).coeffs == (F(1),)
        assert Polynomial((0, 0)).coeffs == ()

    def test_float_small_values_kept(self):
        p = Polynomial((0.0, 1e-30, 0.0))
        assert p.degree == 1  # only the structural 0.0 tail goes

    def test_degree(self):
        assert Polynomial(()).degree == -1
        assert Polynomial((F(0), F(1))).degree == 1

    def test_mode_mixing_rejected(self):
        with pytest.raises(MixedModeError):
            Polynomial((F(1), 0.5))

    def test_ints_become_exact(self):
        assert Polynomial((0, -1, 1)).coeffs == (F(0), F(-1), F(1))


class TestEval:
    def test_quadratic_at_half(self):
        assert poly_eval(Polynomial((0, -1, 1)), F(1, 2)) == F(-1, 4)

    def test_zero_polynomial(self):
        assert poly_eval(Polynomial(()), F(7, 3)) == 0
        assert poly_eval(Polynomial(()), 0.25) == 0.0

    def test_identity(self):
        assert poly_eval(Polynomial((0, 1)), F(3, 7)) == F(3, 7)

    def test_mixed_modes_rejected(self):
        with pytest.raises(MixedModeError):
            poly_eval(Polynomial((F(1), F(2))), 0.5)


class TestArithmetic:
    def test_cancellation(self):
        p = Polynomial((F(1, 3), F(-2), F(0), F(1)))
        neg = poly_scale(p, -1)
        total = Polynomial(tuple(a + b for a, b in zip(p.coeffs, neg.coeffs)))
        assert total == Polynomial(())

    def test_scale(self):
        assert poly_scale(Polynomial((0, -1, 1)), 2) == Polynomial((0, -2, 2))

    def test_mode_mixing_rejected(self):
        with pytest.raises(MixedModeError):
            poly_scale(Polynomial((F(1),)), 1.0)

    @given(small_polys, rationals, rationals)
    @settings(max_examples=60)
    def test_scale_distributes(self, p, s, x):
        # s * sum_j c_j x^j == sum_j (s c_j) x^j
        assert poly_eval(poly_scale(p, s), x) == s * poly_eval(p, x)

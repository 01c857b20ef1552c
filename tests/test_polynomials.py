from fractions import Fraction

import pytest

from aqbernstein.polynomials import Polynomial, poly_eval
from aqbernstein.scalars import MixedModeError

F = Fraction


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
        neg = Polynomial(tuple([-c for c in p.coeffs]))
        total = Polynomial(tuple(a + b for a, b in zip(p.coeffs, neg.coeffs)))
        assert total == Polynomial(())

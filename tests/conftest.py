import dataclasses
import sys

import pytest

import aqbernstein.bernstein
import aqbernstein.eigen


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance criterion lines after the run, if any ran."""
    for name in ("tests.test_acceptance", "test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "CRITERION_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.CRITERION_LINES:
                terminalreporter.write_line(line)
            break


def _flip_image_coefficient(monkeypatch, offset):
    """Make eigen (which builds the monomial images for eigensystem and
    verify) use a monomial_image that flips the sign of the x^(k-offset)
    coefficient of T(t^k), k >= 2; returns the corrupted function."""
    clean = aqbernstein.bernstein.monomial_image

    def corrupted(k, params):
        image = clean(k, params)
        if k < 2:
            return image
        coeffs = list(image.coeffs)
        coeffs[k - offset] = -coeffs[k - offset]
        return dataclasses.replace(image, coeffs=tuple(coeffs))

    monkeypatch.setattr(aqbernstein.eigen, "monomial_image", corrupted)
    return corrupted


@pytest.fixture
def corrupt_kernel(monkeypatch):
    """Flip the x^(k-1) coefficient of T(t^k), which the eigen recursion reads."""
    return _flip_image_coefficient(monkeypatch, 1)


@pytest.fixture
def corrupt_diagonal(monkeypatch):
    """Flip a(k,k) of T(t^k); the eigen recursion never reads the diagonal,
    so only the leading-coefficient check can see it."""
    return _flip_image_coefficient(monkeypatch, 0)

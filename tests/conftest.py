import dataclasses
import sys

import pytest

import aqbernstein.bernstein
import aqbernstein.eigen
import aqbernstein.verify


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance criterion lines after the run, if any ran."""
    for name in ("tests.test_acceptance", "test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "CRITERION_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.CRITERION_LINES:
                terminalreporter.write_line(line)
            break


@pytest.fixture
def corrupt_kernel(monkeypatch):
    """Make verify and eigen use a monomial_image that flips the sign of the
    x^(k-1) coefficient of T(t^k), k >= 2; returns the corrupted function."""
    clean = aqbernstein.bernstein.monomial_image

    def corrupted(k, params):
        image = clean(k, params)
        if k < 2:
            return image
        coeffs = list(image.coeffs)
        coeffs[k - 1] = -coeffs[k - 1]
        return dataclasses.replace(image, coeffs=tuple(coeffs))

    for module in (aqbernstein.verify, aqbernstein.eigen):
        monkeypatch.setattr(module, "monomial_image", corrupted)
    return corrupted

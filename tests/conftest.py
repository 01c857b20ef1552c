import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aqbernstein.bernstein
import aqbernstein.eigen
import aqbernstein.verify
from aqbernstein.polynomials import Polynomial


@pytest.fixture(autouse=True, scope="session")
def _child_pythonpath():
    """Let child interpreters (``python -m aqbernstein``) import the package
    this process imported, also where pytest's ``pythonpath`` setting and
    not PYTHONPATH put it on sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        src = str(Path(aqbernstein.__file__).parents[1])
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


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
    """Make eigen (which reads the image matrix for eigensystem and
    eigenvector, and so for the verify grid) use an image_rows that flips the sign
    of the x^(k-offset) coefficient of T(t^k), k >= 2: an entry of row k-1
    for offset 1, the diagonal for offset 0; returns the corrupted
    function."""
    clean = aqbernstein.bernstein.image_rows

    def corrupted(params, top):
        rows, diagonal = clean(params, top)
        for k in range(2, top + 1):
            if offset == 0:
                diagonal[1][k] = -diagonal[1][k]
            else:
                rows[k - offset][1][k] = -rows[k - offset][1][k]
        return rows, diagonal

    monkeypatch.setattr(aqbernstein.eigen, "image_rows", corrupted)
    return corrupted


@pytest.fixture
def corrupt_kernel(monkeypatch):
    """Flip the x^(k-1) coefficient of T(t^k), which the eigen recursion reads."""
    return _flip_image_coefficient(monkeypatch, 1)


@pytest.fixture
def corrupt_diagonal(monkeypatch):
    """Flip a(k,k) of T(t^k), k >= 2: an exact eigensystem takes its
    eigenvalues and the eigenvector recursion's differences from it."""
    return _flip_image_coefficient(monkeypatch, 0)


@pytest.fixture
def corrupt_basis(monkeypatch):
    """Returns ``corrupt(t)``; after a call, verify's basis_values adds 1 to
    p_0(x) at x = t(n)/(2n+1) only, one of the points t = 0..n+1 at which
    the representation check compares the two operator forms."""

    def corrupt(t):
        clean = aqbernstein.verify.basis_values

        def corrupted(params, x):
            row = clean(params, x)
            if x == Fraction(t(params.n), 2 * params.n + 1):
                return (row[0] + 1, *row[1:])
            return row

        monkeypatch.setattr(aqbernstein.verify, "basis_values", corrupted)

    return corrupt


@pytest.fixture
def corrupt_difference(monkeypatch):
    """Returns ``corrupt(params)``; after a call, verify's apply_to_samples
    adds 1 to the x^n coefficient of the first image it forms for the
    operator ``params`` (from the first sample vector of the representation
    check, which applies the operator before any other check does) and
    forms every later image right."""

    def corrupt(target):
        clean = aqbernstein.verify.apply_to_samples
        pending = [target]

        def corrupted(samples, params):
            image = clean(samples, params)
            if params in pending:
                pending.remove(params)
                return Polynomial(tuple(image.coeff(j) + (j == params.n)
                                        for j in range(params.n + 1)))
            return image

        monkeypatch.setattr(aqbernstein.verify, "apply_to_samples", corrupted)

    return corrupt


@pytest.fixture
def corrupt_gap(monkeypatch):
    """Double the gap lambda_2 - lambda_1 that eigen.spectrum returns (for
    n >= 2), which only the float eigenvector recursion sums; the
    eigenvalues themselves stay right."""
    clean = aqbernstein.eigen.spectrum

    def corrupted(params, top):
        lambdas, gaps = clean(params, top)
        if top >= 2:
            gaps = (gaps[0], 2 * gaps[1], *gaps[2:])
        return lambdas, gaps

    monkeypatch.setattr(aqbernstein.eigen, "spectrum", corrupted)


@pytest.fixture
def corrupt_order(monkeypatch):
    """Make spectrum, as eigen and verify read it, return lambda_3 = lambda_2
    (for n >= 3), so the product form no longer strictly decreases; the gaps
    stay right."""
    clean = aqbernstein.eigen.spectrum

    def corrupted(params, top):
        lambdas, gaps = clean(params, top)
        if top >= 3:
            lambdas = (*lambdas[:3], lambdas[2], *lambdas[4:])
        return lambdas, gaps

    monkeypatch.setattr(aqbernstein.eigen, "spectrum", corrupted)
    monkeypatch.setattr(aqbernstein.verify, "spectrum", corrupted)

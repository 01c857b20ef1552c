"""Eigenstructure of the (alpha,q)-Bernstein operator.

Exact-rational (default) and float computation of the operator
T_{n,q,alpha}, its basis polynomials, its complete eigensystem (eigenvalues
with monic eigenvector polynomials), and the large-n limits of both, with
independent brute-force oracles for verification.

The names below are the ones users call; everything else stays importable
from its submodule (``aqbernstein.qcalc``, ``aqbernstein.asymptotics``, ...).
"""

from .asymptotics import (
    ConvergenceRow,
    LimitCoeffs,
    RegimeError,
    convergence_table,
    limit_coeffs,
    limit_eigenvalue,
)
from .bernstein import (
    OperatorParams,
    apply_to_samples,
    basis_values,
    monomial_image,
    sample_nodes,
)
from .eigen import (
    DegenerateEigenvalueError,
    EigenSystem,
    eigensystem,
    eigensystem_from_dict,
    eigenvalue,
    eigenvector,
)
from .polynomials import Polynomial, poly_eval
from .scalars import (
    MixedModeError,
    Scalar,
    format_scalar,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow",
    "DegenerateEigenvalueError",
    "EigenSystem",
    "LimitCoeffs",
    "MixedModeError",
    "OperatorParams",
    "Polynomial",
    "RegimeError",
    "Scalar",
    "apply_to_samples",
    "basis_values",
    "convergence_table",
    "eigensystem",
    "eigensystem_from_dict",
    "eigenvalue",
    "eigenvector",
    "format_scalar",
    "limit_coeffs",
    "limit_eigenvalue",
    "monomial_image",
    "parse_scalar",
    "poly_eval",
    "run_verify",
    "sample_nodes",
    "scalar_from_json",
    "scalar_to_json",
]

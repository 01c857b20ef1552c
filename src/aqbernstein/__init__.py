"""Eigenstructure of the (alpha,q)-Bernstein operator.

Exact-rational (default) and float computation of the operator
T_{n,q,alpha}, its basis polynomials, its complete eigensystem (eigenvalues
with monic eigenvector polynomials), and the large-n limits of both, with
independent brute-force oracles for verification.

The names of ``__all__``, listed by submodule below, are the ones users
call; everything else stays importable from its submodule
(``aqbernstein.qcalc``, ``aqbernstein.asymptotics``, ...).

``import aqbernstein`` loads no submodule. A name, or a submodule's name,
imports its submodule on first access (PEP 562) and is bound here from then
on, so ``aqbernstein.eigensystem`` never loads the limit kernels of
``asymptotics`` or the oracles of ``verify``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names of __all__ it defines
_SUBMODULES = {
    "asymptotics": "ConvergenceRow LimitCoeffs RegimeError convergence_table "
                   "limit_coeffs limit_eigenvalue",
    "bernstein": "OperatorParams apply_to_samples basis_values monomial_image sample_nodes",
    "eigen": "DegenerateEigenvalueError EigenSystem eigensystem eigensystem_from_dict "
             "eigenvalue eigenvector",
    "polynomials": "Polynomial poly_eval",
    "qcalc": "",
    "scalars": "MixedModeError Scalar format_scalar parse_scalar scalar_from_json "
               "scalar_to_json",
    "verify": "run_verify",
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    # bound like an eager import: the next access is a plain attribute lookup
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))

"""Per-layer tracing by wrapping the package's public functions.

The tracer replaces every binding of a traced function in every
``aqbernstein`` module namespace (the package namespace included) with a
wrapper that counts calls and records inclusive and self time. Self time is
a call's duration minus the time covered by the traced calls it made. Only
aggregates are kept, since the hot functions are called hundreds of
thousands of times per operation.

A traced name that no longer exists in the package is skipped, so its
metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

VERIFY_CHECKS = (
    "check_stirling_cross",
    "check_representation_equivalence",
    "check_eigen_relation",
    "check_leading_coefficient",
    "check_distinctness",
    "check_example_fixed_points",
    "check_operator_axioms",
)

# module -> functions whose calls are traced
TRACED = {
    "qcalc": ("q_integer", "q_stirling2", "q_binomial", "q_difference_table"),
    "bernstein": ("monomial_image", "apply_to_samples", "basis_values"),
    "eigen": ("eigenvalue_difference", "eigensystem", "eigenvector"),
    "asymptotics": ("convergence_table", "limit_coeffs"),
    "polynomials": ("poly_eval", "poly_fit"),
    "scalars": ("scalar_to_json", "format_scalar"),
    "verify": VERIFY_CHECKS,
}


class Tracer:
    """Aggregated spans: ``stats[name] = [calls, inclusive_s, self_s]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                stack[-1][0] += spent
                stats[0] += 1
                stats[1] += spent
                stats[2] += spent - children[0]

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"aqbernstein.{module}")
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aqbernstein" or mod_name.startswith("aqbernstein.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(s) for name, s in self.stats.items()}

    def merge(self, stats: dict) -> None:
        """Add aggregates recorded by another process."""
        for name, (calls, total, own) in stats.items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += own


def diff(after: dict, before: dict) -> dict[str, dict]:
    """Per-function aggregates accumulated between two snapshots."""
    out = {}
    for name, (calls, total, own) in after.items():
        c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
        if calls != c0:
            out[name] = {"calls": calls - c0, "inclusive_s": total - t0, "self_s": own - s0}
    return out

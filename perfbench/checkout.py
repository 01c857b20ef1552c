"""Locate the checkout this benchmark lives in and import its sources.

The benchmark always runs the package from ``src/`` of its own checkout,
never an installed copy, so it exits with an error in a directory that
holds the benchmark but not the program.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def use_checkout_source():
    """Put ``src/`` first on sys.path and return the imported package."""
    if not (SRC / "aqbernstein" / "__init__.py").is_file():
        sys.exit(f"perfbench: no aqbernstein sources under {SRC}")
    sys.path.insert(0, str(SRC))
    api = importlib.import_module("aqbernstein")
    if pathlib.Path(api.__file__).resolve().parent != SRC / "aqbernstein":
        sys.exit(f"perfbench: imported aqbernstein from {api.__file__}, not {SRC}")
    return api


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env

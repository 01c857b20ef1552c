import ast
import json
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import aqbernstein
import aqbernstein.bernstein

PUBLIC = """
ConvergenceRow DegenerateEigenvalueError EigenSystem LimitCoeffs MixedModeError
OperatorParams Polynomial RegimeError Scalar apply_to_samples
basis_values convergence_table eigensystem eigensystem_from_dict
eigenvalue eigenvector format_scalar limit_coeffs limit_eigenvalue monomial_image
parse_scalar poly_eval run_verify sample_nodes scalar_from_json scalar_to_json
""".split()

# names the benchmark in perfbench/ reads from the package namespace
BENCHMARK_NAMES = """
ConvergenceRow OperatorParams Polynomial apply_to_samples convergence_table
eigensystem eigensystem_from_dict eigenvalue monomial_image scalar_from_json
""".split()


def test_public_names():
    assert aqbernstein.__all__ == PUBLIC
    assert set(BENCHMARK_NAMES) <= set(PUBLIC)
    for name in PUBLIC:
        assert getattr(aqbernstein, name) is not None, name
    # faults are substituted by tests, not switched on inside the package
    assert not hasattr(aqbernstein.bernstein, "inject_fault")
    assert not hasattr(aqbernstein.bernstein, "_ACTIVE_FAULTS")


def _child(script: str):
    """The JSON that ``script`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_lazy_namespace():
    # a bare import loads no submodule; every name of __all__, the
    # submodules and a star import resolve on first access, and are bound
    names = _child("""
import json, sys
import aqbernstein
bare = sorted(m for m in sys.modules if m.startswith("aqbernstein."))
qcalc = aqbernstein.qcalc.__name__
try:
    aqbernstein.nonexistent
    missing = None
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from aqbernstein import *", star)
bound = [name for name in aqbernstein.__all__
         if name in star and star[name] is vars(aqbernstein).get(name)]
print(json.dumps({"bare": bare, "qcalc": qcalc, "missing": missing, "bound": bound,
                  "dir": sorted(set(aqbernstein.__all__) - set(dir(aqbernstein)))}))
""")
    assert names["bare"] == []
    assert names["qcalc"] == "aqbernstein.qcalc"
    assert names["missing"] == "module 'aqbernstein' has no attribute 'nonexistent'"
    assert names["bound"] == PUBLIC
    assert names["dir"] == []


@pytest.mark.parametrize("argv, own", [
    (["eig", "--n", "3", "--q", "1/2", "--alpha", "2/5"], []),
    (["limits", "--q", "1/2", "--alpha", "2/5", "--k", "3"], ["aqbernstein.asymptotics"]),
    (["converge", "--q", "3/2", "--alpha", "2/5", "--k", "2", "--n", "4,8"],
     ["aqbernstein.asymptotics"]),
    (["verify", "--max-n", "2"], ["aqbernstein.verify"]),
], ids=["eig", "limits", "converge", "verify"])
def test_command_loads_only_its_modules(argv, own):
    # the limit kernels and the oracle suite load only in the commands that
    # run them: importing the CLI loads neither
    loaded = _child(f"""
import contextlib, io, json, sys
optional = {{"aqbernstein.asymptotics", "aqbernstein.verify"}}
import aqbernstein.cli
on_import = sorted(optional & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = aqbernstein.cli.main({argv!r})
print(json.dumps({{"on_import": on_import, "code": code,
                  "after": sorted(optional & set(sys.modules))}}))
""")
    assert loaded == {"on_import": [], "code": 0, "after": own}


def _references(node) -> Counter:
    """Names that ``node`` reads or imports."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.alias))
    )


def _bound_names(node) -> list[str]:
    """Names a module-level statement defines: a def, a class, or the plain
    names an assignment binds (dunders such as ``__all__`` and the module
    protocol's ``__getattr__`` and ``__dir__`` excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    else:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def test_no_uncalled_definitions():
    # every module-level def, class and assigned name is used in the package
    # outside its own definition; a name in __all__ counts
    src = pathlib.Path(aqbernstein.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter(aqbernstein.__all__))
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _bound_names(node)
        if refs[name] == _references(node)[name]
    ]
    assert unused == []


def test_kernels_read_the_operator_table():
    # bernstein and eigen take their q-integers and q-binomials from
    # OperatorParams.table, and asymptotics its q-integers from the same
    # recurrence; no production kernel reads the closed-form q-integer or
    # the explicit q-Stirling sum, which only verify defines, as the
    # oracles, nor the q-factorial and q-binomial, which only the tests
    # define
    src = pathlib.Path(aqbernstein.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    verify_oracles = {"q_integer", "q_stirling2"}
    oracles = verify_oracles | {"q_binomial", "q_factorial"}
    for module in ["bernstein.py", "eigen.py", "asymptotics.py"]:
        assert not set(_references(trees[module])) & oracles, module
    for module, tree in trees.items():
        defined = {name for node in tree.body for name in _bound_names(node)}
        assert defined & oracles == (verify_oracles if module == "verify.py" else set()), module


def test_benchmark_selftest():
    # the benchmark's own checkers accept this package's output and reject
    # corrupted copies of it
    root = pathlib.Path(__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_quick_tour():
    # the quick tour runs as written and its comments state its values
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for comment in ["# (1, 1, 87/245, 6/245)", "# Polynomial((0, -1, 1)), i.e. x^2 - x",
                    "# [0, 4/7, 6/7, 1]"]:
        assert comment in tour, comment
    names = {}
    exec(tour, names)
    F = Fraction
    assert names["system"].lambdas == (1, 1, F(87, 245), F(6, 245))
    assert names["system"].vectors[2] == aqbernstein.Polynomial((0, -1, 1))
    assert names["nodes"] == (0, F(4, 7), F(6, 7), 1)

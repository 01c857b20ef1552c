"""Command-line front end.

Subcommands:

* ``eig``        full eigensystem of T_{n,q,alpha} (JSON or CSV)
* ``apply``      apply the operator to explicit samples or to t^k samples
* ``basis``      basis polynomial values at a point or on a grid
* ``limits``     large-n limit eigenvalue and limit eigenvector coefficients
* ``converge``   finite-n coefficients against their limits over an n-schedule
* ``plot-data``  eigenvector curves on a uniform x-grid, one column per (q, alpha)
* ``verify``     run the exact-oracle suite; nonzero exit on any failure

Scalars parse rationally by default (``--q 0.4`` means exactly 2/5); pass
``--mode float`` for float arithmetic. Exit codes: 0 success, 1 verification
failure or arithmetic failure (a vanishing eigenvalue difference, or a float
result out of range or not finite), 2 usage or parameter error (an ``--out``
path that cannot be opened included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .asymptotics import RegimeError, convergence_table, limit_coeffs
from .bernstein import OperatorParams, apply_to_samples, basis_values, sample_nodes
from .eigen import eigensystem, eigenvector
from .polynomials import poly_eval
from .scalars import MixedModeError, Scalar, format_scalar, parse_scalar, scalar_to_json
from .verify import run_verify


def _parse_scalar_list(text: str, mode: str) -> list[Scalar]:
    return [parse_scalar(part, mode) for part in text.split(",") if part.strip()]


def _parse_alpha_list(text: str, mode: str) -> list[Scalar]:
    """The --alpha values; each must lie in [0,1], and an error quotes the
    value as it was typed."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    values = [parse_scalar(part, mode) for part in parts]
    for part, alpha in zip(parts, values):
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha={part} is outside [0,1]")
    return values


def _single(values: list[Scalar], flag: str) -> Scalar:
    if len(values) != 1:
        raise ValueError(f"{flag} takes exactly one value here, got {len(values)}")
    return values[0]


def _q_alpha(args) -> tuple[Scalar, Scalar]:
    """The single q and alpha of a command that takes one of each."""
    return (_single(_parse_scalar_list(args.q, args.mode), "--q"),
            _single(_parse_alpha_list(args.alpha, args.mode), "--alpha"))


def _json_text(obj) -> str:
    """Strict JSON; exact scalars become {"num", "den"} objects."""
    return json.dumps(obj, indent=2, allow_nan=False, default=scalar_to_json) + "\n"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_scalar(v) for v in row] for row in rows)
    return buf.getvalue()


def _check_finite(data) -> None:
    """Raise FloatingPointError, an arithmetic failure, at the first nan or
    infinity among the floats in nested lists, tuples and dict values."""
    if isinstance(data, float) and not math.isfinite(data):
        raise FloatingPointError(f"float result is not finite: {data}")
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, (list, tuple)):
        for value in data:
            _check_finite(value)


def _write(args, obj, header: list[str], rows, fmt: str | None = None) -> int:
    """Write ``obj`` as JSON or the table ``header``/``rows`` of scalars as
    CSV, by ``--format`` (``fmt`` when it is not given), to ``--out`` or
    stdout.

    Raises FloatingPointError, an arithmetic failure, when what would be
    written holds a nan or an infinity."""
    fmt = args.format or fmt
    data = obj if fmt == "json" else list(rows)
    _check_finite(data)
    text = _json_text(data) if fmt == "json" else _csv_text(header, data)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    with fh:
        fh.write(text)
    return 0


def _params_from(args) -> OperatorParams:
    return OperatorParams(args.n, *_q_alpha(args))


def cmd_eig(args) -> int:
    params = _params_from(args)
    system = eigensystem(params)
    width = params.n + 1
    header = ["k", "lambda"] + [f"c{j}" for j in range(width)]
    rows = [
        [k, system.lambdas[k]] + [system.vectors[k].coeff(j) for j in range(width)]
        for k in range(width)
    ]
    # CSV prints the rows: the JSON dict would convert every integer again
    obj = system.as_dict() if args.format == "json" else None
    return _write(args, obj, header, rows)


def cmd_apply(args) -> int:
    params = _params_from(args)
    if (args.f is None) == (args.k is None):
        raise ValueError("pass exactly one of --f (samples) or --k (monomial power)")
    if args.f is not None:
        samples = _parse_scalar_list(args.f, args.mode)
    else:
        if args.k < 0:
            raise ValueError(f"--k must be >= 0, got {args.k}")
        samples = [t**args.k for t in sample_nodes(params)]
    image = apply_to_samples(samples, params).coeffs
    obj = {"n": params.n, "q": params.q, "alpha": params.alpha, "image": image}
    return _write(args, obj, ["j", "coeff"], enumerate(image))


def cmd_basis(args) -> int:
    params = _params_from(args)
    if (args.x is None) == (args.samples is None):
        raise ValueError("pass exactly one of --x (a point) or --samples (a grid)")
    point = args.x is not None
    if point:
        grid = [parse_scalar(args.x, args.mode)]
    else:
        grid = _x_grid(args.samples, args.mode)
    rows = [basis_values(params, x) for x in grid]
    obj = {
        "n": params.n,
        "q": params.q,
        "alpha": params.alpha,
        "x": grid[0] if point else grid,
        "values": rows[0] if point else rows,
    }
    header = ["x"] + [f"p{i}" for i in range(params.n + 1)]
    table = [[x, *row] for x, row in zip(grid, rows)]
    return _write(args, obj, header, table, fmt="json" if point else "csv")


def cmd_limits(args) -> int:
    lc = limit_coeffs(*_q_alpha(args), args.k)
    obj = {
        "regime": lc.regime,
        "k": lc.k,
        "q": lc.q,
        "alpha": lc.alpha,
        "limit_lambda": lc.limit_lambda,
        "coeffs": lc.coeffs,
    }
    rows = [[j, c, lc.limit_lambda] for j, c in enumerate(lc.coeffs)]
    return _write(args, obj, ["j", "coeff", "limit_lambda"], rows)


def cmd_converge(args) -> int:
    q, alpha = _q_alpha(args)
    n_list = [int(part) for part in args.n.split(",") if part.strip()]
    if not n_list:
        raise ValueError("--n needs at least one value, e.g. --n 25,50,100")
    header = ["n", "j", "finite", "limit", "abs_error"]
    rows = [
        [r.n, r.j, r.finite, r.limit, r.abs_error]
        for r in convergence_table(q, alpha, args.k, n_list, mode=args.mode)
    ]
    return _write(args, [dict(zip(header, row)) for row in rows], header, rows)


def _x_grid(samples: int, mode: str) -> list[Scalar]:
    if samples < 2:
        raise ValueError(f"--samples must be >= 2, got {samples}")
    if mode == "float":
        return [t / (samples - 1) for t in range(samples)]
    return [Fraction(t, samples - 1) for t in range(samples)]


def cmd_plot_data(args) -> int:
    q_list = _parse_scalar_list(args.q, args.mode)
    alpha_list = _parse_alpha_list(args.alpha, args.mode)
    for flag, values in (("--q", q_list), ("--alpha", alpha_list)):
        if not values:
            raise ValueError(f"{flag} needs at least one value")
    if args.k > args.n:
        raise ValueError(f"--k must be <= --n, got k={args.k}, n={args.n}")
    grid = _x_grid(args.samples, args.mode)
    columns = []
    for q in q_list:
        for alpha in alpha_list:
            vec = eigenvector(args.k, OperatorParams(args.n, q, alpha))
            columns.append(
                {"q": q, "alpha": alpha, "values": [poly_eval(vec, x) for x in grid]}
            )
    obj = {"n": args.n, "k": args.k, "x": grid, "columns": columns}
    header = ["x"] + [
        f"p_{args.k}[q={format_scalar(c['q'])},alpha={format_scalar(c['alpha'])}]"
        for c in columns
    ]
    rows = [[x] + [c["values"][t] for c in columns] for t, x in enumerate(grid)]
    return _write(args, obj, header, rows)


def cmd_verify(args) -> int:
    report = run_verify(max_n=args.max_n)
    _write(args, report.as_dict(), [], [])
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqbernstein",
        description="Eigenstructure of the (alpha,q)-Bernstein operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, default_format, n=False, k=False, default_mode="exact"):
        if n:
            p.add_argument("--n", type=int, required=True, help="operator degree")
        if k:
            p.add_argument("--k", type=int, required=True, help="polynomial degree")
        p.add_argument("--q", required=True, help="q value(s), comma separated")
        p.add_argument("--alpha", required=True, help="alpha value(s), comma separated")
        p.add_argument("--mode", choices=["exact", "float"], default=default_mode)
        p.add_argument("--format", choices=["json", "csv"], default=default_format)
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("eig", help="compute the full eigensystem")
    common(p, n=True, default_format="json")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("apply", help="apply the operator to samples")
    common(p, n=True, default_format="json")
    p.add_argument("--f", default=None, help="comma-separated samples f_0..f_n")
    p.add_argument("--k", type=int, default=None, help="use samples of t^k")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("basis", help="evaluate the basis polynomials")
    # no fixed default: JSON for --x, CSV for --samples (see cmd_basis)
    common(p, n=True, default_format=None)
    p.add_argument("--x", default=None, help="single evaluation point")
    p.add_argument("--samples", type=int, default=None, help="grid size on [0,1]")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("limits", help="large-n limit eigenvalue and coefficients")
    common(p, k=True, default_format="json")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("converge", help="finite-n coefficients vs their limits")
    common(p, k=True, default_format="csv", default_mode="float")
    p.add_argument("--n", required=True, help="comma-separated n schedule")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("plot-data", help="eigenvector curves on an x-grid")
    common(p, n=True, k=True, default_format="csv")
    p.add_argument("--samples", type=int, default=33, help="grid size on [0,1]")
    p.set_defaults(func=cmd_plot_data)

    p = sub.add_parser("verify", help="run the exact-oracle verification suite")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        # DegenerateEigenvalueError, the FloatingPointError of a float kernel
        # or of the writer, and an OverflowError/ZeroDivisionError that
        # unguarded float code raises
        print(f"arithmetic failure in '{' '.join(argv)}': "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (RegimeError, MixedModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

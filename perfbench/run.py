"""Benchmark for aqbernstein: exact and float eigensystems, convergence
studies and the command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-eig --seed 1 --seconds 25 --trace 0

Workloads: exact-eig, float-eig, converge, cli (see README.md); ``--workload
all`` runs each in turn and prints one result line per workload. A run
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output, and prints one JSON object as the last line
of stdout. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` the run measures untraced rounds first and then traced
rounds, and reports the per-layer metrics instead. Details of each run
are written to ``perfbench/out/``.

Untraced rounds interleave the speed gauge of ``reference.py`` with the
operations, and the end-to-end times are reported at its reference speed,
so that a run's figures do not depend on how busy the shared host was.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import checkout
import reference
import tracer

SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_op_s": "s", "peak_rss_mb": "MB"}

# <module>.<function>.calls and .self_s come from the tracer's aggregates;
# verify.<check>.s is the check's inclusive time.
TRACED_METRICS = (
    "qcalc.q_integer.calls",
    "qcalc.q_stirling2.calls",
    "qcalc.q_stirling2.self_s",
    "qcalc.q_binomial.self_s",
    "qcalc.q_difference_table.self_s",
    "bernstein.monomial_image.calls",
    "bernstein.monomial_image.self_s",
    "bernstein.apply_to_samples.self_s",
    "bernstein.basis_values.self_s",
    "eigen.eigenvalue_difference.calls",
    "eigen.eigenvalue_difference.self_s",
    "eigen.eigensystem.self_s",
    "eigen.eigenvector.self_s",
    "asymptotics.convergence_table.self_s",
    "asymptotics.limit_coeffs.self_s",
    "polynomials.poly_eval.calls",
    "polynomials.poly_eval.self_s",
    "polynomials.poly_fit.self_s",
    "scalars.scalar_to_json.calls",
    "scalars.scalar_to_json.self_s",
    "scalars.format_scalar.self_s",
)
CLI_COMMANDS = ("eig-json", "eig-csv", "apply", "basis", "limits", "converge", "plot-data", "verify")
UNITS = {"calls": "count", "self_s": "s", "s": "s", "output_bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    names = list(TRACED_METRICS)
    names += [f"verify.{check}.s" for check in tracer.VERIFY_CHECKS]
    out = {name: UNITS[name.rsplit(".", 1)[1]] for name in names}
    out.update({
        "eigen.max_coeff_bits": "bits",
        "eigen.scaling_exponent": "exponent",
        "eigen.float_max_rel_err.q_below_1": "rel",
        "eigen.float_max_rel_err.q_above_1": "rel",
    })
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = "s"
        out[f"cli.{command}.output_bytes"] = "bytes"
    out["trace.overhead_s"] = "s"
    return out


@dataclass
class Phase:
    """Timings and outputs of the rounds of one phase (untraced or traced)."""

    rounds: list = field(default_factory=list)  # wall time of each round's timed ops
    op_times: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)  # op name -> times run
    mismatches: dict = field(default_factory=dict)  # op name -> outputs unlike round one
    outputs: dict = field(default_factory=dict)  # op name -> output of round one
    op_spans: list = field(default_factory=list)  # traced aggregates per op, round one
    gauge: reference.Gauge | None = None  # untraced only: the machine's speed over the rounds


def fingerprint(value):
    """A comparable form of an output: floats by repr, so NaN equals NaN."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__, tuple(
            fingerprint(getattr(value, f)) for f in value.__dataclass_fields__
        )
    return value


def measure(wl, seconds: float, spans=None, baseline: Phase | None = None) -> Phase:
    """Repeat whole rounds for ``seconds``. Untraced, a gauge chunk block runs
    before each op, sized to a share of the op's first time."""
    from workloads import Raised

    phase = Phase(gauge=None if spans is not None else reference.Gauge())
    prints = {} if baseline is None else {
        name: fingerprint(out) for name, out in baseline.outputs.items()
    }
    start = time.perf_counter()
    while True:
        first = not phase.rounds
        round_s = 0.0
        for op in wl.ops:
            if phase.gauge is not None:
                phase.gauge.sample(phase.op_times[op.name][0] if op.name in phase.op_times else 0.0)
            before = spans.snapshot() if spans is not None and first else None
            t0 = time.perf_counter()
            try:
                out = op.run(spans)
            except Exception as exc:  # the failure is the op's result; checks report it
                out = Raised(f"{type(exc).__name__}: {exc}")
            spent = time.perf_counter() - t0
            round_s += spent
            phase.op_times.setdefault(op.name, []).append(spent)
            phase.runs[op.name] = phase.runs.get(op.name, 0) + 1
            if before is not None:
                phase.op_spans.append({"op": op.name, "seconds": spent,
                                       "functions": tracer.diff(spans.snapshot(), before)})
            if op.name not in prints:
                phase.outputs[op.name] = out
                prints[op.name] = fingerprint(out)
            elif fingerprint(out) != prints[op.name]:
                phase.mismatches[op.name] = phase.mismatches.get(op.name, 0) + 1
        phase.rounds.append(round_s)
        if time.perf_counter() - start >= seconds:
            return phase


def measure_setup(args) -> tuple[list[float], reference.Gauge]:
    """Wall times of fresh interpreters importing the package and building the
    workload's inputs, with the gauge run between them."""
    cmd = [sys.executable, str(checkout.HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    gauge = reference.Gauge()
    for _ in range(SETUP_REPEATS):
        gauge.sample(times[0] if times else 0.0)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout.ROOT,
                              env=checkout.child_env(), timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times, gauge


def evaluate(wl, phases: list[Phase]):
    """Check every op's round-one output; returns (attempted, failed, correct, notes)."""
    from workloads import Raised

    base = phases[0]
    attempted = failed = 0
    correct = True
    notes = []
    for op in wl.ops:
        runs = sum(p.runs.get(op.name, 0) for p in phases)
        attempted += runs
        out = base.outputs[op.name]
        if isinstance(out, Raised):
            problems = [f"raised {out.error}"]
        else:
            try:
                problems = op.check(out, base.outputs)
            except Exception as exc:  # malformed output the checker could not read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += runs
            if op.known_fault is None:
                correct = False
                notes.append(f"FAILED {op.name}: {problems[0]} ({len(problems)} problems)")
            else:
                notes.append(f"kept failure {op.name}: {problems[0]} [{op.known_fault}]")
            continue
        mismatched = sum(p.mismatches.get(op.name, 0) for p in phases)
        if mismatched:
            failed += mismatched
            correct = False
            notes.append(f"FAILED {op.name}: {mismatched} outputs differ from the first round")
    return attempted, failed, correct, notes


def scaling_exponent(wl, phase: Phase) -> float:
    """Least-squares slope of log(time) against log(n) over the workload's ladder."""
    if len(wl.ladder) < 2:
        return 0.0
    pts = [(math.log(n), math.log(sum(statistics.median(phase.op_times[name]) for name in names)))
           for n, names in sorted(wl.ladder.items())]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def finite(x: float) -> float:
    # JSON has no infinity; an unbounded float error reads as the largest float.
    return x if math.isfinite(x) else sys.float_info.max


def layer_metrics(wl, spans, untraced: Phase, traced: Phase) -> dict[str, float]:
    rounds = len(traced.rounds)
    values = {}
    for name in per_layer_units():
        func, kind = name.rsplit(".", 1)
        stat = spans.stats.get(func)
        if kind == "calls":
            values[name] = (stat[0] if stat else 0) // rounds
        elif kind == "self_s":
            values[name] = stat[2] / rounds if stat else 0.0
        elif func.startswith("verify."):
            values[name] = stat[1] / rounds if stat else 0.0
    cli = wl.stats.get("cli", {})
    for command in CLI_COMMANDS:
        samples = cli.get(command, [])
        values[f"cli.{command}.s"] = statistics.median(s for s, _ in samples) if samples else 0.0
        values[f"cli.{command}.output_bytes"] = samples[0][1] if samples else 0
    values["eigen.max_coeff_bits"] = wl.stats.get("max_bits", 0)
    values["eigen.scaling_exponent"] = scaling_exponent(wl, untraced)
    values["eigen.float_max_rel_err.q_below_1"] = finite(wl.stats.get("q_below_1", 0.0))
    values["eigen.float_max_rel_err.q_above_1"] = finite(wl.stats.get("q_above_1", 0.0))
    values["trace.overhead_s"] = statistics.median(traced.rounds) - statistics.median(untraced.rounds)
    return values


def run_all(args, names) -> int:
    """Run each workload in its own interpreter; print one result line per workload."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(checkout.HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT, timeout=600)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}, allow_nan=False))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    checkout.use_checkout_source()
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.BUILDERS)
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose 'all' or one of {sorted(workloads.BUILDERS)}")
    wl = workloads.BUILDERS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    reference.pin_to_one_cpu()
    setup_times, setup_gauge = (None, None) if args.trace else measure_setup(args)
    untraced = measure(wl, args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    phases = [untraced]
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
        try:
            traced = measure(wl, args.seconds, spans, baseline=untraced)
        finally:
            spans.uninstall()
        phases.append(traced)
    attempted, failed, correct, notes = evaluate(wl, phases)

    if args.trace:
        values = layer_metrics(wl, spans, untraced, traced)
        units = per_layer_units()
    else:
        # Times at the reference speed: each divided by the speed factor the
        # gauge measured over the same period (see reference.py).
        speed = untraced.gauge.factor()
        values = {
            "setup_s": statistics.median(setup_times) / setup_gauge.factor(),
            "wall_s": statistics.fmean(untraced.rounds) / speed,
            "largest_op_s": statistics.fmean(untraced.op_times[wl.largest]) / speed,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "notes": notes, "rounds": len(untraced.rounds),
        "op_median_s": {name: statistics.median(t) for name, t in untraced.op_times.items()},
        "op_times_s": untraced.op_times,
        "speed_factor": untraced.gauge.factor(),
        "setup_times_s": setup_times,
        "setup_speed_factor": setup_gauge.factor() if setup_gauge else None,
        "round_s": untraced.rounds,
        "result": result,
    }
    if args.trace:
        details["traced_rounds"] = len(traced.rounds)
        details["traced_ops"] = traced.op_spans
    checkout.OUT.mkdir(exist_ok=True)
    out_file = checkout.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1, allow_nan=False) + "\n")
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads and the checks on their outputs.

Each workload is a fixed list of operations. A run repeats whole rounds of
them, so every run attempts the same operations and the known float fault
fails the same share of them whatever the seed or the run length. The seed
sets the order of the operations in a round (and, on ``cli``, the degree
passed to ``apply --k``); it never changes what an operation costs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import aqbernstein as api

import checkout
import checks

ALPHA = Fraction(2, 5)
HALF, THREE_HALVES = Fraction(1, 2), Fraction(3, 2)

# Exact eigensystems stop at n = 24 (about 1.5 s per q). At n = 32 one
# eigensystem takes 4 s and its exact eigen-relation check 11 s, so a run
# would pass 45 s, twice as long as a run of any other workload.
EXACT_LADDER = (6, 12, 18, 24)
# Float eigensystems at q = 3/2 stop below n = 40, where float mode raises
# OverflowError at dn**k in monomial_image. At q = 1/2 they stop at n = 15:
# from n = 20 on, the recursion itself is ill-conditioned (relative error
# 2e-8 even with recurrence-form q-Stirling numbers), so no correct kernel
# could pass the tolerance there.
FLOAT_LADDER = {Fraction(3, 2): (10, 20, 30), Fraction(1, 2): (10, 15)}
# Convergence studies on a doubling schedule. Float mode stops at n = 100:
# at n = 200 it raises OverflowError for q = 3/2.
CONVERGE_K = (6, 12)
CONVERGE_EXACT = (25, 50, 100, 200)
CONVERGE_FLOAT = (25, 50, 100)

STIRLING_FAULT = (
    "qcalc.q_stirling2 (called from bernstein.monomial_image) cancels "
    "catastrophically in float mode for q < 1"
)

CLI_N = 6
CLI_SAMPLES = 9
CLI_CONVERGE = (8, 16, 32)
CLI_VERIFY_MAX_N = 4


@dataclass(frozen=True)
class Raised:
    """Stands for the output of an operation that raised."""

    error: str


@dataclass
class Op:
    name: str
    run: Callable[[object], object]  # run(tracer or None) -> output
    check: Callable[[object, dict], list]  # check(output, outputs by name) -> problems
    known_fault: str | None = None  # a failure of this op is the named fault


@dataclass
class Workload:
    name: str
    ops: list[Op]
    largest: str  # the op whose median time is largest_op_s
    ladder: dict[int, list[str]] = field(default_factory=dict)  # n -> ops of that rung
    in_children: bool = False
    stats: dict = field(default_factory=dict)  # filled by the checks

    def note_bits(self, values) -> None:
        self.stats["max_bits"] = max(self.stats.get("max_bits", 0), checks.max_bits(values))

    def note_float_error(self, q, err: float) -> None:
        key = "q_below_1" if q < 1 else "q_above_1"
        self.stats[key] = max(self.stats.get(key, 0.0), err)


def _exact_eig(seed: int) -> Workload:
    wl = Workload("exact-eig", [], largest=f"eig n={EXACT_LADDER[-1]} q=3/2")

    def check(out, _outputs):
        wl.note_bits(checks.system_values(out))
        return checks.exact_eigensystem(out)

    for q in (HALF, THREE_HALVES):
        for n in EXACT_LADDER:
            params = api.OperatorParams(n, q, ALPHA)
            name = f"eig n={n} q={q}"
            wl.ops.append(Op(name, lambda _t, p=params: api.eigensystem(p), check))
            wl.ladder.setdefault(n, []).append(name)
    random.Random(seed).shuffle(wl.ops)
    return wl


def _float_eig(seed: int) -> Workload:
    top = FLOAT_LADDER[THREE_HALVES][-1]
    wl = Workload("float-eig", [], largest=f"eig n={top} q=1.5")
    for q, ladder in FLOAT_LADDER.items():
        for n in ladder:
            params = api.OperatorParams(n, float(q), float(ALPHA))

            def check(out, _outputs, n=n, q=q):
                exact = api.eigensystem(api.OperatorParams(n, q, ALPHA))
                wl.note_bits(checks.system_values(exact))
                problems, err = checks.float_eigensystem(out, exact)
                wl.note_float_error(q, err)
                return problems

            name = f"eig n={n} q={float(q)}"
            wl.ops.append(Op(name, lambda _t, p=params: api.eigensystem(p), check,
                             STIRLING_FAULT if q < 1 else None))
            if q > 1:
                wl.ladder[n] = [name]
    random.Random(seed).shuffle(wl.ops)
    return wl


def _converge(seed: int) -> Workload:
    wl = Workload("converge", [], largest=f"exact q=1/2 k={CONVERGE_K[-1]}")
    for q in (HALF, THREE_HALVES):
        for k in CONVERGE_K:
            exact_name = f"exact q={q} k={k}"

            def check_exact(out, _outputs, k=k):
                wl.note_bits(v for r in out for v in (r.finite, r.limit, r.abs_error))
                return checks.exact_convergence(out, CONVERGE_EXACT, k)

            def check_float(out, outputs, q=q, exact_name=exact_name):
                exact = outputs[exact_name]
                if isinstance(exact, Raised):
                    return [f"no exact reference: {exact.error}"]
                problems, err = checks.float_convergence(out, exact)
                wl.note_float_error(q, err)
                return problems

            wl.ops.append(Op(
                exact_name,
                lambda _t, q=q, k=k: api.convergence_table(q, ALPHA, k, CONVERGE_EXACT, mode="exact"),
                check_exact,
            ))
            wl.ops.append(Op(
                f"float q={q} k={k}",
                lambda _t, q=q, k=k: api.convergence_table(q, ALPHA, k, CONVERGE_FLOAT, mode="float"),
                check_float,
                STIRLING_FAULT if q < 1 and k == CONVERGE_K[-1] else None,
            ))
    random.Random(seed).shuffle(wl.ops)
    return wl


def _cli(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("cli", [], largest="verify", in_children=True)
    apply_k = rng.randint(2, CLI_N)
    references: dict = {}

    def reference(q):
        """Exact n = CLI_N eigensystem, itself checked, for comparing CLI output."""
        if q not in references:
            system = api.eigensystem(api.OperatorParams(CLI_N, q, ALPHA))
            problems = checks.exact_eigensystem(system)
            if problems:
                raise RuntimeError(f"in-process reference at q={q} is wrong: {problems[0]}")
            wl.note_bits(checks.system_values(system))
            references[q] = system
        return references[q]

    schedule = ",".join(map(str, CLI_CONVERGE))
    session = [
        ("eig-json", f"eig --n {CLI_N} --q 1/2 --alpha 2/5",
         lambda text: checks.cli_eig_json(text, reference(HALF))),
        ("eig-csv", f"eig --n {CLI_N} --q 3/2 --alpha 2/5 --format csv",
         lambda text: checks.cli_eig_csv(text, reference(THREE_HALVES))),
        ("apply", f"apply --n {CLI_N} --q 1/2 --alpha 2/5 --k {apply_k}",
         lambda text: checks.cli_apply_json(text, api.OperatorParams(CLI_N, HALF, ALPHA), apply_k)),
        ("basis", f"basis --n {CLI_N} --q 3/2 --alpha 2/5 --samples {CLI_SAMPLES}",
         lambda text: checks.cli_basis_csv(text, CLI_N, CLI_SAMPLES)),
        ("limits", f"limits --q 1/2 --alpha 2/5 --k {CLI_N}",
         lambda text: checks.cli_limits_json(text, HALF, CLI_N)),
        ("converge", f"converge --q 3/2 --alpha 2/5 --k 4 --n {schedule} --mode exact --format json",
         lambda text: checks.cli_converge_json(text, CLI_CONVERGE, 4)),
        ("plot-data", f"plot-data --n {CLI_N} --k 3 --alpha 2/5 --q 1/2,3/2 "
                      f"--samples {CLI_SAMPLES} --format json",
         lambda text: checks.cli_plot_json(text, 3, CLI_SAMPLES,
                                           [reference(HALF), reference(THREE_HALVES)])),
        ("verify", f"verify --max-n {CLI_VERIFY_MAX_N}", checks.cli_verify_json),
    ]
    for name, args, check_text in session:
        wl.ops.append(Op(name, _cli_runner(wl, name, args.split()), _cli_check(check_text)))
    rng.shuffle(wl.ops)
    return wl


def _cli_runner(wl: Workload, name: str, argv: list[str]):
    def run(spans):
        if spans is None:
            cmd = [sys.executable, "-m", "aqbernstein", *argv]
        else:
            checkout.OUT.mkdir(exist_ok=True)
            stats_file = checkout.OUT / f"cli-stats-{os.getpid()}.json"
            cmd = [sys.executable, str(checkout.HERE / "cli_entry.py"), str(stats_file), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout.ROOT,
                              env=checkout.child_env(), timeout=150)
        if spans is not None:
            child = json.loads(stats_file.read_text())
            stats_file.unlink()
            spans.merge(child["stats"])
            wl.stats.setdefault("cli", {}).setdefault(name, []).append(
                (child["main_s"], len(proc.stdout.encode()))
            )
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _cli_check(check_text):
    def check(out, _outputs):
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        return check_text(stdout)

    return check


BUILDERS = {"exact-eig": _exact_eig, "float-eig": _float_eig, "converge": _converge, "cli": _cli}

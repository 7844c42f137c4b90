"""Workload generators, jobs and correctness gates of the rayform benchmark.

Every workload is drawn from a seed and handed to rayform only as moduli,
forms and digit counts.  A pass is the full job list of one seed; runs
always measure whole passes, so the mix of jobs in a run is fixed by the
seed and not by where the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
LAUNCH = BENCH / "launch.py"

# the worked ladder: h = 4, 12 and 45
LADDER = ((-20, 2, 4, 6), (-23, 3, 9, 12), (-23, 1, 8, 31))
# table-sweep draws one modulus per (h, level, a1, h_K) cell with h <= TABLE_MAX_H;
# h = 14..42 costs 0.1-4 s per table, which would make a pass longer than a
# run, and h = 216 about 2 minutes, so the ladder's h = 45 stands for large h
TABLE_MAX_H = 12
UNIT_DISCS = (-3, -4)
EVAL_DIGITS = (80, 300, 1000)
EVAL_WORKED = ((-20, 2, 4, 6), (-23, 3, 9, 12))
# seeded eval classes on top of the worked ones, per pool
EVAL_DRAW = {"dk-3": 2, "dk-4": 2, "other": 2}
VERIFY_DIGITS = 80
VERIFY_MAX_H = 3
# verify-cli draws one modulus per (h, level) cell
WORKLOADS = ("table-sweep", "eval-digits", "verify-cli")
# the highest percentile with ten jobs beyond it in the jobs of one run
# (one pass; two for verify-cli)
TAIL_PERCENTILE = {"table-sweep": 94, "eval-digits": 84, "verify-cli": 70}


def load_ref(name: str) -> dict:
    with open(REFS / name) as fh:
        return json.load(fh)


def table_digest(table, invariant_factors) -> str:
    blob = json.dumps([[list(r) for r in table], list(invariant_factors)])
    return hashlib.sha256(blob.encode()).hexdigest()


def eval_problem(ctx, ref, value, digits: int) -> str | None:
    """None when value agrees with the reference to a relative error of
    10^-digits.  A reference that is 0 at its own precision (a CM point where
    the torsion value vanishes) is compared absolutely."""
    scale = abs(ref) if abs(ref) > ctx.mpf(10) ** -(ctx.dps // 2) else 1
    err = abs(ctx.mpc(value) - ref) / scale
    if err <= ctx.mpf(10) ** -digits:
        return None
    return f"relative error {ctx.nstr(err, 5)} at {digits} digits"


def _cells(rows, key):
    cells = defaultdict(list)
    for row in rows:
        cells[key(row)].append(row)
    return [cells[k] for k in sorted(cells)]


@dataclass
class Job:
    """One unit of timed work and what its output must match."""

    kind: str
    args: tuple
    expect: object
    cells: int = 0  # h^2 for a table job


class Workload:
    """Inputs of one workload for one seed, with the matching job runner."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        # table and eval jobs run inside one job worker; verify jobs are processes
        self.in_process = name != "verify-cli"
        rng = random.Random(f"{name}:{seed}")
        self.jobs = getattr(self, "_build_" + name.replace("-", "_"))(rng)

    # -- generators ---------------------------------------------------------

    def _build_table_sweep(self, rng) -> list[Job]:
        from rayform import qfield, rayclass

        sweep = load_ref("sweep.json")["moduli"]
        by_key = {tuple(m[:4]): m for m in sweep}
        eligible = [m for m in sweep if m[4] <= TABLE_MAX_H]
        chosen = [by_key[k] for k in LADDER]
        chosen += [rng.choice(cell) for cell in _cells(eligible, lambda m: (m[4], m[3], m[1], m[5]))]
        for dk in UNIT_DISCS:
            chosen.append(rng.choice([m for m in eligible if m[0] == dk]))
        rng.shuffle(chosen)
        jobs = []
        for dk, a1, a2, c, h, _, digest in chosen:
            mod = rayclass.make_modulus(qfield.make_discriminant(dk), a1, a2, c)
            jobs.append(Job("table", (mod,), (h, digest), cells=h * h))
        return jobs

    def _build_eval_digits(self, rng) -> list[Job]:
        import mpmath

        from rayform import forms, qfield, rayclass

        ref = load_ref("eval.json")
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = ref["ref_digits"]
        pools = defaultdict(list)
        for entry in ref["classes"]:
            if not entry["gate_miss"]:
                pools[entry["pool"]].append(entry)
        chosen = list(pools["worked"])
        for pool, count in EVAL_DRAW.items():
            chosen += rng.sample(pools[pool], count)
        jobs = []
        for entry in chosen:
            dk, (a1, a2, c), (a, b, cc) = entry["dk"], entry["ideal"], entry["form"]
            mod = rayclass.make_modulus(qfield.make_discriminant(dk), a1, a2, c)
            form = forms.make_form(a, b, cc)
            value = ctx.mpc(entry["re"], entry["im"])
            for digits in EVAL_DIGITS:
                jobs.append(Job("eval", (mod, form, digits), (ctx, value)))
        rng.shuffle(jobs)
        return jobs

    def _build_verify_cli(self, rng) -> list[Job]:
        sweep = load_ref("sweep.json")["moduli"]
        eligible = [m for m in sweep if m[4] <= VERIFY_MAX_H]
        chosen = [rng.choice(cell) for cell in _cells(eligible, lambda m: (m[4], m[3]))]
        rng.shuffle(chosen)
        jobs = []
        for dk, a1, a2, c, h, _, _ in chosen:
            argv = ["verify", "--dk", str(dk), "--ideal", f"{a1},{a2},{c}",
                    "--digits", str(VERIFY_DIGITS)]
            jobs.append(Job("verify", tuple(argv), None, cells=h * h))
        return jobs

    # -- jobs and gates -------------------------------------------------------

    def warm_up(self) -> None:
        """Fill mpmath's constant caches (pi at each precision) before timing;
        a cold process pays that once, not per value."""
        if self.name != "eval-digits":
            return
        first = {}
        for k, job in enumerate(self.jobs):
            first.setdefault(job.args[2], (k, job))
        for k, job in first.values():
            self.run(job, k, False)

    def run(self, job: Job, job_id: int, trace: bool):
        """Run one job; returns (output, child status or None)."""
        if job.kind == "table":
            from rayform import rayclass

            return rayclass.group_table(*job.args), None
        if job.kind == "eval":
            from rayform import modular, rayclass

            mod, form, digits = job.args
            desc = rayclass.descriptor(form, mod)
            return modular.eval_descriptor(desc, None, modular.Precision(digits)), None
        cmd = [sys.executable, str(LAUNCH)]
        if trace:
            cmd += ["--trace-job", str(job_id)]
        proc = subprocess.run(cmd + list(job.args), capture_output=True, text=True, cwd=ROOT)
        status = parse_status(proc.stderr)
        return proc, status

    def check(self, job: Job, output) -> str | None:
        """None when the output is correct, else what was wrong."""
        if job.kind == "table":
            h, digest = job.expect
            if len(output.classes) != h:
                return f"{len(output.classes)} classes, oracle says {h}"
            if table_digest(output.table, output.invariant_factors) != digest:
                return "table or invariant factors differ from the reference"
            return None
        if job.kind == "eval":
            ctx, ref = job.expect
            return eval_problem(ctx, ref, output, job.args[2])
        if output.returncode != 0:
            return f"exit {output.returncode}: {output.stderr.strip().splitlines()[:1]}"
        try:
            passed = json.loads(output.stdout)["passed"]
        except (ValueError, KeyError) as exc:
            return f"unreadable verify output: {exc}"
        return None if passed is True else "verify reported passed = false"


def parse_status(stderr: str) -> dict | None:
    """The launcher's status object, written as the last line of stderr."""
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    try:
        status = json.loads(lines[-1])
    except ValueError:
        return None
    return status if isinstance(status, dict) and "import_s" in status else None

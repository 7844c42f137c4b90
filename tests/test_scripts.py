import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def start_script(name, *args):
    # conftest puts this checkout's src/ on PYTHONPATH for subprocesses
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def run_script(name, *args):
    proc = start_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_residual_report_prints_all_seven_checks():
    lines = run_script("residual_report.py", "--digits", "30", "--samples", "2")
    assert lines[0] == "digits=30 samples=2 seed=20260822"
    assert len(lines) == 8
    assert all(line.startswith("PASS  ") for line in lines[1:])
    assert lines[3].startswith(
        "PASS  power relations between the three indexed values: worst residual "
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (("--digits", "10"), "error: need at least 30 digits, got 10"),
        (("--digits", "30", "--samples", "0"), "error: sample count must be at least 1, got 0"),
    ],
)
def test_residual_report_rejects_invalid_input(args, message):
    # exit 1 means a check failed; invalid input exits 2 as `rayform` does
    proc = start_script("residual_report.py", *args)
    assert proc.returncode == 2
    assert proc.stderr.strip() == message
    assert proc.stdout == ""


def test_reproduce_tables_order_4():
    lines = run_script("reproduce_tables.py", "--case", "order-4 group")
    assert lines[0] == "== order-4 group: dK = -20, modulus 2,4,6 =="
    assert lines[1] == "classes (4):"
    assert "  0: 1,0,5   (e)" in lines
    assert "   g  g g3 g2  e" in lines
    assert "invariant factors: [4]  (Z/4)" in lines
    assert not any(line.startswith("==") and "order-12" in line for line in lines)


def test_reproduce_tables_rejects_uncovered_classes():
    # run under -O, which strips asserts: a case whose named forms miss a
    # class must still stop with an error before printing its table
    code = (
        "import dataclasses, sys; sys.path.insert(0, 'scripts'); import reproduce_tables as rt; "
        "case = rt.CASES[0]; "
        "rt.run_case(dataclasses.replace(case, named_forms=case.named_forms[:-1]))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 1
    assert proc.stderr.strip() == "error: the named forms of the order-4 group do not cover every class"
    assert "table" not in proc.stdout


def start_with_fault(name, fault, *args):
    # run the script's main under -O, in a process whose package carries a
    # fault injected before the script imports it
    code = (
        f"import sys; sys.path.insert(0, 'scripts'); sys.argv[1:] = {list(args)!r}; "
        f"from rayform import checks, rayclass; {fault}; "
        f"import {name} as script; sys.exit(script.main())"
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=300
    )


@pytest.mark.parametrize("name", ["residual_report", "reproduce_tables"])
def test_scripts_exit_3_on_an_internal_check(name):
    # exits 1 and 2 mean a failed check (or uncovered class) and invalid
    # input; an InternalCheckError is a bug and exits 3 as `rayform` does.
    # An oracle count one too high trips enumeration's own count check.
    proc = start_with_fault(name, "rayclass.ray_class_number_oracle = lambda disc, t: 5")
    assert proc.returncode == 3
    assert proc.stderr.strip() == (
        "internal check failed: enumerated 4 classes, oracle says 5 over 2 reduced forms"
    )
    assert proc.stdout == ""


def test_residual_report_exits_1_on_a_failed_check():
    # wrong coordinates for every point fail the identity-class check alone
    fault = "checks.point_coords = lambda form, disc: (0, 0)"
    proc = start_with_fault("residual_report", fault, "--digits", "30", "--samples", "1")
    assert proc.returncode == 1, proc.stderr
    verdicts = [line[:4] for line in proc.stdout.splitlines()[1:]]
    assert verdicts == ["PASS"] * 4 + ["FAIL"] + ["PASS"] * 2

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
        f"from rayform import rayclass; {fault}; "
        f"import {name} as script; sys.exit(script.main())"
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=300
    )


@pytest.mark.parametrize("name", ["reproduce_tables"])
def test_scripts_exit_3_on_an_internal_check(name):
    # exit 1 means an uncovered class; an InternalCheckError is a bug and
    # exits 3 as `rayform` does.
    # An oracle count one too high trips enumeration's own count check.
    proc = start_with_fault(name, "rayclass.ray_class_number_oracle = lambda disc, t: 5")
    assert proc.returncode == 3
    assert proc.stderr.strip() == (
        "internal check failed: enumerated 4 classes, oracle says 5 over 2 reduced forms"
    )
    assert proc.stdout == ""


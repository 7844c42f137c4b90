import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    # conftest puts this checkout's src/ on PYTHONPATH for subprocesses
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_residual_report_prints_all_eight_checks():
    lines = run_script("residual_report.py", "--digits", "30", "--samples", "2")
    assert lines[0] == "digits=30 samples=2 seed=20260822"
    assert len(lines) == 9
    assert all(line.startswith("PASS  ") for line in lines[1:])
    assert lines[4].startswith(
        "PASS  power relations between the three indexed values: worst residual "
    )


def test_reproduce_tables_order_4():
    lines = run_script("reproduce_tables.py", "--case", "order-4 group")
    assert lines[0] == "== order-4 group: dK = -20, modulus 2,4,6 =="
    assert lines[1] == "classes (4):"
    assert "  0: 1,0,5   (e)" in lines
    assert "   g  g g3 g2  e" in lines
    assert "invariant factors: [4]  (Z/4)" in lines
    assert not any(line.startswith("==") and "order-12" in line for line in lines)

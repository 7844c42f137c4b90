"""Self-tests of the benchmark: its correctness gate can fail, the classes
it leaves out for missing the gate still miss it, and its spans reach every
binding site.

    python3 -m pytest bench/test_gate.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _checkout_copy(dest: Path) -> Path:
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def _run(root: Path, workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report["report"], result


def test_corrupted_references_fail_the_gate(tmp_path):
    root = _checkout_copy(tmp_path)
    refs = root / "bench" / "refs"

    sweep = json.loads((refs / "sweep.json").read_text())
    row = next(m for m in sweep["moduli"] if tuple(m[:4]) == wl.LADDER[0])
    row[-1] = row[-1][::-1]
    (refs / "sweep.json").write_text(json.dumps(sweep))

    evals = json.loads((refs / "eval.json").read_text())
    entry = next(e for e in evals["classes"] if e["pool"] == "worked")
    digits = entry["re"].replace("-", "")
    # change one digit far below 80 digits but within the 1000-digit gate
    k = digits.index(".") + 500
    entry["re"] = entry["re"].replace(digits, digits[:k] + str((int(digits[k]) + 1) % 10) + digits[k + 1:])
    (refs / "eval.json").write_text(json.dumps(evals))

    report, result = _run(root, "table-sweep")
    assert report["fail_ratio"] > 0 and result["failed"] >= 1 and result["correct"] is False
    assert any("reference" in f for f in report["failures"])

    report, result = _run(root, "eval-digits")
    assert report["fail_ratio"] > 0 and result["failed"] >= 1 and result["correct"] is False
    assert all("1000 digits" in f for f in report["failures"])


@pytest.mark.xfail(strict=True, reason=(
    "known defect: at tau0 with |q| near 1e-14, E4^3 - E6^2 cancels about 11 "
    "digits, more than the 10 guard digits, so the value misses the 10^-digits "
    "gate; when this passes, rerun make_refs.py so the classes return to the draw"))
def test_left_out_classes_still_miss_the_gate():
    import mpmath

    sys.path.insert(0, str(ROOT / "src"))
    from rayform import forms, modular, qfield, rayclass

    ref = wl.load_ref("eval.json")
    missed = [e for e in ref["classes"] if e["gate_miss"]]
    if not missed:
        pytest.skip("no class misses the gate")
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = ref["ref_digits"]
    for entry in missed:
        mod = rayclass.make_modulus(qfield.make_discriminant(entry["dk"]), *entry["ideal"])
        desc = rayclass.descriptor(forms.make_form(*entry["form"]), mod)
        digits = min(entry["gate_miss"])
        value = modular.eval_descriptor(desc, None, modular.Precision(digits))
        assert wl.eval_problem(ctx, ctx.mpc(entry["re"], entry["im"]), value, digits) is None


def test_spans_wrap_every_binding_site():
    sys.path.insert(0, str(ROOT / "src"))
    from rayform import forms, qfield, rayclass

    raw_reduce = forms.reduce
    rec = spans.Recorder()
    spans.install(rec)
    assert forms.reduce is not raw_reduce and rayclass.reduce is forms.reduce
    rayclass.group_table(rayclass.make_modulus(qfield.make_discriminant(-20), 2, 4, 6))
    stats = rec.summary()
    assert stats["rayclass.group_table"][0] == 1
    assert stats["forms.reduce"][0] > 0
    assert stats["rayclass.equivalent"][0] > stats["rayclass.equivalent"][3] > 0
    assert len(rec.spans()) == sum(row[0] for row in stats.values())

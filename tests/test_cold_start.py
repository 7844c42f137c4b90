"""What a fresh interpreter loads: the package root and the exact layer
never import the numeric layer (mpmath, modular, checks) or dataclasses,
only the subcommands that evaluate pay for modular and checks, and only
`eval`, which hands a value out as an mpmath number, loads mpmath."""

import json
import subprocess
import sys

import pytest


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter; conftest puts this checkout's src on
    PYTHONPATH."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)


LOADED = """
import json, sys
import rayform, rayform.qfield, rayform.forms, rayform.rayclass
names = ("mpmath", "rayform.modular", "rayform.checks", "dataclasses")
after_import = [m for m in names if m in sys.modules]
from rayform import cli
code = cli.main(["table", "--dk", "-23", "--ideal", "3,9,12"])
print(json.dumps([after_import, code, [m for m in names if m in sys.modules]]), file=sys.stderr)
"""


def test_exact_layer_loads_no_numeric_code():
    proc = fresh(LOADED)
    assert proc.returncode == 0, proc.stderr
    after_import, code, after_table = json.loads(proc.stderr.strip().splitlines()[-1])
    assert after_import == []
    assert code == 0 and json.loads(proc.stdout)["invariant_factors"] == [2, 6]
    assert "mpmath" not in after_table and "dataclasses" not in after_table


NUMERIC = """
import json, sys
from rayform import cli
code = cli.main({argv!r})
print(json.dumps([code, "mpmath" in sys.modules, "rayform.modular" in sys.modules]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loads_mpmath",
    [
        (["verify", "--dk", "-20", "--ideal", "2,4,6", "--digits", "40"], False),
        (["eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2"], True),
    ],
    ids=["verify", "eval"],
)
def test_only_eval_loads_mpmath(argv, loads_mpmath):
    """`verify` runs the numeric layer on ints from the form to the
    residuals: a fresh interpreter running it never imports mpmath, while
    `eval`, which hands its value out as an mpc and prints it, does."""
    proc = fresh(NUMERIC.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    code, mpmath_loaded, modular_loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0 and modular_loaded
    assert mpmath_loaded is loads_mpmath


# modular's own real exponential scaled by 1 + 1e-6 from the moment its
# import-time j(i) and j(rho) self-test starts (a profile hook swaps
# `_exp` in the module's namespace when `_startup_check` is called): the
# self-test must fail, and fail only the subcommands that load modular
SKEWED = """
import sys

def skew(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "_startup_check":
        exact = frame.f_globals["_exp"]
        def skewed(x, wp):
            man, e = exact(x, wp)
            return man * 1000001 // 1000000, e
        frame.f_globals["_exp"] = skewed
        sys.setprofile(None)

sys.setprofile(skew)
from rayform import cli
sys.exit(cli.main({argv!r}))
"""

MODULUS = ["--dk", "-20", "--ideal", "2,4,6"]


@pytest.mark.parametrize(
    "argv",
    [["eval", *MODULUS, "--form", "7,-6,2"], ["verify", *MODULUS, "--digits", "40"]],
    ids=["eval", "verify"],
)
def test_failed_self_test_exits_3(argv):
    proc = fresh(SKEWED.format(argv=argv))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal check failed: normalization self-test failed")
    assert "Traceback" not in proc.stderr


def test_failed_self_test_leaves_exact_subcommands_alone():
    proc = fresh(SKEWED.format(argv=["table", *MODULUS]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["invariant_factors"] == [4]

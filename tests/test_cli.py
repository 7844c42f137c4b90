import hashlib
import json
import os
import subprocess
import sys

import mpmath
import pytest

from rayform import checks, cli, modular
from rayform.forms import QuadForm
from rayform.qfield import make_discriminant
from rayform.rayclass import class_group_to_json, descriptor, group_table, make_modulus

from conftest import drop_a_principal_row, far_form, split_a_translate

BASE = [sys.executable, "-m", "rayform.cli"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("RAYFORM_DIGITS", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, env_extra=None):
    code, out, err = run(*args, env_extra=env_extra)
    assert code == 0, err
    return json.loads(out)


def test_reduced():
    data = run_json("reduced", "--dk", "-20")
    assert data == {
        "dK": -20,
        "forms": [{"a": 1, "b": 0, "c": 5}, {"a": 2, "b": 2, "c": 3}],
    }


def test_enumerate():
    data = run_json("enumerate", "--dk", "-20", "--ideal", "2,4,6")
    assert data["dK"] == -20
    assert data["ideal"] == "2,4,6"
    assert len(data["classes"]) == 4
    assert data["classes"][0] == {"a": 1, "b": 0, "c": 5}
    assert data["table"] is None
    assert data["invariant_factors"] is None


def test_enumerate_large_level():
    # a degree-one prime of norm 2003: the row scan stops at each fiber
    data = run_json("enumerate", "--dk", "-23", "--ideal", "1,1565,2003")
    assert len(data["classes"]) == 3003


def test_table():
    data = run_json("table", "--dk", "-20", "--ideal", "2,4,6")
    assert data["invariant_factors"] == [4]
    assert len(data["table"]) == 4
    assert data["table"][0] == [0, 1, 2, 3]


def test_table_stdout_is_the_indented_document():
    """`table` streams its JSON, byte for byte the one document
    `json.dumps(..., indent=2)` makes, plus a newline; at h = 216 the
    stream takes several writes."""
    code, out, err = run("table", "--dk", "-111", "--ideal", "9,0,9")
    assert code == 0, err
    group = group_table(make_modulus(make_discriminant(-111), 9, 0, 9))
    assert out == json.dumps(class_group_to_json(group), indent=2) + "\n"


def test_equiv_true_has_witness():
    data = run_json(
        "equiv", "--dk", "-20", "--ideal", "2,4,6",
        "--form", "7,-6,2", "--form", "7,8,3",
    )
    assert data["equivalent"] is True
    assert len(data["witness"]) == 2
    p, q = data["witness"][0]
    r, s = data["witness"][1]
    assert p * s - q * r == 1


def test_equiv_false_payload_shape():
    data = run_json(
        "equiv", "--dk", "-20", "--ideal", "2,4,6",
        "--form", "1,0,5", "--form", "5,0,1",
    )
    assert data == {"equivalent": False}


def test_compose():
    data = run_json(
        "compose", "--dk", "-20", "--ideal", "2,4,6",
        "--form", "7,-6,2", "--form", "7,-6,2",
    )
    assert set(data) == {"form"}
    f = data["form"]
    assert f["b"] ** 2 - 4 * f["a"] * f["c"] == -20

    check = run_json(
        "equiv", "--dk", "-20", "--ideal", "2,4,6",
        "--form", f"{f['a']},{f['b']},{f['c']}", "--form", "5,0,1",
    )
    assert check["equivalent"] is True


def test_descriptor():
    data = run_json(
        "descriptor", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2"
    )
    assert data["a_inv"] == 1
    assert data["eval_matrix"] == [[2, 4], [0, 6]]
    assert data["point"] == {"u": "1/7", "v": "-3/7"}
    assert data["twist"] == "S"


# sha256 of stdout at dK=-20, modulus 2,4,6, recorded while the payloads
# still copied the witness rows and the evaluation matrix into lists: `json`
# writes a tuple as it writes a list, so the records' own tuples print alike
PAYLOAD_DIGESTS = {
    ("equiv", "7,-6,2", "7,8,3", "json"): "34717835741d1265c0533a3270736c236b1a7d0e456e90c6bdaaadae75763095",
    ("equiv", "7,-6,2", "7,8,3", "text"): "2a1e4bdc133150f8fe3250dec368989a2d4938783f241fc79d5fd4ff94d891bb",
    ("equiv", "1,0,5", "5,0,1", "json"): "da1524430fc03f16643a6c7e5735bfea9705277bd03afea6fdc0d0a21e2857c4",
    ("equiv", "1,0,5", "5,0,1", "text"): "0c093f037a859b79e636c6bb739b72840ee4bcf152b0908c01c04415fa0b5773",
    ("descriptor", "7,-6,2", "json"): "539e0c007fbc517b7f6b924f0c59819373c83db232f40dc4319bc6ecb97e9b48",
}


@pytest.mark.parametrize("case", sorted(PAYLOAD_DIGESTS))
def test_payloads_pinned(case):
    command, *forms, fmt = case
    args = [a for f in forms for a in ("--form", f)]
    code, out, err = run(command, "--dk", "-20", "--ideal", "2,4,6", *args, "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PAYLOAD_DIGESTS[case], out


def test_eval_value():
    data = run_json(
        "eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2"
    )
    assert data["label"] == "1:0,1,6"
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 90
    value = ctx.mpc(ctx.mpf(data["value"]["re"]), ctx.mpf(data["value"]["im"]))
    frozen = ctx.mpc(
        ctx.mpf(
            "-42.855182905101068449100557011588521183723155126022991063846971556901684733638576"
        ),
        ctx.mpf(
            "3.9408890232094801321184191308074333547314047658643079005124102138293827652407576"
        ),
    )
    assert abs(value - frozen) < ctx.mpf(10) ** -75


def test_eval_index():
    args = ("eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2", "--digits", "40")
    data = run_json(*args, "--index", "2")
    assert data["label"] == "2:0,1,6"
    d = descriptor(QuadForm(7, -6, 2), make_modulus(make_discriminant(-20), 2, 4, 6))
    p = modular.Precision(40)
    assert data["value"] == modular.complex_to_json(modular.eval_descriptor(d, 2, p), p)

    code, out, err = run(*args, "--index", "4")
    assert code == 2
    assert out == ""
    assert err == "error: function index must be 1, 2 or 3, got 4\n"


def test_eval_deterministic():
    args = ("eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2")
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_digits_env_override():
    data = run_json(
        "eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2",
        env_extra={"RAYFORM_DIGITS": "40"},
    )
    assert len(data["value"]["re"].lstrip("-").replace(".", "")) <= 45

    code, _, err = run(
        "eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2",
        env_extra={"RAYFORM_DIGITS": "plenty"},
    )
    assert code == 2
    assert "RAYFORM_DIGITS" in err

    flag = run_json(
        "eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2",
        "--digits", "40", env_extra={"RAYFORM_DIGITS": "plenty"},
    )
    assert flag["label"] == "1:0,1,6"

    for env in ("0", "40"):
        code, _, err = run(
            "eval", "--dk", "-20", "--ideal", "2,4,6", "--form", "7,-6,2",
            "--digits", "0", env_extra={"RAYFORM_DIGITS": env},
        )
        assert code == 2
        assert "got 0" in err


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_digits_above_the_limit_exit_2(command):
    # a series at this many digits would end in MemoryError, so exit 2 with
    # the message shows the count is refused before any series runs
    args = [command, "--dk", "-20", "--ideal", "2,4,6"]
    if command == "eval":
        args += ["--form", "7,-6,2"]
    huge = "99999999999"
    message = f"error: need at most {modular.MAX_DIGITS} digits, got {huge}\n"
    for extra, env in ((["--digits", huge], None), ([], {"RAYFORM_DIGITS": huge})):
        assert run(*args, *extra, env_extra=env) == (2, "", message)


def test_tolerance_exponent_above_the_limit_exits_2():
    # 10^-t for t this large takes seconds to build as a Fraction before
    # any check runs, so exit 2 with the message shows t is refused first
    huge = "99999999999"
    message = f"error: tolerance exponent must be from 1 to {modular.MAX_DIGITS}, got {huge}\n"
    args = ["verify", "--dk", "-20", "--ideal", "2,4,6", "--tolerance-exponent", huge]
    assert run(*args) == (2, "", message)


def test_ideal_gens_matches_triple():
    a = run_json("enumerate", "--dk", "-20", "--ideal", "2,4,6")
    b = run_json("enumerate", "--dk", "-20", "--ideal-gens", "2,4;0,6")
    assert a == b

    code, _, err = run(
        "enumerate", "--dk", "-20", "--ideal", "2,4,6", "--ideal-gens", "2,4;0,6"
    )
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("gens", ["2,4;1,2", "0,6;0,3", "0,0;0,0", "2,0;0,3"])
def test_ideal_gens_rejects_non_ideals(gens):
    # three rank deficient generator pairs, and a lattice that is not an ideal
    code, out, err = run("enumerate", "--dk", "-20", "--ideal-gens", gens)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_text_format():
    code, out, _ = run("table", "--dk", "-20", "--ideal", "2,4,6", "--format", "text")
    assert code == 0
    with_lines = out.splitlines()
    assert with_lines[0] == "classes:"
    assert "invariant factors: 4" in with_lines
    try:
        json.loads(out)
        assert False, "text output should not parse as JSON"
    except json.JSONDecodeError:
        pass


def test_oracle():
    data = run_json("oracle", "--dk", "-20", "--ideal", "2,4,6")
    assert data == {"ray_class_number": 4}


def test_invalid_inputs_exit_2():
    code, _, err = run("enumerate", "--dk", "-20", "--ideal", "2,4,7")
    assert code == 2 and err

    code, _, _ = run("enumerate", "--dk", "-21", "--ideal", "1,0,2")
    assert code == 2

    code, _, _ = run("enumerate", "--dk", "-20")
    assert code == 2

    code, _, _ = run("frobnicate", "--dk", "-20")
    assert code == 2

    code, _, _ = run("equiv", "--dk", "-20", "--ideal", "2,4,6", "--form", "1,0,5")
    assert code == 2

    for t in ("0", "-3"):
        code, _, err = run(
            "verify", "--dk", "-20", "--ideal", "2,4,6", "--tolerance-exponent", t
        )
        assert code == 2
        assert "tolerance exponent" in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ("3,2,2", "error: leading coefficient 3 shares a factor with level 6\n"),
        ("1,1,6", "error: form discriminant -23 does not match field -20\n"),
    ],
    ids=["level", "discriminant"],
)
def test_forms_outside_the_modulus_exit_2(capsys, bad, message):
    # every --form position of every subcommand that takes a form; a form
    # of content 2 is refused by parse_form before it reaches rayclass
    good = ["--form", "1,0,5"]
    for args in (
        ["equiv", "--form", bad, *good],
        ["equiv", *good, "--form", bad],
        ["compose", "--form", bad, *good],
        ["compose", *good, "--form", bad],
        ["descriptor", "--form", bad],
        ["eval", "--form", bad],
    ):
        assert cli.main([*args, "--dk", "-20", "--ideal", "2,4,6"]) == 2, args
        assert capsys.readouterr() == ("", message), args
    assert cli.main(["descriptor", "--dk", "-20", "--ideal", "2,4,6", "--form", "2,0,10"]) == 2
    assert capsys.readouterr() == ("", "error: form (2,0,10) is not primitive\n")


def test_miscount_exits_3(monkeypatch, capsys):
    # enumeration one class short of the oracle stops both subcommands
    # before any output; verify prints no class count line of its own
    drop_a_principal_row(monkeypatch)
    for args in (["enumerate"], ["verify", "--digits", "40"]):
        assert cli.main([*args, "--dk", "-20", "--ideal", "2,4,6"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "oracle says 4" in err


@pytest.mark.parametrize(
    "forms, faulted, verdict",
    [(("7,-6,2", "7,8,3"), [0, 1], "witness=True, ideal route=False"),
     (("1,0,5", "5,0,1"), [0, 0], "witness=False, ideal route=True")],
    ids=["split", "joined"],
)
def test_equiv_exits_3_when_the_routes_disagree(monkeypatch, capsys, forms, faulted, verdict):
    # one ideal_keys call on both forms, its labels faulted against the witness
    calls = []
    monkeypatch.setattr(cli, "ideal_keys", lambda fs, mod: calls.append(fs) or faulted)
    args = ["equiv", "--dk", "-20", "--ideal", "2,4,6", "--form", forms[0], "--form", forms[1]]
    assert cli.main(args) == 3
    assert capsys.readouterr() == (
        "", f"internal check failed: equivalence routes disagree on {forms[0]} vs {forms[1]}: {verdict}\n"
    )
    assert [[str(f) for f in fs] for fs in calls] == [list(forms)]


def test_verify_reports_a_reduce_fault(monkeypatch, capsys):
    # the fault of `split_a_translate` reaches verify's report, where the
    # route check fails, instead of stopping the run before any output
    split_a_translate(monkeypatch, make_modulus(make_discriminant(-20), 2, 4, 6))
    args = ["verify", "--dk", "-20", "--ideal", "2,4,6", "--digits", "30", "--format", "text"]
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert "FAIL  witness equivalence vs ideal route: " in out
    assert out.endswith("overall: FAIL\n")
    assert "internal check failed" not in err


def test_verify_exits_3_on_a_descriptor_that_puts_its_point_on_the_lattice(monkeypatch, capsys):
    # a_inv moved to a_inv + 1 mod N on the forms with 3 | b and a > 1 makes
    # a_inv = 0 mod N somewhere: the row [0, a_inv/N] is integral, which
    # only a fault can hand `_exact_cell`, so verify exits 3, not 2
    build = checks.descriptor

    def shifted(form, mod):
        d = build(form, mod)
        if form.b % 3 == 0 and form.a > 1:
            return d._replace(a_inv=(d.a_inv + 1) % d.eval_matrix[1][1])
        return d

    monkeypatch.setattr(checks, "descriptor", shifted)
    assert cli.main(["verify", "--dk", "-20", "--ideal", "2,4,6", "--digits", "30"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal check failed: row is integral: the point sits on the lattice\n"


def test_equiv_on_a_form_far_from_reduced(capsys):
    # `reduce` needs 10202 steps on this valid form; both routes agree
    args = ["equiv", "--dk", "-20", "--ideal", "2,4,6", "--form", str(far_form()), "--form", "1,0,5"]
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["equivalent"] is True


def test_trivial_modulus_rejected():
    code, _, err = run("verify", "--dk", "-20", "--ideal", "1,0,1")
    assert code == 2
    assert "proper" in err


def test_verify_passes():
    data = run_json("verify", "--dk", "-20", "--ideal", "2,4,6", "--digits", "40")
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])
    assert [c["name"] for c in data["checks"]] == [
        "witness equivalence vs ideal route",
        "composition is class-level well-defined",
        "power relations between the three indexed values",
        "row transformation law",
        "identity-class descriptor sends the point to xi mod Z",
        "descriptor value constant on classes",
        "descriptor route vs unreduced route",
    ]


def test_verify_second_field():
    data = run_json("verify", "--dk", "-7", "--ideal", "1,1,2", "--digits", "40")
    assert data["passed"] is True


@pytest.mark.parametrize(
    "dk,ideal,digits",
    [("-479", "1,0,3", "80"), ("-1003", "1,2,11", "80"), ("-311", "1,0,3", "40"), ("-1000003", "1,2,13", "80")],
)
def test_verify_passes_past_a_few_hundred(dk, ideal, digits):
    """With the discriminant as E4^3 - E6^2 the q-series route lost about
    1.36 sqrt|dK|/a digits to cancellation, and the first three moduli
    exited 3 on correct values (route residuals 7.4e-40, 4.9e-13 and
    4.6e-11 against 10^-(digits/2)); Jacobi's product loses none.  At
    dK=-1000003 (h=630) the values reach 10^1360, and the route check read
    against an absolute 10^-40 failed on correct values (worst residual
    2.2e+1267); relative to the value the worst is 3.2e-92."""
    code, out, err = run("verify", "--dk", dk, "--ideal", ideal, "--digits", digits)
    assert code == 0, out + err
    assert all(check["passed"] for check in json.loads(out)["checks"])



# sha256 of `verify` stdout, recorded with the one-pass theta kernel and its
# post-processing on ints, the exact identity-class check, descriptor points
# reduced exactly in K, the route check on ideal-key partitions (labelled by
# qfield's own class form), translates that never return their own form,
# witness matrices from `lift_bottom_row`, theta cores run at x >= 0, the
# q-series route's E4 and E6 as Lambert series in the pe sum's loop, no
# class count line (enumeration checks the count), every theta core's
# q and w built from one real exponential at its exact point and every
# theta entry's point reduced exactly as the root of its integral form,
# S from theta2(pi z)/theta1(pi z), and each theta-route value formed on
# ints from the nome to the value and rounded once, the nome handed to the
# kernel as exact ints, unrounded, and class invariance decided on each
# translate's exact reduced point and cell, with no series, and the power
# and law samples drawn as random integral forms, the law's moved point the
# exact form of g(tau), and the q-series route's discriminant as Jacobi's
# product, its loop on fixed-point ints, reading an integral form, an int
# cell and the theta route's tail cutoff, and the route check also run at
# the power samples, and every check deciding on the routes' exact values
# on ints, with its own numeric reduction, entry and exit on ints and no
# mpmath, and both routes' values unrounded, a value rounded only where it
# leaves the library, and the route check's residual read relative to the
# theta value, which pins two moduli that an absolute residual failed, and
# the phases at multiples of pi/12 taken as square roots, with no series,
# and the q-series route's form reduced on its coefficients, its tau0 taken
# once from the reduced form at 12 guard bits;
# any change to a sample, value or detail string shows here
VERIFY_DIGESTS = {
    ("-1003", "1,2,11", "40", "json"): "449864aa44f6c7aee5d35cecdb7df51ca0fdc1058a093dc7662ae0ee5002e992",
    ("-111", "9,0,9", "40", "json"): "b453170d930140d5cc9decf55a2125d35976da531eb691ac21199ace745cd1e6",
    ("-20", "2,4,6", "40", "json"): "14e41f79c71ceb924ec8dd7e539750fcc8598669b5b3e8a854b1841c41eaee5c",
    ("-20", "2,4,6", "40", "text"): "7b08497747f46fbd68338bab5956c9943a9825098447fa5db2bfc472d00dc3f6",
    ("-23", "1,8,31", "40", "json"): "302c7376dcc23b3b53f77677abf874922a6ab5f85b8bc3a08b876a5621d387e5",
    ("-23", "3,9,12", "80", "json"): "9b04c18a8f2061dcfe9bbf20f04042fed53c593a1ca36ebb62671ba3fa0a50c7",
    ("-23", "3,9,12", "80", "text"): "2a0c4897ab0c82c870a50cc32341062cc05b117f64a146748e97cd8e7bb33f68",
    ("-3", "6,0,6", "80", "json"): "bd7052652e9a4b791f0926376a4ba4873feeefba1aede99cbde0452c6e75ce6d",
    ("-3", "6,0,6", "80", "text"): "8f09e77fb8919ce326f70b26cf941e6a6e0833901d7d06717190ef826389cbd2",
    ("-3299", "1,1,3", "80", "json"): "1983679fcdea3c2d7f6da72d24f2b9b531aa00f3db594753133e9afe19c81526",
    ("-4", "6,0,6", "80", "json"): "3fc3532baf4220dfff64f47b437c7570f2b0824a43096f96f25677b9e9276155",
    ("-4", "6,0,6", "80", "text"): "e8b7390ab8deb8d112c6a73545dbd2e34a61605e77013af31eadbc0cd3d8882e",
}


@pytest.mark.parametrize("dk,ideal,digits,fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_pinned(dk, ideal, digits, fmt):
    code, out, err = run(
        "verify", "--dk", dk, "--ideal", ideal, "--digits", digits, "--format", fmt
    )
    assert code == 0, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[dk, ideal, digits, fmt], out

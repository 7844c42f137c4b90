import hashlib
import json
import os
import subprocess
import sys

import mpmath
import pytest

from rayform import modular
from rayform.forms import QuadForm
from rayform.qfield import make_discriminant
from rayform.rayclass import descriptor, make_modulus

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


def test_table():
    data = run_json("table", "--dk", "-20", "--ideal", "2,4,6")
    assert data["invariant_factors"] == [4]
    assert len(data["table"]) == 4
    assert data["table"][0] == [0, 1, 2, 3]


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


def test_ideal_gens_matches_triple():
    a = run_json("enumerate", "--dk", "-20", "--ideal", "2,4,6")
    b = run_json("enumerate", "--dk", "-20", "--ideal-gens", "2,4;0,6")
    assert a == b

    code, _, err = run(
        "enumerate", "--dk", "-20", "--ideal", "2,4,6", "--ideal-gens", "2,4;0,6"
    )
    assert code == 2
    assert "not both" in err


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


def test_trivial_modulus_rejected():
    code, _, err = run("verify", "--dk", "-20", "--ideal", "1,0,1")
    assert code == 2
    assert "proper" in err


def test_verify_passes():
    data = run_json("verify", "--dk", "-20", "--ideal", "2,4,6", "--digits", "40")
    assert data["passed"] is True
    assert len(data["checks"]) == 8
    assert all(c["passed"] for c in data["checks"])
    names = [c["name"] for c in data["checks"]]
    assert len(set(names)) == 8


def test_verify_second_field():
    data = run_json("verify", "--dk", "-7", "--ideal", "1,1,2", "--digits", "40")
    assert data["passed"] is True


# sha256 of `verify` stdout, recorded with the fixed-point theta kernel and
# the integer law matrices; any change to a sample, value or detail string
# shows here
VERIFY_DIGESTS = {
    ("-20", "2,4,6", "40", "json"): "9788914cb238c47c5c8591d6f92733a389211e54a4a83403bc42eb869049f47b",
    ("-20", "2,4,6", "40", "text"): "61c2ff92dc1e7b8c3f045ea9f67a57e0fcffe6ac60116129c04e14814b1f8678",
    ("-23", "3,9,12", "80", "json"): "530295365baaca8f77838b0a09aa4245427115be5c7a5426d8c81b370b41221b",
    ("-23", "3,9,12", "80", "text"): "a357bdb2ece1b18b74661e94bb0d0ed8c219ec83449fe284c94dd86fec70649b",
    ("-3", "6,0,6", "80", "json"): "c85ca42583909baf3db6be96b2bc36c18b3287a8b2d1cdf7ad3ff6b3833c81c6",
    ("-3", "6,0,6", "80", "text"): "8a08c6c84f34e01e3aef34eb98c657f96d39902812478d0664e93bf09a6d9eb0",
    ("-4", "6,0,6", "80", "json"): "6dbc929390be889aa7abf6d0269fc84c56541ec21a58be232b83ae7ef893a72c",
    ("-4", "6,0,6", "80", "text"): "a6557324fd1208672dc8e343a11e817127b7a627eab445f6675c1b64eae286f6",
}


@pytest.mark.parametrize("dk,ideal,digits,fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_pinned(dk, ideal, digits, fmt):
    code, out, err = run(
        "verify", "--dk", dk, "--ideal", ideal, "--digits", digits, "--format", fmt
    )
    assert code == 0, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[dk, ideal, digits, fmt], out

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest

from rayform import checks, modular
from rayform.checks import run_checks, sci
from rayform.modular import Precision, eval_descriptor
from rayform.qfield import QFieldError, make_discriminant
from rayform.rayclass import descriptor, enumerate_classes, make_modulus

MOD20 = make_modulus(make_discriminant(-20), 2, 4, 6)


def test_sci_matches_float_format_in_double_range():
    for x in ("9.8176e-86", "1.058e-86", "9.99951e-5", "2.5e-7", "123.456"):
        assert sci(mpmath.mpf(x)) == f"{float(x):.3e}"
    assert sci(mpmath.mpf(0)) == "0.000e+00"
    assert sci(Fraction(1, 3)) == "3.333e-01"


def test_sci_below_double_range():
    assert sci(mpmath.mpf("1e-400")) == "1.000e-400"
    assert sci(mpmath.mpf("2.0475e-410")) == "2.048e-410"
    assert f"{float(mpmath.mpf('1e-400')):.3e}" == "0.000e+00"


@pytest.fixture(scope="module")
def too_tight():
    """The suite at 40 digits against a tolerance of 10^-60, which no
    honest numeric comparison at that precision can meet."""
    checks = run_checks(MOD20, Precision(40), 60, random.Random(911))
    return {c.name: c for c in checks}


@pytest.mark.parametrize(
    "name",
    [
        "power relations between the three indexed values",
        "row transformation law",
        "descriptor value constant on classes",
        "descriptor route vs unreduced route",
    ],
)
def test_numeric_checks_can_fail(too_tight, name):
    assert not too_tight[name].passed, too_tight[name].detail


def test_identity_check_fails_on_a_wrong_offset(monkeypatch):
    """An evaluation matrix whose offset is one off moves the identity
    class's point by a1/N, off xi mod Z."""
    name = "identity-class descriptor sends the point to xi mod Z"

    def identity_check():
        found = run_checks(MOD20, Precision(30), 15, random.Random(911))
        return next(c for c in found if c.name == name)

    assert identity_check().passed
    right = checks.descriptor

    def shifted(form, mod):
        d = right(form, mod)
        (a1, off), bottom = d.eval_matrix
        return dataclasses.replace(d, eval_matrix=((a1, off + 1), bottom))

    monkeypatch.setattr(checks, "descriptor", shifted)
    check = identity_check()
    assert not check.passed, check.detail
    assert "point - xi = (0)*tau + (1/6)" in check.detail


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-23, 3, 9, 12)])
def test_invariance_residuals_are_no_self_comparisons(ideal):
    """Every translate residual is nonzero and small.  With the exact
    reduction on both sides the same draws would give residuals of exactly
    0: those translates reach the representative's reduced point form and
    cell."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    p = Precision(80)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    values = [eval_descriptor(descriptor(rep, mod), None, p) for rep in reps]
    residuals = list(checks._invariance_residuals(mod, reps, values, p, random.Random(911)))
    assert len(residuals) == 2 * len(reps)
    assert all(r != 0 for r in residuals)
    assert max(residuals) < mpmath.mpf(10) ** -80
    rng = random.Random(911)
    exact = [
        abs(base - eval_descriptor(descriptor(moved, mod), None, p))
        for rep, base in zip(reps, values)
        for moved in checks._translates(rep, mod, rng, 2)
    ]
    assert exact.count(0) > 0


@pytest.mark.parametrize("samples", [0, -2])
def test_run_checks_rejects_fewer_than_one_sample(samples):
    """With no sample drawn the power and law checks would report a worst
    residual of 0 and pass without having compared anything."""
    with pytest.raises(QFieldError, match="sample count"):
        run_checks(MOD20, Precision(30), 15, random.Random(911), samples)


def test_law_draws_are_no_translations_and_no_self_comparisons(monkeypatch):
    drawn = []

    def recording(rng):
        g = law_matrix(rng)
        drawn.append(g)
        return g

    law_matrix = checks._law_matrix
    monkeypatch.setattr(checks, "_law_matrix", recording)
    residuals = list(checks._law_residuals(Precision(30), random.Random(911), 40))
    assert len(drawn) == len(residuals) == 40
    assert all(g.r != 0 for g in drawn)
    assert all(r != 0 for r in residuals)
    assert max(residuals) < mpmath.mpf(10) ** -30


def test_law_matrices_are_small_and_drawn_from_the_integers():
    """2,000 draws stay within the entries the float-reduction draw reached
    (|r|, |s| <= 2, |p|, |q| <= 3) and cover every admissible bottom row."""
    rng = random.Random(5)
    drawn = [checks._law_matrix(rng) for _ in range(2000)]
    assert all(g.r != 0 and g.p * g.s - g.q * g.r == 1 for g in drawn)
    assert max(max(abs(g.r), abs(g.s)) for g in drawn) == 2
    assert max(max(abs(g.p), abs(g.q)) for g in drawn) <= 3
    rows = {(r, s) for r in (-2, -1, 1, 2) for s in range(-2, 3) if math.gcd(r, s) == 1}
    assert {(g.r, g.s) for g in drawn} == rows


def test_power_check_fails_on_a_wrong_e6(monkeypatch):
    """E6 off by a relative 10^-40 breaks E4^3 - E6^2 = Delta on the theta
    route, so the power relations must fail at 10^-40: the check is not
    comparing a value with itself."""
    name = "power relations between the three indexed values"

    def power_check():
        found = run_checks(MOD20, Precision(80), 40, random.Random(911))
        return next(c for c in found if c.name == name)

    assert power_check().passed
    theta_core = modular._theta_core

    def wrong_e6(ctx, *args):
        s_val, e4, e6, delta = theta_core(ctx, *args)
        return s_val, e4, e6 * (1 + ctx.mpf(10) ** -40), delta

    monkeypatch.setattr(modular, "_theta_core", wrong_e6)
    check = power_check()
    assert not check.passed, check.detail


def test_contexts_are_shared_and_keep_their_precision():
    p80 = Precision(80)
    assert modular._ctx(Precision(80)) is modular._ctx(Precision(80))
    desc = descriptor(enumerate_classes(MOD20).classes[1].rep, MOD20)
    before = eval_descriptor(desc, None, p80)
    run_checks(MOD20, p80, 40, random.Random(911))
    eval_descriptor(desc, None, Precision(1000))
    assert modular._ctx(p80).dps == 90
    assert eval_descriptor(desc, None, p80) == before

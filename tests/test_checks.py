import math
import random
from fractions import Fraction

import mpmath
import pytest

from rayform import checks, forms, modular, qfield, rayclass
from rayform.checks import run_checks, sci
from rayform.forms import act, t_power
from rayform.modular import Precision, eval_descriptor
from rayform.qfield import InternalCheckError, QFieldError, make_discriminant
from rayform.rayclass import (
    class_translate,
    descriptor,
    enumerate_classes,
    group_table,
    make_modulus,
)

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


@pytest.mark.parametrize(
    "dk, mutation",
    [
        (-20, "offset"),
        (-3, "offset"),
        (-7, "offset"),
        (-20, "a_inv"),
        (-3, "a_inv"),
        (-20, "base point"),
    ],
)
def test_identity_check_fails_when_mutated(monkeypatch, dk, mutation):
    """The exact identity-class check passes as shipped and fails on each
    wrong descriptor:
    - `canonical_offset` shifted by t*a, which moves the point by t/N, for
      every t = 1..N-1.  For dK=-20 the shift by 4/N keeps the leader A and
      the discriminant of xi's form, so only the middle coefficient B tells
      it apart; for dK=-7 mod 1,0,2 the shift by 1/2 moves B by A alone,
      so B must be compared mod 2A, not mod A;
    - a_inv forced to the unit N - 1;
    - the evaluation matrix made scalar, which leaves the base point tau,
      a root of discriminant dK with another leader (for dK=-3 the base
      point tau + 1 is xi + 1, so that case passes there)."""
    ideal = {-20: (2, 4, 6), -3: (6, 0, 6), -7: (1, 0, 2)}[dk]
    mod = make_modulus(make_discriminant(dk), *ideal)
    name = "identity-class descriptor sends the point to xi mod Z"

    def identity_check():
        found = run_checks(mod, Precision(30), 15, random.Random(911))
        return next(c for c in found if c.name == name)

    assert identity_check().passed
    offset, right = rayclass.canonical_offset, checks.descriptor
    if mutation == "offset":
        for t in range(1, mod.level):
            monkeypatch.setattr(rayclass, "canonical_offset", lambda f, m, t=t: offset(f, m) + t * f.a)
            check = identity_check()
            assert not check.passed, check.detail
            assert f"point - xi = (0)*tau + ({Fraction(t, mod.level)})" in check.detail
        return
    change = {"a_inv": mod.level - 1} if mutation == "a_inv" else {
        "eval_matrix": ((mod.level, 0), (0, mod.level))
    }
    monkeypatch.setattr(checks, "descriptor", lambda f, m: right(f, m)._replace(**change))
    check = identity_check()
    assert not check.passed, check.detail


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


@pytest.mark.parametrize("dk,ideal", [(-23, (1, 8, 31)), (-111, (9, 0, 9))])
def test_translates_never_return_the_representative(dk, ideal):
    """Drawn as the route check draws them, with `verify`'s seed, no translate
    is its own representative; k = j = 0 used to hand back the form itself,
    4 times at each of these moduli."""
    mod = make_modulus(make_discriminant(dk), *ideal)
    reps = [fc.rep for fc in group_table(mod).classes]
    rng = random.Random(911)
    moved = [(rep, m) for rep in reps for m in checks._translates(rep, mod, rng, 2)]
    assert len(moved) == 2 * len(reps)
    assert all(m != rep for rep, m in moved)
    assert all(class_translate(rep, mod, 0, 0) is None for rep in reps)


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


ROUTE_CHECK = "witness equivalence vs ideal route"


def _route_check(mod):
    found = run_checks(mod, Precision(30), 15, random.Random(911))
    return next(c for c in found if c.name == ROUTE_CHECK)


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-3, 6, 0, 6), (-4, 6, 0, 6)])
@pytest.mark.parametrize("mutation", ["translate of another class", "first generator"])
def test_route_check_fails_when_mutated(monkeypatch, ideal, mutation):
    """The partition check passes as shipped and fails on each mutation:
    - the translates of the first representative drawn from the second
      one instead, which the class count cannot see;
    - each ideal key taken from the first generator listed instead of the
      least over all of them, over 2, 6 and 4 units."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    assert _route_check(mod).passed
    if mutation == "first generator":
        gens = rayclass.minimal_norm_elements
        monkeypatch.setattr(rayclass, "minimal_norm_elements", lambda t: gens(t)[:1])
    else:
        reps, translates = [fc.rep for fc in enumerate_classes(mod).classes], checks._translates
        moved = lambda f, m, rng, want: translates(reps[1] if f == reps[0] else f, m, rng, want)
        monkeypatch.setattr(checks, "_translates", moved)
    check = _route_check(mod)
    assert not check.passed, check.detail


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-3, 6, 0, 6)])
def test_route_check_sees_a_reduce_fault_that_splits_a_class(monkeypatch, ideal):
    """A `reduce` fault gives one translate of the second class the reduced
    label (a, b + 2a, .), properly equivalent to the right one.  Both routes
    built on reduction are fooled alike: the class key and the witness
    search put the translate in a class of its own.  The ideal keys use no
    reduction, so their partition keeps its h blocks and the oracle joins
    the translate pair.  `verify` fails first at `class_translate`'s own
    witness test; without that test it fails at the route check, where the
    class key finds h + 1 blocks and the ideal key h."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    rng = random.Random(911)
    target = [checks._translates(rep, mod, rng, 2) for rep in reps][1][0]
    reduce_ = forms.reduce

    def split(form):
        red, g = reduce_(form)
        return (act(red, t_power(1)), t_power(-1) @ g) if form == target else (red, g)

    for module in (forms, rayclass, modular):
        monkeypatch.setattr(module, "reduce", split)
    assert rayclass.class_key(target, mod) != rayclass.class_key(reps[1], mod)
    assert rayclass.equivalent(reps[1], target, mod) is None
    assert rayclass.equivalent_oracle(reps[1], target, mod)
    with pytest.raises(InternalCheckError, match="translate left the class"):
        run_checks(mod, Precision(30), 15, random.Random(911))

    def unguarded(form, m, k, j):
        moved = act(form, rayclass.witness_matrix(form, m, k, j).inv())
        return moved if moved.a > 0 and math.gcd(moved.a, m.level) == 1 else None

    monkeypatch.setattr(checks, "class_translate", unguarded)
    found = run_checks(mod, Precision(30), 15, random.Random(911))
    assert [c.name for c in found if not c.passed] == [ROUTE_CHECK]
    h = len(reps)
    assert f"in {h + 1} classes by class key, {h} by ideal key," in found[1].detail
    assert f"{2 * h - 1}/{2 * h} translate pairs agree" in found[1].detail


@pytest.mark.parametrize(
    "ideal, blocks", [((-23, 3, 9, 12), 14), ((-23, 1, 8, 31), 46), ((-111, 9, 0, 9), 218)]
)
def test_route_check_fails_without_the_boundary_flip(monkeypatch, ideal, blocks):
    """`ideal_class_form` without its b -> -b step names one ideal class by
    two forms, (a, -a, c) and (a, a, c) or (a, -b, a) and (a, b, a), so the
    ideal-key partition splits classes and the route check fails."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])

    def unflipped(t):
        _, _, abc = qfield._lagrange(t)
        return tuple(x // t.norm() for x in abc)

    monkeypatch.setattr(rayclass, "ideal_class_form", unflipped)
    check = _route_check(mod)
    assert not check.passed
    assert f" {blocks} by ideal key," in check.detail


def test_run_checks_calls_the_oracle_once_per_translate_pair(monkeypatch):
    calls = []
    oracle = checks.equivalent_oracle
    monkeypatch.setattr(checks, "equivalent_oracle", lambda *args: calls.append(args) or oracle(*args))
    found = run_checks(MOD20, Precision(30), 15, random.Random(911))
    assert all(c.passed for c in found)
    assert len(calls) == 2 * len(enumerate_classes(MOD20).classes)

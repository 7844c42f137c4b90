import collections
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from rayform import checks, modular, qfield, rayclass
from rayform.checks import run_checks, sci
from rayform.forms import IDENT, QuadForm, UnimodMatrix, act, automorphs, reduce, t_power
from rayform.modular import Precision, eval_descriptor
from rayform.qfield import QFieldError, make_discriminant
from rayform.rayclass import (
    class_translate,
    descriptor,
    enumerate_classes,
    group_table,
    make_modulus,
)

from conftest import (
    CLOSED_FORM_FAULTS,
    REDUCE_TAU_FAULTS,
    closed_form_fault,
    same_ideal_label,
    source_fault,
    split_a_translate,
)

MOD20 = make_modulus(make_discriminant(-20), 2, 4, 6)


def test_sci_matches_float_format_in_double_range():
    for x in ("9.8176e-86", "1.058e-86", "9.99951e-5", "2.5e-7", "123.456"):
        assert sci(Fraction(x)) == f"{float(x):.3e}"
    assert sci(Fraction(0)) == "0.000e+00"
    assert sci(Fraction(1, 3)) == "3.333e-01"


def test_sci_below_double_range():
    assert sci(Fraction("1e-400")) == "1.000e-400"
    assert sci(Fraction("2.0475e-410")) == "2.048e-410"
    assert f"{float(Fraction('1e-400')):.3e}" == "0.000e+00"


@pytest.fixture(scope="module")
def too_tight():
    """The suite at 40 digits against a tolerance of 10^-60, which no
    honest numeric comparison at that precision can meet."""
    checks = run_checks(MOD20, Precision(40), 60)
    return {c.name: c for c in checks}


@pytest.mark.parametrize(
    "name",
    [
        "power relations between the three indexed values",
        "row transformation law",
        "descriptor route vs unreduced route",
    ],
)
def test_numeric_checks_can_fail(too_tight, name):
    """Each numeric check fails at 10^-60 on 40 digits."""
    assert not too_tight[name].passed, too_tight[name].detail


@pytest.mark.parametrize("digits", [40, 80])
def test_law_residuals_are_never_exactly_zero(digits):
    """Both sides of a law sample are exact values, unrounded, at two
    different exact inputs, so no residual is exactly 0: not one of 200
    samples drawn one at a time from Random(911).  Rounded to the working
    precision, the two sides agreed to the bit on 196 of them at 40 digits
    and on 198 at 80."""
    rng = random.Random(911)
    for k in range(200):
        ((n, _),) = checks._law_residuals(Precision(digits), rng, 1)
        assert n, k


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
        found = run_checks(mod, Precision(30), 15)
        return next(c for c in found if c.name == name)

    assert identity_check().passed
    offset, right = rayclass.canonical_offset, checks.descriptor
    if mutation == "offset":
        for t in range(1, mod.c):
            monkeypatch.setattr(rayclass, "canonical_offset", lambda f, m, t=t: offset(f, m) + t * f.a)
            check = identity_check()
            assert not check.passed, check.detail
            assert f"point - xi = (0)*tau + ({Fraction(t, mod.c)})" in check.detail
        return
    change = {"a_inv": mod.c - 1} if mutation == "a_inv" else {
        "eval_matrix": ((mod.c, 0), (0, mod.c))
    }
    monkeypatch.setattr(checks, "descriptor", lambda f, m: right(f, m)._replace(**change))
    check = identity_check()
    assert not check.passed, check.detail


@pytest.mark.parametrize("dk, ideal", [(-3, (3, 6, 9)), (-4, (4, 4, 8))])
def test_modulus_is_the_canonical_triple(dk, ideal):
    """The modulus is its ideal: `make_modulus` returns the canonical triple
    and rejects the order itself, and a triple parsed from text or spanned
    by other generators (`--ideal-gens`) gives the same table and report."""
    disc = make_discriminant(dk)
    a1, a2, c = ideal
    mod = make_modulus(disc, a1, a2, c)
    assert mod == qfield.make_ideal_triple(disc, a1, a2, c)
    with pytest.raises(QFieldError):
        make_modulus(disc, 1, 0, 1)
    table = group_table(mod)
    report = run_checks(mod, Precision(30), 15)
    assert all(check.passed for check in report)
    parsed = qfield.parse_ideal_triple(disc, f"{a1},{a2},{c}")
    spanned = qfield.canonicalize_ideal(disc, [(a1, a2 + c), (2 * a1, 2 * a2 + c)])
    for triple in (parsed, spanned):
        assert triple == mod
        assert group_table(triple) == table
        assert run_checks(triple, Precision(30), 15) == report


INVARIANCE = "descriptor value constant on classes"


@pytest.mark.parametrize("ideal", [(-3, 6, 0, 6), (-4, 5, 0, 5), (-4, 6, 0, 6), (-111, 9, 0, 9)])
def test_value_key_steps_are_needed_and_keep_the_value(ideal):
    """`_value_key`'s automorph and mod-n steps are needed: some
    translates reach `eval_descriptor`'s raw input, the reduced point and
    the cell of the row pushed through the witness, other than their
    representative's, and compare equal only after the steps.  And they
    keep the value: there each translate's value at 80 digits is its
    representative's within a relative 10^-90.  The translates are the
    route check's, drawn as `run_checks` draws them with seed 911."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    reps = [fc.rep for fc in group_table(mod).classes]
    rng = random.Random(911)
    moved = [(rep, m) for rep in reps for m in checks._translates(rep, mod, rng, 2)]
    p = Precision(80)

    def raw(desc):
        red, g = reduce(desc.eval_point())
        return red, modular._exact_cell(0, desc.a_inv, desc.eval_matrix[1][1], g.inv())

    pairs = [(descriptor(rep, mod), descriptor(m, mod)) for rep, m in moved]
    differ = [(rep, d) for rep, d in pairs if raw(d) != raw(rep)]
    assert differ
    for rep, d in pairs:
        assert modular._value_key(d) == modular._value_key(rep)
    for rep, d in differ:
        base = eval_descriptor(rep, None, p)
        assert abs(eval_descriptor(d, None, p) - base) <= abs(base) * mpmath.mpf(10) ** -90


def _descriptor_fault(monkeypatch, fault):
    """Inject one fault into the descriptors of the forms with 3 | b and
    a > 1 (the identity class's form (1, ., .) is never hit)."""
    hit = lambda f: f.b % 3 == 0 and f.a > 1
    if fault == "offset shifted by a":
        offset = rayclass.canonical_offset
        shifted = lambda f, m: offset(f, m) + f.a * hit(f)
        monkeypatch.setattr(rayclass, "canonical_offset", shifted)
        return
    right = checks.descriptor

    def moved(f, m):
        d = right(f, m)
        if not hit(f):
            return d
        if fault == "a_inv moved by 1":
            # left alone where it would reach 0, a row of no torsion point
            return d._replace(a_inv=(d.a_inv + 1) % m.c or d.a_inv)
        (a1, off), bottom = d.eval_matrix
        return d._replace(eval_matrix=((a1, off + 1), bottom))

    monkeypatch.setattr(checks, "descriptor", moved)


DESCRIPTOR_FAULTS = ["offset shifted by a", "a_inv moved by 1", "m moved by 1"]


@pytest.mark.parametrize(
    "ideal, reached",
    [((-20, 2, 4, 6), (2, 5, 2)), ((-3, 6, 0, 6), (3, 3, 3)), ((-4, 5, 0, 5), (5, 7, 5))],
    ids=["-20", "-3", "-4"],
)
@pytest.mark.parametrize("fault", DESCRIPTOR_FAULTS)
def test_invariance_check_fails_on_a_descriptor_fault(monkeypatch, ideal, reached, fault):
    """The exact invariance check passes as shipped and fails on each fault
    in the descriptors of some classes: `canonical_offset` shifted by a,
    a_inv moved to a_inv + 1 mod N, and the evaluation matrix's entry m
    moved to m + 1.  The route check compares two routes from the
    descriptor's one point, so it passes on the offset fault: only this
    check sees a descriptor that moves the point."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    translates = 2 * len(group_table(mod).classes)

    def report():
        return {c.name: c for c in run_checks(mod, Precision(30), 15)}

    before = report()[INVARIANCE]
    assert before.passed
    assert before.detail.startswith(f"{translates}/{translates} translates reach")
    _descriptor_fault(monkeypatch, fault)
    after = report()
    check = after[INVARIANCE]
    assert not check.passed
    reach = reached[DESCRIPTOR_FAULTS.index(fault)]
    assert check.detail.startswith(f"{reach}/{translates} translates reach")
    if fault == "offset shifted by a":
        assert [c.name for c in after.values() if not c.passed] == [INVARIANCE]


def test_verify_calls_fricke_only_through_eval_descriptor(monkeypatch):
    """Every check of `run_checks` passes with `modular._mpc`, the one place
    where a value is rounded, and the public entries that hand out its mpc
    values refusing, so no check reads a rounded value; `eval_descriptor`'s
    exact value (`modular._eval_descriptor`) runs once per class, in the
    route check; the invariance check compares exact inputs, not values at
    rounded points."""
    eval_descriptor, calls = modular._eval_descriptor, []

    def counted(desc, i, p):
        calls.append(desc)
        return eval_descriptor(desc, i, p)

    def refuse(*args):
        raise AssertionError("verify handed a value out as an mpc")

    monkeypatch.setattr(modular, "_eval_descriptor", counted)
    for name in ("_mpc", "fricke", "eval_descriptor", "eval_descriptor_unreduced", "eisenstein_j"):
        monkeypatch.setattr(modular, name, refuse)
    assert all(c.passed for c in run_checks(MOD20, Precision(80), 40))
    classes = group_table(MOD20).classes
    assert sorted(calls) == sorted(descriptor(fc.rep, MOD20) for fc in classes)


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


def test_law_draws_are_no_translations_and_no_self_comparisons(monkeypatch):
    """In every law draw the two sides enter the theta core with different
    exact inputs, (form, cell) at g(tau) with the row and at tau with
    row*g, so no residual compares a value with itself."""
    drawn, inputs = [], []

    def recording(rng):
        g = law_matrix(rng)
        drawn.append(g)
        return g

    def fricke_at(label, form, p):
        inputs.append((form, modular._exact_cell(label.r, label.s, label.level, IDENT)))
        return unrecorded(label, form, p)

    law_matrix, unrecorded = checks._law_matrix, modular._fricke_at
    monkeypatch.setattr(checks, "_law_matrix", recording)
    monkeypatch.setattr(modular, "_fricke_at", fricke_at)
    residuals = list(checks._law_residuals(Precision(30), random.Random(911), 40))
    assert len(drawn) == len(residuals) == 40 and len(inputs) == 80
    assert all(g.r != 0 for g in drawn)
    assert all(left != right for left, right in zip(inputs[::2], inputs[1::2]))
    # each residual is the exact pair (n, d) with n/d its square
    assert all(n * 10**60 < d for n, d in residuals)


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


def test_power_and_law_forms_are_primitive_and_in_the_strip():
    """2,000 draws are primitive positive definite forms with 16-bit a,
    whose roots lie in the strip |Re tau| <= 1/2, 0.4 <= Im tau <= 1.4,
    with only the automorphs +-1, over many discriminants, most of them
    not of the form -4 k^2 (the points of Q(i))."""
    rng = random.Random(5)
    drawn = [checks._random_form(rng) for _ in range(2000)]
    for form in drawn:
        a, b, _ = form
        assert form.content() == 1 and 1 << 15 <= a < 1 << 16 and form.disc() < 0, form
        assert abs(b) <= a and Fraction(16, 100) <= Fraction(-form.disc(), 4 * a * a) <= Fraction(196, 100), form
        assert automorphs(form) == (IDENT, UnimodMatrix(-1, 0, 0, -1)), form
    discs = {form.disc() for form in drawn}
    gaussian = {d for d in discs if d % 4 == 0 and math.isqrt(-d // 4) ** 2 == -d // 4}
    assert len(discs) > 1990 and len(gaussian) < 20


def test_law_check_fails_on_a_point_placement_fault(monkeypatch):
    """`_exact_cell` placing z at (k, -m, n) moves each value away from its
    point; every other input stays exact.  The law check as `verify` runs
    it (80 digits, tolerance 10^-40, seed 911) passes as shipped and fails
    under the fault, its two sides no longer related by the law."""
    name = "row transformation law"

    def law_check():
        found = run_checks(MOD20, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert law_check().passed
    exact_cell = modular._exact_cell

    def misplaced(*args):
        k, m, n = exact_cell(*args)
        return k, -m, n

    monkeypatch.setattr(modular, "_exact_cell", misplaced)
    check = law_check()
    assert not check.passed, check.detail


def worst_law_residual(p, forms, rows, matrices):
    """The worst law residual of `_law_residuals`, |f(g(tau); row) -
    f(tau; row*g)| with g(tau) the root of act(form, g^-1), over the given
    forms, rows (r, s, level) and matrices, as an exact Fraction squared."""
    worst = Fraction(0)
    for form, (r, s, level), g in itertools.product(forms, rows, matrices):
        label = modular.FrickeLabel(1, r, s, level)
        moved = modular.FrickeLabel(1, r * g.p + s * g.r, r * g.q + s * g.s, level)
        left, right = modular._fricke_at(label, act(form, g.inv()), p), modular._fricke_at(moved, form, p)
        worst = max(worst, Fraction(*checks._square(checks._diff(left, right))))
    return worst


@pytest.mark.parametrize("digits", [40, 80])
def test_law_check_sees_a_closed_form_fault(monkeypatch, digits):
    """Both descriptor routes take their phases from `_cos_sin_pi`, so the
    route check cannot see a wrong closed form, but the law can: it
    compares values at two different points.  At the roots of (2, 1, 3),
    (3, 1, 3) and (6, 1, 6), whose q phases fold to pi/4, pi/6 and pi/12,
    with rows of level 12 and matrices with g.r != 0, the law holds within
    10^-digits at 40 and 80 digits, and each fault of `CLOSED_FORM_FAULTS`
    breaks it."""
    p = Precision(digits)
    forms = [QuadForm(2, 1, 3), QuadForm(3, 1, 3), QuadForm(6, 1, 6)]
    rows = [(1, 5, 12), (0, 7, 12), (6, 1, 12)]
    matrices = [UnimodMatrix(0, -1, 1, 0), UnimodMatrix(1, 0, 1, 1), UnimodMatrix(2, 1, 1, 1)]
    assert worst_law_residual(p, forms, rows, matrices) * 10 ** (2 * digits) <= 1
    for fault in CLOSED_FORM_FAULTS:
        with monkeypatch.context() as patched:
            closed_form_fault(patched, fault)
            assert worst_law_residual(p, forms, rows, matrices) * 10 ** (2 * digits) > 1, fault


def scaled_by(value, num, den):
    """An exact value (re, im, e) of the theta route times num/den, floored
    200 bits below its own last bit."""
    re, im, e = value
    return (re * num << 200) // den, (im * num << 200) // den, e - 200


def test_power_check_fails_on_a_wrong_e6(monkeypatch):
    """E6 off by a relative 10^-40 breaks E4^3 - E6^2 = Delta on the theta
    route, so the power relations must fail at 10^-40: the check is not
    comparing a value with itself."""
    name = "power relations between the three indexed values"

    def power_check():
        found = run_checks(MOD20, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert power_check().passed
    theta_values = modular._theta_values

    def wrong_e6(*args):
        s_val, e4, e6, delta = theta_values(*args)
        return s_val, e4, scaled_by(e6, 10**40 + 1, 10**40), delta

    monkeypatch.setattr(modular, "_theta_values", wrong_e6)
    check = power_check()
    assert not check.passed, check.detail


@pytest.mark.parametrize("slot", [2, 0], ids=["E6", "S"])
def test_route_check_fails_on_a_wrong_qseries_value(monkeypatch, slot):
    """E6 or S off by a relative 10^-40 on the q-series route moves every
    unreduced value, so the route check must fail at 10^-40: it reads the
    reference route, not the theta route twice."""
    name = "descriptor route vs unreduced route"

    def route_check():
        found = run_checks(MOD20, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert route_check().passed
    qseries_core = modular._qseries_core

    def wrong_value(*args):
        values = list(qseries_core(*args))
        values[slot] = scaled_by(values[slot], 10**40 + 1, 10**40)
        return tuple(values)

    monkeypatch.setattr(modular, "_qseries_core", wrong_value)
    check = route_check()
    assert not check.passed, check.detail


def test_route_check_fails_on_a_jacobi_product_fault(monkeypatch):
    """The q-series route's Delta as 1728 q P^23 in place of 1728 q P^24
    moves every unreduced value, so the route check must fail at 10^-40:
    Jacobi's product is the reference route's one discriminant."""
    name = "descriptor route vs unreduced route"

    def route_check():
        found = run_checks(MOD20, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert route_check().passed
    qseries_core = modular._qseries_core

    def one_factor_short(p, tau0, cell):
        s_val, e4, e6, delta = qseries_core(p, tau0, cell)
        ctx = mpmath.ctx_mp.MPContext()
        ctx.prec = 2 * modular._prec(p)
        x, y, e = tau0
        q = ctx.exp(2j * ctx.pi * ctx.mpc(ctx.ldexp(x, e), ctx.ldexp(y, e)))
        prod, qn, cutoff = ctx.mpc(1), q, ctx.exp(modular._cutoff(p))
        while abs(qn) >= cutoff:
            prod *= 1 - qn
            qn *= q
        short = ctx.mpc(ctx.ldexp(delta[0], delta[2]), ctx.ldexp(delta[1], delta[2])) / prod
        k = ctx.prec - ctx.mag(short)
        return s_val, e4, e6, (int(ctx.floor(ctx.ldexp(short.real, k))), int(ctx.floor(ctx.ldexp(short.imag, k))), -k)

    monkeypatch.setattr(modular, "_qseries_core", one_factor_short)
    check = route_check()
    assert not check.passed, check.detail


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-4, 6, 0, 6)])
def test_route_check_fails_on_a_qseries_product_fault(monkeypatch, ideal):
    """A sign slip in the cross term of the q-series route's own complex
    product (Gauss's form) fails `verify`'s route check at 80 digits
    (tolerance 10^-40, seed 911) and leaves every theta-route value as it
    was: the q-series loop multiplies with its own helper, which the theta
    route never calls.  At dK=-4 every point reduces to tau = i, where q
    is real, yet a and b are not."""
    name = "descriptor route vs unreduced route"
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    descs = [descriptor(fc.rep, mod) for fc in enumerate_classes(mod).classes]

    def route_check():
        found = run_checks(mod, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert route_check().passed
    theta = [eval_descriptor(d, None, Precision(80)) for d in descs]

    def slipped(x, y, wp):
        (xr, xi), (yr, yi) = x, y
        k = yr * (xr + xi)
        return (k - xi * (yr + yi)) >> wp, (k - xr * (yi - yr)) >> wp

    monkeypatch.setattr(modular, "_qseries_mul", slipped)
    check = route_check()
    assert not check.passed, check.detail
    assert [eval_descriptor(d, None, Precision(80)) for d in descs] == theta


@pytest.mark.parametrize(
    "ideal, digits, exp, under_absolute",
    [((-111, 9, 0, 9), 40, 35, True), ((-3299, 1, 1, 3), 80, 78, False)],
    ids=["-111", "-3299"],
)
def test_route_check_fails_on_a_relative_fault(monkeypatch, ideal, digits, exp, under_absolute):
    """The q-series value of the class with the largest |value| scaled by
    1 + 10^-exp fails the route check, whose gate is a relative
    10^-digits.  At dK=-111 `9,0,9` that value is about 10^11.3, so the
    fault moves it by about 10^-23.7: under the absolute 10^-20 that the
    check read before, which missed it.  At dK=-3299 `1,1,3` the values
    reach 10^73.9, where an absolute gate fails correct values."""
    name = "descriptor route vs unreduced route"
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    p = Precision(digits)

    def route_check():
        return next(c for c in run_checks(mod, p, digits // 2) if c.name == name)

    assert route_check().passed
    descs = [descriptor(fc.rep, mod) for fc in group_table(mod).classes]
    values = {d: modular._eval_descriptor(d, None, p) for d in descs}
    big = max(descs, key=lambda d: Fraction(*checks._square(values[d])))
    unreduced = modular._eval_descriptor_unreduced

    def faulted(desc, p):
        value = unreduced(desc, p)
        return scaled_by(value, 10**exp + 1, 10**exp) if desc == big else value

    moved = checks._square(checks._diff(values[big], scaled_by(values[big], 10**exp + 1, 10**exp)))
    assert (moved[0] * 10**digits < moved[1]) == under_absolute
    monkeypatch.setattr(modular, "_eval_descriptor_unreduced", faulted)
    check = route_check()
    assert not check.passed, check.detail


def _least_modulus(disc):
    """The proper modulus (1, a2, c) of least c >= 3, then least a2."""
    for c in itertools.count(3):
        for a2 in range(c):
            if disc.norm(1, a2) % c == 0:
                return make_modulus(disc, 1, a2, c)


def _sweep(lo, hi, seed, count, digits):
    """`verify`'s checks at `digits` digits and the default tolerance on
    `count` fundamental dK drawn from [lo, hi] with `seed`, each with its
    least proper modulus; the worst route residual and where it was."""
    pool = []
    for d in range(lo, hi + 1):
        try:
            pool.append(make_discriminant(d))
        except QFieldError:
            pass
    worst = []
    for disc in random.Random(seed).sample(pool, count):
        mod = _least_modulus(disc)
        report = run_checks(mod, Precision(digits), digits // 2)
        assert all(c.passed for c in report), (disc.d, mod, [str(c) for c in report])
        worst.append((float(report[-1].detail.split()[-1]), disc.d))
    return max(worst)


def test_verify_passes_on_a_seeded_sweep_of_fundamental_discriminants():
    """`verify`'s checks at 80 digits and tolerance 10^-40 on ten
    fundamental dK drawn from [-1000, -120] (seed 46), each with its least
    proper modulus (1, a2, c), c >= 3.  With the discriminant as
    E4^3 - E6^2, seven of the ten failed the route check (-863, -923, -616,
    -740, -943, -947, -879; worst 6.9e-15 at -947 `1,0,3`); with Jacobi's
    product the worst route residual, relative to the value, is 4.1e-92."""
    assert _sweep(-1000, -120, 46, 10, 80)[0] < 1e-88


def test_verify_passes_on_a_seeded_sweep_past_a_thousand():
    """`verify`'s checks at 40 digits on six fundamental dK drawn from
    [-10^4, -1000] (seed 51): -6735, -3239, -2567, -7832, -6695 and -6904,
    h from 32 to 92.  The values reach 10^63 there, and read against an
    absolute 10^-20 every route check failed on correct values (worst
    residual 1.4e+63 at -7832); relative to the value the worst is 3.6e-52,
    at -3239, against the gate 10^-40."""
    assert _sweep(-10**4, -1000, 51, 6, 40)[0] < 1e-48


def test_only_the_route_check_sees_a_fault_in_s(monkeypatch):
    """S scaled by 1 + 2^-100 (about 8e-31) on the theta route, at 80 digits
    and a tolerance of 10^-40: only "descriptor route vs unreduced route"
    fails, the one check with a value from the q-series route.  Both power
    relations reduce to Delta = E4^3 - E6^2, where S enters only as a scale
    factor, so they test Jacobi's identity among the theta constants; the
    law compares the theta route with itself, and invariance compares
    exact inputs, no values.  This pins that blind spot, as the table
    census pins the table's.  The route residual, relative to the value,
    reads the fault's own size, 2^-100 = 7.889e-31 (3.395e-29 absolute)."""
    before = run_checks(MOD20, Precision(80), 40)
    theta_values = modular._theta_values

    def scaled_s(*args):
        (re, im, e), *rest = theta_values(*args)
        return ((re * (2**100 + 1), im * (2**100 + 1), e - 100), *rest)

    monkeypatch.setattr(modular, "_theta_values", scaled_s)
    after = run_checks(MOD20, Precision(80), 40)
    assert all(c.passed for c in before)
    assert [c.name for c in after if not c.passed] == ["descriptor route vs unreduced route"]
    assert after[5] == before[5]  # invariance: exact, no value read
    assert after[6].detail == "worst residual 7.889e-31"


def _theta_fault(monkeypatch, fault):
    """Inject one fault into the theta route's S.  The odd halves of both
    w-series are negated where `_theta_sums` returns them; the other two
    move S = A - (t3 + t4)/12 where `_theta_values` returns it, as if its
    constant took t2 for t4, or A's /4 were dropped, t_k from mpmath's
    jtheta at the core's own nome."""
    if fault == "odd half's sign flipped":
        theta_sums = modular._theta_sums

        def flipped(*args):
            wp, sums = theta_sums(*args)
            for k in (4, 6):
                sums[k] = (-sums[k][0], -sums[k][1])
            return wp, sums

        monkeypatch.setattr(modular, "_theta_sums", flipped)
        return
    theta_values = modular._theta_values

    def moved(wp, sums, q, winv):
        (re, im, e), *rest = theta_values(wp, sums, q, winv)
        ctx = mpmath.ctx_mp.MPContext()
        ctx.prec = wp
        s_val = ctx.mpc(ctx.ldexp(re, e), ctx.ldexp(im, e))
        nome = ctx.mpc(ctx.ldexp(q[0], q[2]), ctx.ldexp(q[1], q[2]))
        t2, t3, t4 = (ctx.jtheta(k, 0, nome) ** 4 for k in (2, 3, 4))
        if fault == "t2 for t4 in the constant":
            s_val -= (t2 - t4) / 12
        else:
            s_val = 4 * s_val + (t3 + t4) / 4
        k = wp - ctx.mag(s_val)
        return ((ctx.to_fixed(s_val.real, k), ctx.to_fixed(s_val.imag, k), -k), *rest)

    monkeypatch.setattr(modular, "_theta_values", moved)


@pytest.mark.parametrize("digits", [40, 80])
@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-3, 6, 0, 6), (-4, 6, 0, 6)])
@pytest.mark.parametrize("fault", ["odd half's sign flipped", "t2 for t4 in the constant", "the /4 dropped"])
def test_route_check_fails_on_a_theta_fault(monkeypatch, fault, ideal, digits):
    """The route check as `verify` runs it (tolerance 10^-(digits // 2),
    seed 911) passes as shipped and fails on each fault in S's theta
    form: it compares the theta route with the q-series route, which
    shares none of S's formula.  Every descriptor point of dK=-4 `6,0,6`
    reduces to tau = i, where theta2 = theta4 (tau -> -1/tau swaps them),
    so t2 for t4 moves no descriptor value there; the power samples'
    random points, which the route check also reads, see it."""
    name = "descriptor route vs unreduced route"
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])

    def route_check():
        found = run_checks(mod, Precision(digits), digits // 2)
        return next(c for c in found if c.name == name)

    assert route_check().passed
    _theta_fault(monkeypatch, fault)
    check = route_check()
    assert not check.passed, check.detail


@pytest.mark.parametrize("i, ideal", [(1, (-20, 2, 4, 6)), (2, (-4, 6, 0, 6)), (3, (-3, 6, 0, 6))])
def test_route_check_fails_on_a_fault_in_one_theta_value(monkeypatch, i, ideal):
    """f_i alone scaled by 1 + 10^-40 where `_torsion_exact` forms it on
    the theta route, i the modulus's `weber_index`, fails `verify`'s route
    check at 80 digits (tolerance 10^-40, seed 911): the q-series route
    combines its (S, E4, E6, Delta) in `_torsion_value`, which shares no
    arithmetic with `_torsion_exact`.  One function for both routes would
    move both values alike and hide the fault."""
    name = "descriptor route vs unreduced route"
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])

    def route_check():
        found = run_checks(mod, Precision(80), 40)
        return next(c for c in found if c.name == name)

    assert route_check().passed
    torsion_exact = modular._torsion_exact

    def wrong_value(wp, index, values):
        value = torsion_exact(wp, index, values)
        return scaled_by(value, 10**40 + 1, 10**40) if index == i else value

    monkeypatch.setattr(modular, "_torsion_exact", wrong_value)
    check = route_check()
    assert not check.passed, check.detail


def test_contexts_are_shared_and_keep_their_precision():
    p80 = Precision(80)
    assert modular._ctx(Precision(80)) is modular._ctx(Precision(80))
    desc = descriptor(enumerate_classes(MOD20).classes[1].rep, MOD20)
    before = eval_descriptor(desc, None, p80)
    run_checks(MOD20, p80, 40)
    eval_descriptor(desc, None, Precision(1000))
    assert modular._ctx(p80).dps == 90
    assert eval_descriptor(desc, None, p80) == before


ROUTE_CHECK = "witness equivalence vs ideal route"


def _route_check(mod):
    found = run_checks(mod, Precision(30), 15)
    return next(c for c in found if c.name == ROUTE_CHECK)


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-3, 6, 0, 6), (-4, 6, 0, 6)])
@pytest.mark.parametrize(
    "mutation",
    ["translate of another class", "translate of another class, every pair joined", "first generator"],
)
def test_route_check_fails_when_mutated(monkeypatch, ideal, mutation):
    """The partition check passes as shipped and fails on each mutation:
    - the translates of the first representative drawn from the second
      one instead, which the class count cannot see;
    - the same with a witness search that joins every pair, so only the
      pair's two ideal labels can tell;
    - each ideal key read from the generator x = g1*conj(h1)/A itself
      instead of the least over its unit orbit, over 2, 6 and 4 units: every
      `ideal_keys` call sees the unit +1 alone, and nothing else does."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    assert _route_check(mod).passed
    if mutation == "first generator":
        keys = rayclass.ideal_keys

        def first_generator(forms, m):
            with monkeypatch.context() as inner:
                inner.setattr(qfield.Discriminant, "unit_coords", lambda disc: ((0, 1),))
                return keys(forms, m)

        for module in (rayclass, checks):
            monkeypatch.setattr(module, "ideal_keys", first_generator)
    else:
        reps, translates = [fc.rep for fc in enumerate_classes(mod).classes], checks._translates
        moved = lambda f, m, rng, want: translates(reps[1] if f == reps[0] else f, m, rng, want)
        monkeypatch.setattr(checks, "_translates", moved)
    if mutation == "translate of another class, every pair joined":
        monkeypatch.setattr(checks, "equivalent", lambda *args: IDENT)
    check = _route_check(mod)
    assert not check.passed, check.detail


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-3, 6, 0, 6)])
def test_route_check_sees_a_reduce_fault_that_splits_a_class(monkeypatch, ideal):
    """A `reduce` fault gives one translate of the second class the reduced
    label (a, b + 2a, .), properly equivalent to the right one.  Both routes
    built on reduction are fooled alike: the class key and the witness
    search put the translate in a class of its own.  The ideal keys use no
    reduction, so their partition keeps its h blocks and the translate pair
    keeps one label.  `class_translate` searches for no witness, so the
    fault reaches the route check, the one place where the three meet, and
    the report shows it: h + 1 blocks by class key, h by ideal key."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])
    rep, target = split_a_translate(monkeypatch, mod)
    assert rayclass.class_key(target, mod) != rayclass.class_key(rep, mod)
    assert rayclass.equivalent(rep, target, mod) is None
    assert same_ideal_label(rep, target, mod)
    found = run_checks(mod, Precision(30), 15)
    assert [c.name for c in found if not c.passed] == [ROUTE_CHECK]
    h = len(enumerate_classes(mod).classes)
    assert f"in {h + 1} classes by class key, {h} by ideal key," in found[0].detail
    assert f"{2 * h - 1}/{2 * h} translate pairs agree" in found[0].detail


@pytest.mark.parametrize("ideal", [(-20, 2, 4, 6), (-23, 3, 9, 12), (-3, 6, 0, 6)])
def test_only_the_route_check_sees_a_wrong_reduction_witness(monkeypatch, ideal):
    """Why the q-series route keeps a reduction of its own: with the theta
    route's `reduce` returning the right reduced form but the witness g T,
    T = t_power(1), wherever b > 0, so that the form is not act(red, g T),
    `verify` at 40 digits (tolerance 10^-20, seed 911) fails only
    "descriptor route vs unreduced route".  The power relations and
    invariance read the theta route alone, its wrong cell and all, and the
    law reduces nothing.  Each fault of `REDUCE_TAU_FAULTS` in the q-series
    route's own rounds fails that same check alone.  Ties taken up or down
    instead of to even are no fault: they give another correct reduction,
    whose values agree, and `test_reduce_tau` pins the ties instead."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])

    def failing():
        return [c.name for c in run_checks(mod, Precision(40), 20) if not c.passed]

    assert failing() == []
    reduce_ = modular.reduce

    def wrong_witness(form):
        red, g = reduce_(form)
        return (red, g @ t_power(1)) if red.b > 0 else (red, g)

    with monkeypatch.context() as patched:
        patched.setattr(modular, "reduce", wrong_witness)
        assert failing() == ["descriptor route vs unreduced route"]
    for line, mutant in REDUCE_TAU_FAULTS.values():
        with monkeypatch.context() as patched:
            source_fault(patched, "_reduce_tau", line, mutant)
            assert failing() == ["descriptor route vs unreduced route"], mutant


@pytest.mark.parametrize(
    "ideal, blocks", [((-23, 3, 9, 12), 14), ((-23, 1, 8, 31), 46), ((-111, 9, 0, 9), 218)]
)
def test_route_check_fails_without_the_boundary_flip(monkeypatch, ideal, blocks):
    """`reduced_basis` without its boundary step, the name and basis taken
    straight from `_lagrange`, names one ideal class by two forms, (a, -a, c)
    and (a, a, c) or (a, -b, a) and (a, b, a), so the ideal-key partition
    splits classes and the route check fails."""
    mod = make_modulus(make_discriminant(ideal[0]), *ideal[1:])

    def unflipped(t):
        g1, _, abc = qfield._lagrange(t)
        return g1, tuple(x // t.norm() for x in abc)

    monkeypatch.setattr(rayclass, "reduced_basis", unflipped)
    check = _route_check(mod)
    assert not check.passed
    assert f" {blocks} by ideal key," in check.detail


def test_run_checks_labels_once_and_searches_once_per_translate_pair(monkeypatch):
    """One `ideal_keys` call labels the classes in enumeration and one labels
    the route check's forms; `equivalent` runs once per translate pair and
    nowhere else.  Counted at every module that binds the two names."""
    h = len(enumerate_classes(MOD20).classes)
    calls = collections.Counter()
    for name in ("ideal_keys", "equivalent"):
        inner = getattr(rayclass, name)
        counted = lambda *args, name=name, inner=inner: calls.update([name]) or inner(*args)
        for module in (rayclass, checks):
            monkeypatch.setattr(module, name, counted)
    found = run_checks(MOD20, Precision(30), 15)
    assert all(c.passed for c in found)
    assert calls == {"ideal_keys": 2, "equivalent": 2 * h}

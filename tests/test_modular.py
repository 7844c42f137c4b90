import fractions
import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp import libelefun

from rayform import forms, modular
from rayform.checks import run_checks
from rayform.forms import IDENT, QuadForm, S_FLIP, UnimodMatrix, act, reduce, reduced_forms, t_power
from rayform.modular import (
    FrickeLabel,
    Precision,
    complex_to_json,
    eisenstein_j,
    eval_descriptor,
    eval_descriptor_unreduced,
    fricke,
    weber_index,
)
from rayform.qfield import InternalCheckError, QFieldError, make_discriminant
from rayform.rayclass import descriptor, enumerate_classes, make_modulus, point_coords
from rayform.rayclass import class_translate

from conftest import form_near, fraction_point_form, root_form

D20 = make_discriminant(-20)
D23 = make_discriminant(-23)
D4 = make_discriminant(-4)
D3 = make_discriminant(-3)

MOD20 = make_modulus(D20, 2, 4, 6)

P80 = Precision(80)
P30 = Precision(30)

X1_RE = "-42.855182905101068449100557011588521183723155126022991063846971556901684733638576"
X1_IM = "3.9408890232094801321184191308074333547314047658643079005124102138293827652407576"


def ctx_for(digits):
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = digits + 10
    return ctx


def p_of(ctx):
    """The Precision whose context works at ctx's digits."""
    return Precision(ctx.dps - 10)


def exact_tau(tau, bits):
    """An mpc tau as an exact value (x, y, -bits), its parts floored at
    scale 2^bits: the shape in which `_reduce_tau` hands tau0 to
    `_qseries_core`."""
    return libmp.to_fixed(tau.real._mpf_, bits), libmp.to_fixed(tau.imag._mpf_, bits), -bits


def small_matrices(rng, count):
    out = []
    while len(out) < count:
        g = t_power(rng.randrange(-3, 4))
        for _ in range(rng.randrange(1, 3)):
            g = g @ S_FLIP @ t_power(rng.randrange(-3, 4))
        if g not in (IDENT,):
            out.append(g)
    return out


def test_precision_validation():
    assert Precision().digits == 80
    with pytest.raises(QFieldError):
        Precision(20)
    assert Precision(modular.MAX_DIGITS).digits == modular.MAX_DIGITS
    with pytest.raises(QFieldError, match="at most"):
        Precision(modular.MAX_DIGITS + 1)
    for digits in (80.5, 80.0, "80", True):
        with pytest.raises(QFieldError, match="integer"):
            Precision(digits)


def test_label_validation_and_normalization():
    lab = FrickeLabel(2, 7, -1, 6)
    assert (lab.r, lab.s) == (1, 5)
    with pytest.raises(QFieldError):
        FrickeLabel(4, 1, 0, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 0, 0, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 6, 12, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 1, 0, 0)


def fraction_cell(r, s, level, g):
    """The cell by the rule `_exact_cell` kept on Fractions: the row
    (r/level, s/level) pushed through g, each part less `round` of it,
    which rounds a half to even."""
    v1, v2 = Fraction(r, level), Fraction(s, level)
    r1, r2 = v1 * g.p + v2 * g.r, v1 * g.q + v2 * g.s
    return r1 - round(r1), r2 - round(r2)


def test_exact_cell_matches_the_fraction_rule():
    """`_exact_cell`'s int cell (k, m, n) against the Fraction rule, on
    every row of levels 2 to 12, as reduced labels and as raw numerators of
    the size a^(phi(N) - 1) that `eval_descriptor_unreduced` pushes, through
    seeded SL2(Z) matrices: k/n and m/n equal the reference cell and n is
    its least common denominator, and the row taken mod 2N gives the same
    cell, as `eval_descriptor_unreduced` hands its numerator over.  Exact
    halves occur over both an even and an odd floor, where half to even
    picks +1/2 and -1/2.  An integral row, which no label or descriptor
    hands over, is an internal fault."""
    rng = random.Random(33)
    mats = [IDENT, S_FLIP, t_power(1)] + small_matrices(rng, 12)
    mats += [UnimodMatrix(3, 2, 1, 1), UnimodMatrix(5, 7, 2, 3)]
    floors = set()
    for level in range(2, 13):
        phi = sum(math.gcd(x, level) == 1 for x in range(level))
        for r in range(level):
            for s in range(level):
                if r == 0 and s == 0:
                    continue
                a = rng.randrange(10**5, 10**6)
                raw = (r + level * a ** (phi - 1), s + level * rng.randrange(10**6))
                for g in mats:
                    for row in ((r, s), raw):
                        k, m, n = modular._exact_cell(*row, level, g)
                        want = fraction_cell(*row, level, g)
                        assert (Fraction(k, n), Fraction(m, n)) == want, (row, level, g)
                        assert n == math.lcm(*(c.denominator for c in want)), (row, level, g)
                        short = (x % (2 * level) for x in row)
                        assert modular._exact_cell(*short, level, g) == (k, m, n), (row, level, g)
                        v1, v2 = Fraction(row[0], level), Fraction(row[1], level)
                        for part in (v1 * g.p + v2 * g.r, v1 * g.q + v2 * g.s):
                            if part.denominator == 2:
                                floors.add(math.floor(part) % 2)
    assert floors == {0, 1}
    for g in mats:
        for r, s in ((0, 6), (6, 0), (12, -18), (6 * 10**20, 6)):
            with pytest.raises(InternalCheckError, match="integral"):
                modular._exact_cell(r, s, 6, g)


def test_reduce_tau():
    """`_reduce_tau` at the root of (1, 0, 1), i, takes no step; at the root
    of the form of 0.3 + 0.007i it lands in the fundamental domain, and its
    matrix takes the landing point back to the root."""
    ctx = modular._ctx(P30)
    t0, g = modular._reduce_tau(P30, QuadForm(1, 0, 1))
    assert g == IDENT
    assert abs(from_exact(ctx, t0) - ctx.mpc(0, 1)) < ctx.mpf(10) ** -25

    form = root_form("0.3", "0.007")
    t0, g = modular._reduce_tau(P30, form)
    t0 = from_exact(ctx, t0)
    assert t0.imag > ctx.sqrt(3) / 2 - ctx.mpf(10) ** -20
    assert abs(t0.real) <= ctx.mpf("0.5") + ctx.mpf(10) ** -20
    back = (g.p * t0 + g.q) / (g.r * t0 + g.s)
    assert abs(back - ctx.mpc("0.3", "0.007")) < ctx.mpf(10) ** -25


def rounds_suffice(monkeypatch, p, form, steps):
    """Whether `_reduce_tau` reduces the form's root with its cap set to steps."""
    with monkeypatch.context() as capped:
        capped.setattr(modular, "_reduce_cap", lambda f: steps)
        try:
            modular._reduce_tau(p, form)
        except InternalCheckError as exc:
            assert "did not terminate" in str(exc)
            return False
    return True


def test_reduce_tau_stops_at_its_cap(monkeypatch):
    """`_reduce_tau` at the root of a form takes at most that form's cap,
    `forms.reduce`'s, and a cap one short of the rounds a root needs
    raises: the descriptor points of dK=-23 `1,8,31` and `1,176,211` and of
    dK=-3 `6,0,6` (up to 7 rounds), and the form of 0.3 + 0.007i (4
    rounds)."""
    points = []
    for dk, ideal in ((-23, (1, 8, 31)), (-23, (1, 176, 211)), (-3, (6, 0, 6))):
        mod = make_modulus(make_discriminant(dk), *ideal)
        points += [descriptor(fc.rep, mod).eval_point() for fc in enumerate_classes(mod).classes[:40]]
    points.append(root_form("0.3", "0.007"))
    most = 0
    for form in points:
        cap = forms._reduce_cap(form)
        need = next(n for n in range(1, cap + 1) if rounds_suffice(monkeypatch, P30, form, n))
        most = max(most, need)
        if need > 1:
            assert not rounds_suffice(monkeypatch, P30, form, need - 1)
    assert most >= 4


def test_j_special_values():
    """j at i, rho, 2i and i sqrt 2, the roots of (1,0,1), (1,1,1), (1,0,4)
    and (1,0,2)."""
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    assert abs(eisenstein_j(QuadForm(1, 0, 1), P80) - 1728) < tol
    assert abs(eisenstein_j(QuadForm(1, 1, 1), P80)) < tol
    assert abs(eisenstein_j(QuadForm(1, 0, 4), P80) - 287496) < ctx.mpf(10) ** -60
    assert abs(eisenstein_j(QuadForm(1, 0, 2), P80) - 8000) < ctx.mpf(10) ** -60


def test_j_is_invariant():
    """j at g(tau), the root of act(form, g^-1), for small g: the exact
    reduction gives the value at tau bit for bit, and the theta core run
    at g(tau) itself, unreduced, agrees within 10^-35."""
    ctx = ctx_for(40)
    rng = random.Random(2)
    p = Precision(40)
    form = root_form("0.317", "1.09")
    base = eisenstein_j(form, p)
    for g in small_matrices(rng, 5):
        moved = act(form, g.inv())
        assert eisenstein_j(moved, p) == base
        unreduced = modular._mpc(p, modular._theta_core(p, moved, (0, 1, 2), (0,))[0])
        assert abs(unreduced - base) < ctx.mpf(10) ** -35


def pinned_forms():
    """(digits, form): 40 seeded forms per digit count (30, 80, 1000), with
    a of 24 bits and the root near Re tau in [-2, 2] and Im tau from 0.05
    to 20 before reduction, of many discriminants."""
    rng = random.Random(24)
    for digits in (30, 80, 1000):
        for _ in range(40):
            re, im = rng.uniform(-2, 2), math.exp(rng.uniform(math.log(0.05), math.log(20)))
            yield digits, form_near(rng.randrange(1 << 23, 1 << 24), re, im)


def test_j_pinned_to_the_bit():
    """The mpf tuples of j at the pinned forms' roots, hashed: a change to
    the theta core or the reduction that moves j by one bit fails here.
    Re-pinned when pi, the exponential and the phases' series moved onto
    modular's own ints: one of the 120 values, at 1000 digits, moved by a
    unit in its last place, within `test_j_matches_kleinj`'s bound."""
    digest = hashlib.sha256()
    for digits, form in pinned_forms():
        j = eisenstein_j(form, Precision(digits))
        digest.update(repr([tuple(map(int, part._mpf_)) for part in (j.real, j.imag)]).encode())
    assert digest.hexdigest() == "937ea6a02f41632e6d7fd8b16e141f0a92221cda543caf4292900d09a213e02d"


def test_j_matches_kleinj():
    """j at the pinned forms' roots against 1728 kleinj(tau) at 60 more
    digits: within 2 2^-prec max(|j|, 1728).  With tau reduced exactly as
    the root of its form, the nome handed to the kernel unrounded and j
    formed on ints and rounded once, the worst is about 0.86 (median
    0.32); at floating points, rounding the nome to prec left up to 2.2,
    and a numeric reduction of tau, rounding at every step, up to 77."""
    for digits, form in pinned_forms():
        p = Precision(digits)
        prec = modular._ctx(p).prec
        ref = mpmath.ctx_mp.MPContext()
        ref.dps = digits + 60
        tau = ref.mpc(-form.b, ref.sqrt(-form.disc())) / (2 * form.a)
        j, want = ref.mpc(eisenstein_j(form, p)), 1728 * ref.kleinj(tau)
        assert abs(j - want) <= 2 * ref.ldexp(max(abs(j), 1728), -prec), (digits, form)


@pytest.mark.parametrize("digits", [30, 80])
def test_j_far_up_the_half_plane(digits):
    """At tau = 10^e i and 3/10 + 10^e i, e from 16 to 1000, the roots of
    (1, 0, 10^2e) and (100, -60, 9 + 10^(2e + 2)): j = 1/q + 744 + O(q)
    with q = e^(2 pi i tau) within 10^-digits.  There t2 lies about
    2 pi Im tau/ln 2 bits below t3 and t4, and E4's sum once aligned them
    by that whole gap: MemoryError at 1e16, OverflowError from 1e23 on.
    From 1e154 on the square b^2 in `_theta_terms`' float root overflowed
    too, until the root went through hypot; from about 1e305 on the
    product lq lcut under its square root overflowed (OverflowError), and
    from about 5.7e307 on `_exact_nome`'s float log lq was -inf, NaN at
    k = 0 (ValueError), until lq was floored."""
    p = Precision(digits)
    for e in (16, 23, 100, 154, 160, 200, 300, 305, 306, 307, 308, 309, 400, 1000):
        for re in ("0", "0.3"):
            form = root_form(re, 10**e)
            ref = mpmath.ctx_mp.MPContext()
            ref.dps = digits + 30 + e
            x = Fraction(re)
            q = ref.exp(-2 * ref.pi * ref.mpf(10) ** e) * ref.expjpi(ref.mpf(2 * x.numerator) / x.denominator)
            want = 1 / q + 744
            got = ref.mpc(eisenstein_j(form, p))
            assert abs(got - want) < ref.mpf(10) ** -digits * abs(want), (e, re)


def test_j_and_fricke_near_a_cusp():
    """At tau = 3/10 + 10^-1000 i, the root of (10^2000, -6 10^1999,
    9 10^1998 + 1), the reduced point lies 10^998 up the half plane,
    where `_exact_nome`'s float log lq was -inf before it was floored:
    `eisenstein_j` and `fricke` raised ValueError.  j matches 1/q + 744 at
    the reduced form's root, and `fricke` equals the power check's f1."""
    p, label = P30, FrickeLabel(1, 1, 2, 6)
    point = root_form("0.3", Fraction(1, 10**1000))
    assert point == QuadForm(10**2000, -6 * 10**1999, 9 * 10**1998 + 1)
    form, _ = reduce(point)
    ref = mpmath.ctx_mp.MPContext()
    ref.dps = 60 + len(str(form.c))
    root = (-form.b + 1j * ref.sqrt(-form.disc())) / (2 * form.a)
    assert root.imag > ref.mpf(10) ** 900
    want = 1 / ref.expjpi(2 * root) + 744
    got = ref.mpc(eisenstein_j(point, p))
    assert abs(got - want) < ref.mpf(10) ** -30 * abs(want)
    f1 = fricke(label, point, p)
    assert ref.isfinite(f1) and f1 == modular._mpc(p, modular._reduced_values(p, point, label[1:], range(4))[1])


def test_theta_entries_reject_a_form_that_is_not_positive_definite():
    """An indefinite, degenerate or negative definite form has no root in
    the upper half plane: `fricke`, the power check's `_reduced_values`
    and `eisenstein_j` refuse it where they reduce it, and `_fricke_at`
    and `_theta_core` itself, which reduce nothing, at the core's gate."""
    label = FrickeLabel(1, 1, 0, 6)
    for form in [QuadForm(1, 0, -1), QuadForm(1, 2, 1), QuadForm(-1, 0, -1), QuadForm(0, 1, 1), QuadForm(-2, 1, -3)]:
        calls = [
            lambda: fricke(label, form, P80),
            lambda: modular._reduced_values(P80, form, label[1:], range(4)),
            lambda: eisenstein_j(form, P80),
            lambda: modular._fricke_at(label, form, P30),
            lambda: modular._theta_core(P30, form, (1, 0, 6), (0, 1)),
        ]
        for call in calls:
            with pytest.raises(QFieldError, match="indefinite or negative"):
                call()


def int_cell(x, y):
    """The cell (k, m, n) of the exact x = k/n and y = m/n, each a Fraction,
    an int or a decimal string, over their least common denominator n."""
    x, y = Fraction(x), Fraction(y)
    n = math.lcm(x.denominator, y.denominator)
    return int(x * n), int(y * n), n


def kernel_values(ctx, form, cell):
    """(wp, sums, q, 1/w, values): `_theta_core`'s steps at the root of form
    and the cell up to `_theta_values`' exact (S, E4, E6, Delta)."""
    q, w, winv, b, lq, lw = modular._exact_nome(ctx.prec, form, cell)
    wp, sums = modular._theta_sums(ctx.prec, q, lq, modular._cutoff(p_of(ctx)), w, b, lw)
    return wp, sums, q, winv, modular._theta_values(wp, sums, q, winv)


def from_exact(ctx, x):
    """The exact value x = (re, im, e) of the theta route, (re + i im) 2^e,
    as an mpc of ctx."""
    re, im, e = x
    return ctx.mpc(ctx.ldexp(re, e), ctx.ldexp(im, e))


def exact_parts(x):
    """The exact value x as a pair of Fractions."""
    re, im, e = x
    return Fraction(re) * Fraction(2) ** e, Fraction(im) * Fraction(2) ** e


def theta_at(ctx, tau, x, y):
    """(S, E4, E6, Delta) of the theta kernel, each rounded to an mpc once,
    at a numeric tau, entering as its form (`root_form`), whose root is
    tau exactly, and at the exact cell (x, y), each a Fraction or a
    decimal string."""
    tau = ctx.mpc(tau)
    *_, values = kernel_values(ctx, root_form(tau.real, tau.imag), int_cell(x, y))
    return tuple(from_exact(ctx, v) for v in values)


def _theta_pe(ctx, tau, x, y):
    """pe(z; [tau, 1]) = -4 pi^2 S from the theta route at tau itself, with
    z = x*tau + y for exact x, y in [-1/2, 1/2]."""
    return -4 * ctx.pi**2 * theta_at(ctx, tau, x, y)[0]


def test_theta_s_leading_term():
    ctx = modular._ctx(P80)
    z = ctx.mpf(10) ** -5
    val = _theta_pe(ctx, ctx.mpc(0, 1), 0, Fraction(1, 10**5))
    assert abs(z**2 * val - 1) < ctx.mpf(10) ** -17


def test_theta_s_matches_direct_lattice_sum():
    # low-precision sanity anchor for S: truncated sum over a 101 x 101
    # window of lattice translates; 0.6 + 0.45i lies outside the
    # fundamental domain, where the theta series need more terms
    ctx = modular._ctx(P30)
    for re, im in (("0.1", "1.2"), ("0.6", "0.45")):
        tau = ctx.mpc(re, im)
        # the cell of z = 0.31 + 0.17i, exact in the decimal parts of tau
        x = Fraction("0.17") / Fraction(im)
        y = Fraction("0.31") - x * Fraction(re)
        z = tau * (ctx.mpf(x.numerator) / x.denominator) + ctx.mpf(y.numerator) / y.denominator
        direct = 1 / z**2
        for m in range(-50, 51):
            for n in range(-50, 51):
                if m == 0 and n == 0:
                    continue
                w = m * tau + n
                direct += 1 / (z - w) ** 2 - 1 / w**2
        assert abs(_theta_pe(ctx, tau, x, y) - direct) < ctx.mpf("1e-2")


POWER_SAMPLES = [
    (root_form("0.31", "1.11"), FrickeLabel(1, 1, 0, 6)),
    (root_form("-0.22", "0.93"), FrickeLabel(1, 2, 5, 6)),
    (root_form("0.05", "1.62"), FrickeLabel(1, 0, 1, 4)),
    (root_form("0.41", "0.87"), FrickeLabel(1, 3, 1, 5)),
]


def test_power_relations():
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    for form, lab in POWER_SAMPLES:
        jv = eisenstein_j(form, P80)
        if abs(jv) < ctx.mpf("1e-5") or abs(jv - 1728) < ctx.mpf("1e-5"):
            continue
        f1 = fricke(lab, form, P80)
        f2 = fricke(FrickeLabel(2, lab.r, lab.s, lab.level), form, P80)
        f3 = fricke(FrickeLabel(3, lab.r, lab.s, lab.level), form, P80)
        assert abs(f2 - 46656 * f1**2 / (jv - 1728)) < tol
        assert abs(f3 - 80621568 * f1**3 / (jv * (jv - 1728))) < tol


def test_power_values_equal_the_public_calls():
    """The power check's one reduction and one theta core give exactly the
    values of eisenstein_j and the three fricke calls at the same form and row."""
    for form, lab in POWER_SAMPLES:
        jv, *values = (modular._mpc(P80, v) for v in modular._reduced_values(P80, form, lab[1:], range(4)))
        assert jv == eisenstein_j(form, P80)
        assert values == [
            fricke(FrickeLabel(i, lab.r, lab.s, lab.level), form, P80) for i in (1, 2, 3)
        ]


def test_torsion_value_rejects_a_non_finite_value():
    """`_torsion_value`'s one finiteness test stops j (i = 0) and each
    indexed function at a zero Delta, the one input on ints with no finite
    quotient, and passes finite values: at S = E4 = E6 = Delta = 1, j is
    1728 exactly and f1, f2 and f3 are -2/3, 12 and -8."""
    one = (1 << 200, 0, -200)
    got = [modular._torsion_value(i, (one, one, one, (1, 0, 0))) for i in range(4)]
    j, f1, f2, f3 = (Fraction(re) * Fraction(2) ** e for re, _, e in got)
    assert (j, f2, f3) == (1728, 12, -8) and all(im == 0 for _, im, _ in got)
    assert abs(f1 + Fraction(2, 3)) < Fraction(1, 2**190)
    for i in range(4):
        with pytest.raises(InternalCheckError, match="non-finite value escaped"):
            modular._torsion_value(i, (one, one, one, (0, 0, 5)))


def test_row_negation_symmetry():
    ctx = ctx_for(40)
    p = Precision(40)
    form = root_form("0.13", "1.21")
    for i in (1, 2, 3):
        a = fricke(FrickeLabel(i, 1, 4, 6), form, p)
        b = fricke(FrickeLabel(i, -1, -4, 6), form, p)
        assert abs(a - b) < ctx.mpf(10) ** -35


def test_transformation_law():
    # row index pushes through the matrix while the point moves by it: the
    # root of act(form, g^-1) is g(tau); `fricke` reduces both sides to one
    # exact input, and `_fricke_at` evaluates at g(tau) itself
    ctx = ctx_for(80)
    rng = random.Random(9)
    tol = ctx.mpf(10) ** -70
    form = root_form("0.29", "1.07")
    for g in small_matrices(rng, 6):
        for lab in (FrickeLabel(1, 1, 0, 6), FrickeLabel(2, 2, 3, 6), FrickeLabel(3, 0, 1, 4)):
            moved = act(form, g.inv())
            pushed = FrickeLabel(
                lab.i, lab.r * g.p + lab.s * g.r, lab.r * g.q + lab.s * g.s, lab.level
            )
            want = fricke(pushed, form, P80)
            assert abs(fricke(lab, moved, P80) - want) < tol
            assert abs(modular._mpc(P80, modular._fricke_at(lab, moved, P80)) - want) < tol


def test_weber_index_values():
    assert weber_index(D20.d) == 1
    assert weber_index(D23.d) == 1
    assert weber_index(D4.d) == 2
    assert weber_index(D3.d) == 3


def test_descriptor_value_frozen():
    ctx = ctx_for(80)
    value = eval_descriptor(descriptor(QuadForm(7, -6, 2), MOD20), None, P80)
    frozen = ctx.mpc(ctx.mpf(X1_RE), ctx.mpf(X1_IM))
    assert abs(value - frozen) < ctx.mpf(10) ** -75


def test_descriptor_value_class_invariant():
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    rng = random.Random(17)
    base = QuadForm(7, -6, 2)
    ref = eval_descriptor(descriptor(base, MOD20), None, P80)
    seen = 0
    while seen < 4:
        moved = class_translate(base, MOD20, rng.randrange(-5, 6), rng.randrange(-4, 5))
        if moved is None:
            continue
        seen += 1
        value = eval_descriptor(descriptor(moved, MOD20), None, P80)
        assert abs(value - ref) < tol


def test_descriptor_two_routes_agree():
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    group = enumerate_classes(MOD20)
    for fc in group.classes:
        d = descriptor(fc.rep, MOD20)
        assert abs(eval_descriptor(d, None, P80) - eval_descriptor_unreduced(d, P80)) < tol


def test_descriptor_values_separate_classes():
    ctx = ctx_for(80)
    group = enumerate_classes(MOD20)
    values = [eval_descriptor(descriptor(fc.rep, MOD20), None, P80) for fc in group.classes]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(values[i] - values[j]) > ctx.mpf(10) ** -20


def test_identity_class_is_unit_normalized_lattice_value():
    # the unit-normalized value of the lattice [a1 tau + a2, N] at z = 1 is
    # the row (0, 1/N) on [xi, 1], xi = (a1 tau + a2)/N; the identity
    # class's descriptor has a_inv = 1 and sends its point to xi mod Z
    ctx = ctx_for(80)
    d = descriptor(QuadForm(1, 0, 5), MOD20)
    zu, zv = point_coords(d.eval_point(), D20)
    assert (d.a_inv, zu, (zv - Fraction(4, 6)).denominator) == (1, Fraction(2, 6), 1)
    xi = fraction_point_form(D20, Fraction(2, 6), Fraction(4, 6))
    via_lattice = fricke(FrickeLabel(1, 0, 1, 6), xi, P80)
    assert abs(eval_descriptor(d, None, P80) - via_lattice) < ctx.mpf(10) ** -70


def test_descriptor_index_argument_forms():
    # None is half the unit group order: 1 for dK=-20, 2 for dK=-4
    d = descriptor(QuadForm(7, -6, 2), MOD20)
    assert eval_descriptor(d, None, P30) == eval_descriptor(d, 1, P30)
    d4 = descriptor(QuadForm(1, 0, 1), make_modulus(D4, 6, 0, 6))
    assert eval_descriptor(d4, None, P30) == eval_descriptor(d4, 2, P30)


@pytest.mark.parametrize("route", [eval_descriptor])
@pytest.mark.parametrize("index", [0, 4])
def test_descriptor_routes_reject_bad_index(route, index):
    d = descriptor(QuadForm(7, -6, 2), MOD20)
    with pytest.raises(QFieldError, match="function index must be 1, 2 or 3"):
        route(d, index, P30)


def test_stability_under_digit_doubling():
    ctx = ctx_for(160)
    form = root_form("0.37", "0.91")
    lo = eisenstein_j(form, P80)
    hi = eisenstein_j(form, Precision(160))
    assert abs(lo - hi) < ctx.mpf(10) ** -75

    d = descriptor(QuadForm(7, -6, 2), MOD20)
    assert abs(eval_descriptor(d, None, P80) - eval_descriptor(d, None, Precision(120))) < ctx.mpf(
        10
    ) ** -75


def test_complex_json():
    ctx = ctx_for(80)
    value = eval_descriptor(descriptor(QuadForm(7, -6, 2), MOD20), None, P80)
    data = complex_to_json(value, P80)
    assert set(data) == {"re", "im"}
    back = ctx.mpc(ctx.mpf(data["re"]), ctx.mpf(data["im"]))
    assert abs(back - value) < ctx.mpf(10) ** -70


def test_complex_json_prints_noise_as_zero():
    # the identity class of dK=-3 mod 6,0,6 has a real value; its imaginary
    # part is rounding noise near 10^-(digits+10)
    mod = make_modulus(D3, 6, 0, 6)
    p = Precision(40)
    value = eval_descriptor(descriptor(QuadForm(1, 1, 1), mod), None, p)
    assert value.imag != 0
    data = complex_to_json(value, p)
    assert data["im"] == "0.0"
    assert data["re"] == "-2.109171421186721895130689880757078680861"


# sha256 of the printed value of every class at 80, 300 and 1000 digits,
# recorded on the mpc theta kernel; the fixed-point kernel prints the same
PRINTED_DIGESTS = {
    (-20, (2, 4, 6)): (
        "b9f58998d1868c4e7d6082e8f169744ba29607f9797e71803bc3ba9e982c22d0",
        "bc9fbcba3916dd19df6497ee7c5639f14bf2c9e153584edab541b962bc25fc69",
        "f35e4da0d358df38c04cdc097de67f849cb900c8a038d4085b8c1c05f5a34106",
    ),
    (-23, (3, 9, 12)): (
        "ef54f0d79c1540164fc387cb8b0e2ad9a2e209e3b534903396ef64a0b99351ba",
        "2958f6f50e12746e6a23d6880c2f079fa8aaf65014fc5538f05c4f2f8af7a7af",
        "667436a3d27f91587077352aec27bb4defcfd00a726dd5f1bd32c2d60182f5e0",
    ),
    (-3, (6, 0, 6)): (
        "efd5de5398de9163cf7275356b83cdeb6178c36bb221c4f5d262968eb4defb30",
        "895978597e331daa9107a98b228fe0a713540bd9fdca64f1fee990ade5fb3865",
        "248f08c033a73fa9f420b6a70d9b756163018cb2705c3e25d76022e0aa37108b",
    ),
    (-4, (6, 0, 6)): (
        "16d2fbaa7de4876859431540daa55957bdac16145bd7d67fa45b77d85aad8d14",
        "6ef26230747092043d5706b046cdd902b9d436474e7a68d7327bb2485236743f",
        "60d0e8ee696fbce554a94ed988fd7d0594826f3df9d385753d9b3d2b2d26a352",
    ),
}


@pytest.mark.parametrize("dk, ideal", sorted(PRINTED_DIGESTS))
def test_printed_values_pinned(dk, ideal):
    mod = make_modulus(make_discriminant(dk), *ideal)
    descs = [descriptor(fc.rep, mod) for fc in enumerate_classes(mod).classes]
    for digits, want in zip((80, 300, 1000), PRINTED_DIGESTS[dk, ideal]):
        p = Precision(digits)
        printed = [complex_to_json(eval_descriptor(d, None, p), p) for d in descs]
        assert hashlib.sha256(json.dumps(printed).encode()).hexdigest() == want, (digits, printed)


# sha256 of the printed value of the 16 worked classes (dK=-20 `2,4,6`,
# then -23 `3,9,12`) at every index (None, 1, 2, 3), recorded while S came
# from theta4(pi z)/theta1(pi z); the theta2(pi z)/theta1(pi z) form
# prints the same
INDEXED_DIGESTS = {
    80: "a53cd1b6b214ccca50d5b6bf4b119ec691169ab28eeddc12035e78481922eccb",
    300: "d4570129271d15047a47d61273b39a68eed95063b274f03ec937f6ef08935caf",
    1000: "9486eafffc696870a27c574447c49b1d36ad23f82a48e1965001c14a2c78207a",
}


@pytest.mark.parametrize("digits", sorted(INDEXED_DIGESTS))
def test_indexed_values_pinned(digits):
    p = Precision(digits)
    printed = []
    for dk, ideal in ((-20, (2, 4, 6)), (-23, (3, 9, 12))):
        mod = make_modulus(make_discriminant(dk), *ideal)
        for fc in enumerate_classes(mod).classes:
            d = descriptor(fc.rep, mod)
            printed += [complex_to_json(eval_descriptor(d, i, p), p) for i in (None, 1, 2, 3)]
    assert len(printed) == 64
    assert hashlib.sha256(json.dumps(printed).encode()).hexdigest() == INDEXED_DIGESTS[digits], printed


@pytest.mark.parametrize("digits", [80, 300, 1000])
@pytest.mark.parametrize("dk, ideal, form", [(-3, (1, 2, 3), (1, 1, 1)), (-4, (1, 1, 2), (1, 0, 1))])
def test_vanishing_values_stay_below_the_digits(digits, dk, ideal, form):
    """The two CM classes of the eval benchmark's draw whose value is 0:
    what the core returns is rounding noise, and it stays below
    10^-digits (1.7e-276 at 80 digits for dK=-3, 1.6e-185 for dK=-4), so
    under the noise floor 10^-digits max(1, |value|) both parts print as
    0.0."""
    d = descriptor(QuadForm(*form), make_modulus(make_discriminant(dk), *ideal))
    p = Precision(digits)
    value = eval_descriptor(d, None, p)
    assert abs(value) < mpmath.mpf(10) ** -digits
    assert complex_to_json(value, p) == {"re": "0.0", "im": "0.0"}


D107 = make_discriminant(-107)


@pytest.mark.parametrize("digits", [80, 300])
@pytest.mark.parametrize("ideal, form", [((1, 0, 3), (13, -7, 3)), ((1, 1, 3), (11, -5, 3))])
def test_small_nome_values_hold_their_digits(digits, ideal, form):
    # tau0 has |q| ~ 1e-14 here, where E4^3 - E6^2 cancels about 11 digits
    d = descriptor(QuadForm(*form), make_modulus(D107, *ideal))
    value = eval_descriptor(d, None, Precision(digits))
    ref = eval_descriptor(d, None, Precision(digits + 60))
    assert abs(value - ref) < mpmath.mpf(10) ** -digits * abs(ref)


# tau0 in the fundamental domain, as functions of the context: i, rho,
# both vertical edges and Im tau0 up to 20
ROUTE_TAUS = [
    lambda c: c.mpc(0, 1),
    lambda c: c.mpc(-1, c.sqrt(3)) / 2,
    lambda c: c.mpc("0.31", "1.2"),
    lambda c: c.mpc("-0.5", "3"),
    lambda c: c.mpc("0.17", "7.3"),
    lambda c: c.mpc("0.5", "20"),
    lambda c: c.mpc("-0.23", "20"),
]
# the cells (k, m, n) of (x, y) = (1/2, 1/4), (-1/2, 0), (0.2, -0.37) and
# (1/16, 2/5), as `_exact_cell` hands them over
ROUTE_CELLS = [(2, 1, 4), (-1, 0, 2), (20, -37, 100), (5, 32, 80)]


@pytest.mark.parametrize("digits", [30, 80, 300])
def test_theta_route_matches_qseries_route(digits):
    """The theta route at `digits` against the q-series route at twice as
    many, plus the digits the reference's E4^3 - E6^2 cancels at
    |q| = e^(-2 pi Im tau0)."""
    ctx = modular._ctx(Precision(digits))
    near_zero = mpmath.mpf(10) ** -(digits // 2)
    tol = mpmath.mpf(10) ** -digits
    for k, point in enumerate(ROUTE_TAUS):
        tau0 = point(ctx)
        cancel = math.ceil(2 * math.pi * float(tau0.imag) / math.log(10))
        ref_ctx = modular._ctx(Precision(2 * digits + cancel))
        for cell in ROUTE_CELLS:
            theta = theta_at(ctx, tau0, Fraction(cell[0], cell[2]), Fraction(cell[1], cell[2]))
            tau = exact_tau(point(ref_ctx), ref_ctx.prec + 20)
            ref = [from_exact(ref_ctx, v) for v in modular._qseries_core(p_of(ref_ctx), tau, cell)]
            for name, a, b in zip(("S", "E4", "E6", "Delta"), theta, ref):
                scale = abs(b) if abs(b) > near_zero else 1
                assert abs(a - b) < tol * scale, (name, k, cell)


def cutoff_mpf(c):
    """The tail threshold 2^-bitlen(10^(dps + 10)) of the context c, exact,
    whose log `_cutoff` returns."""
    return c.ldexp(1, -(10 ** (c.dps + 10)).bit_length())


def eisenstein_alone(ctx, q, weight, cutoff):
    """E4 or E6 summed alone as its divisor-sum series to its own tail rule,
    sigma_k(n) by trial division: the reference for `_qseries_core`'s
    Lambert series."""
    coeff, power = (240, 3) if weight == 4 else (-504, 5)
    total, qn, aq, aqn = ctx.mpf(1), ctx.mpc(1), abs(q), ctx.mpf(1)
    for n in range(1, modular._MAX_TERMS):
        qn *= q
        total += coeff * sum(d**power for d in range(1, n + 1) if n % d == 0) * qn
        aqn *= aq
        if abs(coeff) * n ** (power + 1) * aqn / (1 - aq) < cutoff:
            return total
    raise AssertionError("no tail below the cutoff")


@pytest.mark.parametrize("digits", [30, 80, 300])
def test_lambert_eisenstein_matches_divisor_sums(digits):
    """E4 and E6 as Lambert series in the pe sum's loop agree with the
    divisor-sum series summed alone within 10^-digits, relative where the
    value is not near 0 (E6 vanishes at i, E4 at rho)."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    cutoff = cutoff_mpf(ctx)
    near_zero = mpmath.mpf(10) ** -(digits // 2)
    tol = mpmath.mpf(10) ** -digits
    for k, point in enumerate(ROUTE_TAUS):
        tau0 = point(ctx)
        q = ctx.exp(2j * ctx.pi * tau0)
        _, e4, e6, _ = modular._qseries_core(p, exact_tau(tau0, ctx.prec + 20), (20, -37, 100))
        for weight, got in ((4, from_exact(ctx, e4)), (6, from_exact(ctx, e6))):
            want = eisenstein_alone(ctx, q, weight, cutoff)
            scale = abs(want) if abs(want) > near_zero else 1
            assert abs(got - want) < tol * scale, (k, weight)


def qseries_terms(c, tau0, cutoff):
    """(N, |q|, |q|^N) for `_qseries_core`'s stopping rule in the context
    c, the first n with 504 n^6 |q|^n below the cutoff, found term by term
    on mpf values."""
    aq, aqn = abs(c.exp(2j * c.pi * tau0)), c.mpf(1)
    for n in range(1, modular._MAX_TERMS):
        aqn *= aq
        if 504 * n**6 * aqn < cutoff:
            return n, aq, aqn
    raise AssertionError("no tail below the cutoff")


@pytest.mark.parametrize("digits", [40, 80, 300])
def test_qseries_terms_match_the_exact_count(digits):
    """`_qseries_terms`' count from float logs is exactly the first n with
    504 n^6 |q|^n below 2^-bitlen(10^(dps + 10)), found term by term on
    mpf values, at the points of `ROUTE_TAUS` and at the reduced points of
    the 27 classes of dK=-3299 `1,1,3`, Im tau0 up to 28.7.  The theta
    terms stop at the same threshold, `_cutoff`."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    mod = make_modulus(make_discriminant(-3299), 1, 1, 3)
    points = [descriptor(fc.rep, mod).eval_point() for fc in enumerate_classes(mod).classes]
    taus = [point(ctx) for point in ROUTE_TAUS]
    taus += [from_exact(ctx, modular._reduce_tau(p, form)[0]) for form in points]
    assert len(taus) == len(ROUTE_TAUS) + 27
    for tau0 in taus:
        got = modular._qseries_terms(-2 * math.pi * float(tau0.imag), modular._cutoff(p))
        assert got == qseries_terms(ctx, tau0, cutoff_mpf(ctx))[0], tau0


def qseries_bounds(c, p, tau0, cutoff, z, w, values):
    """The bounds of `_qseries_core`'s docstring on the (S, E4, E6, Delta)
    it returned at the precision p, each absolute, evaluated in the
    context c at the mpc tau0: the tail B/2 at the N where it stops, the
    entry errors eq = ew = 10 2^-wp of q and w and the fixed-point terms
    in f = 2^(1/2 - wp)."""
    n, aq, aqn = qseries_terms(c, tau0, cutoff)
    half_b = 252 * n**6 * aqn
    wp = modular._prec(p) + 6 * (n + 1).bit_length() + 8
    f = c.ldexp(c.sqrt(2), -wp)
    eq = ew = 10 * c.ldexp(1, -wp)
    h = 1 / abs(1 - w)
    s_val, e4, e6, delta = (abs(v) for v in values)
    head = (12 * n + 2 + (1 + abs(w)) * (h + h * h) ** 2) * f
    return (
        half_b + ew * abs(w) * abs(1 + w) * h**3 + 1.6 * c.sqrt(aq) * (eq + ew) + head,
        half_b + 263 * aq * eq + 122 * n**2 * (n + 1) ** 2 * f,
        half_b + 682 * aq * eq + 171 * (n + 1) ** 6 * f,
        (half_b + (1 + 25 * aq) * eq + (51 * n + 26) * f) * delta,
    )


def mpc_loop_bounds(c, p, tau0, cutoff, z, w, values):
    """The bounds that `_qseries_core` stated when its loop ran on mpc
    values, every operation rounded to the working precision: the floor
    that its fixed-point bounds must not exceed."""
    n, _, aqn = qseries_terms(c, tau0, cutoff)
    half_b = 252 * n**6 * aqn
    e = c.ldexp(1, 1 - modular._prec(p))
    loop = (4 * n + 96) * e
    head = (5 + 26 * abs(z)) * e * abs(w) * abs(1 + w) / abs(1 - w) ** 3
    delta = (half_b + (48 * n + 4 * c.pi * abs(tau0) + 5) * e) * abs(values[3])
    return half_b + loop * (1 + abs(w) / abs(1 - w) ** 2) + head, half_b + loop, half_b + loop, delta


def qseries_at(monkeypatch, c, p, tau0, cell, lcut):
    """`_qseries_core` at the precision p with its tail cutoff's log set to
    lcut, whatever p's, its values as mpc values of the context c."""
    with monkeypatch.context() as cut:
        cut.setattr(modular, "_cutoff", lambda p: lcut)
        return [from_exact(c, v) for v in modular._qseries_core(p, tau0, cell)]


def cell_point(c, tau0, cell):
    """(z, w) = ((k tau0 + m)/n, e^(2 pi i z)) in the context c."""
    k, m, n = cell
    z = (k * tau0 + m) / n
    return z, c.exp(2j * c.pi * z)


@pytest.mark.parametrize("digits", [80, 300])
def test_qseries_within_its_error_bound(monkeypatch, digits):
    """S, E4, E6 and Delta from `_qseries_core` at its cutoff, at working
    precision and at twice that, against the same call at the squared
    cutoff with twice the precision: within the sum of both calls' bounds
    from its docstring.  At twice the precision the rounding is far below
    the cutoff, so that call tests the tail bound B/2 alone; the cutoff is
    set through `_cutoff`, which ties it to the precision.  Every call
    reads one exact tau0.  Each bound is at most the one the route stated
    when its loop ran on mpc values."""
    p, twice = Precision(digits), Precision(2 * digits + 11)
    lcut, cutoff = modular._cutoff(p), cutoff_mpf(modular._ctx(p))
    ref = mpmath.ctx_mp.MPContext()
    ref.prec = 3 * modular._prec(twice)
    names = ("S", "E4", "E6", "Delta")
    for k, point in enumerate(ROUTE_TAUS):
        tau0 = exact_tau(point(ref), modular._prec(twice) + 20)
        ref_tau0 = from_exact(ref, tau0)
        for cell in ROUTE_CELLS:
            z, w = cell_point(ref, ref_tau0, cell)
            want = qseries_at(monkeypatch, ref, twice, tau0, cell, 2 * lcut)
            slack = qseries_bounds(ref, twice, ref_tau0, cutoff**2, z, w, want)
            for q in (p, twice):
                got = qseries_at(monkeypatch, ref, q, tau0, cell, lcut)
                bounds = qseries_bounds(ref, q, ref_tau0, cutoff, z, w, got)
                for name, a, b, bound, s in zip(names, got, want, bounds, slack):
                    assert abs(a - b) <= bound + s, (name, k, cell, q)
                before = mpc_loop_bounds(ref, q, ref_tau0, cutoff, z, w, got)
                for name, bound, old in zip(names, bounds, before):
                    assert bound <= old, (name, k, cell, q)
    got = modular._qseries_core(p, tau0, cell)
    assert [from_exact(ref, v) for v in got] == qseries_at(monkeypatch, ref, p, tau0, cell, lcut)


def test_qseries_within_its_error_bound_far_up_the_half_plane(monkeypatch):
    """At dK=-3299 `1,1,3`, 80 digits, the unreduced route's inputs reach
    Im tau0 = 28.7 with x = 1/3, where |1/w| = |q|^(-1/3) is about 2^87:
    q times a floored 1/w would lose that many bits of b = q/w.  On every
    class, S, E4, E6 and Delta are within the docstring's bound of the
    same call at about 200 more bits and the same cutoff (plus that call's
    own bound)."""
    mod = make_modulus(make_discriminant(-3299), 1, 1, 3)
    calls, core = [], modular._qseries_core
    monkeypatch.setattr(modular, "_qseries_core", lambda *a: calls.append(a) or core(*a))
    for fc in enumerate_classes(mod).classes:
        eval_descriptor_unreduced(descriptor(fc.rep, mod), P80)
    monkeypatch.undo()
    assert max(y / 2**-e for _, (x, y, e), _ in calls) > 28
    ref = mpmath.ctx_mp.MPContext()
    for p, tau0, cell in calls:
        more = Precision(p.digits + 61)
        ref.prec = 2 * modular._prec(more)
        ref_tau0 = from_exact(ref, tau0)
        z, w = cell_point(ref, ref_tau0, cell)
        cutoff = cutoff_mpf(modular._ctx(p))
        got = [from_exact(ref, v) for v in modular._qseries_core(p, tau0, cell)]
        want = qseries_at(monkeypatch, ref, more, tau0, cell, modular._cutoff(p))
        bounds = qseries_bounds(ref, p, ref_tau0, cutoff, z, w, got)
        slack = qseries_bounds(ref, more, ref_tau0, cutoff, z, w, want)
        for name, a, b, bound, s in zip(("S", "E4", "E6", "Delta"), got, want, bounds, slack):
            assert abs(a - b) <= bound + s, (name, tau0, cell)


# Im tau from the unreduced law-check range up to 20, each with cells on
# both vertical edges x = +-1/2 and one inside, and the cusp tau = 0.05i,
# where theta4 = 2*sum - 1 is 1.4e-6: formed on ints at the kernel's
# precision, it keeps every value within the tolerance there too; the cell
# (0, 1/2) is the 2-torsion point that `eisenstein_j` runs the core at, and
# (-0.3, 0.1) an inner cell with x < 0, which the core negates, S being even:
# jtheta runs at the cell as given, so it checks that evenness off the edges
KERNEL_TAUS = [("0", "0.05"), ("0.25", "0.05"), ("-0.5", "0.05"), ("-0.5", "0.4"),
               ("0.31", "1.2"), ("-0.5", "3"), ("0.17", "7.3"), ("0.5", "20")]
KERNEL_CELLS = [("0.5", "0.25"), ("-0.5", "0"), ("0.2", "-0.37"), ("0", "0.5"), ("-0.3", "0.1")]


def jtheta_core(ctx, tau, x, y):
    """(S, E4, E6, Delta) from mpmath.jtheta, with S by the e3 form of pe,
    theta2 theta3 theta4(pi z)/theta1(pi z) (DLMF 23.6.5), where the
    kernel takes the e1 form: no arithmetic and no identity for S shared
    with the kernel."""
    q = ctx.expjpi(tau)
    th2, th3, th4 = (ctx.jtheta(k, 0, q) for k in (2, 3, 4))
    t2, t3, t4 = th2**4, th3**4, th4**4
    z = ctx.pi * (x * tau + y)
    s_val = -((th2 * th3 * ctx.jtheta(4, z, q) / ctx.jtheta(1, z, q)) ** 2 - (t2 + t3) / 3) / 4
    e4 = (t2 * t2 + t3 * t3 + t4 * t4) / 2
    e6 = (t3 + t4) * (t2 + t3) * (t4 - t2) / 2
    return s_val, e4, e6, 27 * (t2 * t3 * t4) ** 2 / 4


@pytest.mark.parametrize("digits", [80, 1000])
def test_theta_kernel_matches_mpmath_jtheta(digits):
    p = Precision(digits)
    ctx = modular._ctx(p)
    tol = mpmath.mpf(10) ** -(digits + 5)
    for re, im in KERNEL_TAUS:
        ref = mpmath.ctx_mp.MPContext()
        # at 1000 digits jtheta's own sums lose about 5 Im(tau) digits at the
        # cell edges (measured against the q-series route); 80 digits lose none
        ref.dps = digits + 40 + 6 * math.ceil(float(im))
        tau = ctx.mpc(re, im)
        for x, y in KERNEL_CELLS:
            got = theta_at(ctx, tau, x, y)
            want = jtheta_core(ref, ref.mpc(tau), ref.mpf(x), ref.mpf(y))
            for name, a, b in zip(("S", "E4", "E6", "Delta"), got, want):
                assert abs(a - b) < tol * abs(b), (name, re, im, x, y)


def plain_sum(ref, q, v, shift, terms, parity=None):
    """sum_{n=0}^{terms} q^(n^2 + shift*n) v^n by the mpc loop in ref, over
    every n, or over the n of the given parity (0 even, 1 odd)."""
    want, term = ref.mpc(0), ref.mpc(1)
    step, q2 = q ** (1 + shift) * v, q**2
    for n in range(terms + 1):
        if parity is None or n % 2 == parity:
            want += term
        term *= step
        step *= q2
    return want


def theta_inputs(ctx, tau, cell):
    """(q, lq, a, b, la) as `_theta_core` hands them to `_theta_sums` at
    tau and the cell entered as `theta_at` enters them: `_exact_nome`
    negates a cell with x < 0, S being even, so a is w, of modulus at
    most 1, and b = q/w."""
    q, w, _, b, lq, lw = modular._exact_nome(ctx.prec, root_form(tau.real, tau.imag), int_cell(*cell))
    return q, lq, w, b, lw


def to_ref(ref, pair, scale):
    """An int pair (re, im) scaled by 2^scale as an mpc of ref."""
    return ref.mpc(ref.ldexp(pair[0], -scale), ref.ldexp(pair[1], -scale))


@pytest.mark.parametrize("digits", [80, 300, 1000])
def test_theta_sum_within_its_error_bound(digits):
    """Every sum `_theta_sums` returns at the points above, with a = w at
    the cell negated to x >= 0 and b = q/w as `_exact_nome` hands them
    over, against the same series summed by the mpc loop at twice the
    precision: s3, s4 and p each off by at most (N+1)^3 2^(1/2-wp) for
    N + 1 terms, the bound of its docstring, and the even and odd halves
    of each w-series off by at most that bound together, so their sum and
    difference are too; the sums are exact ints, so there is no rounding
    term."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    ref = mpmath.ctx_mp.MPContext()
    ref.prec = 2 * ctx.prec
    lcut = modular._cutoff(p)
    for re, im in KERNEL_TAUS:
        tau = ctx.mpc(re, im)
        for cell in KERNEL_CELLS:
            q, lq, a, b, la = theta_inputs(ctx, tau, cell)
            rq, ra, rb = (from_exact(ref, z) for z in (q, a, b))
            wp, got = modular._theta_sums(ctx.prec, q, lq, lcut, a, b, la)
            assert len(got) == 7
            e = ref.ldexp(ref.sqrt(2), -wp)
            # (v, log|v|, shift) of sum q^(n^2 + shift*n) v^n: s3, s4, p
            for k, (v, lv, shift) in enumerate([(1, 0, 0), (-1, 0, 0), (1, 0, 1)]):
                terms = modular._theta_terms(lq, lv, shift, lcut)
                off = abs(to_ref(ref, got[k], wp) - plain_sum(ref, rq, v, shift, terms))
                assert off <= (terms + 1) ** 3 * e, (re, im, cell, k)
            # the halves of sum P_n a^n and of sum T_n b^n
            for k, (v, lv, shift) in [(3, (ra, la, 1)), (5, (rb, lq - la, 0))]:
                terms = modular._theta_terms(lq, lv, shift, lcut)
                halves = (plain_sum(ref, rq, v, shift, terms, n) for n in (0, 1))
                off = sum(abs(to_ref(ref, got[k + n], wp) - h) for n, h in enumerate(halves))
                assert off <= (terms + 1) ** 3 * e, (re, im, cell, k)


@pytest.mark.parametrize("digits", [30, 80, 1000])
def test_j_cell_w_sums_equal_the_theta_constants(digits):
    """At x = 0, y = 1/2, where `eisenstein_j` runs the core, a = w = -1
    and b = -q exactly, and a fixed-point product by (+-2^wp, 0) is exact,
    so a^2 = 1 and the a-side halves are exact sums of the P_n ints:
    E - O = G(-1) is p bit for bit, and at a = 1, b = q the same halves
    come out with O negated, so E + O = G~(-1) is sum (-1)^n P_n on those
    ints, within the sums' bound of the mpc loop.  theta2(pi/2) = 0, so
    num cancels and S is -(t3 + t4)/12 within `_theta_values`' bound.  j
    reads only s3, s4 and p, whose loop the w-sums leave alone."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    lcut = modular._cutoff(p)
    for re, im in KERNEL_TAUS:
        tau = ctx.mpc(re, im)
        form = root_form(tau.real, tau.imag)
        q, a, a_inv, b, lq, la = modular._exact_nome(ctx.prec, form, int_cell("0", "0.5"))
        assert exact_parts(a) == exact_parts(a_inv) == (-1, 0), (re, im)
        assert exact_parts(b) == tuple(-t for t in exact_parts(q)), (re, im)
        wp, sums = modular._theta_sums(ctx.prec, q, lq, lcut, a, b, la)
        (er, ei), (orr, oi) = sums[3:5]
        assert (er - orr, ei - oi) == sums[2], (re, im)
        _, plus = modular._theta_sums(ctx.prec, q, lq, lcut, (1, 0, 0), q, la)
        assert plus[3] == (er, ei) and plus[4] == (-orr, -oi), (re, im)
        ref = mpmath.ctx_mp.MPContext()
        ref.prec = 2 * wp
        terms = modular._theta_terms(lq, la, 1, lcut)
        want = plain_sum(ref, from_exact(ref, q), -1, 1, terms)
        off = abs(to_ref(ref, (er + orr, ei + oi), wp) - want)
        assert off <= (terms + 1) ** 3 * ref.ldexp(ref.sqrt(2), -wp), (re, im)
        s_val = modular._theta_values(wp, sums, q, a_inv)[0]
        (_, _, _, _, t3, t4), _ = mpc_theta_values(ref, wp, sums, q, a_inv)
        bound = 32 * ref.ldexp(1, -wp) * ref.sqrt(8) * (abs(t3) + abs(t4)) / 12
        assert abs(from_exact(ref, s_val) + (t3 + t4) / 12) <= bound, (re, im)


def mpc_theta_values(ref, wp, sums, q, winv):
    """((S, E4, E6, Delta, t3, t4), magnitudes): the values from the integer
    sums by the mpc formulas of `_theta_core`'s docstring, evaluated in ref,
    with the magnitude that `_theta_values`' docstring bounds each error by;
    k~ |A| is formed with |num| cancelled, so it stays finite at num = 0."""
    s3, s4, p, e_w, o_w, e_b, o_b = (to_ref(ref, pair, wp) for pair in sums)
    q, winv = from_exact(ref, q), from_exact(ref, winv)
    th3, th4 = 2 * s3 - 1, 2 * s4 - 1
    t2, t3, t4 = 16 * q * (p * p) ** 2, (th3 * th3) ** 2, (th4 * th4) ** 2
    a2, a3, a4 = abs(t2), abs(t3), abs(t4)
    g_w, g_inv, gt_w, gt_inv = e_w - o_w, (e_b - o_b) * winv, e_w + o_w, (e_b + o_b) * winv
    den, num = g_w - g_inv, gt_w + gt_inv
    scale = abs(th3 * th4 / den) ** 2 / 4
    big_a = (th3 * th4 * num / den) ** 2 / 4
    # (k + k~) |A|, with |A| = scale |num|^2
    cancel = ((abs(g_w) + abs(g_inv)) * abs(num) / abs(den) + abs(gt_w) + abs(gt_inv)) * abs(num) * scale
    values = [
        big_a - (t3 + t4) / 12,
        (t2 * t2 + t3 * t3 + t4 * t4) / 2,
        (t3 + t4) * (t2 + t3) * (t4 - t2) / 2,
        27 * (t2 * t3 * t4) ** 2 / 4,
    ]
    mags = [(a2**2 + a3**2 + a4**2) / 2, (a2 + a3) * (a3 + a4) * (a4 + a2) / 2, abs(values[3])]
    return values + [t3, t4], [cancel + (a3 + a4) / 12] + mags


def mpc_torsion_values(values, mags):
    """[(f_i, its magnitude, its bound in units u)] for i = 0 (j), 1, 2, 3:
    the formulas of `_torsion_exact`'s docstring on the mpc values of
    `mpc_theta_values`, each with the magnitude and the factor of u that
    its docstring bounds the error by."""
    s_val, e4, e6, delta = values[:4]
    m_s, m4, m6, m_delta = mags
    return [
        (1728 * e4**3 / delta, 1728 * m4**3 / m_delta, 69),
        (-2 * e4 * e6 * s_val / (3 * delta), 2 * m4 * m6 * m_s / (3 * m_delta), 70),
        (12 * (e4 * s_val) ** 2 / delta, 12 * (m4 * m_s) ** 2 / m_delta, 75),
        (-8 * e6 * s_val**3 / delta, 8 * m6 * m_s**3 / m_delta, 76),
    ]


def vanishing_cells():
    """(form, cell) of the two CM classes whose value is 0 (see
    `test_vanishing_values_stay_below_the_digits`), as `eval_descriptor`
    hands them to `_theta_core`: the reduced form and the pushed row."""
    for dk, ideal, rep in [(-3, (1, 2, 3), (1, 1, 1)), (-4, (1, 1, 2), (1, 0, 1))]:
        d = descriptor(QuadForm(*rep), make_modulus(make_discriminant(dk), *ideal))
        label = modular.descriptor_label(d)
        form, g = reduce(d.eval_point())
        yield form, modular._exact_cell(label.r, label.s, label.level, g.inv())


@pytest.mark.parametrize("digits", [80, 300, 1000])
def test_theta_values_within_their_error_bound(digits):
    """S, E4, E6 and Delta as `_theta_values` forms them on ints, and j, f1,
    f2 and f3 as `_torsion_exact` forms them from those, unrounded, against
    the mpc formulas at twice the working precision on the same integer
    sums, q and 1/w: within the docstrings' 32u (69u to 76u for the f_i)
    times each value's magnitude, u = 2^(3/2 - wp), at every point and cell
    above, the cusp included, and at the two vanishing CM values, where S
    cancels.  `_theta_core`'s f_i, rounded once by `_mpc`, is that value
    rounded to the working precision."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    taus = [ctx.mpc(*tau) for tau in KERNEL_TAUS]
    points = [(root_form(tau.real, tau.imag), int_cell(*cell)) for tau in taus for cell in KERNEL_CELLS]
    for form, cell in points + list(vanishing_cells()):
        wp, sums, q, winv, got = kernel_values(ctx, form, cell)
        core = modular._theta_core(p, form, cell, range(4))
        ref = mpmath.ctx_mp.MPContext()
        ref.prec = 2 * wp
        want, mags = mpc_theta_values(ref, wp, sums, q, winv)
        u = ref.ldexp(1, -wp) * ref.sqrt(8)
        for name, g, w, m in zip(("S", "E4", "E6", "Delta"), got, want, mags):
            assert abs(from_exact(ref, g) - w) <= 32 * u * m, (name, form, cell)
        for i, (w, m, units) in enumerate(mpc_torsion_values(want, mags)):
            f = from_exact(ref, modular._torsion_exact(wp, i, got))
            assert modular._mpc(p, core[i]) == ctx.mpc(f), (i, form, cell)
            assert abs(f - w) <= units * u * m, (i, form, cell)


def plain_terms(lq, lv, shift, lcut):
    """The least count that `_theta_terms` defines, found by trying every
    m from 1 on."""
    for m in range(1, modular._MAX_TERMS):
        ratio = (2 * m + 1 + shift) * lq + lv
        if ratio < 0 and m * m * lq + m * (shift * lq + lv) - math.log1p(-math.exp(ratio)) < lcut:
            return m - 1
    raise AssertionError("no count below the term limit")


def test_theta_terms_match_the_plain_search():
    """`_theta_terms`, which starts near the root of its bound's numerator,
    against the search from m = 1, at every (lv, shift) of `_theta_sums`,
    on a seeded grid: Im tau from 0.01 to 25, x in [-1/2, 1/2] and the
    tail cutoff of 30 to 10^5 digits."""
    rng = random.Random(23)
    for _ in range(1500):
        lq = -math.pi * math.exp(rng.uniform(math.log(0.01), math.log(25)))
        digits = math.exp(rng.uniform(math.log(30), math.log(1e5)))
        lcut = -(digits + 20) * math.log(10)
        la = 2 * abs(rng.uniform(-0.5, 0.5)) * lq
        for lv, shift in [(0, 0), (0, 1), (la, 1), (lq - la, 0)]:
            got = modular._theta_terms(lq, lv, shift, lcut)
            assert got == plain_terms(lq, lv, shift, lcut), (lq, lv, shift, lcut)


def test_j_cell_counts_only_theta_terms():
    """At x = 0, where `eisenstein_j` runs the core, the four (lv, shift) of
    `_theta_sums` count (T, P, P, P) terms, T for q^(n^2) and P for
    q^(n^2 + n): no sum runs longer than the three theta constants need, so
    the working precision and those three sums are the ones they would be
    with no torsion point, at every point above and tail cutoffs of 30 to
    10^5 digits."""
    for _, im in KERNEL_TAUS:
        lq = -math.pi * float(im)
        la = 2 * 0.0 * lq  # as `_exact_nome` forms it at x = 0
        for digits in (30, 80, 300, 1000, 3000, 10000, 30000, 100000):
            lcut = -(digits + 20) * math.log(10)
            specs = [(0, 0), (0, 1), (la, 1), (lq - la, 0)]
            t, p, *rest = (modular._theta_terms(lq, lv, shift, lcut) for lv, shift in specs)
            assert rest == [p, p], (im, digits)


# the cells of `_exact_nome`'s test: x = 0, x = 1/2 on both edges, x < 0 and
# denominators up to 40, each in [-1/2, 1/2]^2 as `_exact_cell` leaves it
NOME_CELLS = [(0, 1, 2), (0, -3, 7), (1, 0, 2), (1, 1, 2), (-1, 1, 2), (-1, 2, 5),
              (7, -13, 40), (-19, 1, 40), (20, 20, 40), (3, 14, 31), (-11, 5, 24)]


@pytest.mark.parametrize("digits", [80, 300, 1000])
def test_exact_nome_within_its_error_bound(digits):
    """q, w, 1/w and b = q/w from `_exact_nome` at the cells above and at
    the roots of two kinds of form: every reduced form of five
    discriminants, and the forms (`root_form`) of the numeric points of
    `KERNEL_TAUS` (Im tau 0.05 to 20) and of a law-check image
    tau/(2 tau + 1) at tau = 1/2 + 0.4i (Im 0.086); against mpmath's
    expjpi at twice the precision, and its quotients: each within
    2^(-3 - prec) of its modulus, the bound of its docstring, with log|q|
    and log|w| good to float rounding."""
    ctx = modular._ctx(Precision(digits))
    ref = mpmath.ctx_mp.MPContext()
    ref.prec = 2 * ctx.prec
    bound = ref.ldexp(1, -3 - ctx.prec)
    points = []
    for dk in (-3, -4, -20, -23, -111):
        for form in reduced_forms(make_discriminant(dk)):
            tau0 = ref.mpc(-form.b, ref.sqrt(-form.disc())) / (2 * form.a)
            points.append((tau0, form))
    law = ctx.mpc("0.5", "0.4")
    for tau in [ctx.mpc(re, im) for re, im in KERNEL_TAUS] + [law / (2 * law + 1)]:
        points.append((ref.mpc(tau), root_form(tau.real, tau.imag)))
    assert points[-1][0].imag < 0.1
    for tau0, form in points:
        q_ref = ref.expjpi(tau0)
        for k, m, n in NOME_CELLS:
            x, y = Fraction(k, n), Fraction(m, n)
            q, w, winv, b, lq, lw = modular._exact_nome(ctx.prec, form, int_cell(x, y))
            if x < 0:
                x, y = -x, -y
            x, y = (ref.mpf(c.numerator) / c.denominator for c in (x, y))
            w_ref = ref.expjpi(2 * (x * tau0 + y))
            where = (tau0, k, m, n)
            for got, want in ((q, q_ref), (w, w_ref), (winv, 1 / w_ref), (b, q_ref / w_ref)):
                assert abs(from_exact(ref, got) - want) <= bound * abs(want), where
            for log, want in ((lq, q_ref), (lw, w_ref)):
                assert abs(log - float(ref.log(abs(want)))) <= 1e-12 * (1 + abs(log)), where


def test_cos_sin_pi_fold_matches_mpmath():
    """`_cos_sin_pi` on every num/den with den <= 48 and |num/den| <= 3,
    so every octant edge 0, +-1/4, +-1/2, +-3/4, +-1 and beyond, against
    mpmath's cospi and sinpi at 40 more digits: each part of the exact
    value within 2^(2 - prec), the bound of its docstring."""
    prec = modular._ctx(P80).prec
    ref = mpmath.ctx_mp.MPContext()
    ref.dps = 80 + 10 + 40
    bound = ref.ldexp(1, 2 - prec)
    for den in range(1, 49):
        for num in range(-3 * den, 3 * den + 1):
            phase = from_exact(ref, modular._cos_sin_pi(num, den, prec))
            t = ref.mpf(num) / den
            assert abs(phase.real - ref.cospi(t)) <= bound, (num, den)
            assert abs(phase.imag - ref.sinpi(t)) <= bound, (num, den)


def elementary_excess(digits):
    """Each elementary helper's worst error at `digits` over the bound its
    docstring states, against mpmath at more than twice the bits: a value
    above 1 is a broken bound.  wp is a nome's working precision, prec + 20.
    pi and ln 2 within 3 units; `_exp_series` at seeded y in (0, 1): e^y
    within a relative 1.1 units, and cos y and sin y at y in (0, pi/4],
    down to 2^-(wp/2), each within 1.1 units; `_exp` at seeded x of either
    sign up to 2^12 and at the nome arguments -pi Im tau0 of Im tau0 =
    10^154 and 10^305, within a relative unit; `_cos_sin_pi` at seeded
    num/den, each part within 4 units of 2^-prec."""
    wp = modular._prec(Precision(digits)) + 20
    ref = mpmath.ctx_mp.MPContext()
    ref.prec = 2 * wp + 1200
    rng = random.Random(digits)
    unit = ref.ldexp(1, -wp)
    worst = {}

    def note(name, error, bound):
        worst[name] = max(worst.get(name, 0), error / bound)

    for name, want in (("pi", ref.pi), ("ln2", ref.ln2)):
        note(name, abs(ref.ldexp(modular._constant(name, wp), -wp) - want), 3 * unit)
    for x in [rng.randrange(1, 1 << wp) for _ in range(12)] + [1 << wp - 40, 5]:
        want = ref.exp(ref.ldexp(x, -wp))
        note("exp_series", abs(ref.ldexp(modular._exp_series(x, wp), -wp) / want - 1), 1.1 * unit)
    quarter = int(ref.floor(ref.ldexp(ref.pi / 4, wp)))
    for x in [rng.randrange(1, quarter) for _ in range(12)] + [quarter, 1 << wp // 2, 3 << wp - 60]:
        c, s = modular._exp_series(x, wp, True)
        y = ref.ldexp(x, -wp)
        note("cos_sin", max(abs(ref.ldexp(c, -wp) - ref.cos(y)), abs(ref.ldexp(s, -wp) - ref.sin(y))), 1.1 * unit)
    nomes = [int(ref.floor(-ref.pi * ref.ldexp(10**e, wp))) for e in (154, 305)]
    for x in [rng.randrange(-(1 << wp + 12), 1 << wp + 12) for _ in range(12)] + nomes:
        man, e = modular._exp(x, wp)
        note("exp", abs(ref.ldexp(man, e) / ref.exp(ref.ldexp(x, -wp)) - 1), unit)
    prec = wp - 20
    for _ in range(12):
        den = rng.randrange(1, 10**6)
        num = rng.randrange(-3 * den, 3 * den)
        c, s, e = modular._cos_sin_pi(num, den, prec)
        t = ref.mpf(num) / den
        error = max(abs(ref.ldexp(c, e) - ref.cospi(t)), abs(ref.ldexp(s, e) - ref.sinpi(t)))
        note("cos_sin_pi", error, ref.ldexp(4, -prec))
    return worst


@pytest.mark.parametrize("digits", [30, 80, 300, 1000])
def test_elementary_helpers_within_their_bounds(monkeypatch, digits):
    """pi, ln 2, the exponential and the cosine and sine series, each
    within its docstring's bound at 30 to 1000 digits (`elementary_excess`),
    and the bounds are tight enough to see a series stopped one term early:
    with `_series_terms` one short, some helper breaks its bound."""
    worst = elementary_excess(digits)
    assert max(worst.values()) <= 1, worst
    series_terms = modular._series_terms
    monkeypatch.setattr(modular, "_series_terms", lambda x, w: max(0, series_terms(x, w) - 1))
    short = elementary_excess(digits)
    assert max(short.values()) > 1, short


def test_series_terms_match_the_plain_search():
    """`_series_terms` against the least n whose term y^(2n + 2)/(2n + 2)!
    lies below 2^-w, found on exact Fractions, at seeded y below 1/32 and
    w from 100 to 4000 bits."""
    rng = random.Random(31)
    for _ in range(60):
        w = rng.randrange(100, 4000)
        x = rng.randrange(1, 1 << w - 5) >> rng.randrange(0, w // 2)
        y, n = Fraction(x, 1 << w), 0
        term = y * y / 2
        while term >= Fraction(1, 1 << w):
            n += 1
            term *= y * y / ((2 * n + 1) * (2 * n + 2))
        assert modular._series_terms(x, w) == n, (x, w)


def test_prec_matches_dps_to_prec():
    """The working bits of every allowed digit count are libmp's
    dps_to_prec(digits + 10), the precision of the mpmath contexts the
    values leave through."""
    for digits in range(30, modular.MAX_DIGITS + 1):
        assert modular._prec(Precision(digits)) == libmp.dps_to_prec(digits + 10), digits


def test_totient_matches_the_gcd_count():
    """`_totient` from trial division against the count of units mod N, for
    every N up to 2000."""
    for n in range(1, 2001):
        assert modular._totient(n) == sum(math.gcd(x, n) == 1 for x in range(n)), n


def test_far_cell_holds_its_digits():
    """dK=-23 mod 3,9,12, class (1223,-1097,246): tau0 = 1/2 + 2.398i and
    x = y = 5/12, so 1/w has modulus |q|^(-5/6).  A kernel multiplying by
    powers of 1/w in place of b = q/w kept only 972 of 1000 digits here."""
    d = descriptor(QuadForm(1223, -1097, 246), make_modulus(D23, 3, 9, 12))
    value = eval_descriptor(d, None, Precision(1000))
    ref = eval_descriptor(d, None, Precision(1060))
    assert abs(value - ref) < mpmath.mpf(10) ** -1000 * abs(ref)


MOD23 = make_modulus(D23, 3, 9, 12)


@pytest.mark.parametrize("digits", [80, 300])
@pytest.mark.parametrize(
    "form", [(199051, 285991, 102726), (17147, 204481, 609618), (56239, 339077, 511092)]
)
def test_six_digit_translates_hold_their_digits(digits, form):
    """Class translates of dK=-23 mod 3,9,12 with six-digit coefficients.  A
    numeric reduction of the embedded point spends guard digits on them:
    that way the last two held only 1.2e-83 and 7.8e-84 at 80 digits, and
    2.1e-303 and 2.1e-304 at 300."""
    d = descriptor(QuadForm(*form), MOD23)
    value = eval_descriptor(d, None, Precision(digits))
    ref = eval_descriptor(d, None, Precision(digits + 120))
    assert abs(value - ref) < mpmath.mpf(10) ** -(digits + 5)


@pytest.mark.parametrize(
    "dk, ideal",
    [
        (-20, (2, 4, 6)),
        (-23, (3, 9, 12)),
        (-23, (1, 8, 31)),
        (-3, (6, 0, 6)),
        (-4, (6, 0, 6)),
        (-111, (9, 0, 9)),
        (-3, (1, 3, 7)),
        (-4, (1, 2, 5)),
    ],
)
def test_point_forms_match_fraction_route(dk, ideal):
    """Every class's base and evaluation point forms against the forms that
    trace and norm give their Fraction coordinates.  Every evaluation point
    here has a form of discriminant dK; the points 2u*tau + v mostly have
    discriminant k^2 dK with k > 1."""
    disc = make_discriminant(dk)
    mod = make_modulus(disc, *ideal)
    scaled = 0
    for fc in enumerate_classes(mod).classes:
        d = descriptor(fc.rep, mod)
        a, b = fc.rep.a, fc.rep.b
        # the base point tau/a + (b0 + b)/(2a) and its image (a1*p + m)/N
        v0 = Fraction(disc.b0 + b, 2 * a)
        assert d.point == fraction_point_form(disc, Fraction(1, a), v0), fc.rep
        (a1, m), (_, n) = d.eval_matrix
        u, v = Fraction(a1, a * n), (a1 * v0 + m) / n
        z = d.eval_point()
        assert z == fraction_point_form(disc, u, v), fc.rep
        assert point_coords(z, disc) == (u, v)
        doubled = fraction_point_form(disc, 2 * u, v)
        scaled += doubled.disc() != dk
    assert scaled > 0


@pytest.mark.parametrize(
    "dk, ideal", [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (6, 0, 6))]
)
def test_exact_reduction_matches_fricke_at_the_embedded_point(dk, ideal):
    """The exact route against `_fricke_at` at the evaluation point itself,
    unreduced, on every class, relative to the value: the same value from
    the reduced point with the pushed row, and from the point where it
    lies with the descriptor's row.  Each modulus has a class whose reduced
    point form sits on the boundary of the fundamental domain."""
    p = Precision(80)
    mod = make_modulus(make_discriminant(dk), *ideal)
    edges = 0
    for fc in enumerate_classes(mod).classes:
        d = descriptor(fc.rep, mod)
        want = modular._mpc(p, modular._fricke_at(modular.descriptor_label(d), d.eval_point(), p))
        assert abs(eval_descriptor(d, None, p) - want) < mpmath.mpf(10) ** -85 * abs(want), fc.rep
        r, _ = reduce(d.eval_point())
        edges += r.b == r.a or r.a == r.c
    assert edges > 0


def test_eval_descriptor_makes_no_complex_exponential(monkeypatch):
    """Every theta route entry builds q and w from one real exponential:
    with the q-series route's complex exponential (`_qseries_exp`)
    refusing, `eval_descriptor`, `fricke`, `_reduced_values`, `_fricke_at`
    and `eisenstein_j` return unchanged values, while the q-series route,
    `eval_descriptor_unreduced`, which takes q and w from it, fails."""
    descs = [descriptor(fc.rep, MOD23) for fc in enumerate_classes(MOD23).classes]
    label = modular.descriptor_label(descs[0])
    point, form = descs[0].eval_point(), root_form("0.31", "0.45")
    calls = [lambda d=d: eval_descriptor(d, None, P80) for d in descs] + [
        lambda: fricke(label, point, P80),
        lambda: modular._reduced_values(P80, point, label[1:], range(4)),
        lambda: modular._fricke_at(label, form, P80),
        lambda: eisenstein_j(form, P80),
    ]
    before = [call() for call in calls]

    def refuse(*args):
        raise AssertionError("complex exponential on the theta route")

    monkeypatch.setattr(modular, "_qseries_exp", refuse)
    assert [call() for call in calls] == before
    with pytest.raises(AssertionError, match="complex exponential"):
        eval_descriptor_unreduced(descs[0], P80)


def test_theta_phases_enter_cos_sin_pi_folded(monkeypatch):
    """Every angle that `_exp_series` takes as a cosine and sine in a
    `verify` pass (dK=-20 `2,4,6`, 40 digits), the theta route's phases and
    the q-series route's, lies in [0, pi/4]: each phase is folded exactly
    into [0, 1/4] first (`_cos_sin_pi`), so the series' sine, a square
    root, carries its sign from the fold, and its argument halvings stay
    few."""
    series, angles = modular._exp_series, []

    def recorded(x, wp, alt=False):
        if alt:
            angles.append(Fraction(x, 1 << wp))
        return series(x, wp, alt)

    monkeypatch.setattr(modular, "_exp_series", recorded)
    assert all(c.passed for c in run_checks(MOD20, Precision(40), 20))
    assert angles
    assert all(0 <= t <= Fraction(785399, 10**6) for t in angles), max(angles)


def test_eval_descriptor_does_not_reduce_numerically(monkeypatch):
    """No theta route entry reduces numerically: with `_reduce_tau`
    refusing, `eval_descriptor`, `fricke`, `_reduced_values`, `eisenstein_j`
    and `_fricke_at` return unchanged values, each reducing by
    `forms.reduce` or not at all, while the q-series route,
    `eval_descriptor_unreduced`, which owns `_reduce_tau`, fails."""
    descs = [descriptor(fc.rep, MOD23) for fc in enumerate_classes(MOD23).classes]
    label = modular.descriptor_label(descs[0])
    point, form = descs[0].eval_point(), root_form("0.31", "0.45")
    calls = [lambda d=d: eval_descriptor(d, None, P80) for d in descs] + [
        lambda: fricke(label, point, P80),
        lambda: modular._reduced_values(P80, form, label[1:], range(4)),
        lambda: eisenstein_j(point, P80),
        lambda: modular._fricke_at(label, form, P80),
    ]
    before = [call() for call in calls]

    def refuse(ctx, form):
        raise AssertionError("numeric reduction on the exact route")

    monkeypatch.setattr(modular, "_reduce_tau", refuse)
    assert [call() for call in calls] == before
    with pytest.raises(AssertionError, match="numeric reduction"):
        eval_descriptor_unreduced(descs[0], P80)


# the helpers each route computes with and the other must never call; both
# call the shared elementary helpers (`_constant`, `_exp`, `_exp_series`,
# `_cos_sin_pi`), as both once called mpmath's
THETA_ARITHMETIC = ("_mul", "_div", "_norm", "_shift", "_scaled", "_theta_sums", "_theta_values",
                    "_torsion_exact", "_theta_terms", "_exact_nome", "_theta_core")
QSERIES_ARITHMETIC = ("_qseries_values", "_qseries_core", "_qseries_terms", "_qseries_mul",
                      "_qseries_div", "_torsion_value", "_reduce_tau", "_qseries_exp")


@pytest.mark.parametrize("mod", [MOD20, make_modulus(D4, 6, 0, 6)], ids=["-20", "-4"])
def test_descriptor_routes_share_no_arithmetic(monkeypatch, mod):
    """The two descriptor routes share no arithmetic, so a slip in one
    moves only its own values and `verify`'s route check sees it: with the
    theta route's fixed-point helpers refusing, `eval_descriptor_unreduced`
    returns its unpatched values on every class of dK=-20 `2,4,6` and
    dK=-4 `6,0,6`, and with the q-series route's refusing,
    `eval_descriptor` returns its own; each route fails on its own set."""
    descs = [descriptor(fc.rep, mod) for fc in enumerate_classes(mod).classes]
    routes = [
        (THETA_ARITHMETIC, lambda d: eval_descriptor_unreduced(d, P80), eval_descriptor),
        (QSERIES_ARITHMETIC, lambda d: eval_descriptor(d, None, P80), eval_descriptor_unreduced),
    ]

    def refuse(*args):
        raise AssertionError("one route ran the other's arithmetic")

    for names, route, other in routes:
        before = [route(d) for d in descs]
        with monkeypatch.context() as patched:
            for name in names:
                patched.setattr(modular, name, refuse)
            assert [route(d) for d in descs] == before
            with pytest.raises(AssertionError, match="other's arithmetic"):
                other(descs[0], p=P80)


def test_qseries_loop_builds_no_mpmath_value_per_term(monkeypatch):
    """`_qseries_core` sums on ints: the elementary helpers it calls in one
    call, at the entry (pi, ln 2, the exponentials and the phases' series),
    are the same few as its term count grows from 27 at 40 digits to 381 at
    1000 digits (tau0 = i); the stopping rule tests float logs and builds
    none, and every value it returns is an exact value on ints."""
    built, terms = {}, {}
    for digits in (40, 1000):
        p = Precision(digits)
        ctx = modular._ctx(p)
        tau0, cell = exact_tau(ctx.mpc(0, 1), modular._prec(p) + 20), (20, -37, 100)
        terms[digits], _, _ = qseries_terms(ctx, ctx.mpc(0, 1), cutoff_mpf(ctx))
        count = []
        with monkeypatch.context() as counted:
            for name in ("_constant", "_exp", "_exp_series", "_cos_sin_pi"):
                helper = getattr(modular, name)
                counted.setattr(modular, name, lambda *a, helper=helper, name=name: count.append(name) or helper(*a))
            got = modular._qseries_core(p, tau0, cell)
        built[digits] = sorted(count)
        assert all(type(part) is int for value in got for part in value)
        assert got == modular._qseries_core(p, tau0, cell)
    assert terms == {40: 27, 1000: 381}
    # two complex exponentials, each pi twice, ln 2, one exponential and one phase
    assert built[40] == built[1000] and len(built[40]) == 14, built


def test_theta_route_builds_no_fraction(monkeypatch):
    """The exact inputs stay ints from the row to the nome: with
    `Fraction.__new__` refusing, `eval_descriptor` and
    `eval_descriptor_unreduced` on every class of dK=-23 `3,9,12`, and
    `fricke`, `_reduced_values`, `_fricke_at` and `eisenstein_j` at a form,
    return the values of their unpatched calls."""
    descs = [descriptor(fc.rep, MOD23) for fc in enumerate_classes(MOD23).classes]
    label = FrickeLabel(1, 2, 5, 6)
    tau = root_form("0.31", "0.45")
    calls = [lambda d=d: eval_descriptor(d, None, P80) for d in descs]
    calls += [lambda d=d: eval_descriptor_unreduced(d, P80) for d in descs]
    calls += [
        lambda: fricke(label, tau, P80),
        lambda: modular._reduced_values(P80, tau, label[1:], range(4)),
        lambda: modular._fricke_at(label, tau, P80),
        lambda: eisenstein_j(tau, P80),
    ]
    before = [call() for call in calls]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="Fraction was built"):
        Fraction(1, 2)
    assert [call() for call in calls] == before


def test_theta_core_leaves_the_ints_only_for_its_values(monkeypatch):
    """Below `_theta_core` the theta route runs on exact values alone, with
    no mpmath and no rounding: one core call returns, for each requested
    index, the very value `_torsion_exact` formed, unchanged, and builds no
    mpmath context or mpc (`_ctx` and `_mpc` refuse).  At the j cell, at
    cells with x > 0 and x < 0 at a point's form, and at the two vanishing
    CM values; each call returns int triples, the values of the unpatched
    core."""
    form = root_form("0.31", "0.45")
    cases = [(form, (0, 1, 2), (0,)), (form, (2, 1, 5), range(4)), (form, (-1, 2, 5), (2,))]
    cases += [(form, cell, (1, 2, 3)) for form, cell in vanishing_cells()]
    torsion_exact = modular._torsion_exact

    def refuse(*args, **kwargs):
        raise AssertionError("the core built an mpmath value")

    for form, cell, indices in cases:
        want = modular._theta_core(P80, form, cell, indices)
        formed = []
        with monkeypatch.context() as patched:
            patched.setattr(modular, "_ctx", refuse)
            patched.setattr(modular, "_mpc", refuse)
            patched.setattr(modular, "_torsion_exact", lambda *a: formed.append(torsion_exact(*a)) or formed[-1])
            got = modular._theta_core(P80, form, cell, indices)
        assert list(got) == formed and len(formed) == len(indices), cell
        assert all(type(part) is int for value in got for part in value)
        assert got == want, cell

import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest

from rayform import modular
from rayform.forms import IDENT, QuadForm, S_FLIP, reduce, t_power
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
from rayform.qfield import QFieldError, make_discriminant
from rayform.rayclass import descriptor, enumerate_classes, make_modulus, point_coords
from rayform.rayclass import class_translate

from conftest import fraction_point_form

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


def test_label_validation_and_normalization():
    lab = FrickeLabel(2, 7, -1, 6)
    assert (lab.r, lab.s) == (1, 5)
    assert lab.row() == (Fraction(1, 6), Fraction(5, 6))
    with pytest.raises(QFieldError):
        FrickeLabel(4, 1, 0, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 0, 0, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 6, 12, 6)
    with pytest.raises(QFieldError):
        FrickeLabel(1, 1, 0, 0)


def test_reduce_tau():
    ctx = modular._ctx(P30)
    t0, g = modular._reduce_tau(ctx, ctx.mpc(0, 1))
    assert g == IDENT
    assert abs(t0 - ctx.mpc(0, 1)) < ctx.mpf(10) ** -25

    tau = ctx.mpc("0.3", "0.007")
    t0, g = modular._reduce_tau(ctx, tau)
    assert t0.imag > ctx.sqrt(3) / 2 - ctx.mpf(10) ** -20
    assert abs(t0.real) <= ctx.mpf("0.5") + ctx.mpf(10) ** -20
    back = (g.p * t0 + g.q) / (g.r * t0 + g.s)
    assert abs(back - tau) < ctx.mpf(10) ** -25

    with pytest.raises(QFieldError):
        modular._reduce_tau(ctx, ctx.mpc(1, -1))


def test_j_special_values():
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    assert abs(eisenstein_j(ctx.mpc(0, 1), P80) - 1728) < tol
    rho = ctx.mpc(-1, ctx.sqrt(3)) / 2
    assert abs(eisenstein_j(rho, P80)) < tol
    assert abs(eisenstein_j(ctx.mpc(0, 2), P80) - 287496) < ctx.mpf(10) ** -60
    assert abs(eisenstein_j(ctx.mpc(0, ctx.sqrt(2)), P80) - 8000) < ctx.mpf(10) ** -60


def test_j_is_invariant():
    ctx = ctx_for(40)
    rng = random.Random(2)
    p = Precision(40)
    tau = ctx.mpc("0.317", "1.09")
    base = eisenstein_j(tau, p)
    for g in small_matrices(rng, 5):
        moved = (g.p * tau + g.q) / (g.r * tau + g.s)
        assert abs(eisenstein_j(moved, p) - base) < ctx.mpf(10) ** -35


def _theta_pe(ctx, z, tau, p):
    """pe(z; [tau, 1]) = -4 pi^2 S from the theta route at tau itself, with
    z = x*tau + y for x, y in [-1/2, 1/2]."""
    x = z.imag / tau.imag
    y = z.real - x * tau.real
    s_val = modular._theta_core(ctx, tau, modular._cutoff(ctx, p), x, y)[0]
    return -4 * ctx.pi**2 * s_val


def test_theta_s_leading_term():
    ctx = modular._ctx(P80)
    z = ctx.mpf(10) ** -5
    val = _theta_pe(ctx, ctx.mpc(z), ctx.mpc(0, 1), P80)
    assert abs(z**2 * val - 1) < ctx.mpf(10) ** -17


def test_theta_s_matches_direct_lattice_sum():
    # low-precision sanity anchor for S: truncated sum over a 101 x 101
    # window of lattice translates; 0.6 + 0.45i lies outside the
    # fundamental domain, where the theta series need more terms
    ctx = modular._ctx(P30)
    z = ctx.mpc("0.31", "0.17")
    for tau in (ctx.mpc("0.1", "1.2"), ctx.mpc("0.6", "0.45")):
        direct = 1 / z**2
        for m in range(-50, 51):
            for n in range(-50, 51):
                if m == 0 and n == 0:
                    continue
                w = m * tau + n
                direct += 1 / (z - w) ** 2 - 1 / w**2
        assert abs(_theta_pe(ctx, z, tau, P30) - direct) < ctx.mpf("1e-2")


def power_samples(ctx):
    return [
        (ctx.mpc("0.31", "1.11"), FrickeLabel(1, 1, 0, 6)),
        (ctx.mpc("-0.22", "0.93"), FrickeLabel(1, 2, 5, 6)),
        (ctx.mpc("0.05", "1.62"), FrickeLabel(1, 0, 1, 4)),
        (ctx.mpc("0.41", "0.87"), FrickeLabel(1, 3, 1, 5)),
    ]


def test_power_relations():
    ctx = ctx_for(80)
    tol = ctx.mpf(10) ** -70
    for tau, lab in power_samples(ctx):
        jv = eisenstein_j(tau, P80)
        if abs(jv) < ctx.mpf("1e-5") or abs(jv - 1728) < ctx.mpf("1e-5"):
            continue
        f1 = fricke(lab, tau, P80)
        f2 = fricke(FrickeLabel(2, lab.r, lab.s, lab.level), tau, P80)
        f3 = fricke(FrickeLabel(3, lab.r, lab.s, lab.level), tau, P80)
        assert abs(f2 - 46656 * f1**2 / (jv - 1728)) < tol
        assert abs(f3 - 80621568 * f1**3 / (jv * (jv - 1728))) < tol


def test_power_values_equal_the_public_calls():
    """The power check's one reduction and one theta core give exactly the
    values of eisenstein_j and the three fricke calls at the same tau and row."""
    for tau, lab in power_samples(ctx_for(80)):
        jv, *values = modular._power_values(lab, tau, P80)
        assert jv == eisenstein_j(tau, P80)
        assert values == [
            fricke(FrickeLabel(i, lab.r, lab.s, lab.level), tau, P80) for i in (1, 2, 3)
        ]


def test_row_negation_symmetry():
    ctx = ctx_for(40)
    p = Precision(40)
    tau = ctx.mpc("0.13", "1.21")
    for i in (1, 2, 3):
        a = fricke(FrickeLabel(i, 1, 4, 6), tau, p)
        b = fricke(FrickeLabel(i, -1, -4, 6), tau, p)
        assert abs(a - b) < ctx.mpf(10) ** -35


def test_transformation_law():
    # row index pushes through the matrix while the point moves by it
    ctx = ctx_for(80)
    rng = random.Random(9)
    tol = ctx.mpf(10) ** -70
    tau = ctx.mpc("0.29", "1.07")
    for g in small_matrices(rng, 6):
        for lab in (FrickeLabel(1, 1, 0, 6), FrickeLabel(2, 2, 3, 6), FrickeLabel(3, 0, 1, 4)):
            moved = (g.p * tau + g.q) / (g.r * tau + g.s)
            pushed = FrickeLabel(
                lab.i, lab.r * g.p + lab.s * g.r, lab.r * g.q + lab.s * g.s, lab.level
            )
            assert abs(fricke(lab, moved, P80) - fricke(pushed, tau, P80)) < tol


def test_weber_index_values():
    assert weber_index(D20) == 1
    assert weber_index(D23) == 1
    assert weber_index(D4) == 2
    assert weber_index(D3) == 3


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
        assert abs(eval_descriptor(d, None, P80) - eval_descriptor_unreduced(d, None, P80)) < tol


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
    (zu, zv), (xu, xv) = point_coords(d.eval_point(), D20), point_coords(MOD20.xi(), D20)
    assert (xu, xv) == (Fraction(2, 6), Fraction(4, 6))
    assert (d.a_inv, zu - xu, (zv - xv).denominator) == (1, 0, 1)
    xi = modular._embed(modular._ctx(P80), MOD20.xi(), D20)
    via_lattice = fricke(FrickeLabel(1, 0, 1, 6), xi, P80)
    assert abs(eval_descriptor(d, None, P80) - via_lattice) < ctx.mpf(10) ** -70


def test_descriptor_index_argument_forms():
    # None is half the unit group order: 1 for dK=-20, 2 for dK=-4
    d = descriptor(QuadForm(7, -6, 2), MOD20)
    assert eval_descriptor(d, None, P30) == eval_descriptor(d, 1, P30)
    d4 = descriptor(QuadForm(1, 0, 1), make_modulus(D4, 6, 0, 6))
    assert eval_descriptor(d4, None, P30) == eval_descriptor(d4, 2, P30)


@pytest.mark.parametrize("route", [eval_descriptor, eval_descriptor_unreduced])
@pytest.mark.parametrize("index", [0, 4])
def test_descriptor_routes_reject_bad_index(route, index):
    d = descriptor(QuadForm(7, -6, 2), MOD20)
    with pytest.raises(QFieldError, match="function index must be 1, 2 or 3"):
        route(d, index, P30)


def test_stability_under_digit_doubling():
    ctx = ctx_for(160)
    tau = ctx.mpc("0.37", "0.91")
    lo = eisenstein_j(tau, P80)
    hi = eisenstein_j(tau, Precision(160))
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
ROUTE_CELLS = [("0.5", "0.25"), ("-0.5", "0"), ("0.2", "-0.37"), ("0.0625", "0.4")]


@pytest.mark.parametrize("digits", [30, 80, 300])
def test_theta_route_matches_qseries_route(digits):
    """The theta route at `digits` against the q-series route at twice as
    many, plus the digits the reference's E4^3 - E6^2 cancels at
    |q| = e^(-2 pi Im tau0)."""
    ctx = modular._ctx(Precision(digits))
    cutoff = modular._cutoff(ctx, Precision(digits))
    near_zero = mpmath.mpf(10) ** -(digits // 2)
    tol = mpmath.mpf(10) ** -digits
    for k, point in enumerate(ROUTE_TAUS):
        tau0 = point(ctx)
        cancel = math.ceil(2 * math.pi * float(tau0.imag) / math.log(10))
        ref_p = Precision(2 * digits + cancel)
        ref_ctx = modular._ctx(ref_p)
        ref_cutoff = modular._cutoff(ref_ctx, ref_p)
        for x, y in ROUTE_CELLS:
            theta = modular._theta_core(ctx, tau0, cutoff, ctx.mpf(x), ctx.mpf(y))
            ref = modular._qseries_core(
                ref_ctx, point(ref_ctx), ref_cutoff, ref_ctx.mpf(x), ref_ctx.mpf(y)
            )
            for name, a, b in zip(("S", "E4", "E6", "Delta"), theta, ref):
                scale = abs(b) if abs(b) > near_zero else 1
                assert abs(a - b) < tol * scale, (name, k, x, y)


# Im tau from the unreduced law-check range up to 20, each with cells on
# both vertical edges x = +-1/2 and one inside.  Not tau = 0.05i: there
# theta4 = 2*sum - 1 is 1.4e-6 and Delta = 27/4 (t2 t3 t4)^2 is only good to
# a relative 10^-(digits+4.6), on the mpc kernel too (10^-(digits+3.5) at
# 1000 digits), a loss of the formula, not of the sums
KERNEL_TAUS = [("0.25", "0.05"), ("-0.5", "0.05"), ("-0.5", "0.4"), ("0.31", "1.2"),
               ("-0.5", "3"), ("0.17", "7.3"), ("0.5", "20")]
KERNEL_CELLS = [("0.5", "0.25"), ("-0.5", "0"), ("0.2", "-0.37")]


def jtheta_core(ctx, tau, x, y):
    """(S, E4, E6, Delta) from mpmath.jtheta, by the identities in
    `_theta_core`'s docstring; no arithmetic shared with the kernel."""
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
    cutoff = modular._cutoff(ctx, p)
    tol = mpmath.mpf(10) ** -(digits + 5)
    for re, im in KERNEL_TAUS:
        ref = mpmath.ctx_mp.MPContext()
        # at 1000 digits jtheta's own sums lose about 5 Im(tau) digits at the
        # cell edges (measured against the q-series route); 80 digits lose none
        ref.dps = digits + 40 + 6 * math.ceil(float(im))
        tau = ctx.mpc(re, im)
        for x, y in KERNEL_CELLS:
            x, y = ctx.mpf(x), ctx.mpf(y)
            got = modular._theta_core(ctx, tau, cutoff, x, y)
            want = jtheta_core(ref, ref.mpc(tau), ref.mpf(x), ref.mpf(y))
            for name, a, b in zip(("S", "E4", "E6", "Delta"), got, want):
                assert abs(a - b) < tol * abs(b), (name, re, im, x, y)


def plain_sum(ref, q, v, shift, terms):
    """sum_{n=0}^{terms} q^(n^2 + shift*n) v^n by the mpc loop in ref."""
    want = term = ref.mpc(1)
    step, q2 = q ** (1 + shift) * v, q**2
    for _ in range(terms):
        term *= step
        want += term
        step *= q2
    return want


@pytest.mark.parametrize("digits", [80, 1000])
def test_theta_sum_within_its_error_bound(digits):
    """Every sum `_theta_sums` returns at the points above, with no a (as for
    j) and with a the one of w, 1/w of modulus at most 1, against the same
    series summed by the mpc loop at twice the precision: off by at most
    the kernel's 2^-(prec+4) plus the result's one rounding, 2^-prec |sum|."""
    p = Precision(digits)
    ctx = modular._ctx(p)
    ref = mpmath.ctx_mp.MPContext()
    ref.prec = 2 * ctx.prec
    lcut = (ctx.mag(modular._cutoff(ctx, p)) - 1) * math.log(2)
    for re, im in KERNEL_TAUS:
        tau = ctx.mpc(re, im)
        q, lq = ctx.expjpi(tau), -math.pi * float(tau.imag)
        rq = ref.mpc(q)
        for cell in [None] + KERNEL_CELLS:
            # (v, log|v|, shift) of sum q^(n^2 + shift*n) v^n
            specs = [(1, 0, 0), (-1, 0, 0), (1, 0, 1)]
            if cell is None:
                got = modular._theta_sums(ctx, q, lq, lcut)
            else:
                x = ctx.mpf(cell[0])
                w = ctx.expjpi(2 * (x * tau + ctx.mpf(cell[1])))
                a, a_inv = (w, 1 / w) if x >= 0 else (1 / w, w)
                la = 2 * abs(float(x)) * lq
                got = modular._theta_sums(ctx, q, lq, lcut, a, a_inv, la)
                ra, ri = ref.mpc(a), ref.mpc(a_inv)
                # H(a), G(a), G(1/a) = sum (-1)^n q^(n^2) b^n for b = q a_inv, H(1/a)
                specs += [(-ra, la, 0), (-ra, la, 1), (-rq * ri, lq - la, 0), (-ri, -la, 0)]
            assert len(got) == len(specs)
            for k, (v, lv, shift) in enumerate(specs):
                want = plain_sum(ref, rq, v, shift, modular._theta_terms(lq, lv, shift, lcut))
                bound = (abs(want) + ref.mpf(1) / 16) * ref.mpf(2) ** -ctx.prec
                assert abs(got[k] - want) <= bound, (re, im, cell, k)


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
    trace and norm give their Fraction coordinates, and `_embed` of the
    evaluation point's form equal, not close, to tau*u + v at 40, 80 and
    1000 digits.  Every evaluation point here has a form of discriminant
    dK, so `_embed` also runs on the points 2u*tau + v, mostly of
    discriminant k^2 dK with k > 1."""
    disc = make_discriminant(dk)
    mod = make_modulus(disc, *ideal)
    taus, scaled = [], 0
    for digits in (40, 80, 1000):
        ctx = modular._ctx(Precision(digits))
        taus.append((ctx, ctx.mpc(-disc.b0, ctx.sqrt(-disc.d)) / 2))
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
        for ctx, tau in taus:
            for form, (x, y) in ((z, (u, v)), (doubled, (2 * u, v))):
                x, y = (ctx.mpf(c.numerator) / c.denominator for c in (x, y))
                want = tau * x + y
                assert modular._embed(ctx, form, disc) == want, (fc.rep, form, ctx.dps)
    assert scaled > 0


@pytest.mark.parametrize(
    "dk, ideal", [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (6, 0, 6))]
)
def test_exact_reduction_matches_fricke_at_the_embedded_point(dk, ideal):
    """The exact route against `fricke`, which reduces the embedded point
    numerically, on every class, relative to the value: the numeric side is
    off by 2.6e-85 at |value| = 608 for (179, -131, 24) of dK=-23.  Each
    modulus has a class whose reduced point form sits on the boundary of
    the fundamental domain, where the two reductions may pick different
    edges."""
    p = Precision(80)
    ctx = modular._ctx(p)
    mod = make_modulus(make_discriminant(dk), *ideal)
    edges = 0
    for fc in enumerate_classes(mod).classes:
        d = descriptor(fc.rep, mod)
        point = modular._embed(ctx, d.eval_point(), mod.disc)
        want = fricke(modular.descriptor_label(d), point, p)
        assert abs(eval_descriptor(d, None, p) - want) < mpmath.mpf(10) ** -85 * abs(want), fc.rep
        r, _ = reduce(d.eval_point())
        edges += r.b == r.a or r.a == r.c
    assert edges > 0


def test_eval_descriptor_does_not_reduce_numerically(monkeypatch):
    descs = [descriptor(fc.rep, MOD23) for fc in enumerate_classes(MOD23).classes]
    before = [eval_descriptor(d, None, P80) for d in descs]

    def refuse(ctx, t):
        raise AssertionError("numeric reduction on the exact route")

    monkeypatch.setattr(modular, "_reduce_tau", refuse)
    assert [eval_descriptor(d, None, P80) for d in descs] == before
    with pytest.raises(AssertionError, match="numeric reduction"):
        eval_descriptor_unreduced(descs[0], None, P80)

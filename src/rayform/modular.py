"""Arbitrary-precision evaluation of the classical modular quantities.

The library works with the Eisenstein series of weights 4 and 6, the
discriminant, j, the indexed division-value functions built from the
Weierstrass pe-function (here "torsion-value functions"); the index
`weber_index` normalizes a value for the unit group.  The pi powers cancel
out of every exposed weight-zero combination, so all results come from E4,
E6, the discriminant and the pi-free pe sum S alone.

These four numbers are computed along two independent routes:

* the theta route (`_theta_core`): Jacobi theta series in the nome
  e^(i pi tau), whose terms fall like |q|^(n^2), so the term count grows
  as the square root of the digit count.  The discriminant is a product
  of theta constants, with no cancellation.  All seven theta sums of one
  core come from one fixed-point pass (`_theta_sums`) over the shared
  powers q^n, q^(n^2) and q^(n^2 + n), 9 complex products per term with a
  torsion point and 3 without; every factor has modulus at most 1, and
  3 bitlen(N + 1) + 5 guard bits for N terms keep each sum's error below
  2^-(prec + 4).  `eisenstein_j`, `fricke` and `eval_descriptor` use it.
* the q-series route (`_qseries_core`): the Eisenstein and pe q-series in
  e^(2 pi i tau), with the discriminant as E4^3 - E6^2.
  `eval_descriptor_unreduced` uses it, so the check comparing it with
  `eval_descriptor` compares two independent series.  It stays on mpmath
  floats, sharing no arithmetic with the fixed-point sums, to catch their
  slips.

Every core runs in the fundamental domain, with the exact row pushed
through the reducing matrix (`_exact_cell`).  `eval_descriptor` reduces its
point of K exactly, as the root of an integral form, by `forms.reduce`;
`fricke`, `eval_descriptor_unreduced` and the power check's `_power_values`
reduce a complex tau numerically (`_reduced`), so the two descriptor routes
differ in the reduction as well as in the row and the series.  Only the
law check's `_fricke_at` runs a core at tau as given.  Every series is
truncated at an explicit tail threshold.

One read-only mpmath context per digit count, cached for the process by
`_ctx`; no caller may set its dps or prec.  Complex results are mpmath mpc
values; they are exchangeable across contexts.

Normalization is pinned at import by two self-checks, j(i) = 1728 and
j(rho) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .forms import IDENT, S_FLIP, QuadForm, UnimodMatrix, reduce, t_power
from .qfield import Discriminant, InternalCheckError, QFieldError
from .rayclass import GaloisDescriptor, point_coords

_MAX_TERMS = 200000
# the most digits a value may ask for: one value at 10^5 digits takes
# minutes, and a count far above it exhausts memory before any term is summed
MAX_DIGITS = 100000


class _Digits(NamedTuple):
    digits: int


class Precision(_Digits):
    """Working precision in decimal digits, from 30 to `MAX_DIGITS`; series
    tails stop below 10^-(digits+20).  The range is checked in `__new__`,
    which `_replace` and `_make` skip, so build one only by calling it."""

    __slots__ = ()

    def __new__(cls, digits: int = 80):
        if digits < 30:
            raise QFieldError(f"need at least 30 digits, got {digits}")
        if digits > MAX_DIGITS:
            raise QFieldError(f"need at most {MAX_DIGITS} digits, got {digits}")
        return tuple.__new__(cls, (digits,))


_CONTEXTS: dict[Precision, mpmath.ctx_mp.MPContext] = {}


def _ctx(p: Precision) -> mpmath.ctx_mp.MPContext:
    """The one context per digit count, cached for the process, working at
    p.digits + 10 digits.  It is read-only: no caller may set its dps or prec."""
    ctx = _CONTEXTS.get(p)
    if ctx is None:
        ctx = _CONTEXTS[p] = mpmath.ctx_mp.MPContext()
        ctx.dps = p.digits + 10
    return ctx


def _cutoff(ctx, p: Precision):
    return ctx.mpf(10) ** -(p.digits + 20)


def _fr(ctx, x: Fraction):
    return ctx.mpf(x.numerator) / x.denominator


def _embed(ctx, form: QuadForm, disc: Discriminant):
    """Numeric upper half plane root of the form: its exact `point_coords`
    (u, v) as u*tau + v, each coordinate correctly rounded."""
    u, v = point_coords(form, disc)
    tau = (ctx.mpc(-disc.b0, ctx.sqrt(-disc.d))) / 2
    return tau * _fr(ctx, u) + _fr(ctx, v)


def _ensure_finite(ctx, value):
    for part in (value.real, value.imag):
        if ctx.isnan(part) or ctx.isinf(part):
            raise InternalCheckError("non-finite value escaped a series evaluation")
    return value


class _LabelFields(NamedTuple):
    i: int
    r: int
    s: int
    level: int


class FrickeLabel(_LabelFields):
    """Index (i, [r/N, s/N]) of a torsion-value function of level N.

    The row is stored reduced to [0, N)^2 and must not be integral.  Both
    are done in `__new__`, which `_replace` and `_make` skip, so build a
    label only by calling the class.
    """

    __slots__ = ()

    def __new__(cls, i: int, r: int, s: int, level: int):
        if i not in (1, 2, 3):
            raise QFieldError(f"function index must be 1, 2 or 3, got {i}")
        if level < 1:
            raise QFieldError(f"level must be positive, got {level}")
        r, s = r % level, s % level
        if r == 0 and s == 0:
            raise QFieldError("row (0, 0) mod N indexes no torsion point")
        return tuple.__new__(cls, (i, r, s, level))

    def row(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.r, self.level), Fraction(self.s, self.level)

    def __str__(self) -> str:
        return f"{self.i}:{self.r},{self.s},{self.level}"


def _sigma(n: int, k: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            if d != n // d:
                total += (n // d) ** k
        d += 1
    return total


def _eisenstein(ctx, q, weight: int, cutoff):
    # E4 = 1 + 240 sum sigma3(n) q^n;  E6 = 1 - 504 sum sigma5(n) q^n
    coeff, power = (240, 3) if weight == 4 else (-504, 5)
    total = ctx.mpf(1)
    qn = ctx.mpc(1)
    aq = abs(q)
    aqn = ctx.mpf(1)
    for n in range(1, _MAX_TERMS):
        qn *= q
        total += coeff * _sigma(n, power) * qn
        aqn *= aq
        # sigma_k(n) <= n^(k+1); bound the whole remaining tail crudely
        if abs(coeff) * n ** (power + 1) * aqn / (1 - aq) < cutoff:
            return total
    raise InternalCheckError("Eisenstein series did not reach the tail cutoff")


def _wp_sum(ctx, x, y, tau, cutoff):
    """The pi-free pe series at z = x*tau + y, with x, y in [-1/2, 1/2].

    Returns S with pe(z; [tau, 1]) = -4 pi^2 S.
    """
    q = ctx.exp(2j * ctx.pi * tau)
    w = ctx.exp(2j * ctx.pi * (x * tau + y))
    total = ctx.mpf(1) / 12 + w / (1 - w) ** 2
    qn = ctx.mpc(1)
    aq = abs(q)
    # |w| lies between |q|^(1/2) and |q|^(-1/2); aqh is |q|^(n + 1/2)
    aqh = ctx.sqrt(aq)
    cube = (1 - aq) ** 3
    winv = 1 / w
    for n in range(1, _MAX_TERMS):
        qn *= q
        total += qn * w / (1 - qn * w) ** 2
        total += qn * winv / (1 - qn * winv) ** 2
        total -= 2 * qn / (1 - qn) ** 2
        aqh *= aq
        if 4 * aqh / cube < cutoff:
            return total
    raise InternalCheckError("pe series did not reach the tail cutoff")


def _qseries_core(ctx, tau0, cutoff, x, y):
    """(S, E4, E6, Delta) from the q-series, Delta = E4^3 - E6^2.

    The reference route: Delta loses about log10(1/|q|) digits to
    cancellation, which the theta route does not.
    """
    q = ctx.exp(2j * ctx.pi * tau0)
    e4, e6 = _eisenstein(ctx, q, 4, cutoff), _eisenstein(ctx, q, 6, cutoff)
    return _wp_sum(ctx, x, y, tau0, cutoff), e4, e6, e4**3 - e6**2


def _theta_terms(lq: float, lv: float, shift: int, lcut: float) -> int:
    """Term count N for sum_{n=0}^{N} q^(n^2 + shift*n) v^n, from the float
    logs lq = log|q| < 0 and lv = log|v|.

    From n = N + 1 on, consecutive terms shrink by the ratio
    |q|^(2n + 1 + shift) |v|, which falls with n, so the omitted tail is at
    most |q|^(M^2 + shift*M) |v|^M / (1 - |q|^(2M + 1 + shift) |v|) with
    M = N + 1; N is the least count that puts this bound below e^lcut.
    """
    for m in range(1, _MAX_TERMS):
        ratio = (2 * m + 1 + shift) * lq + lv
        if ratio < 0 and m * m * lq + m * (shift * lq + lv) - math.log1p(-math.exp(ratio)) < lcut:
            return m - 1
    raise InternalCheckError("theta series did not reach the tail cutoff")


def _theta_sums(ctx, q, lq: float, lcut: float, a=None, a_inv=None, la: float = 0.0):
    """[sum T_n, sum (-1)^n T_n, p] for T_n = q^(n^2) and p = sum P_n,
    P_n = q^(n^2 + n), and when a is given [H(a), G(a), G(1/a), H(1/a)]
    after them (see `_theta_core`), from one fixed-point pass.

    |q| < 1 and |a| <= 1, with logs lq and la; a_inv is 1/a, and
    b = q a_inv has modulus |q|^(1 - 2|x|) <= 1.  The pass builds q^n, T_n
    and P_n by T_(n+1) = P_n q^(n+1), P_(n+1) = T_(n+1) q^(n+1), and the
    powers of a and b, and every sum reads them: the first two are the even
    part of sum T_n plus and minus its odd part, H(a) = sum (-1)^n T_n a^n,
    G(a) = sum (-1)^n P_n a^n, G(1/a) = sum (-1)^n T_n b^n and
    H(1/a) = 1 + sum_(n>=1) (-1)^n P_(n-1) b^n.  Each sum stops at its own
    `_theta_terms` count, N at most.

    Every value is a pair of ints scaled by 2^wp, and every factor has
    modulus at most 1.  A complex product (three int products, Gauss's
    form) and a floor shift is off by under e = 2^(1/2 - wp) plus the
    errors of its factors; q and a enter off by e, b by 2e (`ctx.fmul` at
    wp, then the floor).  So q^n is off by (2n - 1) e, P_n by (2n^2 + 2n) e,
    T_n by 2n^2 e, a^n by (2n - 1) e and b^n by (3n - 1) e, every term by
    at most (2n^2 + 4n) e, and every sum by under (N + 1)^3 e
    <= 2^-(prec + 4) to first order, before its one rounding to prec.
    """
    specs = [(0, 0), (0, 1)]
    if a is not None:
        specs += [(la, 0), (la, 1), (lq - la, 0), (-la, 0)]
    counts = [_theta_terms(lq, lv, shift, lcut) for lv, shift in specs]
    top = max(counts)
    wp = ctx.prec + 3 * (top + 1).bit_length() + 5
    one = (1 << wp, 0)

    def fixed(z):
        return ctx.to_fixed(z.real, wp), ctx.to_fixed(z.imag, wp)

    def mul(x, y):
        (xr, xi), (yr, yi) = x, y
        k = yr * (xr + xi)
        return (k - xi * (yr + yi)) >> wp, (k + xr * (yi - yr)) >> wp

    def powers(z, count):
        out = [one]
        for _ in range(count):
            out.append(mul(out[-1], z))
        return out

    def series(terms, sign=-1):
        """sum sign^n terms[n], rounded once to an mpc value."""
        even, odd = terms[::2], terms[1::2]
        re, im = (sum(t[k] for t in even) + sign * sum(t[k] for t in odd) for k in (0, 1))
        return ctx.mpc(ctx.ldexp(re, -wp), ctx.ldexp(im, -wp))

    qq, qn, ts, ps = fixed(q), one, [one], [one]
    for _ in range(top):
        qn = mul(qn, qq)
        ts.append(mul(ps[-1], qn))
        ps.append(mul(ts[-1], qn))
    n_t, n_p = counts[:2]
    sums = [series(ts[: n_t + 1], 1), series(ts[: n_t + 1]), series(ps[: n_p + 1], 1)]
    if a is None:
        return sums
    n_h, n_g, n_gb, n_hb = counts[2:]
    an = powers(fixed(a), max(n_h, n_g))
    bn = powers(fixed(ctx.fmul(q, a_inv, prec=wp)), max(n_gb, n_hb))
    sums.append(series([one] + [mul(ts[n], an[n]) for n in range(1, n_h + 1)]))
    sums.append(series([one] + [mul(ps[n], an[n]) for n in range(1, n_g + 1)]))
    sums.append(series([one] + [mul(ts[n], bn[n]) for n in range(1, n_gb + 1)]))
    sums.append(series([one] + [mul(ps[n - 1], bn[n]) for n in range(1, n_hb + 1)]))
    return sums


def _theta_core(ctx, tau0, cutoff, x=None, y=None):
    """(S, E4, E6, Delta) at tau0 and z = x*tau0 + y from Jacobi theta
    series in the nome q = e^(i pi tau0); S is None when x is None.

    With p = sum q^(n(n+1)) (so theta2 = 2 q^(1/4) p), theta3, theta4 and
    t_k = theta_k^4: E4 = (t2^2 + t3^2 + t4^2)/2,
    E6 = (t3 + t4)(t2 + t3)(t4 - t2)/2 and Delta = E4^3 - E6^2 =
    27/4 (t2 t3 t4)^2, a product with no cancellation.  With w = e^(2 pi i z),
    theta1(pi z) = -i q^(1/4) w^(1/2) (G(w) - G(1/w)/w) for
    G(u) = sum (-1)^n q^(n(n+1)) u^n, and theta4(pi z) = H(w) + H(1/w) - 1
    for H(u) = sum (-1)^n q^(n^2) u^n; the quarter powers cancel from
    S = -(theta2^2 theta3^2 theta4(pi z)^2 / theta1(pi z)^2 - (t2 + t3)/3)/4,
    which is the q-series route's S.  For x, y in [-1/2, 1/2], |w| <= 1
    when x >= 0 and |1/w| <= 1 when x < 0; `_theta_sums` takes that one as
    its a and returns all seven sums from one pass, each cut where
    `_theta_terms` bounds its tail below the cutoff.
    """
    q = ctx.expjpi(tau0)
    lq = -math.pi * float(tau0.imag)
    # log of a number no larger than the cutoff
    lcut = (ctx.mag(cutoff) - 1) * math.log(2)
    if x is None:
        s3, s4, p = _theta_sums(ctx, q, lq, lcut)
    else:
        w = ctx.expjpi(2 * (x * tau0 + y))
        winv = 1 / w
        lw = 2 * float(x) * lq
        if x >= 0:
            s3, s4, p, h_w, g_w, g_inv, h_inv = _theta_sums(ctx, q, lq, lcut, w, winv, lw)
        else:
            s3, s4, p, h_inv, g_inv, g_w, h_w = _theta_sums(ctx, q, lq, lcut, winv, w, -lw)
    th3, th4 = 2 * s3 - 1, 2 * s4 - 1
    t2, t3, t4 = 16 * q * (p * p) ** 2, (th3 * th3) ** 2, (th4 * th4) ** 2
    e4 = (t2 * t2 + t3 * t3 + t4 * t4) / 2
    e6 = (t3 + t4) * (t2 + t3) * (t4 - t2) / 2
    delta = 27 * (t2 * t3 * t4) ** 2 / 4
    if x is None:
        return None, e4, e6, delta
    theta4_z = h_w + h_inv - 1
    theta1_z = g_w - g_inv * winv
    s_val = (p * th3 * theta4_z / theta1_z) ** 2 * winv + (t2 + t3) / 12
    return s_val, e4, e6, delta


def _reduce_tau(ctx, t):
    if t.imag <= 0:
        raise QFieldError("point is not in the upper half plane")
    edge = 1 - ctx.mpf(10) ** -(ctx.dps - 5)
    g = IDENT
    for _ in range(10000):
        shift = int(ctx.nint(t.real))
        if shift:
            t = t - shift
            g = g @ t_power(shift)
        if abs(t) < edge:
            t = -1 / t
            g = g @ S_FLIP
        else:
            return t, g
    raise InternalCheckError("fundamental domain reduction did not terminate")


def _torsion_value(ctx, i: int, values):
    """Torsion-value function number i from one route's (S, E4, E6, Delta);
    the pi powers cancel by construction."""
    s_val, e4, e6, dd = values
    if i == 1:
        value = -2 * e4 * e6 * s_val / (3 * dd)
    elif i == 2:
        value = 12 * e4**2 * s_val**2 / dd
    else:
        value = -8 * e6 * s_val * s_val * s_val / dd
    return _ensure_finite(ctx, ctx.mpc(value))


def _exact_cell(ctx, row, g: UnimodMatrix):
    """The exact row (v1, v2) pushed through g, row * g, shifted into
    [-1/2, 1/2]^2 before embedding."""
    v1, v2 = row
    r1 = v1 * g.p + v2 * g.r
    r2 = v1 * g.q + v2 * g.s
    r1 -= round(r1)
    r2 -= round(r2)
    if r1 == 0 and r2 == 0:
        raise QFieldError("row is integral: the point sits on the lattice")
    return _fr(ctx, r1), _fr(ctx, r2)


def eisenstein_j(tau, p: Precision = Precision()):
    """The j-invariant of [tau, 1], via E4 and the discriminant after domain
    reduction."""
    ctx = _ctx(p)
    t0, _ = _reduce_tau(ctx, ctx.mpc(tau))
    return _j(ctx, _theta_core(ctx, t0, _cutoff(ctx, p)))


def _j(ctx, values):
    _, e4, _, delta = values
    return _ensure_finite(ctx, ctx.mpc(1728 * e4 * e4 * e4 / delta))


def _reduced(ctx, core, t, row, p: Precision):
    """core's (S, E4, E6, Delta) at t reduced numerically to t0, t = g(t0),
    with the exact row pushed through g, so the series always run on a fat
    lattice."""
    t0, g = _reduce_tau(ctx, t)
    return core(ctx, t0, _cutoff(ctx, p), *_exact_cell(ctx, row, g))


def _power_values(label: FrickeLabel, tau, p: Precision):
    """(j, f1, f2, f3) at tau from one reduction and one theta core, equal
    to `eisenstein_j(tau, p)` and `fricke` at indices 1, 2, 3 with label's row."""
    ctx = _ctx(p)
    values = _reduced(ctx, _theta_core, ctx.mpc(tau), label.row(), p)
    return (_j(ctx, values),) + tuple(_torsion_value(ctx, i, values) for i in (1, 2, 3))


def _fricke_at(label: FrickeLabel, tau, p: Precision):
    """The indexed torsion-value function at tau itself, with no domain
    reduction.  The theta series reach any point of the upper half plane,
    with more terms as Im tau falls.  Two such values at g(tau) and tau
    never share an input, so comparing them tests the transformation law
    that `fricke`'s reduction relies on."""
    ctx = _ctx(p)
    t = ctx.mpc(tau)
    if t.imag <= 0:
        raise QFieldError("point is not in the upper half plane")
    x, y = _exact_cell(ctx, label.row(), IDENT)
    return _torsion_value(ctx, label.i, _theta_core(ctx, t, _cutoff(ctx, p), x, y))


def fricke(label: FrickeLabel, tau, p: Precision = Precision()):
    """The indexed torsion-value function at tau, on the theta route.

    tau is reduced to the fundamental domain and the row index is pushed
    through the same matrix.
    """
    ctx = _ctx(p)
    return _torsion_value(ctx, label.i, _reduced(ctx, _theta_core, ctx.mpc(tau), label.row(), p))


def weber_index(disc: Discriminant) -> int:
    """Exponent attached to the unit group: half its order."""
    return len(disc.unit_coords()) // 2


def _totient(n: int) -> int:
    result = 1
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            power = 1
            while m % f == 0:
                m //= f
                power *= f
            result *= power - power // f
        f += 1
    if m > 1:
        result *= m - 1
    return result


def descriptor_label(desc: GaloisDescriptor, i=None) -> FrickeLabel:
    """The label (i, [0, a_inv/N]) of a descriptor's value, i None standing
    for `weber_index`."""
    i = weber_index(desc.disc) if i is None else i
    return FrickeLabel(i, 0, desc.a_inv, desc.eval_matrix[1][1])


def eval_descriptor(desc: GaloisDescriptor, i=None, p: Precision = Precision()):
    """Numeric value attached to a descriptor: `fricke` with twisted row
    [0, a_inv/N] at the matrix image z = `eval_point()` of the base point,
    with z reduced exactly in K.

    z is the upper-half-plane root of the primitive integral form
    `eval_point()`; `forms.reduce` turns that form into the reduced
    (a, b, c) and g with g(z) = tau0 = (-b + i sqrt|b^2 - 4ac|)/(2a), and
    the row goes through g^-1, as `_reduced` pushes it.

    i is an index 1, 2 or 3, or None for half the unit group order, the
    index for which this value is a class invariant.
    """
    ctx = _ctx(p)
    label = descriptor_label(desc, i)
    form, g = reduce(desc.eval_point())
    tau0 = ctx.mpc(-form.b, ctx.sqrt(-form.disc())) / (2 * form.a)
    x, y = _exact_cell(ctx, label.row(), g.inv())
    return _torsion_value(ctx, label.i, _theta_core(ctx, tau0, _cutoff(ctx, p), x, y))


def eval_descriptor_unreduced(desc: GaloisDescriptor, i=None, p: Precision = Precision()):
    """Same value along the unreduced route: row numerator a^(phi(N)-1),
    as the product-ideal basis hands it over, the embedded point reduced
    numerically, and the q-series.  The product-ideal matrix is the
    evaluation matrix scaled by a, the same Moebius map, so both routes
    start from one point of K; their independence lies in the reduction,
    the row and the series.  Agreement with eval_descriptor is a checkable
    identity, not a private shortcut; keep the two code paths separate.
    """
    ctx = _ctx(p)
    label = descriptor_label(desc, i)
    row = (Fraction(0), Fraction(desc.point.a ** (_totient(label.level) - 1), label.level))
    point = _embed(ctx, desc.eval_point(), desc.disc)
    return _torsion_value(ctx, label.i, _reduced(ctx, _qseries_core, point, row, p))


def complex_to_json(value, p: Precision = Precision()) -> dict:
    """Each part to p.digits digits, or 0.0 when below 10^-digits |value| (noise)."""
    ctx = _ctx(p)
    v = ctx.mpc(value)
    noise = abs(v) * ctx.mpf(10) ** -p.digits
    return {
        key: ctx.nstr(part if abs(part) >= noise else ctx.zero, p.digits, strip_zeros=False)
        for key, part in (("re", v.real), ("im", v.imag))
    }


def _startup_check():
    p = Precision(30)
    ctx = _ctx(p)
    square = eisenstein_j(ctx.mpc(0, 1), p)
    if abs(square - 1728) > ctx.mpf(10) ** -25:
        raise InternalCheckError(f"normalization self-test failed: j(i) = {square}")
    hexagonal = eisenstein_j(ctx.mpc(-1, ctx.sqrt(3)) / 2, p)
    if abs(hexagonal) > ctx.mpf(10) ** -25:
        raise InternalCheckError(f"normalization self-test failed: j(rho) = {hexagonal}")


_startup_check()

"""Arbitrary-precision evaluation of the classical modular quantities.

The library works with the Eisenstein series of weights 4 and 6, the
discriminant, j, the indexed division-value functions built from the
Weierstrass pe-function (here "torsion-value functions"), and the
unit-group-normalized pe value attached to a fractional ideal.  The pi
powers cancel out of every exposed weight-zero combination, so all results
come from E4, E6, the discriminant and the pi-free pe sum S alone.

These four numbers are computed along two independent routes:

* the theta route (`_theta_core`): Jacobi theta series in the nome
  e^(i pi tau), whose terms fall like |q|^(n^2), so the term count grows
  as the square root of the digit count.  The discriminant is a product
  of theta constants, with no cancellation.  Each theta sum runs in fixed
  point with 3 bitlen(N + 1) + 4 guard bits for N terms, which keep its
  error below 2^-(prec + 4) (`_theta_sum`).  `eisenstein_j`, `fricke` and
  `eval_descriptor` use it.
* the q-series route (`_qseries_core`): the Eisenstein and pe q-series in
  e^(2 pi i tau), with the discriminant as E4^3 - E6^2.  `weber` and
  `eval_descriptor_unreduced` use it, so the checks comparing them with
  the values above compare two independent series.  It stays on mpmath
  floats, sharing no arithmetic with the fixed-point sums, to catch their slips.

Every series is truncated at an explicit tail threshold.

One read-only mpmath context per digit count, cached for the process by
`_ctx`; no caller may set its dps or prec.  Complex results are mpmath mpc
values; they are exchangeable across contexts.

Normalization is pinned at import by two self-checks, j(i) = 1728 and
j(rho) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .forms import IDENT, S_FLIP, t_power
from .qfield import (
    Discriminant,
    FieldElement,
    InternalCheckError,
    LatticeBasis,
    QFieldError,
    mobius,
)
from .rayclass import GaloisDescriptor

_MAX_TERMS = 200000


@dataclass(frozen=True)
class Precision:
    """Working precision in decimal digits; series tails stop below
    10^-(digits+20)."""

    digits: int = 80

    def __post_init__(self):
        if self.digits < 30:
            raise QFieldError(f"need at least 30 digits, got {self.digits}")


def _ctx(p: Precision) -> mpmath.ctx_mp.MPContext:
    """The one context per digit count, cached for the process, working at
    p.digits + 10 digits.  It is read-only: no caller may set its dps or prec."""
    return _context(p.digits)


@functools.cache
def _context(digits: int) -> mpmath.ctx_mp.MPContext:
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = digits + 10
    return ctx


def _cutoff(ctx, p: Precision):
    return ctx.mpf(10) ** -(p.digits + 20)


def _fr(ctx, x: Fraction):
    return ctx.mpf(x.numerator) / x.denominator


def _embed(ctx, x: FieldElement):
    """Numeric image of u*tau + v under the upper-half-plane embedding."""
    d = x.disc
    tau = (ctx.mpc(-d.b0, ctx.sqrt(-d.d))) / 2
    return tau * _fr(ctx, x.u) + _fr(ctx, x.v)


def _ensure_finite(ctx, value):
    for part in (value.real, value.imag):
        if ctx.isnan(part) or ctx.isinf(part):
            raise InternalCheckError("non-finite value escaped a series evaluation")
    return value


@dataclass(frozen=True)
class FrickeLabel:
    """Index (i, [r/N, s/N]) of a torsion-value function of level N.

    The row is stored reduced to [0, N)^2 and must not be integral.
    """

    i: int
    r: int
    s: int
    level: int

    def __post_init__(self):
        if self.i not in (1, 2, 3):
            raise QFieldError(f"function index must be 1, 2 or 3, got {self.i}")
        if self.level < 1:
            raise QFieldError(f"level must be positive, got {self.level}")
        object.__setattr__(self, "r", self.r % self.level)
        object.__setattr__(self, "s", self.s % self.level)
        if self.r == 0 and self.s == 0:
            raise QFieldError("row (0, 0) mod N indexes no torsion point")

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


def _theta_sum(ctx, q, v, shift: int, terms: int):
    """sum_{n=0}^{terms} q^(n^2 + shift*n) v^n; q^2, each step q^(2n+1+shift) v
    and each term are pairs of ints scaled by 2^wp.  A complex product (three
    int products, Gauss's form) and a floor shift is off by under
    e = 2^(1/2 - wp) for factors of modulus at most 1, as every step and term
    is (see `_theta_core`); step 0 enters off by 3e, q^2 by 2e.  So step n is
    off by 3(n + 1) e, term n by (3n(n + 1)/2 + n) e and the sum by under
    (terms + 1)^3 2^-wp <= 2^-(prec + 4), to first order, before its one rounding."""
    wp = ctx.prec + 3 * (terms + 1).bit_length() + 4
    q2 = ctx.fmul(q, q, prec=wp)
    step = ctx.fmul(q2 if shift else q, v, prec=wp)
    sr, si = ctx.to_fixed(step.real, wp), ctx.to_fixed(step.imag, wp)
    qr, qi = ctx.to_fixed(q2.real, wp), ctx.to_fixed(q2.imag, wp)
    qs, qd = qr + qi, qi - qr
    tr = total_r = 1 << wp
    ti = total_i = 0
    for _ in range(terms):
        k = sr * (tr + ti)
        tr, ti = (k - ti * (sr + si)) >> wp, (k + tr * (si - sr)) >> wp
        total_r += tr
        total_i += ti
        k = qr * (sr + si)
        sr, si = (k - si * qs) >> wp, (k + sr * qd) >> wp
    return ctx.mpc(ctx.ldexp(total_r, -wp), ctx.ldexp(total_i, -wp))


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
    which is the q-series route's S.  For x, y in [-1/2, 1/2] every one of
    these one-sided sums starts with the term 1 and no term is larger, and
    each is cut where `_theta_terms` bounds its tail below the cutoff.
    """
    q = ctx.expjpi(tau0)
    lq = -math.pi * float(tau0.imag)
    # log of a number no larger than the cutoff
    lcut = (ctx.mag(cutoff) - 1) * math.log(2)
    p = _theta_sum(ctx, q, 1, 1, _theta_terms(lq, 0, 1, lcut))
    n = _theta_terms(lq, 0, 0, lcut)
    th3 = 2 * _theta_sum(ctx, q, 1, 0, n) - 1
    th4 = 2 * _theta_sum(ctx, q, -1, 0, n) - 1
    t2, t3, t4 = 16 * q * (p * p) ** 2, (th3 * th3) ** 2, (th4 * th4) ** 2
    e4 = (t2 * t2 + t3 * t3 + t4 * t4) / 2
    e6 = (t3 + t4) * (t2 + t3) * (t4 - t2) / 2
    delta = 27 * (t2 * t3 * t4) ** 2 / 4
    if x is None:
        return None, e4, e6, delta
    w = ctx.expjpi(2 * (x * tau0 + y))
    winv = 1 / w
    lw = 2 * float(x) * lq

    def one_sided(u, lu, shift):
        return _theta_sum(ctx, q, -u, shift, _theta_terms(lq, lu, shift, lcut))

    theta4_z = one_sided(w, lw, 0) + one_sided(winv, -lw, 0) - 1
    theta1_z = one_sided(w, lw, 1) - one_sided(winv, -lw, 1) * winv
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


def _exact_cell(ctx, v1: Fraction, v2: Fraction):
    # v1, v2 are exact; shift into [-1/2, 1/2] before embedding
    r1 = v1 - round(v1)
    r2 = v2 - round(v2)
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


def _fricke_core(ctx, label: FrickeLabel, t, cutoff):
    """(S, E4, E6, Delta) at t reduced by g, with label's row pushed through g."""
    t0, g = _reduce_tau(ctx, t)
    v1, v2 = label.row()
    x, y = _exact_cell(ctx, v1 * g.p + v2 * g.r, v1 * g.q + v2 * g.s)
    return _theta_core(ctx, t0, cutoff, x, y)


def _power_values(label: FrickeLabel, tau, p: Precision):
    """(j, f1, f2, f3) at tau from one reduction and one theta core, equal
    to `eisenstein_j(tau, p)` and `fricke` at indices 1, 2, 3 with label's row."""
    ctx = _ctx(p)
    values = _fricke_core(ctx, label, ctx.mpc(tau), _cutoff(ctx, p))
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
    x, y = _exact_cell(ctx, *label.row())
    return _torsion_value(ctx, label.i, _theta_core(ctx, t, _cutoff(ctx, p), x, y))


def fricke(label: FrickeLabel, tau, p: Precision = Precision()):
    """The indexed torsion-value function at tau.

    tau is reduced to the fundamental domain and the row index is pushed
    through the same matrix, so the series always run on a fat lattice.
    """
    ctx = _ctx(p)
    return _torsion_value(ctx, label.i, _fricke_core(ctx, label, ctx.mpc(tau), _cutoff(ctx, p)))


def weber_index(disc: Discriminant) -> int:
    """Exponent attached to the unit group: half its order."""
    if disc.d == -4:
        return 2
    if disc.d == -3:
        return 3
    return 1


def weber(z: FieldElement, basis: LatticeBasis, p: Precision = Precision()):
    """Unit-normalized pe value of z relative to the lattice of the basis.

    z = x*g1 + y*g2 exactly, and the value has weight zero, so it is the
    value at row (x, y) on [g1/g2, 1]; g1/g2 is reduced to t0 in the
    fundamental domain and the row pushed through the reducing matrix, as
    in `fricke`.  The case split on the discriminant picks the exponent
    killing the extra units.
    """
    x, y = basis.solve(z)
    ctx = _ctx(p)
    t0, g = _reduce_tau(ctx, _embed(ctx, basis.g1 / basis.g2))
    cx, cy = _exact_cell(ctx, x * g.p + y * g.r, x * g.q + y * g.s)
    values = _qseries_core(ctx, t0, _cutoff(ctx, p), cx, cy)
    return _torsion_value(ctx, weber_index(basis.disc), values)


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


def eval_descriptor(desc: GaloisDescriptor, i=None, p: Precision = Precision()):
    """Numeric value attached to a descriptor: the torsion-value function
    with twisted row [0, a_inv/N] at the matrix image of the base point.

    i is an index, or None for half the unit group order, the index for
    which this value is a class invariant.
    """
    if i is None:
        i = weber_index(desc.point.disc)
    level = desc.eval_matrix[1][1]
    label = FrickeLabel(i, 0, desc.a_inv, level)
    point = mobius(desc.eval_matrix, desc.point)
    ctx = _ctx(p)
    return _torsion_value(ctx, i, _fricke_core(ctx, label, _embed(ctx, point), _cutoff(ctx, p)))


def eval_descriptor_unreduced(desc: GaloisDescriptor, i=None, p: Precision = Precision()):
    """Same value along the unreduced route: row numerator a^(phi(N)-1) and
    the matrix scaled by a, exactly as the product-ideal basis hands them
    over.  Agreement with eval_descriptor is a checkable identity, not a
    private shortcut; keep the two code paths separate.
    """
    if i is None:
        i = weber_index(desc.point.disc)
    level = desc.eval_matrix[1][1]
    a = Fraction(1) / desc.point.u
    if a.denominator != 1:
        raise InternalCheckError("descriptor point does not determine the form leader")
    a = int(a)
    (a1, dq_over_a), _ = desc.eval_matrix
    scaled = ((a1 * a, dq_over_a * a), (0, level * a))
    point = mobius(scaled, desc.point)
    v2 = Fraction(a ** (_totient(level) - 1), level)
    ctx = _ctx(p)
    t0, g = _reduce_tau(ctx, _embed(ctx, point))
    x, y = _exact_cell(ctx, v2 * g.r, v2 * g.s)
    return _torsion_value(ctx, i, _qseries_core(ctx, t0, _cutoff(ctx, p), x, y))


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

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
  as the square root of the digit count.  The discriminant is a product of
  theta constants, with no cancellation.  S takes theta1(pi z) and
  theta2(pi z), two series of the same monomials q^(n^2 + n) w^(+-n) with
  and without the sign (-1)^n.  All the sums of one core come from one
  fixed-point pass (`_theta_sums`) over the shared powers q^n, q^(n^2)
  and q^(n^2 + n): each w-series side as its even and odd halves by
  Horner's rule in the square of its point, whose sum and difference give
  both theta functions, 5 complex products per term; S is even in z, so a
  cell with x < 0 is negated and every factor has modulus at most 1, and
  3 bitlen(N + 1) + 5 guard bits for N terms keep each sum's error below
  2^-(prec + 4).  The sums stay ints: `_theta_values` forms S, E4, E6 and
  the discriminant from them on complex ints, each value with its own
  binary exponent and cut back to the working bits after every operation,
  each within 2^-(prec + 3/2) of the formulas on the sums, relative to the
  magnitude its docstring names.  `_torsion_exact` forms each requested
  value, j or an indexed function, from those four with the same
  operations, within 2^-prec of its formula relative to the magnitude
  its docstring names, and returns it unrounded.
* the q-series route (`_qseries_core`): the pe q-series in e^(2 pi i tau)
  with E4 and E6 as Lambert series in the same loop, over shared powers
  of q and one stopping rule, and the discriminant as Jacobi's product
  1728 q prod (1 - q^n)^24 in the same loop, with no cancellation.
  `eval_descriptor_unreduced` uses it, so the check comparing it with
  `eval_descriptor` compares two independent series.  Its loop runs on
  ints at one fixed scale, by its own product and quotient
  (`_qseries_mul`, `_qseries_div`).  Its reduction of the form's
  coefficients (`_reduce_tau`), its entry (tau0 from the reduced form, q,
  w, q w and q/w from its own complex exponential `_qseries_exp`), its
  exit and `_torsion_value`, which combines its four values, run on its
  own ints too, a binary exponent carrying the scale of q and the
  discriminant.  It shares no arithmetic with the theta route's
  fixed-point sums, values or `_torsion_exact`, to catch their slips.

Every core takes a torsion point and runs in the fundamental domain, the
row pushed through the reducing matrix to a cell (k, m, n) of ints, z's
coordinates x = k/n and y = m/n (`_exact_cell`).  Every entry of either
route takes a point as the positive definite integral form whose root it
is; `_theta_core` refuses any other form.  The theta route
reduces exactly, by `forms.reduce`, in its one reduced entry
`_reduced_values`: `fricke` is its value at one index, `eval_descriptor`
is `fricke` at its point of K, and `verify`'s power check reads j and the
three indexed values from one call.  `eisenstein_j` reduces its form for
its fixed cell (0, 1, 2), and the law check's `_fricke_at` runs unreduced.
`verify`'s invariance check compares the exact input itself (`_value_key`).
The q-series route's one entry, `_qseries_values`, reduces the form on
its coefficients by its own rounds (`_reduce_tau`, under `forms.reduce`'s
step cap) and takes the reduced form's root, so the descriptor routes
differ in the reduction, the row and the series; `verify`'s route check
reads it at every descriptor and at the power samples' forms.  Every
series stops at one tail threshold, the float log that `_cutoff` returns.

Every theta core gets q = e^(i pi tau0), w = e^(2 pi i z), 1/w and q/w
from one builder, `_exact_nome`, at the root of the form (a, b, c) and
the cell: one real exponential R = e^(-pi Im tau0/n), with |q| = R^n,
|w| = R^(2k) and |1/w| = 1/R^(2k) by binary powering, and the phases
pi (-b)/(2a) and pi (2ma - kb)/(an), each an integer pair through
`_cos_sin_pi`, which folds it exactly into [0, 1/4], takes a closed form
of square roots at a multiple of pi/12 (on the worked moduli most phases
are 24th roots of unity) and runs its series only for other angles;
1/w takes the conjugate of w's phase, and q/w is the product of q and
1/w.  All four are exact values (re, im, e) = (re + i im) 2^e, never
rounded to the working precision.  Only the q-series route takes a
complex exponential (`_qseries_exp`).

The numeric layer runs on ints from the form to the value.  The
elementary functions are int helpers that both routes call, a shared
library below their own arithmetic: pi and ln 2 (`_constant`, memoized
with headroom, the module's only state besides `_ctx`'s contexts), the
real exponential (`_exp`) and the Taylor series of cosh and cos behind
it and behind `_cos_sin_pi` at angles off the multiples of pi/12
(`_exp_series`).  Values are exact inside, rounded once in `_mpc`: each
route's core returns its values as exact values, unrounded, so
`verify`'s checks, which compare exact values on ints, never see two
values agree to the bit by both rounding alike.  mpmath is
imported only where a value leaves the library as an mpmath number: the
mpc that `eval_descriptor`, `fricke`, `eisenstein_j` and
`eval_descriptor_unreduced` return (`_mpc`, which rounds each part to
prec = `_prec(p)` bits, to nearest with ties to even), and
`complex_to_json`.
`_ctx` keeps one read-only mpmath context per digit count for them; no
caller may set its dps or prec.  Complex results are mpmath mpc values;
they are exchangeable across contexts.

Normalization is pinned at import by two self-checks, j(i) = 1728 and
j(rho) = 0, at the roots of (1, 0, 1) and (1, 1, 1).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .forms import IDENT, S_FLIP, QuadForm, UnimodMatrix, _reduce_cap, automorphs, reduce, t_power
from .qfield import InternalCheckError, QFieldError
from .rayclass import GaloisDescriptor

_MAX_TERMS = 200000
# the most digits a value may ask for: one value at 10^5 digits takes
# minutes, and a count far above it exhausts memory before any term is summed
MAX_DIGITS = 100000


class _Digits(NamedTuple):
    digits: int


class Precision(_Digits):
    """Working precision in decimal digits, an int from 30 to `MAX_DIGITS`;
    series tails stop below 10^-(digits+20).  Both are checked in `__new__`,
    which `_replace` and `_make` skip, so build one only by calling it."""

    __slots__ = ()

    def __new__(cls, digits: int = 80):
        if type(digits) is not int:
            raise QFieldError(f"digit count must be an integer, got {digits!r}")
        if digits < 30:
            raise QFieldError(f"need at least 30 digits, got {digits}")
        if digits > MAX_DIGITS:
            raise QFieldError(f"need at most {MAX_DIGITS} digits, got {digits}")
        return tuple.__new__(cls, (digits,))


def _prec(p: Precision) -> int:
    """The working precision in bits, libmp's dps_to_prec(p.digits + 10)."""
    return max(1, int(round((p.digits + 11) * 3.3219280948873626)))


def _cutoff(p: Precision) -> float:
    """The log of the series tail threshold 2^-bitlen(10^(digits + 20)), a
    float: below 10^-(digits + 20).  Both cores stop their series at it."""
    return -(10 ** (p.digits + 20)).bit_length() * math.log(2)


# pi and ln 2 at the most bits asked for so far, (bits, value): the
# module's only state besides `_ctx`'s contexts, two constants
_CONSTANTS = {"pi": (0, 0), "ln2": (0, 0)}


def _arccot(m: int, wp: int, hyperbolic: bool) -> int:
    """arccot m, or arccoth m when hyperbolic, for an int m >= 2, at scale
    2^wp: sum_k (+-1)^k m^-(2k+1)/(2k+1), the sign (-1)^k unless
    hyperbolic.  The power is floored once per step, and floors of floors
    of positive quotients compose, so it is floor(2^wp/m^(2k+1)) and each
    term floor(2^wp/((2k+1) m^(2k+1))), within a unit; the series stops at
    the first power below a unit, so for K terms the sum is within K + 1
    units of arccot m 2^wp."""
    power = (1 << wp) // m
    total, k, square = power, 1, m * m
    while power:
        power //= square
        term = power // (2 * k + 1)
        total += term if hyperbolic or k % 2 == 0 else -term
        k += 1
    return total


def _constant(name: str, wp: int) -> int:
    """pi or ln 2 by name at scale 2^wp, within 3 units (3 2^-wp), memoized
    with headroom as libmp's constant_memo memoizes: asked for more bits
    than the memo holds, it computes bits = 1.05 wp + 10, and a smaller
    request is the memo shifted down.  pi = 16 arccot 5 - 4 arccot 239
    (Machin) and ln 2 = 18 arccoth 26 - 2 arccoth 4801 + 8 arccoth 8749, as
    libmp forms it, each at g = bitlen(bits) + 6 guard bits: the weighted
    `_arccot` errors, under (3.7 bits + 48) units, are below a tenth of
    2^g, so the memo is within 1.1 units of its constant and a shift down
    within 2.1."""
    bits, value = _CONSTANTS[name]
    if wp > bits:
        bits = int(1.05 * wp) + 10
        g = bits.bit_length() + 6
        terms = ((16, 5), (-4, 239)) if name == "pi" else ((18, 26), (-2, 4801), (8, 8749))
        value = sum(c * _arccot(m, bits + g, name == "ln2") for c, m in terms) >> g
        _CONSTANTS[name] = bits, value
    return value >> bits - wp


def _series_terms(x: int, w: int) -> int:
    """The term count n of `_exp_series` at y = x 2^-w in (0, 1/32): the
    least n whose first omitted term of cosh y, y^(2n + 2)/(2n + 2)!, lies
    below 2^-w, counted in float logs, as `_theta_terms` counts its tails.
    The terms fall by a factor (2k + 1)(2k + 2)/y^2 > 12000 from one to
    the next, so the omitted tail is below 1.0001 units; the logs are good
    to a relative 10^-12, so a term the count drops lies below 1.000001
    units."""
    step, cut = 2 * (math.log(x) - w * math.log(2)), -w * math.log(2)
    log_term, n = 0.0, 0
    while True:
        n += 1
        log_term += step - math.log((2 * n - 1) * 2 * n)
        if log_term < cut:
            return n - 1


def _exp_series(x: int, wp: int, alt: bool = False):
    """e^y, or the pair (cos y, sin y) when alt, at scale 2^wp for
    y = x 2^-wp in [0, 1) and wp >= 100: a port of libmp's
    exponential_series (Brent and Zimmermann, Modern Computer Arithmetic,
    4.3-4.4).  With 2^(m - 1) <= y < 2^m, y is halved r = max(0, m +
    isqrt(wp)//2) times to y' < 2^-5, and the series of cosh y' (cos y')
    summed at w = wp + g bits, g = 2r - m + bitlen(wp) + 8, to
    `_series_terms`' n terms, u of them per product by y'^(2u) (u = 2, or
    0.3 wp^0.35 from 1500 bits on, as libmp splits).  e^y is then
    c + isqrt(c^2 - 1) squared r times, and cos y comes from r
    double-angle steps c -> 2c^2 - 1, sin y as isqrt(1 - c^2).
    Error bound: each term is within 1.5 units of 2^-w and the tail under
    1.0001, so c is within d = 2n + u + 3 units of cosh y' (cos y').  To
    first order c's error moves the exponent (the angle) by d/sinh y'
    (d/sin y') units, each of the r squarings (double-angle steps) doubles
    that and adds under a unit of its own, and the isqrt adds under a
    unit: a relative (angle) error under 4^r (d + 1/3) pi/(2y) + 2^(r + 1)
    units of 2^-w.  With y >= 2^(m - 1) and d <= wp (n <= wp/10 + 4 at
    y' < 2^-5), that is under 0.03 units of 2^-wp, and the final floor
    adds one: e^y is within a relative 1.1 2^-wp, and cos y and sin y are
    each within 1.1 2^-wp.  y = 0 returns the exact value."""
    if not x:
        return (1 << wp, 0) if alt else 1 << wp
    mag = x.bit_length() - wp
    r = max(0, mag + math.isqrt(wp) // 2)
    extra = 2 * r - mag + wp.bit_length() + 8
    w = wp + extra
    x <<= extra - r
    one = 1 << w
    u = 2 if wp < 1500 else int(0.3 * wp**0.35)
    powers = [one, (x * x) >> w]
    for _ in range(u - 1):
        powers.append((powers[-1] * powers[1]) >> w)
    sums, a = [0] * u, powers[1]
    for k in range(1, _series_terms(x, w) + 1):
        i = (k - 1) % u
        if k > 1 and not i:
            a = (a * powers[u]) >> w
        a //= (2 * k - 1) * 2 * k
        sums[i] += -a if alt and k & 1 else a
    c = one + sums[0] + sum((s * power) >> w for s, power in zip(sums[1:], powers[1:]))
    if not alt:
        v = c + math.isqrt(c * c - (one << w))
        for _ in range(r):
            v = (v * v) >> w
        return v >> extra
    for _ in range(r):
        c = ((c * c) >> w - 1) - one
    return c >> extra, math.isqrt(abs((one << w) - c * c)) >> extra


def _exp(x: int, wp: int):
    """e^(x 2^-wp) for any int x as (man, e), man 2^e within a relative
    2^-wp.  With b = bitlen(|x| >> wp) and w = wp + b + 4, x = n ln 2 + t
    by one floor division by ln 2 at scale 2^w (`_constant`), t in
    [0, ln 2), and e^x = 2^n e^t, e^t from `_exp_series` at w bits.  ln 2's
    3 units times |n| <= 2.45 2^b move t by under 0.5 units of 2^-wp, and
    the series adds 1.1 units of 2^-w."""
    b = (abs(x) >> wp).bit_length()
    w = wp + b + 4
    n, t = divmod(x << w - wp, _constant("ln2", w))
    return _exp_series(t, w), n - w


_CONTEXTS: dict = {}


def _ctx(p: Precision):
    """The one mpmath context per digit count, cached for the process,
    working at p.digits + 10 digits, built (and mpmath imported) only when
    a value leaves the library as an mpmath number.  It is read-only: no
    caller may set its dps or prec."""
    ctx = _CONTEXTS.get(p)
    if ctx is None:
        from mpmath.ctx_mp import MPContext

        ctx = _CONTEXTS[p] = MPContext()
        ctx.dps = p.digits + 10
    return ctx


def _mpc(p: Precision, value):
    """An exact value (re, im, e) as the mpc of p's context, each part
    rounded to prec = `_prec(p)` bits, to nearest with ties to even, by
    libmp's from_man_exp: where a value leaves the library, and the one
    place where a value is rounded."""
    from mpmath.libmp import from_man_exp

    re, im, e = value
    prec = _prec(p)
    return _ctx(p).make_mpc((from_man_exp(re, e, prec, "n"), from_man_exp(im, e, prec, "n")))


class _LabelFields(NamedTuple):
    i: int
    r: int
    s: int
    level: int


class FrickeLabel(_LabelFields):
    """Index (i, [r/N, s/N]) of a torsion-value function of level N, as ints.

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

    def __str__(self) -> str:
        return f"{self.i}:{self.r},{self.s},{self.level}"


def _qseries_mul(x, y, wp: int):
    """The q-series route's product of two fixed-point pairs (re, im) at
    scale 2^wp: three int products (Gauss's form), each part floored."""
    (xr, xi), (yr, yi) = x, y
    k = yr * (xr + xi)
    return (k - xi * (yr + yi)) >> wp, (k + xr * (yi - yr)) >> wp


def _qseries_div(x, y, wp: int):
    """The q-series route's quotient x/y of two fixed-point pairs at scale
    2^wp, each part floored."""
    (xr, xi), (yr, yi) = x, y
    den = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << wp) // den, ((xi * yr - xr * yi) << wp) // den


def _qseries_terms(lq: float, lcut: float) -> int:
    """The first n >= 1 with B = 504 n^6 |q|^n below the cutoff e^lcut, from
    the float logs lq = log|q| = -2 pi Im tau0 < -log 200 and lcut, by the
    test log 504 + 6 log n + n lq < lcut, as `_theta_terms` tests its tails.
    B falls with n, by the factor (1 + 1/n)^6 |q| <= 64/200, and every n
    below (log 504 - lcut)/(-lq), less one for its rounding, fails, so the
    search steps up from there.
    lq is within a relative 3 * 2^-53 of -2 pi Im tau0, and the test's left
    side within 8 * 2^-53 (|n lq| + 7 + 6 log n) of its exact value; where
    the decision turns, |n lq| is about |lcut|, at most 2.4e5 at
    `MAX_DIGITS`, so the float test errs only where B lies within a
    relative 10^-9 of the cutoff, and then stops with B below 1.000000001
    times it.  The cutoff lies 10 digits below the working precision, so
    that excess is lost in the slack."""
    for n in range(max(1, math.ceil((math.log(504) - lcut) / -lq) - 1), _MAX_TERMS):
        if math.log(504) + 6 * math.log(n) + n * lq < lcut:
            return n
    raise InternalCheckError("q-series did not reach the tail cutoff")


def _qseries_exp(re: int, im: int, den: int, wp: int):
    """The q-series route's complex exponential e^(2 pi i (re + i im)/den)
    for ints re, im and den > 0, as an exact value: its radius
    e^(-2 pi im/den) from `_exp` times its phase from `_cos_sin_pi`, at wp
    bits, multiplied exactly.  The exponent 2 pi im/den is floored at
    scale 2^wp from pi at wp + b + 2 bits, b = bitlen(|im| // den), within
    2.5 units of 2^-wp, so the radius is within a relative 3.5 2^-wp; each
    phase part is within 2^(2 - wp), so the value is within a relative
    10 2^-wp."""
    b = (abs(im) // den).bit_length()
    man, e = _exp(-(2 * _constant("pi", wp + b + 2) * im // (den << b + 2)), wp)
    c, s, ce = _cos_sin_pi(2 * re, den, wp)
    return man * c, man * s, e + ce


def _qseries_core(p: Precision, tau0, cell: tuple[int, int, int]):
    """(S, E4, E6, Delta) at tau0 and z = (k tau0 + m)/n for the cell
    (k, m, n) of `_exact_cell`, x = k/n and y = m/n in [-1/2, 1/2], from
    q-series in q = e^(2 pi i tau0), with Delta = 1728 q P^24 by
    Jacobi's product P = prod (1 - q^n), which is E4^3 - E6^2 with no
    cancellation (Apostol, Modular Functions and Dirichlet Series, ch. 3).

    One loop over the shared q^n, P's factor 1 - q^n, t = 1/(1 - q^n) and
    u = q^n t sums the Lambert series E4 = 1 + 240 sum n^3 u and
    E6 = 1 - 504 sum n^5 u beside
    S = 1/12 + w/(1 - w)^2 + sum (a/(1 - a)^2 + b/(1 - b)^2 - 2 u t), with
    w = e^(2 pi i z), a = q^(n-1) a1, b = q^(n-1) b1 for a1 = q w,
    b1 = q/w, and pe(z; [tau0, 1]) = -4 pi^2 S.
    It runs n = 1 to N, the first n with B = 504 n^6 |q|^n below
    `_cutoff`, the theta route's threshold too, counted in float
    logs by `_qseries_terms`.  `_qseries_values` hands over the root of a
    form with |b| <= a <= c, |Re tau0| <= 1/2 and Im tau0 >= sqrt(3)/2 less
    1.5 units of its scale, so |q| < 1/200 and each tail is below
    B/2: the tail of sum n^k u (k = 3, 5) is sum_(m > N) c_m q^m with
    0 <= c_m <= sigma_k(m) <= m^(k+1), under
    N^(k+1) |q|^N sum_(j >= 1) (1 + j)^6 200^-j < 0.34 N^(k+1) |q|^N;
    |a|, |b| <= |q|^(m - 1/2) in term m, as |w| lies between |q|^(1/2) and
    |q|^(-1/2), so S's tail is below |q|^N; P's omitted factors
    prod_(m > N) (1 - q^m) lie within 1.01 sum_(m > N) |q|^m < |q|^N/190
    of 1, so Delta's relative tail is below 24 times that, |q|^N/7 < B/2.

    tau0 is an exact value (x, y, -W), as `_qseries_values` forms it, and z's
    parts are exact fractions of ints.  q and w come from the route's own
    complex exponential `_qseries_exp` at tau0 and at z, each within
    eq = ew = 10 2^-wp relative, a1 = q w is their exact product and
    b1 = q/w their exact quotient, both within eq + ew.  Each is floored
    once to a pair of ints at scale 2^wp, wp = prec + g with
    g = 6 bitlen(N + 1) + 8, and the loop runs on those ints alone, by
    `_qseries_mul` and `_qseries_div`, each exact on ints and then floored,
    within f = 2^(1/2 - wp) of its result on its stored operands.  b1 is
    taken from the exact quotient, not as q times a floored 1/w: |1/w| is
    up to |q|^(-1/2), and that product would lose pi Im tau0/ln 2 bits.
    Every factor in the loop has modulus at most 1, so to first order
    q^n, a and b are within 1.1 f, 1 - q^n's reciprocal t within 2.1 f,
    u within 2.1 f, 2 u t within 6.1 f, each a/(1 - a)^2 within 2.6 f
    (|a| <= |q|^(1/2) < 0.071), so each term of S within 12 f, and P
    within 2.1 N f.  The head w/(1 - w)^2 is within
    (1 + (1 + |w|)(h + h^2)^2) f for h = 1/|1 - w|, and 1/12 within f.
    The exit returns S, E4 and E6 as exact values at scale 2^wp, unrounded,
    and Delta as the exact product of q, with its binary exponent, and
    1728 P^24, taken on the ints by four squarings and one product (within
    24 times P's relative error plus 23 f/0.88 relative);
    `_torsion_value` forms each requested value from them, unrounded.
    The entry errors move each term r/(1 - r)^2 = sum k^2 r^k of S by at
    most 1.34 |r| times its relative error, n eq + ew for r = a, b and
    n eq for r = q^n, under 1.6 |q|^(1/2) (eq + ew) in all, as
    |a| + |b| <= |q|^(n - 1/2) + |q|^(n + 1/2); they move E4 by
    240 sum n^4 |q|^n eq/(1 - |q|^n)^2 < 263 |q| eq, E6 by 682 |q| eq and
    P by 1.02 |q| eq relative.  So
      S is within B/2 + ew |w| |1 + w|/|1 - w|^3 + 1.6 |q|^(1/2) (eq + ew)
        + (12 N + 2 + (1 + |w|)(h + h^2)^2) f,
      E4 within B/2 + 263 |q| eq + 122 N^2 (N + 1)^2 f,
      E6 within B/2 + 682 |q| eq + 171 (N + 1)^6 f,
      Delta within (B/2 + (1 + 25 |q|) eq + (51 N + 26) f) |Delta|,
    and the guard g puts each f term of E4 and E6 below 2^-prec.
    """
    x, y, e = tau0
    k, m, den = cell
    scale = 1 << -e
    terms = _qseries_terms(-2 * math.pi * (y / scale), _cutoff(p))
    wp = _prec(p) + 6 * (terms + 1).bit_length() + 8
    one = 1 << wp
    mul, div = _qseries_mul, _qseries_div

    def fixed(re, im, e, den=1):
        """(re + i im) 2^e/den floored at scale 2^wp."""
        s = e + wp
        return ((re << s) // den, (im << s) // den) if s >= 0 else (re // (den << -s), im // (den << -s))

    qr, qi, qe = _qseries_exp(x, y, scale, wp)
    wr, wi, we = _qseries_exp(k * x + m * scale, k * y, den * scale, wp)
    qq, w = fixed(qr, qi, qe), fixed(wr, wi, we)
    a = fixed(qr * wr - qi * wi, qr * wi + qi * wr, qe + we)
    b = fixed(qr * wr + qi * wi, qi * wr - qr * wi, qe - we, wr * wr + wi * wi)
    cw = one - w[0], -w[1]
    head = div(w, mul(cw, cw, wp), wp)
    s_re, s_im = one // 12 + head[0], head[1]
    l4r = l4i = l6r = l6i = 0
    qn, prod = qq, (one, 0)
    for n in range(1, terms + 1):
        if n > 1:
            qn, a, b = mul(qn, qq, wp), mul(a, qq, wp), mul(b, qq, wp)
        factor = one - qn[0], -qn[1]
        prod = mul(prod, factor, wp)
        t = div((one, 0), factor, wp)
        ur, ui = u = mul(qn, t, wp)
        ut = mul(u, t, wp)
        ca, cb = (one - a[0], -a[1]), (one - b[0], -b[1])
        fa, fb = div(a, mul(ca, ca, wp), wp), div(b, mul(cb, cb, wp), wp)
        s_re += fa[0] + fb[0] - 2 * ut[0]
        s_im += fa[1] + fb[1] - 2 * ut[1]
        n3 = n * n * n
        l4r, l4i = l4r + n3 * ur, l4i + n3 * ui
        n5 = n3 * n * n
        l6r, l6i = l6r + n5 * ur, l6i + n5 * ui
    p2 = mul(prod, prod, wp)
    p4 = mul(p2, p2, wp)
    p8 = mul(p4, p4, wp)
    p24 = mul(mul(p8, p8, wp), p8, wp)
    e4 = one + 240 * l4r, 240 * l4i, -wp
    e6 = one - 504 * l6r, -504 * l6i, -wp
    pr, pi = 1728 * p24[0], 1728 * p24[1]
    return (s_re, s_im, -wp), e4, e6, (pr * qr - pi * qi, pr * qi + pi * qr, qe - wp)


def _theta_terms(lq: float, lv: float, shift: int, lcut: float) -> int:
    """Term count N for sum_{n=0}^{N} q^(n^2 + shift*n) v^n, from the float
    logs lq = log|q| < 0 and lv = log|v|.

    From n = N + 1 on, consecutive terms shrink by the ratio
    |q|^(2n + 1 + shift) |v|, which falls with n, so the omitted tail is at
    most |q|^(M^2 + shift*M) |v|^M / (1 - |q|^(2M + 1 + shift) |v|) with
    M = N + 1; N is the least count that puts this bound below e^lcut.
    The bound exceeds its numerator, m^2 lq + m (shift lq + lv) in logs, a
    parabola whose roots have opposite signs (lq and lcut are negative), so
    no m up to its positive root r meets the bound.  The search starts one
    below the floor of r, as computed in floats, and steps up to the least
    m that meets the exact condition: near r the numerator falls by at
    least 2 sqrt(lq lcut) per step, far more than the float error of r.
    r goes through hypot, as b^2 overflows a float far up the half plane.
    """
    b = shift * lq + lv
    root = (b + math.hypot(b, 2 * math.sqrt(lq * lcut))) / (-2 * lq)
    for m in range(max(1, int(root) - 1), _MAX_TERMS):
        ratio = (2 * m + 1 + shift) * lq + lv
        if ratio < 0 and m * m * lq + m * b - math.log1p(-math.exp(ratio)) < lcut:
            return m - 1
    raise InternalCheckError("theta series did not reach the tail cutoff")


def _theta_sums(prec: int, q, lq: float, lcut: float, a, b, la: float):
    """(wp, sums): the sums [sum T_n, sum (-1)^n T_n, p] for T_n = q^(n^2)
    and p = sum P_n, P_n = q^(n^2 + n), then the even and odd halves
    [E(a), O(a), E(b), O(b)] of the two w-series (see `_theta_core`), from
    one fixed-point pass, each an int pair (re, im) scaled by 2^wp.

    |q| < 1 and a = w with x >= 0 (S is even), so |a| <= 1, with logs lq
    and la; b = q/a has modulus |q|^(1 - 2x) <= 1.
    The pass builds q^n, T_n and P_n by T_(n+1) = P_n q^(n+1),
    P_(n+1) = T_(n+1) q^(n+1), and every sum reads them: the first two are
    the even part of sum T_n plus and minus its odd part.  The w-series
    take c_n = P_n at z = a and c_n = T_n at z = b (both terms are
    q^(n^2 + n) w^(+-n)): E(z) = sum c_n z^n over even n goes by Horner's
    rule in z^2, r_k = c_2k + z^2 r_(k+1), one complex product per term
    and no power of z, and O(z), over odd n, the same way and then times z
    once.  So E + O and E - O, the series with and without the sign
    (-1)^n, come from one pass over each side's coefficients, each side
    cut at its own `_theta_terms` count, N at most.

    Every factor has modulus at most 1.  A complex product (three int
    products, Gauss's form) and a floor shift is off by under
    e = 2^(1/2 - wp) plus the errors of its factors; q, a and b enter off
    by e (the floor, `_shift`), so z^2 is off by at most 3e.  q^n is off by
    (2n - 1) e, T_n by 2n^2 e and P_n by (2n^2 + 2n) e.  A Horner step
    adds to the error of r_(k+1), times |z^2| <= 1, its floor e, c_2k's
    error and z^2's error times the exact r_(k+1), whose modulus is at most
    its count of terms; the product by z adds e and z's error, e, times
    the odd half's count.  For a side of N + 1 terms, the coefficients'
    errors sum to under N(N + 1)(2N + 4)/3 e, the N + 1 floors (N - 1
    steps, z^2 and the product by z) to (N + 1) e, z^2's error to
    3 (2N^2 + 2N - 1)/8 e and z's to (N + 1) e/2.  That is below
    (N + 1)^3 e from N = 3 on; at N = 2 it is 22e (c_0 + z^2 c_2 16e,
    c_1 z 6e), at N = 1 6e, and N = 0 leaves c_0 = 1 exact.  So E + O and
    E - O are each off by under (N + 1)^3 e <= 2^-(prec + 4) to first
    order.
    """
    specs = [(0, 0), (0, 1), (la, 1), (lq - la, 0)]
    n_t, n_p, n_a, n_b = (_theta_terms(lq, lv, shift, lcut) for lv, shift in specs)
    top = max(n_t, n_p, n_a, n_b)
    wp = prec + 3 * (top + 1).bit_length() + 5
    one = (1 << wp, 0)

    def mul(x, y):
        (xr, xi), (yr, yi) = x, y
        k = yr * (xr + xi)
        return (k - xi * (yr + yi)) >> wp, (k + xr * (yi - yr)) >> wp

    def series(terms, sign):
        """sum sign^n terms[n], exact on the ints."""
        even, odd = terms[::2], terms[1::2]
        return tuple(sum(t[k] for t in even) + sign * sum(t[k] for t in odd) for k in (0, 1))

    def horner(coeffs, z2):
        """sum coeffs[k] z2^k as c_0 + z2 (c_1 + z2 (...)); 0 when empty."""
        r = (0, 0)
        for cr, ci in reversed(coeffs):
            zr, zi = mul(r, z2)
            r = cr + zr, ci + zi
        return r

    def halves(coeffs, z):
        z2 = mul(z, z)
        return horner(coeffs[::2], z2), mul(horner(coeffs[1::2], z2), z)

    qq, a, b = (_shift(z, -wp)[:2] for z in (q, a, b))
    qn, ts, ps = one, [one], [one]
    for _ in range(top):
        qn = mul(qn, qq)
        ts.append(mul(ps[-1], qn))
        ps.append(mul(ts[-1], qn))
    sums = [series(ts[: n_t + 1], 1), series(ts[: n_t + 1], -1), series(ps[: n_p + 1], 1)]
    return wp, sums + [*halves(ps[: n_a + 1], a), *halves(ts[: n_b + 1], b)]


def _shift(x, e: int):
    """The exact value x = (re, im, xe) at exponent e, each part floored."""
    re, im, xe = x
    return (re << xe - e, im << xe - e, e) if xe >= e else (re >> e - xe, im >> e - xe, e)


def _norm(re: int, im: int, e: int, wp: int):
    """(re + i im) 2^e as (re, im, e), floor-shifted to at most wp bits."""
    s = max(abs(re), abs(im)).bit_length() - wp
    return (re >> s, im >> s, e + s) if s > 0 else (re, im, e)


def _mul(x, y, wp: int):
    """The product of two exact values (re, im, e) on ints (three int
    products, Gauss's form), cut back to wp bits by `_norm`."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    k = yr * (xr + xi)
    return _norm(k - xi * (yr + yi), k + xr * (yi - yr), xe + ye, wp)


def _div(x, y, wp: int):
    """The quotient x/y of two exact values, floored with at least wp + 1 bits."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    den = yr * yr + yi * yi
    nr, ni = xr * yr + xi * yi, xi * yr - xr * yi
    k = max(0, wp + 1 + den.bit_length() - max(abs(nr), abs(ni)).bit_length())
    return (nr << k) // den, (ni << k) // den, xe - ye - k


def _scaled(x, c: int, k: int = 0):
    """The exact value x times c 2^k."""
    return c * x[0], c * x[1], x[2] + k


def _theta_values(wp: int, sums, q, winv):
    """(S, E4, E6, Delta) of `_theta_core`, each an exact value
    (re, im, e) = (re + i im) 2^e, from `_theta_sums`' pairs at scale 2^wp
    in the order s3, s4, p, E(w), O(w), E(b), O(b), with q and 1/w.

    th3 = 2 s3 - 1, th4 = 2 s4 - 1 and the four w-series
    G~(w) = E(w) + O(w), G(w) = E(w) - O(w), G~(1/w) = E(b) + O(b) and
    G(1/w) = E(b) - O(b) are exact at scale 2^wp.  Every other value
    carries its own binary exponent, so a small factor (th3 or th4 near a
    cusp, q at large Im tau0, theta1(pi z), theta2(pi z) near z = 1/2)
    keeps its relative precision.  q and 1/w enter exact, as `_exact_nome`
    forms them.  A product is exact on ints and then floor-shifted to at
    most wp bits; a sum is exact, its operands aligned on the smaller
    exponent, and then shifted likewise; a quotient (by theta1, and by 12)
    keeps at least wp + 1 bits of its floor.  A shift by s > 0 bits moves
    each part by under 2^s from a value of at least 2^(wp - 1 + s), so
    every operation returns its exact result on its stored operands within
    a relative u = 2^(3/2 - wp) (a quotient within 2^(1/2 - wp)).  Where a
    sum's exponents lie over 2 wp apart and its top bits are t and
    t' < t - wp - 2 (far up the half plane t2 lies 2 pi Im tau0/ln 2 bits
    below t3), the smaller is first floored at 2^(t - wp - 3): the sum
    exceeds 2^(t - 2), so its own shift floors at 2^(t - wp - 1) or above,
    the two floors make one, and no shift spans the gap.  Against the
    formulas evaluated exactly on the sums, q and 1/w, to first order in
    u: t3 and t4 are within 3u, t2 within 5u, and
      Delta within 27u |Delta|,
      E4 within 13u (|t2|^2 + |t3|^2 + |t4|^2)/2,
      E6 within 18u (|t2| + |t3|)(|t3| + |t4|)(|t4| + |t2|)/2,
      S within 9u ((k + k~) |A| + (|t3| + |t4|)/12),
    with A = (th3 th4 num/den)^2/4 for num = G~(w) + G~(1/w)/w and
    den = G(w) - G(1/w)/w, and the cancellations k = (|G(w)| +
    |G(1/w)/w|)/|den| >= 1 in theta1(pi z) and k~ = (|G~(w)| +
    |G~(1/w)/w|)/|num| >= 1 in theta2(pi z); k~ |A| stays finite as num
    vanishes at z = 1/2.  For S: each of num and den is within (3k/2 + 1)u
    <= 5ku/2 (with its own k) of its exact value, th3 th4 num within
    (2 + 5k~/2)u, the quotient r within 5(1 + k + k~)u/2 and r^2/4 within
    (6 + 5k + 5k~)u <= 8(k + k~)u; (t3 + t4)/12 is within
    9u (|t3| + |t4|)/24, and the difference adds u (|A| + (|t3| + |t4|)/12).
    Under wp >= prec + 3 bitlen(N + 1) + 5 >= prec + 8, each bound is below
    32u <= 2^-(prec + 3/2) times its magnitude; `_torsion_exact` combines
    them on the same ints.
    """
    one = 1 << wp

    def mul(x, y):
        return _mul(x, y, wp)

    def top(v):
        return max(abs(v[0]), abs(v[1])).bit_length() + v[2]

    def add(x, y, sign=1):
        if abs(x[2] - y[2]) > 2 * wp:
            x, y = sorted((x, _scaled(y, sign)), key=top)
            k, sign = (top(y) - wp - 3 - x[2] if top(x) < top(y) - wp - 2 else 0), 1
            x = _shift(x, x[2] + k)
        e = min(x[2], y[2])
        (xr, xi, _), (yr, yi, _) = _shift(x, e), _shift(y, e)
        return _norm(xr + sign * yr, xi + sign * yi, e, wp)

    th3, th4 = ((2 * re - one, 2 * im, -wp) for re, im in sums[:2])
    p = (*sums[2], -wp)
    p2, t3, t4 = mul(p, p), mul(th3, th3), mul(th4, th4)
    t2 = _scaled(mul(q, mul(p2, p2)), 1, 4)
    t3, t4 = mul(t3, t3), mul(t4, t4)
    e4 = _scaled(add(add(mul(t2, t2), mul(t3, t3)), mul(t4, t4)), 1, -1)
    e6 = _scaled(mul(mul(add(t3, t4), add(t2, t3)), add(t4, t2, -1)), 1, -1)
    d = mul(mul(t2, t3), t4)
    delta = _scaled(mul(d, d), 27, -2)
    # G~(w), G(w), G~(1/w), G(1/w): each side's halves added and subtracted
    gt_w, g_w, gt_b, g_b = (
        (e[0] + c * o[0], e[1] + c * o[1], -wp) for e, o in (sums[3:5], sums[5:]) for c in (1, -1)
    )
    num = add(gt_w, mul(gt_b, winv))
    den = add(g_w, mul(g_b, winv), -1)
    r = _div(mul(mul(th3, th4), num), den, wp)
    s_val = add(_scaled(mul(r, r), 1, -2), _div(add(t3, t4), (12, 0, 0), wp), -1)
    return s_val, e4, e6, delta


def _torsion_exact(wp: int, i: int, values):
    """Torsion-value function number i, i = 0 standing for j, as an exact
    value (re, im, e) from `_theta_values`' (S, E4, E6, Delta) at wp bits:
    j = 1728 E4^3/Delta, f1 = -2 E4 E6 S/(3 Delta), f2 = 12 (E4 S)^2/Delta
    and f3 = -8 E6 S^3/Delta, the constants exact on ints.

    Every product and quotient is `_theta_values`' own, each within a
    relative u = 2^(3/2 - wp) of its exact result on its stored operands.
    Write M_S, M4, M6 and |Delta| for the magnitudes that `_theta_values`
    bounds the errors of S (9u), E4 (13u), E6 (18u) and Delta (27u) by;
    each is at least its factor's modulus.  To first order in u, a product
    of m factors taken with m - 1 products is then within the sum of its
    factors' errors plus (m - 1) u, relative to the product of their
    magnitudes, and the quotient by Delta adds 27u + u.  Relative to the
    magnitude M = |c| times the factors' magnitudes over |Delta|:
      j within 69u, M = 1728 M4^3/|Delta|,
      f1 within 70u, M = 2 M4 M6 M_S/(3 |Delta|),
      f2 within 75u, M = 12 (M4 M_S)^2/|Delta|,
      f3 within 76u, M = 8 M6 M_S^3/|Delta|.
    Under wp >= prec + 8 each is below 2^(13/2) u = 2^(8 - wp) <= 2^-prec
    times M, unrounded: `_mpc` rounds a value to prec once, where it leaves
    the library.
    """
    s_val, e4, e6, delta = values
    if i == 0:
        num, den = _scaled(_mul(_mul(e4, e4, wp), e4, wp), 1728), delta
    elif i == 1:
        num, den = _scaled(_mul(_mul(e4, e6, wp), s_val, wp), -2), _scaled(delta, 3)
    elif i == 2:
        e4s = _mul(e4, s_val, wp)
        num, den = _scaled(_mul(e4s, e4s, wp), 12), delta
    else:
        num, den = _scaled(_mul(_mul(_mul(s_val, s_val, wp), s_val, wp), e6, wp), -8), delta
    return _div(num, den, wp)


def _theta_core(p: Precision, form: QuadForm, cell: tuple[int, int, int], indices):
    """The torsion-value functions numbered in indices (0 standing for j)
    at the upper half plane root tau0 of a positive definite integral form
    and z = x*tau0 + y, cell (k, m, n) = (xn, yn, n), from Jacobi theta
    series in the nome q = e^(i pi tau0), with w = e^(2 pi i z), 1/w and
    b = q/w, exact values from `_exact_nome`, with the float logs of q and w.
    A form with a <= 0 or d >= 0 has no such root and raises `QFieldError`,
    as in `forms.reduce`: the one gate of every theta entry.

    With p = sum q^(n(n+1)) (so theta2 = 2 q^(1/4) p), theta3, theta4 and
    t_k = theta_k^4: E4 = (t2^2 + t3^2 + t4^2)/2,
    E6 = (t3 + t4)(t2 + t3)(t4 - t2)/2 and Delta = E4^3 - E6^2 =
    27/4 (t2 t3 t4)^2, a product with no cancellation.
    theta1(pi z) = -i q^(1/4) w^(1/2) (G(w) - G(1/w)/w) and
    theta2(pi z) = q^(1/4) w^(1/2) (G~(w) + G~(1/w)/w) for
    G(u) = sum (-1)^n q^(n(n+1)) u^n and G~(u) = sum q^(n(n+1)) u^n.  With
    pe(z) = e1 + pi^2 (theta3 theta4 theta2(pi z)/theta1(pi z))^2 and
    e1 = pi^2 (t3 + t4)/3 (DLMF 23.6.2 and 23.6.5, 2 omega1 = 1), the
    factors q^(1/4) w^(1/2) cancel from the q-series route's
    S = -pe/(4 pi^2) = (theta3 theta4 num/den)^2/4 - (t3 + t4)/12, with
    num = G~(w) + G~(1/w)/w and den = G(w) - G(1/w)/w.  S reads theta2
    (even) and theta1 (odd) squared, so it is even in z: `_exact_nome`
    negates a cell with x < 0, and |w| <= 1 for x in [0, 1/2].
    `_theta_sums` takes w as its a, and b, and returns from one pass the
    three theta-constant sums and the even and odd halves of G~ at w and
    at 1/w (G is the same halves with the odd one negated), each cut where
    `_theta_terms` bounds its tail below `_cutoff`,
    2^-bitlen(10^(digits + 20)), the q-series route's own.  `_theta_values`
    forms S, E4, E6 and Delta from the sums on ints, `_torsion_exact` each
    requested value from those, and each is returned as it is formed, an
    exact value at wp bits, unrounded.
    """
    if form.a <= 0 or form.disc() >= 0:
        raise QFieldError(f"cannot evaluate at indefinite or negative form {form}")
    prec = _prec(p)
    q, w, winv, b, lq, lw = _exact_nome(prec, form, cell)
    wp, sums = _theta_sums(prec, q, lq, _cutoff(p), w, b, lw)
    values = _theta_values(wp, sums, q, winv)
    return tuple(_torsion_exact(wp, i, values) for i in indices)


def _cos_sin_pi(num: int, den: int, prec: int):
    """e^(i pi num/den) for den > 0 as an exact value (re, im, -prec), each
    part within 2^(2 - prec): a closed form where the folded angle is a
    multiple of pi/12, else one `_exp_series` at an angle in [0, pi/4].

    The fold is exact on ints: num/den is taken mod 2, then
    t -> 2 - t (sin changes sign) brings it into [0, 1], t -> 1 - t (cos
    changes sign) into [0, 1/2] and t -> 1/2 - t (cos and sin trade places)
    into [0, 1/4], where the series' sine, a square root, is nonnegative.
    Where 12t is an integer the parts lie in Q(zeta_24) = Q(i, sqrt 2,
    sqrt 3), and no pi is taken and no series runs: (1, 0) at t = 0,
    (sqrt 3/2, 1/2) at 1/6 and (sqrt 2/2, sqrt 2/2) at 1/4, each part the
    isqrt of 4 cos^2 (4 sin^2) times 2^(2 prec - 2), floored, within a
    unit of 2^-prec (exact for 1 and 1/2); at 1/12,
    ((sqrt 6 + sqrt 2)/4, (sqrt 6 - sqrt 2)/4) from the isqrts of 6 and 2
    times 2^(2 prec), each within a unit, quartered and floored, within
    1.5 units.  At any other angle pi t is floored at scale 2^prec from pi
    at prec + 2 bits, within 1.25 units of 2^-prec, and the series adds
    1.1 units to each part."""
    num %= 2 * den
    flip = num > den
    if flip:
        num = 2 * den - num
    neg = 2 * num > den
    if neg:
        num = den - num
    swap = 4 * num > den
    if swap:
        num, den = den - 2 * num, 2 * den
    j, rest = divmod(12 * num, den)
    if rest:
        c, s = _exp_series(_constant("pi", prec + 2) * num // (den << 2), prec, True)
    elif j == 1:
        r6, r2 = math.isqrt(6 << 2 * prec), math.isqrt(2 << 2 * prec)
        c, s = (r6 + r2) >> 2, (r6 - r2) >> 2
    else:
        # 4 cos^2 at t = 0, 1/6, 1/4, and 4 sin^2 is the rest of 4
        c2 = {0: 4, 2: 3, 3: 2}[j]
        c, s = math.isqrt(c2 << 2 * prec - 2), math.isqrt((4 - c2) << 2 * prec - 2)
    if swap:
        c, s = s, c
    return -c if neg else c, -s if flip else s, -prec


def _exact_nome(prec: int, form: QuadForm, cell: tuple[int, int, int]):
    """(q, w, 1/w, q/w, lq, lw) for `_theta_core` at the root tau0 of the
    form (a, b, c) and the cell (k, m, n) of `_exact_cell`, negated when
    k < 0: the four as exact values (re, im, e), with the float logs of |q|
    and |w|, from ints alone: no complex exponential, no complex division
    and no Fraction.

    With L = pi Im tau0 = -log|q| and R = e^(-L/n), |q| = R^n, |w| = R^(2k)
    and |1/w| = 1/R^(2k) (0 <= 2k <= n), each power by binary powering,
    and the phases go to `_cos_sin_pi` as integer pairs:
    q / |q| = e^(i pi (-b)/(2a)) and w / |w| = e^(i pi (2ma - kb)/(an)),
    as 2(k Re tau0 + m)/n.  A phase at a multiple of pi/12 takes its closed
    form of square roots and any other its series; both are within the
    same 2^(2 - wp) per part, so the bound below holds for either.  Each
    of q and w is its radius times its phase by `_mul`; 1/w takes the
    conjugate of w's phase, and q/w is q times 1/w, so at the j cell
    (0, 1, 2), where 1/w = -1 exactly, q/w = -q exactly.  One gcd puts (Im tau0)^2 = |d|/(4a^2) in lowest terms u/v,
    and v Im tau0 = sqrt(uv) is `math.isqrt` of uv at wp fraction bits,
    exact when Im tau0 is rational.
    Error bound: with e = 2^(1 - wp) at wp = prec + g bits, the isqrt floor
    is within a relative e/2 of v Im tau0, as uv >= 1, and pi (`_constant`)
    within 3 units, a relative e/2; L/n = pi sqrt(uv)/(vn), floored at scale
    2^wp, is within (L/n) e + e/2, and `_exp` adds a relative e/2, so R is
    within (L/n + 1) e.  Its j-th power for j <= n takes at most
    2 bitlen(j) products, each cut by `_norm` by under a relative
    2^(3/2 - wp) < e, so it is within (L + 3n) e; `_div`'s reciprocal adds
    e/2.  Each phase part is within 2e, so each phase within
    2 sqrt(2) e < 3e, and each product's cut adds under e.  So, to first
    order, q and w are within (L + 3n + 4) e of their modulus and 1/w
    within (L + 3n + 5) e; q/w, their product and one cut, within
    (2L + 6n + 10) e.  With A = isqrt(u // v) + 1 > Im tau0, so L < 3.25A,
    that is below 6.5A + 6n + 10 < 16A (n + 5) < 2^(g - 4) for the guard
    g = bitlen(A) + bitlen(n + 5) + 8, so each of the four, never rounded
    to prec, is within 2^(-3 - prec) of its modulus.
    The float log lq = -L, infinite from Im tau0 near 5.7e307 on, is floored
    at -1e300: each log in `_theta_terms` is lq times a nonnegative
    polynomial in n, so the floor only enlarges the tail bounds.
    """
    a, b = form.a, form.b
    k, m, n = cell
    if k < 0:
        k, m = -k, -m
    g = math.gcd(form.disc(), 4 * a * a)
    u, v = -form.disc() // g, 4 * a * a // g
    wp = prec + (math.isqrt(u // v) + 1).bit_length() + (n + 5).bit_length() + 8
    scaled = math.isqrt(u * v << 2 * wp)  # v Im tau0 at scale 2^wp
    root = _exp(-(_constant("pi", wp) * scaled // (v * n << wp)), wp)

    def radius(j):
        power, out = (root[0], 0, root[1]), (1, 0, 0)
        while j:
            if j & 1:
                out = _mul(out, power, wp)
            j >>= 1
            if j:
                power = _mul(power, power, wp)
        return out

    q = _mul(radius(n), _cos_sin_pi(-b, 2 * a, wp), wp)
    cw, sw, ew = _cos_sin_pi(2 * m * a - k * b, a * n, wp)
    rw = radius(2 * k)
    winv = _mul(_div((1, 0, 0), rw, wp), (cw, -sw, ew), wp)
    # a float Im tau0 overflows from about 1.8e308 on
    big = scaled.bit_length() - (v << wp).bit_length() > 1000
    lq = -1e300 if big else max(-math.pi * (scaled / (v << wp)), -1e300)
    return q, _mul(rw, (cw, sw, ew), wp), winv, _mul(q, winv, wp), lq, 2 * (k / n) * lq


def _reduce_tau(form: QuadForm):
    """(red, g) with red == act(form, g), so t = g(t0) for the roots t of
    the positive definite form and t0 of red, and red = (a, b, c) in the
    closed fundamental domain |b| <= a <= c, in rounds of a translation by
    k, the nearest integer to -b/(2a) (ties to even), and a flip to
    (c, -b, a) while a > c.  Every round but the last flips, with |b| <= a
    as in `forms.reduce`, so the rounds keep its cap (`_reduce_cap`);
    needing more is a bug.  It stays apart from `forms.reduce`, the theta
    route's reduction: a wrong witness there moves only the theta route's
    values, which the route check alone compares with this route's."""
    a, b, c = form
    g = IDENT
    for _ in range(_reduce_cap(form)):
        k, rest = divmod(a - b, 2 * a)
        if k & 1 and not rest:
            k -= 1
        if k:
            b, c = b + 2 * a * k, (a * k + b) * k + c
            g = g @ t_power(k)
        if a > c:
            a, b, c = c, -b, a
            g = g @ S_FLIP
        else:
            return QuadForm(a, b, c), g
    raise InternalCheckError("fundamental domain reduction did not terminate")


def _torsion_value(i: int, values):
    """Torsion-value function number i from the q-series route's
    (S, E4, E6, Delta), i = 0 standing for j, as an exact value on the
    route's own ints: S, E4 and E6 are pairs at one scale 2^wp, multiplied
    by `_qseries_mul`, and the quotient by c Delta, an exact value times a
    constant, is floored on ints to at least wp bits, unrounded, as the
    theta route's values are: the route check compares the two routes'
    exact values, and `_mpc` rounds once, where a value leaves the library.
    The pi powers cancel by construction.  The theta route
    forms its values with its own helpers (`_torsion_exact`), so the route
    check compares this step too.  A zero Delta, the one value with no
    finite quotient, raises."""
    (sr, si, e), (e4r, e4i, _), (e6r, e6i, _), (dr, di, de) = values
    wp, s_val, e4, e6 = -e, (sr, si), (e4r, e4i), (e6r, e6i)

    def mul(x, y):
        return _qseries_mul(x, y, wp)

    if i == 0:
        c, num, d = 1728, mul(mul(e4, e4), e4), 1
    elif i == 1:
        c, num, d = -2, mul(mul(e4, e6), s_val), 3
    elif i == 2:
        e4s = mul(e4, s_val)
        c, num, d = 12, mul(e4s, e4s), 1
    else:
        c, num, d = -8, mul(mul(mul(s_val, s_val), s_val), e6), 1
    norm = d * (dr * dr + di * di)
    if not norm:
        raise InternalCheckError("non-finite value escaped a series evaluation")
    xr, xi = c * (num[0] * dr + num[1] * di), c * (num[1] * dr - num[0] * di)
    k = max(0, wp + norm.bit_length() - max(abs(xr), abs(xi)).bit_length())
    return (xr << k) // norm, (xi << k) // norm, -wp - de - k


def _exact_cell(r: int, s: int, level: int, g: UnimodMatrix) -> tuple[int, int, int]:
    """The row (r/level, s/level) pushed through g, row * g, as the cell
    (k, m, n): x = k/n and y = m/n over their least common denominator,
    each taken mod 2 and less its nearest integer, a half rounded to even
    as by `round`: +1/2 over an even floor, -1/2 over an odd one, which
    decides the sign `_exact_nome`'s negation gives y.  Every row comes
    from a `FrickeLabel` or a descriptor, never integral, and a unimodular
    push keeps it so: an integral row is a fault."""
    r1, r2 = r * g.p + s * g.r, r * g.q + s * g.s
    d = math.gcd(r1, r2, level)
    n = level // d
    if n == 1:
        raise InternalCheckError("row is integral: the point sits on the lattice")
    k, m = (t // d % (2 * n) for t in (r1, r2))
    return k - n * ((2 * k > n) + (2 * k >= 3 * n)), m - n * ((2 * m > n) + (2 * m >= 3 * n)), n


def eisenstein_j(form: QuadForm, p: Precision = Precision()):
    """The j-invariant of [tau, 1] at the root tau of a positive definite
    form: the theta core at z = 1/2 and the form reduced, as an mpc."""
    return _mpc(p, _theta_core(p, reduce(form)[0], (0, 1, 2), (0,))[0])


def _reduced_values(p: Precision, form: QuadForm, row: tuple[int, int, int], indices):
    """The theta core's exact values at indices (0 standing for j) with the
    row (r, s, level), at the reduced form red, with form == act(red, g) by
    `forms.reduce`, and the row pushed through g^-1: the theta route's one
    reduced entry, read by `fricke`, `_eval_descriptor` and `verify`'s
    power check."""
    red, g = reduce(form)
    return _theta_core(p, red, _exact_cell(*row, g.inv()), indices)


def _qseries_values(p: Precision, form: QuadForm, row: tuple[int, int, int], indices):
    """The q-series route's exact values, unrounded, at indices (0 standing
    for j) with the row (r, s, level) at the root of the form: the form
    reduced by `_reduce_tau` to (red, g), the row pushed through g, and
    tau0 = (x, y, -W) the root of red = (a, b, c), -b/(2a) and sqrt|d|/(2a)
    floored at scale 2^W, within 1 and 1.5 units of 2^-W, 1.81 in all: the
    route's one entry, as `_reduced_values` is the theta route's, read by
    `eval_descriptor_unreduced` and by `verify`'s route check at the power
    samples.  So q and w take a further relative error below
    2 pi 1.81 2^-W < 2^-(prec + 8) at W = prec + 12, under the route
    residuals of the pinned `verify` runs, 2^-(prec + 3) to 2^-(prec + 6):
    at W = prec + 4 they grew up to 17 times."""
    red, g = _reduce_tau(form)
    w = _prec(p) + 12
    tau0 = (-red.b << w) // (2 * red.a), math.isqrt(-red.disc() << 2 * w) // (2 * red.a), -w
    values = _qseries_core(p, tau0, _exact_cell(*row, g))
    return tuple(_torsion_value(i, values) for i in indices)


def _value_key(desc: GaloisDescriptor):
    """(red, (k, m, n)): `eval_descriptor`'s exact input up to the moves
    that keep its value, so two descriptors of one field with one key have
    one value at every index, decided with no series.

    `eval_descriptor` reduces (red, g) = `forms.reduce(eval_point())` and
    takes the cell (k, m, n) of the row [0, a_inv/N] pushed through g^-1,
    z = (k tau0 + m)/n at the root tau0 of red.  The cell enters the value
    through S alone, and each step below moves it and keeps S:
    - the automorphs h of red fix tau0, so by the transformation law
      f_r(h tau0) = f_(r h)(tau0) the row pushed through g^-1 h gives the
      same value: these are the cells of every witness of form == act(red, .).
      -1 is an automorph of every form, and its move (k, m) -> (-k, -m)
      is S's evenness in z;
    - S is periodic on the lattice [tau0, 1], so only k and m mod n count.
    The key is red and the least cell so normalized over the automorphs.
    """
    red, g = reduce(desc.eval_point())
    level, ginv = desc.eval_matrix[1][1], g.inv()
    cells = (_exact_cell(0, desc.a_inv, level, ginv @ h) for h in automorphs(red))
    return red, min((k % n, m % n, n) for k, m, n in cells)


def _fricke_at(label: FrickeLabel, form: QuadForm, p: Precision):
    """The indexed torsion-value function's exact value at the root tau of
    the form itself, with no domain reduction.  The theta series reach any
    point of the upper half plane, with more terms as Im tau falls;
    `_theta_core` refuses a form that is not positive definite.  Two such
    values, at g(tau), the root of act(form, g^-1), with a row and at tau
    with row*g, never share an input, so comparing them tests the
    transformation law that `fricke`'s reduction relies on."""
    cell = _exact_cell(label.r, label.s, label.level, IDENT)
    return _theta_core(p, form, cell, (label.i,))[0]


def fricke(label: FrickeLabel, form: QuadForm, p: Precision = Precision()):
    """The indexed torsion-value function on the theta route at the root of
    a positive definite form, the form reduced and its row pushed by
    `_reduced_values`, as an mpc."""
    return _mpc(p, _reduced_values(p, form, label[1:], (label.i,))[0])


def weber_index(d: int) -> int:
    """Exponent attached to the unit group of the fundamental discriminant
    d: half its order, 6 units at d = -3, 4 at -4 and 2 (+-1) elsewhere."""
    return {-3: 3, -4: 2}.get(d, 1)


def descriptor_label(desc: GaloisDescriptor, i=None) -> FrickeLabel:
    """The label (i, [0, a_inv/N]) of a descriptor's value, i None standing
    for `weber_index` of the base point's discriminant, dK."""
    i = weber_index(desc.point.disc()) if i is None else i
    return FrickeLabel(i, 0, desc.a_inv, desc.eval_matrix[1][1])


def _eval_descriptor(desc: GaloisDescriptor, i, p: Precision):
    """`eval_descriptor`'s exact value: `_reduced_values` at the
    descriptor's point and label."""
    label = descriptor_label(desc, i)
    return _reduced_values(p, desc.eval_point(), label[1:], (label.i,))[0]


def eval_descriptor(desc: GaloisDescriptor, i=None, p: Precision = Precision()):
    """Numeric value attached to a descriptor, as an mpc: `fricke` with
    twisted row [0, a_inv/N] at the matrix image z = `eval_point()` of the
    base point, the upper-half-plane root of that primitive integral form,
    so z is reduced exactly in K.

    i is an index 1, 2 or 3, or None for half the unit group order, the
    index for which this value is a class invariant.
    """
    return _mpc(p, _eval_descriptor(desc, i, p))


def _totient(n: int) -> int:
    """Euler's phi(n) for n >= 1, from n's factorization by trial division."""
    phi, d = n, 2
    while d * d <= n:
        if n % d == 0:
            phi -= phi // d
            while n % d == 0:
                n //= d
        d += 1
    return phi - phi // n if n > 1 else phi


def _eval_descriptor_unreduced(desc: GaloisDescriptor, p: Precision):
    """`eval_descriptor_unreduced`'s exact value, `_qseries_values` at the
    descriptor's point with the row (0, a^(phi(N)-1), N), its numerator as
    the product-ideal basis hands it over: the point's form reduced by the
    route's own rounds, and the q-series.  The product-ideal matrix is the
    evaluation matrix scaled by a, the same Moebius map, so both routes
    start from one point of K; their independence lies in the reduction,
    the row and the series.  The route sums, reduces and combines its four
    values on its own ints (`_torsion_value`), so no arithmetic is shared
    with the theta route.  Agreement with `_eval_descriptor` is a checkable
    identity, not a private shortcut; keep the two code paths separate.

    The numerator is taken mod 2N: `_exact_cell` reads the pushed row
    (0, s) g = (s g.r, s g.s) only through d = gcd(s, N) and the two
    entries over d mod 2N/d, and s + 2Nt has the same d and moves each
    entry over d by a multiple of 2N/d.
    """
    label = descriptor_label(desc)
    row = (0, pow(desc.point.a, _totient(label.level) - 1, 2 * label.level), label.level)
    return _qseries_values(p, desc.eval_point(), row, (label.i,))[0]


def eval_descriptor_unreduced(desc: GaloisDescriptor, p: Precision = Precision()):
    """Same value along the unreduced route, as an mpc: see
    `_eval_descriptor_unreduced`."""
    return _mpc(p, _eval_descriptor_unreduced(desc, p))


def complex_to_json(value, p: Precision = Precision()) -> dict:
    """Each part to p.digits digits, or 0.0 below the noise floor
    10^-digits max(1, |value|).

    A theta-route value is a constant times a product of powers of S, E4,
    E6 and 1/Delta, formed on ints by `_torsion_exact` within one written
    bound, 2^-prec of its magnitude M (the constant times its factors'
    magnitudes over |Delta|), exact inside the library and rounded to prec
    once, in `_mpc`, prec being digits + 10 digits.  So a value is within about
    10^-(digits + 9) |value| unless a factor is small against its
    magnitude, which happens where it vanishes: S, whose magnitude
    (k + k~) |A| + (|t3| + |t4|)/12 counts both of its terms, where A and
    (t3 + t4)/12 cancel at a torsion point fixed by a unit of dK = -3 or -4
    (the value 0 of dK=-3 `1,2,3` class (1,1,1) and dK=-4 `1,1,2` class
    (1,0,1)), E4 at rho, E6 at i.  There the factor comes out near
    10^-(digits + 10) times a magnitude of order 1, so the value stays
    below 10^-digits and prints as 0.0 in both parts.
    """
    ctx = _ctx(p)
    v = ctx.mpc(value)
    noise = max(ctx.one, abs(v)) * ctx.mpf(10) ** -p.digits
    return {
        key: ctx.nstr(part if abs(part) >= noise else ctx.zero, p.digits, strip_zeros=False)
        for key, part in (("re", v.real), ("im", v.imag))
    }


def _startup_check():
    """j(i) = 1728 and j(rho) = 0 within 10^-25 at 30 digits, at the roots
    of the reduced forms (1, 0, 1) and (1, 1, 1), compared exactly on ints."""
    p = Precision(30)
    for form, point, want in ((QuadForm(1, 0, 1), "i", 1728), (QuadForm(1, 1, 1), "rho", 0)):
        re, im, e = _theta_core(p, form, (0, 1, 2), (0,))[0]
        s = max(0, -e)
        dr, di = (re << e + s) - (want << s), im << e + s
        if (dr * dr + di * di) * 10**50 > 1 << 2 * s:
            value = f"{math.ldexp(re, e)} + {math.ldexp(im, e)}i"
            raise InternalCheckError(f"normalization self-test failed: j({point}) = {value}")


_startup_check()

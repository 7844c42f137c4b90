"""The property suite of one modulus behind `rayform verify`: exact checks of
the class group, numeric checks of the modular identities, the exact
identity-class and invariance checks of the descriptors, and the numeric
route check.  All random samples come from one generator, seeded 911 by
`run_checks` itself, in a fixed order, so the report is reproducible byte
for byte.  The numeric checks read the routes' exact values (re, im, e) =
(re + i im) 2^e, unrounded as each core formed them (a value is rounded
once, in `modular._mpc`, where it leaves the library, and no check reads
one), and decide on ints: each residual is kept as its exact square, a
pair of ints, and only the worst is printed, through one Fraction."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import modular
from .forms import QuadForm, UnimodMatrix, act
from .qfield import IdealTriple, QFieldError, _egcd
from .rayclass import (
    _class_index,
    class_key,
    class_translate,
    compose,
    descriptor,
    equivalent,
    group_table,
    ideal_keys,
    point_coords,
)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def sci(x) -> str:
    """x >= 0 as f"{x:.3e}" prints it, but exact: no float range to underflow."""
    x = Fraction(str(x))
    if x == 0:
        return "0.000e+00"
    e = len(str(x.numerator)) - len(str(x.denominator))
    if x < Fraction(10) ** e:
        e -= 1
    m = round(x / Fraction(10) ** e * 1000)
    if m == 10000:
        m, e = 1000, e + 1
    return f"{m // 1000}.{m % 1000:03d}e{e:+03d}"


def _translates(form, mod, rng, want: int) -> list[QuadForm]:
    out = []
    while len(out) < want:
        moved = class_translate(form, mod, rng.randrange(-6, 7), rng.randrange(-4, 5))
        if moved is not None:
            out.append(moved)
    return out


def _random_row(rng) -> tuple[int, int, int]:
    level = rng.randrange(2, 8)
    return rng.randrange(level), rng.randrange(1, level), level


def _random_form(rng) -> QuadForm:
    """A random primitive form (a, b, c) with a of 16 bits whose root tau
    lies in the strip |Re tau| <= 1/2, 0.4 <= Im tau <= 1.4: |b| <= a, as
    Re tau = -b/(2a), and c within (Im tau)^2 = (4ac - b^2)/(4a^2) from
    0.16 to 1.96.  So |d| >= 0.64 a^2 > 4, and the form has only the
    automorphs +-1."""
    while True:
        a = rng.randrange(1 << 15, 1 << 16)
        b = rng.randrange(-a, a + 1)
        lo = -(-(16 * a * a + 25 * b * b) // (100 * a))
        form = QuadForm(a, b, rng.randrange(lo, (196 * a * a + 25 * b * b) // (100 * a) + 1))
        if form.content() == 1:
            return form


def _diff(x, y):
    """x - y for exact values (re, im, e), exactly, on the lower exponent."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    e = min(xe, ye)
    return (xr << xe - e) - (yr << ye - e), (xi << xe - e) - (yi << ye - e), e


def _prod(x, y, c: int = 1):
    """c x y for exact values x and y and an int c, exactly."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    return c * (xr * yr - xi * yi), c * (xr * yi + xi * yr), xe + ye


def _square(num, den=(1, 0, 0)):
    """The residual |num|/|den| of two exact values, squared, as a pair of
    ints (n, d) with n/d = |num|^2/|den|^2, exactly."""
    (nr, ni, ne), (dr, di, de) = num, den
    n, d, s = nr * nr + ni * ni, dr * dr + di * di, 2 * (ne - de)
    return (n << s, d) if s >= 0 else (n, d << -s)


def _root(square) -> Fraction:
    """The residual whose square is the pair (n, d), as a Fraction within a
    relative 2^-78 of sqrt(n/d), far below the 4 digits `sci` prints."""
    n, d = square
    k = max(0, (d.bit_length() - n.bit_length()) // 2) + 80
    return Fraction(math.isqrt((n << 2 * k) // d), 1 << k)


def _power_samples(p, rng, samples: int):
    """(form, row, (j, f1, f2, f3)) at `samples` random forms and rows, the
    exact values from the theta route's one reduced entry."""
    drawn = [(_random_form(rng), _random_row(rng)) for _ in range(samples)]
    return [(f, row, modular._reduced_values(p, f, row, range(4))) for f, row in drawn]


def _power_residuals(drawn):
    """Both reduce to Delta = E4^3 - E6^2, where S is only a scale factor:
    they test Jacobi's identity among the theta constants, not S.  Each is
    cross-multiplied, |f2 (j - 1728) - 46656 f1^2|/|j - 1728| and
    |f3 j (j - 1728) - 80621568 f1^3|/|j (j - 1728)|, with no quotient
    taken; samples with |j| or |j - 1728| below 10^-5 are skipped."""
    for _, _, (jv, f1, f2, f3) in drawn:
        shifted = _diff(jv, (1728, 0, 0))
        if any(n * 10**10 < d for n, d in (_square(jv), _square(shifted))):
            continue
        yield _square(_diff(_prod(f2, shifted), _prod(f1, f1, 46656)), shifted)
        both = _prod(jv, shifted)
        yield _square(_diff(_prod(f3, both), _prod(_prod(f1, f1), f1, 80621568)), both)


def _law_matrix(rng):
    """A unimodular g with g.r != 0: a pure translation would move tau and
    the row to the same exact input on both sides of the law."""
    while True:
        r, s = rng.randrange(-2, 3), rng.randrange(-2, 3)
        g, p, q = _egcd(s, r)
        if r and g == 1:
            return UnimodMatrix(p, -q, r, s)


def _law_residuals(p, rng, samples: int):
    """f(g(tau); row) against f(tau; row*g), each evaluated where it is: the
    reduced `fricke` would carry both sides to one point of the fundamental
    domain and compare a value with itself.  tau is the root of a random
    form and g(tau) the root of act(form, g^-1), so both sides are exact
    inputs, and their exact values, unrounded, differ by the two theta
    sums' errors: a residual is not 0 unless the two agree to every bit."""
    for _ in range(samples):
        form = _random_form(rng)
        r, s, level = _random_row(rng)
        g = _law_matrix(rng)
        label = modular.FrickeLabel(1, r, s, level)
        moved = modular.FrickeLabel(1, r * g.p + s * g.r, r * g.q + s * g.s, level)
        yield _square(_diff(modular._fricke_at(label, act(form, g.inv()), p), modular._fricke_at(moved, form, p)))


def _relative(a, b):
    """|a - b|^2/max(1, |a|^2) for exact values a and b, as a pair of ints:
    a value reaches about 10^(1.36 sqrt|dK|) and carries only its relative
    precision, so past 1 its difference is read against its size."""
    n, d = _square(a)
    return _square(_diff(a, b), a if n > d else (1, 0, 0))


def _route_residuals(descs, drawn, p):
    """Each descriptor's value on both routes, then each power sample's f1
    against the q-series route's at its form and row, relative to the theta
    value: the samples' random points test the routes away from the one
    tau to which every descriptor point of dK = -3 or -4 reduces."""
    for d in descs:
        yield _relative(modular._eval_descriptor(d, None, p), modular._eval_descriptor_unreduced(d, p))
    for form, row, values in drawn:
        yield _relative(values[1], modular._qseries_values(p, form, row, (1,))[0])


def run_checks(mod: IdealTriple, p, tol_exp: int) -> list[Check]:
    """The seven checks of `rayform verify`, in order, every draw from
    Random(911).  The power relations and the transformation law each draw
    5 random forms and pass at an absolute 10^-tol_exp; the class checks
    cover every class.  Invariance is decided exactly, with no series: each
    translate of the route check must reach its representative's
    `modular._value_key`, the reduced point and cell its value is computed
    from.  Of the numeric checks only the route check reads the q-series,
    at every class and at the power samples, so it alone sees a fault in S
    on the theta route: the law compares the theta route with itself.  It
    passes at a relative 10^-max(tol_exp, digits): the tolerance only
    tightens it, and at the default tol_exp = digits/2 it is at least as
    tight as an absolute 10^-tol_exp wherever |value| < 10^(digits/2)."""
    if not 1 <= tol_exp <= modular.MAX_DIGITS:
        raise QFieldError(f"tolerance exponent must be from 1 to {modular.MAX_DIGITS}, got {tol_exp}")
    rng, samples = random.Random(911), 5
    disc, group = mod.disc, group_table(mod)
    reps = [fc.rep for fc in group.classes]
    h, checks = len(reps), []

    def record(name: str, passed: bool, detail: str):
        checks.append(Check(name, passed, detail))

    def numeric(name: str, residuals, gate: int = tol_exp):
        worst = 0, 1
        for n, d in residuals:
            if n * worst[1] > worst[0] * d:
                worst = n, d
        passed = worst[0] * 10 ** (2 * gate) <= worst[1]
        record(name, passed, f"worst residual {sci(_root(worst))}")

    # the representatives and two translates each fall into h blocks under
    # the class key, under the ideal key and under both, and the witness
    # search and the one ideal_keys call both join each translate pair
    moved = [(i, m) for i, rep in enumerate(reps) for m in _translates(rep, mod, rng, 2)]
    forms = reps + [m for _, m in moved]
    keys = [fc.key for fc in group.classes] + [class_key(m, mod) for _, m in moved]
    labels = ideal_keys(forms, mod)
    blocks = [len(set(keys)), len(set(labels)), len(set(zip(keys, labels)))]
    agree = sum(
        equivalent(reps[i], m, mod) is not None and labels[i] == labels[h + k]
        for k, (i, m) in enumerate(moved)
    )
    passed = blocks == [h] * 3 and agree == len(moved)
    detail = f"{len(forms)} forms in {blocks[0]} classes by class key, {blocks[1]} by ideal key,"
    detail += f" {blocks[2]} by both; {agree}/{len(moved)} translate pairs agree"
    record("witness equivalence vs ideal route", passed, detail)

    # the full representative path of `compose` (lift and act) against the
    # table, whose cells `group_table` keys from the product form and the
    # correcting row alone: the one place where the two meet
    stable = 0
    for _ in range(10):
        i = rng.randrange(h)
        j = rng.randrange(h)
        moved_i = _translates(reps[i], mod, rng, 1)[0]
        moved_j = _translates(reps[j], mod, rng, 1)[0]
        stable += _class_index(compose(moved_i, moved_j, mod), group) == group.table[i][j]
    detail = f"{stable}/10 translate trials match the table"
    record("composition is class-level well-defined", stable == 10, detail)

    drawn = _power_samples(p, rng, samples)
    numeric("power relations between the three indexed values", _power_residuals(drawn))
    numeric("row transformation law", _law_residuals(p, rng, samples))

    # the unit-normalized value of the modulus lattice is the value at
    # xi = (a1/N)*tau + a2/N with row (0, 1/N), so the identity class carries
    # it exactly when its descriptor has a_inv = 1 and sends the point to xi
    # mod Z: the same tau coordinate, and constant terms an integer apart
    xu, xv = Fraction(mod.a1, mod.c), Fraction(mod.a2, mod.c)
    unit = descriptor(QuadForm(1, disc.b0, disc.c0), mod)
    zu, zv = point_coords(unit.eval_point(), disc)
    at_xi = unit.a_inv == 1 and zu == xu and (zv - xv).denominator == 1
    detail = f"a_inv {unit.a_inv}, point - xi = ({zu - xu})*tau + ({zv - xv})"
    detail += f" at xi = ({xu})*tau + ({xv})"
    record("identity-class descriptor sends the point to xi mod Z", at_xi, detail)

    # the route check's translates against their representatives on the
    # exact input of the value: the reduced point and the normalized cell
    descs = [descriptor(rep, mod) for rep in reps]
    rep_keys = [modular._value_key(d) for d in descs]
    same = sum(modular._value_key(descriptor(m, mod)) == rep_keys[i] for i, m in moved)
    detail = f"{same}/{len(moved)} translates reach the representative's reduced point and cell"
    record("descriptor value constant on classes", same == len(moved), detail)
    numeric("descriptor route vs unreduced route", _route_residuals(descs, drawn, p), max(tol_exp, p.digits))
    return checks

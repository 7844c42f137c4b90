"""The property suite of one modulus behind `rayform verify`: exact checks of
the class group, then numeric checks of the modular identities.  All random
samples come from the caller's generator in a fixed order, so a seeded
generator makes the report reproducible byte for byte."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import modular
from .forms import QuadForm, UnimodMatrix
from .qfield import QFieldError, _egcd, ray_class_number_oracle
from .rayclass import (
    Modulus,
    _class_index,
    class_key,
    class_translate,
    compose,
    descriptor,
    equivalent,
    equivalent_oracle,
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


def _power_residuals(p, rng, samples: int):
    for _ in range(samples):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.4))
        label = modular.FrickeLabel(1, *_random_row(rng))
        jv, f1, f2, f3 = modular._power_values(label, tau, p)
        if abs(jv) < 1e-5 or abs(jv - 1728) < 1e-5:
            continue
        yield abs(f2 - 46656 * f1**2 / (jv - 1728))
        yield abs(f3 - 80621568 * f1**3 / (jv * (jv - 1728)))


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
    domain and compare a value with itself."""
    hp = modular._ctx(p)
    for _ in range(samples):
        tau = hp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.4))
        r, s, level = _random_row(rng)
        g = _law_matrix(rng)
        label = modular.FrickeLabel(1, r, s, level)
        moved = modular.FrickeLabel(1, r * g.p + s * g.r, r * g.q + s * g.s, level)
        num = (g.p * tau + g.q) / (g.r * tau + g.s)
        yield abs(modular._fricke_at(label, num, p) - modular._fricke_at(moved, tau, p))


def _invariance_residuals(mod, reps, values, p, rng):
    """Each representative's `eval_descriptor` value against `fricke` at the
    embedded, numerically reduced point of two translates.  With the exact
    reduction on both sides, most translates reach the representative's
    reduced form and cell, and the check would compare a value with itself."""
    ctx = modular._ctx(p)
    for rep, base in zip(reps, values):
        for moved in _translates(rep, mod, rng, 2):
            d = descriptor(moved, mod)
            point = modular._embed(ctx, d.eval_point(), mod.disc)
            yield abs(base - modular.fricke(modular.descriptor_label(d), point, p))


def _route_residuals(descs, values, p):
    for d, value in zip(descs, values):
        yield abs(value - modular.eval_descriptor_unreduced(d, None, p))


def run_checks(mod: Modulus, p, tol_exp: int, rng, samples: int = 5) -> list[Check]:
    """The eight checks of `rayform verify`, in order.  The power relations
    and the transformation law each draw `samples` >= 1 random points; the
    class checks cover every class."""
    if tol_exp < 1:
        raise QFieldError(f"tolerance exponent must be at least 1, got {tol_exp}")
    if samples < 1:
        raise QFieldError(f"sample count must be at least 1, got {samples}")
    tol = Fraction(10) ** -tol_exp
    disc, group = mod.disc, group_table(mod)
    reps = [fc.rep for fc in group.classes]
    checks = []

    def record(name: str, passed: bool, detail: str):
        checks.append(Check(name, passed, detail))

    def numeric(name: str, residuals):
        worst = max((Fraction(str(r)) for r in residuals), default=Fraction(0))
        record(name, worst <= tol, f"worst residual {sci(worst)}")

    h, oracle = len(reps), ray_class_number_oracle(disc, mod.ideal)
    record("class count vs ideal-theoretic oracle", h == oracle, f"{h} classes, oracle {oracle}")

    # the representatives and two translates each fall into h blocks under
    # the class key, under the ideal key and under both
    moved = [(rep, m) for rep in reps for m in _translates(rep, mod, rng, 2)]
    forms = reps + [m for _, m in moved]
    keys = [fc.key for fc in group.classes] + [class_key(m, mod) for _, m in moved]
    labels = ideal_keys(forms, mod)
    blocks = [len(set(keys)), len(set(labels)), len(set(zip(keys, labels)))]
    agree = sum(equivalent(r, m, mod) is not None and equivalent_oracle(r, m, mod) for r, m in moved)
    passed = blocks == [h] * 3 and agree == len(moved)
    detail = f"{len(forms)} forms in {blocks[0]} classes by class key, {blocks[1]} by ideal key,"
    detail += f" {blocks[2]} by both; {agree}/{len(moved)} translate pairs agree"
    record("witness equivalence vs ideal route", passed, detail)

    stable = 0
    for _ in range(10):
        i = rng.randrange(h)
        j = rng.randrange(h)
        moved_i = _translates(reps[i], mod, rng, 1)[0]
        moved_j = _translates(reps[j], mod, rng, 1)[0]
        stable += _class_index(compose(moved_i, moved_j, mod), group) == group.table[i][j]
    detail = f"{stable}/10 translate trials match the table"
    record("composition is class-level well-defined", stable == 10, detail)

    numeric("power relations between the three indexed values", _power_residuals(p, rng, samples))
    numeric("row transformation law", _law_residuals(p, rng, samples))

    # the unit-normalized value of the modulus lattice is the value at xi with
    # row (0, 1/N), so the identity class carries it exactly when its
    # descriptor has a_inv = 1 and sends the point to xi mod Z: its point's
    # form is a translate (A, B - 2A t, .) of xi's form (A, B, .)
    xi, unit = mod.xi(), descriptor(QuadForm(1, disc.b0, disc.c0), mod)
    z = unit.eval_point()
    at_xi = unit.a_inv == 1 and (z.a, z.disc()) == (xi.a, xi.disc())
    at_xi = at_xi and (z.b - xi.b) % (2 * z.a) == 0
    (zu, zv), (xu, xv) = point_coords(z, disc), point_coords(xi, disc)
    detail = f"a_inv {unit.a_inv}, point - xi = ({zu - xu})*tau + ({zv - xv})"
    detail += f" at xi = ({xu})*tau + ({xv})"
    record("identity-class descriptor sends the point to xi mod Z", at_xi, detail)

    descs = [descriptor(rep, mod) for rep in reps]
    values = [modular.eval_descriptor(d, None, p) for d in descs]
    invariance = _invariance_residuals(mod, reps, values, p, rng)
    numeric("descriptor value constant on classes", invariance)
    numeric("descriptor route vs unreduced route", _route_residuals(descs, values, p))
    return checks

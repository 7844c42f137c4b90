import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp

from rayform.forms import QuadForm
from rayform.qfield import QFieldError, make_discriminant, make_ideal_triple, reduced_basis
from rayform import checks, forms, modular, rayclass
from rayform.rayclass import group_table, make_modulus

# the CLI and script tests start subprocesses; they import this checkout too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def valid_triples(disc, max_c=12, skip_unit=True):
    """All canonical ideal triples of the order with c <= max_c, by brute scan."""
    out = []
    for c in range(1, max_c + 1):
        for a1 in range(1, c + 1):
            if c % a1:
                continue
            for a2 in range(0, c, a1):
                try:
                    t = make_ideal_triple(disc, a1, a2, c)
                except QFieldError:
                    continue
                if skip_unit and (a1, a2, c) == (1, 0, 1):
                    continue
                out.append(t)
    return out


def generators(t):
    """The generators of the ideal t as sorted integer (tau, 1) pairs, read
    off `reduced_basis`: g1 times the units when t's class form has leading
    coefficient 1, that is N(g1) = N(t), and none otherwise."""
    g1, name = reduced_basis(t)
    if name[0] != 1:
        return ()
    return tuple(sorted(t.disc.mul(eps, g1) for eps in t.disc.unit_coords()))


def far_form():
    """act((1, 0, 5), [[2, 1], [1, 1]]^5100): a valid form of discriminant
    -20 with a prime to 6 and 4264-digit coefficients, whose reduction
    takes 10202 steps."""
    g = forms.IDENT
    for _ in range(5100):
        g = g @ forms.UnimodMatrix(2, 1, 1, 1)
    return forms.act(QuadForm(1, 0, 5), g)


def same_ideal_label(form1, form2, mod):
    """The ideal route's verdict on two forms: their labels from one
    `ideal_keys` call are equal."""
    key1, key2 = rayclass.ideal_keys([form1, form2], mod)
    return key1 == key2


def drop_a_principal_row(monkeypatch):
    """Make enumeration lose the last row class of the principal form, so
    it finds one class fewer than the ray class number oracle."""
    row_classes = rayclass.row_classes

    def fewer(form, mod, fiber):
        rows = row_classes(form, mod, fiber)
        return rows[:-1] if form.a == 1 else rows

    monkeypatch.setattr(rayclass, "row_classes", fewer)


def split_a_translate(monkeypatch, mod):
    """Fault `reduce` on the first translate of the second class, drawn as
    `verify`'s route check draws it (seed 911): that translate alone reduces
    to (a, b + 2a, .), properly equivalent to the right reduced form, so the
    class key and the witness search put it in a class of its own while the
    ideal route, which reduces nothing, keeps it in its class.  Returns the
    second representative and the translate."""
    reps = [fc.rep for fc in rayclass.enumerate_classes(mod).classes]
    rng = random.Random(911)
    target = [checks._translates(rep, mod, rng, 2) for rep in reps][1][0]
    reduce_, shift = forms.reduce, forms.t_power(1)

    def split(form):
        red, g = reduce_(form)
        return (forms.act(red, shift), shift.inv() @ g) if form == target else (red, g)

    for module in (forms, rayclass, modular):
        monkeypatch.setattr(module, "reduce", split)
    return reps[1], target


def fraction_point_form(disc, u, v):
    """The primitive integral form whose root is z = u*tau + v, u and v
    rational, by trace and norm in Fraction arithmetic: k*(X^2 - tr(z)*X +
    norm(z)) with k the least common denominator of tr(z) and norm(z)."""
    u, v = Fraction(u), Fraction(v)
    trace, norm = 2 * v - disc.b0 * u, disc.norm(u, v)
    k = math.lcm(trace.denominator, norm.denominator)
    return QuadForm(k, int(-k * trace), int(k * norm))


def root_form(re, im):
    """The primitive integral form whose upper half plane root is re + i*im,
    re and im > 0 rationals taken exactly: ints, Fractions, decimal strings,
    floats or mpf values.  It is k*(X^2 - 2*re*X + re^2 + im^2), k the least
    common denominator of its lower coefficients."""
    re, im = (Fraction(*libmp.to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x) for x in (re, im))
    assert im > 0
    trace, norm = 2 * re, re * re + im * im
    k = math.lcm(trace.denominator, norm.denominator)
    return QuadForm(k, int(-k * trace), int(k * norm))


def form_near(a, re, im):
    """A form (a, b, c) whose root lies within about 1/a of re + i*im, for
    floats re and im > 0 and a large against 1/im^2: b = round(-2*a*re) and
    c = round(b^2/(4a) + a*im^2), its discriminant about -4 a^2 im^2."""
    b = round(-2 * a * re)
    return QuadForm(a, b, round(b * b / (4 * a) + a * im * im))


@pytest.fixture(scope="session")
def disc20():
    return make_discriminant(-20)


@pytest.fixture(scope="session")
def disc23():
    return make_discriminant(-23)


@pytest.fixture(scope="session")
def mod20(disc20):
    return make_modulus(disc20, 2, 4, 6)


@pytest.fixture(scope="session")
def mod23(disc23):
    return make_modulus(disc23, 3, 9, 12)


@pytest.fixture(scope="session")
def group20(mod20):
    return group_table(mod20)


@pytest.fixture(scope="session")
def group23(mod23):
    return group_table(mod23)

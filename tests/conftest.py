import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from rayform.forms import QuadForm
from rayform.qfield import QFieldError, make_discriminant, make_ideal_triple
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


def fraction_point_form(disc, u, v):
    """The primitive integral form whose root is z = u*tau + v, u and v
    rational, by trace and norm in Fraction arithmetic: k*(X^2 - tr(z)*X +
    norm(z)) with k the least common denominator of tr(z) and norm(z)."""
    u, v = Fraction(u), Fraction(v)
    trace, norm = 2 * v - disc.b0 * u, disc.norm(u, v)
    k = math.lcm(trace.denominator, norm.denominator)
    return QuadForm(k, int(-k * trace), int(k * norm))


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

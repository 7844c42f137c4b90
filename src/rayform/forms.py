"""Integral binary quadratic forms under the unimodular right action.

A form (a, b, c) acts through Q^g(x, y) = Q(px + qy, rx + sy); the package
only ever works with primitive positive definite forms.  Reduction follows
the classical normalize-then-swap loop on plain integers and reports a
witness matrix, so the caller can chain witnesses instead of re-deriving
them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .qfield import (
    Discriminant,
    InternalCheckError,
    QFieldError,
    _egcd,
)


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return -a < b <= a <= c and not (a == c and b < 0)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


def make_form(a: int, b: int, c: int) -> QuadForm:
    """Validated constructor: primitive and positive definite."""
    form = QuadForm(a, b, c)
    if a <= 0 or form.disc() >= 0:
        raise QFieldError(f"form ({a},{b},{c}) is not positive definite")
    if form.content() != 1:
        raise QFieldError(f"form ({a},{b},{c}) is not primitive")
    return form


def parse_form(text: str) -> QuadForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise QFieldError(f"expected 'a,b,c', got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError as exc:
        raise QFieldError(f"non-integer form {text!r}") from exc
    return make_form(a, b, c)


class _MatrixEntries(NamedTuple):
    p: int
    q: int
    r: int
    s: int


class UnimodMatrix(_MatrixEntries):
    """Element of SL2(Z), rows (p, q) and (r, s).

    The determinant is checked in `__new__`; `_replace` and `_make` skip it,
    so the package builds matrices only through this constructor.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, s: int):
        if p * s - q * r != 1:
            raise QFieldError(f"matrix [[{p},{q}],[{r},{s}]] has determinant != 1")
        return tuple.__new__(cls, (p, q, r, s))

    def __matmul__(self, other: "UnimodMatrix") -> "UnimodMatrix":
        return UnimodMatrix(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def inv(self) -> "UnimodMatrix":
        return UnimodMatrix(self.s, -self.q, -self.r, self.p)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.p, self.q), (self.r, self.s))


IDENT = UnimodMatrix(1, 0, 0, 1)
S_FLIP = UnimodMatrix(0, -1, 1, 0)


def t_power(k: int) -> UnimodMatrix:
    return UnimodMatrix(1, k, 0, 1)


def act(form: QuadForm, g: UnimodMatrix) -> QuadForm:
    """Right action Q^g; satisfies act(act(Q, g), h) == act(Q, g @ h)."""
    a, b, c = form.a, form.b, form.c
    p, q, r, s = g.p, g.q, g.r, g.s
    return QuadForm(
        form(p, r),
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        form(q, s),
    )


def _reduce_cap(form: QuadForm) -> int:
    """`reduce`'s step cap 2*(bitlen(a) + isqrt|d|) + 4, which `modular`'s
    own reduction of the form's coefficients also keeps."""
    return 2 * (form.a.bit_length() + math.isqrt(-form.disc())) + 4


def reduce(form: QuadForm) -> tuple[QuadForm, UnimodMatrix]:
    """Gauss reduction with witness: returns (R, g) with form == act(R, g).

    Each step acts by t_power((a - b) // (2a)) while b lies outside (-a, a],
    and by S_FLIP while a > c (or a == c and b < 0).  The form and the
    product (p, q, r, s) of the steps so far are carried as plain integers;
    the witness is the inverse of that product.  A flip comes only with
    |b| <= a, so it sets a' = c <= (a^2 + |d|)/(4a): a halves while
    a >= sqrt|d| and falls by at least 1 below it, and a tie flip (a == c)
    ends the loop.  At most one translation comes before each flip, so
    2*(bitlen(a) + isqrt|d|) + 4 steps suffice; needing more is a bug.
    """
    a, b, c = form.a, form.b, form.c
    if a <= 0 or form.disc() >= 0:
        raise QFieldError(f"cannot reduce indefinite or negative form {form}")
    p, q, r, s = 1, 0, 0, 1
    for _ in range(_reduce_cap(form)):
        if b <= -a or b > a:
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, (a * k + b) * k + c
            q, s = p * k + q, r * k + s
        elif a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r
        else:
            return QuadForm(a, b, c), UnimodMatrix(s, -q, -r, p)
    raise InternalCheckError(f"reduction did not terminate for {form}")


def reduced_forms(disc: Discriminant) -> tuple[QuadForm, ...]:
    """All primitive reduced forms of the discriminant, sorted by (a, b, c)."""
    d = disc.d
    found = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            form = QuadForm(a, b, num // (4 * a))
            if form.is_reduced() and form.content() == 1:
                found.append(form)
        a += 1
    return tuple(sorted(found))


def automorphs(form: QuadForm) -> tuple[UnimodMatrix, ...]:
    """The stabilizer of the form inside SL2(Z), read off the unit equation.

    Each integer solution (t, u) of t^2 - d*u^2 = 4 gives the automorph
    [[(t - b*u)/2, -c*u], [a*u, (t + b*u)/2]] of (a, b, c): its determinant
    is (t^2 - b^2*u^2)/4 + a*c*u^2 = (t^2 - d*u^2)/4 = 1, and its entries are
    integers because t^2 = d*u^2 = b^2*u^2 (mod 4) forces t = b*u (mod 2).
    As d <= -3, only u in {0, 1, -1} and |t| <= 2 can solve it: u = 0 gives
    plus and minus identity, returned in that order, and u = +-1 adds four
    more at d = -3 and two at d = -4, where all are sorted by (p, q, r, s).
    """
    d = form.disc()
    if d >= 0:
        raise QFieldError(f"form {form} is not definite")
    a, b, c = form.coeffs()
    units = [(t, u) for u in (0, 1, -1) for t in (2, -2, 1, -1, 0) if t * t - d * u * u == 4]
    auts = [UnimodMatrix((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2) for t, u in units]
    if len(auts) > 2:
        auts.sort()
    if any(act(form, g) != form for g in auts):
        raise InternalCheckError(f"a unit-equation automorph does not fix {form}")
    return tuple(auts)


def coprime_normalize(form: QuadForm, modulus: int) -> tuple[QuadForm, UnimodMatrix]:
    """A form in the same proper class whose leading coefficient is coprime
    to the given modulus, together with the witness: returns (Q', g) with
    Q' == act(Q, g).

    The primitive vector becoming the first column of g is the first hit in
    a deterministic ring search; when the form already qualifies the witness
    is the identity.  Ring r walks only its boundary max(|x|, |y|) = r, in
    (x, y) order: every y when |x| = r, else y = -r then y = r.
    """
    if modulus <= 0:
        raise QFieldError(f"modulus must be positive, got {modulus}")
    a, b, c = form
    if math.gcd(a, modulus) == 1:
        return form, IDENT
    for ring in range(1, 2 * modulus + 3):
        for x in range(-ring, ring + 1):
            for y in range(-ring, ring + 1) if abs(x) == ring else (-ring, ring):
                if math.gcd(x, y) != 1:
                    continue
                if math.gcd(a * x * x + b * x * y + c * y * y, modulus) != 1:
                    continue
                # complete (x, y) to the first column of a unimodular matrix
                _, inv_x, inv_y = _egcd(x, y)
                g = UnimodMatrix(x, -inv_y, y, inv_x)
                result = act(form, g)
                if math.gcd(result.a, modulus) != 1:
                    raise InternalCheckError("normalized leading coefficient not coprime")
                return result, g
    raise InternalCheckError(
        f"no primitive value of {form} coprime to {modulus} within search bound"
    )

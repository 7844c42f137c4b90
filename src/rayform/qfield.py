"""Exact arithmetic in an imaginary quadratic field.

Everything here runs on ints and Fractions; nothing is floating point.
A field is fixed by a fundamental discriminant d < 0.  Elements are stored
as coordinate pairs (u, v) over the basis (tau, 1) of the maximal order,
where tau is the upper half plane root of x^2 + b0*x + c0 and (1, b0, c0)
is the principal form of discriminant d.  Integral ideals are rank two
sublattices of the order; their canonical shape is the triple (a1, a2, c)
describing the lattice spanned by a1*tau + a2 and c, with
0 < a1 <= c, 0 <= a2 < c, a1 | c, a1 | a2 and c | norm(a1*tau + a2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class QFieldError(ValueError):
    """Raised when an input violates a documented precondition."""


class InternalCheckError(RuntimeError):
    """A consistency assertion failed; indicates a bug, not bad input."""


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def crt2(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2); moduli need not be coprime.

    Returns the least nonnegative solution mod lcm(m1, m2), raises
    QFieldError when the system is inconsistent.
    """
    g, p, _ = _egcd(m1, m2)
    if (r2 - r1) % g:
        raise QFieldError(f"inconsistent congruences x={r1} mod {m1}, x={r2} mod {m2}")
    lcm = m1 // g * m2
    # x = r1 + m1*t with m1*t = r2-r1 (mod m2)
    t = ((r2 - r1) // g * p) % (m2 // g)
    return (r1 + m1 * t) % lcm


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        # skipping even p; 4 was handled up front
        p += 2
    return True


@dataclass(frozen=True)
class Discriminant:
    """A fundamental discriminant d < 0 with its principal form (1, b0, c0)."""

    d: int
    b0: int
    c0: int

    def element(self, u, v) -> "FieldElement":
        return FieldElement(self, Fraction(u), Fraction(v))

    def tau(self) -> "FieldElement":
        """Generator of the maximal order over Z, root of x^2 + b0*x + c0."""
        return self.element(1, 0)

    def one(self) -> "FieldElement":
        return self.element(0, 1)

    def unit_coords(self) -> tuple[tuple[int, int], ...]:
        """All units of the maximal order as integer (tau, 1) coordinates,
        +-1 first."""
        return _UNIT_COORDS.get(self.d, _PLUS_MINUS_ONE)

    def unit_elements(self) -> tuple["FieldElement", ...]:
        """All units of the maximal order, +-1 first."""
        return tuple(self.element(u, v) for u, v in self.unit_coords())


_PLUS_MINUS_ONE = ((0, 1), (0, -1))
# the extra units: +-tau for d = -4, and +-tau, +-(tau + 1) for d = -3
_UNIT_COORDS = {
    -4: _PLUS_MINUS_ONE + ((1, 0), (-1, 0)),
    -3: _PLUS_MINUS_ONE + ((1, 0), (-1, 0), (1, 1), (-1, -1)),
}


def make_discriminant(d: int) -> Discriminant:
    """Validate d as a fundamental discriminant of an imaginary quadratic field."""
    if d >= 0:
        raise QFieldError(f"discriminant must be negative, got {d}")
    r = d % 4
    if r == 1:
        if not _is_squarefree(d):
            raise QFieldError(f"{d} is not fundamental (not squarefree)")
    elif r == 0:
        m = d // 4
        if m % 4 not in (2, 3) or not _is_squarefree(m):
            raise QFieldError(f"{d} is not fundamental")
    else:
        raise QFieldError(f"{d} is not 0 or 1 mod 4")
    b0 = d % 2
    c0 = (b0 - d) // 4
    return Discriminant(d, b0, c0)


@dataclass(frozen=True)
class FieldElement:
    """u*tau + v with rational u, v."""

    disc: Discriminant
    u: Fraction
    v: Fraction

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.disc != self.disc:
                raise QFieldError("mixed field arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.disc, Fraction(0), Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.disc, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.disc, self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.disc, -self.u, -self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # tau^2 = -b0*tau - c0
        b0, c0 = self.disc.b0, self.disc.c0
        uu = self.u * o.u
        return FieldElement(
            self.disc,
            self.u * o.v + self.v * o.u - uu * b0,
            self.v * o.v - uu * c0,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        w = self * o.conj()
        return FieldElement(self.disc, w.u / n, w.v / n)

    def conj(self) -> "FieldElement":
        return FieldElement(self.disc, -self.u, self.v - self.u * self.disc.b0)

    def norm(self) -> Fraction:
        # norm(u*tau + v) = c0*u^2 - b0*u*v + v^2, positive definite
        b0, c0 = self.disc.b0, self.disc.c0
        return c0 * self.u * self.u - b0 * self.u * self.v + self.v * self.v

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_integral(self) -> bool:
        return self.u.denominator == 1 and self.v.denominator == 1

    def denominator(self) -> int:
        """Least positive m with m*self integral."""
        return self.u.denominator * self.v.denominator // math.gcd(
            self.u.denominator, self.v.denominator
        )


def mobius(m, z: FieldElement) -> FieldElement:
    """Apply the fractional linear map of a 2x2 rational matrix with det > 0.

    m is ((m11, m12), (m21, m22)); entries may be ints or Fractions.
    """
    (m11, m12), (m21, m22) = m
    det = Fraction(m11) * Fraction(m22) - Fraction(m12) * Fraction(m21)
    if det <= 0:
        raise QFieldError(f"matrix determinant {det} is not positive")
    den = z * m21 + m22
    if den.is_zero():
        raise QFieldError("degenerate mobius image")
    return (z * m11 + m12) / den


@dataclass(frozen=True)
class LatticeBasis:
    """Rank two lattice given by two generators; oriented so det > 0.

    det is the determinant of the coordinate matrix over (tau, 1), which for a
    fractional ideal equals its norm.
    """

    g1: FieldElement
    g2: FieldElement

    @property
    def disc(self) -> Discriminant:
        return self.g1.disc

    def det(self) -> Fraction:
        return self.g1.u * self.g2.v - self.g1.v * self.g2.u

    def solve(self, x: FieldElement) -> tuple[Fraction, Fraction]:
        """Coordinates (s, t) with x = s*g1 + t*g2."""
        det = self.det()
        s = (x.u * self.g2.v - x.v * self.g2.u) / det
        t = (self.g1.u * x.v - self.g1.v * x.u) / det
        return s, t


def make_lattice_basis(g1: FieldElement, g2: FieldElement) -> LatticeBasis:
    if g1.disc != g2.disc:
        raise QFieldError("generators from different fields")
    basis = LatticeBasis(g1, g2)
    det = basis.det()
    if det == 0:
        raise QFieldError("generators are linearly dependent over Q")
    if det < 0:
        basis = LatticeBasis(g2, g1)
    return basis


@dataclass(frozen=True)
class IdealTriple:
    """Canonical normal form (a1, a2, c) of an integral ideal."""

    disc: Discriminant
    a1: int
    a2: int
    c: int

    def norm(self) -> int:
        return self.a1 * self.c

    def generator(self) -> FieldElement:
        return self.disc.element(self.a1, self.a2)

    def lattice(self) -> LatticeBasis:
        return make_lattice_basis(self.generator(), self.disc.element(0, self.c))

    def contains(self, x: FieldElement) -> bool:
        """Membership for an integral element, done in plain integers."""
        if not x.is_integral():
            return False
        u, v = int(x.u), int(x.v)
        if u % self.a1:
            return False
        return (v - (u // self.a1) * self.a2) % self.c == 0

    def residue(self, x: FieldElement) -> tuple[int, int]:
        """Normal form of an integral element mod the ideal."""
        u, v = int(x.u), int(x.v)
        ru = u % self.a1
        v -= (u - ru) // self.a1 * self.a2
        return ru, v % self.c

    def __str__(self) -> str:
        return f"{self.a1},{self.a2},{self.c}"


def make_ideal_triple(disc: Discriminant, a1: int, a2: int, c: int) -> IdealTriple:
    if not (0 < a1 <= c and 0 <= a2 < c):
        raise QFieldError(f"triple ({a1},{a2},{c}) out of canonical range")
    if c % a1 or a2 % a1:
        raise QFieldError(f"triple ({a1},{a2},{c}): a1 must divide a2 and c")
    g = disc.element(a1, a2)
    # closure under tau: tau*(a1 tau + a2) lands in the lattice iff a1*c | norm
    if g.norm() % (a1 * c):
        raise QFieldError(
            f"triple ({a1},{a2},{c}): lattice is not closed under the order"
        )
    return IdealTriple(disc, a1, a2, c)


def parse_ideal_triple(disc: Discriminant, text: str) -> IdealTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise QFieldError(f"expected 'a1,a2,c', got {text!r}")
    try:
        a1, a2, c = (int(p) for p in parts)
    except ValueError as exc:
        raise QFieldError(f"non-integer ideal triple {text!r}") from exc
    return make_ideal_triple(disc, a1, a2, c)


def _hnf_rows(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    # bring integer rows to [[a1, a2], [0, c]] with a1, c > 0, 0 <= a2 < c
    lead = None
    tail = []
    for u, v in rows:
        if u == 0 and v == 0:
            continue
        if u == 0:
            tail.append(v)
            continue
        if lead is None:
            lead = (u, v)
            continue
        g, x, y = _egcd(lead[0], u)
        tail.append((u // g) * lead[1] - (lead[0] // g) * v)
        lead = (g, x * lead[1] + y * v)
    if lead is None:
        raise QFieldError("lattice has no component along tau, rank deficient")
    c = 0
    for v in tail:
        c = math.gcd(c, v)
    if c == 0:
        raise QFieldError("lattice is rank deficient")
    a1, w = lead
    if a1 < 0:
        a1, w = -a1, -w
    return a1, w % c, c


def canonicalize_ideal(basis: LatticeBasis) -> IdealTriple:
    """Canonical triple of the integral ideal spanned by the basis.

    Rejects bases with non-integer coordinates and lattices that are not
    closed under multiplication by the order.
    """
    for g in (basis.g1, basis.g2):
        if not g.is_integral():
            raise QFieldError("ideal basis must have integer coordinates")
    rows = [(int(g.u), int(g.v)) for g in (basis.g1, basis.g2)]
    a1, a2, c = _hnf_rows(rows)
    # the canonical conditions characterize closure under the order
    try:
        return make_ideal_triple(basis.disc, a1, a2, c)
    except QFieldError as exc:
        raise QFieldError(f"lattice is not an ideal of the order: {exc}") from exc


def ideal_product(s: IdealTriple, t: IdealTriple) -> IdealTriple:
    if s.disc != t.disc:
        raise QFieldError("ideals from different fields")
    disc = s.disc
    gens_s = (s.generator(), disc.element(0, s.c))
    gens_t = (t.generator(), disc.element(0, t.c))
    rows = []
    for x in gens_s:
        for y in gens_t:
            p = x * y
            rows.append((int(p.u), int(p.v)))
    return make_ideal_triple(disc, *_hnf_rows(rows))


def _coprime(x: FieldElement, t: IdealTriple) -> bool:
    """Whether the integral element x and the ideal t generate the order:
    the lattice spanned by t's rows, x*tau and x is the order itself."""
    xt = x * x.disc.tau()
    rows = [(t.a1, t.a2), (0, t.c), (int(xt.u), int(xt.v)), (int(x.u), int(x.v))]
    return _hnf_rows(rows) == (1, 0, 1)


def minimal_norm_elements(basis: LatticeBasis) -> tuple[FieldElement, ...]:
    """All lattice elements whose norm equals the lattice norm.

    A fractional ideal is principal exactly when this list is nonempty, and
    then the list is the full set of generators.  Enumeration runs over the
    ellipse norm(x*g1 + y*g2) = det in integer arithmetic.
    """
    scale = 1
    for g in (basis.g1, basis.g2):
        scale = scale * g.denominator() // math.gcd(scale, g.denominator())
    g1 = basis.g1 * scale
    g2 = basis.g2 * scale
    target = basis.det() * scale * scale
    if target.denominator != 1:
        raise QFieldError("scaled lattice determinant is not integral")
    target = int(target)
    a_c = int(g1.norm())
    c_c = int(g2.norm())
    b_c = int((g1 * g2.conj() + g2 * g1.conj()).v)  # trace pairing, rational part
    disc_g = b_c * b_c - 4 * a_c * c_c  # equals d * (scale^2 * det)^2, negative
    found = []
    x_bound = math.isqrt((-4 * c_c * target) // disc_g) + 1
    for x in range(-x_bound, x_bound + 1):
        # solve a*x^2 + b*x*y + c*y^2 = target for integer y
        ay = c_c
        by = b_c * x
        cy = a_c * x * x - target
        d_y = by * by - 4 * ay * cy
        if d_y < 0:
            continue
        r = math.isqrt(d_y)
        if r * r != d_y:
            continue
        for num in ((-by + r), (-by - r)):
            if num % (2 * ay):
                continue
            y = num // (2 * ay)
            if a_c * x * x + b_c * x * y + c_c * y * y == target:
                e = g1 * x + g2 * y
                found.append(FieldElement(basis.disc, e.u / scale, e.v / scale))
    uniq = sorted(set(found), key=lambda e: (e.u, e.v))
    return tuple(uniq)


def is_mult_congruent_one(x: FieldElement, t: IdealTriple) -> bool:
    """Multiplicative congruence to 1 for the modulus given by t.

    Writes x = alpha/m with least positive integer denominator m; requires
    gcd(m, c) = 1 and x coprime to the modulus, then tests alpha - m in the
    ideal.
    """
    if x.is_zero():
        raise QFieldError("zero is not multiplicatively invertible")
    m = x.denominator()
    if math.gcd(m, t.c) != 1:
        raise QFieldError(
            f"denominator {m} shares a factor with {t.c}; congruence undefined here"
        )
    alpha = x * m
    if not _coprime(alpha, t):
        raise QFieldError("element is not coprime to the modulus")
    return t.contains(alpha - m)


def class_number(disc: Discriminant) -> int:
    """Form class number by direct count of reduced forms."""
    d = disc.d
    count = 0
    a = 1
    while 4 * a * a <= 4 * (-d) // 3 + 3:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def ray_class_number_oracle(disc: Discriminant, t: IdealTriple) -> int:
    """Ray class number for the modulus t, by the analytic-free index formula.

    h * |(O/t)^*| / |image of unit group|, with the residue count done by
    brute force over the a1 x c box of residues.
    """
    if t.disc != disc:
        raise QFieldError("ideal from a different field")
    if (t.a1, t.a2, t.c) == (1, 0, 1):
        raise QFieldError("ray class number needs a proper modulus, not the order")
    invertible = sum(
        _coprime(disc.element(ru, rv), t) for ru in range(t.a1) for rv in range(t.c)
    )
    unit_residues = {t.residue(z) for z in disc.unit_elements()}
    h = class_number(disc)
    total = h * invertible
    if total % len(unit_residues):
        raise InternalCheckError("unit image size does not divide the residue count")
    return total // len(unit_residues)


def element_to_json(x: FieldElement) -> dict:
    return {"u": str(x.u), "v": str(x.v)}

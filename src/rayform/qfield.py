"""Exact integer arithmetic in an imaginary quadratic field.

Nothing here is floating point or rational.  A field is fixed by a
fundamental discriminant d < 0.  Elements are integer coordinate pairs
(u, v) over the basis (tau, 1) of the maximal order, where tau is the
upper half plane root of x^2 + b0*x + c0 and (1, b0, c0) is the principal
form of discriminant d; `Discriminant.mul` and `.norm` are the one
multiplication rule for such pairs.  Integral ideals are rank two
sublattices of the order; their canonical shape is the triple (a1, a2, c)
describing the lattice spanned by the rows a1*tau + a2 and c, with
0 < a1 <= c, 0 <= a2 < c, a1 | c, a1 | a2 and c | norm(a1*tau + a2).
Points of the field off the order are carried as the integral forms
whose roots they are (`rayclass.GaloisDescriptor`).
"""

from __future__ import annotations

import math
from typing import NamedTuple


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


class Discriminant(NamedTuple):
    """A fundamental discriminant d < 0 with its principal form (1, b0, c0)."""

    d: int
    b0: int
    c0: int

    def unit_coords(self) -> tuple[tuple[int, int], ...]:
        """All units of the maximal order as integer (tau, 1) coordinates,
        +-1 first."""
        return _UNIT_COORDS.get(self.d, _PLUS_MINUS_ONE)

    def mul(self, x, y):
        """Product of the coordinate pairs x and y, from tau^2 = -b0*tau - c0."""
        (u1, v1), (u2, v2) = x, y
        uu = u1 * u2
        return u1 * v2 + v1 * u2 - uu * self.b0, v1 * v2 - uu * self.c0

    def norm(self, u, v):
        """norm(u*tau + v) = c0*u^2 - b0*u*v + v^2, positive definite."""
        return self.c0 * u * u - self.b0 * u * v + v * v


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


class IdealTriple(NamedTuple):
    """Canonical normal form (a1, a2, c) of an integral ideal."""

    disc: Discriminant
    a1: int
    a2: int
    c: int

    def norm(self) -> int:
        return self.a1 * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The integer (tau, 1) basis a1*tau + a2, c."""
        return (self.a1, self.a2), (0, self.c)

    def residue(self, u: int, v: int) -> tuple[int, int]:
        """Normal form of the integral element u*tau + v mod the ideal;
        (0, 0) exactly when the element lies in the ideal."""
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
    # closure under tau: tau*(a1 tau + a2) lands in the lattice iff a1*c | norm
    if disc.norm(a1, a2) % (a1 * c):
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
    c = math.gcd(*tail)
    if c == 0:
        raise QFieldError("lattice is rank deficient")
    a1, w = lead
    if a1 < 0:
        a1, w = -a1, -w
    return a1, w % c, c


def canonicalize_ideal(disc: Discriminant, rows: list[tuple[int, int]]) -> IdealTriple:
    """Canonical triple of the integral ideal spanned by integer (tau, 1) rows.

    Rejects rank deficient rows and lattices that are not closed under
    multiplication by the order.
    """
    a1, a2, c = _hnf_rows(rows)
    # the canonical conditions characterize closure under the order
    try:
        return make_ideal_triple(disc, a1, a2, c)
    except QFieldError as exc:
        raise QFieldError(f"lattice is not an ideal of the order: {exc}") from exc


def ideal_product(s: IdealTriple, t: IdealTriple) -> IdealTriple:
    if s.disc != t.disc:
        raise QFieldError("ideals from different fields")
    rows = [s.disc.mul(x, y) for x in s.rows() for y in t.rows()]
    return make_ideal_triple(s.disc, *_hnf_rows(rows))


def _coprime(u: int, v: int, t: IdealTriple) -> bool:
    """Whether the integral element x = u*tau + v, given by its integer
    (tau, 1) coordinates, and the ideal t generate the order: the lattice
    spanned by t's rows, x*tau and x is the order itself."""
    rows = [*t.rows(), t.disc.mul((u, v), (1, 0)), (u, v)]
    return _hnf_rows(rows) == (1, 0, 1)


def _lagrange(t: IdealTriple):
    """A Lagrange-reduced basis g1, g2 of t with its norm form (a, b, c):
    a = N(g1), c = N(g2), b = N(g1 + g2) - a - c and |b| <= a <= c, so a is
    the least nonzero norm in t.  Each step has determinant 1: g2 -= k*g1
    with k nearest to b/2a, or (g1, g2) -> (g2, -g1)."""
    disc = t.disc
    (u1, v1), (u2, v2) = t.rows()
    a_c, c_c = disc.norm(u1, v1), disc.norm(u2, v2)
    b_c = disc.norm(u1 + u2, v1 + v2) - a_c - c_c
    while abs(b_c) > a_c or a_c > c_c:
        if abs(b_c) > a_c:
            k = (b_c + a_c) // (2 * a_c)
            u2, v2 = u2 - k * u1, v2 - k * v1
            b_c, c_c = b_c - 2 * k * a_c, c_c - k * b_c + k * k * a_c
        else:
            u1, v1, u2, v2 = u2, v2, -u1, -v1
            a_c, b_c, c_c = c_c, -b_c, a_c
    return (u1, v1), (u2, v2), (a_c, b_c, c_c)


def ideal_class_form(t: IdealTriple) -> tuple[int, int, int]:
    """The reduced form of discriminant d naming t's ideal class: the norm
    form of `_lagrange`'s basis over N(t), with b -> -b when b = -a or when
    a = c and b < 0.  Every canonical basis (a1*tau + a2, c) has one
    orientation, Im(conj(a1*tau + a2)*c) = -a1*c*Im(tau) < 0, and every step
    has determinant 1, so the form is fixed up to proper equivalence.  Times
    x in K, an ideal keeps its orientation and each norm over N(t) is
    unchanged, so one class gives one reduced form: that of (a, b, c) for
    the ideal [a*omega, a], and (1, b0, c0) for principal ideals."""
    _, _, (a, b, c) = _lagrange(t)
    if b == -a or (a == c and b < 0):
        b = -b
    n = t.norm()
    return a // n, b // n, c // n


def minimal_norm_elements(t: IdealTriple) -> tuple[tuple[int, int], ...]:
    """All elements of the ideal whose norm equals the ideal's norm, as
    sorted integer (tau, 1) pairs: the generators of t, none unless t is
    principal.  Every norm in t is a multiple of N(t) and `_lagrange`'s a
    is the least, so t is principal exactly when a = N(t), and then its
    generators are g1 times the units."""
    g1, _, (a, _, _) = _lagrange(t)
    if a != t.norm():
        return ()
    return tuple(sorted(t.disc.mul(eps, g1) for eps in t.disc.unit_coords()))


def _kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1, by quadratic reciprocity."""
    sign, two = 1, (0, 1, 0, -1, 0, -1, 0, 1)  # (m/2) = (2/m), by m mod 8
    while n % 2 == 0:
        n, sign = n // 2, sign * two[d % 8]
    a = d % n
    while a:
        while a % 2 == 0:
            a, sign = a // 2, sign * two[n % 8]
        if a % 4 == n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def class_number(disc: Discriminant) -> int:
    """Form class number by Dirichlet's formula, sharing no code with the
    reduced-form walk: h = -(w/(2|d|)) sum_{0<n<|d|} (d/n) n, w units."""
    d, w = disc.d, len(disc.unit_coords())
    h, rem = divmod(-w * sum(_kronecker(d, n) * n for n in range(1, -d)), -2 * d)
    if h < 1 or rem:
        raise InternalCheckError(f"class number formula leaves {h} rem {rem} for {d}")
    return h


def ray_class_number_oracle(disc: Discriminant, t: IdealTriple) -> int:
    """Ray class number for the modulus t, by the analytic-free index formula.

    h * |(O/t)^*| / |image of unit group|, with the residue count done by
    brute force over the a1 x c box of residues.
    """
    if t.disc != disc:
        raise QFieldError("ideal from a different field")
    if (t.a1, t.a2, t.c) == (1, 0, 1):
        raise QFieldError("ray class number needs a proper modulus, not the order")
    invertible = sum(_coprime(ru, rv, t) for ru in range(t.a1) for rv in range(t.c))
    unit_residues = {t.residue(u, v) for u, v in disc.unit_coords()}
    h = class_number(disc)
    total = h * invertible
    if total % len(unit_residues):
        raise InternalCheckError("unit image size does not divide the residue count")
    return total // len(unit_residues)

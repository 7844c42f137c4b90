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
    """Canonical normal form (a1, a2, c) of an integral ideal; c is N, the
    least positive rational integer in the ideal."""

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
    (tau, 1) coordinates, and the ideal t generate the order, by one gcd.

    t + x*O is the lattice spanned by t's rows (a1, a2) and (0, c), by
    x*tau = (xu, xv) = (v - u*b0, -u*c0) and by x = (u, v); x is prime to
    t exactly when that lattice is the whole order, of index 1 in Z^2.  The
    index of a full-rank lattice spanned by integer rows is the gcd of their
    2x2 minors, here the six a1*c, a1*xv - a2*xu, a1*v - a2*u, c*xu, c*u
    (each up to sign) and xu*v - xv*u = N(x); a1*c > 0 makes the rank full.
    Three of them decide whether that gcd is 1, for a prime p dividing
    a1*c, a1*v - a2*u and N(x) divides the other three:
    - p divides c, as a1 | c, and with it c*xu and c*u;
    - with alpha = a1*tau + a2, alpha*conj(x) = U*tau + V for
      U = a1*v - a2*u and V = -(a1*xv - a2*xu), and
      N(alpha)*N(x) = c0*U^2 - b0*U*V + V^2 = V^2 mod p, so p divides V.
    So x is prime to t exactly when gcd(a1*c, a1*v - a2*u, N(x)) = 1."""
    return math.gcd(t.a1 * t.c, t.a1 * v - t.a2 * u, t.disc.norm(u, v)) == 1


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


def reduced_basis(t: IdealTriple) -> tuple[tuple[int, int], tuple[int, int, int]]:
    """The first vector g1 of a reduced basis of t, and the reduced form of
    discriminant d naming t's ideal class: the norm form of that basis over
    N(t).  The basis is `_lagrange`'s, with the boundary step applied to it:
    g2 -> g2 + g1 when b = -a, which makes the form (a, a, c), and
    (g1, g2) -> (g2, -g1) when a = c and b < 0, which makes it (a, -b, a).
    Every canonical basis (a1*tau + a2, c) has one orientation,
    Im(conj(a1*tau + a2)*c) = -a1*c*Im(tau) < 0, and every step has
    determinant 1, so the form is fixed up to proper equivalence.  Times x
    in K, an ideal keeps its orientation and each norm over N(t) is
    unchanged, so one class gives one reduced form: that of (a, b, c) for
    the ideal [a*omega, a], and (1, b0, c0) for principal ideals.  N(g1) is
    the name's leading coefficient times N(t), the least nonzero norm in t,
    so t is principal exactly when that coefficient is 1, and then g1
    generates t."""
    g1, g2, (a, b, c) = _lagrange(t)
    if b == -a:  # g2 -> g2 + g1 keeps g1
        b = a
    elif a == c and b < 0:  # (g1, g2) -> (g2, -g1)
        g1, b = g2, -b
    n = t.norm()
    return g1, (a // n, b // n, c // n)


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
    """Form class number by half of Dirichlet's sum, sharing no code with
    the reduced-form walk: h = w * sum_{0<n<k/2} chi(n) / (2*(2 - chi(2))),
    with k = |d|, chi = (d/.) and w the number of units.

    It follows from the full sum h = -(w/(2k)) * S, S = sum_{0<n<k} chi(n)*n
    (Davenport, Multiplicative Number Theory, ch. 6).  Write
    S1 = sum_{0<n<k/2} chi(n) and T = sum_{0<n<k/2} chi(n)*n.  chi is odd,
    chi(k - n) = -chi(n), so pairing n with k - n gives S = 2T - k*S1.
    - k odd: chi(2) = +-1.  The even n < k are 2m and the odd ones k - 2m,
      0 < m < k/2, so S = 2*chi(2)*T - chi(2)*(k*S1 - 2T) = chi(2)*(2S + k*S1).
      Solved for S, with chi(2) = +-1: S = -k*S1/(2 - chi(2)).
    - k even: chi(2) = 0, and chi(n + k/2) = -chi(n): the factor of chi at
      2 has period 4 or 8 and changes sign under a shift by k/2 = 2 mod 4
      or 4 mod 8, while the odd factor's period divides k/2.  So
      S = T - (T + (k/2)*S1) = -k*S1/2 = -k*S1/(2 - chi(2)).
    Either way h = -w*S/(2k) = w*S1/(2*(2 - chi(2))).
    """
    d, w = disc.d, len(disc.unit_coords())
    half = sum(_kronecker(d, n) for n in range(1, (1 - d) // 2))
    h, rem = divmod(w * half, 2 * (2 - _kronecker(d, 2)))
    if h < 1 or rem:
        raise InternalCheckError(f"class number formula leaves {h} rem {rem} for {d}")
    return h


def ray_class_number_oracle(disc: Discriminant, t: IdealTriple) -> int:
    """Ray class number for the modulus t, by the index formula
    h * |(O/t)^*| / |image of unit group|: h from Dirichlet's analytic class
    number formula (`class_number`), the residue count done by brute force
    over the a1 x c box of residues, one gcd each (`_coprime`).
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

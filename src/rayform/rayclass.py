"""Form classes over a ray modulus of an imaginary quadratic field.

The modulus is a nontrivial integral ideal n of the maximal order, with level
N the least positive integer it contains.  Among primitive positive definite
forms of the field discriminant, those with leading coefficient coprime to N
split into finitely many classes under a congruence-constrained unimodular
equivalence; the classes form a group isomorphic to the ray class group mod n,
with composition matching ideal multiplication.  Everything in this module is
exact integer arithmetic; points of the field are the roots of primitive
integral forms, and `point_coords` turns one into rational (tau, 1)
coordinates for printing.

Two independent routes to each question are kept side by side on purpose:
reduction and the witness congruence (`class_key`, `equivalent`) against
ideal arithmetic alone (`ideal_keys`, `equivalent_oracle`) for class
membership, and enumeration against `ray_class_number_oracle` for the count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .forms import (
    QuadForm,
    UnimodMatrix,
    act,
    automorphs,
    coprime_normalize,
    reduce,
    reduced_forms,
)
from .qfield import (
    Discriminant,
    IdealTriple,
    InternalCheckError,
    QFieldError,
    _egcd,
    ideal_class_form,
    ideal_product,
    make_discriminant,
    make_ideal_triple,
    minimal_norm_elements,
    ray_class_number_oracle,
)

RowVec = tuple[int, int]
# reduced form plus the canonical residue of its row's unit orbit
ClassKey = tuple[QuadForm, tuple[int, int]]
# ideal class form plus the least residue of a generator over a
IdealKey = tuple[tuple[int, int, int], tuple[int, int]]
# A QuadForm is a tuple of its coefficients, so a ClassKey equals the
# IdealKey of the same numbers: the two kinds never share a container.


class Modulus(NamedTuple):
    disc: Discriminant
    ideal: IdealTriple

    @property
    def level(self) -> int:
        """N, the least positive rational integer in the ideal."""
        return self.ideal.c

    def xi(self) -> QuadForm:
        """The primitive form of xi = (a1*tau + a2)/N, the upper half plane
        point attached to the ideal: N^2 (X^2 - tr(xi) X + norm(xi))."""
        n, N = self.ideal, self.level
        return _primitive(N * N, -N * (2 * n.a2 - self.disc.b0 * n.a1), self.disc.norm(n.a1, n.a2))


def make_modulus(disc: Discriminant, a1: int, a2: int, c: int) -> Modulus:
    ideal = make_ideal_triple(disc, a1, a2, c)
    if (a1, a2, c) == (1, 0, 1):
        raise QFieldError("modulus must be a proper ideal of the order")
    return Modulus(disc, ideal)


class FormClass(NamedTuple):
    """One class: a representative form and the class key it carries."""

    rep: QuadForm
    key: ClassKey


class _GroupFields(NamedTuple):
    modulus: Modulus
    classes: tuple[FormClass, ...]
    table: tuple[tuple[int, ...], ...] | None = None
    invariant_factors: tuple[int, ...] | None = None


class ClassGroup(_GroupFields):
    """The classes of a modulus, with the table and invariant factors once
    `group_table` has filled them in.  A subclass of its fields, without
    `__slots__`, so `index` is cached in the instance dict."""

    @cached_property
    def index(self) -> dict[ClassKey, int]:
        """Position of each class key in `classes`."""
        return {fc.key: i for i, fc in enumerate(self.classes)}


class GaloisDescriptor(NamedTuple):
    """Exact data describing the Galois action attached to a form class.

    point is the primitive form whose upper half plane root is the base
    point; eval_matrix composed with that root is where a torsion-point
    function gets evaluated; a_inv twists the function index, and the fixed
    twist marker records the extra inversion letter.
    """

    a_inv: int
    eval_matrix: tuple[tuple[int, int], tuple[int, int]]
    point: QuadForm
    twist: str = "S"

    @property
    def disc(self) -> Discriminant:
        """The field, read off the base point's form, of discriminant dK."""
        return make_discriminant(self.point.disc())

    def eval_point(self) -> QuadForm:
        """The primitive form of z = (a1*p + m)/N, the image of the base
        point p under eval_matrix [[a1, m], [0, N]]: A*p^2 + B*p + C = 0
        with p = (N*z - m)/a1, times a1^2."""
        (a1, m), (_, n) = self.eval_matrix
        a, b, c = self.point.coeffs()
        return _primitive(a * n * n, (b * a1 - 2 * a * m) * n, a * m * m - b * a1 * m + c * a1 * a1)


def _primitive(a: int, b: int, c: int) -> QuadForm:
    g = math.gcd(a, b, c)
    return QuadForm(a // g, b // g, c // g)


def point_coords(form: QuadForm, disc: Discriminant) -> tuple[Fraction, Fraction]:
    """(u, v) with u*tau + v the upper half plane root of the form, whose
    discriminant is k^2 d: (k/A, (k*b0 - B)/(2A)), the printed coordinates."""
    k = math.isqrt(form.disc() // disc.d)
    return Fraction(k, form.a), Fraction(k * disc.b0 - form.b, 2 * form.a)


def _require_form(form: QuadForm, mod: Modulus) -> None:
    if form.a <= 0 or form.disc() >= 0:
        raise QFieldError(f"form {form} is not positive definite")
    if form.content() != 1:
        raise QFieldError(f"form {form} is not primitive")
    if form.disc() != mod.disc.d:
        raise QFieldError(
            f"form discriminant {form.disc()} does not match field {mod.disc.d}"
        )
    if math.gcd(form.a, mod.level) != 1:
        raise QFieldError(
            f"leading coefficient {form.a} shares a factor with level {mod.level}"
        )


def _half(n: int) -> int:
    if n % 2:
        raise InternalCheckError(f"{n} is odd where an even integer was forced")
    return n // 2


def canonical_offset(form: QuadForm, mod: Modulus) -> int:
    """The unique integer locating the product ideal's canonical basis.

    Congruent to a2 - a1*(b + b0)/2 mod N, divisible by a, and windowed so
    that 0 <= offset + a1*(b + b0)/2 < N*a.  With shift = a1*(b + b0)/2,
    the base a*((a2 - shift)*a^-1 mod N) is the least x >= 0 with
    x = a2 - shift (mod N) and a | x, as `_require_form` makes a prime to N.
    """
    _require_form(form, mod)
    n, N, a = mod.ideal, mod.level, form.a
    shift = n.a1 * _half(form.b + mod.disc.b0)
    base = a * ((n.a2 - shift) * pow(a, -1, N) % N)
    period = N * a
    return (base + shift) % period - shift


def _witness_slope(form: QuadForm, mod: Modulus) -> int:
    # k with the witness condition s = 1 + k*r mod N, built from the form
    n, N = mod.ideal, mod.level
    a_inv = pow(form.a, -1, N)
    return (a_inv * (n.a2 // n.a1 - _half(mod.disc.b0 - form.b))) % N


def _satisfies_witness(g: UnimodMatrix, form: QuadForm, mod: Modulus) -> bool:
    k = _witness_slope(form, mod)
    return g.r % mod.ideal.a1 == 0 and (g.s - 1 - k * g.r) % mod.level == 0


def equivalent(
    form1: QuadForm, form2: QuadForm, mod: Modulus
) -> UnimodMatrix | None:
    """Witness matrix alpha with form1 == act(form2, alpha) meeting the
    congruence conditions, or None when the classes differ.

    Candidates are the proper equivalences between the two forms, which all
    differ by an automorph; each is tested against the bottom-row congruence
    relative to form1.
    """
    _require_form(form1, mod)
    _require_form(form2, mod)
    (red1, g1), (red2, g2) = reduce(form1), reduce(form2)
    if red1 != red2:
        return None
    gamma0 = g2.inv() @ g1
    for h in automorphs(form1):
        alpha = gamma0 @ h
        if _satisfies_witness(alpha, form1, mod):
            if act(form2, alpha) != form1:
                raise InternalCheckError("witness does not transport the form")
            return alpha
    return None


def _form_ideal(form: QuadForm, disc: Discriminant) -> IdealTriple:
    # the integral ideal [a*omega, a], norm a: the HNF of the rows
    # (1, w) and (0, a) with w = (b0 - b)/2
    return make_ideal_triple(disc, 1, _half(disc.b0 - form.b) % form.a, form.a)


def ideal_keys(forms: list[QuadForm], mod: Modulus) -> list[IdealKey]:
    """Ideal-route labels of the forms, comparable within one call only: for
    f = (a, b, c), with ideal I_f = [a*omega, a] of norm a, the pair of
    `ideal_class_form(I_f)` and the least residue mod n of g*(a^-1 mod N)
    over the generators g of I_f*conj(I_base), base the list's first form
    in I_f's class; conj(I_base) is the ideal of (a_base, -b_base, c_base).

    Equal labels mean ray equivalence.  The generators are eps*g with
    N(g) = a*a_base, so I1*conj(I2) is generated by eps*g1*conj(g2)/a_base,
    and "some generator over a1 is = 1 mod* n" becomes, times g2/(a1*a2),
    eps*g1/a1 = g2/a2 mod* n.  Each g is prime to n, as N(g) = a*a_base and
    `_require_form` makes both prime to N; so g/a = g*(a^-1 mod N) mod* n.
    """
    disc, n, N = mod.disc, mod.ideal, mod.level
    conjs: dict[tuple[int, int, int], IdealTriple] = {}
    keys = []
    for form in forms:
        _require_form(form, mod)
        ideal = _form_ideal(form, disc)
        name = ideal_class_form(ideal)
        if name not in conjs:
            conjs[name] = _form_ideal(QuadForm(form.a, -form.b, form.c), disc)
        gens = minimal_norm_elements(ideal_product(ideal, conjs[name]))
        if not gens:
            raise InternalCheckError(f"I_f*conj(I_base) has no generator for {form} in class {name}")
        a_inv = pow(form.a, -1, N)
        keys.append((name, min(n.residue(u * a_inv, v * a_inv) for u, v in gens)))
    return keys


def equivalent_oracle(form1: QuadForm, form2: QuadForm, mod: Modulus) -> bool:
    """Independent equivalence test straight from the ray class definition:
    the two forms' `ideal_keys` from one call are equal.  No reduction and
    no witness matrices are involved."""
    key1, key2 = ideal_keys([form1, form2], mod)
    return key1 == key2


def witness_matrix(form: QuadForm, mod: Modulus, k: int, j: int) -> UnimodMatrix:
    """A matrix meeting the witness congruence for the form, parametrized by
    two free integers: k picks the bottom-left entry a1*k, j shears the top
    row.  Acting by its inverse yields a form in the same class.
    """
    _require_form(form, mod)
    N, a1 = mod.level, mod.ideal.a1
    r = a1 * k
    s0 = (1 + _witness_slope(form, mod) * r) % N
    s = None
    for m in range(0, 2 * abs(r) + N + 2):
        for cand in (s0 + N * m, s0 - N * m):
            if math.gcd(r, cand) == 1:
                s = cand
                break
        if s is not None:
            break
    if s is None:
        raise InternalCheckError(f"no coprime completion of bottom row ({r}, ...)")
    _, x, y = _egcd(s, r)
    g = UnimodMatrix(x + j * r, -y + j * s, r, s)
    if not _satisfies_witness(g, form, mod):
        raise InternalCheckError(f"constructed matrix {g} fails the congruence")
    return g


def class_translate(form: QuadForm, mod: Modulus, k: int, j: int) -> QuadForm | None:
    """A different representative of the form's class, or None when the
    parameters land outside the coprime-leading-coefficient domain or the
    matrix fixes the form (k = j = 0 gives the identity or an automorph)."""
    g = witness_matrix(form, mod, k, j)
    moved = act(form, g.inv())
    if moved == form or moved.a <= 0 or math.gcd(moved.a, mod.level) != 1:
        return None
    if equivalent(form, moved, mod) is None:
        raise InternalCheckError("translate left the class")
    return moved


def row_in_vq(form: QuadForm, row: RowVec, level: int) -> bool:
    """Whether the row (u, v) indexes an admissible torsion point for the form."""
    u, v = row
    return math.gcd(level, form(v, -u)) == 1


def _row_key(form: QuadForm, row: RowVec, mod: Modulus) -> tuple[int, int]:
    """Canonical label of the row's class under the row congruence.

    The row (u, v) stands for x = a*(u*omega + v) = u*tau + w with
    w = u*(b0 - b)/2 + v*a; two rows are congruent when x agrees mod the
    modulus up to a unit, so the label is the least residue of the unit
    orbit of x, all in integer (tau, 1) coordinates.
    """
    u, v = row
    disc, n = mod.disc, mod.ideal
    w = u * _half(disc.b0 - form.b) + v * form.a
    residues = []
    for eu, ev in disc.unit_coords():
        # eps*x with tau^2 = -b0*tau - c0, reduced as in IdealTriple.residue;
        # written out rather than through Discriminant.mul, so class keys
        # share no arithmetic with the ideal route that checks them
        xu = eu * (w - u * disc.b0) + ev * u
        xv = ev * w - eu * u * disc.c0
        residues.append((xu % n.a1, (xv - xu // n.a1 * n.a2) % n.c))
    return min(residues)


def row_classes(form: QuadForm, mod: Modulus) -> tuple[RowVec, ...]:
    """Lexicographically least representatives of admissible rows up to the
    row congruence."""
    _require_form(form, mod)
    N = mod.level
    reps: dict[tuple[int, int], RowVec] = {}
    for u in range(N):
        for v in range(N):
            if row_in_vq(form, (u, v), N):
                reps.setdefault(_row_key(form, (u, v), mod), (u, v))
    return tuple(reps.values())


def class_key(form: QuadForm, mod: Modulus) -> ClassKey:
    """Canonical label of the form's class: its reduced form plus the row
    key of the matrix carrying the coprime-normalized reduced form to it.

    Two forms share a key exactly when `equivalent` joins them.
    """
    _require_form(form, mod)
    red, g = reduce(form)
    normalized, n = coprime_normalize(red, mod.level)
    m = g.inv() @ n
    return red, _row_key(normalized, (m.r, m.s), mod)


def lift_bottom_row(row: RowVec, level: int) -> UnimodMatrix:
    """A unimodular matrix whose bottom row is (u, v) mod the level.

    The lift adjusts (u, v) by multiples of the level to a coprime pair,
    preferring small shifts, then completes the row canonically.
    """
    u, v = row
    if math.gcd(math.gcd(u, v), level) != 1:
        raise QFieldError(f"row {row} is not unimodular mod {level}")
    for total in range(0, 2 * level + 3):
        for k in range(-total, total + 1):
            rem = total - abs(k)
            for l in sorted({-rem, rem}):
                r = u + k * level
                s = v + l * level
                if math.gcd(r, s) == 1:
                    _, x, y = _egcd(s, r)
                    return UnimodMatrix(x, -y, r, s)
    raise InternalCheckError(f"no coprime lift of {row} mod {level} within bound")


def enumerate_classes(mod: Modulus) -> ClassGroup:
    """All classes of the modulus, each as an explicit representative form.

    Walks the reduced forms, renormalizes leading coefficients against the
    level, splits the admissible rows into congruence classes and pulls each
    back through a lifted matrix.  The count is checked against the
    ideal-theoretic ray class number and the representatives must have
    distinct `ideal_keys`, so a miscount cannot pass silently.
    """
    disc, N = mod.disc, mod.level
    reps: list[FormClass] = []
    for base in reduced_forms(disc):
        normalized, _ = coprime_normalize(base, N)
        for row in row_classes(normalized, mod):
            gamma = lift_bottom_row(row, N)
            rep = act(normalized, gamma.inv())
            reps.append(FormClass(rep, class_key(rep, mod)))
    expected = ray_class_number_oracle(disc, mod.ideal)
    if len(reps) != expected:
        raise InternalCheckError(
            f"enumerated {len(reps)} classes, oracle says {expected}"
        )
    if len(set(ideal_keys([fc.rep for fc in reps], mod))) != len(reps):
        raise InternalCheckError("two representatives collide under the ideal key")
    if len({fc.key for fc in reps}) != len(reps):
        raise InternalCheckError("two representatives share a class key")
    principal = class_key(QuadForm(1, disc.b0, disc.c0), mod)
    identity = [fc for fc in reps if fc.key == principal]
    if len(identity) != 1:
        raise InternalCheckError("identity class not found exactly once")
    rest = sorted(
        (fc for fc in reps if fc is not identity[0]),
        key=lambda fc: fc.rep.coeffs(),
    )
    return ClassGroup(mod, tuple(identity + rest))


def compose(form1: QuadForm, form2: QuadForm, mod: Modulus) -> QuadForm:
    """Class composition compatible with ideal multiplication.

    form2 is first moved inside its class, by a matrix with bottom row
    (r, s), so the two leading coefficients are coprime (and coprime to 2, N
    and the discriminant, which is stronger than needed but cheap); the
    middle coefficient B of the product (a*a2, B, .) is aligned by CRT.  With
    omega(Q) the upper-half-plane root of Q(x, 1), the correcting matrix has
    the bottom row (x, y) with r*omega(moved) + s = x*omega(product) + y.
    Comparing coordinates over (tau, 1) gives x = a*r and
    y = s + r*(B - b2)/(2*a2), an integer since B = b2 mod 2*a2.
    """
    _require_form(form1, mod)
    _require_form(form2, mod)
    N, d = mod.level, mod.disc.d
    a, b = form1.a, form1.b
    moved, gamma = coprime_normalize(form2, 2 * a * N * abs(d))
    a2, b2 = moved.a, moved.b
    if math.gcd(a, a2) != 1:
        raise InternalCheckError("leading coefficients not coprime after move")
    # B = b mod 2a, B = b2 mod 2a2; the strengthened move makes gcd(2a, 2a2) = 2
    t = (_half(b2 - b) * pow(a, -1, a2)) % a2
    big_b = (b + 2 * a * t) % (2 * a * a2)
    if (big_b - b) % (2 * a) or (big_b - b2) % (2 * a2):
        raise InternalCheckError("middle coefficient misses its congruences")
    if (big_b * big_b - d) % (4 * a * a2):
        raise InternalCheckError("middle coefficient square congruence failed")
    big_a = a * a2
    product = QuadForm(big_a, big_b, (big_b * big_b - d) // (4 * big_a))
    if product.content() != 1:
        raise InternalCheckError(f"composite form {product} is not primitive")
    x, y = a * gamma.r, gamma.s + gamma.r * ((big_b - b2) // (2 * a2))
    if math.gcd(math.gcd(x, y), N) != 1:
        raise InternalCheckError("correcting row not unimodular mod level")
    sigma = lift_bottom_row((x % N, y % N), N)
    result = act(product, sigma.inv())
    if math.gcd(result.a, N) != 1 or result.content() != 1 or result.a <= 0:
        raise InternalCheckError(f"composite representative {result} is invalid")
    return result


def _class_index(form: QuadForm, group: ClassGroup) -> int:
    idx = group.index.get(class_key(form, group.modulus))
    if idx is None:
        raise InternalCheckError(f"form {form} matches no enumerated class")
    return idx


def _invariant_factors(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Invariant factors of an abelian group given by its full table with
    identity 0, ascending, each dividing the next.

    They follow from the census of element orders: for a prime p, the number
    of factors divisible by p^k is log_p of #{x : ord(x) | p^k} over
    #{x : ord(x) | p^(k-1)}.
    """
    h = len(table)
    orders = []
    for g in range(h):
        k, x = 1, g
        while x and k < h:
            x, k = table[x][g], k + 1
        if x:
            raise InternalCheckError(f"powers of {g} miss the identity within {h} steps")
        orders.append(k)
    factors: list[int] = []  # largest first
    for p in (q for q in range(2, h + 1) if h % q == 0 and all(q % d for d in range(2, q))):
        below, pk = 1, p
        while True:
            count = sum(1 for o in orders if pk % o == 0)
            r = 0
            while below * p ** (r + 1) <= count:
                r += 1
            if count != below * p**r:
                raise InternalCheckError(f"order census ratio {count}/{below} is not a power of {p}")
            if r == 0:
                break
            factors.extend([1] * (r - len(factors)))
            for j in range(r):
                factors[j] *= p
            below, pk = count, pk * p
    if math.prod(factors) != h:
        raise InternalCheckError(f"invariant factors {factors} do not multiply to {h}")
    return tuple(reversed(factors))


def group_table(mod: Modulus) -> ClassGroup:
    """Enumerate the classes and fill in the full composition table plus the
    invariant factor decomposition.

    The group is abelian, so the table follows from generator rows: h*r
    `compose` calls for r generators, not h^2.  Each generator g is the first
    class not yet reached; its row pi_g[x] = index(x*g) is composed directly,
    with lookups in `ClassGroup.index`.  Breadth-first closure gives each new
    class x*g the row row(x*g)[y] = pi_g[row(x)[y]].  One wrong cell of a
    generator row breaks its identity cell pi_g[0] = g, a permutation, a
    derived cell table[x][g] = pi_g[x] or commutativity, all checked.  A
    compose fault on a pair without a generator is left to `verify`.
    """
    group = enumerate_classes(mod)
    size = len(group.classes)
    reps = [fc.rep for fc in group.classes]
    rows = {0: list(range(size))}
    generators = {}
    while len(rows) < size:
        g = next(x for x in range(size) if x not in rows)
        pi = generators[g] = [_class_index(compose(rep, reps[g], mod), group) for rep in reps]
        if pi[0] != g:  # row 0 is the identity by construction; g must be reached
            raise InternalCheckError("identity row is not the identity permutation")
        reached = list(rows)
        for x in reached:
            if pi[x] not in rows:
                rows[pi[x]] = [pi[y] for y in rows[x]]
                reached.append(pi[x])
    table = tuple(tuple(rows[x]) for x in range(size))
    for g, pi in generators.items():
        if any(table[x][g] != pi[x] for x in range(size)):
            raise InternalCheckError("derived cell differs from its composed generator row")
    if any(len(set(row)) != size for row in table):
        raise InternalCheckError("table row is not a permutation")
    if table != tuple(zip(*table)):
        raise InternalCheckError("composition table is not commutative")
    return ClassGroup(mod, group.classes, table, _invariant_factors(table))


def descriptor(form: QuadForm, mod: Modulus) -> GaloisDescriptor:
    """Exact Galois-action data of the class of the form: the twisted index,
    the evaluation matrix, and the conjugate root as base point, the root
    tau/a + (b0 + b)/(2a) of (a, -b, c)."""
    _require_form(form, mod)
    N, a = mod.level, form.a
    off = canonical_offset(form, mod)
    if off % a:
        raise InternalCheckError("offset not divisible by the leading coefficient")
    return GaloisDescriptor(
        a_inv=pow(a, -1, N),
        eval_matrix=((mod.ideal.a1, off // a), (0, N)),
        point=QuadForm(a, -form.b, form.c),
    )


def class_group_to_json(group: ClassGroup) -> dict:
    data = {
        "dK": group.modulus.disc.d,
        "ideal": str(group.modulus.ideal),
        "classes": [fc.rep._asdict() for fc in group.classes],
        "table": [list(row) for row in group.table] if group.table else None,
        "invariant_factors": list(group.invariant_factors)
        if group.invariant_factors is not None
        else None,
    }
    return data

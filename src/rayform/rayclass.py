"""Form classes over a ray modulus of an imaginary quadratic field.

The modulus is a nontrivial integral ideal n of the maximal order, an
`IdealTriple` (a1, a2, c) whose c is the level N, the least positive integer
it contains.  Among primitive positive definite forms of the field
discriminant, those with leading coefficient coprime to N split into
finitely many classes under a congruence-constrained unimodular equivalence;
the classes form a group isomorphic to the ray class group mod n, with
composition matching ideal multiplication.  Everything in this module is
exact integer arithmetic; points of the field are the roots of primitive
integral forms, and `point_coords` turns one into rational (tau, 1)
coordinates for printing.

Two independent routes to each question are kept side by side on purpose:
reduction and the witness congruence (`class_key`, `equivalent`) against
ideal arithmetic alone (`ideal_keys`, one reduced basis per form's ideal and
a generator of its quotient by the class's base read off two such bases)
for class membership, and enumeration against `ray_class_number_oracle`
for the count.  Each verdict is computed
once, by its own route; the class key, the ideal labels and the witness
search meet in `verify`'s route check.  Composition has one body,
`_compose_parts` (Dirichlet's product form of a form and a moved second
form, and the bottom row of its correcting matrix), and each caller moves
the second form itself: `compose` moves it per call and lifts the row to a
representative, and `group_table` reuses each generator's few moves over
its row and keys each cell from the product and the row (`_key_at`, with
the reduced forms' normalizations that enumeration made) without building
one; `verify`'s well-definedness trials are where the two meet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .forms import (
    QuadForm,
    UnimodMatrix,
    act,
    automorphs,
    coprime_normalize,
    reduce,
    reduced_forms,
    t_power,
)
from .qfield import (
    Discriminant,
    IdealTriple,
    InternalCheckError,
    QFieldError,
    _egcd,
    make_ideal_triple,
    ray_class_number_oracle,
    reduced_basis,
)

RowVec = tuple[int, int]
# reduced form -> its coprime_normalize pair (normalized form, witness) mod N
Normals = dict[QuadForm, tuple[QuadForm, UnimodMatrix]]
# reduced form plus the canonical residue of its row's unit orbit
ClassKey = tuple[QuadForm, tuple[int, int]]
# ideal class form plus the least residue of a generator over a
IdealKey = tuple[tuple[int, int, int], tuple[int, int]]
# A QuadForm is a tuple of its coefficients, so a ClassKey equals the
# IdealKey of the same numbers: the two kinds never share a container.


def make_modulus(disc: Discriminant, a1: int, a2: int, c: int) -> IdealTriple:
    ideal = make_ideal_triple(disc, a1, a2, c)
    if (a1, a2, c) == (1, 0, 1):
        raise QFieldError("modulus must be a proper ideal of the order")
    return ideal


class FormClass(NamedTuple):
    """One class: a representative form and the class key it carries."""

    rep: QuadForm
    key: ClassKey


class ClassGroup(NamedTuple):
    """The classes of a modulus and the position of each class key in them,
    with the table and invariant factors once `group_table` has filled them
    in.  `index` is a dict, so a group does not hash."""

    modulus: IdealTriple
    classes: tuple[FormClass, ...]
    index: dict[ClassKey, int]
    table: tuple[tuple[int, ...], ...] | None = None
    invariant_factors: tuple[int, ...] | None = None


class GaloisDescriptor(NamedTuple):
    """Exact data describing the Galois action attached to a form class.

    point is the primitive form whose upper half plane root is the base
    point; eval_matrix composed with that root is where a torsion-point
    function gets evaluated; a_inv twists the function index, and the class
    constant twist records the extra inversion letter.
    """

    a_inv: int
    eval_matrix: tuple[tuple[int, int], tuple[int, int]]
    point: QuadForm
    twist = "S"

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


def _require_form(form: QuadForm, mod: IdealTriple) -> None:
    """Check a caller's form for Q_N(dK): a > 0, disc = dK and gcd(a, N) = 1.
    Content g > 1 would make form/g a form of discriminant dK/g^2, which a
    fundamental dK rules out; a > 0 with disc < 0 makes the form definite."""
    d = form.disc()
    if form.a <= 0:
        raise QFieldError(f"form {form} is not positive definite")
    if d != mod.disc.d:
        raise QFieldError(f"form discriminant {d} does not match field {mod.disc.d}")
    if math.gcd(form.a, mod.c) != 1:
        raise QFieldError(
            f"leading coefficient {form.a} shares a factor with level {mod.c}"
        )


def _half(n: int) -> int:
    if n % 2:
        raise InternalCheckError(f"{n} is odd where an even integer was forced")
    return n // 2


def canonical_offset(form: QuadForm, mod: IdealTriple) -> int:
    """The unique integer locating the product ideal's canonical basis.

    Congruent to a2 - a1*(b + b0)/2 mod N, divisible by a, and windowed so
    that 0 <= offset + a1*(b + b0)/2 < N*a.  With shift = a1*(b + b0)/2,
    the base a*((a2 - shift)*a^-1 mod N) is the least x >= 0 with
    x = a2 - shift (mod N) and a | x, given a prime to N (`descriptor` checks).
    """
    N, a = mod.c, form.a
    shift = mod.a1 * _half(form.b + mod.disc.b0)
    base = a * ((mod.a2 - shift) * pow(a, -1, N) % N)
    period = N * a
    return (base + shift) % period - shift


def _witness_slope(form: QuadForm, mod: IdealTriple) -> int:
    # k with the witness condition s = 1 + k*r mod N, built from the form
    N = mod.c
    a_inv = pow(form.a, -1, N)
    return (a_inv * (mod.a2 // mod.a1 - _half(mod.disc.b0 - form.b))) % N


def _satisfies_witness(g: UnimodMatrix, form: QuadForm, mod: IdealTriple) -> bool:
    k = _witness_slope(form, mod)
    return g.r % mod.a1 == 0 and (g.s - 1 - k * g.r) % mod.c == 0


def equivalent(
    form1: QuadForm, form2: QuadForm, mod: IdealTriple
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


def ideal_keys(forms: list[QuadForm], mod: IdealTriple) -> list[IdealKey]:
    """Ideal-route labels of the forms, comparable within one call only: for
    f = (a, b, c), with ideal I_f = [a*omega, a] of norm a, the pair of the
    ideal class form (A, B, C) of `reduced_basis(I_f)` and the least
    residue mod n of x*(a^-1 mod N) over the unit orbit of x, the generator
    x = g1*conj(h1)/A of I_f*conj(I_base).  Here g1 is `reduced_basis`'s
    vector of I_f, h1 that of I_base, and base the list's first form in
    I_f's class.

    Why x generates I_f*conj(I_base): both reduced bases are positively
    oriented, every step having determinant 1, and both have the norm form
    (A, B, C) times their ideal's norm.  So g_i -> h_i is an
    orientation-preserving similarity of the plane, multiplication by
    gamma = g1/h1, and I_f = gamma*I_base.  Then
    I_f*conj(I_base) = gamma*N(I_base) = (g1*conj(h1)/A), since
    N(h1) = A*N(I_base).  Any two such bases differ by a proper automorph
    of the reduced form, which is +-1, or a unit at d = -3, -4, so x is
    fixed up to a unit and the least residue over its unit orbit absorbs
    it: the orbit is the generator set of I_f*conj(I_base).

    Equal labels mean ray equivalence.  The generators are eps*g with
    N(g) = a*a_base, so I1*conj(I2) is generated by eps*g1*conj(g2)/a_base,
    and "some generator over a1 is = 1 mod* n" becomes, times g2/(a1*a2),
    eps*g1/a1 = g2/a2 mod* n.  Each g is prime to n, as N(g) = a*a_base and
    this call checks both prime to N; so g/a = g*(a^-1 mod N) mod* n.
    """
    disc, N = mod.disc, mod.c
    conjs: dict[tuple[int, int, int], tuple[int, int]] = {}
    keys = []
    for form in forms:
        _require_form(form, mod)
        g1, name = reduced_basis(_form_ideal(form, disc))
        if name not in conjs:
            conjs[name] = (-g1[0], g1[1] - disc.b0 * g1[0])
        xu, xv = disc.mul(g1, conjs[name])
        if xu % name[0] or xv % name[0]:
            raise InternalCheckError(f"g1*conj(h1) is not divisible by {name[0]} for {form} in class {name}")
        a_inv = pow(form.a, -1, N)
        x = (xu // name[0] * a_inv, xv // name[0] * a_inv)
        keys.append((name, min(mod.residue(*disc.mul(eps, x)) for eps in disc.unit_coords())))
    return keys


def witness_matrix(form: QuadForm, mod: IdealTriple, k: int, j: int) -> UnimodMatrix:
    """A matrix meeting the witness congruence for the form, parametrized by
    two free integers: k picks the bottom-left entry a1*k mod N, j shears
    the top row.  Acting by its inverse yields a form in the same class.
    The bottom row lifts (r, 1 + slope*r mod N), r = a1*k: the lift moves r
    by multiples of N, which a1 divides, and the congruence reads r mod N.
    """
    _require_form(form, mod)
    N, r = mod.c, mod.a1 * k
    g = t_power(j) @ lift_bottom_row((r, (1 + _witness_slope(form, mod) * r) % N), N)
    if not _satisfies_witness(g, form, mod):
        raise InternalCheckError(f"constructed matrix {g} fails the congruence")
    return g


def class_translate(form: QuadForm, mod: IdealTriple, k: int, j: int) -> QuadForm | None:
    """A different representative of the form's class, or None when the
    leading coefficient shares a factor with N or the matrix fixes the form
    (k = j = 0 gives the identity or an automorph).  It lies in the class by
    the definition `equivalent` tests: act(moved, g) == form, and
    `witness_matrix` checks that g meets the congruence for the form."""
    g = witness_matrix(form, mod, k, j)
    moved = act(form, g.inv())
    if moved == form or math.gcd(moved.a, mod.c) != 1:
        return None
    return moved


def _row_key(form: QuadForm, row: RowVec, mod: IdealTriple) -> tuple[int, int]:
    """Canonical label of the row's class under the row congruence.

    The row (u, v) stands for x = a*(u*omega + v) = u*tau + w with
    w = u*(b0 - b)/2 + v*a; two rows are congruent when x agrees mod the
    modulus up to a unit, so the label is the least residue of the unit
    orbit of x, all in integer (tau, 1) coordinates.
    """
    u, v = row
    disc = mod.disc
    w = u * _half(disc.b0 - form.b) + v * form.a
    key = None
    for eu, ev in disc.unit_coords():
        # eps*x with tau^2 = -b0*tau - c0, reduced as in IdealTriple.residue;
        # written out rather than through Discriminant.mul, so class keys
        # share no arithmetic with the ideal route that checks them
        xu = eu * (w - u * disc.b0) + ev * u
        xv = ev * w - eu * u * disc.c0
        residue = (xu % mod.a1, (xv - xu // mod.a1 * mod.a2) % mod.c)
        if key is None or residue < key:
            key = residue
    return key


def row_classes(
    form: QuadForm, mod: IdealTriple, fiber: int
) -> tuple[tuple[tuple[int, int], RowVec], ...]:
    """The (key, row) pairs of the lexicographically least admissible row of
    each row class, keyed by `_row_key`, in row order, up to the row that
    completes `fiber` keys.  A row (u, v) mod N is admissible, indexing a
    torsion point of the form (a, b, c), when
    gcd(N, a*v^2 - b*u*v + c*u^2) = 1.  The form must be in Q_N(dK); it is
    not checked here.

    Every reduced form's fiber in the ray class group holds h/h_K classes
    (Cox, §7: 1 -> (O/n)^*/im O^* -> Cl_n -> Cl_K -> 1), so once the scan
    holds that many keys no later row can add one and it stops.  The stop
    is checked by `enumerate_classes`: a fault that splits a class leaves
    two keys of one class, which the ideal keys see, and one that merges two
    classes runs out of rows short of the fiber, which the count sees."""
    N = mod.c
    a, b, c = form
    reps: dict[tuple[int, int], RowVec] = {}
    for u in range(N):
        for v in range(N):
            if math.gcd(N, a * v * v - b * u * v + c * u * u) == 1:
                reps.setdefault(_row_key(form, (u, v), mod), (u, v))
                if len(reps) == fiber:
                    return tuple(reps.items())
    return tuple(reps.items())


def _key_at(form: QuadForm, row: RowVec, mod: IdealTriple, normals: Normals) -> ClassKey:
    """Class key of act(form, sigma^-1) for any sigma with bottom row = row
    mod N: the reduced form plus the row key of row*g^-1*n, with form ==
    act(red, g) and (normalized, n) = coprime_normalize(red, N), read from
    `normals`, a dict of the caller's that maps reduced forms to those pairs
    and is filled here with any it lacks.  The row product is taken on ints.

    `group_table` keys each cell from `_compose_parts` this way, with the
    pairs `enumerate_classes` made for every reduced form, and the key
    equals `class_key(compose(f1, f2))`.  The representative `compose`
    builds is act(product, sigma^-1), with sigma's bottom row = (x, y)
    mod N; reducing the product as act(red, g_p), the representative is
    act(red, g_p*sigma^-1), whose reduction witness is h*g_p*sigma^-1 for
    some automorph h of red.  Its key row is then (x, y)*g_p^-1*h^-1*n
    mod N, and n^-1*h^-1*n fixes the normalized form, so it multiplies the
    row's field element by a unit; `_row_key` reads the row mod N and takes
    the least residue over the unit orbit, which absorbs both, the same
    invariance `class_key` relies on for any form of the class.  The form
    must be in Q_N(dK); it is not checked here.
    """
    red, g = reduce(form)
    if red not in normals:
        normals[red] = coprime_normalize(red, mod.c)
    normalized, n = normals[red]
    u, v = row
    # row*g^-1, with g^-1 = [[s, -q], [-r, p]]
    x, y = u * g.s - v * g.r, v * g.p - u * g.q
    return red, _row_key(normalized, (x * n.p + y * n.r, x * n.q + y * n.s), mod)


def class_key(form: QuadForm, mod: IdealTriple) -> ClassKey:
    """Canonical label of the form's class: its reduced form plus the row
    key of the matrix carrying the coprime-normalized reduced form to it,
    `_key_at` the row (0, 1).

    Two forms share a key exactly when `equivalent` joins them.  The form
    must be in Q_N(dK); it is not checked here.
    """
    return _key_at(form, (0, 1), mod, {})


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
            for l in (-rem, rem) if rem else (0,):
                r = u + k * level
                s = v + l * level
                if math.gcd(r, s) == 1:
                    _, x, y = _egcd(s, r)
                    return UnimodMatrix(x, -y, r, s)
    raise InternalCheckError(f"no coprime lift of {row} mod {level} within bound")


def enumerate_classes(mod: IdealTriple) -> ClassGroup:
    """All classes of the modulus, each as an explicit representative form.

    Walks the reduced forms, renormalizes leading coefficients against the
    level, splits the admissible rows into congruence classes and pulls each
    back through a lifted matrix, keyed by the reduced form and row it was
    built from: its `class_key`, with no form reduced.  Each reduced form's
    fiber holds h/h_K classes, h the ideal-theoretic ray class number and
    h_K the number of reduced forms, so its row scan stops at h // h_K keys.
    The least reduced form is principal and its first row (0, 1) lifts to
    the identity, so the first class built is the identity, checked against
    the principal form.

    The representatives must have distinct `ideal_keys` and their count must
    equal h, so neither a miscount nor a wrong stop can pass silently:
    - a row key that splits a class stops a scan holding two keys of one
      class, and the ideal keys collide;
    - a row key that merges two classes runs a scan out of rows short of
      its fiber, and the count falls short;
    - a duplicated reduced form walks the rows of its twin, whose classes
      collide; a missing one leaves the count short;
    - h_K not dividing h leaves the count short, since no fiber yields more
      than h // h_K keys.
    """
    return _enumerate(mod)[0]


def _enumerate(mod: IdealTriple) -> tuple[ClassGroup, Normals]:
    """`enumerate_classes`, with the dict of each reduced form's
    `coprime_normalize(base, N)` pair that it built the classes from, which
    `group_table` hands to `_key_at`."""
    disc, N = mod.disc, mod.c
    bases = reduced_forms(disc)
    expected = ray_class_number_oracle(disc, mod)
    fiber = expected // len(bases)
    reps: list[FormClass] = []
    normals: Normals = {}
    for base in bases:
        normalized, _ = normals[base] = coprime_normalize(base, N)
        for key, row in row_classes(normalized, mod, fiber):
            gamma = lift_bottom_row(row, N)
            rep = act(normalized, gamma.inv())
            reps.append(FormClass(rep, (base, key)))
    # collisions first: a duplicated reduced form may also miscount the fiber
    if len(set(ideal_keys([fc.rep for fc in reps], mod))) != len(reps):
        raise InternalCheckError("two representatives collide under the ideal key")
    if len(reps) != expected:
        raise InternalCheckError(
            f"enumerated {len(reps)} classes, oracle says {expected}"
            f" over {len(bases)} reduced forms"
        )
    if reps[0].rep != QuadForm(1, disc.b0, disc.c0):
        raise InternalCheckError(f"first class built is {reps[0].rep}, not the principal form")
    classes = (reps[0], *sorted(reps[1:], key=lambda fc: fc.rep.coeffs()))
    index = {fc.key: i for i, fc in enumerate(classes)}
    if len(index) != len(classes):
        raise InternalCheckError("two representatives share a class key")
    return ClassGroup(mod, classes, index), normals


def _compose_parts(
    form1: QuadForm, moved: QuadForm, gamma: UnimodMatrix, mod: IdealTriple
) -> tuple[QuadForm, RowVec]:
    """Dirichlet composition up to its correcting row: the product form and
    the bottom row (x, y) mod N of the matrix that `compose` moves it by.

    moved = act(form2, gamma) is the second form moved inside its class by
    the caller, gamma with bottom row (r, s), so that its leading
    coefficient a2 is prime to 2*a (`compose` moves it against 2*a*N*|d|,
    and `group_table` reuses one move for every a it is prime to); a
    shared factor raises.  The middle coefficient B of the product
    (a*a2, B, .) is aligned by CRT.  With omega(Q) the upper-half-plane
    root of Q(x, 1), the correcting matrix has the bottom row (x, y) with
    r*omega(moved) + s = x*omega(product) + y.  Comparing coordinates over
    (tau, 1) gives x = a*r and y = s + r*(B - b2)/(2*a2), an integer since
    B = b2 mod 2*a2.  The forms must be in Q_N(dK); they are not checked
    here.
    """
    N, d = mod.c, mod.disc.d
    a, b = form1.a, form1.b
    a2, b2 = moved.a, moved.b
    if math.gcd(a2, 2 * a) != 1:
        raise InternalCheckError(f"moved form {moved} shares a factor with 2*{a}")
    # B = b mod 2a, B = b2 mod 2a2, solvable as gcd(2a, 2a2) = 2
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
    return product, (x % N, y % N)


def compose(form1: QuadForm, form2: QuadForm, mod: IdealTriple) -> QuadForm:
    """Class composition compatible with ideal multiplication: form2 moved
    inside its class to a leading coefficient prime to 2*a*N*|d| (to 2, N
    and the discriminant too, stronger than `_compose_parts` needs but
    cheap), then the product form of `_compose_parts` moved by the inverse
    of `lift_bottom_row` of its correcting row, a representative prime to
    N.  `group_table` keys its cells from the product and the row alone,
    with no representative."""
    _require_form(form1, mod)
    _require_form(form2, mod)
    moved, gamma = coprime_normalize(form2, 2 * form1.a * mod.c * abs(mod.disc.d))
    product, row = _compose_parts(form1, moved, gamma, mod)
    result = act(product, lift_bottom_row(row, mod.c).inv())
    if math.gcd(result.a, mod.c) != 1 or result.content() != 1 or result.a <= 0:
        raise InternalCheckError(f"composite representative {result} is invalid")
    return result


def _class_at(key: ClassKey, group: ClassGroup) -> int:
    """Position of the class key among the enumerated classes."""
    idx = group.index.get(key)
    if idx is None:
        raise InternalCheckError(f"class key {key} matches no enumerated class")
    return idx


def _class_index(form: QuadForm, group: ClassGroup) -> int:
    return _class_at(class_key(form, group.modulus), group)


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


def group_table(mod: IdealTriple) -> ClassGroup:
    """Enumerate the classes and fill in the full composition table plus the
    invariant factor decomposition.

    The group is abelian, so the table follows from generator rows: h*r
    composed cells for r generators, not h^2.  Each generator g is the first
    class not yet reached; its row pi_g[x] = index(x*g) is composed directly,
    each cell keyed by `_key_at` from the product form and correcting row of
    `_compose_parts`, with no representative built, and looked up in
    `ClassGroup.index`; a key that matches no class raises.  Each
    normalization is done once per input it depends on: the row keeps a
    list of moves of g, starting with `coprime_normalize(g, 2*N*|d|)`, and
    a cell takes the first whose leading coefficient is prime to x's,
    adding `coprime_normalize(g, 2*N*|d|*a_x)` only when none is (8 moves
    for the 90 cells of dK=-23 `1,8,31`); `_key_at` reads each reduced
    product's normalization from the dict `_enumerate` built the classes
    from.  One move against 2*N*|d| times the lcm of all a_x would serve
    the whole row, but at dK=-23 `1,784,1013` (h=1518) that lcm has 16,837
    bits, and its one search costs more than the list's 8 moves (5.5 ms
    against 0.08 ms in all, Python 3.11.7 on a 2-core x86-64 machine).
    Each generator row must be a permutation with pi_g[0] = g commuting
    with every earlier one; closure gives each new class x*g the row
    pi_g o row(x), a product of generator rows sending 0 to x.  Commuting permutations that reach
    every class from 0 act regularly (what fixes 0 fixes every class), so
    the table is the abelian group they generate: symmetric, with
    table[x][g] = pi_g[x], and one generator leaves nothing to check.
    Faults that keep all that pass: at dK=-20 `2,4,6`, 2 of the 6 swaps of
    two cells of the first generator row and 1 of the 3 of cells x, y >= 1
    of the second give wrong tables.  These, and compose faults on pairs
    without a generator or in the lift of `compose`, are left to `verify`
    and the ideal-product check of each cell (ROADMAP item 1).
    """
    group, normals = _enumerate(mod)
    size = len(group.classes)
    reps = [fc.rep for fc in group.classes]
    level = 2 * mod.c * abs(mod.disc.d)
    rows, generators = {0: tuple(range(size))}, []
    while len(rows) < size:
        g = next(x for x in range(size) if x not in rows)
        moves, cells = [coprime_normalize(reps[g], level)], []
        for rep in reps:
            move = next((m for m in moves if math.gcd(m[0].a, rep.a) == 1), None)
            if move is None:
                move = coprime_normalize(reps[g], level * rep.a)
                moves.append(move)
            cells.append(_class_at(_key_at(*_compose_parts(rep, *move, mod), mod, normals), group))
        pi = tuple(cells)
        if pi[0] != g or len(set(pi)) != size:  # row 0 is the identity by construction
            raise InternalCheckError(f"generator row {g} is not a permutation sending 0 to {g}")
        if any(pi[q[x]] != q[pi[x]] for q in generators for x in range(size)):
            raise InternalCheckError(f"generator row {g} does not commute with an earlier one")
        generators.append(pi)
        reached = list(rows)
        for x in reached:
            if pi[x] not in rows:
                rows[pi[x]] = tuple([pi[y] for y in rows[x]])
                reached.append(pi[x])
    table = tuple(rows[x] for x in range(size))
    return group._replace(table=table, invariant_factors=_invariant_factors(table))


def descriptor(form: QuadForm, mod: IdealTriple) -> GaloisDescriptor:
    """Exact Galois-action data of the class of the form: the twisted index,
    the evaluation matrix, and the conjugate root as base point, the root
    tau/a + (b0 + b)/(2a) of (a, -b, c)."""
    _require_form(form, mod)
    N, a = mod.c, form.a
    off = canonical_offset(form, mod)
    if off % a:
        raise InternalCheckError("offset not divisible by the leading coefficient")
    return GaloisDescriptor(
        a_inv=pow(a, -1, N),
        eval_matrix=((mod.a1, off // a), (0, N)),
        point=QuadForm(a, -form.b, form.c),
    )


def class_group_to_json(group: ClassGroup) -> dict:
    return {
        "dK": group.modulus.disc.d,
        "ideal": str(group.modulus),
        "classes": [fc.rep._asdict() for fc in group.classes],
        "table": group.table,
        "invariant_factors": group.invariant_factors,
    }

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rayform.forms import reduced_forms
from rayform.qfield import (
    _coprime,
    QFieldError,
    canonicalize_ideal,
    class_number,
    crt2,
    ideal_product,
    is_mult_congruent_one,
    make_discriminant,
    make_ideal_triple,
    minimal_norm_elements,
    parse_ideal_triple,
    ray_class_number_oracle,
)

from rayform.rayclass import point_coords

from conftest import fraction_point_form, valid_triples

D20 = make_discriminant(-20)
D23 = make_discriminant(-23)
D4 = make_discriminant(-4)
D3 = make_discriminant(-3)

TRIPLES20 = valid_triples(D20)
TRIPLES23 = valid_triples(D23)

st_rational = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
st_disc = st.sampled_from([D20, D23, D4, D3, make_discriminant(-7)])


@st.composite
def st_pair(draw, nonzero_second=False):
    """A field and two rational coordinate pairs (u, v) over (tau, 1)."""
    d = draw(st_disc)
    x = draw(st_rational), draw(st_rational)
    y = draw(st_rational), draw(st_rational)
    if nonzero_second and y == (0, 0):
        y = (0, 1)
    return d, x, y


def test_discriminant_validation():
    assert (D20.b0, D20.c0) == (0, 5)
    assert (D23.b0, D23.c0) == (1, 6)
    for bad in (0, 4, -21, -12, -100, -9):
        with pytest.raises(QFieldError):
            make_discriminant(bad)


def _conj(d, x):
    # complex conjugation: tau + conj(tau) = -b0
    u, v = x
    return -u, v - u * d.b0


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def test_conjugate_and_norm_examples():
    assert _conj(D20, (1, 0)) == (-1, 0)
    assert D20.norm(2, 4) == 36 == round(abs(_embed(D20, 2, 4)) ** 2)
    assert _conj(D23, (1, 0)) == (-1, -1)
    assert _embed(D23, -1, -1) == _embed(D23, 1, 0).conjugate()


@given(st_pair())
def test_mul_norm_multiplicative(pair):
    d, x, y = pair
    assert d.norm(*d.mul(x, y)) == d.norm(*x) * d.norm(*y)


@given(st_pair())
def test_conj_is_ring_map(pair):
    d, x, y = pair
    assert _conj(d, _add(x, y)) == _add(_conj(d, x), _conj(d, y))
    assert _conj(d, d.mul(x, y)) == d.mul(_conj(d, x), _conj(d, y))
    assert _conj(d, _conj(d, x)) == x


@given(st_pair(nonzero_second=True))
def test_division_roundtrip(pair):
    # dividing by y is multiplying by conj(y)/norm(y)
    d, x, y = pair
    n = d.norm(*y)
    u, v = d.mul(d.mul(x, y), _conj(d, y))
    assert (u / n, v / n) == x


@given(st_pair())
def test_norm_is_product_with_conjugate(pair):
    d, x, _ = pair
    assert d.mul(x, _conj(d, x)) == (0, d.norm(*x))


def test_tau_satisfies_minimal_polynomial():
    for d in (D20, D23, D4, D3):
        assert _add(d.mul((1, 0), (1, 0)), (d.b0, d.c0)) == (0, 0)
        tau = _embed(d, 1, 0)
        assert abs(tau * tau + d.b0 * tau + d.c0) < 1e-12


def _embed(disc, u, v):
    # u*tau + v in C, tau = (-b0 + i*sqrt|d|)/2, sharing nothing with Discriminant.mul
    return u * complex(-disc.b0 / 2, math.sqrt(-disc.d) / 2) + v


def _coords(disc, z):
    # the integer (tau, 1) coordinates of a complex number near the order
    u = round(2 * z.imag / math.sqrt(-disc.d))
    return u, round(z.real + u * disc.b0 / 2)


@pytest.mark.parametrize("dk", [-3, -4, -20, -23])
def test_mul_and_norm_match_complex_embedding(dk):
    disc = make_discriminant(dk)
    box = [(u, v) for u in range(-5, 6) for v in range(-5, 6)]
    for x in box:
        zx = _embed(disc, *x)
        assert disc.norm(*x) == round(abs(zx) ** 2)
        assert abs(disc.norm(*x) - abs(zx) ** 2) < 1e-9
        for y in box[::3]:
            prod = disc.mul(x, y)
            z = zx * _embed(disc, *y)
            assert prod == _coords(disc, z), (x, y)
            assert abs(_embed(disc, *prod) - z) < 1e-9
    half = disc.mul((Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3)))
    assert all(isinstance(c, Fraction) for c in half)
    assert cmath.isclose(_embed(disc, *map(float, half)),
                         _embed(disc, 0.5, 1) * _embed(disc, 1 / 3, 2 / 3))
    assert all(type(c) is int for c in disc.mul((2, -1), (3, 4)))


def test_canonicalize_example_ideal():
    n = canonicalize_ideal(D20, [(2, 4), (0, 6)])
    assert (n.a1, n.a2, n.c) == (2, 4, 6)
    swapped = canonicalize_ideal(D20, [(0, 6), (2, 4)])
    assert (swapped.a1, swapped.a2, swapped.c) == (2, 4, 6)
    unit = canonicalize_ideal(D20, [(1, 0), (0, 1)])
    assert (unit.a1, unit.a2, unit.c) == (1, 0, 1)


@pytest.mark.parametrize(
    "rows", [[(2, 4), (1, 2)], [(0, 6), (0, 3)], [(0, 0), (0, 0)], [(2, 0), (0, 3)]]
)
def test_canonicalize_rejects(rows):
    # rank deficient rows, and a lattice not closed under the order
    with pytest.raises(QFieldError):
        canonicalize_ideal(D20, rows)


@pytest.mark.parametrize("triple", TRIPLES20 + TRIPLES23, ids=str)
def test_canonicalize_roundtrip(triple):
    again = canonicalize_ideal(triple.disc, list(triple.rows()))
    assert (again.a1, again.a2, again.c) == (triple.a1, triple.a2, triple.c)


@given(
    st.sampled_from(TRIPLES20 + TRIPLES23),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_canonicalize_basis_independent(triple, p, q, r):
    # mix the rows by a unimodular change; the triple must not move
    s_entry = (1 + q * r) // p if p != 0 and (1 + q * r) % p == 0 else None
    if p == 0:
        if q * r != -1:
            return
        mat = (0, q, r, 3)
    elif s_entry is None:
        return
    else:
        mat = (p, q, r, s_entry)
    (u1, v1), (u2, v2) = triple.rows()
    r1 = (u1 * mat[0] + u2 * mat[1], v1 * mat[0] + v2 * mat[1])
    r2 = (u1 * mat[2] + u2 * mat[3], v1 * mat[2] + v2 * mat[3])
    again = canonicalize_ideal(triple.disc, [r1, r2])
    assert (again.a1, again.a2, again.c) == (triple.a1, triple.a2, triple.c)


def test_ideal_product_examples():
    unit = make_ideal_triple(D20, 1, 0, 1)
    n = make_ideal_triple(D20, 2, 4, 6)
    assert ideal_product(n, unit) == n
    p2 = make_ideal_triple(D20, 1, 1, 2)
    sq = ideal_product(p2, p2)
    # the prime above 2 is ramified: its square is 2*O, canonical (2,0,2)
    assert (sq.a1, sq.a2, sq.c) == (2, 0, 2)


def _embedded_product_triple(s, t):
    # the four products of the rows through the complex embedding, rounded,
    # then the HNF from 2x2 minors: the lattice determinant is their gcd, and
    # (a1, a2) is the row whose adjunction leaves the determinant unchanged
    disc = s.disc
    rows = [_coords(disc, _embed(disc, *x) * _embed(disc, *y)) for x in s.rows() for y in t.rows()]
    a1 = math.gcd(*(u for u, _ in rows))
    det = math.gcd(*(u1 * v2 - v1 * u2 for u1, v1 in rows for u2, v2 in rows))
    c = det // a1
    (a2,) = [w for w in range(c) if math.gcd(det, *(u * w - v * a1 for u, v in rows)) == det]
    return a1, a2, c


@pytest.mark.parametrize(
    "triples",
    [TRIPLES20, TRIPLES23, valid_triples(D3, 7), valid_triples(D4, 7)],
    ids=["-20", "-23", "-3", "-4"],
)
def test_ideal_product_matches_embedding(triples):
    for s in triples:
        for t in triples:
            p = ideal_product(s, t)
            assert (p.a1, p.a2, p.c) == _embedded_product_triple(s, t), (s, t)


@given(st.sampled_from(TRIPLES20), st.sampled_from(TRIPLES20))
def test_ideal_product_norm_multiplicative(s, t):
    assert ideal_product(s, t).norm() == s.norm() * t.norm()


def test_ideal_norm_examples():
    assert make_ideal_triple(D20, 2, 4, 6).norm() == 12
    assert make_ideal_triple(D20, 1, 0, 1).norm() == 1


def test_is_coprime():
    n = make_ideal_triple(D20, 2, 4, 6)
    assert _coprime(0, 7, n)
    assert _coprime(0, 1, n)
    assert not _coprime(n.a1, n.a2, n)
    assert not _coprime(0, 0, n)
    p2 = make_ideal_triple(D20, 1, 1, 2)
    two = make_ideal_triple(D20, 2, 0, 2)
    assert not _coprime(0, 2, p2)
    assert not _coprime(1, 1, two)
    # independent route: x is coprime to t exactly when it is a unit mod t
    for t in TRIPLES20[:8] + TRIPLES23[:8] + valid_triples(D3, 7) + valid_triples(D4, 7):
        box = [(u, v) for u in range(t.a1) for v in range(t.c)]
        for x in box:
            unit = any(t.residue(u, v - 1) == (0, 0) for u, v in (t.disc.mul(x, y) for y in box))
            assert _coprime(*x, t) == unit, (t, x)


def _principal_ideal(d, x):
    return canonicalize_ideal(d, [d.mul(x, (1, 0)), x])


def test_minimal_norm_elements():
    unit = make_ideal_triple(D20, 1, 0, 1)
    assert minimal_norm_elements(unit) == ((0, -1), (0, 1))

    p2 = make_ideal_triple(D20, 1, 1, 2)
    assert minimal_norm_elements(p2) == ()

    twotau = _principal_ideal(D20, (2, 0))
    gens = minimal_norm_elements(twotau)
    assert (2, 0) in gens and (-2, 0) in gens


def test_principal_ideal_norm():
    assert _principal_ideal(D20, (1, 3)).norm() == 14 == round(abs(_embed(D20, 1, 3)) ** 2)


def test_mult_congruence_examples():
    n = make_ideal_triple(D20, 2, 4, 6)
    assert is_mult_congruent_one(0, 1, 1, n)
    assert not is_mult_congruent_one(0, -1, 1, n)
    assert is_mult_congruent_one(2, 5, 1, n)  # 1 + (2*tau + 4)
    assert is_mult_congruent_one(14, 35, 7, n)  # the same element over 7


@given(st.sampled_from(TRIPLES20 + TRIPLES23))
def test_mult_congruence_generator_shift(t):
    assert is_mult_congruent_one(t.a1, t.a2 + 1, 1, t)
    assert is_mult_congruent_one(0, t.c + 1, 1, t)


def test_mult_congruence_multiplicative():
    n = make_ideal_triple(D20, 2, 4, 6)
    xs = [(2, 5), (0, 7), (4, 9)]
    for x in xs:
        for y in xs:
            assert is_mult_congruent_one(*D20.mul(x, y), 1, n)


def test_mult_congruence_rejects_noncoprime():
    n = make_ideal_triple(D20, 2, 4, 6)
    with pytest.raises(QFieldError):
        is_mult_congruent_one(0, 1, 2, n)
    with pytest.raises(QFieldError):
        is_mult_congruent_one(0, 2, 1, n)
    with pytest.raises(QFieldError):
        is_mult_congruent_one(0, 0, 1, n)


def _congruent_one_by_fractions(u, v, m, t):
    # the definition on x = (u*tau + v)/m in Fraction arithmetic: least
    # denominator m first, then coprimality and alpha - m in the ideal;
    # None where the congruence is undefined
    x = (Fraction(u, m), Fraction(v, m))
    m = math.lcm(x[0].denominator, x[1].denominator)
    au, av = int(x[0] * m), int(x[1] * m)
    if math.gcd(m, t.c) != 1 or not _coprime(au, av, t):
        return None
    return au % t.a1 == 0 and (av - m - au // t.a1 * t.a2) % t.c == 0


@pytest.mark.parametrize(
    "dk, ideal",
    [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (5, 0, 5)), (-4, (2, 2, 4))],
)
def test_mult_congruence_matches_fraction_definition(dk, ideal):
    t = make_ideal_triple(make_discriminant(dk), *ideal)
    seen = set()
    for m in (m for m in range(1, 13) if math.gcd(m, t.c) == 1):
        for u in range(-7, 8):
            for v in range(-7, 8):
                ref = _congruent_one_by_fractions(u, v, m, t)
                if ref is None:
                    with pytest.raises(QFieldError):
                        is_mult_congruent_one(u, v, m, t)
                else:
                    assert is_mult_congruent_one(u, v, m, t) == ref, (u, v, m)
                seen.add(ref)
    assert seen == {None, True, False}


def test_class_numbers():
    assert class_number(D20) == 2
    assert class_number(D23) == 3
    assert class_number(D4) == 1
    assert class_number(D3) == 1
    assert class_number(make_discriminant(-71)) == 7
    assert class_number(make_discriminant(-111)) == 8


def test_class_number_formula_counts_reduced_forms():
    # Dirichlet's formula against the reduced-form walk it replaced as oracle
    count = 0
    for d in range(-2000, -2):
        try:
            disc = make_discriminant(d)
        except QFieldError:
            continue
        assert class_number(disc) == len(reduced_forms(disc)), d
        count += 1
    assert count == 611


def test_ray_class_number_examples():
    assert ray_class_number_oracle(D20, make_ideal_triple(D20, 2, 4, 6)) == 4
    assert ray_class_number_oracle(D23, make_ideal_triple(D23, 3, 9, 12)) == 12
    assert ray_class_number_oracle(D20, make_ideal_triple(D20, 1, 1, 2)) == 2


def test_ray_class_number_rejects_unit_ideal():
    with pytest.raises(QFieldError):
        ray_class_number_oracle(D20, make_ideal_triple(D20, 1, 0, 1))


def test_triple_norm_divisibility():
    for t in TRIPLES20 + TRIPLES23:
        assert t.disc.norm(t.a1, t.a2) % t.c == 0


def test_triple_least_positive_integer():
    for t in TRIPLES20[:8]:
        for k in range(1, t.c):
            assert t.residue(0, k) != (0, 0)
        assert t.residue(0, t.c) == (0, 0)


def test_make_triple_rejections():
    with pytest.raises(QFieldError):
        make_ideal_triple(D20, 2, 5, 6)
    with pytest.raises(QFieldError):
        make_ideal_triple(D20, 2, 4, 7)
    with pytest.raises(QFieldError):
        make_ideal_triple(D20, 0, 0, 1)
    # norm(tau+1) = 6 is not divisible by 4
    with pytest.raises(QFieldError):
        make_ideal_triple(D20, 1, 1, 4)


def test_parse_triple():
    t = parse_ideal_triple(D20, "2,4,6")
    assert (t.a1, t.a2, t.c) == (2, 4, 6)
    with pytest.raises(QFieldError):
        parse_ideal_triple(D20, "2;4;6")
    with pytest.raises(QFieldError):
        parse_ideal_triple(D20, "2,4")


def test_crt2():
    assert crt2(1, 4, 3, 6) % 4 == 1
    assert crt2(1, 4, 3, 6) % 6 == 3
    assert crt2(0, 1, 5, 7) == 5
    with pytest.raises(QFieldError):
        crt2(0, 4, 1, 6)


@given(st_disc, st_rational.filter(lambda u: u > 0), st_rational)
def test_element_json_roundtrip(d, u, v):
    """A field point u*tau + v in the upper half plane, as the form the
    trace and norm give it, prints back as (u, v) in the descriptor JSON."""
    coords = point_coords(fraction_point_form(d, u, v), d)
    assert tuple(Fraction(str(c)) for c in coords) == (u, v)


@settings(max_examples=60)
@given(st.sampled_from([D20, D23]), st.integers(0, 400))
def test_triple_norm_lattice_consistency(d, seed):
    triples = TRIPLES20 if d is D20 else TRIPLES23
    t = triples[seed % len(triples)]
    assert t.norm() == t.a1 * t.c
    (u1, v1), (u2, v2) = t.rows()
    assert u1 * v2 - v1 * u2 == t.norm()

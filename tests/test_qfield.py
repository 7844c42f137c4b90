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
    element_to_json,
    ideal_product,
    is_mult_congruent_one,
    make_discriminant,
    make_ideal_triple,
    make_lattice_basis,
    minimal_norm_elements,
    parse_ideal_triple,
    ray_class_number_oracle,
)

from conftest import valid_triples

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
def st_element(draw, nonzero=False):
    d = draw(st_disc)
    u = draw(st_rational)
    v = draw(st_rational)
    x = d.element(u, v)
    if nonzero and x.is_zero():
        x = d.element(u, v + 1)
    return x


def same_disc_pair(draw, nonzero_second=False):
    x = draw(st_element())
    u = draw(st_rational)
    v = draw(st_rational)
    y = x.disc.element(u, v)
    if nonzero_second and y.is_zero():
        y = x.disc.element(u, v + 1)
    return x, y


st_pair = st.composite(same_disc_pair)
st_pair_nonzero = st.composite(lambda draw: same_disc_pair(draw, nonzero_second=True))


def test_discriminant_validation():
    assert (D20.b0, D20.c0) == (0, 5)
    assert (D23.b0, D23.c0) == (1, 6)
    for bad in (0, 4, -21, -12, -100, -9):
        with pytest.raises(QFieldError):
            make_discriminant(bad)


def test_conjugate_and_norm_examples():
    tau = D20.tau()
    assert tau.conj() == D20.element(-1, 0)
    assert (tau * 2 + 4).norm() == 36
    assert D23.tau().conj() == D23.element(-1, -1)


@given(st_pair())
def test_mul_norm_multiplicative(pair):
    x, y = pair
    assert (x * y).norm() == x.norm() * y.norm()


@given(st_pair())
def test_conj_is_ring_map(pair):
    x, y = pair
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@given(st_pair_nonzero())
def test_division_roundtrip(pair):
    x, y = pair
    assert (x / y) * y == x


@given(st_element())
def test_norm_is_product_with_conjugate(x):
    prod = x * x.conj()
    assert prod.u == 0
    assert prod.v == x.norm()


def test_tau_satisfies_minimal_polynomial():
    for d in (D20, D23, D4, D3):
        tau = d.tau()
        assert (tau * tau + tau * d.b0 + d.c0).is_zero()


def test_canonicalize_example_ideal():
    tau = D20.tau()
    n = canonicalize_ideal(make_lattice_basis(tau * 2 + 4, D20.element(0, 6)))
    assert (n.a1, n.a2, n.c) == (2, 4, 6)
    swapped = canonicalize_ideal(make_lattice_basis(D20.element(0, 6), tau * 2 + 4))
    assert (swapped.a1, swapped.a2, swapped.c) == (2, 4, 6)
    unit = canonicalize_ideal(make_lattice_basis(tau, D20.one()))
    assert (unit.a1, unit.a2, unit.c) == (1, 0, 1)


@pytest.mark.parametrize("triple", TRIPLES20 + TRIPLES23, ids=str)
def test_canonicalize_roundtrip(triple):
    basis = triple.lattice()
    again = canonicalize_ideal(basis)
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
    b = triple.lattice()
    r1 = b.g1 * mat[0] + b.g2 * mat[1]
    r2 = b.g1 * mat[2] + b.g2 * mat[3]
    again = canonicalize_ideal(make_lattice_basis(r1, r2))
    assert (again.a1, again.a2, again.c) == (triple.a1, triple.a2, triple.c)


def test_ideal_product_examples():
    unit = make_ideal_triple(D20, 1, 0, 1)
    n = make_ideal_triple(D20, 2, 4, 6)
    assert ideal_product(n, unit) == n
    p2 = make_ideal_triple(D20, 1, 1, 2)
    sq = ideal_product(p2, p2)
    # the prime above 2 is ramified: its square is 2*O, canonical (2,0,2)
    assert (sq.a1, sq.a2, sq.c) == (2, 0, 2)


@given(st.sampled_from(TRIPLES20), st.sampled_from(TRIPLES20))
def test_ideal_product_norm_multiplicative(s, t):
    assert ideal_product(s, t).norm() == s.norm() * t.norm()


def test_ideal_norm_examples():
    n = make_ideal_triple(D20, 2, 4, 6)
    assert n.lattice().det() == 12
    # [omega, 1] for the form 2x^2+2xy+3y^2 has norm 1/a
    omega = D20.element(Fraction(1, 2), Fraction(-1, 2))
    assert make_lattice_basis(omega, D20.one()).det() == Fraction(1, 2)
    assert make_lattice_basis(D20.tau(), D20.one()).det() == 1


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
        box = [t.disc.element(u, v) for u in range(t.a1) for v in range(t.c)]
        for x in box:
            unit = any(t.contains(x * y - 1) for y in box)
            assert _coprime(int(x.u), int(x.v), t) == unit, (t, x)


def _principal_ideal(x):
    return canonicalize_ideal(make_lattice_basis(x * x.disc.tau(), x))


def test_minimal_norm_elements():
    unit = make_ideal_triple(D20, 1, 0, 1)
    gens = minimal_norm_elements(unit.lattice())
    assert set(gens) == {D20.one(), -D20.one()}

    p2 = make_ideal_triple(D20, 1, 1, 2)
    assert minimal_norm_elements(p2.lattice()) == ()

    twotau = _principal_ideal(D20.tau() * 2)
    gens = minimal_norm_elements(twotau.lattice())
    assert D20.element(2, 0) in gens and D20.element(-2, 0) in gens


def test_principal_ideal_norm():
    x = D20.element(1, 3)
    assert _principal_ideal(x).norm() == x.norm()


def test_mult_congruence_examples():
    n = make_ideal_triple(D20, 2, 4, 6)
    assert is_mult_congruent_one(D20.one(), n)
    assert not is_mult_congruent_one(-D20.one(), n)
    assert is_mult_congruent_one(D20.one() + n.generator(), n)


@given(st.sampled_from(TRIPLES20 + TRIPLES23))
def test_mult_congruence_generator_shift(t):
    one = t.disc.one()
    assert is_mult_congruent_one(one + t.generator(), t)
    assert is_mult_congruent_one(one + t.disc.element(0, t.c), t)


def test_mult_congruence_multiplicative():
    n = make_ideal_triple(D20, 2, 4, 6)
    xs = [
        D20.one() + n.generator(),
        D20.one() + D20.element(0, 6),
        D20.one() + n.generator() * 2,
    ]
    for x in xs:
        for y in xs:
            assert is_mult_congruent_one(x * y, n)


def test_mult_congruence_rejects_noncoprime():
    n = make_ideal_triple(D20, 2, 4, 6)
    with pytest.raises(QFieldError):
        is_mult_congruent_one(D20.element(0, Fraction(1, 2)), n)
    with pytest.raises(QFieldError):
        is_mult_congruent_one(D20.element(0, 2), n)


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
        gen = t.disc.element(t.a1, t.a2)
        assert gen.norm() % t.c == 0


def test_triple_least_positive_integer():
    for t in TRIPLES20[:8]:
        for k in range(1, t.c):
            assert not t.contains(t.disc.element(0, k))
        assert t.contains(t.disc.element(0, t.c))


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


@given(st_element())
def test_element_json_roundtrip(x):
    data = element_to_json(x)
    assert x.disc.element(Fraction(data["u"]), Fraction(data["v"])) == x


@settings(max_examples=60)
@given(st.sampled_from([D20, D23]), st.integers(0, 400))
def test_triple_norm_lattice_consistency(d, seed):
    triples = TRIPLES20 if d is D20 else TRIPLES23
    t = triples[seed % len(triples)]
    assert t.norm() == t.a1 * t.c
    assert t.lattice().det() == t.norm()

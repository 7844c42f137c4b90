import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rayform import forms
from rayform.forms import (
    IDENT,
    S_FLIP,
    QuadForm,
    UnimodMatrix,
    act,
    automorphs,
    coprime_normalize,
    make_form,
    parse_form,
    reduce,
    reduced_forms,
    t_power,
)
from rayform.qfield import InternalCheckError, QFieldError, _egcd, make_discriminant

from conftest import far_form

D20 = make_discriminant(-20)
D23 = make_discriminant(-23)
D4 = make_discriminant(-4)
D3 = make_discriminant(-3)
D7 = make_discriminant(-7)

ALL_DISCS = [D20, D23, D4, D3, D7]


def small_matrix(k1, k2, k3, flip):
    g = t_power(k1) @ UnimodMatrix(0, -1, 1, 0) @ t_power(k2)
    if flip:
        g = g @ UnimodMatrix(0, -1, 1, 0)
    return g @ t_power(k3)


st_matrix = st.builds(
    small_matrix,
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.booleans(),
)


@st.composite
def st_form(draw):
    d = draw(st.sampled_from(ALL_DISCS))
    base = draw(st.sampled_from(reduced_forms(d)))
    return act(base, draw(st_matrix)), d


def test_act_golden_cases():
    assert act(QuadForm(2, 2, 3), UnimodMatrix(1, -1, 1, 0)) == QuadForm(7, -6, 2)
    assert act(QuadForm(2, -1, 3), UnimodMatrix(2, -1, 3, -1)) == QuadForm(29, -21, 4)
    assert act(QuadForm(2, -1, 3), IDENT) == QuadForm(2, -1, 3)


@settings(max_examples=250)
@given(st_form(), st_matrix, st_matrix)
def test_right_action_law(fd, g, h):
    form, d = fd
    assert act(act(form, g), h) == act(form, g @ h)
    assert act(form, g).disc() == d.d


def test_unimod_det_enforced():
    with pytest.raises(QFieldError):
        UnimodMatrix(1, 0, 0, -1)
    with pytest.raises(QFieldError):
        UnimodMatrix(2, 0, 0, 2)


def test_reduce_golden():
    red, g = reduce(QuadForm(7, -6, 2))
    assert red == QuadForm(2, 2, 3)
    assert act(red, g) == QuadForm(7, -6, 2)

    red2, g2 = reduce(QuadForm(83, -118, 42))
    assert red2 == QuadForm(2, 2, 3)
    assert act(red2, g2) == QuadForm(83, -118, 42)

    red3, g3 = reduce(QuadForm(2, 2, 3))
    assert red3 == QuadForm(2, 2, 3) and g3 == IDENT


@given(st_form())
def test_reduce_properties(fd):
    form, d = fd
    red, g = reduce(form)
    assert act(red, g) == form
    assert red.is_reduced()
    assert reduce(red) == (red, IDENT)


def _reduce_step_walk(form):
    # the reduction loop as a walk of `act` and `@` steps, kept as the
    # reference for the integer loop in `reduce`
    current, trail = form, IDENT
    while not current.is_reduced():
        a, b = current.a, current.b
        step = t_power((a - b) // (2 * a)) if b <= -a or b > a else S_FLIP
        current, trail = act(current, step), trail @ step
    return current, trail.inv()


def test_reduce_matches_step_walk():
    # every small form, which covers the boundaries b = +-a and a = c, then
    # random ones with coefficients up to 10^6
    forms = [
        QuadForm(a, b, c)
        for a in range(1, 8)
        for c in range(1, 8)
        for b in range(-2 * a - 1, 2 * a + 2)
        if b * b < 4 * a * c
    ]
    rng = random.Random(6)
    for _ in range(3000):
        a, c = rng.randint(1, 10**6), rng.randint(1, 10**6)
        bound = min(math.isqrt(4 * a * c - 1), 10**6)
        forms.append(QuadForm(a, rng.randint(-bound, bound), c))
    for form in forms:
        assert reduce(form) == _reduce_step_walk(form), form


def test_reduce_step_cap_grows_with_the_form():
    # a fixed cap of 10^4 steps stopped this form with InternalCheckError
    form = far_form()
    assert len(str(form.a)) == 4264 and math.gcd(form.a, 6) == 1
    red, g = reduce(form)
    assert red == QuadForm(1, 0, 5)
    assert act(red, g) == form


def test_reduced_forms_lists():
    assert [f.coeffs() for f in reduced_forms(D20)] == [(1, 0, 5), (2, 2, 3)]
    assert [f.coeffs() for f in reduced_forms(D23)] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]
    assert [f.coeffs() for f in reduced_forms(D4)] == [(1, 0, 1)]
    assert [f.coeffs() for f in reduced_forms(D3)] == [(1, 1, 1)]
    assert [f.coeffs() for f in reduced_forms(D7)] == [(1, 1, 2)]


def sl2_bounded(bound):
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                num = 1 + q * r
                if p == 0:
                    if num == 0:
                        for s in range(-bound, bound + 1):
                            yield UnimodMatrix(p, q, r, s)
                    continue
                if num % p == 0 and abs(num // p) <= bound:
                    yield UnimodMatrix(p, q, r, s := num // p)


BOUNDED_SL2 = list(sl2_bounded(5))


@settings(max_examples=40)
@given(st_form(), st_form())
def test_sl2_equivalence_matches_bounded_search(fd1, fd2):
    form1, d1 = fd1
    form2, d2 = fd2
    if d1 is not d2:
        return
    same_class = reduce(form1)[0] == reduce(form2)[0]
    if any(act(form2, g) == form1 for g in BOUNDED_SL2):
        assert same_class
    if same_class:
        # the witness through the reductions is explicit
        r1, g1 = reduce(form1)
        r2, g2 = reduce(form2)
        assert act(form2, g2.inv() @ g1) == form1


def test_automorph_counts():
    assert len(automorphs(QuadForm(1, 0, 5))) == 2
    assert len(automorphs(QuadForm(7, -6, 2))) == 2
    assert len(automorphs(QuadForm(1, 0, 1))) == 4
    assert len(automorphs(QuadForm(1, 1, 1))) == 6


@given(st_form())
def test_automorphs_fix_form_and_close(fd):
    form, d = fd
    auts = automorphs(form)
    for g in auts:
        assert act(form, g) == form
    assert IDENT in auts
    prods = {g @ h for g in auts for h in auts}
    assert prods == set(auts)


def _reference_automorphs(form):
    # the brute-force stabilizer of the reduced form, conjugated along the
    # reduction witness and sorted: a route independent of the unit equation
    reduced, g = reduce(form)
    stab = [
        UnimodMatrix(p, q, r, s)
        for p, q, r, s in itertools.product(range(-2, 3), repeat=4)
        if p * s - q * r == 1 and act(reduced, UnimodMatrix(p, q, r, s)) == reduced
    ]
    conj = [g.inv() @ h @ g for h in stab]
    if len(conj) == 2:
        return (IDENT, UnimodMatrix(-1, 0, 0, -1))
    return tuple(sorted(conj, key=lambda m: (m.p, m.q, m.r, m.s)))


def _random_sl2(rng):
    g = IDENT
    for _ in range(rng.randrange(1, 7)):
        g = g @ t_power(rng.randrange(-9, 10)) @ S_FLIP
    return g @ t_power(rng.randrange(-9, 10))


@pytest.mark.parametrize("base", [QuadForm(1, 1, 1), QuadForm(1, 0, 1), QuadForm(2, 1, 3)])
def test_unit_equation_automorphs_match_box_search(base):
    rng = random.Random(1207)
    for _ in range(220):
        form = act(base, _random_sl2(rng))
        auts = automorphs(form)
        assert auts == _reference_automorphs(form), form
        assert all(act(form, h) == form for h in auts)


@pytest.mark.parametrize("base", [QuadForm(1, 1, 1), QuadForm(1, 0, 1), QuadForm(1, 0, 5)])
def test_stabilizer_count_is_checked(base, monkeypatch):
    # the self-check that replaced the count: with act moving every form, no
    # unit-equation matrix fixes it
    form = act(base, t_power(3) @ S_FLIP)
    monkeypatch.setattr(forms, "act", lambda form, g: QuadForm(form.a, form.b + 2 * form.a, form.c))
    with pytest.raises(InternalCheckError, match="does not fix"):
        automorphs(form)


def test_automorphs_need_no_reduction(monkeypatch):
    def no_reduce(form):
        raise AssertionError("automorphs called reduce")

    monkeypatch.setattr(forms, "reduce", no_reduce)
    assert automorphs(QuadForm(1, 0, 5))[0] == IDENT
    assert automorphs(QuadForm(7, -6, 2)) == (IDENT, UnimodMatrix(-1, 0, 0, -1))
    assert len(automorphs(QuadForm(3, 3, 1))) == 6
    assert len(automorphs(QuadForm(2, 2, 1))) == 4


def test_coprime_normalize_examples():
    moved, g = coprime_normalize(QuadForm(2, 2, 3), 6)
    assert math.gcd(moved.a, 6) == 1
    assert act(QuadForm(2, 2, 3), g) == moved

    same, g0 = coprime_normalize(QuadForm(1, 0, 5), 6)
    assert same == QuadForm(1, 0, 5) and g0 == IDENT


@settings(max_examples=120)
@given(st_form(), st.integers(1, 30))
def test_coprime_normalize_property(fd, m):
    form, d = fd
    moved, g = coprime_normalize(form, m)
    assert math.gcd(moved.a, m) == 1
    assert act(form, g) == moved


def full_square_normalize(form, modulus):
    """Reference ring search: ring r scans the whole (2r+1)^2 square in
    (x, y) order and skips every point off its boundary."""
    if math.gcd(form.a, modulus) == 1:
        return form, IDENT
    for ring in range(1, 2 * modulus + 3):
        for x in range(-ring, ring + 1):
            for y in range(-ring, ring + 1):
                if max(abs(x), abs(y)) != ring or math.gcd(x, y) != 1:
                    continue
                if math.gcd(form(x, y), modulus) == 1:
                    _, inv_x, inv_y = _egcd(x, y)
                    g = UnimodMatrix(x, -inv_y, y, inv_x)
                    return act(form, g), g
    raise AssertionError(f"no hit for {form} mod {modulus}")


def test_coprime_normalize_matches_full_square():
    # the boundary walk returns the reference's first hit, form and matrix,
    # at a level N and at compose's strengthened modulus 2*a*N*|d|
    rng = random.Random(28)
    searched = 0
    for dk in (-3, -4, -20, -23, -111):
        reds = reduced_forms(make_discriminant(dk))
        for _ in range(40):
            k = [rng.randint(-4, 4) for _ in range(3)]
            form = act(rng.choice(reds), small_matrix(*k, rng.random() < 0.5))
            other = act(rng.choice(reds), small_matrix(*k[::-1], False))
            level = rng.randint(2, 60)
            for modulus in (level, 2 * other.a * level * -dk):
                assert coprime_normalize(form, modulus) == full_square_normalize(form, modulus)
                searched += math.gcd(form.a, modulus) != 1
    assert searched > 150


def test_make_form_validation():
    assert make_form(2, 2, 3) == QuadForm(2, 2, 3)
    with pytest.raises(QFieldError):
        make_form(2, 2, 2)
    with pytest.raises(QFieldError):
        make_form(-1, 0, 5)
    with pytest.raises(QFieldError):
        make_form(0, 2, 3)
    with pytest.raises(QFieldError):
        make_form(1, 4, 1)


def test_parse_form():
    assert parse_form("7,-6,2") == QuadForm(7, -6, 2)
    with pytest.raises(QFieldError):
        parse_form("7,-6")
    with pytest.raises(QFieldError):
        parse_form("a,b,c")

import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import rayform.rayclass as rayclass
from rayform.forms import (
    IDENT,
    QuadForm,
    act,
    coprime_normalize,
    reduce,
    reduced_forms,
    t_power,
)
from rayform.qfield import (
    InternalCheckError,
    QFieldError,
    ideal_product,
    make_discriminant,
    minimal_norm_elements,
)
from rayform.rayclass import (
    _form_ideal,
    _invariant_factors,
    _row_key,
    canonical_offset,
    class_group_to_json,
    class_key,
    class_translate,
    compose,
    descriptor,
    enumerate_classes,
    equivalent,
    equivalent_oracle,
    group_table,
    lift_bottom_row,
    make_modulus,
    point_coords,
    row_classes,
    row_in_vq,
    witness_matrix,
)

from conftest import valid_triples

D20 = make_discriminant(-20)
D23 = make_discriminant(-23)
D4 = make_discriminant(-4)
D3 = make_discriminant(-3)
SWEEP = Path(__file__).resolve().parents[1] / "bench" / "refs" / "sweep.json"

MOD20 = make_modulus(D20, 2, 4, 6)
MOD23 = make_modulus(D23, 3, 9, 12)

# reference representatives of the d = -20 case, listed as successive
# powers of one generator of the order-4 group
REPS4 = [QuadForm(1, 0, 5), QuadForm(7, -6, 2), QuadForm(5, 0, 1), QuadForm(83, -118, 42)]

# reference representatives of the twelve classes of the d = -23 case
REPS12 = [
    QuadForm(1, 1, 6),
    QuadForm(829, -691, 144),
    QuadForm(23, 23, 6),
    QuadForm(59, -53, 12),
    QuadForm(29, -21, 4),
    QuadForm(2561, -2089, 426),
    QuadForm(403, -295, 54),
    QuadForm(2743, -2461, 552),
    QuadForm(41, -31, 6),
    QuadForm(3749, -3059, 624),
    QuadForm(127, 199, 78),
    QuadForm(2467, -2149, 468),
]


def translates(form, mod, rng, want):
    out = []
    while len(out) < want:
        moved = class_translate(form, mod, rng.randrange(-5, 6), rng.randrange(-4, 5))
        if moved is not None:
            out.append(moved)
    return out


def test_modulus_rejects_unit_ideal():
    with pytest.raises(QFieldError):
        make_modulus(D20, 1, 0, 1)


def test_modulus_level():
    assert MOD20.level == 6
    assert MOD23.level == 12


def test_canonical_offset_golden():
    assert canonical_offset(QuadForm(7, -6, 2), MOD20) == 28
    assert canonical_offset(QuadForm(1, 0, 5), MOD20) == 4


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_offset_unique_in_window(seed):
    rng = random.Random(seed)
    mod = rng.choice([MOD20, MOD23])
    base = rng.choice(enumerate_classes(mod).classes).rep
    form = translates(base, mod, rng, 1)[0]
    a1, a2 = mod.ideal.a1, mod.ideal.a2
    level, a = mod.level, form.a
    shift = a1 * (form.b + mod.disc.b0) // 2
    hits = [
        x
        for x in range(-shift, level * a - shift)
        if (x - (a2 - shift)) % level == 0 and x % a == 0
    ]
    assert hits == [canonical_offset(form, mod)]


def test_equivalent_golden():
    assert equivalent(QuadForm(1, 0, 5), QuadForm(5, 0, 1), MOD20) is None
    assert equivalent(QuadForm(1, 0, 5), QuadForm(7, -6, 2), MOD20) is None
    assert equivalent(QuadForm(5, 0, 1), QuadForm(83, -118, 42), MOD20) is None
    assert equivalent(QuadForm(1, 0, 5), QuadForm(1, 0, 5), MOD20) is not None


def test_translates_stay_equivalent():
    # shearing fixes a and shifts b by 2a, which leaves the class unchanged
    for base in (QuadForm(1, 0, 5), QuadForm(7, -6, 2)):
        for k in range(-3, 4):
            moved = act(base, t_power(k))
            assert equivalent(base, moved, MOD20) is not None
            assert equivalent_oracle(base, moved, MOD20)


def test_equivalent_witness_exactness():
    rng = random.Random(7)
    for mod in (MOD20, MOD23):
        for fc in enumerate_classes(mod).classes:
            moved = translates(fc.rep, mod, rng, 1)[0]
            alpha = equivalent(fc.rep, moved, mod)
            assert act(moved, alpha) == fc.rep


def test_reference_forms_hit_distinct_classes(group20):
    hits = []
    for f in REPS4:
        matched = [
            i
            for i, fc in enumerate(group20.classes)
            if equivalent(f, fc.rep, MOD20) is not None
        ]
        assert len(matched) == 1
        hits.append(matched[0])
    assert len(set(hits)) == 4


def test_oracle_agrees_on_reference_forms():
    for f1 in REPS4:
        for f2 in REPS4:
            witness = equivalent(f1, f2, MOD20)
            assert (witness is not None) == equivalent_oracle(f1, f2, MOD20)
            assert equivalent_oracle(f1, f1, MOD20)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_agreement_random(seed):
    rng = random.Random(seed)
    mod = rng.choice([MOD20, MOD23])
    classes = enumerate_classes(mod).classes
    f1 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
    f2 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
    assert (equivalent(f1, f2, mod) is not None) == equivalent_oracle(f1, f2, mod)


def _unreduced_minimal_norm(t):
    # the x-range scan straight on the ideal's lattice basis, unreduced
    disc, (g1, g2) = t.disc, t.rows()
    target = t.norm()
    a, c = disc.norm(*g1), disc.norm(*g2)
    b = disc.norm(g1[0] + g2[0], g1[1] + g2[1]) - a - c
    found = set()
    bound = math.isqrt((-4 * c * target) // (b * b - 4 * a * c)) + 1
    for x in range(-bound, bound + 1):
        d_y = (b * x) ** 2 - 4 * c * (a * x * x - target)
        r = math.isqrt(max(d_y, 0))
        if d_y < 0 or r * r != d_y:
            continue
        for num in (-b * x + r, -b * x - r):
            y, rem = divmod(num, 2 * c)
            if rem == 0 and a * x * x + b * x * y + c * y * y == target:
                found.add((g1[0] * x + g2[0] * y, g1[1] * x + g2[1] * y))
    return tuple(sorted(found))


@pytest.mark.parametrize(
    "dk, ideal", [(-20, (2, 4, 6)), (-23, (1, 8, 31)), (-3, (6, 0, 6)), (-4, (5, 0, 5))]
)
def test_minimal_norm_elements_match_unreduced_scan(dk, ideal):
    # quotient ideals of the ideal route
    mod = make_modulus(make_discriminant(dk), *ideal)
    rng = random.Random(dk)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    pool = reps + [g for f in reps[:12] for g in translates(f, mod, rng, 2)]
    principal = 0
    for _ in range(80):
        f1, f2 = rng.choice(pool), rng.choice(reps)
        conj2 = _form_ideal(QuadForm(f2.a, -f2.b, f2.c), mod.disc)
        quotient = ideal_product(_form_ideal(f1, mod.disc), conj2)
        gens = minimal_norm_elements(quotient)
        assert gens == _unreduced_minimal_norm(quotient), (f1, f2)
        principal += bool(gens)
    # class number 1 at dK=-3, -4: every quotient ideal is principal
    assert principal == 80 if dk in (-3, -4) else 0 < principal < 80


def test_refines_classical_equivalence():
    rng = random.Random(21)
    for mod in (MOD20, MOD23):
        classes = enumerate_classes(mod).classes
        for _ in range(20):
            f1 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
            f2 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
            if equivalent(f1, f2, mod) is not None:
                assert reduce(f1)[0] == reduce(f2)[0]


def test_row_membership():
    assert row_in_vq(QuadForm(1, 0, 5), (0, 1), 6)
    assert not row_in_vq(QuadForm(1, 0, 5), (1, 1), 6)
    for form in REPS4:
        assert row_in_vq(form, (0, 1), 6)


def test_row_classes_golden_d20():
    assert row_classes(QuadForm(1, 0, 5), MOD20) == ((0, 1), (1, 0))
    assert row_classes(QuadForm(7, -6, 2), MOD20) == ((0, 1), (1, 3))


def test_row_classes_golden_d23():
    assert row_classes(QuadForm(41, -31, 6), MOD23) == ((0, 1), (0, 5), (2, 1), (2, 7))


def test_rows_equivalence_relation():
    # rows share a key exactly when their lifted forms are equivalent
    rng = random.Random(3)
    for mod, form in ((MOD20, QuadForm(7, -6, 2)), (MOD23, QuadForm(41, -31, 6))):
        level = mod.level
        members = [
            (u, v)
            for u in range(level)
            for v in range(level)
            if row_in_vq(form, (u, v), level)
        ]
        sample = rng.sample(members, min(12, len(members)))
        lifted = {w: act(form, lift_bottom_row(w, level).inv()) for w in sample}
        keys = {w: _row_key(form, w, mod) for w in sample}
        assert len(set(keys.values())) > 1
        for w1 in sample:
            for w2 in sample:
                joined = equivalent(lifted[w1], lifted[w2], mod) is not None
                assert (keys[w1] == keys[w2]) == joined


def test_row_key_matches_field_route():
    # reference: the least residue of eps*x over the units by Discriminant.mul,
    # on the first sweep modulus of each (h_K, c, a1) cell and every dK=-3, -4 one
    with open(SWEEP) as fh:
        sweep = json.load(fh)["moduli"]
    cells = set()
    rows = 0
    for dk, a1, a2, c, _, h_k, _ in sweep:
        if (h_k, c, a1) in cells and dk not in (-3, -4):
            continue
        cells.add((h_k, c, a1))
        disc = make_discriminant(dk)
        units = disc.unit_coords()
        assert len(set(units)) == {-3: 6, -4: 4}.get(dk, 2)
        assert all(disc.norm(*eps) == 1 for eps in units)
        mod = make_modulus(disc, a1, a2, c)
        level = mod.level
        for base in reduced_forms(disc):
            form, _ = coprime_normalize(base, level)
            for u in range(level):
                for v in range(level):
                    if not row_in_vq(form, (u, v), level):
                        continue
                    x = (u, u * (disc.b0 - form.b) // 2 + v * form.a)
                    ref = min(mod.ideal.residue(*disc.mul(eps, x)) for eps in units)
                    assert _row_key(form, (u, v), mod) == ref, (dk, a1, a2, c, form, u, v)
                    rows += 1
    assert rows > 15000


def test_collision_check_catches_a_repeated_row_class(monkeypatch):
    # a second row with the first row's key yields two representatives of one
    # class; the witness check has to raise before the class key check does
    row_classes_ = rayclass.row_classes

    def twin_rows(form, mod):
        rows = row_classes_(form, mod)
        if len(rows) < 2:
            return rows
        level, key = mod.level, _row_key(form, rows[0], mod)
        twin = next(
            (u, v)
            for u in range(level)
            for v in range(level)
            if (u, v) != rows[0]
            and row_in_vq(form, (u, v), level)
            and _row_key(form, (u, v), mod) == key
        )
        return (rows[0], twin) + rows[2:]

    monkeypatch.setattr(rayclass, "row_classes", twin_rows)
    for mod in (MOD20, MOD23):
        with pytest.raises(InternalCheckError, match="collide"):
            enumerate_classes(mod)


@pytest.mark.parametrize("dk", [-3, -4, -15, -20, -23])
def test_class_key_agrees_with_both_routes(dk):
    # every pair among the representatives and one translate of each
    disc = make_discriminant(dk)
    rng = random.Random(dk)
    for t in valid_triples(disc, max_c=6):
        mod = make_modulus(disc, t.a1, t.a2, t.c)
        reps = [fc.rep for fc in enumerate_classes(mod).classes]
        forms = reps + [translates(f, mod, rng, 1)[0] for f in reps]
        keys = [class_key(f, mod) for f in forms]
        for i, f1 in enumerate(forms):
            for j in range(i, len(forms)):
                f2 = forms[j]
                same = keys[i] == keys[j]
                assert same == (equivalent(f1, f2, mod) is not None)
                assert same == equivalent_oracle(f1, f2, mod)


def test_lift_bottom_row():
    assert lift_bottom_row((0, 1), 6) == IDENT
    for row, level in (((1, 3), 6), ((0, 5), 12), ((2, 1), 12), ((4, 2), 9)):
        g = lift_bottom_row(row, level)
        assert (g.r - row[0]) % level == 0 and (g.s - row[1]) % level == 0
    with pytest.raises(QFieldError):
        lift_bottom_row((2, 4), 6)


@given(st.integers(2, 16), st.integers(0, 15), st.integers(0, 15))
def test_lift_bottom_row_property(level, u, v):
    import math

    if math.gcd(math.gcd(u, v), level) != 1:
        return
    g = lift_bottom_row((u, v), level)
    assert (g.r - u) % level == 0 and (g.s - v) % level == 0


def test_enumerate_d20(group20):
    assert len(group20.classes) == 4
    assert group20.classes[0].rep == QuadForm(1, 0, 5)
    for fc in group20.classes:
        import math

        assert math.gcd(fc.rep.a, 6) == 1
    reps = [fc.rep for fc in group20.classes[1:]]
    assert reps == sorted(reps, key=lambda f: f.coeffs())


def test_enumerate_d23(group23):
    assert len(group23.classes) == 12
    hits = set()
    for f in REPS12:
        matched = [
            i
            for i, fc in enumerate(group23.classes)
            if equivalent(f, fc.rep, MOD23) is not None
        ]
        assert len(matched) == 1
        hits.add(matched[0])
    assert len(hits) == 12


def test_compose_golden(group20):
    x1 = QuadForm(7, -6, 2)
    x2 = QuadForm(5, 0, 1)
    x3 = QuadForm(83, -118, 42)
    x0 = QuadForm(1, 0, 5)
    assert equivalent(compose(x1, x1, MOD20), x2, MOD20) is not None
    assert equivalent(compose(x1, x3, MOD20), x0, MOD20) is not None
    for f in REPS4:
        assert equivalent(compose(x0, f, MOD20), f, MOD20) is not None


def test_table_matches_reference_cyclic_order(group20):
    # the k-th reference form is the k-th power of the generator, so the
    # induced relabeling must carry the table onto addition mod 4
    idx = [
        next(
            i
            for i, fc in enumerate(group20.classes)
            if equivalent(f, fc.rep, MOD20) is not None
        )
        for f in REPS4
    ]
    t = group20.table
    for i in range(4):
        for j in range(4):
            assert t[idx[i]][idx[j]] == idx[(i + j) % 4]
    assert group20.invariant_factors == (4,)


def _element_orders(table):
    orders = []
    for i in range(len(table)):
        x, k = i, 1
        while x != 0:
            x = table[x][i]
            k += 1
        orders.append(k)
    return sorted(orders)


def test_table_d23_structure(group23):
    assert group23.invariant_factors == (2, 6)
    # the order multiset pins the isomorphism type among groups of size 12
    assert _element_orders(group23.table) == [1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6]


def test_table_d20_orders(group20):
    assert _element_orders(group20.table) == [1, 2, 4, 4]


def _cyclic_product_table(moduli):
    # Z/m1 x ... x Z/mk on integer tuples in lexicographic order, so the
    # identity (0, ..., 0) has index 0
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in elements)
        for x in elements
    )


@pytest.mark.parametrize(
    "moduli, factors",
    [
        ((), ()),
        ((2, 4, 8), (2, 4, 8)),
        ((3, 9), (3, 9)),
        ((2, 2, 3, 5), (2, 30)),
        ((2, 30), (2, 30)),
        ((3, 3, 24), (3, 3, 24)),
        ((5, 5, 5), (5, 5, 5)),
    ],
)
def test_invariant_factors_of_cyclic_products(moduli, factors):
    assert _invariant_factors(_cyclic_product_table(moduli)) == factors


@pytest.mark.parametrize(
    "table, message",
    [
        # commutative loops of order 6 with identity 0 that are no groups
        (
            ((0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2), (2, 3, 0, 5, 1, 4),
             (3, 4, 5, 0, 2, 1), (4, 5, 1, 2, 0, 3), (5, 2, 4, 1, 3, 0)),
            "order census ratio 6/1 is not a power of 2",
        ),
        (
            ((0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2), (2, 3, 0, 5, 1, 4),
             (3, 4, 5, 0, 2, 1), (4, 5, 1, 2, 3, 0), (5, 2, 4, 1, 0, 3)),
            "invariant factors [2, 2] do not multiply to 6",
        ),
        # column 1 cycles 1 -> 2 -> 1 and never reaches the identity
        (((0, 1, 2), (1, 2, 1), (2, 1, 0)), "powers of 1 miss the identity within 3 steps"),
    ],
)
def test_invariant_factors_reject_non_groups(table, message):
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        _invariant_factors(table)


def test_table_group_axioms(group20, group23):
    for group in (group20, group23):
        t = group.table
        n = len(group.classes)
        for i in range(n):
            assert sorted(t[i]) == list(range(n))
            assert sorted(t[j][i] for j in range(n)) == list(range(n))
            for j in range(n):
                assert t[i][j] == t[j][i]
        assert t[0] == tuple(range(n))
        for i in range(n):
            assert any(t[i][j] == 0 for j in range(n))


TABLE_MODULI = pytest.mark.parametrize(
    "dk, ideal",
    [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-23, (1, 8, 31)), (-3, (6, 0, 6)), (-4, (5, 0, 5))],
    ids=["-20:2,4,6", "-23:3,9,12", "-23:1,8,31", "-3:6,0,6", "-4:5,0,5"],
)


@TABLE_MODULI
def test_table_matches_all_cells_reference(dk, ideal):
    # the reference composes every one of the h^2 cells
    mod = make_modulus(make_discriminant(dk), *ideal)
    group = enumerate_classes(mod)
    reps = [fc.rep for fc in group.classes]
    reference = tuple(
        tuple(rayclass._class_index(compose(f, g, mod), group) for g in reps) for f in reps
    )
    assert group_table(mod).table == reference


@TABLE_MODULI
def test_table_catches_a_wrong_generator_row_cell(dk, ideal, monkeypatch):
    # the first h lookups of `group_table` fill the first generator's row
    mod = make_modulus(make_discriminant(dk), *ideal)
    size = len(enumerate_classes(mod).classes)
    lookup = rayclass._class_index
    for wrong in range(size):
        calls = itertools.count()

        def off_by_one(form, group):
            idx = lookup(form, group)
            return (idx + 1) % size if next(calls) == wrong else idx

        monkeypatch.setattr(rayclass, "_class_index", off_by_one)
        with pytest.raises(InternalCheckError):
            group_table(mod)


def test_table_composes_only_generator_rows(monkeypatch):
    mod = make_modulus(D23, 1, 8, 31)
    seconds = []

    def counting(form1, form2, modulus):
        seconds.append(form2)
        return compose(form1, form2, modulus)

    monkeypatch.setattr(rayclass, "compose", counting)
    size = len(group_table(mod).classes)
    generators = len(set(seconds))
    assert 1 <= generators <= 3
    assert len(seconds) == size * generators


@pytest.mark.parametrize(
    "dk, ideal, digest",
    [
        (-20, (2, 4, 6), "e70a5e3426baa5b5a4dfdc7b0289c0fede739d545fb1b91db66abe215916e97a"),
        (-23, (3, 9, 12), "657e297e7ae14d9e32189608c3ec4c247742a2f277ad8092d90a8ebd21158bc0"),
        (-3, (6, 0, 6), "94e584f7bb921da648fc5de3a9e74c09acb1cdc19f13f50d4692af82d05830ad"),
        (-4, (5, 0, 5), "221d83a9e6f2b0bca108da5f6f5b1e8228031625ba290de02ba197dc1801bd3b"),
        (-23, (1, 8, 31), "2676635a78d71bdd468eea300e1e797f74520e6cef0071835f01ffa07dde41d1"),
    ],
    ids=["-20:2,4,6", "-23:3,9,12", "-3:6,0,6", "-4:5,0,5", "-23:1,8,31"],
)
def test_compose_representatives_pinned(dk, ideal, digest):
    # `rayform compose` prints the representative, not only its class
    mod = make_modulus(make_discriminant(dk), *ideal)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    out = [list(compose(f, g, mod).coeffs()) for f in reps for g in reps]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == digest


def test_compose_well_defined_on_translates(group20):
    rng = random.Random(11)
    reps = [fc.rep for fc in group20.classes]
    for _ in range(15):
        i, j = rng.randrange(4), rng.randrange(4)
        mi = translates(reps[i], MOD20, rng, 1)[0]
        mj = translates(reps[j], MOD20, rng, 1)[0]
        out = compose(mi, mj, MOD20)
        expected = group20.table[i][j]
        assert equivalent(out, reps[expected], MOD20) is not None


def test_descriptor_golden():
    d = descriptor(QuadForm(7, -6, 2), MOD20)
    assert d.a_inv == 1
    assert d.eval_matrix == ((2, 4), (0, 6))
    assert d.point == QuadForm(7, 6, 2)
    assert point_coords(d.point, D20) == (Fraction(1, 7), Fraction(-3, 7))
    assert d.twist == "S"

    d0 = descriptor(QuadForm(1, 0, 5), MOD20)
    assert d0.a_inv == 1
    assert d0.eval_matrix == ((2, 4), (0, 6))
    assert d0.point == QuadForm(1, 0, 5)
    assert point_coords(d0.point, D20) == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_descriptor_invariants(seed):
    rng = random.Random(seed)
    mod = rng.choice([MOD20, MOD23])
    base = rng.choice(enumerate_classes(mod).classes).rep
    form = translates(base, mod, rng, 1)[0]
    d = descriptor(form, mod)
    a1, a2 = mod.ideal.a1, mod.ideal.a2
    level = mod.level
    dq = d.eval_matrix[0][1] * form.a
    assert d.eval_matrix[0][0] * d.eval_matrix[1][1] == a1 * level
    assert (dq + a1 * (form.b + mod.disc.b0) // 2 - a2) % level == 0
    assert (d.a_inv * form.a - 1) % level == 0
    assert 1 <= d.a_inv < level
    u, v = point_coords(d.point, mod.disc)
    assert u > 0  # Im(u*tau + v) = u*sqrt(|dK|)/2
    # the base point is a root of (a, -b, c), squared by tau^2 = -b0*tau - c0
    b0, c0 = mod.disc.b0, mod.disc.c0
    assert form.a * (2 * u * v - b0 * u * u) - form.b * u == 0
    assert form.a * (v * v - c0 * u * u) - form.b * v + form.c == 0


def test_descriptor_rejects_noncoprime():
    with pytest.raises(QFieldError):
        descriptor(QuadForm(2, 2, 3), MOD20)


def test_witness_matrix_and_translates():
    rng = random.Random(5)
    for mod in (MOD20, MOD23):
        base = enumerate_classes(mod).classes[1].rep
        for _ in range(6):
            k, j = rng.randrange(-5, 6), rng.randrange(-4, 5)
            g = witness_matrix(base, mod, k, j)
            moved = act(base, g.inv())
            assert act(moved, g) == base


def test_enumerate_many_moduli_match_oracle():
    from rayform.qfield import ray_class_number_oracle

    count = 0
    for disc in (D20, D4):
        for t in valid_triples(disc, max_c=6):
            mod = make_modulus(disc, t.a1, t.a2, t.c)
            group = enumerate_classes(mod)
            assert len(group.classes) == ray_class_number_oracle(disc, t)
            count += 1
    assert count >= 6


def test_tables_match_sweep_digests():
    # the first digest-carrying modulus of each (h, c, a1, h_K) cell with h <= 12
    with open(SWEEP) as fh:
        sweep = json.load(fh)["moduli"]
    cells = {}
    for dk, a1, a2, c, h, h_k, digest in sweep:
        if digest is not None and h <= 12:
            cells.setdefault((h, c, a1, h_k), (dk, a1, a2, c, h, digest))
    assert len(cells) == 168
    for dk, a1, a2, c, h, digest in cells.values():
        group = group_table(make_modulus(make_discriminant(dk), a1, a2, c))
        blob = json.dumps([[list(r) for r in group.table], list(group.invariant_factors)])
        assert len(group.classes) == h
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (dk, a1, a2, c)


@pytest.mark.parametrize(
    "dk, ideal, digest",
    [
        (-23, (1, 8, 31), "7baa4480a00f7f689fb138f8cf040b27c969ad82c5482eadf9e334a5f5963cf1"),
        (-111, (9, 0, 9), "ea9d4e7d7908e69686a1a60505d0c7436b291ef5b2d7f50689695731546eae0d"),
        (-71, (13, 0, 13), "d4c44b51cebaaed59e9dd6a335d0f2e850b06cc8a91f39ad0f5be7fbc609979c"),
    ],
    ids=["h=45", "h=216", "h=588"],
)
def test_large_tables_pinned(dk, ideal, digest):
    group = group_table(make_modulus(make_discriminant(dk), *ideal))
    blob = json.dumps(class_group_to_json(group))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_class_group_json(group20):
    data = class_group_to_json(group20)
    assert data["dK"] == -20
    assert data["ideal"] == "2,4,6"
    assert data["classes"][0] == {"a": 1, "b": 0, "c": 5}
    assert len(data["table"]) == 4
    assert data["invariant_factors"] == [4]

import ast
import collections
import hashlib
import importlib
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import rayform.qfield as qfield
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
    canonicalize_ideal,
    ideal_product,
    make_discriminant,
    make_ideal_triple,
    ray_class_number_oracle,
    reduced_basis,
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
    group_table,
    ideal_keys,
    lift_bottom_row,
    make_modulus,
    point_coords,
    row_classes,
    witness_matrix,
)

from conftest import drop_a_principal_row, generators, same_ideal_label, valid_triples

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
    assert MOD20.c == 6
    assert MOD23.c == 12


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
    a1, a2 = mod.a1, mod.a2
    level, a = mod.c, form.a
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
            assert same_ideal_label(base, moved, MOD20)


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
            assert (witness is not None) == same_ideal_label(f1, f2, MOD20)
            assert same_ideal_label(f1, f1, MOD20)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_agreement_random(seed):
    rng = random.Random(seed)
    mod = rng.choice([MOD20, MOD23])
    classes = enumerate_classes(mod).classes
    f1 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
    f2 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
    assert (equivalent(f1, f2, mod) is not None) == same_ideal_label(f1, f2, mod)


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


def test_quotient_generator_is_the_unreduced_scan():
    # the unit orbit of x = g1*conj(h1)/A, read off the reduced bases of
    # I_f and I_base, is the generator set of I_f*conj(I_base) that the
    # unreduced scan finds, and each ideal key is the least residue of
    # g*(a^-1 mod N) over that set: the representatives and one translate
    # each of every sweep modulus and four more
    with open(SWEEP) as fh:
        sweep = json.load(fh)["moduli"]
    cases = [(-3, 6, 0, 6), (-4, 6, 0, 6), (-23, 1, 8, 31), (-23, 1, 176, 211)]
    cases += [tuple(m[:4]) for m in sweep]
    rng = random.Random(39)
    for dk, a1, a2, c in cases:
        mod = make_modulus(make_discriminant(dk), a1, a2, c)
        disc = mod.disc
        reps = [fc.rep for fc in enumerate_classes(mod).classes]
        forms = reps + [translates(f, mod, rng, 1)[0] for f in reps]
        bases = {}
        for f, (name, label) in zip(forms, ideal_keys(forms, mod)):
            g1, found = reduced_basis(_form_ideal(f, disc))
            base = bases.setdefault(name, f)
            h1, _ = reduced_basis(_form_ideal(base, disc))
            xu, xv = disc.mul(g1, (-h1[0], h1[1] - disc.b0 * h1[0]))
            x = (xu // name[0], xv // name[0])
            orbit = tuple(sorted(disc.mul(eps, x) for eps in disc.unit_coords()))
            conj = _form_ideal(QuadForm(base.a, -base.b, base.c), disc)
            gens = _unreduced_minimal_norm(ideal_product(_form_ideal(f, disc), conj))
            assert found == name and disc.mul(x, (0, name[0])) == (xu, xv)
            assert orbit == gens, (dk, a1, a2, c, f)
            a_inv = pow(f.a, -1, mod.c)
            assert label == min(mod.residue(u * a_inv, v * a_inv) for u, v in gens)


def test_ideal_keys_reduce_one_basis_per_form(monkeypatch):
    # one Lagrange reduction per form, and no ideal product or HNF
    def refuse(*args):
        raise AssertionError("ideal_keys built an ideal product")

    mod = make_modulus(D23, 1, 8, 31)
    rng = random.Random(23)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    forms = reps + [translates(f, mod, rng, 1)[0] for f in reps]
    calls, lagrange = [], qfield._lagrange
    monkeypatch.setattr(qfield, "_lagrange", lambda t: calls.append(t) or lagrange(t))
    for name in ("ideal_product", "_hnf_rows", "canonicalize_ideal"):
        monkeypatch.setattr(qfield, name, refuse)
    labels = ideal_keys(forms, mod)
    assert len(calls) == len(forms) == 90
    assert len(set(labels)) == 45


def _random_ideal(disc, rng):
    # a1*(1, w, m) with m | N(tau + w), or the principal ideal of a random
    # element: norms up to 3^2*199 and 15^2*(c0 + 2) respectively
    if rng.random() < 0.3:
        x = (rng.randrange(-15, 16), rng.randrange(1, 16))
        return canonicalize_ideal(disc, [disc.mul(x, (1, 0)), x])
    while True:
        m = rng.randrange(1, 200)
        ws = [w for w in range(m) if disc.norm(1, w) % m == 0]
        if ws:
            a1 = rng.randrange(1, 4)
            return make_ideal_triple(disc, a1, a1 * rng.choice(ws), a1 * m)


@pytest.mark.parametrize(
    "dk, ideal",
    [(-20, (2, 4, 6)), (-23, (1, 8, 31)), (-3, (6, 0, 6)), (-4, (5, 0, 5)), (-111, (9, 0, 9))],
)
def test_minimal_norm_elements_match_unreduced_scan(dk, ideal):
    # the generators `reduced_basis` gives against the unreduced scan, on
    # quotient ideals of the ideal route, then seeded random ideals
    mod = make_modulus(make_discriminant(dk), *ideal)
    disc, rng = mod.disc, random.Random(dk)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    pool = reps + [g for f in reps[:12] for g in translates(f, mod, rng, 2)]
    quotients = []
    for _ in range(80):
        f1, f2 = rng.choice(pool), rng.choice(reps)
        conj2 = _form_ideal(QuadForm(f2.a, -f2.b, f2.c), disc)
        quotients.append(ideal_product(_form_ideal(f1, disc), conj2))
    ideals = [_random_ideal(disc, rng) for _ in range(150)]
    for batch in (quotients, ideals):
        principal = 0
        for t in batch:
            gens = generators(t)
            assert gens == _unreduced_minimal_norm(t), t
            principal += bool(gens)
        # class number 1 at dK=-3, -4: every ideal is principal
        assert principal == len(batch) if dk in (-3, -4) else 0 < principal < len(batch)
    assert max(t.norm() for t in ideals) >= 300


def test_refines_classical_equivalence():
    rng = random.Random(21)
    for mod in (MOD20, MOD23):
        classes = enumerate_classes(mod).classes
        for _ in range(20):
            f1 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
            f2 = translates(rng.choice(classes).rep, mod, rng, 1)[0]
            if equivalent(f1, f2, mod) is not None:
                assert reduce(f1)[0] == reduce(f2)[0]


def row_in_vq(form, row, level):
    """Reference admissibility: the row (u, v) indexes a torsion point of
    the form when gcd(level, Q(v, -u)) = 1."""
    u, v = row
    return math.gcd(level, form(v, -u)) == 1


def fiber_of(mod):
    """Classes over each reduced form: h / h_K."""
    return ray_class_number_oracle(mod.disc, mod) // len(reduced_forms(mod.disc))


def test_row_membership(monkeypatch):
    # row_classes keys exactly the admissible rows, judged by the reference,
    # in row order up to the row that completes the fiber
    assert row_in_vq(QuadForm(1, 0, 5), (0, 1), 6)
    assert not row_in_vq(QuadForm(1, 0, 5), (1, 1), 6)
    keyed = []
    row_key = rayclass._row_key

    def recording(form, row, mod):
        keyed.append((form, row))
        return row_key(form, row, mod)

    monkeypatch.setattr(rayclass, "_row_key", recording)
    fiber = fiber_of(MOD20)
    for form in REPS4:
        pairs = row_classes(form, MOD20, fiber)
        assert len(pairs) == fiber and (form, (0, 1)) in keyed
        rows = [(u, v) for u in range(6) for v in range(6) if row_in_vq(form, (u, v), 6)]
        stop = rows.index(pairs[-1][1])
        assert [row for f, row in keyed if f == form] == rows[: stop + 1]
    assert (QuadForm(1, 0, 5), (1, 1)) not in keyed


def assert_keyed_rows(form, mod, rows):
    pairs = row_classes(form, mod, fiber_of(mod))
    assert tuple(row for _, row in pairs) == rows
    assert all(key == _row_key(form, row, mod) for key, row in pairs)


def test_row_classes_golden_d20():
    assert_keyed_rows(QuadForm(1, 0, 5), MOD20, ((0, 1), (1, 0)))
    assert_keyed_rows(QuadForm(7, -6, 2), MOD20, ((0, 1), (1, 3)))


def test_row_classes_golden_d23():
    assert_keyed_rows(QuadForm(41, -31, 6), MOD23, ((0, 1), (0, 5), (2, 1), (2, 7)))


def test_row_classes_match_brute_force():
    # every admissible row keyed by `_row_key`, the least row kept per key,
    # in row order, on every normalized reduced form of each modulus: the
    # full scan finds exactly h / h_K keys, which the stopped scan returns
    with open(SWEEP) as fh:
        sweep = json.load(fh)["moduli"]
    cases = [(-3, 6, 0, 6), (-4, 6, 0, 6), (-23, 1, 8, 31), (-23, 1, 176, 211)]
    cases += [tuple(m[:4]) for m in sweep]
    assert len(cases) == 829
    for dk, a1, a2, c in cases:
        mod = make_modulus(make_discriminant(dk), a1, a2, c)
        level, fiber = mod.c, fiber_of(mod)
        for base in reduced_forms(mod.disc):
            form, _ = coprime_normalize(base, level)
            least = {}
            for u in range(level):
                for v in range(level):
                    if row_in_vq(form, (u, v), level):
                        least.setdefault(_row_key(form, (u, v), mod), (u, v))
            brute = tuple(sorted(least.items(), key=lambda kr: kr[1]))
            assert len(brute) == fiber, (dk, a1, a2, c, form)
            assert row_classes(form, mod, fiber) == brute, (dk, a1, a2, c, form)


def test_rows_equivalence_relation():
    # rows share a key exactly when their lifted forms are equivalent
    rng = random.Random(3)
    for mod, form in ((MOD20, QuadForm(7, -6, 2)), (MOD23, QuadForm(41, -31, 6))):
        level = mod.c
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
        level = mod.c
        for base in reduced_forms(disc):
            form, _ = coprime_normalize(base, level)
            for u in range(level):
                for v in range(level):
                    if not row_in_vq(form, (u, v), level):
                        continue
                    x = (u, u * (disc.b0 - form.b) // 2 + v * form.a)
                    ref = min(mod.residue(*disc.mul(eps, x)) for eps in units)
                    assert _row_key(form, (u, v), mod) == ref, (dk, a1, a2, c, form, u, v)
                    rows += 1
    assert rows > 15000


def test_collision_check_catches_a_repeated_row_class(monkeypatch):
    # a second row with the first row's key yields two representatives of one
    # class; the ideal-key check has to raise before the class key check does
    row_classes_ = rayclass.row_classes

    def twin_rows(form, mod, fiber):
        rows = row_classes_(form, mod, fiber)
        if len(rows) < 2:
            return rows
        level, (key, first) = mod.c, rows[0]
        twin = next(
            (u, v)
            for u in range(level)
            for v in range(level)
            if (u, v) != first
            and row_in_vq(form, (u, v), level)
            and _row_key(form, (u, v), mod) == key
        )
        return (rows[0], (key, twin)) + rows[2:]

    monkeypatch.setattr(rayclass, "row_classes", twin_rows)
    for mod in (MOD20, MOD23):
        with pytest.raises(InternalCheckError, match="collide"):
            enumerate_classes(mod)


@pytest.mark.parametrize("dk, ideal", [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (6, 0, 6))])
def test_collision_check_catches_a_translated_representative(monkeypatch, dk, ideal):
    # the second representative built is replaced by a translate of the
    # first; the count stays right, so only the ideal keys can see it
    mod = make_modulus(make_discriminant(dk), *ideal)
    act_, built = rayclass.act, []

    def swapped(form, g):
        built.append(act_(form, g))
        if len(built) != 2:
            return built[-1]
        for k, j in itertools.product(range(1, 6), range(5)):
            moved = act_(built[0], witness_matrix(built[0], mod, k, j).inv())
            if moved.a > 0 and math.gcd(moved.a, mod.c) == 1:
                return moved

    monkeypatch.setattr(rayclass, "act", swapped)
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
        keys, labels = [class_key(f, mod) for f in forms], ideal_keys(forms, mod)
        for i, f1 in enumerate(forms):
            for j in range(i, len(forms)):
                f2 = forms[j]
                same = keys[i] == keys[j]
                assert same == (equivalent(f1, f2, mod) is not None)
                assert same == same_ideal_label(f1, f2, mod)
                assert same == (labels[i] == labels[j])


@pytest.mark.parametrize("dk, ideal", [(-3, (1, 3, 7)), (-4, (1, 2, 5)), (-111, (9, 0, 9))])
def test_ideal_key_partition_is_the_class_partition(dk, ideal):
    # linear in the form count: the representatives and two translates each
    # fall into h blocks under the class key, the ideal key and both
    mod = make_modulus(make_discriminant(dk), *ideal)
    rng = random.Random(dk)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    forms = reps + [g for f in reps for g in translates(f, mod, rng, 2)]
    keys, labels = [class_key(f, mod) for f in forms], ideal_keys(forms, mod)
    assert len(set(keys)) == len(set(labels)) == len(set(zip(keys, labels))) == len(reps)
    # the ideal class form of each label is the reduced form of the class key
    assert all(name == red.coeffs() for (red, _), (name, _) in zip(keys, labels))
    # a leading coefficient sharing a factor with N has no ideal key
    bad = {-3: QuadForm(7, 5, 1), -4: QuadForm(5, 4, 1), -111: QuadForm(3, 3, 10)}[dk]
    for forms in ([bad], [reps[0], bad]):
        with pytest.raises(QFieldError, match="shares a factor"):
            ideal_keys(forms, mod)


def test_group_table_makes_no_pairwise_equivalence_calls(monkeypatch):
    # no witness search at all, and one ideal_keys call over all h classes
    def refuse(*args):
        raise AssertionError("group_table compared two forms pairwise")

    for name in ("equivalent", "_satisfies_witness"):
        monkeypatch.setattr(rayclass, name, refuse)
    sizes, keys = [], rayclass.ideal_keys
    monkeypatch.setattr(rayclass, "ideal_keys", lambda forms, mod: sizes.append(len(forms)) or keys(forms, mod))
    assert len(group_table(make_modulus(D23, 1, 8, 31)).classes) == 45
    assert sizes == [45]


def test_forms_are_checked_where_they_enter(monkeypatch):
    # the h=45 table checks each class once in ideal_keys; its cells key the
    # product form and correcting row of `_compose_parts` and check nothing,
    # as the forms that enumeration builds reach class_key, row_classes and
    # canonical_offset unchecked
    callers, check = [], rayclass._require_form

    def counted(form, mod):
        callers.append(sys._getframe(1).f_code.co_name)
        check(form, mod)

    monkeypatch.setattr(rayclass, "_require_form", counted)
    assert len(group_table(make_modulus(D23, 1, 8, 31)).classes) == 45
    assert collections.Counter(callers) == {"ideal_keys": 45}
    callers.clear()
    descriptor(QuadForm(7, -6, 2), MOD20)
    assert callers == ["descriptor"]
    # content 2 gives discriminant 4*dK, so the discriminant test rejects it
    with pytest.raises(QFieldError, match="^form discriminant -80 does not match field -20$"):
        descriptor(QuadForm(2, 0, 10), MOD20)


def test_class_translate_checks_its_form_once(monkeypatch):
    # the translate is its own witness: one check of the form, in
    # witness_matrix, and no witness search
    callers, check = [], rayclass._require_form

    def counted(form, mod):
        callers.append(sys._getframe(1).f_code.co_name)
        check(form, mod)

    def refuse(*args):
        raise AssertionError("class_translate searched for a witness")

    reps = [fc.rep for fc in enumerate_classes(MOD20).classes]
    monkeypatch.setattr(rayclass, "_require_form", counted)
    monkeypatch.setattr(rayclass, "equivalent", refuse)
    moved = [class_translate(f, MOD20, k, j) for f in reps for k in range(-3, 4) for j in (-1, 2)]
    assert sum(m is not None for m in moved) > len(reps)
    assert callers == ["witness_matrix"] * len(moved)


def test_enumeration_reduces_no_form(monkeypatch):
    # each class keeps the key of the row it was built from, and the
    # identity is the first class built
    forms, key = [], rayclass.class_key
    monkeypatch.setattr(rayclass, "class_key", lambda f, mod: forms.append(f) or key(f, mod))
    for mod in (MOD20, MOD23, make_modulus(D3, 6, 0, 6)):
        enumerate_classes(mod)
    assert forms == []


@pytest.mark.parametrize("mod", [MOD20, MOD23])
def test_enumeration_checks_the_first_class_is_principal(monkeypatch, mod):
    # reduced forms walked backwards build a non-principal class first,
    # which enumeration refuses: it takes the first class as the identity
    forms = rayclass.reduced_forms
    monkeypatch.setattr(rayclass, "reduced_forms", lambda disc: forms(disc)[::-1])
    with pytest.raises(InternalCheckError, match="not the principal form"):
        enumerate_classes(mod)


@pytest.mark.parametrize(
    "dk, ideals",
    [(dk, None) for dk in (-3, -4, -15, -20, -23)] + [(-23, [(1, 8, 31)]), (-111, [(9, 0, 9)])],
)
def test_enumeration_keys_are_class_keys(dk, ideals):
    # the key built from the row is the key of the representative it makes;
    # None stands for every modulus with c <= 12
    disc = make_discriminant(dk)
    for ideal in ideals or [(t.a1, t.a2, t.c) for t in valid_triples(disc)]:
        mod = make_modulus(disc, *ideal)
        classes = enumerate_classes(mod).classes
        assert [fc.key for fc in classes] == [class_key(fc.rep, mod) for fc in classes]


def test_ideal_route_needs_no_reduction(monkeypatch):
    # qfield imports neither forms nor rayclass, and the ideal route runs
    # with reduction refused
    tree = ast.parse(Path(importlib.import_module("rayform.qfield").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name.rsplit(".", 1)[-1] for name in imported} & {"forms", "rayclass"}
    mod = make_modulus(D23, 1, 8, 31)
    rng = random.Random(23)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    moved = [translates(f, mod, rng, 1)[0] for f in reps]
    keys = [class_key(f, mod) for f in reps + moved]

    def refuse(form):
        raise AssertionError("the ideal route reduced a form")

    monkeypatch.setattr("rayform.forms.reduce", refuse)
    monkeypatch.setattr(rayclass, "reduce", refuse)
    labels = ideal_keys(reps + moved, mod)
    assert len(set(labels)) == len(set(zip(keys, labels))) == len(reps)
    assert all(same_ideal_label(f, m, mod) for f, m in zip(reps, moved))
    assert not any(same_ideal_label(f, m, mod) for f, m in zip(reps, moved[1:]))


def test_miscount_raises_oracle_says(monkeypatch):
    drop_a_principal_row(monkeypatch)
    for mod in (MOD20, MOD23):
        with pytest.raises(InternalCheckError, match="oracle says"):
            enumerate_classes(mod)


STOP_MODULI = [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (6, 0, 6))]


@pytest.mark.parametrize("dk, ideal", STOP_MODULI)
def test_stop_catches_a_split_row_key(monkeypatch, dk, ideal):
    # the first row that repeats a key gets a key of its own, so a scan
    # stops holding two keys of one class; these moduli repeat a key before
    # the stop, which the first h rows of a degree-one prime never do
    row_key, seen, split = rayclass._row_key, {}, []

    def splitting(form, row, mod):
        key = row_key(form, row, mod)
        if not split and seen.setdefault((form, key), row) != row:
            split.append(row)
            return (-1, -1)
        return key

    monkeypatch.setattr(rayclass, "_row_key", splitting)
    with pytest.raises(InternalCheckError, match="collide"):
        enumerate_classes(make_modulus(make_discriminant(dk), *ideal))
    assert split


@pytest.mark.parametrize("dk, ideal", STOP_MODULI)
def test_stop_catches_merged_row_keys(monkeypatch, dk, ideal):
    # the principal form's second key is read as its first, so its scan
    # runs out of rows one class short of the fiber
    row_key, keys = rayclass._row_key, []

    def merging(form, row, mod):
        key = row_key(form, row, mod)
        if form.a != 1:
            return key
        if key not in keys and len(keys) < 2:
            keys.append(key)
        return keys[0] if key == keys[-1] else key

    monkeypatch.setattr(rayclass, "_row_key", merging)
    with pytest.raises(InternalCheckError, match="oracle says"):
        enumerate_classes(make_modulus(make_discriminant(dk), *ideal))


@pytest.mark.parametrize("dk, ideal", STOP_MODULI)
def test_stop_catches_a_duplicated_reduced_form(monkeypatch, dk, ideal):
    # a twin of the principal form shrinks every fiber and walks the
    # principal form's rows again, whose classes collide
    forms = rayclass.reduced_forms
    monkeypatch.setattr(rayclass, "reduced_forms", lambda disc: forms(disc) + forms(disc)[:1])
    with pytest.raises(InternalCheckError, match="collide"):
        enumerate_classes(make_modulus(make_discriminant(dk), *ideal))


@pytest.mark.parametrize("mod", [MOD20, MOD23, make_modulus(D23, 1, 8, 31)], ids=["d20", "d23", "h=45"])
def test_stop_catches_a_missing_reduced_form(monkeypatch, mod):
    # one reduced form fewer widens the fiber past the rows' classes; at
    # h=45 over two forms h_K does not divide h, and the count falls short too
    forms = rayclass.reduced_forms
    monkeypatch.setattr(rayclass, "reduced_forms", lambda disc: forms(disc)[:-1])
    with pytest.raises(InternalCheckError, match="oracle says"):
        enumerate_classes(mod)


@pytest.mark.parametrize("ideal, calls", [((1, 8, 31), 45), ((1, 176, 211), 315), ((1, 784, 1013), 1518)])
def test_row_scan_keys_each_class_once_at_degree_one_primes(monkeypatch, ideal, calls):
    # at a degree-one prime every admissible row up to the stop is a new
    # class, so the scan keys h rows, not the N^2 square
    row_key, keyed = rayclass._row_key, []

    def counting(form, row, mod):
        keyed.append(row)
        return row_key(form, row, mod)

    monkeypatch.setattr(rayclass, "_row_key", counting)
    group = enumerate_classes(make_modulus(D23, *ideal))
    assert len(keyed) == len(group.classes) == calls


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
    lookup = rayclass._class_at
    for wrong in range(size):
        calls = itertools.count()

        def off_by_one(key, group):
            idx = lookup(key, group)
            return (idx + 1) % size if next(calls) == wrong else idx

        monkeypatch.setattr(rayclass, "_class_at", off_by_one)
        with pytest.raises(InternalCheckError):
            group_table(mod)


def _generator_count(moves):
    # the generator rows a table run composed: each (moved, gamma) that
    # `_compose_parts` took is a move act(generator, gamma), and a row may
    # use several moves of its generator
    return len({act(moved, gamma.inv()) for moved, gamma in moves})


@pytest.mark.parametrize(
    "dk, ideal, passing, swaps",
    [(-20, (2, 4, 6), 2, 6), (-23, (3, 9, 12), 30, 66)],
    ids=["-20:2,4,6", "-23:3,9,12"],
)
def test_table_census_of_first_generator_row_faults(dk, ideal, passing, swaps, monkeypatch):
    """Every change of one cell of the first generator row raises, and the
    swaps of two of its cells that pass every check of `group_table` are
    counted.  Those swaps keep the row a permutation with pi_g[0] = g, so
    the closure builds a wrong abelian table from it: they are the blind
    spot that the ideal-product check of each cell (ROADMAP item 1) is to
    close.  That check is to run in `verify`, not in `group_table`, so the
    pinned counts here stay at 2 and 30; it should fail on every swap."""
    mod = make_modulus(make_discriminant(dk), *ideal)
    enumerated = rayclass._enumerate(mod)
    group = enumerated[0]
    size = len(group.classes)
    lookup, parts, composed, seconds = rayclass._class_at, rayclass._compose_parts, {}, []

    def cached_parts(form1, moved, gamma, modulus):
        seconds.append((moved, gamma))
        if (form1, moved, gamma) not in composed:
            composed[form1, moved, gamma] = parts(form1, moved, gamma, modulus)
        return composed[form1, moved, gamma]

    monkeypatch.setattr(rayclass, "_enumerate", lambda m: enumerated)
    monkeypatch.setattr(rayclass, "_compose_parts", cached_parts)

    def run_with(change):
        calls = itertools.count()

        def corrupted(key, grp):
            idx, n = lookup(key, grp), next(calls)
            return change.get(n, idx) if n < size else idx

        monkeypatch.setattr(rayclass, "_class_at", corrupted)
        try:
            group_table(mod)
        except InternalCheckError:
            return False
        return True

    assert run_with({})
    assert len(seconds) == size * _generator_count(seconds)
    monkeypatch.setattr(rayclass, "_class_at", lookup)
    row = [rayclass._class_index(compose(fc.rep, group.classes[1].rep, mod), group) for fc in group.classes]
    for cell in range(size):
        for wrong in range(size):
            if wrong != row[cell]:
                assert not run_with({cell: wrong}), (cell, wrong)
    pairs = list(itertools.combinations(range(size), 2))
    assert len(pairs) == swaps
    assert sum(run_with({x: row[y], y: row[x]}) for x, y in pairs) == passing


@pytest.mark.parametrize(
    "dk, ideal, passing, swaps",
    [(-20, (2, 4, 6), 1, 3), (-23, (3, 9, 12), 0, 55), (-23, (1, 8, 31), 0, 946)],
    ids=["-20:2,4,6", "-23:3,9,12", "-23:1,8,31"],
)
def test_table_census_of_second_generator_row_faults(dk, ideal, passing, swaps, monkeypatch):
    """The swaps of two cells x, y >= 1 of the second generator row that
    pass every check of `group_table`, with the harness of the first-row
    census.  Each keeps the row a permutation with pi_g[0] = g, so only the
    commutation check with the first generator row can see it: at dK=-23
    it sees all of them, where a symmetry check of the whole table let 12
    of the 55 and 3 of the 946 through.  The one swap that passes at
    dK=-20 `2,4,6` gives a valid table of the wrong group, left to the
    ideal-product check of each cell (ROADMAP item 1)."""
    mod = make_modulus(make_discriminant(dk), *ideal)
    enumerated = rayclass._enumerate(mod)
    group = enumerated[0]
    size = len(group.classes)
    reps = [fc.rep for fc in group.classes]
    lookup, parts, key_at, composed, keyed, seconds, rows_keyed = (
        rayclass._class_at, rayclass._compose_parts, rayclass._key_at, {}, {}, [], []
    )

    def cached_parts(form1, moved, gamma, modulus):
        seconds.append((moved, gamma))
        if (form1, moved, gamma) not in composed:
            composed[form1, moved, gamma] = parts(form1, moved, gamma, modulus)
        return composed[form1, moved, gamma]

    def cached_key(form, row, modulus, normals):
        rows_keyed.append(row)
        if (form, row) not in keyed:
            keyed[form, row] = key_at(form, row, modulus, normals)
        return keyed[form, row]

    monkeypatch.setattr(rayclass, "_enumerate", lambda m: enumerated)
    monkeypatch.setattr(rayclass, "_compose_parts", cached_parts)
    monkeypatch.setattr(rayclass, "_key_at", cached_key)

    def run_with(change):
        calls = itertools.count()

        def corrupted(key, grp):
            idx, n = lookup(key, grp), next(calls) - size
            return change.get(n, idx) if 0 <= n < size else idx

        monkeypatch.setattr(rayclass, "_class_at", corrupted)
        try:
            group_table(mod)
        except InternalCheckError:
            return False
        return True

    def composed_row(g):
        return [rayclass._class_index(compose(f, reps[g], mod), group) for f in reps]

    # the first generator is class 1; the second is the first class its
    # powers miss, and its row fills lookups size to 2*size - 1
    first, powers, x = composed_row(1), {0}, 1
    while x:
        powers.add(x)
        x = first[x]
    row = composed_row(min(set(range(size)) - powers))
    seconds.clear()  # `compose` and `class_key` reach the seams too
    rows_keyed.clear()
    assert run_with({})
    assert len(seconds) == size * _generator_count(seconds) == len(rows_keyed)
    pairs = list(itertools.combinations(range(1, size), 2))
    assert len(pairs) == swaps
    assert sum(run_with({x: row[y], y: row[x]}) for x, y in pairs) == passing


def test_table_composes_only_generator_rows(monkeypatch):
    mod = make_modulus(D23, 1, 8, 31)
    seconds, parts = [], rayclass._compose_parts

    def counting(form1, moved, gamma, modulus):
        seconds.append((moved, gamma))
        return parts(form1, moved, gamma, modulus)

    monkeypatch.setattr(rayclass, "_compose_parts", counting)
    group = group_table(mod)
    generators = _generator_count(seconds)
    assert 1 <= generators <= 3
    assert len(seconds) == len(group.classes) * generators


@pytest.mark.parametrize(
    "dk, ideal, moves",
    [
        (-4, (5, 0, 5), {QuadForm(2, 2, 1): 1}),
        (-3, (6, 0, 6), {QuadForm(7, 5, 1): 2}),
        (-4, (6, 0, 6), {QuadForm(5, 4, 1): 2}),
        (-20, (2, 4, 6), {QuadForm(7, -6, 2): 2, QuadForm(5, 0, 1): 1}),
        (-23, (3, 9, 12), {QuadForm(13, -9, 2): 2, QuadForm(23, -23, 6): 1}),
        (-23, (1, 8, 31), {QuadForm(2, -1, 3): 4, QuadForm(2, 1, 3): 4}),
    ],
    ids=["-4:5,0,5", "-3:6,0,6", "-4:6,0,6", "-20:2,4,6", "-23:3,9,12", "-23:1,8,31"],
)
def test_table_normalizes_once_per_input(dk, ideal, moves, monkeypatch):
    # `group_table` moves each generator once per leading coefficient that
    # its earlier moves share a factor with (a second move at every modulus
    # here but dK=-4 `5,0,5`), and keys its cells with the reduced forms'
    # normalizations that enumeration made, one per form: no
    # `coprime_normalize` runs per cell
    mod, normalize, calls = make_modulus(make_discriminant(dk), *ideal), coprime_normalize, []

    def counting(form, modulus):
        calls.append((sys._getframe(1).f_code.co_name, form))
        return normalize(form, modulus)

    monkeypatch.setattr(rayclass, "coprime_normalize", counting)
    group_table(mod)
    by_caller = collections.Counter(caller for caller, _ in calls)
    assert by_caller == {"_enumerate": len(reduced_forms(mod.disc)), "group_table": sum(moves.values())}
    assert collections.Counter(form for caller, form in calls if caller == "group_table") == moves


def test_compose_parts_checks_its_move():
    # handed an unmoved second form sharing a factor with 2*a, the CRT step
    # raises InternalCheckError, not pow's bare ValueError; `compose` moves
    # the same forms first and succeeds
    mod = make_modulus(D23, 1, 8, 31)
    for form1, form2 in [(QuadForm(3, 1, 2), QuadForm(3, -1, 2)), (QuadForm(1, 1, 6), QuadForm(2, 1, 3))]:
        with pytest.raises(InternalCheckError, match="shares a factor"):
            rayclass._compose_parts(form1, form2, IDENT, mod)
        assert math.gcd(compose(form1, form2, mod).a, mod.c) == 1


CELL_MODULI = pytest.mark.parametrize(
    "dk, ideal",
    [(-20, (2, 4, 6)), (-23, (3, 9, 12)), (-3, (6, 0, 6)), (-4, (5, 0, 5)), (-4, (6, 0, 6))],
    ids=["-20:2,4,6", "-23:3,9,12", "-3:6,0,6", "-4:5,0,5", "-4:6,0,6"],
)


@CELL_MODULI
def test_keyed_cells_match_composed_representatives(dk, ideal, monkeypatch):
    # every cell keyed from the product form and correcting row is the key
    # of the representative `compose` builds; at dK=-3 and -4 the reduced
    # forms' extra automorphs are absorbed by the row key's unit orbit, and
    # so is the unit -1 that negates the correcting row
    mod = make_modulus(make_discriminant(dk), *ideal)
    reps = [fc.rep for fc in enumerate_classes(mod).classes]
    level = 2 * mod.c * abs(mod.disc.d)
    for f in reps:
        for g in reps:
            moved, gamma = coprime_normalize(g, level * f.a)
            keyed = rayclass._key_at(*rayclass._compose_parts(f, moved, gamma, mod), mod, {})
            assert keyed == class_key(compose(f, g, mod), mod), (f, g)
    group, parts, seconds = group_table(mod), rayclass._compose_parts, []

    def negated(form1, moved, gamma, modulus):
        seconds.append((moved, gamma))
        product, (x, y) = parts(form1, moved, gamma, modulus)
        return product, (-x % modulus.c, -y % modulus.c)

    monkeypatch.setattr(rayclass, "_compose_parts", negated)
    assert group_table(mod).table == group.table
    assert len(seconds) == len(group.classes) * _generator_count(seconds)


@CELL_MODULI
@pytest.mark.parametrize(
    "fault",
    [lambda x, y: (0, 1), lambda x, y: (y, x), lambda x, y: (0, y)],
    ids=["row (0,1)", "swapped", "x zeroed"],
)
def test_table_catches_a_wrong_correcting_row(dk, ideal, fault, monkeypatch):
    # a wrong row keys a wrong or unknown class: either way the table raises
    # InternalCheckError, never a bare KeyError from the class index
    mod, parts, seconds = make_modulus(make_discriminant(dk), *ideal), rayclass._compose_parts, []
    faults = [lambda x, y: (x, y)]

    def faulty(form1, moved, gamma, modulus):
        seconds.append((moved, gamma))
        product, row = parts(form1, moved, gamma, modulus)
        return product, faults[-1](*row)

    monkeypatch.setattr(rayclass, "_compose_parts", faulty)
    # unfaulted, the seam keys every generator cell
    group = group_table(mod)
    assert len(seconds) == len(group.classes) * _generator_count(seconds)
    faults.append(fault)
    with pytest.raises(InternalCheckError):
        group_table(mod)


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
    a1, a2 = mod.a1, mod.a2
    level = mod.c
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
    # the lifted bottom row of every class for k in [-50, 50] meets the
    # congruence with bottom-left entry a1*k mod N, and k = 0 lifts (0, 1)
    # as it is, leaving the shear alone
    for dk, ideal in ((-3, (6, 0, 6)), (-4, (6, 0, 6)), (-23, (1, 8, 31))):
        mod = make_modulus(make_discriminant(dk), *ideal)
        for fc in enumerate_classes(mod).classes:
            for k in range(-50, 51):
                j = k % 9 - 4
                g = witness_matrix(fc.rep, mod, k, j)
                assert rayclass._satisfies_witness(g, fc.rep, mod), (dk, fc.rep, k)
                assert (g.r - mod.a1 * k) % mod.c == 0, (dk, fc.rep, k)
                assert k != 0 or g == t_power(j), (dk, fc.rep, j)


@pytest.mark.parametrize("module", ["qfield", "forms", "rayclass"])
def test_exact_layer_keeps_no_function_cache(module):
    """The exact layer is stateless: no function or method of its modules is
    wrapped by functools.cache or lru_cache, which is what adds cache_info."""
    mod = importlib.import_module(f"rayform.{module}")
    own = [v for v in vars(mod).values() if getattr(v, "__module__", None) == mod.__name__]
    members = own + [m for cls in own if isinstance(cls, type) for m in vars(cls).values()]
    assert [m for m in members if hasattr(m, "cache_info")] == []


def test_enumerate_many_moduli_match_oracle():

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
        (-23, (1, 176, 211), "d81c4ce60dd2f398e6193169bc5d70dcb51d5a577a21a47a89e1fe7fd62e1ebd"),
        (-23, (1, 784, 1013), "e98cef4f795fb49bcd195e7954be070733da7d38c9fce84f6d04a87809da4ff4"),
        (-23, (1, 1565, 2003), "4fb9a7ea085d3b4303ff4a021c7c39178ade0300f242737f3ec0b81587cb2c49"),
        (-23, (31, 0, 31), "98d4331e8d3262e6dbfd26ceec7997ce28b698bb0950574b6997a495502c1462"),
        (-23, (47, 0, 47), "031bdbe814818b579e7917da0b9883a8edc0a7155ea4d712f6bd0822026a984b"),
    ],
    ids=["h=45", "h=216", "h=588", "h=315", "h=1518", "h=3003", "h=1350", "h=3174"],
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
    assert data["table"] is group20.table and len(data["table"]) == 4
    assert data["invariant_factors"] == (4,)

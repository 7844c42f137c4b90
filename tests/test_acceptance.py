"""Acceptance gate: one test per acceptance criterion, exact or at the
stated tolerance, each printing a single PASS line with its measurements."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

from rayform.forms import QuadForm, S_FLIP, UnimodMatrix, act, reduced_forms, t_power
from rayform import modular
from rayform.modular import (
    FrickeLabel,
    Precision,
    eisenstein_j,
    eval_descriptor,
    eval_descriptor_unreduced,
    fricke,
)
from rayform.qfield import make_discriminant, ray_class_number_oracle
from rayform.rayclass import (
    class_translate,
    compose,
    descriptor,
    enumerate_classes,
    equivalent,
    group_table,
    make_modulus,
)

from conftest import form_near, fraction_point_form, same_ideal_label, valid_triples

D20 = make_discriminant(-20)
D23 = make_discriminant(-23)

MOD20 = make_modulus(D20, 2, 4, 6)
MOD23 = make_modulus(D23, 3, 9, 12)

REPS4 = [QuadForm(1, 0, 5), QuadForm(7, -6, 2), QuadForm(5, 0, 1), QuadForm(83, -118, 42)]

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

P80 = Precision(80)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})", flush=True)


def hp_ctx(digits=80):
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = digits + 10
    return ctx


def class_of(form, mod, classes):
    hits = [i for i, fc in enumerate(classes) if equivalent(form, fc.rep, mod) is not None]
    assert len(hits) == 1
    return hits[0]


def translate(form, mod, rng, kmax=4, jmax=3):
    while True:
        moved = class_translate(
            form, mod, rng.randrange(-kmax, kmax + 1), rng.randrange(-jmax, jmax + 1)
        )
        if moved is not None:
            return moved


def test_criterion_1():
    start = time.monotonic()
    group = group_table(MOD20)
    assert len(group.classes) == 4

    labels = [class_of(f, MOD20, group.classes) for f in REPS4]
    assert sorted(labels) == [0, 1, 2, 3]

    # the reference forms are successive powers of one generator, so the
    # induced relabeling must carry the computed table onto addition mod 4
    for i in range(4):
        for j in range(4):
            prod = group.table[labels[i]][labels[j]]
            assert prod == labels[(i + j) % 4]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0

    out = subprocess.run(
        [sys.executable, "-m", "rayform.cli", "enumerate", "--dk", "-20", "--ideal", "2,4,6"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0
    assert len(json.loads(out.stdout)["classes"]) == 4
    report(1, f"4 classes, reference cyclic table reproduced, {elapsed:.3f}s")


def test_criterion_2():
    start = time.monotonic()
    group = group_table(MOD23)
    assert len(group.classes) == 12
    labels = [class_of(f, MOD23, group.classes) for f in REPS12]
    assert sorted(labels) == list(range(12))
    assert group.invariant_factors == (2, 6)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"12 distinct classes, invariant factors (2, 6), {elapsed:.3f}s")


def test_criterion_3():
    checked = 0
    for d in (-20, -23, -4, -3, -7, -8):
        disc = make_discriminant(d)
        per_disc = 0
        for t in valid_triples(disc, max_c=12):
            mod = make_modulus(disc, t.a1, t.a2, t.c)
            group = enumerate_classes(mod)
            assert len(group.classes) == ray_class_number_oracle(disc, t)
            checked += 1
            per_disc += 1
            if per_disc >= 5:
                break
        assert per_disc >= 1
    assert checked >= 20
    report(3, f"{checked} moduli across 6 fields, counts match the index formula")


def test_criterion_4():
    rng = random.Random(1009)
    total = 0
    for mod in (MOD20, MOD23):
        classes = enumerate_classes(mod).classes
        agreements = 0
        for _ in range(500):
            f1 = translate(rng.choice(classes).rep, mod, rng)
            f2 = translate(rng.choice(classes).rep, mod, rng)
            mine = equivalent(f1, f2, mod) is not None
            assert mine == same_ideal_label(f1, f2, mod)
            agreements += 1
        assert agreements == 500
        total += agreements
    report(4, f"{total} random pairs, witness route always matches the ideal route")


def gamma1_matrices(level, bound=12):
    out = []
    for p in range(-bound, bound + 1):
        if p == 0 or p % level != 1 % level:
            continue
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                if r % level:
                    continue
                num = 1 + q * r
                if num % p:
                    continue
                s = num // p
                if abs(s) <= bound and s % level == 1 % level:
                    out.append(UnimodMatrix(p, q, r, s))
    return out


def in_gamma1(g, level):
    return g.p % level == 1 % level and g.r % level == 0 and g.s % level == 1 % level


def sample_forms(disc, level, rng, want):
    base = reduced_forms(disc)
    out = []
    while len(out) < want:
        f = rng.choice(base)
        for _ in range(rng.randrange(0, 4)):
            g = t_power(rng.randrange(-2, 3))
            if rng.random() < 0.5:
                g = g @ S_FLIP
            f = act(f, g)
        if max(abs(f.a), abs(f.b), abs(f.c)) <= 50 and math.gcd(f.a, level) == 1:
            out.append(f)
    return out


def test_criterion_5():
    rng = random.Random(4242)
    pairs_checked = 0
    for level in range(2, 9):
        mod = make_modulus(D20, level, 0, level)
        brute_list = gamma1_matrices(level)
        assert brute_list

        pairs = []
        forms = sample_forms(D20, level, rng, 10)
        for f in forms:
            g = rng.choice(brute_list)
            pairs.append((act(f, g), f))
        for i in range(0, len(forms) - 1, 2):
            pairs.append((forms[i], forms[i + 1]))

        for f1, f2 in pairs:
            witness = equivalent(f1, f2, mod)
            brute = any(act(f2, g) == f1 for g in brute_list)
            if brute:
                assert witness is not None
            if witness is not None:
                # the witness itself certifies the congruence subgroup side
                assert in_gamma1(witness, level)
                assert act(f2, witness) == f1
            pairs_checked += 1
    report(5, f"{pairs_checked} pairs over levels 2..8, relation matches the congruence subgroup")


def test_criterion_6():
    rng = random.Random(355)
    for mod, group in ((MOD20, group_table(MOD20)), (MOD23, group_table(MOD23))):
        classes = group.classes
        trials = 0
        for _ in range(100):
            i = rng.randrange(len(classes))
            j = rng.randrange(len(classes))
            mi = translate(classes[i].rep, mod, rng)
            mj = translate(classes[j].rep, mod, rng)
            out = compose(mi, mj, mod)
            expected = classes[group.table[i][j]].rep
            assert equivalent(out, expected, mod) is not None
            trials += 1
        assert trials == 100
    report(6, "composition lands in the table class for 100 translate trials per modulus")


def test_criterion_7():
    start = time.monotonic()
    ctx = hp_ctx()
    tol40 = ctx.mpf(10) ** -40

    assert abs(eisenstein_j(QuadForm(1, 0, 1), P80) - 1728) < ctx.mpf(10) ** -70
    assert abs(eisenstein_j(QuadForm(1, 1, 1), P80)) < ctx.mpf(10) ** -70

    rng = random.Random(77)
    worst_power = ctx.mpf(0)
    done = 0
    while done < 20:
        form = form_near(rng.randrange(1 << 15, 1 << 16), rng.uniform(-0.5, 0.5), rng.uniform(0.85, 1.7))
        level = rng.randrange(3, 9)
        r, s = rng.randrange(level), rng.randrange(level)
        if r == 0 and s == 0:
            continue
        jv = eisenstein_j(form, P80)
        if abs(jv) < ctx.mpf("1e-5") or abs(jv - 1728) < ctx.mpf("1e-5"):
            continue
        f1 = fricke(FrickeLabel(1, r, s, level), form, P80)
        f2 = fricke(FrickeLabel(2, r, s, level), form, P80)
        f3 = fricke(FrickeLabel(3, r, s, level), form, P80)
        worst_power = max(worst_power, abs(f2 - 46656 * f1**2 / (jv - 1728)))
        worst_power = max(worst_power, abs(f3 - 80621568 * f1**3 / (jv * (jv - 1728))))
        done += 1
    assert worst_power < tol40

    # the root of act(form, g^-1) is g(tau), evaluated there unreduced
    worst_law = ctx.mpf(0)
    for _ in range(50):
        form = form_near(rng.randrange(1 << 15, 1 << 16), rng.uniform(-0.5, 0.5), rng.uniform(0.85, 1.7))
        g = t_power(rng.randrange(-3, 4))
        for _ in range(rng.randrange(1, 3)):
            g = g @ S_FLIP @ t_power(rng.randrange(-3, 4))
        level = rng.randrange(3, 9)
        r, s = rng.randrange(level), rng.randrange(level)
        if r == 0 and s == 0:
            s = 1
        i = rng.choice((1, 2, 3))
        lhs = modular._mpc(P80, modular._fricke_at(FrickeLabel(i, r, s, level), act(form, g.inv()), P80))
        rhs = fricke(FrickeLabel(i, r * g.p + s * g.r, r * g.q + s * g.s, level), form, P80)
        worst_law = max(worst_law, abs(lhs - rhs))
    assert worst_law < tol40

    # the unit-normalized value of the lattice [2 tau + 4, 6] at z = 1: the
    # row (0, 1/6) on [xi, 1], xi = (2 tau + 4)/6 with tau = sqrt(-5)
    xi = fraction_point_form(D20, Fraction(2, 6), Fraction(4, 6))
    unit_value = modular._mpc(P80, modular._fricke_at(FrickeLabel(1, 0, 1, 6), xi, P80))
    identity_value = eval_descriptor(descriptor(QuadForm(1, 0, 5), MOD20), None, P80)
    drift = abs(unit_value - identity_value)
    assert drift < tol40

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        7,
        f"power residual {mpmath.nstr(worst_power, 3)}, law residual "
        f"{mpmath.nstr(worst_law, 3)}, unit-value drift {mpmath.nstr(drift, 3)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8():
    ctx = hp_ctx()
    tol40 = ctx.mpf(10) ** -40
    rng = random.Random(8080)
    group = enumerate_classes(MOD20)
    worst = ctx.mpf(0)
    for fc in group.classes:
        ref = eval_descriptor(descriptor(fc.rep, MOD20), None, P80)
        for _ in range(5):
            moved = translate(fc.rep, MOD20, rng)
            value = eval_descriptor(descriptor(moved, MOD20), None, P80)
            worst = max(worst, abs(value - ref))
        d = descriptor(fc.rep, MOD20)
        worst = max(worst, abs(eval_descriptor_unreduced(d, P80) - ref))
    assert worst < tol40
    report(8, f"class-invariance and route agreement, worst deviation {mpmath.nstr(worst, 3)}")

"""Regenerate the benchmark's correctness references under bench/refs/.

    python3 bench/make_refs.py

Run it only at a commit whose outputs are trusted; the references pin that
commit's results.  It writes:

  sweep.json  every modulus of the sweep (fundamental dK in [-119, -3], canonical
              ideal triples with c <= 9, the unit ideal excluded) plus the worked
              ladder, each with its ray class number from
              ray_class_number_oracle, the class number h_K of dK and, where the
              benchmark can draw it, the sha256 of its composition table and
              invariant factors
  eval.json   class representatives of the eval pool with their class values
              computed at REF_DIGITS digits, and the benchmark digit counts at
              which this commit's value misses the gate (`gate_miss`); the
              benchmark does not draw those classes
"""

from __future__ import annotations

import json
import sys

import mpmath

import workloads as wl

sys.path.insert(0, str(wl.SRC))

from rayform import forms, modular, qfield, rayclass  # noqa: E402

REF_DIGITS = 1040
SWEEP_DK = range(-3, -120, -1)
SWEEP_MAX_C = 9
# the "other" eval pool: moduli outside the unit discriminants with a few classes
EVAL_OTHER_H = (2, 4)
EVAL_OTHER_MAX_C = 3
EVAL_UNIT_MAX_H = 6


def sweep_moduli():
    for dk in SWEEP_DK:
        try:
            disc = qfield.make_discriminant(dk)
        except qfield.QFieldError:
            continue
        for c in range(1, SWEEP_MAX_C + 1):
            for a1 in range(1, c + 1):
                if c % a1:
                    continue
                for a2 in range(0, c, a1):
                    if (a1, a2, c) == (1, 0, 1):
                        continue
                    try:
                        triple = qfield.make_ideal_triple(disc, a1, a2, c)
                    except qfield.QFieldError:
                        continue
                    yield dk, a1, a2, c, qfield.ray_class_number_oracle(disc, triple)


def sweep_row(dk, a1, a2, c, h, drawable):
    disc = qfield.make_discriminant(dk)
    row = [dk, a1, a2, c, h, qfield.class_number(disc), None]
    if drawable:
        group = rayclass.group_table(rayclass.make_modulus(disc, a1, a2, c))
        if len(group.classes) != h:
            raise SystemExit(f"dK={dk} mod {a1},{a2},{c}: {len(group.classes)} classes, oracle {h}")
        row[-1] = wl.table_digest(group.table, group.invariant_factors)
    return row


def eval_pool(sweep):
    def pool_of(m):
        dk, _, _, c, h = m[:5]
        if tuple(m[:4]) in wl.EVAL_WORKED:
            return "worked"
        if dk in wl.UNIT_DISCS and h <= EVAL_UNIT_MAX_H:
            return f"dk{dk}"
        if EVAL_OTHER_H[0] <= h <= EVAL_OTHER_H[1] and c <= EVAL_OTHER_MAX_C:
            return "other"
        return None

    p = modular.Precision(REF_DIGITS)
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = REF_DIGITS
    out = []
    for m in sweep:
        pool = pool_of(m)
        if pool is None:
            continue
        dk, a1, a2, c = m[:4]
        mod = rayclass.make_modulus(qfield.make_discriminant(dk), a1, a2, c)
        for fc in rayclass.enumerate_classes(mod).classes:
            rep = forms.make_form(*fc.rep.coeffs())
            desc = rayclass.descriptor(rep, mod)
            text = modular.complex_to_json(modular.eval_descriptor(desc, None, p), p)
            ref = ctx.mpc(text["re"], text["im"])
            misses = [
                d for d in wl.EVAL_DIGITS
                if wl.eval_problem(ctx, ref, modular.eval_descriptor(desc, None, modular.Precision(d)), d)
            ]
            out.append({
                "pool": pool, "dk": dk, "ideal": [a1, a2, c], "form": list(rep.coeffs()),
                **text, "gate_miss": misses,
            })
        print(f"eval pool {pool}: dK={dk} mod {a1},{a2},{c}", file=sys.stderr)
    return out


def write_rows(path, key, rows, **header) -> None:
    """JSON object with the header fields and one row per line under key."""
    head = json.dumps(header)[:-1]
    body = ",\n".join(json.dumps(r) for r in rows)
    with open(path, "w") as fh:
        fh.write(f'{head}, "{key}": [\n{body}\n]}}\n')


def main() -> None:
    moduli = list(sweep_moduli())
    ladder = [m for m in wl.LADDER if m not in {tuple(x[:4]) for x in moduli}]
    for dk, a1, a2, c in ladder:
        disc = qfield.make_discriminant(dk)
        h = qfield.ray_class_number_oracle(disc, qfield.make_ideal_triple(disc, a1, a2, c))
        moduli.append((dk, a1, a2, c, h))
    rows = [sweep_row(*m, drawable=m[4] <= wl.TABLE_MAX_H or m[:4] in wl.LADDER) for m in moduli]
    wl.REFS.mkdir(exist_ok=True)
    write_rows(wl.REFS / "sweep.json", "moduli", rows,
               fields=["dK", "a1", "a2", "c", "h", "h_K", "table_sha256"])
    print(f"sweep: {len(rows)} moduli", file=sys.stderr)
    classes = eval_pool(rows)
    write_rows(wl.REFS / "eval.json", "classes", classes, ref_digits=REF_DIGITS)
    print(f"eval pool: {len(classes)} classes", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Command line front end.

Subcommands map one-to-one onto engine operations; all output goes to
stdout as JSON by default or as aligned text with --format text.  Exit
status: 0 success, 2 invalid input, 3 internal consistency failure.
Only `eval` and `verify` import the numeric layer (modular and checks, and
with them mpmath), inside their handlers: the other subcommands never load
it, and a failed normalization self-test exits 3 like any other
`InternalCheckError`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .forms import QuadForm, parse_form, reduced_forms
from .qfield import (
    InternalCheckError,
    QFieldError,
    canonicalize_ideal,
    make_discriminant,
    parse_ideal_triple,
    ray_class_number_oracle,
)
from .rayclass import (
    Modulus,
    class_group_to_json,
    compose,
    descriptor,
    enumerate_classes,
    equivalent,
    equivalent_oracle,
    group_table,
    make_modulus,
    point_coords,
)

_VERIFY_SEED = 911


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayform",
        description="Exact form-class arithmetic over ray moduli, with numeric checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=True):
        p.add_argument("--dk", type=int, required=True, help="fundamental discriminant")
        if ideal:
            p.add_argument("--ideal", help="modulus as canonical triple a1,a2,N")
            p.add_argument(
                "--ideal-gens",
                help="modulus as two generators 'u1,v1;u2,v2' in coordinates over (tau, 1)",
            )
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("reduced", help="reduced forms of the discriminant")
    common(p, ideal=False)

    p = sub.add_parser("enumerate", help="all classes of the modulus")
    common(p)

    p = sub.add_parser("table", help="classes, composition table, invariant factors")
    common(p)

    p = sub.add_parser("equiv", help="test two forms for class equality, both routes")
    common(p)
    p.add_argument("--form", action="append", required=True, help="form as a,b,c (twice)")

    p = sub.add_parser("compose", help="compose the classes of two forms")
    common(p)
    p.add_argument("--form", action="append", required=True, help="form as a,b,c (twice)")

    p = sub.add_parser("descriptor", help="exact Galois-action data of a form's class")
    common(p)
    p.add_argument("--form", required=True, help="form as a,b,c")

    p = sub.add_parser("eval", help="numeric value of a form's descriptor")
    common(p)
    p.add_argument("--form", required=True, help="form as a,b,c")
    p.add_argument("--index", type=int, default=None, help="function index 1, 2 or 3")
    p.add_argument("--digits", type=int, default=None)

    p = sub.add_parser("verify", help="run the property suite for one modulus")
    common(p)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--tolerance-exponent", type=int, default=None)

    p = sub.add_parser("oracle", help="ray class number by the index formula")
    common(p)

    return parser


def _digits(args) -> int:
    if getattr(args, "digits", None) is not None:
        return args.digits
    env = os.environ.get("RAYFORM_DIGITS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise QFieldError(f"RAYFORM_DIGITS={env!r} is not an integer") from exc
    return 80


def _modulus(args) -> Modulus:
    disc = make_discriminant(args.dk)
    if args.ideal and args.ideal_gens:
        raise QFieldError("give either --ideal or --ideal-gens, not both")
    if args.ideal:
        t = parse_ideal_triple(disc, args.ideal)
    elif args.ideal_gens:
        try:
            pairs = [tuple(int(x) for x in part.split(",")) for part in args.ideal_gens.split(";")]
            (u1, v1), (u2, v2) = pairs
        except ValueError as exc:
            raise QFieldError(
                f"expected --ideal-gens 'u1,v1;u2,v2', got {args.ideal_gens!r}"
            ) from exc
        t = canonicalize_ideal(disc, [(u1, v1), (u2, v2)])
    else:
        raise QFieldError("a modulus is required: --ideal or --ideal-gens")
    return make_modulus(disc, t.a1, t.a2, t.c)


def _two_forms(args) -> tuple[QuadForm, QuadForm]:
    if len(args.form) != 2:
        raise QFieldError("exactly two --form arguments are required")
    return parse_form(args.form[0]), parse_form(args.form[1])


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines():
            print(line)


def _cmd_reduced(args) -> int:
    disc = make_discriminant(args.dk)
    forms = reduced_forms(disc)
    payload = {"dK": disc.d, "forms": [f._asdict() for f in forms]}
    _emit(args, payload, lambda: [str(f) for f in forms])
    return 0


def _group_text(group) -> list[str]:
    lines = ["classes:"]
    for idx, fc in enumerate(group.classes):
        lines.append(f"  {idx}: {fc.rep}")
    if group.table is not None:
        lines.append("table:")
        width = len(str(len(group.classes) - 1))
        for row in group.table:
            lines.append("  " + " ".join(f"{x:>{width}}" for x in row))
    if group.invariant_factors is not None:
        lines.append(
            "invariant factors: " + " ".join(str(x) for x in group.invariant_factors)
        )
    return lines


def _cmd_table(args, build=group_table) -> int:
    group = build(_modulus(args))
    _emit(args, class_group_to_json(group), lambda: _group_text(group))
    return 0


def _cmd_equiv(args) -> int:
    mod = _modulus(args)
    f1, f2 = _two_forms(args)
    witness = equivalent(f1, f2, mod)
    oracle = equivalent_oracle(f1, f2, mod)
    if (witness is not None) != oracle:
        raise InternalCheckError(
            f"equivalence routes disagree on {f1} vs {f2}: "
            f"witness={witness is not None}, ideal route={oracle}"
        )
    payload = {"equivalent": oracle}
    if witness is not None:
        payload["witness"] = [list(r) for r in witness.rows()]
    _emit(
        args,
        payload,
        lambda: [f"equivalent: {str(oracle).lower()}"]
        + ([f"witness: {witness.rows()}"] if witness is not None else []),
    )
    return 0


def _cmd_compose(args) -> int:
    mod = _modulus(args)
    f1, f2 = _two_forms(args)
    result = compose(f1, f2, mod)
    _emit(args, {"form": result._asdict()}, lambda: [str(result)])
    return 0


def _cmd_descriptor(args) -> int:
    mod = _modulus(args)
    d = descriptor(parse_form(args.form), mod)
    u, v = point_coords(d.point, mod.disc)
    payload = {
        "a_inv": d.a_inv,
        "eval_matrix": [list(d.eval_matrix[0]), list(d.eval_matrix[1])],
        "point": {"u": str(u), "v": str(v)},
        "twist": d.twist,
    }
    _emit(
        args,
        payload,
        lambda: [
            f"a_inv: {d.a_inv}",
            f"eval_matrix: {d.eval_matrix}",
            f"point: {u}*tau + {v}",
            f"twist: {d.twist}",
        ],
    )
    return 0


def _cmd_eval(args) -> int:
    from . import modular

    mod = _modulus(args)
    d = descriptor(parse_form(args.form), mod)
    p = modular.Precision(_digits(args))
    value = modular.eval_descriptor(d, args.index, p)
    label = modular.descriptor_label(d, args.index)
    payload = {"label": str(label), "value": modular.complex_to_json(value, p)}
    _emit(
        args,
        payload,
        lambda: [f"label: {label}", f"value: {payload['value']['re']} + {payload['value']['im']}*i"],
    )
    return 0


def _cmd_oracle(args) -> int:
    mod = _modulus(args)
    count = ray_class_number_oracle(mod.disc, mod.ideal)
    _emit(args, {"ray_class_number": count}, lambda: [str(count)])
    return 0


def _cmd_verify(args) -> int:
    from . import modular
    from .checks import run_checks

    mod = _modulus(args)
    digits = _digits(args)
    tol_exp = digits // 2 if args.tolerance_exponent is None else args.tolerance_exponent
    checks = run_checks(mod, modular.Precision(digits), tol_exp, random.Random(_VERIFY_SEED))
    passed = all(c.passed for c in checks)
    results = [c._asdict() for c in checks]
    payload = {"dK": mod.disc.d, "ideal": str(mod.ideal), "passed": passed, "checks": results}
    _emit(args, payload, lambda: [*map(str, checks), f"overall: {'PASS' if passed else 'FAIL'}"])
    return 0 if passed else 3


_HANDLERS = {
    "reduced": _cmd_reduced,
    "enumerate": lambda args: _cmd_table(args, enumerate_classes),
    "table": _cmd_table,
    "equiv": _cmd_equiv,
    "compose": _cmd_compose,
    "descriptor": _cmd_descriptor,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except QFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Recompute the two worked class groups and print their tables.

Each case names a fundamental discriminant, a modulus, and a frozen set
of reference representative forms; the script prints the computed classes,
the composition table in the induced labeling, and the invariant factors.
"""

import argparse
import sys
from dataclasses import dataclass

from rayform.forms import QuadForm
from rayform.qfield import InternalCheckError, make_discriminant
from rayform.rayclass import _class_index, group_table, make_modulus


@dataclass(frozen=True)
class Case:
    name: str
    dk: int
    ideal: tuple[int, int, int]
    # frozen reference representatives; the order-4 labels follow the
    # generator powers, the order-12 labels are arbitrary
    named_forms: tuple[tuple[str, QuadForm], ...]


CASES = (
    Case(
        "order-4 group",
        -20,
        (2, 4, 6),
        (
            ("e", QuadForm(1, 0, 5)),
            ("g", QuadForm(7, -6, 2)),
            ("g2", QuadForm(5, 0, 1)),
            ("g3", QuadForm(83, -118, 42)),
        ),
    ),
    Case(
        "order-12 group",
        -23,
        (3, 9, 12),
        (
            ("r0", QuadForm(1, 1, 6)),
            ("r1", QuadForm(829, -691, 144)),
            ("r2", QuadForm(23, 23, 6)),
            ("r3", QuadForm(59, -53, 12)),
            ("r4", QuadForm(29, -21, 4)),
            ("r5", QuadForm(2561, -2089, 426)),
            ("r6", QuadForm(403, -295, 54)),
            ("r7", QuadForm(2743, -2461, 552)),
            ("r8", QuadForm(41, -31, 6)),
            ("r9", QuadForm(3749, -3059, 624)),
            ("r10", QuadForm(127, 199, 78)),
            ("r11", QuadForm(2467, -2149, 468)),
        ),
    ),
)


def run_case(case: Case) -> None:
    disc = make_discriminant(case.dk)
    mod = make_modulus(disc, *case.ideal)
    group = group_table(mod)
    print(f"== {case.name}: dK = {case.dk}, modulus {mod} ==")
    print(f"classes ({len(group.classes)}):")

    names = {_class_index(form, group): name for name, form in case.named_forms}
    if len(names) != len(group.classes):
        sys.exit(f"error: the named forms of the {case.name} do not cover every class")
    for i, fc in enumerate(group.classes):
        print(f"  {i}: {fc.rep}   ({names[i]})")

    width = max(len(n) for n in names.values())
    print("table (rows and columns in class order):")
    header = " " * (width + 2) + " ".join(f"{names[j]:>{width}}" for j in range(len(group.classes)))
    print(header)
    for i, row in enumerate(group.table):
        cells = " ".join(f"{names[x]:>{width}}" for x in row)
        print(f"  {names[i]:>{width}} {cells}")
    factors = " x ".join(f"Z/{m}" for m in group.invariant_factors)
    print(f"invariant factors: {list(group.invariant_factors)}  ({factors})")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", choices=[c.name for c in CASES], default=None)
    args = parser.parse_args()
    try:
        for case in CASES:
            if args.case is None or case.name == args.case:
                run_case(case)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

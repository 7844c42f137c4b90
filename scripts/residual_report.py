"""Survey numeric residuals of the modular identities at a chosen precision.

Runs the property suite of `rayform verify` (rayform.checks) on dK = -20,
modulus 2,4,6, with its own sample count and seed, and prints one line per
check with its detail: the worst residual of each numeric check, counts
for the exact ones.  The tolerance is 10^-(digits/2).  Exits 0
when every check passes, 3 when one fails or an internal check fails (as
`rayform verify` does), and 2 on invalid input.
"""

import argparse
import random
import sys

from rayform.checks import run_checks
from rayform.modular import Precision
from rayform.qfield import InternalCheckError, QFieldError, make_discriminant
from rayform.rayclass import make_modulus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--digits", type=int, default=80)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20260822)
    args = parser.parse_args()

    mod = make_modulus(make_discriminant(-20), 2, 4, 6)
    rng = random.Random(args.seed)
    try:
        checks = run_checks(mod, Precision(args.digits), args.digits // 2, rng, args.samples)
    except QFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    print(f"digits={args.digits} samples={args.samples} seed={args.seed}")
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 3


if __name__ == "__main__":
    sys.exit(main())

"""Survey numeric residuals of the modular identities at a chosen precision.

Runs the property suite of `rayform verify` (rayform.checks) on dK = -20,
modulus 2,4,6, with its own sample count and seed, and prints one line per
check with its worst residual.  The tolerance is 10^-(digits/2).
"""

import argparse
import random
import sys

from rayform.checks import run_checks
from rayform.modular import Precision
from rayform.qfield import QFieldError, make_discriminant
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
    print(f"digits={args.digits} samples={args.samples} seed={args.seed}")
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Exact form-class arithmetic over ray moduli of imaginary quadratic
fields, with an arbitrary-precision modular-function layer on top.

The exact side (qfield, forms, rayclass) runs on integers: canonical
ideal triples and their products on integer (tau, 1) coordinates,
quadratic forms, congruence-constrained equivalence, class enumeration,
composition and group structure.  A point of the field is the root of a
primitive integral form; Fractions appear only when its coordinates are
printed.  The numeric side (modular) evaluates the modular functions at
whatever precision is asked for, from Jacobi theta series with the
classical q-series as an independent reference, and never touches global
state.  The checks module runs the
property suite of one modulus, and the cli module exposes everything as
subcommands.

The package root exports the exact layer only, so importing it loads
neither mpmath nor modular (whose import runs its normalization
self-test); `eval_descriptor` and `Precision` come from `rayform.modular`.
The records are NamedTuples: each hashes and compares as the tuple of its
fields, so it also equals a plain tuple of the same values.
"""

from .qfield import make_discriminant
from .rayclass import (
    compose,
    descriptor,
    enumerate_classes,
    equivalent,
    group_table,
    make_modulus,
)

__version__ = "0.1.0"

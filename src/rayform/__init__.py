"""Exact form-class arithmetic over ray moduli of imaginary quadratic
fields, with an arbitrary-precision modular-function layer on top.

The exact side (qfield, forms, rayclass) runs on integers: canonical
ideal triples and their products on integer (tau, 1) coordinates,
quadratic forms, congruence-constrained equivalence, class enumeration,
composition and group structure; Fractions appear only in the exact
field points handed to the numeric side.  The numeric side (modular)
evaluates the modular functions at whatever precision is asked for, from
Jacobi theta series with the classical q-series as an independent
reference, and never touches global state.  The checks module runs the
property suite of one modulus, and the cli module exposes everything as
subcommands.
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
from .modular import Precision, eval_descriptor

__version__ = "0.1.0"

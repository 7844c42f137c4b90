"""Exact form-class arithmetic over ray moduli of imaginary quadratic
fields, with an arbitrary-precision modular-function layer on top.

The exact side (qfield, forms, rayclass) runs entirely on integers and
Fractions: field elements, canonical ideal triples, quadratic forms,
congruence-constrained equivalence, class enumeration, composition and
group structure.  The numeric side (modular) evaluates the classical
q-series at whatever precision is asked for and never touches global
state.  The checks module runs the property suite of one modulus, and
the cli module exposes everything as subcommands.
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

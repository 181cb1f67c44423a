"""Exact-arithmetic toolkit for lecture hall cones: Gorenstein decisions,
weight generating functions, h*-vectors, and the gcd structure of
second-order recurrence sequences.

Each library module declares its part of the public surface in its own
`__all__`; the package re-exports those names, and its `__all__` joins
theirs.
"""

from . import enumeration, exact_arith, gcd_structure, gorenstein, sequences
from .enumeration import *
from .exact_arith import *
from .gcd_structure import *
from .gorenstein import *
from .sequences import *

__version__ = "0.1.0"

__all__ = []
__all__ += sequences.__all__
__all__ += gorenstein.__all__
__all__ += enumeration.__all__
__all__ += gcd_structure.__all__
__all__ += exact_arith.__all__

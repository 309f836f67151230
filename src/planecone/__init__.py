"""Exact arithmetic for exceptional bundles on the projective plane.

Slopes, discriminants, and Euler characteristics are plain Fractions, and
wall radii are held as rational squares.  The only irrationals are the ends
alpha +- x_alpha of the exceptional intervals, and every decision at one is
an integer formula on the slope's numerator and rank, so every comparison in
the package is exact.  A QuadSurd is only printed: every argument is
rational, and no function of the package compares a surd or computes with one.
"""

from . import bridgeland, chern, contfrac, exactnum, exceptional, resolution, stability, verify
from .bridgeland import *
from .chern import *
from .contfrac import *
from .exactnum import *
from .exceptional import *
from .resolution import *
from .stability import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *bridgeland.__all__,
    *chern.__all__,
    *contfrac.__all__,
    *exactnum.__all__,
    *exceptional.__all__,
    *resolution.__all__,
    *stability.__all__,
    *verify.__all__,
]

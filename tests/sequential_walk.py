"""The level-by-level walk down the slope tree, a reference for exceptional._walk.

This is the walk as it was before it galloped along runs through the memo:
it asks about every slope between the integers k, k + 1 and where choose
stops, one level at a time, and builds each missing one as the product of
its two neighbours.  It reads and fills exceptional._MEMO as it is when
called, so a test that swaps the memo gives it the same one.  With k = 0 it
is the reference for _walk's unit-tree walk; any other k walks a twisted
tree, as associated_slope and gamma_inv once did, and the tests compare
those walks with the twisted answers of the unit tree.  The walk tests steer
by two inputs kept here too: decimals that land deeper as they grow, and
gamma at a slope, which gamma_inv walks back to.
"""

import math
from fractions import Fraction

import planecone.exceptional as exceptional
from planecone.exceptional import CantorPointError, DyadicAddress, _make_slope, dot


def first_decimal_above_golden(e):
    """The least e-digit decimal above (3 - sqrt 5)/2, the slopes' accumulation point."""
    n = 10**e
    # sqrt(5 n^2) lies strictly between s and s + 1, so this is floor(n (3 - sqrt 5)/2)
    s = math.isqrt(5 * n * n)
    return Fraction((3 * n - s - 1) // 2 + 1, n)


def gamma_at(s):
    """gamma at the slope s, P(s) - 1 + D_s, found without a walk."""
    return exceptional.hilbert_poly(s.value) - 1 + s.discriminant


def sequential_walk(k: int, choose, max_depth: int):
    memo = exceptional._MEMO
    ends = []
    for p in (k, k + 1):
        end = memo.get((p, 0))
        if end is None:
            end = memo[(p, 0)] = _make_slope(Fraction(p), DyadicAddress(p, 0))
        if choose(end) == 0:
            return end
        ends.append(end)
    lo, hi = ends
    a = k
    for q in range(1, max_depth + 1):
        p = 2 * a + 1
        mid = memo.get((p, q))
        if mid is None:
            mid = memo[(p, q)] = _make_slope(dot(lo, hi), DyadicAddress(p, q))
        side = choose(mid)
        if side == 0:
            return mid
        if side > 0:
            lo, a = mid, p
        else:
            hi, a = mid, p - 1
    raise CantorPointError("no slope between %d and %d within depth %d" % (k, k + 1, max_depth))

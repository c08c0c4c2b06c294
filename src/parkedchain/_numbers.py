"""The number rules of every layer's inputs, stated once; each caller
keeps its own message and exception class. A bool is never a number here,
and a plain int or float is tested before the slower ABC check. Also the
one scalar sum of every output: `fold`."""

import math
import numbers
import sys


def whole(x) -> bool:
    """A Python or numpy integer, never a bool."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def index(x) -> bool:
    """A whole number in 0..sys.maxsize: a slot, count or seed that fits an
    array index."""
    return whole(x) and 0 <= x <= sys.maxsize


def real(x) -> bool:
    """A finite Python or numpy real, never a bool: NaN, ±inf and ints too
    large for a float fail."""
    if not (type(x) is float or type(x) is int
            or (isinstance(x, numbers.Real) and not isinstance(x, bool))):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:    # an int past the float range
        return False


def fold(terms):
    """The terms added left to right, from the int 0: the bits Python 3.11's
    sum returns. Python 3.12's sum compensates its float additions, so
    sum([1e16, 1.0, -1e16]) reads 1.0 there and 0.0 here; every score and
    utility a run writes is a fold."""
    total = 0
    for term in terms:
        total += term
    return total

"""The two number rules of every layer's inputs, stated once; each caller
keeps its own message and exception class. A bool is never a number here,
and a plain int or float is tested before the slower ABC check."""

import math
import numbers


def whole(x) -> bool:
    """A Python or numpy integer, never a bool."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


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

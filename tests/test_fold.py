"""The scalar fold that every score and utility sum goes through.

Python 3.12's `sum` compensates its float additions (CPython gh-100425), so
its bits differ from 3.11's, which every golden, pin and seed-0 digest was
recorded with. `fold` adds left to right from the int 0 on every release.
Numpy-free, so that it runs on a Python without the package's dependencies:
`python -m pytest --noconftest tests/test_fold.py`.
"""

import math

from parkedchain._numbers import fold

# fixed float lists whose left-to-right sums 3.12's `sum` changes
LISTS = [
    [0.1] * 10,
    [1e16, 1.0, -1e16],
    [1.0, 1e100, 1.0, -1e100],
    [0.3, 0.6, 0.1, 1e-17, 0.7, 0.2],
    [2.0**-60, 1.0, -1.0, 2.0**-60],
    [0.1, 0.2, 0.3],
    [1e-3] * 1000,
]


def loop(terms):
    total = 0
    for term in terms:
        total = total + term
    return total


def test_cancellation_keeps_the_lost_term_lost():
    # 1e16 + 1.0 rounds back to 1e16 (ties to even); 3.12's sum reads 1.0
    assert fold([1e16, 1.0, -1e16]) == 0.0


def test_a_leading_negative_zero_starts_from_int_zero():
    total = fold([-0.0])
    assert total == 0.0 and math.copysign(1.0, total) == 1.0


def test_fold_equals_an_explicit_loop():
    for terms in LISTS:
        assert fold(terms).hex() == loop(terms).hex(), terms
        assert fold(iter(terms)).hex() == loop(terms).hex(), terms


def test_pinned_bits():
    # the values 3.11's sum returns; 3.12's returns 1.0, 2.0, 1.9, 2**-59 and 0.6
    assert fold([0.1] * 10) == 0.9999999999999999
    assert fold([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert fold([0.3, 0.6, 0.1, 1e-17, 0.7, 0.2]) == 1.8999999999999997
    assert fold([2.0**-60, 1.0, -1.0, 2.0**-60]) == 2.0**-60
    assert fold([0.1, 0.2, 0.3]) == 0.6000000000000001


def test_whole_numbers_stay_exact():
    assert fold([]) == 0 and type(fold([])) is int
    assert fold([2**70, 1, True]) == 2**70 + 2

import math

import numpy as np
import pytest

from qnav.minimize import INV_PHI, golden_min


def golden_min_reevaluating_ends(f, lo, hi, xtol):
    """golden_min as it was when it evaluated its final bracket ends again."""
    a, b = float(lo), float(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    best = min(((fc, c), (fd, d), (f(a), a), (f(b), b)))
    return best[1], best[0]


def unimodal_functions(rng):
    """Seeded unimodal functions on [lo, hi], minima inside, near and beyond the ends."""
    for _ in range(300):
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-6.0, 1.0)
        m = lo + (hi - lo) * rng.uniform(-0.3, 1.3)
        scale, power = 10.0 ** rng.uniform(-3.0, 3.0), rng.choice([1.0, 2.0, 3.5])
        yield (lambda x, m=m, s=scale, p=power: s * abs(x - m) ** p), lo, hi
    for lo, hi in ((0.0, 1.0), (1.0, 1.0 + 1e-9), (-2.0, 2.0)):
        yield (lambda x: 1.0), lo, hi
        yield math.cosh, lo, hi
        yield (lambda x: -x), lo, hi
        yield (lambda x: x), lo, hi


def test_golden_min_evaluates_each_point_once_with_the_same_result(rng):
    """A recording f sees no argument twice, and (x, f(x)) equals the old
    search's, which re-evaluated its final bracket ends, bit for bit."""
    saved = total = 0
    for f, lo, hi in unimodal_functions(rng):
        for xtol in (1e-10, 1e-4):
            seen = []
            got = golden_min(lambda x: seen.append(x) or f(x), lo, hi, xtol)
            calls = []
            want = golden_min_reevaluating_ends(lambda x: calls.append(x) or f(x), lo, hi, xtol)
            assert len(seen) == len(set(seen)), (lo, hi, xtol)
            assert np.array_equal(np.array(got), np.array(want)) and type(got[0]) is type(want[0])
            saved += len(calls) - len(seen)
            total += len(calls)
    assert saved > 0.02 * total


def test_golden_min_still_evaluates_ends_it_never_reached():
    """A minimum at a bracket end that the search never moved off is still
    found: that end is evaluated once, at the close."""
    seen = []
    x, fx = golden_min(lambda x: seen.append(x) or x, 2.0, 3.0, 1e-10)
    assert (x, fx) == (2.0, 2.0)
    assert seen.count(2.0) == 1 and 3.0 not in seen


@pytest.mark.parametrize("lo, hi, xtol", [(1.0, 1.0, 1e-3), (1.0, 0.0, 1e-3), (0.0, 1.0, 0.0)])
def test_golden_min_rejects_bad_brackets(lo, hi, xtol):
    with pytest.raises(ValueError):
        golden_min(lambda x: x, lo, hi, xtol)

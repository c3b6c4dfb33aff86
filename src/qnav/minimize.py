"""Derivative-free one-dimensional minimization."""

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, xtol):
    """Golden-section minimum of f on [lo, hi].

    Assumes f is unimodal on the bracket. Returns (x, f(x)) with the
    bracket narrowed below xtol. Endpoints are included as candidates
    so a boundary minimum is not missed. f is called once per point: an
    end that moved onto an interior point keeps that point's value, so
    only an end still at lo or hi is evaluated at the close.
    """
    if not hi > lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    if not xtol > 0.0:
        raise ValueError("xtol must be positive")
    a, b = float(lo), float(hi)
    fa = fb = None
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    best = min(((fc, c), (fd, d), (fa, a), (fb, b)))
    return best[1], best[0]

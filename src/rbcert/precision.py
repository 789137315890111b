"""Error-free float transforms and double-double arithmetic.

A double-double value represents a real number as an unevaluated sum
``hi + lo`` of two floats with ``|lo| <= ulp(hi)/2``, giving roughly
106 bits of significand (about 31-32 decimal digits).  That is a little
less than IEEE binary128 (113 bits, ~34 digits), but the exponent range
is the full double range and every operation below compiles to ordinary
double arithmetic, so the kernels vectorize over numpy arrays as-is.

All kernels are branch-free except the square root's check for negative
input, so every function accepts either Python floats or numpy arrays
and broadcasts like any ufunc expression.  The compiled kernels of
:mod:`rbcert.fem` make these operations, and the dd product and pairwise
dd sum built from them, in C with the same bits.

``math.fma`` is not available on this interpreter, so ``two_prod`` uses
the Dekker splitting path; :data:`TWO_PROD_PATH` records which path was
compiled in so build logs can report it.
"""

from __future__ import annotations

import numpy as np

# Dekker's splitter for binary64: 2**27 + 1.
SPLITTER = 134217729.0

# No math.fma in this interpreter (added in CPython 3.13); the product
# residual comes from Dekker splitting instead.
TWO_PROD_PATH = "dekker-split"


def two_sum(a, b):
    """Return ``(s, e)`` with ``s = fl(a + b)`` and ``s + e == a + b`` exactly.

    Knuth's branch-free version: correct for any ordering of magnitudes,
    and symmetric in its arguments bit-for-bit.
    """
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def quick_two_sum(a, b):
    """two_sum specialized to ``|a| >= |b|`` (three flops instead of six)."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a):
    """Dekker split: ``a == hi + lo`` with both halves 26-bit exact."""
    t = SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Return ``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    """Add two double-double values given as (hi, lo) pairs.

    The classic accurate sum: both hi and lo parts go through exact
    transforms, followed by two renormalizations.  The result is
    symmetric in x and y bit-for-bit because every intermediate is.
    """
    xh, xl = x
    yh, yl = y
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def dd_sqrt(x):
    """Square root of a double-double ``x = (hi, lo)``.

    One Newton/Karp correction on top of the double sqrt; zero maps to
    (0, 0), and negative input raises ``ValueError`` (callers that want
    clamping must clamp before calling).  Array pairs are taken element
    by element; scalars give a pair of floats.
    """
    hi, lo = x
    if np.any(np.less(hi, 0.0)):
        raise ValueError("dd_sqrt of negative value")
    zero = np.equal(hi, 0.0)
    a = np.sqrt(np.where(zero, 1.0, hi))
    p, e = two_prod(a, a)
    d = dd_add(x, (-p, -e))
    corr = (d[0] + d[1]) / (2.0 * a)
    s, e = quick_two_sum(a, corr)
    s, e = np.where(zero, 0.0, s), np.where(zero, 0.0, e)
    return (float(s), float(e)) if s.ndim == 0 else (s, e)

"""Error-free transformations and double-double kernels against exact rationals.

Every binary64 value is an exact rational, so Fraction gives a bit-exact
oracle for the error-free transformations and a >30-digit reference for the
compound double-double operations.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcert.precision import (
    TWO_PROD_PATH,
    dd_add,
    dd_mul,
    dd_sqrt,
    dd_sum,
    quick_two_sum,
    split,
    two_prod,
    two_sum,
)

# Magnitudes kept well inside the range where Dekker's splitting cannot
# overflow (|a| < 2^996) and products stay normal.
moderate = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)
# For products: bounded away from zero too, so a*b never underflows and
# the rounding error of the product is always representable.
factor = st.floats(min_value=1e-100, max_value=1e100).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@st.composite
def dd_values(draw):
    """A normalized double-double: |lo| <= ulp(hi)/2.

    The compound-operation error bounds only hold for valid dd inputs
    (an arbitrary (hi, lo) pair is not one) and only while no
    intermediate underflows, hence the magnitude floor.
    """
    mag = draw(st.floats(min_value=1e-100, max_value=1e100))
    hi = mag if draw(st.booleans()) else -mag
    frac = draw(st.floats(min_value=-0.5, max_value=0.5))
    return hi, hi * frac * 2.0**-52


def exact(hi, lo=0.0):
    return Fraction(float(hi)) + Fraction(float(lo))


def rel_err(approx: Fraction, ref: Fraction) -> float:
    if ref == 0:
        return float(abs(approx))
    return float(abs(approx - ref) / abs(ref))


# --- error-free transformations ----------------------------------------


@given(moderate, moderate)
def test_two_sum_is_exact(a, b):
    hi, lo = two_sum(a, b)
    assert hi == a + b  # hi is the rounded sum
    assert exact(hi, lo) == Fraction(a) + Fraction(b)


@given(moderate, moderate)
def test_quick_two_sum_is_exact_when_ordered(a, b):
    if abs(a) < abs(b):
        a, b = b, a
    hi, lo = quick_two_sum(a, b)
    assert exact(hi, lo) == Fraction(a) + Fraction(b)


@given(moderate)
def test_split_reconstructs_exactly(a):
    hi, lo = split(a)
    assert hi + lo == a
    assert Fraction(hi) + Fraction(lo) == Fraction(a)
    # Each half fits in at most 27 bits of significand, so squaring it
    # is exact; that is the property two_prod relies on.
    for part in (hi, lo):
        if part != 0.0:
            m, _ = math.frexp(part)
            assert (Fraction(m) * 2**27).denominator == 1


@given(factor, factor)
def test_two_prod_is_exact(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert exact(p, e) == Fraction(a) * Fraction(b)


def test_two_prod_path_is_reported():
    # math.fma landed in Python 3.13; this implementation targets older
    # interpreters too, so it always uses the Dekker splitting (equally
    # exact, a few flops slower) and says so.
    assert TWO_PROD_PATH == "dekker-split"


# --- compound double-double operations ----------------------------------


@given(dd_values(), dd_values())
def test_dd_add_matches_rational(a, b):
    hi, lo = dd_add(a, b)
    ref = exact(*a) + exact(*b)
    assert rel_err(exact(hi, lo), ref) <= 1e-30


@given(dd_values(), dd_values())
def test_dd_add_commutes_bit_for_bit(a, b):
    assert dd_add(a, b) == dd_add(b, a)


@given(dd_values(), dd_values())
def test_dd_mul_matches_rational(a, b):
    hi, lo = dd_mul(a, b)
    ref = exact(*a) * exact(*b)
    assert rel_err(exact(hi, lo), ref) <= 1e-30


@given(dd_values())
def test_dd_result_is_normalized(a):
    hi, lo = dd_mul(a, a)
    if hi != 0.0:
        assert abs(lo) <= 0.5 * math.ulp(hi) * (1 + 1e-15)


def test_dd_mul_by_one_is_identity():
    x = (0.1, 1e-18)
    assert dd_mul(x, (1.0, 0.0)) == x


def test_dd_sqrt_against_mpmath():
    mpmath.mp.dps = 50
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = float(rng.uniform(1e-6, 1e6))
        hi, lo = dd_sqrt((v, 0.0))
        ref = mpmath.sqrt(mpmath.mpf(v))
        got = mpmath.mpf(hi) + mpmath.mpf(lo)
        assert abs(got - ref) <= mpmath.mpf(1e-31) * ref


def test_dd_sqrt_of_zero():
    assert dd_sqrt((0.0, 0.0)) == (0.0, 0.0)


def test_dd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        dd_sqrt((-1.0, 0.0))


def test_dd_sum_matches_rational():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 100, 1001):
        hi = rng.normal(size=n)
        lo = rng.normal(size=n) * 1e-18
        sh, sl = dd_sum(hi.copy(), lo.copy())
        ref = sum(
            (Fraction(float(a)) + Fraction(float(b)) for a, b in zip(hi, lo)),
            Fraction(0),
        )
        assert rel_err(exact(sh, sl), ref) <= 1e-30


def test_dd_sum_beats_naive_on_cancellation():
    # 1 + 1e-17 repeated, then subtract the bulk.  In plain doubles each
    # 1e-17 vanishes into its 1.0 immediately (1 + 1e-17 == 1), so the
    # naive sum is exactly 0.  The dd tree keeps the tails; its absolute
    # error is bounded by ~2^-104 times the intermediate magnitudes
    # (~2000), i.e. ~1e-28 -- it cannot be small relative to the
    # cancelled result, which is the round-off floor effect itself.
    n = 1000
    hi = np.full(n + 1, 1.0)
    hi[-1] = -float(n)
    lo = np.zeros(n + 1)
    lo[:n] = 1e-17
    naive = float(np.sum(hi + lo))
    assert naive == 0.0
    sh, sl = dd_sum(hi, lo)
    ref = n * Fraction(1e-17)
    assert float(abs(exact(sh, sl) - ref)) <= 1e-28


def dd_sum_oracle(hi, lo):
    """dd_sum's pairwise tree of allocating dd_add calls, as it ran before the
    tree moved in place."""
    h, l = np.array(hi, dtype=float), np.array(lo, dtype=float)
    n = h.shape[0]
    while n > 1:
        half = (n + 1) // 2
        m = n - half
        h[:m], l[:m] = dd_add((h[:m], l[:m]), (h[half:n], l[half:n]))
        n = half
    return h[0], l[0]


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (100,), (1, 3), (6, 4), (325, 52)])
def test_dd_sum_equals_the_allocating_tree_bit_for_bit(shape):
    # Signed zeros and subnormals among ordinary values; the inputs are
    # left as they were.
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    hi = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    lo = hi * rng.uniform(-(2.0**-53), 2.0**-53, size=shape)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    for a in (hi, lo):
        pick = rng.uniform(size=shape) < 0.3
        a[pick] = rng.choice(specials, size=pick.sum())
    before = hi.tobytes() + lo.tobytes()

    def hexes(pair):
        return [[float(x).hex() for x in np.ravel(part)] for part in pair]

    assert hexes(dd_sum(hi, lo)) == hexes(dd_sum_oracle(hi, lo))
    assert hi.tobytes() + lo.tobytes() == before

"""Error-free transformations and double-double arithmetic against exact
rationals, and the compiled dd operations against their numpy reference.

Every binary64 value is an exact rational, so Fraction gives a bit-exact
oracle for the error-free transformations and a >30-digit reference for the
compound double-double operations.  The numpy dd arithmetic lives in
conftest as the reference of the package's only dd arithmetic, the C
source of :mod:`rbcert.fem`, which is checked against it by ``float.hex``:
through the kernel ``dd_radicands``, and operation by operation through a
test build of the source that exports them (``compiled_dd``).
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcert.fem import dd_radicands
from rbcert.precision import TWO_PROD_PATH

from conftest import (
    SPECIAL_Q,
    SPECIAL_Z,
    dd_add,
    dd_mul,
    dd_root,
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


def hexes(*arrays):
    return [[float(x).hex() for x in np.ravel(a)] for a in arrays]


def test_compiled_dd_operations_give_the_reference_bits(compiled_dd):
    # Each of the source's dd operations, built with a shim that exports
    # it, must make its numpy reference's operations: ordinary values over
    # 40 orders of magnitude, signed zeros, subnormals and values near the
    # ends of Dekker's range, in every pairing, and dd values with a lo.
    rng = np.random.default_rng(1)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, 1.0, -1.0, 2.0**990, -(2.0**990)]
    values = np.concatenate([rng.normal(size=60) * 10.0 ** rng.integers(-20, 20, size=60), specials])
    a, b = (x.ravel() for x in np.meshgrid(values, values))
    la, lb = a * rng.uniform(-(2.0**-53), 2.0**-53, size=a.size), b * 2.0**-54
    cases = (
        (compiled_dd.two_sum, two_sum, (a, b)), (compiled_dd.two_prod, two_prod, (a, b)),
        (compiled_dd.dd_add, dd_add, ((a, la), (b, lb))),
        (compiled_dd.dd_mul, dd_mul, ((a, la), (b, lb))),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for compiled, reference, args in cases:
            assert hexes(*compiled(*args)) == hexes(*reference(*args)), reference.__name__


def test_compiled_dd_root_clamps_and_roots_every_special_radicand(compiled_dd):
    # e2dd's clamp and square root, bit for bit against the reference's
    # clamp and dd_sqrt, with the clamp count: zero with either sign of lo,
    # subnormal his, his near overflow, negative his and hi = 0 with lo < 0
    # (clamped), and NaN and infinities (not clamped, but -inf, a negative
    # hi).  The dd sum never gives hi = 0 with lo < 0 or an infinite hi, so
    # these reach dd_root only here.
    hi, lo = np.array([
        (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (5e-324, 0.0), (2.0**-1040, 0.0),
        (2.0**-1022, 2.0**-1074), (1.7976931348623157e308, 0.0), (1e308, 1e291),
        (2.0**995, -(2.0**941)), (-1.0, 0.0), (-5e-324, 0.0), (0.0, -5e-324), (-0.0, -1e-300),
        (2.0, 2.0**-60), (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
        (math.inf, -math.inf),
    ]).T
    root, clamps = compiled_dd.dd_root(hi, lo)
    expect, clamped = dd_root(hi, lo)
    assert hexes(root) == hexes(expect)
    assert clamps == clamped.sum() == 5


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


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (13,), (1, 3), (3, 4), (25, 52), "special"])
def test_dd_sum_equals_the_allocating_tree_bit_for_bit(shape):
    # dd_sum's tree runs compiled in fem.dd_radicands, over the d = k(k+1)/2
    # terms dd_mul(q_p, two_prod(z_I, z_J)) of each column of a (k, m) z,
    # the pairs I <= J in lexicographic order (d = 1, 3, 6, 91, 1, 6, 325;
    # the 52 columns at d = 325 run in passes of 25, 25 and 2), and must
    # give the allocating tree's bits, and each column's root the
    # reference's clamp and dd_sqrt, with the clamp count.  z and q hold
    # signed zeros, subnormals and alternating signs among ordinary values,
    # or are conftest's special radicands (zero, subnormal, near 2**996,
    # negative, NaN); the inputs are left as they were.
    if shape == "special":
        (qh, ql), z, k = SPECIAL_Q, SPECIAL_Z, 2
    else:
        k, m = (*shape, 1)[:2]
        d = k * (k + 1) // 2
        rng = np.random.default_rng(len(shape) * 1000 + k)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, 1.0, -1.0])

        def values(size):
            a = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
            pick = rng.uniform(size=size) < 0.3
            a[pick] = rng.choice(specials, size=pick.sum())
            return a

        z = values((k, m)) * (-1.0) ** np.arange(k)[:, None]
        qh = values(d)
        ql = qh * rng.uniform(-(2.0**-53), 2.0**-53, size=d)
    before = [a.tobytes() for a in (z, qh, ql)]

    i, j = np.triu_indices(k)
    with np.errstate(over="ignore", invalid="ignore"):
        expect = dd_sum(*dd_mul((qh[:, None], ql[:, None]), two_prod(z[i], z[j])))
    root, clamped = dd_root(*expect)
    out, clamps = dd_radicands((qh, ql), z)
    assert hexes(*out) == hexes(*expect, root)
    assert clamps == clamped.sum()
    assert [a.tobytes() for a in (z, qh, ql)] == before

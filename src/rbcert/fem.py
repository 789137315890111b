"""Truth discretization: P1 finite elements for -u'' + mu*u = 1 on ]0,1[.

Homogeneous Dirichlet conditions on a uniform mesh with n_cells cells,
so the discrete space has N = n_cells - 1 interior nodes.  Stiffness,
mass, and load assemble in closed form:

    K = (1/h) tridiag(-1, 2, -1)      M = (h/6) tridiag(1, 4, 1)
    F_j = h                           Gram = K + M   (H1 inner product)

The parametric operator is affine, A(mu) = K + mu*M, which is what the
reduced-basis machinery in :mod:`rbcert.reduced` relies on.

Every row of A(mu), of Gram and of F is the same, so an operator is its
one row (:class:`Tridiagonal`), each truth solve and Riesz lift is Thomas
elimination of n equal rows, and each product applies one row along the
mesh.  One C source, ``_SOURCE``, holds seven kernels, listed with their
types in ``_KERNELS``: ``thomas`` runs every solve and lift, m systems at
once, and ``tridiagonal_rows`` the double products T*g of ``h1_inner``
and the basis extension; ``dd_gram_table`` grows E2's dd Gram table, each
pair once; ``lift_norms`` gives e1 and the true error, each the H1 norm
of a lift of vectors (less U, for the true error) from its first term to
the norm's last sum in one pass over the mesh.  Three take z = (1; gamma;
mu*gamma), one column a point, and form the monomials z_I*z_J themselves:
``dd_radicands`` gives e2dd's radicands and their square roots,
``fsum_columns`` e2's radicands, and ``lu_solve_dots`` e3's interpolated
squares.  The source holds the package's only double-double arithmetic.
Each kernel but ``fsum_columns`` makes the operations of the reference
the tests keep for it, in their order, so its bits; ``fsum_columns`` sums
by a compensated Sum3 and certifies that its result is the exact sum
correctly rounded, so it has the bits of ``math.fsum``, the tests'
reference for it, and leaves the rare column it cannot certify to
``math.fsum`` itself.  The source is
compiled when this module is imported, with ``cc`` and ``_FLAGS``, into
one library in ``__pycache__`` beside this file, and loaded with
``ctypes``; a missing or failing compiler is an ``ImportError``.  With
GCC and glibc on x86-64, each kernel is compiled three times, for the
baseline, AVX2 and AVX-512, and the loader picks the widest clone the
host runs.  The clones make the same IEEE operations, element by element
and in the same order: vectors of 2, 4 or 8 doubles round each element as
one double operation would.
``-ffp-contract=off`` keeps fused multiply-adds out of every clone, and
the kernels call no BLAS and no libm, so their bits depend neither on the
host nor on the clone.  The kernels take bare addresses: every array
passes one check per call (:func:`_address`).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tridiagonal:
    """A symmetric tridiagonal matrix of the mesh as the row (off, diag, off)
    that all N of its rows share, cut at the boundary (no kernel reads off
    when N = 1).  A coefficient that varies along the mesh needs runs of rows."""

    diag: float
    off: float


@dataclass(frozen=True)
class TruthSystem:
    """Assembled truth-level operators for one mesh.

    Vectors of length N = n_cells - 1 hold interior nodal values; the
    boundary values are identically zero and never stored.
    """

    n_cells: int
    h: float
    K: Tridiagonal
    M: Tridiagonal
    Gram: Tridiagonal
    F: np.ndarray

    @property
    def n(self) -> int:
        return self.n_cells - 1


def assemble(n_cells: int) -> TruthSystem:
    """Assemble the truth system on a uniform n_cells mesh.

    Every entry is one rounding from its closed form (2/h, -1/h, 2h/3, h/6,
    h; Gram's row is K's plus M's), which the assembly oracles in the test
    suite check against exact rational arithmetic.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be >= 2 (need at least one interior node)")
    h = 1.0 / n_cells
    K = Tridiagonal(2.0 / h, -(1.0 / h))
    M = Tridiagonal(2.0 * h / 3.0, h / 6.0)
    Gram = Tridiagonal(K.diag + M.diag, K.off + M.off)
    return TruthSystem(n_cells, h, K, M, Gram, np.full(n_cells - 1, h))


_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* WIDE clones a function for x86-64-v3 (AVX2) and x86-64-v4 (AVX-512)
   besides the baseline, and the loader's resolver (an ifunc) picks the
   widest clone that the CPU and the OS support.  Every loop below makes
   IEEE operations element by element, in the source's order, and
   -ffp-contract=off keeps fused multiply-adds out of every clone, so a
   wider vector changes the speed and not the bits.  It marks the seven
   kernels and dd_tree, the one vector helper with several callers that
   is not inlined.  INLINE forces gram_entries and lift_row into each
   clone of their callers, so a one-point lift_norms pays no call per
   mesh row.  lane_add, lane_total and two_sum are small enough to be
   inlined, and gram_dd and dd_root have one caller; they are unmarked.
   Off x86-64, GCC or glibc, or with -DWIDE= on the command line, WIDE is
   empty: one baseline build. */
#ifndef WIDE
#if defined(__x86_64__) && defined(__GNUC__) && __GNUC__ >= 12 && defined(__GLIBC__)
#define WIDE __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define WIDE
#endif
#endif
#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Thomas elimination of m systems of n equal rows, column j of the
   row-major (n, m) array X.  Column j's rows have diagonal diag[j] and
   off-diagonal off[j] (off is not read when n = 1).  Row i of the
   right-hand side starts at rhs + i*rs: rs = 0 shares one row of m
   values, and rhs may be X itself.  Row for row, and column by column,
   the operations are those of the two-pass solve on Python floats,
       c_i = off/piv_{i-1},  piv_i = diag - off*c_i,
       x_i = (rhs_i - off*x_{i-1})/piv_i,  x_i = x_i - c_{i+1}*x_{i+1},
   so each column has its bits.  The forward sweep keeps the pivots of
   rows 0, s, 2s, ... below n - 1 in kept, the first ceil((n-1)/s) rows
   of m of scratch, and the running pivot in work, the s rows of m after
   them.  The back sweep recomputes each segment's s multipliers into
   work from its kept pivot, with the forward sweep's operations, then
   applies them.  Returns 1 on a zero pivot, 0 otherwise. */
WIDE
int thomas(ptrdiff_t n, ptrdiff_t m, const double *restrict diag,
           const double *restrict off, const double *rhs, ptrdiff_t rs,
           double *X, ptrdiff_t s, double *restrict scratch)
{
    double *restrict kept = scratch, *restrict work = scratch + (n - 2 + s) / s * m;
    double *piv = work;
    ptrdiff_t i, j, k, r;
    int zero = 0;
    for (j = 0; j < m; j++) {
        piv[j] = diag[j];
        zero |= piv[j] == 0.0;
        X[j] = rhs[j] / piv[j];
    }
    for (i = 1; i < n && !zero; i++) {
        const double *b = rhs + i * rs, *xp = X + (i - 1) * m;
        double *x = X + i * m;
        if ((i - 1) % s == 0)
            memcpy(kept + (i - 1) / s * m, piv, m * sizeof *piv);
        for (j = 0; j < m; j++) {
            double c = off[j] / piv[j];
            piv[j] = diag[j] - off[j] * c;
            x[j] = (b[j] - off[j] * xp[j]) / piv[j];
        }
        for (j = 0; j < m; j++)
            zero |= piv[j] == 0.0;
    }
    if (zero)
        return 1;
    for (k = (n - 2) / s; n > 1 && k >= 0; k--) {
        ptrdiff_t a = k * s, len = n - 1 - a < s ? n - 1 - a : s;
        double *p = kept + k * m;
        for (r = 0; r < len; r++) {
            double *c = work + r * m;
            for (j = 0; j < m; j++) {
                c[j] = off[j] / p[j];
                p[j] = diag[j] - off[j] * c[j];
            }
        }
        for (r = len - 1; r >= 0; r--) {
            const double *c = work + r * m, *xn = X + (a + r + 1) * m;
            double *x = X + (a + r) * m;
            for (j = 0; j < m; j++)
                x[j] = x[j] - c[j] * xn[j];
        }
    }
    return 0;
}

/* The package's double-double operations.  The tests keep a numpy form
   of each as its reference (tests/conftest.py), and each C form makes the
   operations of its numpy form in their order, so has its bits. */

/* split(a) = (hi, lo), with Dekker's splitter 2**27 + 1. */
static void split(double a, double *hi, double *lo)
{
    double t = 134217729.0 * a;
    *hi = t - (t - a);
    *lo = a - *hi;
}

/* two_prod(a, b) = (p, e). */
static void two_prod(double a, double b, double *p, double *e)
{
    double ah, al, bh, bl;
    split(a, &ah, &al);
    split(b, &bh, &bl);
    *p = a * b;
    *e = ((ah * bh - *p) + ah * bl + al * bh) + al * bl;
}

/* dd_add((xh, xl), (yh, yl)) written over (xh, xl). */
static void dd_add(double *xh, double *xl, double yh, double yl)
{
    double s = *xh + yh, v = s - *xh, e = (*xh - (s - v)) + (yh - v);
    double t = *xl + yl, w = t - *xl, f = (*xl - (t - w)) + (yl - w);
    e = e + t;
    t = s + e;                /* quick_two_sum(s, e) = (t, e) */
    e = e - (t - s);
    e = e + f;
    *xh = t + e;              /* quick_two_sum(t, e) */
    *xl = e - (*xh - t);
}

/* dd_mul((xh, xl), (yh, yl)) = (h, l). */
static void dd_mul(double xh, double xl, double yh, double yl, double *h, double *l)
{
    double p, e;
    two_prod(xh, yh, &p, &e);
    e = e + (xh * yl + xl * yh);
    *h = p + e;               /* quick_two_sum(p, e) */
    *l = e - (*h - p);
}

/* dd_mul((a, 0), (yh, yl)) = (h, l) without its cross term 0*yh, which
   changes no bit.  two_prod's error e is never -0: its first operation,
   ah*bh - p, is zero only as x - x, which is +0, and a sum rounds to -0
   only from -0 + -0.  So adding a zero of either sign to a*yl, then to
   e, gives what adding nothing gives; and a non-finite yh makes e NaN
   already. */
static void dd_scale(double a, double yh, double yl, double *h, double *l)
{
    double p, e;
    two_prod(a, yh, &p, &e);
    e = e + a * yl;
    *h = p + e;               /* quick_two_sum(p, e) */
    *l = e - (*h - p);
}

/* dd_sum's pairwise tree over n rows of m double-doubles (th, tl), in
   place: each level dd_adds its back half into its front half, so row 0
   ends with the m column sums. */
WIDE
static void dd_tree(ptrdiff_t n, ptrdiff_t m, double *th, double *tl)
{
    ptrdiff_t len, half, i;
    for (len = n; len > 1; len = half) {
        half = (len + 1) / 2;
        for (i = 0; i < (len - half) * m; i++)
            dd_add(&th[i], &tl[i], th[half * m + i], tl[half * m + i]);
    }
}

/* Gram*v in double-double into (h, l) for a vector v of n; Gram's rows
   are (off, diag, off).  Entry i is two_prod(diag, v_i), then dd_add of
   two_prod(off, v_{i+1}), then of two_prod(off, v_{i-1}), where those
   exist. */
static void gram_dd(ptrdiff_t n, double diag, double off, const double *restrict v,
                    double *restrict h, double *restrict l)
{
    double p, e;
    ptrdiff_t i;
    for (i = 0; i < n; i++)
        two_prod(diag, v[i], &h[i], &l[i]);
    for (i = 0; i + 1 < n; i++) {
        two_prod(off, v[i + 1], &p, &e);
        dd_add(&h[i], &l[i], p, e);
    }
    for (i = 1; i < n; i++) {
        two_prod(off, v[i - 1], &p, &e);
        dd_add(&h[i], &l[i], p, e);
    }
}

/* E2's Gram table F(v, u) = u^T Gram v in double-double for the k vectors
   of n at the addresses vs, each pair once, from vector k0 on: for each
   v = vs[j], k0 <= j < k, gram_dd forms (wh, wl) = Gram*v once, in the
   first 2n doubles of scratch, and for each u = vs[i], i <= j, the terms
   dd_mul((u_i, 0), (wh_i, wl_i)), as dd_scale, go to the other 2n, and
   dd_tree sums them into (out[t], out[p + t]).  Pairs are written v then
   u: t = j(j+1)/2 + i - k0(k0+1)/2, of p = k(k+1)/2 - k0(k0+1)/2. */
WIDE
void dd_gram_table(ptrdiff_t n, ptrdiff_t k0, ptrdiff_t k, double diag, double off,
                   const uintptr_t *vs, double *restrict out, double *restrict scratch)
{
    double *wh = scratch, *wl = scratch + n, *th = scratch + 2 * n, *tl = scratch + 3 * n;
    ptrdiff_t p = (k * (k + 1) - k0 * (k0 + 1)) / 2, t = 0, i, j, r;
    for (j = k0; j < k; j++) {
        gram_dd(n, diag, off, (const double *)vs[j], wh, wl);
        for (i = 0; i <= j; i++, t++) {
            const double *u = (const double *)vs[i];
            for (r = 0; r < n; r++)
                dd_scale(u[r], wh[r], wl[r], &th[r], &tl[r]);
            dd_tree(n, 1, th, tl);
            out[t] = th[0];
            out[p + t] = tl[0];
        }
    }
}

/* e2dd's value at its radicand (h, l): 0 for a negative radicand, h < 0
   or h = 0 with l < 0, which adds 1 to *clamps; otherwise dd_sqrt((h, l))
   rounded to a double, 0 at h = 0.  dd_sqrt takes a = sqrt(h), the
   remainder (h, l) less two_prod(a, a) by dd_add, corr = (its hi + its
   lo)/(2a), then quick_two_sum(a, corr) = (s, e), and the value is s + e.
   NaN and infinities are not clamped.  -fno-math-errno makes sqrt one
   instruction, so no libm call. */
static double dd_root(double h, double l, ptrdiff_t *clamps)
{
    double a, p, e, s;
    if (h < 0.0 || (h == 0.0 && l < 0.0)) {
        ++*clamps;
        return 0.0;
    }
    if (h == 0.0)
        return 0.0;
    a = sqrt(h);
    two_prod(a, a, &p, &e);
    dd_add(&h, &l, -p, -e);
    e = (h + l) / (2.0 * a);
    s = a + e;                /* quick_two_sum(a, corr) = (s, e) */
    e = e - (s - a);
    return s + e;
}

/* e2dd's radicand q.X in double-double for the m columns of z, row-major
   (k, m), X's d = k(k+1)/2 monomials z_I*z_J over the pairs I <= J in
   lexicographic order: term (I, J) is dd_mul((qh, ql) at its pair,
   two_prod(z_I, z_J)), and dd_tree sums a column's d terms.  Columns go p
   at a time, q <= p in a pass, their terms in rows of q in the 2dp doubles
   of scratch; column j's sum goes to (out[j], out[m + j]), and its
   dd_root, e2dd's value, to out[2m + j].  Returns the number of clamped
   columns. */
WIDE
ptrdiff_t dd_radicands(ptrdiff_t k, ptrdiff_t m, const double *qh, const double *ql,
                       const double *z, double *restrict out, ptrdiff_t p,
                       double *restrict scratch)
{
    ptrdiff_t d = k * (k + 1) / 2, j0, q, i, j, r, t, clamps = 0;
    double xh, xl;
    for (j0 = 0; j0 < m; j0 += p) {
        double *th = scratch, *tl;
        q = m - j0 < p ? m - j0 : p;
        tl = scratch + d * q;
        for (r = 0, i = 0; i < k; i++)
            for (j = i; j < k; j++, r++) {
                const double *a = z + i * m + j0, *b = z + j * m + j0;
                for (t = 0; t < q; t++) {
                    two_prod(a[t], b[t], &xh, &xl);
                    dd_mul(qh[r], ql[r], xh, xl, &th[r * q + t], &tl[r * q + t]);
                }
            }
        dd_tree(d, q, th, tl);
        for (t = 0; t < q; t++) {
            out[j0 + t] = th[t];
            out[m + j0 + t] = tl[t];
            out[2 * m + j0 + t] = dd_root(th[t], tl[t], &clamps);
        }
    }
    return clamps;
}

/* two_sum(a, b) = (s, e): s = a + b rounded and, when nothing overflows,
   a + b = s + e exactly (Knuth's branch-free form). */
static void two_sum(double a, double b, double *s, double *e)
{
    double v;
    *s = a + b;
    v = *s - a;
    *e = (a - (*s - v)) + (b - v);
}

/* e2's radicand: out[j] is the correctly rounded sum S of the rounded
   products t_p = q_p*X_p over column j of the row-major (k, m) z, where
   X_p = z_I*z_J, rounded, for the d = k(k+1)/2 pairs I <= J in
   lexicographic order, so math.fsum's bits, for d < 2**31; a column the
   certificate below cannot settle gets NaN, for math.fsum to redo.

   The sum is Ogita, Rump and Oishi's Sum3 (SumK with K = 3, SIAM J. Sci.
   Comput. 26(6), 2005), streamed: each t_p is two_summed into s1, that
   error into s2, and the second error f_p is added into rest and |f_p|
   into a; mx keeps the largest |t_p|.  So S = s1 + s2 + F, F the exact sum
   of the f_p.  At the end, two_sum(s1, s2) = (h, l), c = l + rest rounded
   and two_sum(h, c) = (res, err), so
       S = res + err + (l + rest - c) + (F - rest).
   The certificate, after Rump, Ogita and Oishi's NearSum (SIAM J. Sci.
   Comput. 31(2), 2009).  Let u = 2**-53 and n = d - 1.  A rounded sum of
   doubles errs by at most u times its result, underflow included, since a
   sum in the subnormal range is exact; so |l + rest - c| <= u|c|.  rest
   and a each make n such additions, so |F - rest| <= g_n*sum|f_p| and
   a >= (1 - g_n)*sum|f_p|, g_n = nu/(1 - nu) (Higham, Accuracy and
   Stability of Numerical Algorithms, 2nd ed., section 4.2), hence
   |F - rest| <= nu/(1 - 2nu)*a <= 2du*a for n < 2**51.  So
       |S - res| <= |err| + u|c| + 2du*a,
   and res is S correctly rounded, S on no tie, when that is below gap/2,
   gap = |res| less the double below it, the smaller of the two spacings
   beside res.  Scaled by 2**53 that reads
       L = 2**53*|err| + |c| + 2d*a  <  2**52*gap.
   2**53*|err| is exact (|err| <= 2**970 beside a finite res), 2d*a cannot
   underflow (a subnormal product of an integer and a double is exact),
   and L is two additions and one product, so its rounded value is at
   least (1 - u)**2 times L.  The kernel accepts res when the rounded L is
   below (2**52 - 4)*gap, exact as gap is a power of two, and
   (1 - 2**-50)/(1 - u)**2 < 1.  A non-finite L fails the test.
   Overflow: accepted columns have d*mx < 2**1019, so no sum of the t_p
   comes near 2**1024, no operation of two_sum overflows and math.fsum
   makes no intermediate overflow; a non-finite t_p, or any overflow,
   makes res non-finite.  So a column gets NaN when res is zero,
   subnormal or not finite, when d*mx reaches 2**1019, or when the test
   fails.  Columns go FSUM_PASS at a time, n <= FSUM_PASS in a pass, their
   running values in arrays of that size.  Returns the number of NaN
   columns. */
#define FSUM_PASS 64

WIDE
ptrdiff_t fsum_columns(ptrdiff_t k, ptrdiff_t m, const double *q, const double *z,
                       double *restrict out)
{
    const uint64_t nan = 0x7ff8000000000000u;
    double s1[FSUM_PASS], s2[FSUM_PASS], rest[FSUM_PASS], a[FSUM_PASS], mx[FSUM_PASS];
    ptrdiff_t d = k * (k + 1) / 2, j0, n, i, i2, p, t, flagged = 0;
    for (j0 = 0; j0 < m; j0 += FSUM_PASS) {
        n = m - j0 < FSUM_PASS ? m - j0 : FSUM_PASS;
        for (t = 0; t < n; t++)
            s1[t] = s2[t] = rest[t] = a[t] = mx[t] = 0.0;
        for (p = 0, i = 0; i < k; i++)
            for (i2 = i; i2 < k; i2++, p++) {
                const double *x = z + i * m + j0, *y = z + i2 * m + j0, qp = q[p];
                for (t = 0; t < n; t++) {
                    double tp = qp * (x[t] * y[t]), e, f, s, at;
                    two_sum(s1[t], tp, &s, &e);
                    s1[t] = s;
                    two_sum(s2[t], e, &s, &f);
                    s2[t] = s;
                    rest[t] = rest[t] + f;
                    a[t] = a[t] + (f < 0.0 ? -f : f);
                    at = tp < 0.0 ? -tp : tp;
                    mx[t] = mx[t] < at ? at : mx[t];
                }
            }
        for (t = 0; t < n; t++) {
            double h, l, c, res, err, r, below, L;
            uint64_t bits;
            two_sum(s1[t], s2[t], &h, &l);
            c = l + rest[t];
            two_sum(h, c, &res, &err);
            r = res < 0.0 ? -res : res;
            memcpy(&bits, &r, sizeof bits);
            bits -= bits > 0;
            memcpy(&below, &bits, sizeof bits);
            L = (0x1p53 * (err < 0.0 ? -err : err) + (c < 0.0 ? -c : c)) + (double)(2 * d) * a[t];
            if (r >= 0x1p-1022 && r <= 0x1.fffffffffffffp1023 && (double)d * mx[t] < 0x1p1019
                && L < (r - below) * 4503599627370492.0)
                out[j0 + t] = res;
            else {
                memcpy(&out[j0 + t], &nan, sizeof nan);
                flagged++;
            }
        }
    }
    return flagged;
}

/* e3's interpolated squares lambda.v for the m columns of z, row-major
   (k, m): lambda solves T lambda = b with T's partial-pivoting LU factors,
   the row-major r x r lu, and b_s = z_I*z_J for the pair (I, J) of T's
   row s in pivot order, I at pairs[s] and J at pairs[r + s].  Column by
   column, the operations are those of the numpy LU solve: b_i = b_i -
   L_is*b_s for i > s, s ascending, then b_s = b_s/U_ss and b_i = b_i -
   U_is*b_s for i < s, s descending; lambda.v is summed left to right from
   +0.0 into out[j].  Columns go p at a time, q <= p in a pass, lambda in
   rows of q in the rp doubles of scratch. */
WIDE
void lu_solve_dots(ptrdiff_t r, ptrdiff_t m, const double *lu, const ptrdiff_t *pairs,
                   const double *z, const double *v, double *restrict out, ptrdiff_t p,
                   double *restrict scratch)
{
    ptrdiff_t j0, q, s, i, t;
    for (j0 = 0; j0 < m; j0 += p) {
        q = m - j0 < p ? m - j0 : p;
        for (s = 0; s < r; s++) {
            const double *a = z + pairs[s] * m + j0, *b = z + pairs[r + s] * m + j0;
            double *restrict x = scratch + s * q;
            for (t = 0; t < q; t++)
                x[t] = a[t] * b[t];
        }
        for (s = 0; s < r; s++) {
            const double *restrict xs = scratch + s * q;
            for (i = s + 1; i < r; i++) {
                double l = lu[i * r + s], *restrict x = scratch + i * q;
                for (t = 0; t < q; t++)
                    x[t] = x[t] - l * xs[t];
            }
        }
        for (s = r - 1; s >= 0; s--) {
            double u = lu[s * r + s], *restrict xs = scratch + s * q;
            for (t = 0; t < q; t++)
                xs[t] = xs[t] / u;
            for (i = 0; i < s; i++) {
                double l = lu[i * r + s], *restrict x = scratch + i * q;
                for (t = 0; t < q; t++)
                    x[t] = x[t] - l * xs[t];
            }
        }
        for (t = 0; t < q; t++)
            out[j0 + t] = 0.0;
        for (s = 0; s < r; s++)
            for (t = 0; t < q; t++)
                out[j0 + t] = out[j0 + t] + scratch[s * q + t] * v[s];
    }
}

/* T*g, T's rows (off, diag, off): entry i is (diag*g_i + off*g_{i+1}) +
   off*g_{i-1}, without the neighbours past the mesh's ends, written for k
   entries c[t] whose neighbours are nx[t] and pv[t], either NULL where it
   is past an end. */
INLINE void gram_entries(ptrdiff_t k, double diag, double off, const double *restrict c,
                         const double *restrict nx, const double *restrict pv,
                         double *restrict w)
{
    ptrdiff_t t;
    if (nx && pv)
        for (t = 0; t < k; t++)
            w[t] = (diag * c[t] + off * nx[t]) + off * pv[t];
    else if (nx || pv) {
        const double *restrict b = nx ? nx : pv;
        for (t = 0; t < k; t++)
            w[t] = diag * c[t] + off * b[t];
    } else
        for (t = 0; t < k; t++)
            w[t] = diag * c[t];
}

/* T*g for the k rows g of n of G into the rows of W: entry 0, the
   entries between, and entry n - 1. */
WIDE
void tridiagonal_rows(ptrdiff_t n, ptrdiff_t k, double diag, double off,
                      const double *restrict G, double *restrict W)
{
    ptrdiff_t j;
    for (j = 0; j < k; j++) {
        const double *g = G + j * n;
        double *w = W + j * n;
        gram_entries(1, diag, off, g, n > 1 ? g + 1 : NULL, NULL, w);
        if (n > 2)
            gram_entries(n - 2, diag, off, g + 1, g + 2, g, w + 1);
        if (n > 1)
            gram_entries(1, diag, off, g + n - 1, NULL, g + n - 2, w + n - 1);
    }
}

/* The H1 norms' sum of g_i*w_i, w = Gram*g, over the mesh entries i: each
   product is added into lane i % 8, in increasing i, from +0.0, and the
   eight lanes l0..l7 are summed as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) +
   (l6 + l7)).  The order is fixed by n alone.  lane_add adds g[t]*w[t]
   into lane[t] for t < k, and lane_total sums eight lanes stride apart. */
static void lane_add(ptrdiff_t k, const double *restrict g, const double *restrict w,
                     double *restrict lane)
{
    ptrdiff_t t;
    for (t = 0; t < k; t++)
        lane[t] = lane[t] + g[t] * w[t];
}

static double lane_total(const double *l, ptrdiff_t stride)
{
    return ((l[0] + l[stride]) + (l[2 * stride] + l[3 * stride]))
         + ((l[4 * stride] + l[5 * stride]) + (l[6 * stride] + l[7 * stride]));
}

/* Row i of the lift e_t = sum_r c_rt*vs[r] for q points, coefficient r of
   point t at c[r*m + t]: from c_0t*vs[0], adding the k vectors in order;
   with u, the row i of q columns of U, e_t = u_t - lift instead. */
INLINE void lift_row(ptrdiff_t i, ptrdiff_t q, ptrdiff_t k, const uintptr_t *vs,
                     const double *restrict u, const double *restrict c, ptrdiff_t m,
                     double *restrict e)
{
    ptrdiff_t t, r;
    double v = ((const double *)vs[0])[i];
    for (t = 0; t < q; t++)
        e[t] = c[t] * v;
    for (r = 1; r < k; r++) {
        v = ((const double *)vs[r])[i];
        for (t = 0; t < q; t++)
            e[t] = e[t] + c[r * m + t] * v;
    }
    if (u)
        for (t = 0; t < q; t++)
            e[t] = u[t] - e[t];
}

/* The squared H1 norms e_j.Gram*e_j into out[j] for m points, e_j as
   lift_row forms it from the k vectors at vs, the row-major (k, m)
   coefficients c and, unless U is NULL, the row-major (n, m) U; Gram's
   rows are (off, diag, off).  Points go p at a time, across the points of
   each mesh row: row i of e is formed into a window of three rows of p,
   then row i - 1's Gram product, in one more, and its products into the
   lanes, lane l of point t at lanes[l*p + t].  Scratch: 12p. */
WIDE
void lift_norms(ptrdiff_t n, ptrdiff_t m, ptrdiff_t k, const uintptr_t *vs, const double *U,
                const double *c, double diag, double off, double *restrict out, ptrdiff_t p,
                double *restrict scratch)
{
    double *lanes = scratch, *w = scratch + 8 * p, *e = w + p;
    ptrdiff_t j0, q, j, i;
    for (j0 = 0; j0 < m; j0 += p) {
        q = m - j0 < p ? m - j0 : p;
        for (j = 0; j < 8 * p; j++)
            lanes[j] = 0.0;
        for (i = 0; i <= n; i++) {
            const double *r = e + (i + 2) % 3 * p;     /* row i - 1 */
            if (i < n)
                lift_row(i, q, k, vs, U ? U + i * m + j0 : NULL, c + j0, m, e + i % 3 * p);
            if (i == 0)
                continue;
            gram_entries(q, diag, off, r, i < n ? e + i % 3 * p : NULL,
                         i > 1 ? e + (i + 1) % 3 * p : NULL, w);
            lane_add(q, r, w, lanes + (i - 1) % 8 * p);
        }
        for (j = 0; j < q; j++)
            out[j0 + j] = lane_total(lanes + j, p);
    }
}
"""

# No -march: the build runs on any x86-64, and WIDE's clones bring the
# host's AVX2 or AVX-512 at load.  -ffp-contract=off forbids fused
# multiply-adds, which those clones could otherwise emit, so every clone
# has the baseline's bits.  -fno-math-errno lets sqrt compile to the IEEE
# square root instruction, correctly rounded, with no call into libm to
# set errno.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


def _build(source: str, flags: tuple) -> ctypes.CDLL:
    """Load the shared library of source, compiling it once per host.

    The library is ``__pycache__/_rows-<sha256>.so`` beside this file,
    keyed on the source, the flags and the platform.  The compiler writes
    a temporary file there, which ``os.replace`` moves into place, so
    concurrent first imports each load a whole library.  A compiler that
    is missing or fails, or a cache that cannot be written, raises
    ``ImportError`` naming the cache and the command.
    """
    key = "\0".join((source, *flags, sys.platform, platform.machine()))
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    path = os.path.join(cache, f"_rows-{hashlib.sha256(key.encode()).hexdigest()}.so")
    if not os.path.exists(path):
        import subprocess
        import tempfile

        tmp, cmd = None, ["cc", *flags]
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_rows-", suffix=".tmp", dir=cache)
            os.close(fd)
            cmd += ["-o", tmp, "-x", "c", "-"]
            subprocess.run(cmd, input=source, capture_output=True, text=True, check=True)
            os.chmod(tmp, 0o755)
            os.replace(tmp, path)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(
                f"rbcert.fem: building its C kernel in {cache} with `{' '.join(cmd)}` failed: {detail}"
            ) from exc
        finally:
            if tmp and os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(path)


# The kernels of _SOURCE, each with its argument and result types.
_N, _P, _D = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
_KERNELS = (
    ("thomas", (_N, _N, _P, _P, _P, _N, _P, _N, _P), ctypes.c_int),
    ("dd_gram_table", (_N, _N, _N, _D, _D, _P, _P, _P), None),
    ("dd_radicands", (_N, _N, _P, _P, _P, _P, _N, _P), _N),
    ("fsum_columns", (_N, _N, _P, _P, _P), _N),
    ("lift_norms", (_N, _N, _N, _P, _P, _P, _D, _D, _P, _N, _P), None),
    ("lu_solve_dots", (_N, _N, _P, _P, _P, _P, _P, _N, _P), None),
    ("tridiagonal_rows", (_N, _N, _D, _D, _P, _P), None),
)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """lib, a build of ``_SOURCE``, with the types of every kernel in ``_KERNELS`` set."""
    for name, args, result in _KERNELS:
        kernel = getattr(lib, name)
        kernel.argtypes, kernel.restype = args, result
    return lib


_lib = _bind(_build(_SOURCE, _FLAGS))
_VIEW = ctypes.c_char * 0


def _address(a, name: str, out: bool = False, dtype=np.float64) -> int:
    """The data address of a, a C-contiguous array of dtype, writeable if out.

    The kernels take bare addresses, so this is their only check: any other
    a raises ``TypeError`` naming it, before a kernel runs.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
        raise TypeError(f"{name} is not a C-contiguous {np.dtype(dtype)} array")
    if a.flags.writeable:
        return ctypes.addressof(_VIEW.from_buffer(a))  # a third of a.ctypes.data's time
    if out:
        raise TypeError(f"{name} is read-only")
    return a.ctypes.data


def _table(vectors, name: str, n: int) -> np.ndarray:
    """The data addresses of a list of (n,) vectors, as a uintp array.

    Each vector is checked as :func:`_address` checks it, and for its
    length; the first that fails raises naming it.
    """
    for i, v in enumerate(vectors):
        if np.shape(v) != (n,):
            raise ValueError(f"{name}[{i}] has shape {np.shape(v)}, expected ({n},)")
    return np.array([_address(v, f"{name}[{i}]") for i, v in enumerate(vectors)], dtype=np.uintp)


def _thomas(diag, off, rhs, X, s=None):
    """Solve m systems of n equal rows into the (n, m) array X, and return X.

    Column j's rows have diagonal diag[j] and off-diagonal off[j], (m,)
    arrays (off is not read when n = 1).  rhs is one (m,) row that every
    row shares, or (n, m), and may be X itself.  The kernel keeps the
    pivot of every s-th row, s = isqrt(n) unless given, so it holds one
    scratch array of about 2*sqrt(n) rows of m besides X.  A zero pivot
    raises ``LinAlgError``.
    """
    n, m = X.shape
    if diag.shape != (m,) or off.shape != (m,) or rhs.shape not in ((m,), (n, m)):
        raise ValueError(f"rows {diag.shape}, {off.shape} and rhs {rhs.shape} do not fit {X.shape}")
    s = max(1, s or math.isqrt(n))
    scratch = np.empty((-(-(n - 1) // s) + s) * m)
    args = (
        _address(diag, "diag"), _address(off, "off"), _address(rhs, "rhs"), m * (rhs.ndim - 1),
        _address(X, "X", out=True), s, _address(scratch, "scratch", out=True),
    )
    if n and _lib.thomas(n, m, *args):
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination")
    return X


def dd_gram_table(sys: TruthSystem, vectors, k0: int) -> np.ndarray:
    """E2's Gram entries u^T Gram v in double-double for every pair of a list
    of (N,) vectors that involves one from vectors[k0] on, in one kernel call.

    Each pair is computed once, v the later of the two in the list: Gram*v
    is formed once in dd, then dotted with v and every vector before it.
    An entry makes the operations of the tests' per-pair reference (the
    numpy dd product Gram*v, then ``dd_mul((u, 0), Gram*v)`` summed by
    ``dd_sum``'s pairwise tree), so it has the same bits in any list.
    Returns a (2, p) array of hi and lo parts, the pair of v = vectors[j]
    and u = vectors[i], i <= j, at column j(j+1)/2 + i - k0(k0+1)/2.
    """
    n, k = sys.n, len(vectors)
    if not 0 <= k0 <= k:
        raise ValueError(f"k0 = {k0} is not an index into {k} vectors")
    table = _table(vectors, "vectors", n)
    out, scratch = np.empty((2, (k * (k + 1) - k0 * (k0 + 1)) // 2)), np.empty(4 * n)
    _lib.dd_gram_table(n, k0, k, sys.Gram.diag, sys.Gram.off, table.ctypes.data,
                       _address(out, "out", out=True), _address(scratch, "scratch", out=True))
    return out


def _monomials(z, *qs) -> tuple:
    """(k, m, d) of a (k, m) array z, whose monomials z_I*z_J over the
    d = k(k+1)/2 pairs I <= J are weighted by the (d,) arrays qs, or
    ``ValueError`` naming the shapes."""
    k, m = np.shape(z) if np.ndim(z) == 2 else (-1, -1)
    d = k * (k + 1) // 2
    if k < 1 or any(np.shape(q) != (d,) for q in qs):
        raise ValueError(f"{[np.shape(q) for q in qs]} do not fit the monomials of z of "
                         f"shape {np.shape(z)}")
    return k, m, d


# dd_radicands sums in passes over _BLOCK_ELEMENTS // d columns, whose d
# terms in double-double take two arrays of _BLOCK_ELEMENTS doubles (128 KiB)
# whatever the number of columns: 25 at d = 325, 90 at d = 91.
# lu_solve_dots solves in passes over _BLOCK_ELEMENTS // r columns.
_BLOCK_ELEMENTS = 2 ** 13


def dd_radicands(q_dd, z) -> tuple:
    """q.X in double-double for every column of the (k, m) array z, and its
    rounded square root, in one kernel call, X's monomials z_I*z_J over the
    pairs I <= J in lexicographic order.

    q_dd = (qh, ql) are (d,) arrays, d = k(k+1)/2.  Column j's radicand is
    ``dd_sum(*dd_mul(q_dd, two_prod(z[I, j], z[J, j])))`` of the tests'
    numpy dd reference over the pairs, the same operations in the same
    order, in passes of _BLOCK_ELEMENTS // d columns.  Its root is 0 where
    the radicand is negative (hi < 0, or hi = 0 with lo < 0: clamped), and
    elsewhere the reference's ``dd_sqrt`` of it rounded to a double.
    Returns a (3, m) array, the radicands' hi and lo parts and the roots,
    and the number of clamped columns.
    """
    k, m, d = _monomials(z, *q_dd)
    p = max(1, min(m, _BLOCK_ELEMENTS // d))
    out, scratch = np.empty((3, m)), np.empty(2 * d * p)
    args = [_address(a, name) for a, name in zip((*q_dd, z), ("qh", "ql", "z"))]
    clamps = _lib.dd_radicands(k, m, *args, _address(out, "out", out=True), p,
                               _address(scratch, "scratch", out=True))
    return out, clamps


def fsum_columns(q, z) -> np.ndarray:
    """The correctly rounded sum of the rounded products q_p*X_p for every
    column of the (k, m) array z, in one kernel call, X_p = z_I*z_J rounded
    for the d = k(k+1)/2 pairs I <= J in lexicographic order and q (d,).

    The kernel sums each column by Sum3, three-fold compensated, and keeps
    the result only where a rigorous bound shows it is the exact sum
    correctly rounded, with no tie; any correctly rounded sum of the same
    doubles is one double, so such a column has ``math.fsum``'s bits.  A
    column it cannot certify (a sum that is zero, subnormal or within its
    error bound of a tie, a non-finite product, or products large enough
    that fsum could overflow on the way) is handed to ``math.fsum`` itself:
    it gets fsum's value, or raises fsum's error.  None of the default or
    converged sweeps' columns is.  d must be below 2**31.  Returns an (m,)
    array.
    """
    k, m, d = _monomials(z, q)
    if d >= 2 ** 31:
        raise ValueError(f"z has {d} monomials; the kernel sums fewer than 2**31")
    out = np.empty(m)
    args = _address(q, "q"), _address(z, "z"), _address(out, "out", out=True)
    if _lib.fsum_columns(k, m, *args):
        i, j = np.triu_indices(k)
        for c in np.flatnonzero(np.isnan(out)):
            out[c] = math.fsum((q * (z[i, c] * z[j, c])).tolist())
    return out


def lu_solve_dots(lu, pairs, z, v) -> np.ndarray:
    """lambda.v at every column of the (k, m) array z, in one kernel call:
    lambda solves T lambda = b, b_s = z[I_s]*z[J_s], with T's
    partial-pivoting LU factors lu = (LU, piv), LU (r, r) and piv its row
    permutation, for the (2, r) integer array pairs of rows (I_s; J_s).

    lambda makes the operations of the tests' numpy LU solve in their
    order, the pairs taken in pivot order, so its bits; lambda.v is summed
    left to right from +0.0, in passes of _BLOCK_ELEMENTS // r columns.
    Returns an (m,) array.
    """
    LU, piv = lu
    r = len(piv)
    k, m = np.shape(z) if np.ndim(z) == 2 else (-1, -1)
    if np.shape(LU) != (r, r) or np.shape(v) != (r,) or np.shape(pairs) != (2, r) or k < 0:
        raise ValueError(f"LU {np.shape(LU)}, pairs {np.shape(pairs)}, z {np.shape(z)} and v "
                         f"{np.shape(v)} do not fit")
    pairs = np.ascontiguousarray(np.asarray(pairs)[:, piv], dtype=np.intp)
    if r and not (0 <= pairs.min() and pairs.max() < k):
        raise ValueError(f"pairs index rows outside z's {k}")
    p = max(1, min(m, _BLOCK_ELEMENTS // max(r, 1)))
    out, scratch = np.empty(m), np.empty(r * p)
    args = (_address(LU, "LU"), _address(pairs, "pairs", dtype=np.intp), _address(z, "z"),
            _address(v, "v"), _address(out, "out", out=True), p,
            _address(scratch, "scratch", out=True))
    _lib.lu_solve_dots(r, m, *args)
    return out


# lift_norms passes over the mesh for up to _NORM_POINTS points at a time,
# with 12 doubles a point of scratch (eight lanes, the Gram product and
# three rows of the lift).  e1 over 400 points at N = 199, N_hat = 12 took
# 0.25-0.53 ms in one pass, 0.26-0.41 ms in passes of 64 and 0.40-0.64 ms
# in passes of 16; over 100 points at N = 9999, 3.6-5.3 ms in passes of 64
# or more and 4.8-7.7 ms in passes of 16 (medians of 101 and 31 calls,
# three rounds in each of three processes, 2-vCPU AVX-512 host).
_NORM_POINTS = 512


def lift_norms(sys: TruthSystem, vectors, coefficients, U=None) -> np.ndarray:
    """The H1 norms of the lifts e_j = sum_k coefficients[k, j]*vectors[k],
    or of U[:, j] - e_j if U is given, for every point j, in one kernel call.

    vectors are k (N,) vectors, coefficients a (k, m) array with one row
    per vector and one column per point, and U an (N, m) array.  The lift
    adds the terms in the order of the vectors, from
    coefficients[0, j]*vectors[0] (the tests' lift reference), across the
    points of each mesh entry; e.Gram*e is then summed in eight lanes, lane
    i % 8 in increasing mesh entry i (the tests' lane reference), so in an
    order fixed by N.  e1 is the norm of the lift of the Riesz vectors with
    z = (1; gamma; mu*gamma), and the true error that of U less the lift of
    the snapshots with gamma.  Returns an (m,) array.
    """
    n, k = sys.n, len(vectors)
    m = np.shape(coefficients)[1] if np.ndim(coefficients) == 2 else -1
    if k < 1 or np.shape(coefficients) != (k, m) or U is not None and np.shape(U) != (n, m):
        raise ValueError(f"{k} vectors, coefficients {np.shape(coefficients)} and U "
                         f"{np.shape(U)} do not fit")
    table, p = _table(vectors, "vectors", n), max(1, min(m, _NORM_POINTS))
    out, scratch = np.empty(m), np.empty(12 * p)
    args = None if U is None else _address(U, "U"), _address(coefficients, "coefficients")
    _lib.lift_norms(n, m, k, table.ctypes.data, *args, sys.Gram.diag, sys.Gram.off,
                    _address(out, "out", out=True), p, _address(scratch, "scratch", out=True))
    return np.sqrt(np.maximum(out, 0.0))


def tridiagonal_rows(T: Tridiagonal, G, W=None) -> np.ndarray:
    """T*g for every row g of the (k, N) array G into the rows of W, a new
    array unless given, in one kernel call with the numpy reference's
    operations, entry by entry; returns W."""
    W = np.empty(np.shape(G)) if W is None else W
    if np.ndim(G) != 2 or np.shape(W) != np.shape(G):
        raise ValueError(f"rows {np.shape(G)} and {np.shape(W)} are not two (k, N) arrays")
    args = _address(G, "G"), _address(W, "W", out=True)
    _lib.tridiagonal_rows(G.shape[1], G.shape[0], T.diag, T.off, *args)
    return W


def check_parameters(mu) -> None:
    """Raise ValueError unless mu (a scalar or an array) lies in [1, inf)."""
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    bad = mus[~(np.isfinite(mus) & (mus >= 1.0))]
    if bad.size:
        raise ValueError(f"mu = {float(bad[0])} outside the parameter domain [1, inf)")


def parameter_block(mus) -> np.ndarray:
    """mus as a 1-D float array of parameters in [1, inf), or ``ValueError``.

    A block of any other shape (one scalar, a 2-D array) raises naming it.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1:
        raise ValueError(f"mu of shape {mus.shape} is not a 1-D block of parameters")
    check_parameters(mus)
    return mus


def solve_truth(sys: TruthSystem, mu) -> np.ndarray:
    """Truth solve (K + mu*M) u = F by Thomas elimination.

    The system at mu is K's row plus mu times M's, with every load entry
    h, and one C kernel call solves it.  One parameter returns the (n,)
    solution; a 1-D array of m parameters an (n, m) array whose column j
    is the solution at mu[j], with the bits of the one-parameter solve,
    holding no other (n, m) array.  A mu of any other shape raises
    ``ValueError`` naming it, a zero pivot ``LinAlgError``.
    """
    scalar = np.ndim(mu) == 0
    if scalar:
        check_parameters(mu)
    mus = np.atleast_1d(np.asarray(mu, dtype=float)) if scalar else parameter_block(mu)
    diag, off = sys.K.diag + mus * sys.M.diag, sys.K.off + mus * sys.M.off
    U = _thomas(diag, off, np.full_like(mus, sys.h), np.empty((sys.n, mus.size)))
    return U[:, 0] if scalar else U


def h1_inner(sys: TruthSystem, u: np.ndarray, v: np.ndarray) -> float:
    """H1 inner product u^T * Gram * v of two (N,) real vectors, of any strides."""
    if np.shape(u) != np.shape(v) or np.shape(u) != (sys.n,):
        raise ValueError("vector shape does not match the truth space")
    w = tridiagonal_rows(sys.Gram, np.ascontiguousarray(v, dtype=np.float64)[None])
    return float(u @ w[0])


def _lift(sys: TruthSystem, F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Gram^{-1} F into X, both (N, m); F may be X itself.  Returns X."""
    m = X.shape[1]
    return _thomas(np.full(m, sys.Gram.diag), np.full(m, sys.Gram.off), F, X)


def riesz_representative(sys: TruthSystem, functional: np.ndarray) -> np.ndarray:
    """Riesz representative w = Gram^{-1} f, so h1_inner(w, v) = f^T v.

    Gram's rows are all equal, so one column of the C kernel solves it,
    factoring Gram again on the way: that costs the bits nothing and
    stores no factors.  f must be one (N,) functional; any other shape
    raises ``ValueError``.
    """
    if functional.shape != (sys.n,):
        raise ValueError(f"functional has shape {functional.shape}, expected ({sys.n},)")
    F = np.ascontiguousarray(functional, dtype=float).reshape(sys.n, 1)
    return _lift(sys, F, np.empty((sys.n, 1)))[:, 0]

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
mesh.  One C source, ``_SOURCE``, holds seven kernels: ``thomas`` runs
every solve and lift, m systems at once, and ``tridiagonal_rows`` the
double products T*g of ``h1_inner`` and the basis extension;
``dd_gram_table`` grows E2's dd Gram table, each pair once;
``residual_norms`` gives e1 and ``error_norms`` the true error, each an H1
norm from its vector's terms to the last sum in one pass over the mesh;
``dd_radicands`` gives e2dd's radicands, and ``fsum_columns`` e2's.  Each
of the first six makes the operations of the reference the tests keep
for it, in their order, so its bits; ``fsum_columns`` rounds an exact sum
correctly, so it has the bits of ``math.fsum``, the tests' reference for
it.  It is compiled when this module is imported, with ``cc`` and
``_FLAGS``, into one library in ``__pycache__`` beside this file, and
loaded with ``ctypes``; a missing or failing compiler is an
``ImportError``.  With GCC and glibc on x86-64, each kernel
is compiled three times, for the baseline, AVX2 and AVX-512, and the
loader picks the widest clone the host runs.  The clones make the same
IEEE operations, element by element and in the same order: vectors of 2, 4
or 8 doubles round each element as one double operation would.
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
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* WIDE clones a function for x86-64-v3 (AVX2) and x86-64-v4 (AVX-512)
   besides the baseline, and the loader's resolver (an ifunc) picks the
   widest clone that the CPU and the OS support.  Every loop below makes
   IEEE operations element by element, in the source's order, and
   -ffp-contract=off keeps fused multiply-adds out of every clone, so a
   wider vector changes the speed and not the bits.  It marks the seven
   kernels and the vector helpers that may not be inlined: dd_tree,
   residual_tree, which is recursive, gram_entries and error_row.
   lane_add, lane_total and gram_span are small enough to be inlined,
   gram_dd has one caller, and fsum_exact is scalar; they are unmarked.
   Off x86-64, GCC or glibc, or with -DWIDE= on the command line, it is
   empty: one baseline build. */
#ifndef WIDE
#if defined(__x86_64__) && defined(__GNUC__) && __GNUC__ >= 12 && defined(__GLIBC__)
#define WIDE __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define WIDE
#endif
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

/* The double-double operations of rbcert.precision, each with the
   operations of its Python form in their order, so with its bits. */

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

/* e2dd's radicand q.X in double-double for the m columns of X = zi*zj,
   zi and zj row-major (d, m): term p is dd_mul((qh_p, ql_p),
   two_prod(zi_p, zj_p)), into t, 2dm doubles, and dd_tree leaves column
   j's sum at (t[j], t[dm + j]). */
WIDE
void dd_radicands(ptrdiff_t d, ptrdiff_t m, const double *qh, const double *ql,
                  const double *zi, const double *zj, double *restrict t)
{
    double xh, xl;
    ptrdiff_t p, j;
    for (p = 0; p < d; p++)
        for (j = p * m; j < (p + 1) * m; j++) {
            two_prod(zi[j], zj[j], &xh, &xl);
            dd_mul(qh[p], ql[p], xh, xl, &t[j], &t[d * m + j]);
        }
    dd_tree(d, m, t, t + d * m);
}

/* CPython's math.fsum over n finite doubles v whose magnitudes sum far
   below 2**1024, so no intermediate sum overflows: Shewchuk's
   non-overlapping partials, in p, then their sum from the top, stopped at
   its first inexact step, with fsum's half-even fix-up across partials.
   The result is the exact sum correctly rounded, +0.0 for a zero sum. */
static double fsum_exact(const double *v, int n, double *p)
{
    double x, y, t, hi, yr, lo = 0.0;
    int i, j, k, np = 0;
    for (k = 0; k < n; k++) {
        for (x = v[k], i = j = 0; j < np; j++) {
            y = p[j];
            if ((x < 0.0 ? -x : x) < (y < 0.0 ? -y : y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        np = i;
        if (x != 0.0)
            p[np++] = x;
    }
    if (np == 0)
        return 0.0;
    hi = p[--np];
    while (np > 0) {
        x = hi;
        y = p[--np];
        hi = x + y;
        yr = hi - x;
        lo = y - yr;
        if (lo != 0.0)
            break;
    }
    if (np > 0 && ((lo < 0.0 && p[np - 1] < 0.0) || (lo > 0.0 && p[np - 1] > 0.0))) {
        y = lo * 2.0;
        x = hi + y;
        yr = x - hi;
        if (y == yr)
            hi = x;
    }
    return hi;
}

/* e2's radicand: out[j] is the correctly rounded sum of the rounded
   products t_p = q_p*X_pj over column j of the row-major (d, m) X, so
   math.fsum's bits, for d < 2**31.  A finite t_p is mant*2**(b - 1074),
   b = e - 1 for a biased exponent e > 0 and b = 0 for a subnormal.  It
   adds exactly into 66 int64 chunks, chunk k counting units of
   2**(32k - 1074): mant, shifted by b % 32, spans chunks b/32 to b/32 + 2
   in pieces below 2**32, so no chunk reaches 2**63 and nothing carries
   while summing.  Then truncating division moves each chunk's carry into
   the next, up to the highest chunk any term reached; it keeps the sign of
   each chunk's total, so a negative sum does not carry -1 through every
   chunk above it.  Every chunk is then below 2**32 in magnitude but the
   highest, which holds only top pieces and a carry, below 2**53, so each
   non-zero chunk is an exact double, and fsum_exact rounds their sum.  A
   column with a non-finite t_p, or whose largest exponent emax lets its
   magnitudes reach 2**1019 (d*2**(emax - 1022) >= 2**1019), gets NaN, for
   math.fsum to redo.  Below that bound fsum makes no intermediate
   overflow, no chunk's value reaches the sum of the magnitudes, and the
   chunks' magnitudes sum below three times that.  Returns the number of
   NaN columns. */
#define CHUNKS 66

WIDE
ptrdiff_t fsum_columns(ptrdiff_t d, ptrdiff_t m, const double *q, const double *X,
                       double *restrict out)
{
    const uint64_t nan = 0x7ff8000000000000u;
    int64_t acc[CHUNKS];
    double unit[CHUNKS], v[CHUNKS], partials[CHUNKS];
    ptrdiff_t p, j, flagged = 0;
    int k, n, top, log2d = 0, emax;
    for (k = 0; k < CHUNKS; k++) {
        int w = 32 * k - 1074;
        uint64_t u = w < -1022 ? (uint64_t)1 << (w + 1074) : (uint64_t)(w + 1023) << 52;
        memcpy(&unit[k], &u, sizeof u);
    }
    while (((ptrdiff_t)1 << log2d) < d)
        log2d++;
    for (j = 0; j < m; j++) {
        memset(acc, 0, sizeof acc);
        for (emax = 0, p = 0; p < d; p++) {
            double t = q[p] * X[p * m + j];
            uint64_t u, mant, high;
            int64_t neg;
            int e, b;
            memcpy(&u, &t, sizeof u);
            e = (int)(u >> 52 & 0x7ff);
            emax = e > emax ? e : emax;
            mant = (u & 0xfffffffffffffu) | (uint64_t)(e != 0) << 52;
            b = e ? e - 1 : 0;
            high = mant >> (32 - (b & 31));
            neg = -(int64_t)(u >> 63);
            acc[b >> 5] += ((int64_t)(mant << (b & 31) & 0xffffffffu) ^ neg) - neg;
            acc[(b >> 5) + 1] += ((int64_t)(high & 0xffffffffu) ^ neg) - neg;
            acc[(b >> 5) + 2] += ((int64_t)(high >> 32) ^ neg) - neg;
        }
        if (emax == 0x7ff || emax + log2d > 2041) {
            memcpy(&out[j], &nan, sizeof nan);
            flagged++;
            continue;
        }
        top = (emax ? emax - 1 : 0) / 32 + 3;     /* at most CHUNKS; chunks from top on are 0 */
        for (k = 0; k + 1 < top; k++) {
            int64_t carry = acc[k] / ((int64_t)1 << 32);
            acc[k] -= carry * ((int64_t)1 << 32);
            acc[k + 1] += carry;
        }
        for (n = 0, k = 0; k < top; k++)
            if (acc[k])
                v[n++] = (double)acc[k] * unit[k];
        out[j] = fsum_exact(v, n, partials);
    }
    return flagged;
}

/* e1's g = z . vs, z = (1; gamma; mu*gamma), at one point over the len
   mesh entries from i0.  residual_tree sums terms first, ...,
   first + n - 1 into out: the front n/2 terms, then the back's into
   scratch, added into them; the back's own tree runs on the scratch after
   it.  Outer term t is gamma[t-1]*vs[t] (1.0*vs[0] at t = 0), and term
   nh + 1 mu times the same tree over the nh terms gamma[t]*vs[nh+1+t]. */
struct residual {
    ptrdiff_t nh, i0, len;
    const uintptr_t *vs;
    const double *gamma;
    double mu;
};

WIDE
static void residual_tree(const struct residual *r, int group, ptrdiff_t first,
                          ptrdiff_t n, double *out, double *scratch)
{
    ptrdiff_t i;
    const double *a = out;
    double c = r->mu;
    if (n > 1) {
        residual_tree(r, group, first, n / 2, out, scratch);
        residual_tree(r, group, first + n / 2, n - n / 2, scratch, scratch + r->len);
        for (i = 0; i < r->len; i++)
            out[i] = out[i] + scratch[i];
        return;
    }
    if (!group && first > r->nh) {
        residual_tree(r, 1, 0, r->nh, out, scratch);
    } else {
        a = (const double *)r->vs[first + group * (r->nh + 1)] + r->i0;
        c = group ? r->gamma[first] : first ? r->gamma[first - 1] : 1.0;
    }
    for (i = 0; i < r->len; i++)
        out[i] = c * a[i];
}

/* T*g, T's rows (off, diag, off): entry i is (diag*g_i + off*g_{i+1}) +
   off*g_{i-1}, without the neighbours past the mesh's ends.  gram_entries
   writes it for k entries c[t] whose neighbours are nx[t] and pv[t], either
   NULL where it is past an end; gram_span for the len entries from i0 of a
   mesh of n, g at entry i0 with its neighbours g[-1] and g[len] where the
   mesh has them. */
WIDE
static void gram_entries(ptrdiff_t k, double diag, double off, const double *restrict c,
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

static void gram_span(ptrdiff_t n, ptrdiff_t i0, ptrdiff_t len, double diag, double off,
                      const double *g, double *restrict w)
{
    ptrdiff_t a = i0 == 0, b = i0 + len == n ? len - 1 : len;
    if (a)
        gram_entries(1, diag, off, g, n > 1 ? g + 1 : NULL, NULL, w);
    if (b > a)
        gram_entries(b - a, diag, off, g + a, g + a + 1, g + a - 1, w + a);
    if (b < len && n > 1)
        gram_entries(1, diag, off, g + b, NULL, g + b - 1, w + b);
}

/* T*g for the k rows g of n of G into the rows of W. */
WIDE
void tridiagonal_rows(ptrdiff_t n, ptrdiff_t k, double diag, double off,
                      const double *restrict G, double *restrict W)
{
    ptrdiff_t j;
    for (j = 0; j < k; j++)
        gram_span(n, 0, n, diag, off, G + j * n, W + j * n);
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

/* e1's squared H1 norms g.Gram*g, g = z . vs at point j, mus[j] and the nh
   coefficients at gamma + j*nh, into out[j] for k points, Gram's rows
   (off, diag, off).  Points go p at a time, each with its eight lanes in
   scratch; for each block of s mesh entries, every point's g is formed
   over the block and a one-entry halo by residual_tree, then its Gram
   product and the products into its lanes.  Scratch: 8p lanes, s + 2
   entries of g and s of Gram*g, then ceil(log2(nh + 2)) + ceil(log2(nh))
   rows of s + 2 partial sums. */
WIDE
void residual_norms(ptrdiff_t n, ptrdiff_t k, ptrdiff_t nh, const uintptr_t *vs,
                    const double *mus, const double *gamma, double diag, double off,
                    double *restrict out, ptrdiff_t s, ptrdiff_t p, double *restrict scratch)
{
    double *lanes = scratch, *g = scratch + 8 * p, *w = g + s + 2, *tree = w + s;
    struct residual r = {nh, 0, 0, vs, gamma, 0.0};
    ptrdiff_t j0, q, j, i0, len, t;
    for (j0 = 0; j0 < k; j0 += p) {
        q = k - j0 < p ? k - j0 : p;
        for (j = 0; j < 8 * q; j++)
            lanes[j] = 0.0;
        for (i0 = 0; i0 < n; i0 += s) {
            len = n - i0 < s ? n - i0 : s;
            r.i0 = i0 ? i0 - 1 : 0;
            r.len = (i0 + len < n ? i0 + len + 1 : n) - r.i0;
            for (j = 0; j < q; j++) {
                const double *c = g + (i0 - r.i0);
                double *lane = lanes + 8 * j;
                r.gamma = gamma + (j0 + j) * nh;
                r.mu = mus[j0 + j];
                residual_tree(&r, 0, 0, nh + 2, g, tree);
                gram_span(n, i0, len, diag, off, c, w);
                for (t = 0; t < len && (i0 + t) % 8; t++)
                    lane_add(1, c + t, w + t, lane + (i0 + t) % 8);
                for (; t + 8 <= len; t += 8)
                    lane_add(8, c + t, w + t, lane);
                for (; t < len; t++)
                    lane_add(1, c + t, w + t, lane + (i0 + t) % 8);
            }
        }
        for (j = 0; j < q; j++)
            out[j0 + j] = lane_total(lanes + 8 * j, 1);
    }
}

/* Row i of the true error e_j = U[:, j] - sum_k gamma_jk*ss[k] for q
   points, U's row i at u and coefficient k of point t at gamma[k*m + t]:
   the lift from gamma_j0*ss[0], adding the snapshots in order. */
WIDE
static void error_row(ptrdiff_t i, ptrdiff_t q, ptrdiff_t nh, const uintptr_t *ss,
                      const double *restrict u, const double *restrict gamma, ptrdiff_t m,
                      double *restrict e)
{
    ptrdiff_t t, k;
    double v = ((const double *)ss[0])[i];
    for (t = 0; t < q; t++)
        e[t] = gamma[t] * v;
    for (k = 1; k < nh; k++) {
        v = ((const double *)ss[k])[i];
        for (t = 0; t < q; t++)
            e[t] = e[t] + gamma[k * m + t] * v;
    }
    for (t = 0; t < q; t++)
        e[t] = u[t] - e[t];
}

/* The true error's squared H1 norms e_j.Gram*e_j into out[j] for the m
   columns of the row-major (n, m) U, e_j as error_row forms it from the nh
   snapshots at ss and the row-major (nh, m) gamma.  Points go p at a time,
   across the points of each row: the rows i - 1, i and i + 1 of e in a
   window of three rows of p, row i's Gram product in one more, and lane l
   of point t at lanes[l*p + t].  Scratch: 12p. */
WIDE
void error_norms(ptrdiff_t n, ptrdiff_t m, ptrdiff_t nh, const uintptr_t *ss,
                 const double *U, const double *gamma, double diag, double off,
                 double *restrict out, ptrdiff_t p, double *restrict scratch)
{
    double *lanes = scratch, *w = scratch + 8 * p, *e = w + p;
    ptrdiff_t j0, q, j, i;
    for (j0 = 0; j0 < m; j0 += p) {
        q = m - j0 < p ? m - j0 : p;
        for (j = 0; j < 8 * p; j++)
            lanes[j] = 0.0;
        for (i = 0; i < n && i < 2; i++)
            error_row(i, q, nh, ss, U + i * m + j0, gamma + j0, m, e + i * p);
        for (i = 0; i < n; i++) {
            const double *c = e + i % 3 * p;
            gram_entries(q, diag, off, c, i + 1 < n ? e + (i + 1) % 3 * p : NULL,
                         i ? e + (i + 2) % 3 * p : NULL, w);
            lane_add(q, c, w, lanes + i % 8 * p);
            if (i + 2 < n)
                error_row(i + 2, q, nh, ss, U + (i + 2) * m + j0, gamma + j0, m,
                          e + (i + 2) % 3 * p);
        }
        for (j = 0; j < q; j++)
            out[j0 + j] = lane_total(lanes + j, p);
    }
}
"""

# No -march: the build runs on any x86-64, and WIDE's clones bring the
# host's AVX2 or AVX-512 at load.  -ffp-contract=off forbids fused
# multiply-adds, which those clones could otherwise emit, so every clone
# has the baseline's bits.
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


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


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """lib, a build of ``_SOURCE``, with its seven kernels' argument and result types set."""
    n, p, d = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    for name, args, result in (
        ("thomas", (n, n, p, p, p, n, p, n, p), ctypes.c_int),
        ("dd_gram_table", (n, n, n, d, d, p, p, p), None),
        ("dd_radicands", (n, n, p, p, p, p, p), None),
        ("fsum_columns", (n, n, p, p, p), n),
        ("residual_norms", (n, n, n, p, p, p, d, d, p, n, n, p), None),
        ("error_norms", (n, n, n, p, p, p, d, d, p, n, p), None),
        ("tridiagonal_rows", (n, n, d, d, p, p), None),
    ):
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


def dd_radicands(q_dd, zi, zj) -> tuple:
    """q.X in double-double for every column of X = zi*zj, in one kernel call.

    q_dd = (qh, ql) are (d,) arrays and zi, zj the (d, m) factor rows of X.
    Column j is ``dd_sum(*dd_mul(q_dd, two_prod(zi[:, j], zj[:, j])))`` of
    the numpy dd kernels, the same operations in the same order.  Returns
    (hi, lo), two (m,) arrays.
    """
    d, m = np.shape(zi)
    if np.shape(zj) != (d, m) or any(np.shape(q) != (d,) for q in q_dd):
        raise ValueError(f"q_dd does not fit the factor rows {np.shape(zi)} and {np.shape(zj)}")
    t = np.empty((2, d, m))
    args = [_address(a, name) for a, name in zip((*q_dd, zi, zj), ("qh", "ql", "zi", "zj"))]
    _lib.dd_radicands(d, m, *args, _address(t, "t", out=True))
    return t[0, 0], t[1, 0]


def fsum_columns(q, X) -> np.ndarray:
    """The correctly rounded sum of the rounded products q_p*X[p, j] for
    every column j of the (d, m) array X, q (d,), in one kernel call.

    Any correctly rounded sum of the same doubles is one double, so each
    column has ``math.fsum``'s bits.  A column with a non-finite product,
    or whose products are large enough that fsum could overflow on the
    way, is handed to ``math.fsum`` itself: it gets fsum's value, or
    raises fsum's error.  d must be below 2**31.  Returns an (m,) array.
    """
    d, m = np.shape(X)
    if np.shape(q) != (d,):
        raise ValueError(f"q of shape {np.shape(q)} does not fit X of shape {np.shape(X)}")
    if d >= 2 ** 31:
        raise ValueError(f"X has {d} rows; the kernel sums fewer than 2**31")
    out = np.empty(m)
    args = _address(q, "q"), _address(X, "X"), _address(out, "out", out=True)
    if _lib.fsum_columns(d, m, *args):
        for j in np.flatnonzero(np.isnan(out)):
            out[j] = math.fsum((q * X[:, j]).tolist())
    return out


# The norm kernels pass over the mesh for _NORM_POINTS points at a time,
# whose lanes and error_norms' rows of e are 8 and 12 doubles a point of
# scratch; residual_norms forms g over blocks of _NORM_ENTRIES mesh
# entries.  100 e1 points at N = 9999, N_hat = 12 took 9.8 ms with blocks
# of 256 or 512 entries and 10.3-10.4 ms with 128 or 1024 (medians of 25,
# interleaved, 2-vCPU AVX-512 host).
_NORM_POINTS = 512
_NORM_ENTRIES = 256


def residual_norms(sys: TruthSystem, vectors, mus, gamma) -> np.ndarray:
    """e1's H1 norms ||g_j|| of g_j = z_j . vectors for every point j, in one kernel call.

    vectors are the 2*N_hat + 1 (N,) vectors (b, a0_0, ..., a1_0, ...), and
    point j's z is (1; gamma[j]; mus[j]*gamma[j]), mus (k,) and gamma (k,
    N_hat).  The terms b, gamma_i*a0_i and mu times the a1 group (summed
    alike) are summed pairwise, front half then back half: the tests'
    numpy tree, operation for operation.  g.Gram*g is then summed in eight
    lanes, lane i % 8 in increasing mesh entry i (the tests' lane
    reference), so in an order fixed by N.  Returns a (k,) array.
    """
    n, k, nh = sys.n, np.size(mus), (len(vectors) - 1) // 2
    if nh < 1 or len(vectors) != 2 * nh + 1 or np.shape(mus) != (k,) or np.shape(gamma) != (k, nh):
        raise ValueError(f"{len(vectors)} vectors, mus and gamma {np.shape(gamma)} do not fit")
    table, s, p = _table(vectors, "vectors", n), _NORM_ENTRIES, max(1, min(k, _NORM_POINTS))
    levels = (nh + 1).bit_length() + (nh - 1).bit_length()
    scratch = np.empty(8 * p + 2 * s + 2 + levels * (s + 2))
    out = np.empty(k)
    args = [_address(a, name) for a, name in ((mus, "mus"), (gamma, "gamma"))]
    args += [sys.Gram.diag, sys.Gram.off, _address(out, "out", out=True), s, p]
    _lib.residual_norms(n, k, nh, table.ctypes.data, *args, _address(scratch, "scratch", out=True))
    return np.sqrt(np.maximum(out, 0.0))


def error_norms(sys: TruthSystem, snapshots, U, gamma) -> np.ndarray:
    """The H1 norms of e_j = U[:, j] - sum_k gamma[j, k]*snapshots[k] for
    every column j of the (N, m) array U, in one kernel call.

    The lift adds gamma[j, k]*snapshots[k] in snapshot order, from k = 0
    (the tests' lift reference), across the points of each mesh entry; the
    norm sums e.Gram*e in the lanes of :func:`residual_norms`.  gamma is (m,
    N_hat), one row per point.  Returns an (m,) array.
    """
    n, m, nh = sys.n, np.shape(U)[-1] if np.ndim(U) == 2 else -1, len(snapshots)
    if nh < 1 or np.shape(U) != (n, m) or np.shape(gamma) != (m, nh):
        raise ValueError(f"{nh} snapshots and gamma {np.shape(gamma)} do not fit U {np.shape(U)}")
    table, p = _table(snapshots, "snapshots", n), max(1, min(m, _NORM_POINTS))
    gamma_t, out, scratch = np.ascontiguousarray(np.transpose(gamma)), np.empty(m), np.empty(12 * p)
    args = _address(U, "U"), _address(gamma_t, "gamma"), sys.Gram.diag, sys.Gram.off
    _lib.error_norms(n, m, nh, table.ctypes.data, *args, _address(out, "out", out=True), p,
                     _address(scratch, "scratch", out=True))
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

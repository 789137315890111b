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
mesh.  One C source, ``_SOURCE``, holds twelve kernels, listed with their
types in ``_KERNELS``: ``thomas`` runs every truth solve, m parameters at
once; ``thomas_factor`` factors Gram once, in :func:`assemble`, with
``thomas``'s operations, and ``thomas_substitute`` runs every Riesz lift
with those factors, so with ``thomas``'s bits; ``tridiagonal_project``
runs every product and dot of the basis extension, its Gram-Schmidt
included; ``dd_gram_table`` grows E2's dd Gram table, each pair once;
``lift_norms`` gives e1 and the true error, each the H1 norm of a lift of
vectors (less U, for the true error) from its first term to the norm's
last sum in one pass over the mesh, across the points of each mesh row,
and ``lift_norms_strips`` the same bits for a chunk of at most 20
points, along the mesh in strips; ``lu_solves`` factors and solves the
reduced systems, E3's T and the raw basis's pivot system;
``column_pivots`` picks E3's nodes and rows by pivoted Gram-Schmidt.  The
norm kernels, ``tridiagonal_project`` and ``column_pivots`` sum every
double dot in one eight-lane order, the package's only one.
Three take z = (1; gamma; mu*gamma), one column a point, and form the
monomials z_I*z_J themselves: ``dd_radicands`` gives e2dd's radicands and
their square roots, ``sum2_columns`` e2's radicands by Ogita, Rump and
Oishi's compensated Sum2, and ``lu_solve_dots`` e3's interpolated
squares.  The source holds the package's only double-double
arithmetic and its only LU.
Each kernel but ``column_pivots`` makes the operations of the reference
the tests keep for it, in their order, so its bits; ``column_pivots``
sums its dots in another order than its numpy reference's BLAS, so the
tests check its picks against the reference's on the benchmark's pools,
not its bits.  The source is
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
    boundary values are identically zero and never stored.  gram_factors
    is Gram's Thomas factorisation, a (2, N) array: the pivots, then the
    multipliers (entry 0 unused), which every Riesz lift substitutes with.
    """

    n_cells: int
    h: float
    K: Tridiagonal
    M: Tridiagonal
    Gram: Tridiagonal
    F: np.ndarray
    gram_factors: np.ndarray

    @property
    def n(self) -> int:
        return self.n_cells - 1


def assemble(n_cells: int) -> TruthSystem:
    """Assemble the truth system on a uniform n_cells mesh.

    Every entry is one rounding from its closed form (2/h, -1/h, 2h/3, h/6,
    h; Gram's row is K's plus M's), which the assembly oracles in the test
    suite check against exact rational arithmetic.  Gram is factored once,
    by one kernel call with the operations of the Thomas solve; it is
    diagonally dominant, so no pivot is zero.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be >= 2 (need at least one interior node)")
    h = 1.0 / n_cells
    K = Tridiagonal(2.0 / h, -(1.0 / h))
    M = Tridiagonal(2.0 * h / 3.0, h / 6.0)
    Gram = Tridiagonal(K.diag + M.diag, K.off + M.off)
    factors = np.empty((2, n_cells - 1))
    _lib.thomas_factor(n_cells - 1, Gram.diag, Gram.off, _address(factors, "factors", out=True))
    return TruthSystem(n_cells, h, K, M, Gram, np.full(n_cells - 1, h), factors)


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
   wider vector changes the speed and not the bits.  It marks the twelve
   kernels and dd_tree, the one vector helper with several callers that
   is not inlined.  INLINE forces gram_entries, lift_row, lu_substitute
   and lane_dot into each clone of their callers, so lift_norms pays no
   call per mesh row.  lane_add, lane_total and two_sum are small enough
   to be inlined, and gram_dd, dd_root and first_max have one caller;
   they are unmarked.
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
   off-diagonal off[j] (off is not read when n = 1), and every row of its
   right-hand side is rhs[j].  Row for row, and column by column,
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
           const double *restrict off, const double *restrict rhs,
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
        const double *xp = X + (i - 1) * m;
        double *x = X + i * m;
        if ((i - 1) % s == 0)
            memcpy(kept + (i - 1) / s * m, piv, m * sizeof *piv);
        for (j = 0; j < m; j++) {
            double c = off[j] / piv[j];
            piv[j] = diag[j] - off[j] * c;
            x[j] = (rhs[j] - off[j] * xp[j]) / piv[j];
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

/* thomas's factors of one system of n equal rows (diag, off), written as
   the pivots piv_i to piv[0..n) and the multipliers c_i to c = piv + n,
   with thomas's operations: piv_0 = diag, and for i >= 1, c_i =
   off/piv_{i-1} and piv_i = diag - off*c_i; c_0 is 0.0 and never read. */
WIDE
void thomas_factor(ptrdiff_t n, double diag, double off, double *restrict piv)
{
    double *restrict c = piv + n;
    ptrdiff_t i;
    piv[0] = diag;
    c[0] = 0.0;
    for (i = 1; i < n; i++) {
        c[i] = off / piv[i - 1];
        piv[i] = diag - off * c[i];
    }
}

/* thomas's two substitution sweeps for m columns of the row-major (n, m)
   X, with the factors of thomas_factor at piv (n pivots, then n
   multipliers): x_0 = rhs_0/piv_0, x_i = (rhs_i - off*x_{i-1})/piv_i, then
   x_i = x_i - c_{i+1}*x_{i+1} for i from n - 2 down.  rhs is (n, m) and
   may be X itself.  Each column has the bits thomas gives it. */
WIDE
void thomas_substitute(ptrdiff_t n, ptrdiff_t m, double off, const double *piv,
                       const double *rhs, double *X)
{
    const double *c = piv + n;
    ptrdiff_t i, j;
    for (j = 0; j < m; j++)
        X[j] = rhs[j] / piv[0];
    for (i = 1; i < n; i++) {
        const double *b = rhs + i * m, *xp = X + (i - 1) * m;
        double *x = X + i * m;
        for (j = 0; j < m; j++)
            x[j] = (b[j] - off * xp[j]) / piv[i];
    }
    for (i = n - 2; i >= 0; i--) {
        const double *xn = X + (i + 1) * m;
        double *x = X + i * m;
        for (j = 0; j < m; j++)
            x[j] = x[j] - c[i + 1] * xn[j];
    }
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

/* e2's radicand by Ogita, Rump and Oishi's Sum2 (SIAM J. Sci. Comput.
   26(6), 2005), for each column j of the row-major (k, m) z: the rounded
   products t_p = q_p*X_p, X_p = z_I*z_J rounded, over the d = k(k+1)/2
   pairs I <= J in lexicographic order, are two_summed in turn into s, from
   +0.0, each error added into c, from +0.0, and out[j] = s + c.  With
   u = 2**-53 and g_n = nu/(1 - nu), out[j] errs from the exact sum S of
   the t_p by at most u|S| + g_{d-1}**2 sum|t_p|, underflow included (their
   Proposition 4.5): second order, below the products' own roundings.  A
   non-finite t_p, or an overflow, makes out[j] non-finite.  Columns go
   SUM2_PASS at a time, n <= SUM2_PASS in a pass, s and c in arrays of that
   size. */
#define SUM2_PASS 64

WIDE
void sum2_columns(ptrdiff_t k, ptrdiff_t m, const double *q, const double *z,
                  double *restrict out)
{
    double s[SUM2_PASS], c[SUM2_PASS];
    ptrdiff_t j0, n, i, i2, p, t;
    for (j0 = 0; j0 < m; j0 += SUM2_PASS) {
        n = m - j0 < SUM2_PASS ? m - j0 : SUM2_PASS;
        for (t = 0; t < n; t++)
            s[t] = c[t] = 0.0;
        for (p = 0, i = 0; i < k; i++)
            for (i2 = i; i2 < k; i2++, p++) {
                const double *x = z + i * m + j0, *y = z + i2 * m + j0, qp = q[p];
                for (t = 0; t < n; t++) {
                    double e;
                    two_sum(s[t], qp * (x[t] * y[t]), &s[t], &e);
                    c[t] = c[t] + e;
                }
            }
        for (t = 0; t < n; t++)
            out[j0 + t] = s[t] + c[t];
    }
}

/* The numpy LU solve's substitution in place, column by column, for the q
   columns of x's r rows in pivot order, row s at x + s*q, with the r x r
   factors lu: x_i = x_i - L_is*x_s for i > s, s ascending, then x_s =
   x_s/U_ss and x_i = x_i - U_is*x_s for i < s, s descending. */
INLINE void lu_substitute(ptrdiff_t r, ptrdiff_t q, const double *restrict lu, double *x)
{
    ptrdiff_t s, i, t;
    for (s = 0; s < r; s++) {
        const double *restrict xs = x + s * q;
        for (i = s + 1; i < r; i++) {
            double l = lu[i * r + s], *restrict xi = x + i * q;
            for (t = 0; t < q; t++)
                xi[t] = xi[t] - l * xs[t];
        }
    }
    for (s = r - 1; s >= 0; s--) {
        double u = lu[s * r + s], *restrict xs = x + s * q;
        for (t = 0; t < q; t++)
            xs[t] = xs[t] / u;
        for (i = 0; i < s; i++) {
            double l = lu[i * r + s], *restrict xi = x + i * q;
            for (t = 0; t < q; t++)
                xi[t] = xi[t] - l * xs[t];
        }
    }
}

/* Partial-pivoting LU of each r x r matrix of the stack A in place, with
   the numpy factorisation's operations in their order: at column k the
   first maximal |a_ik|, i >= k, wins (numpy's argmax: the first NaN if
   any), its whole row swaps with row k, and for i > k, l = a_ik/a_kk goes
   to a_ik and a_ij = a_ij - l*a_kj for j > k.  Row k of matrix j's
   factors was its row piv[j*r + k].  Unless b is NULL, x + j*r then gets
   x_k = b_piv[k], substituted.  Returns the first matrix with a zero pivot,
   no later one touched, or -1. */
WIDE
ptrdiff_t lu_solves(ptrdiff_t r, ptrdiff_t m, double *A, ptrdiff_t *piv, const double *b,
                    double *x)
{
    ptrdiff_t j, k, i, c, p;
    for (j = 0; j < m; j++) {
        double *restrict a = A + j * r * r;
        ptrdiff_t *restrict pj = piv + j * r;
        for (k = 0; k < r; k++)
            pj[k] = k;
        for (k = 0; k < r; k++) {
            double big = fabs(a[k * r + k]);
            for (p = k, i = k + 1; i < r && big == big; i++)
                if (!(fabs(a[i * r + k]) <= big)) {
                    big = fabs(a[i * r + k]);
                    p = i;
                }
            if (a[p * r + k] == 0.0)
                return j;
            for (c = 0; p != k && c < r; c++) {
                double t = a[k * r + c];
                a[k * r + c] = a[p * r + c];
                a[p * r + c] = t;
            }
            i = pj[k], pj[k] = pj[p], pj[p] = i;
            for (i = k + 1; i < r; i++) {
                double l = a[i * r + k] / a[k * r + k];
                a[i * r + k] = l;
                for (c = k + 1; c < r; c++)
                    a[i * r + c] = a[i * r + c] - l * a[k * r + c];
            }
        }
        if (b) {
            for (k = 0; k < r; k++)
                x[j * r + k] = b[pj[k]];
            lu_substitute(r, 1, a, x + j * r);
        }
    }
    return -1;
}

/* e3's interpolated squares lambda.v for the m columns of z, row-major
   (k, m): lambda solves T lambda = b with T's factors from lu_solves, the
   row-major r x r lu, and b_s = z_I*z_J for the pair (I, J) of T's row s
   in pivot order, I at pairs[s] and J at pairs[r + s], by lu_substitute;
   lambda.v is summed left to right from +0.0 into out[j].  Columns go p
   at a time, q <= p in a pass, lambda in rows of q in the rp doubles of
   scratch. */
WIDE
void lu_solve_dots(ptrdiff_t r, ptrdiff_t m, const double *lu, const ptrdiff_t *pairs,
                   const double *z, const double *v, double *restrict out, ptrdiff_t p,
                   double *restrict scratch)
{
    ptrdiff_t j0, q, s, t;
    for (j0 = 0; j0 < m; j0 += p) {
        q = m - j0 < p ? m - j0 : p;
        for (s = 0; s < r; s++) {
            const double *a = z + pairs[s] * m + j0, *b = z + pairs[r + s] * m + j0;
            double *restrict x = scratch + s * q;
            for (t = 0; t < q; t++)
                x[t] = a[t] * b[t];
        }
        lu_substitute(r, q, lu, scratch);
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

/* lift_norms for a few points, along the mesh rather than across the
   points: the same e_j, Gram products and lanes, so the same bits.  The
   mesh goes in strips of s rows from row 0, s a multiple of 8.  Rows a - 1
   to a + s of each point's e, those on the mesh, are formed into a row of
   s + 2, adding the terms c_rt*vs[r] in the order r = 0, 1, ... as
   lift_row does, the halo rows a - 1 and a + s with the same operations
   as in the strips beside; then the strip's Gram products go into a row
   of s, by gram_entries (row 0, the rows between, row n - 1), and its
   products into the point's eight lanes, eight rows at a time, so row i
   goes to lane i % 8 in increasing i.  Scratch: 8m + s + m(s + 2). */
WIDE
void lift_norms_strips(ptrdiff_t n, ptrdiff_t m, ptrdiff_t k, const uintptr_t *vs,
                       const double *U, const double *c, double diag, double off,
                       double *restrict out, ptrdiff_t s, double *restrict scratch)
{
    double *lanes = scratch, *w = scratch + 8 * m, *E = w + s;
    ptrdiff_t a, t, r, i;
    for (i = 0; i < 8 * m; i++)
        lanes[i] = 0.0;
    for (a = 0; a < n; a += s) {
        ptrdiff_t lo = a > 0 ? a - 1 : 0, end = n - a < s ? n : a + s;
        ptrdiff_t len = (end < n ? end + 1 : n) - lo, i0 = a == 0, i1 = end - a - (end == n);
        for (t = 0; t < m; t++) {
            const double *restrict v = (const double *)vs[0] + lo;
            double *restrict e = E + t * (s + 2), ct = c[t];
            for (i = 0; i < len; i++)
                e[i] = ct * v[i];
        }
        for (r = 1; r < k; r++) {
            const double *restrict v = (const double *)vs[r] + lo;
            for (t = 0; t < m; t++) {
                double *restrict e = E + t * (s + 2), ct = c[r * m + t];
                for (i = 0; i < len; i++)
                    e[i] = e[i] + ct * v[i];
            }
        }
        for (t = 0; U && t < m; t++) {
            const double *u = U + lo * m + t;
            double *restrict e = E + t * (s + 2);
            for (i = 0; i < len; i++)
                e[i] = u[i * m] - e[i];
        }
        for (t = 0; t < m; t++) {
            const double *g = E + t * (s + 2) + (a - lo);   /* row a */
            double *l = lanes + 8 * t;
            if (i0)
                gram_entries(1, diag, off, g, n > 1 ? g + 1 : NULL, NULL, w);
            if (i1 > i0)
                gram_entries(i1 - i0, diag, off, g + i0, g + i0 + 1, g + i0 - 1, w + i0);
            if (end == n && n > 1)
                gram_entries(1, diag, off, g + i1, NULL, g + i1 - 1, w + i1);
            for (i = 0; i + 8 <= end - a; i += 8)
                lane_add(8, g + i, w + i, l);
            lane_add(end - a - i, g + i, w + i, l);
        }
    }
    for (t = 0; t < m; t++)
        out[t] = lane_total(lanes + 8 * t, 1);
}

/* sum_i a_i*b_i over n entries in the norms' order: lane_add in blocks of
   eight from +0.0, so product i goes to lane i % 8, then lane_total. */
INLINE double lane_dot(ptrdiff_t n, const double *a, const double *b)
{
    double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    ptrdiff_t i;
    for (i = 0; i + 8 <= n; i += 8)
        lane_add(8, a + i, b + i, lanes);
    lane_add(n - i, a + i, b + i, lanes);
    return lane_total(lanes, 1);
}

/* The dots x.(T v) for the k vectors x of n at the addresses vs, then
   v.(T v), each by lane_dot, into out, and T*v, by gram_entries (entry 0,
   the entries between, entry n - 1), into w.  First, passes sweeps of
   modified Gram-Schmidt in T's inner product over the vectors in order
   take v in place: w = T*v, c = x.w by lane_dot, then v = v - c*x; v
   must then not be one of the vectors. */
WIDE
void tridiagonal_project(ptrdiff_t n, ptrdiff_t k, double diag, double off,
                         const uintptr_t *vs, double *v, ptrdiff_t passes,
                         double *restrict w, double *restrict out)
{
    ptrdiff_t s, i, t;
    for (s = 0;; s++) {
        const double *x;
        double c;
        gram_entries(1, diag, off, v, n > 1 ? v + 1 : NULL, NULL, w);
        if (n > 2)
            gram_entries(n - 2, diag, off, v + 1, v + 2, v, w + 1);
        if (n > 1)
            gram_entries(1, diag, off, v + n - 1, NULL, v + n - 2, w + n - 1);
        if (s >= passes * k)
            break;
        x = (const double *)vs[s % k];
        c = lane_dot(n, x, w);
        for (t = 0; t < n; t++)
            v[t] = v[t] - c * x[t];
    }
    for (i = 0; i < k; i++)
        out[i] = lane_dot(n, (const double *)vs[i], w);
    out[k] = lane_dot(n, v, w);
}

/* The index of the first largest of the c >= 1 values x, as numpy's
   argmax: the first NaN, if any. */
static ptrdiff_t first_max(ptrdiff_t c, const double *x)
{
    ptrdiff_t j, p = 0;
    for (j = 1; j < c && x[p] == x[p]; j++)
        if (!(x[j] <= x[p]))
            p = j;
    return p;
}

/* Column-pivoted Gram-Schmidt, orthogonalisation run twice (CGS2), of the
   matrix whose c columns of n entries are the rows of the row-major (c, n)
   R, which it overwrites.  Every dot and norm is lane_dot's, a norm its
   square root.  The tolerance is rtol times the largest initial norm.
   Step k takes the first largest norm (first_max), each picked row's at
   -1, and stops if it is at most the tolerance.  Otherwise its row q, less
   Q(Q^T q) twice, Q^T q being the k dots with Q's rows and Q(Q^T q) their
   multiples of those rows summed left to right, then over its norm,
   becomes row k of the row-major (min(n, c), n) Q, and the row's index
   picks[k].  Before the next step, each row r not picked gets its dot t
   with q, then r - t*q, then its new norm.  At most min(n, c) steps.
   Scratch: c + n + min(n, c) doubles.  Returns the number of picks. */
WIDE
ptrdiff_t column_pivots(ptrdiff_t n, ptrdiff_t c, double *restrict R, double rtol,
                        ptrdiff_t *restrict picks, double *restrict Q,
                        double *restrict scratch)
{
    double *norm = scratch, *s = scratch + c, *coef = s + n, tol, size;
    ptrdiff_t steps = n < c ? n : c, k, j, i, t, pass;
    if (steps == 0)
        return 0;
    for (j = 0; j < c; j++)
        norm[j] = sqrt(lane_dot(n, R + j * n, R + j * n));
    tol = rtol * norm[first_max(c, norm)];
    for (k = 0; k < steps; k++) {
        double *q = Q + k * n;
        j = first_max(c, norm);
        if (norm[j] <= tol)
            break;
        memcpy(q, R + j * n, n * sizeof *q);
        picks[k] = j;
        norm[j] = -1.0;
        for (pass = 0; k > 0 && pass < 2; pass++) {
            for (i = 0; i < k; i++)
                coef[i] = lane_dot(n, Q + i * n, q);
            for (t = 0; t < n; t++)
                s[t] = coef[0] * Q[t];
            for (i = 1; i < k; i++)
                for (t = 0; t < n; t++)
                    s[t] = s[t] + coef[i] * Q[i * n + t];
            for (t = 0; t < n; t++)
                q[t] = q[t] - s[t];
        }
        size = sqrt(lane_dot(n, q, q));
        for (t = 0; t < n; t++)
            q[t] = q[t] / size;
        for (j = 0; k + 1 < steps && j < c; j++)
            if (norm[j] != -1.0) {
                double *r = R + j * n, dot = lane_dot(n, q, r);
                for (t = 0; t < n; t++)
                    r[t] = r[t] - dot * q[t];
                norm[j] = sqrt(lane_dot(n, r, r));
            }
    }
    return k;
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
    ("thomas", (_N, _N, _P, _P, _P, _P, _N, _P), ctypes.c_int),
    ("thomas_factor", (_N, _D, _D, _P), None),
    ("thomas_substitute", (_N, _N, _D, _P, _P, _P), None),
    ("column_pivots", (_N, _N, _P, _D, _P, _P, _P), _N),
    ("dd_gram_table", (_N, _N, _N, _D, _D, _P, _P, _P), None),
    ("dd_radicands", (_N, _N, _P, _P, _P, _P, _N, _P), _N),
    ("sum2_columns", (_N, _N, _P, _P, _P), None),
    ("lift_norms", (_N, _N, _N, _P, _P, _P, _D, _D, _P, _N, _P), None),
    ("lift_norms_strips", (_N, _N, _N, _P, _P, _P, _D, _D, _P, _N, _P), None),
    ("lu_solve_dots", (_N, _N, _P, _P, _P, _P, _P, _N, _P), None),
    ("lu_solves", (_N, _N, _P, _P, _P, _P), _N),
    ("tridiagonal_project", (_N, _N, _D, _D, _P, _P, _N, _P, _P), None),
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
    arrays (off is not read when n = 1), and rhs is the one (m,) row of
    right-hand sides that every row shares.  The kernel keeps the pivot of
    every s-th row, s = isqrt(n) unless given, so it holds one scratch
    array of about 2*sqrt(n) rows of m besides X.  A zero pivot raises
    ``LinAlgError``.
    """
    n, m = X.shape
    if diag.shape != (m,) or off.shape != (m,) or rhs.shape != (m,):
        raise ValueError(f"rows {diag.shape}, {off.shape} and rhs {rhs.shape} do not fit {X.shape}")
    s = max(1, s or math.isqrt(n))
    scratch = np.empty((-(-(n - 1) // s) + s) * m)
    args = (
        _address(diag, "diag"), _address(off, "off"), _address(rhs, "rhs"),
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


def sum2_columns(q, z) -> np.ndarray:
    """Sum2 of the rounded products q_p*X_p for every column of the (k, m)
    array z, in one kernel call, X_p = z_I*z_J rounded for the d = k(k+1)/2
    pairs I <= J in lexicographic order and q (d,).

    Each column's products are two_summed in order into a running sum and
    their errors added into a second one, and the two are added at the end,
    with the operations of the tests' numpy Sum2 in their order, so its
    bits.  The result errs from the exact sum S of the products by at most
    u|S| + gamma_{d-1}**2 * sum|q_p*X_p|, u = 2**-53.  A non-finite product,
    or an overflow, gives a non-finite value.  Returns an (m,) array.
    """
    k, m, _ = _monomials(z, q)
    out = np.empty(m)
    args = _address(q, "q"), _address(z, "z"), _address(out, "out", out=True)
    _lib.sum2_columns(k, m, *args)
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


def column_pivots(A, rtol: float) -> tuple:
    """Column-pivoted Gram-Schmidt of the (n, c) array A, orthogonalisation
    run twice, in one kernel call on a transposed copy of A.

    Each step picks the first column of largest norm left after projecting
    out the columns picked so far, and the steps stop when that norm is at
    most rtol times A's largest column norm, or after min(n, c) picks.
    Every dot and norm is summed in the norm kernels' eight-lane order, so
    the picks and Q's bits are fixed by A and rtol.  Returns the picked
    column indices in pick order, a list, and the (n, r) orthonormal basis
    Q of their span, one column per pick.  An A that is not 2-D or has a
    non-finite entry, or an rtol that is negative or NaN, raises
    ``ValueError`` naming it.
    """
    if np.ndim(A) != 2:
        raise ValueError(f"A of shape {np.shape(A)} is not a 2-D array")
    if not rtol >= 0.0:
        raise ValueError(f"rtol = {rtol} is not a non-negative number")
    R = np.array(np.transpose(A), dtype=float, order="C")
    if not np.isfinite(R).all():
        raise ValueError("A has a non-finite entry")
    c, n = R.shape
    picks, Q = np.empty(min(n, c), dtype=np.intp), np.empty((min(n, c), n))
    scratch = np.empty(c + n + min(n, c))
    r = _lib.column_pivots(n, c, _address(R, "R", out=True), rtol,
                           _address(picks, "picks", out=True, dtype=np.intp),
                           _address(Q, "Q", out=True), _address(scratch, "scratch", out=True))
    return picks[:r].tolist(), Q[:r].T


class ZeroPivotError(np.linalg.LinAlgError):
    """A zero pivot in matrix ``index`` of a stack that :func:`lu_solves` factors."""

    def __init__(self, index: int):
        super().__init__(f"zero pivot in matrix {index}")
        self.index = index


def lu_solves(A, b=None) -> tuple:
    """Partial-pivoting LU factors of every matrix of the (m, r, r) array A,
    in place, and its solution for the (r,) array b if given, in one kernel
    call, with the operations of the tests' numpy LU in their order, so its
    bits in any stack.  Returns (piv, x): row k of matrix j's factors was
    its row piv[j, k], and x is (m, r), or None without b.  The first matrix
    with a zero pivot raises :class:`ZeroPivotError`, no later one touched.
    """
    m, r = np.shape(A)[:2] if np.ndim(A) == 3 else (-1, -1)
    if np.shape(A) != (m, r, r) or b is not None and np.shape(b) != (r,):
        raise ValueError(f"A {np.shape(A)} and b {np.shape(b)} are not a stack of square "
                         f"matrices and one right-hand side")
    piv, x = np.empty((m, r), dtype=np.intp), None if b is None else np.empty((m, r))
    args = (_address(A, "A", out=True), _address(piv, "piv", out=True, dtype=np.intp),
            *((None, None) if b is None else (_address(b, "b"), _address(x, "x", out=True))))
    j = _lib.lu_solves(r, m, *args)
    if j >= 0:
        raise ZeroPivotError(j)
    return piv, x


# lift_norms passes over the mesh for up to _NORM_POINTS points at a time,
# with 12 doubles a point of scratch (eight lanes, the Gram product and
# three rows of the lift).  e1 over 400 points at N = 199, N_hat = 12 took
# 0.25-0.53 ms in one pass, 0.26-0.41 ms in passes of 64 and 0.40-0.64 ms
# in passes of 16; over 100 points at N = 9999, 3.6-5.3 ms in passes of 64
# or more and 4.8-7.7 ms in passes of 16 (medians of 101 and 31 calls,
# three rounds in each of three processes, 2-vCPU AVX-512 host).
_NORM_POINTS = 512

# Chunks of at most _STRIP_POINTS points take lift_norms_strips instead:
# along the mesh in strips of _NORM_STRIP rows (a multiple of 8), with
# 8 + _NORM_STRIP + 2 doubles a point and _NORM_STRIP more of scratch.
# Across the points, one point adds each mesh row's terms in a chain of
# dependent additions through memory.  Across / along, in ms, the lowest of
# six medians of 31 calls (2-vCPU AVX-512 host), for k vectors:
#   points  N = 199, k = 13  N = 199, k = 25  N = 9999, k = 13  N = 9999, k = 25
#        8   0.036 / 0.033    0.058 / 0.051     0.36 / 0.22       0.69 / 0.40
#       17   0.042 / 0.038    0.067 / 0.061     0.64 / 0.40       1.13 / 0.73
#       20   0.043 / 0.039    0.072 / 0.064     0.69 / 0.50       1.22 / 0.91
#       24   0.042 / 0.042    0.077 / 0.066     0.60 / 0.69       1.27 / 1.25
#       32   0.045 / 0.050    0.077 / 0.086     1.03 / 0.98       1.90 / 1.77
# So the strips take up to 20 points (E3's r = 17 nodes at N = 9999 among
# them).  Strips of 128, 256 and 512 rows took the same time.
_STRIP_POINTS = 20
_NORM_STRIP = 256


def lift_norms(sys: TruthSystem, vectors, coefficients, U=None) -> np.ndarray:
    """The H1 norms of the lifts e_j = sum_k coefficients[k, j]*vectors[k],
    or of U[:, j] - e_j if U is given, for every point j, in one kernel call.

    vectors are k (N,) vectors, coefficients a (k, m) array with one row
    per vector and one column per point, and U an (N, m) array.  The lift
    adds the terms in the order of the vectors, from
    coefficients[0, j]*vectors[0] (the tests' lift reference), across the
    points of each mesh entry, or along the mesh for at most _STRIP_POINTS
    points; e.Gram*e is then summed in eight lanes, lane i % 8 in
    increasing mesh entry i (the tests' lane reference), so in an order
    fixed by N, whichever kernel runs.  e1 is the norm of the lift of the
    Riesz vectors with z = (1; gamma; mu*gamma), and the true error that of
    U less the lift of the snapshots with gamma.  Returns an (m,) array.
    """
    n, k = sys.n, len(vectors)
    m = np.shape(coefficients)[1] if np.ndim(coefficients) == 2 else -1
    if k < 1 or np.shape(coefficients) != (k, m) or U is not None and np.shape(U) != (n, m):
        raise ValueError(f"{k} vectors, coefficients {np.shape(coefficients)} and U "
                         f"{np.shape(U)} do not fit")
    table = _table(vectors, "vectors", n)
    args = None if U is None else _address(U, "U"), _address(coefficients, "coefficients")
    strips = m <= _STRIP_POINTS
    p = _NORM_STRIP if strips else max(1, min(m, _NORM_POINTS))
    out, scratch = np.empty(m), np.empty(p + m * (p + 10) if strips else 12 * p)
    kernel = _lib.lift_norms_strips if strips else _lib.lift_norms
    kernel(n, m, k, table.ctypes.data, *args, sys.Gram.diag, sys.Gram.off,
           _address(out, "out", out=True), p, _address(scratch, "scratch", out=True))
    return np.sqrt(np.maximum(out, 0.0))


def tridiagonal_project(T: Tridiagonal, vectors, v, passes: int = 0, w=None) -> np.ndarray:
    """x.(T v) for every (N,) vector x of vectors, then v.(T v), as a new
    array, in one kernel call with the tests' lane reference's operations;
    T*v goes into w, an (N,) array, if given.  With passes > 0, v is first
    swept passes times, in place, by modified Gram-Schmidt in T's inner
    product, so v must be writeable and none of vectors.  A vector or w
    that does not fit v raises ``ValueError`` naming it."""
    n = np.shape(v)[0] if np.ndim(v) == 1 else -1
    if n < 1 or w is not None and np.shape(w) != (n,):
        raise ValueError(f"v {np.shape(v)} and w {np.shape(w)} are not two (N,) vectors")
    table, k = _table(vectors, "vectors", n), len(vectors)
    w, out = np.empty(n) if w is None else w, np.empty(k + 1)
    args = (table.ctypes.data, _address(v, "v", out=passes > 0), passes,
            _address(w, "w", out=True), _address(out, "out", out=True))
    _lib.tridiagonal_project(n, k, T.diag, T.off, *args)
    return out


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


def _lift(sys: TruthSystem, F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Gram^{-1} F into X, both (N, m), by one substitution kernel call with
    Gram's stored factors, each column with the bits of a Thomas solve; F
    may be X itself.  Returns X."""
    if F.shape != X.shape or X.shape[0] != sys.n:
        raise ValueError(f"F {F.shape} and X {X.shape} are not two ({sys.n}, m) arrays")
    args = _address(sys.gram_factors, "factors"), _address(F, "F"), _address(X, "X", out=True)
    _lib.thomas_substitute(sys.n, X.shape[1], sys.Gram.off, *args)
    return X


def riesz_representative(sys: TruthSystem, functional: np.ndarray) -> np.ndarray:
    """Riesz representative w = Gram^{-1} f, so w^T Gram v = f^T v.

    One column of the substitution kernel solves it with the factors that
    :func:`assemble` stored, so with the bits of a Thomas solve that
    factors Gram afresh.  f must be one (N,) functional; any other shape
    raises ``ValueError``.
    """
    if functional.shape != (sys.n,):
        raise ValueError(f"functional has shape {functional.shape}, expected ({sys.n},)")
    F = np.ascontiguousarray(functional, dtype=float).reshape(sys.n, 1)
    return _lift(sys, F, np.empty((sys.n, 1)))[:, 0]

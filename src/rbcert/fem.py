"""Truth discretization: P1 finite elements for -u'' + mu*u = 1 on ]0,1[.

Homogeneous Dirichlet conditions on a uniform mesh with n_cells cells,
so the discrete space has N = n_cells - 1 interior nodes.  Stiffness,
mass, and load assemble in closed form:

    K = (1/h) tridiag(-1, 2, -1)      M = (h/6) tridiag(1, 4, 1)
    F_j = h                           Gram = K + M   (H1 inner product)

The parametric operator is affine, A(mu) = K + mu*M, which is what the
reduced-basis machinery in :mod:`rbcert.reduced` relies on.

Every row of A(mu), of Gram and of F is the same, so each truth solve and
Riesz lift is Thomas elimination of n equal rows.  One C source,
``_SOURCE``, holds three kernels: ``thomas`` runs every solve and lift, m systems at once with the columns as the inner loop,
and ``dd_gram_matvec`` and ``dd_dots`` grow E2's double-double Gram
table (:class:`rbcert.estimators.E2Table`).  It is compiled when this
module is imported, with ``cc`` and ``_FLAGS``, into one library in
``__pycache__`` beside this file, and loaded with ``ctypes``; a missing
or failing compiler is an ``ImportError``.  ``-ffp-contract=off`` keeps
its arithmetic free of fused multiply-adds, and it calls no BLAS and no
libm, so its bits do not depend on the host.  The kernels take bare
addresses: every array passes one check per call (:func:`_address`).
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
    """Symmetric tridiagonal matrix stored as main diagonal + offdiagonal."""

    diag: np.ndarray
    off: np.ndarray  # length len(diag) - 1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A*v, or A*v_j for every row v_j of a (m, n) stack."""
        w = self.diag * v
        w[..., :-1] += self.off * v[..., 1:]
        w[..., 1:] += self.off * v[..., :-1]
        return w

    def __add__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.diag + other.diag, self.off + other.off)


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

    Every matrix entry is a single rounding away from the closed form
    (2/h, -1/h, 2h/3, h/6, h), which is what the assembly oracles in the
    test suite check against exact rational arithmetic.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be >= 2 (need at least one interior node)")
    n = n_cells - 1
    h = 1.0 / n_cells
    K = Tridiagonal(np.full(n, 2.0 / h), np.full(n - 1, -(1.0 / h)))
    M = Tridiagonal(np.full(n, 2.0 * h / 3.0), np.full(n - 1, h / 6.0))
    return TruthSystem(n_cells, h, K, M, K + M, np.full(n, h))


_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* two_prod(a, b) = (p, e), for a already split into (ah, al). */
static void two_prod(double a, double ah, double al, double b, double *p, double *e)
{
    double bh, bl;
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

/* Gram*v in double-double for k vectors v of n entries, at the addresses
   in vs, into rows of n of wh and wl.  Every row of Gram is (off, diag,
   off) (off is not read when n = 1).  Entry i is two_prod(diag, v_i),
   then dd_add of two_prod(off, v_{i+1}), then of two_prod(off, v_{i-1}),
   where those exist: the operations of the numpy dd matvec, entry by
   entry, so a vector has the same bits alone as among others. */
void dd_gram_matvec(ptrdiff_t n, ptrdiff_t k, double diag, double off,
                    const uintptr_t *vs, double *restrict wh, double *restrict wl)
{
    double dh, dl, oh, ol, p, e;
    ptrdiff_t i, j;
    split(diag, &dh, &dl);
    split(off, &oh, &ol);
    for (j = 0; j < k; j++) {
        const double *v = (const double *)vs[j];
        double *h = wh + j * n, *l = wl + j * n;
        for (i = 0; i < n; i++)
            two_prod(diag, dh, dl, v[i], &h[i], &l[i]);
        for (i = 0; i + 1 < n; i++) {
            two_prod(off, oh, ol, v[i + 1], &p, &e);
            dd_add(&h[i], &l[i], p, e);
        }
        for (i = 1; i < n; i++) {
            two_prod(off, oh, ol, v[i - 1], &p, &e);
            dd_add(&h[i], &l[i], p, e);
        }
    }
}

/* sum_i u_i*(wh_i + wl_i) in double-double for each of the p index pairs
   (a, b) = pairs[2q], pairs[2q + 1]: u at address us[a], wh and wl of n
   entries at whs[b] and wls[b].  Each term is dd_mul((u_i, 0), (wh_i,
   wl_i)), its zero low part's 0*wh_i included, into the 2n doubles of
   scratch; the terms are then summed by dd_sum's pairwise tree, each
   level the dd_add of its front half and its back half.  Pair q's sum
   goes to (out[q], out[p + q]). */
void dd_dots(ptrdiff_t n, ptrdiff_t p, const uintptr_t *us, const uintptr_t *whs,
             const uintptr_t *wls, const ptrdiff_t *pairs, double *restrict out,
             double *restrict scratch)
{
    double *th = scratch, *tl = scratch + n;
    ptrdiff_t q, i, len, half;
    for (q = 0; q < p; q++) {
        const double *u = (const double *)us[pairs[2 * q]];
        const double *wh = (const double *)whs[pairs[2 * q + 1]];
        const double *wl = (const double *)wls[pairs[2 * q + 1]];
        for (i = 0; i < n; i++) {
            double cross = u[i] * wl[i] + 0.0 * wh[i];
            double uh, ul, x, e;
            split(u[i], &uh, &ul);
            two_prod(u[i], uh, ul, wh[i], &x, &e);
            e = e + cross;
            th[i] = x + e;    /* quick_two_sum(x, e) */
            tl[i] = e - (th[i] - x);
        }
        for (len = n; len > 1; len = half) {
            half = (len + 1) / 2;
            for (i = 0; i < len - half; i++)
                dd_add(&th[i], &tl[i], th[half + i], tl[half + i]);
        }
        out[q] = th[0];
        out[p + q] = tl[0];
    }
}
"""

# No -march: the kernels' bits must not depend on the build host's
# instruction set, and -ffp-contract=off forbids fused multiply-adds.
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _build(source: str, flags: tuple) -> ctypes.CDLL:
    """Load the shared library of source, compiling it once per host.

    The library is ``__pycache__/_rows-<sha256>.so`` beside this file,
    keyed on the source, the flags and the platform.  The compiler writes
    a temporary file there, which ``os.replace`` moves into place, so
    concurrent first imports each load a whole library.  A compiler that
    is missing or fails raises ``ImportError`` naming the command.
    """
    key = "\0".join((source, *flags, sys.platform, platform.machine()))
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    path = os.path.join(cache, f"_rows-{hashlib.sha256(key.encode()).hexdigest()}.so")
    if not os.path.exists(path):
        import subprocess
        import tempfile

        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_rows-", suffix=".tmp", dir=cache)
        os.close(fd)
        cmd = ["cc", *flags, "-o", tmp, "-x", "c", "-"]
        try:
            subprocess.run(cmd, input=source, capture_output=True, text=True, check=True)
            os.chmod(tmp, 0o755)
            os.replace(tmp, path)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(
                f"rbcert.fem: building its C kernel with `{' '.join(cmd)}` failed: {detail}"
            ) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(path)


_lib = _build(_SOURCE, _FLAGS)
_n, _p = ctypes.c_ssize_t, ctypes.c_void_p
_lib.thomas.argtypes = (_n, _n, _p, _p, _p, _n, _p, _n, _p)
_lib.thomas.restype = ctypes.c_int
_lib.dd_gram_matvec.argtypes = (_n, _n, ctypes.c_double, ctypes.c_double, _p, _p, _p)
_lib.dd_gram_matvec.restype = None
_lib.dd_dots.argtypes = (_n, _n, _p, _p, _p, _p, _p, _p)
_lib.dd_dots.restype = None
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


def dd_gram_matvec(sys: TruthSystem, vectors) -> tuple:
    """Gram*v in double-double for every (N,) vector v of a list, in one kernel call.

    Returns (wh, wl), two (k, N) arrays whose row j is Gram*vectors[j]:
    the operations of ``precision.two_prod`` and ``precision.dd_add``,
    entry by entry, so a vector has the same bits alone as in any list.
    """
    n, k = sys.n, len(vectors)
    table = _table(vectors, "vectors", n)
    wh, wl = np.empty((k, n)), np.empty((k, n))
    G = sys.Gram
    _lib.dd_gram_matvec(
        n, k, G.diag[0], G.off[0] if n > 1 else 0.0, table.ctypes.data,
        _address(wh, "wh", out=True), _address(wl, "wl", out=True),
    )
    return wh, wl


def dd_dots(us, whs, wls, pairs) -> tuple:
    """sum_i u_i*(wh_i + wl_i) in double-double for every index pair (a, b).

    us, whs and wls are lists of (N,) float64 vectors, and pairs is a
    (p, 2) integer array of pairs (a, b) that take u = us[a], wh = whs[b]
    and wl = wls[b].  Each dot is ``dd_mul((u, 0), (wh, wl))`` then
    :func:`precision.dd_sum`'s pairwise tree, the same operations in the
    same order, so the same bits; one kernel call runs them all on a
    scratch of 2N entries.  Returns (hi, lo), two (p,) arrays.
    """
    n = len(us[0])
    tables = [_table(vs, name, n) for name, vs in (("us", us), ("whs", whs), ("wls", wls))]
    pairs = np.ascontiguousarray(pairs, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs of shape {pairs.shape} are not a (p, 2) array")
    if pairs.size and not (pairs.min() >= 0 and pairs[:, 0].max() < len(us)
                           and pairs[:, 1].max() < min(len(whs), len(wls))):
        raise ValueError("a pair indexes past the end of its list of vectors")
    out, scratch = np.empty((2, len(pairs))), np.empty(2 * n)
    _lib.dd_dots(
        n, len(pairs), *(t.ctypes.data for t in tables), _address(pairs, "pairs", dtype=np.intp),
        _address(out, "out", out=True), _address(scratch, "scratch", out=True),
    )
    return out[0], out[1]


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

    The uniform mesh makes every row of A(mu) and of F the same, so the
    system at mu is one diagonal K_d + mu*M_d, one off-diagonal
    K_o + mu*M_o and one load value, and one call of the C kernel solves
    it.  One parameter returns the (n,) solution; a 1-D array of m
    parameters returns an (n, m) array whose column j is the solution at
    mu[j], with the bits of the one-parameter solve, and holds no other
    (n, m) array.  A mu of any other shape raises ``ValueError`` naming
    it.  A coefficient that varies along the mesh would need runs of equal
    rows, one kernel call per run.  A zero pivot raises ``LinAlgError``.
    """
    scalar = np.ndim(mu) == 0
    if scalar:
        check_parameters(mu)
    mus = np.atleast_1d(np.asarray(mu, dtype=float)) if scalar else parameter_block(mu)
    K, M = sys.K, sys.M
    diag = K.diag[0] + mus * M.diag[0]
    off = K.off[0] + mus * M.off[0] if sys.n > 1 else diag
    U = _thomas(diag, off, np.full_like(mus, sys.F[0]), np.empty((sys.n, mus.size)))
    return U[:, 0] if scalar else U


def h1_inner(sys: TruthSystem, u: np.ndarray, v: np.ndarray) -> float:
    """H1 inner product u^T * Gram * v."""
    if u.shape != v.shape or u.shape != (sys.n,):
        raise ValueError("vector shape does not match the truth space")
    return float(u @ sys.Gram.matvec(v))


def h1_norm(sys: TruthSystem, u: np.ndarray) -> float:
    return math.sqrt(max(h1_inner(sys, u, u), 0.0))


def _lift(sys: TruthSystem, F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Gram^{-1} F into X, both (N, m); F may be X itself.  Returns X."""
    m = X.shape[1]
    diag = np.full(m, sys.Gram.diag[0])
    return _thomas(diag, np.full(m, sys.Gram.off[0]) if sys.n > 1 else diag, F, X)


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

"""Truth discretization: P1 finite elements for -u'' + mu*u = 1 on ]0,1[.

Homogeneous Dirichlet conditions on a uniform mesh with n_cells cells,
so the discrete space has N = n_cells - 1 interior nodes.  Stiffness,
mass, and load assemble in closed form:

    K = (1/h) tridiag(-1, 2, -1)      M = (h/6) tridiag(1, 4, 1)
    F_j = h                           Gram = K + M   (H1 inner product)

The parametric operator is affine, A(mu) = K + mu*M, which is what the
reduced-basis machinery in :mod:`rbcert.reduced` relies on.

Every row of A(mu), of Gram and of F is the same, so each truth solve and
Riesz lift is Thomas elimination of n equal rows.  One C kernel,
``thomas`` in ``_SOURCE``, runs them all, m systems at once with the
columns as the inner loop.  It is compiled when this module is imported,
with ``cc`` and ``_FLAGS``, into ``__pycache__`` beside this file, and
loaded with ``ctypes``; a missing or failing compiler is an
``ImportError``.  ``-ffp-contract=off`` keeps its arithmetic free of fused
multiply-adds, and it calls no BLAS and no libm, so its bits do not
depend on the host.
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
   rows 0, s, 2s, ... below n - 1 in kept (ceil((n-1)/s) rows of m) and
   the running pivot in work (s rows of m).  The back sweep recomputes
   each segment's s multipliers into work from its kept pivot, with the
   forward sweep's operations, then applies them.  Returns 1 on a zero
   pivot, 0 otherwise. */
int thomas(ptrdiff_t n, ptrdiff_t m, const double *restrict diag,
           const double *restrict off, const double *rhs, ptrdiff_t rs,
           double *X, ptrdiff_t s, double *restrict kept, double *restrict work)
{
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
"""

# No -march: the kernel's bits must not depend on the build host's
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


_f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_thomas_kernel = _build(_SOURCE, _FLAGS).thomas
_thomas_kernel.argtypes = (
    ctypes.c_ssize_t, ctypes.c_ssize_t, _f64, _f64,
    _f64, ctypes.c_ssize_t, _out, ctypes.c_ssize_t, _out, _out,
)
_thomas_kernel.restype = ctypes.c_int


def _thomas(diag, off, rhs, X, s=None):
    """Solve m systems of n equal rows into the (n, m) array X, and return X.

    Column j's rows have diagonal diag[j] and off-diagonal off[j], (m,)
    arrays (off is not read when n = 1).  rhs is one (m,) row that every
    row shares, or (n, m), and may be X itself.  The kernel keeps the
    pivot of every s-th row, s = isqrt(n) unless given, so it holds about
    2*sqrt(n) rows of m besides X.  A zero pivot raises ``LinAlgError``.
    """
    n, m = X.shape
    if diag.shape != (m,) or off.shape != (m,) or rhs.shape not in ((m,), (n, m)):
        raise ValueError(f"rows {diag.shape}, {off.shape} and rhs {rhs.shape} do not fit {X.shape}")
    s = max(1, s or math.isqrt(n))
    kept, work = np.empty(-(-(n - 1) // s) * m), np.empty(s * m)
    if n and _thomas_kernel(n, m, diag, off, rhs, m * (rhs.ndim - 1), X, s, kept, work):
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination")
    return X


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

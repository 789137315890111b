"""Truth discretization: P1 finite elements for -u'' + mu*u = 1 on ]0,1[.

Homogeneous Dirichlet conditions on a uniform mesh with n_cells cells,
so the discrete space has N = n_cells - 1 interior nodes.  Stiffness,
mass, and load assemble in closed form:

    K = (1/h) tridiag(-1, 2, -1)      M = (h/6) tridiag(1, 4, 1)
    F_j = h                           Gram = K + M   (H1 inner product)

The parametric operator is affine, A(mu) = K + mu*M, which is what the
reduced-basis machinery in :mod:`rbcert.reduced` relies on.

Also provides the analytic reference solution in an overflow-safe form
(rearranged in exp(-sqrt(mu)*x) factors; the textbook cosh/sinh form
overflows for mu around 1e5 and beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix stored as main diagonal + offdiagonal."""

    diag: np.ndarray
    off: np.ndarray  # length len(diag) - 1

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A*v, or A*v_j for every row v_j of a (m, n) stack."""
        w = self.diag * v
        w[..., :-1] += self.off * v[..., 1:]
        w[..., 1:] += self.off * v[..., :-1]
        return w

    def __add__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.diag + other.diag, self.off + other.off)

    def scaled(self, c: float) -> "Tridiagonal":
        return Tridiagonal(c * self.diag, c * self.off)


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

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_j = j*h, j = 1..N."""
        return self.h * np.arange(1, self.n_cells)

    def operator(self, mu) -> Tridiagonal:
        """The parametric operator A(mu) = K + mu*M.

        For a 1-D array of m parameters the diagonals are (n, m) blocks
        whose column j holds A(mu[j]), entry for entry as the scalar call.
        """
        if np.ndim(mu) == 0:
            return self.K + self.M.scaled(mu)
        mu = np.asarray(mu, dtype=float)
        K, M = self.K, self.M
        return Tridiagonal(
            K.diag[:, None] + mu * M.diag[:, None], K.off[:, None] + mu * M.off[:, None]
        )


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
    Gram = K + M
    F = np.full(n, h)
    return TruthSystem(n_cells, h, K, M, Gram, F)


def _thomas(diag, off, rhs, c, d):
    """Thomas elimination body; c and d are the caller's work buffers.

    Every operand is indexed by mesh row only, so the same body runs on
    lists of floats (one system) and on (n, m) arrays (m systems, one
    per column) with the same operations in the same order per column.
    """
    n = len(d)
    piv = diag[0]
    d[0] = rhs[0] / piv
    for i in range(1, n):
        c[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * c[i - 1]
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def solve_tridiagonal(A: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Thomas elimination for a symmetric tridiagonal system.

    With (n,) diagonals and an (n,) right-hand side this is one system.
    When A's diagonals or rhs are (n, m) blocks, m systems are solved at
    once: column j of the result solves column j of A (or A itself)
    against column j of rhs (or rhs itself).  A single system runs on
    Python floats, which index faster than numpy scalars; a block runs on
    numpy rows, which pays off from about 16 columns.  Both give the same
    bits per column.  A zero pivot raises ``LinAlgError``.
    """
    n = A.n
    if rhs.shape[:1] != (n,) or rhs.ndim > 2 or A.diag.ndim > 2:
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},) or ({n}, m)")
    try:
        if rhs.ndim == A.diag.ndim == 1:
            x = _thomas(A.diag.tolist(), A.off.tolist(), rhs.tolist(), [0.0] * (n - 1), [0.0] * n)
            return np.array(x)
        cols = np.broadcast_shapes(rhs.shape[1:], A.diag.shape[1:])
        with np.errstate(divide="raise", invalid="raise"):
            return _thomas(A.diag, A.off, rhs, np.empty((n - 1,) + cols), np.empty((n,) + cols))
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination") from exc


def check_parameters(mu) -> None:
    """Raise ValueError unless mu (a scalar or an array) lies in [1, inf)."""
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    bad = mus[~(np.isfinite(mus) & (mus >= 1.0))]
    if bad.size:
        raise ValueError(f"mu = {float(bad[0])} outside the parameter domain [1, inf)")


def solve_truth(sys: TruthSystem, mu) -> np.ndarray:
    """Truth solve (K + mu*M) u = F.

    For a 1-D array of m parameters, one (n, m) block solve whose column
    j is the solution at mu[j].
    """
    check_parameters(mu)
    return solve_tridiagonal(sys.operator(mu), sys.F)


def h1_inner(sys: TruthSystem, u: np.ndarray, v: np.ndarray) -> float:
    """H1 inner product u^T * Gram * v."""
    if u.shape != v.shape or u.shape != (sys.n,):
        raise ValueError("vector shape does not match the truth space")
    return float(u @ sys.Gram.matvec(v))


def h1_norm(sys: TruthSystem, u: np.ndarray) -> float:
    return math.sqrt(max(h1_inner(sys, u, u), 0.0))


def riesz_representative(sys: TruthSystem, functional: np.ndarray) -> np.ndarray:
    """Riesz representative w = Gram^{-1} f, so h1_inner(w, v) = f^T v."""
    return solve_tridiagonal(sys.Gram, functional)


# --- analytic reference -------------------------------------------------

def analytic_solution(mu: float, x):
    """Exact solution of -u'' + mu*u = 1, u(0) = u(1) = 0.

    Written with exp(-sqrt(mu)*(1-x)) and exp(-sqrt(mu)*x) factors so it
    stays finite for arbitrarily large mu; algebraically identical to the
    cosh/sinh form.  Boundary values are exactly 0.0 in floating point.
    """
    check_parameters(mu)
    s = math.sqrt(mu)
    x = np.asarray(x, dtype=float)
    num = np.exp(-s * (1.0 - x)) + np.exp(-s * x)
    den = 1.0 + math.exp(-s)
    u = (1.0 - num / den) / mu
    return u if u.ndim else float(u)


def analytic_derivative(mu: float, x):
    """Derivative of :func:`analytic_solution` (same overflow-safe form)."""
    s = math.sqrt(mu)
    x = np.asarray(x, dtype=float)
    num = np.exp(-s * x) - np.exp(-s * (1.0 - x))
    den = 1.0 + math.exp(-s)
    du = s * num / (den * mu)
    return du if du.ndim else float(du)


# 4-point Gauss-Legendre on [-1, 1]: exact through degree 7, which makes
# the per-cell quadrature error negligible next to the O(h) FE error.
_GAUSS_X = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GAUSS_W = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def h1_error_vs_analytic(sys: TruthSystem, u: np.ndarray, mu: float) -> float:
    """H1-norm distance between a discrete field and the analytic solution.

    The discrete field is the P1 interpolant of the interior nodal values
    `u` (zero at the boundary); the integral of (e')^2 + e^2 is taken
    cell by cell with 4-point Gauss quadrature.
    """
    h = sys.h
    full = np.zeros(sys.n_cells + 1)
    full[1:-1] = u
    left = full[:-1]
    right = full[1:]
    slope = (right - left) / h
    x_left = h * np.arange(sys.n_cells)
    total = 0.0
    for xi, w in zip(_GAUSS_X, _GAUSS_W):
        t = 0.5 * (xi + 1.0)
        x = x_left + t * h
        uh = left + t * (right - left)
        e = uh - analytic_solution(mu, x)
        de = slope - analytic_derivative(mu, x)
        total += w * float(np.sum(de * de + e * e))
    return math.sqrt(0.5 * h * total)

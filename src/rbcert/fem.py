"""Truth discretization: P1 finite elements for -u'' + mu*u = 1 on ]0,1[.

Homogeneous Dirichlet conditions on a uniform mesh with n_cells cells,
so the discrete space has N = n_cells - 1 interior nodes.  Stiffness,
mass, and load assemble in closed form:

    K = (1/h) tridiag(-1, 2, -1)      M = (h/6) tridiag(1, 4, 1)
    F_j = h                           Gram = K + M   (H1 inner product)

The parametric operator is affine, A(mu) = K + mu*M, which is what the
reduced-basis machinery in :mod:`rbcert.reduced` relies on.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from dataclasses import dataclass, field

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
    boundary values are identically zero and never stored.  Gram does not
    depend on mu, so its Thomas factors are kept with it: ``gram_thomas``
    holds Gram's off-diagonal, multipliers and pivots (:func:`_thomas_factor`)
    as ``array("d")``, which iterate as Python floats in a quarter of a
    list's memory, for the Riesz lifts.
    """

    n_cells: int
    h: float
    K: Tridiagonal
    M: Tridiagonal
    Gram: Tridiagonal
    F: np.ndarray
    gram_thomas: tuple = field(repr=False, compare=False)

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
    Gram = K + M
    F = np.full(n, h)
    off = Gram.off.tolist()
    factors = (off, *_thomas_factor(Gram.diag.tolist(), off))
    return TruthSystem(n_cells, h, K, M, Gram, F, tuple(array("d", x) for x in factors))


def _thomas_factor(diag, off):
    """Thomas elimination's multipliers and pivots of one system.

    diag and off are lists of Python floats, and so are the multipliers
    c_i = off[i-1]/piv[i-1] and pivots piv_i = diag[i] - off[i-1]*c_i
    returned, formed row for row as :func:`_thomas_equal_rows` forms them.  A
    zero pivot raises ``ZeroDivisionError`` here or in the substitution.
    """
    piv = diag[0]
    cs, pivs = [], [piv]
    for a, o in zip(diag[1:], off):
        c = o / piv
        piv = a - o * c
        cs.append(c)
        pivs.append(piv)
    return cs, pivs


def _thomas_substitute(off, cs, pivs, rhs):
    """The two substitution sweeps of a system factored by :func:`_thomas_factor`.

    A zip-driven loop over sequences that yield Python floats (lists, or
    the ``array("d")`` factors of a :class:`TruthSystem`): no indexing, and
    Python floats, which combine faster than numpy scalars.  Row for row
    it makes the operations of :func:`_thomas_equal_rows` in the same order,
    so both give the same bits.  Returns the solution as a list.
    """
    x = rhs[0] / pivs[0]
    xs = [x]
    for o, p, r in zip(off, pivs[1:], rhs[1:]):
        x = (r - o * x) / p
        xs.append(x)
    for i, c in zip(range(len(cs) - 1, -1, -1), reversed(cs)):
        x = xs[i] = xs[i] - c * x
    return xs


def _thomas_fused(n, diag, off, rhs):
    """Thomas elimination of n equal rows (diag, off, rhs) on Python floats.

    One loop forms each row's multiplier, pivot and forward value (off is
    not read when n = 1), then the back substitution runs: row for row the
    operations of :func:`_thomas_factor` and :func:`_thomas_substitute`, so
    the same bits.  Returns a list.
    """
    piv = diag
    x = rhs / piv
    xs, cs = [x], []
    for _ in range(n - 1):
        c = off / piv
        piv = diag - off * c
        x = (rhs - off * x) / piv
        cs.append(c)
        xs.append(x)
    for i, c in zip(range(n - 2, -1, -1), reversed(cs)):
        x = xs[i] = xs[i] - c * x
    return xs


# The block solve's back sweep recomputes the multipliers of g = ceil(N /
# _SLAB_ROWS) segments at once, on (g, m) slabs, and its segments have
# isqrt(N // g) rows: g = 1 up to N = 2048, 5 at N = 9999.  A slab cuts
# the recompute's three calls a row g-fold, for about 2*sqrt(g*N) rows of
# memory (kept pivots and one slab): 4.5 % of the solution from N = 2000 up.
_SLAB_ROWS = 2 ** 11


def _thomas_equal_rows(n, diag, off, rhs):
    """Thomas elimination of m systems of n equal rows at once, one per column.

    Column j is the n x n system whose every row has diagonal diag[j],
    off-diagonal off[j] and right-hand side rhs[j] (all (m,) arrays).
    The forward sweep writes its values into the one (n, m) array
    returned.  Row i first holds its multiplier c_i, so (x_{i-1}; c_i) is
    one read-only (2, m) window of it, and two same-shape calls against
    the stacked (off; off) and (rhs; diag) form (t_i; piv_i) together:
    four ufunc calls a row.  The forward sweep keeps the pivot of every
    s-th row.  The back substitution then runs slab by slab from the
    last: each slab recomputes the multipliers of g segments of s rows at
    once from their kept pivots, with the forward sweep's operations in
    the same order, so they have its bits, and never past the last row
    (the last segment may be short); then it applies them, two calls a
    row.  That is about 6 + 3/g calls a mesh row, g and s as
    ``_SLAB_ROWS`` sets them (6.6 at N = 9999: about 3.5-5.5 us per row
    at any width from 13 to 104 columns, 2-vCPU Xeon), and besides the
    solution about 2*sqrt(g*n) rows.  Rows are iterated, not indexed, and
    every ufunc writes into a preallocated array.  Row for row it makes the
    operations of :func:`_thomas_factor` and :func:`_thomas_substitute`,
    so each column has the bits of the scalar solve.
    """
    m = diag.shape[0]
    g = -(-n // _SLAB_ROWS)
    s = max(1, math.isqrt(n // g))
    X = np.empty((n, m))
    kept = np.empty((-(-(n - 1) // s), m))  # pivots of rows 0, s, ... < n - 1
    windows = np.lib.stride_tricks.as_strided(
        X, (n - 1, 2, m), X.strides[:1] + X.strides, writeable=False
    )  # windows[i - 1] is rows i - 1 and i
    div, mul, sub = np.divide, np.multiply, np.subtract
    offs, rhs_diag, t_piv = np.array((off, off)), np.array((rhs, diag)), np.empty((2, m))
    t, piv = t_piv
    np.copyto(piv, diag)
    div(rhs, piv, X[0])
    for k, p in enumerate(kept):
        np.copyto(p, piv)
        for w, y in zip(windows[k * s:k * s + s], X[k * s + 1:k * s + s + 1]):
            div(off, piv, y)
            mul(offs, w, t_piv)
            sub(rhs_diag, t_piv, t_piv)
            div(t, piv, y)
    K = len(kept)
    last = n - 1 - (K - 1) * s  # multipliers in segment K - 1
    g = max(1, min(g, K))
    C = np.empty((s, g, m))  # C[j, k - a]: multiplier of row k*s + j + 1
    T = np.empty((g, m))
    off_g, diag_g = np.tile(off, (g, 1)), np.tile(diag, (g, 1))
    x = X[-1]
    for b in range(K, 0, -g):
        # The slab of segments a, ..., b - 1 runs its pivot recurrence over
        # its kept pivots; segment K - 1 leaves it after its last multiplier.
        a = max(0, b - g)
        slab = kept[a:b]
        full = last if b == K else s
        for r, cs in ((b - a, C[:full, :b - a]), (b - a - 1, C[full:, :b - a - 1])):
            p, o, d, u = slab[:r], off_g[:r], diag_g[:r], T[:r]
            for c in cs:
                div(o, p, c)
                mul(o, c, u)
                sub(d, u, p)
        for k in range(b - 1, a - 1, -1):
            seg = C[:last if k == K - 1 else s, k - a]
            for c, y in zip(seg[::-1], X[k * s + len(seg) - 1::-1]):
                mul(c, x, t)
                sub(y, t, y)
                x = y
    return X


@contextlib.contextmanager
def _pivot_errors():
    """Turn a zero pivot (a division by zero, or 0/0) into ``LinAlgError``."""
    try:
        with np.errstate(divide="raise", invalid="raise"):
            yield
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination") from exc


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

    Both branches rely on the uniform mesh: every row of A(mu) and of F is
    the same, so the system at mu is one diagonal K_d + mu*M_d, one
    off-diagonal K_o + mu*M_o and one load value.  One parameter runs the
    fused scalar loop (:func:`_thomas_fused`) on Python floats, 0.22-0.27
    us per mesh row, 0.65 times the two-pass kernels' time.  For a 1-D
    array of m parameters, one block solve (:func:`_thomas_equal_rows`)
    returns an (n, m) array whose column j is the solution at mu[j], with
    the bits of the one-parameter solve, holding no other (n, m) array and
    about 4.5 % of one more from n = 2000 up.  It makes about 6.6 ufunc
    calls a mesh row at n = 9999, 3.5-5.5 us at any width from 13 to 104
    parameters.  A mu of any other shape raises ``ValueError`` naming it.
    A coefficient that varies along the mesh would need runs of equal rows
    in both branches, one kernel call per run.  A zero pivot raises
    ``LinAlgError``.
    """
    scalar = np.ndim(mu) == 0
    if scalar:
        check_parameters(mu)
    mu = np.asarray(mu, dtype=float) if scalar else parameter_block(mu)
    with _pivot_errors():
        K, M = sys.K, sys.M
        diag = K.diag[0] + mu * M.diag[0]
        off = K.off[0] + mu * M.off[0] if sys.n > 1 else diag
        if scalar:
            return np.array(_thomas_fused(sys.n, float(diag), float(off), float(sys.F[0])))
        return _thomas_equal_rows(sys.n, diag, off, np.full_like(mu, sys.F[0]))


def h1_inner(sys: TruthSystem, u: np.ndarray, v: np.ndarray) -> float:
    """H1 inner product u^T * Gram * v."""
    if u.shape != v.shape or u.shape != (sys.n,):
        raise ValueError("vector shape does not match the truth space")
    return float(u @ sys.Gram.matvec(v))


def h1_norm(sys: TruthSystem, u: np.ndarray) -> float:
    return math.sqrt(max(h1_inner(sys, u, u), 0.0))


def riesz_representative(sys: TruthSystem, functional: np.ndarray) -> np.ndarray:
    """Riesz representative w = Gram^{-1} f, so h1_inner(w, v) = f^T v.

    Gram does not depend on mu, so only the two substitution sweeps run,
    on its Thomas factors from assembly (``sys.gram_thomas``): w has the
    bits of a solve that factors Gram again, at 1.9-2.4 ms against
    2.6-3.6 ms (N=9999, 2-vCPU Xeon).  f must be one (N,) functional; any
    other shape raises ``ValueError``.
    """
    if functional.shape != (sys.n,):
        raise ValueError(f"functional has shape {functional.shape}, expected ({sys.n},)")
    return np.array(_thomas_substitute(*sys.gram_thomas, functional.tolist()))


def _gram_substitute_block(sys: TruthSystem, rhs: np.ndarray) -> np.ndarray:
    """Overwrite the (N, m) rhs with Gram^{-1} rhs, and return it.

    :func:`riesz_representative`'s sweeps, one mesh row of all m columns
    per ufunc, so each column has its bits.  Five ufunc calls a row cost
    about the same at any m: 22-36 ms at N=9999, which beats one-by-one
    lifts from about 12-16 columns (2-vCPU Xeon).
    """
    off, cs, pivs = sys.gram_thomas
    div, mul, sub = np.divide, np.multiply, np.subtract
    t = np.empty(rhs.shape[1])
    x = rhs[0]
    div(x, pivs[0], x)
    for o, p, y in zip(off, pivs[1:], rhs[1:]):
        mul(o, x, t)
        sub(y, t, y)
        div(y, p, y)
        x = y
    for c, y in zip(reversed(cs), rhs[-2::-1]):
        mul(c, x, t)
        sub(y, t, y)
        x = y
    return rhs

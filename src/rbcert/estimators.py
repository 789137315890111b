"""Four evaluations of the residual-norm error estimator.

For a reduced solution u_hat = sum_i gamma_i u_i of the affine problem
a0(u,v) + mu*a1(u,v) = b(v), the dual norm of the residual satisfies

    E(mu) = beta^{-1} * || G00 + sum_I x_I G_I ||_H1,
    x_I = alpha_k(mu) * gamma_i(mu),   I = k*N_hat + i,

with G00 the (negated) Riesz lift of b and G_I the Riesz lifts of the
operator terms applied to the basis.  The four evaluators compute the
same number along different routes with very different round-off floors:

* ``estimator_e1`` - assembles the full-size residual representative and
  takes one norm.  Accurate (floor ~ delta*eps) but costs O(N*N_hat).
* ``estimator_e2`` - the compact offline/online form
  delta^2 + 2 s.x + x.S x, cost O(N_hat^2), whose cancellation floor is
  delta*sqrt(eps): the radicand is a difference of O(delta^2) quantities
  while the true value sits at E^2.
* ``estimator_e2_dd`` - the same compact form evaluated in double-double
  arithmetic, which pushes the floor down to ~ delta*eps^2/... in
  practice below E1's own floor.
* ``estimator_e3`` - cancellation-free form: the squared estimator is a
  linear form q.X(mu) in the monomial vector X(mu), so it can be
  interpolated from reference values V_i = (beta*E1(mu_i))^2.  X(mu)
  spans a space of dimension at most 2*N_hat + 3, not d, so the build
  picks r nodes and r rows of X on the numerical rank by pivoted
  Gram-Schmidt (Q-DEIM), and the online stage solves the r x r system
  T lambda = X(mu)[rows].  All summands are non-negative at the
  reference points, hence no cancellation.

There is one evaluation path: block kernels that take a block of
parameters with their reduced coefficients and run every operation
element by element across the block.  ``evaluate`` computes the true
error and all four estimators for a block; the greedy scan and the E3
build call the same kernels.  The per-point functions above, with
``true_error`` and ``x_vector``, are the kernels at a one-point block.

Offline data builders (``build_e2_data``, ``build_e3_data``) compute the
Gram-matrix inner products in double-double; the working-precision
estimator reads their correctly-rounded doubles.  It is only as good as
its offline data, and the interesting floors live in the online
evaluation, not in data-assembly noise.  E2's data are grown, not built in
one pass: an ``E2Table`` adds two Riesz vectors per snapshot, and the
greedy grows one alongside the basis.  ``build_e2_data`` is the same
growth run once over all of a model's vectors.  Every entry equals one
``h1_inner_dd`` call per pair bit for bit; that call stays as the
reference.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fem import TruthSystem, solve_truth
from .precision import dd_add, dd_mul, dd_sqrt, dd_sum, two_prod

logger = logging.getLogger(__name__)

# Entries per temporary of the loops that stream length-N stacks: e1's
# pairwise tree (N_hat + 2 vectors per point), the true error's lift and
# the E2 build's dd dots (one column per pair).  All must stay in cache.
# At N=9999, N_hat=12 this budget (6 columns) ran 200 e1 points in 43 ms
# against 71 ms point by point, and four times the budget took 66 ms; the
# E2 build took 320 ms, against 465 ms at 2**14, 660 ms at 2**18 and
# 683 ms at 2**20 entries (2-vCPU Xeon, one BLAS thread).
_CACHE_BLOCK_ELEMENTS = 2 ** 16


class EstimatorBuildError(RuntimeError):
    """Raised when interpolation data cannot be built (degenerate pool)."""


# --- E1: full-size reference ---------------------------------------------

def _pairwise_sum(n, term, first=0):
    """Balanced pairwise sum of term(first), ..., term(first + n - 1).

    The front half is summed, then the back half, then the two added.
    Terms are made only when the tree reaches them, so besides the term
    at hand only one partial sum per tree level is alive.
    """
    if n == 1:
        return term(first)
    half = n // 2
    return _pairwise_sum(half, term, first) + _pairwise_sum(n - half, term, first + half)


# --- double-double Gram inner product -------------------------------------

def _dd_gram_matvec(sys: TruthSystem, v: np.ndarray):
    """Gram*v in double-double, for a vector or each column of an (N, k) stack.

    Every entry is built from error-free products of the double inputs
    and two dd additions, element by element, so a column of a stack gets
    the bits the same vector gets alone.
    """
    G = sys.Gram
    col = (slice(None),) + (None,) * (v.ndim - 1)
    wh, wl = two_prod(G.diag[col], v)
    ah, al = two_prod(G.off[col], v[1:])
    bh, bl = two_prod(G.off[col], v[:-1])
    wh[:-1], wl[:-1] = dd_add((wh[:-1], wl[:-1]), (ah, al))
    wh[1:], wl[1:] = dd_add((wh[1:], wl[1:]), (bh, bl))
    return wh, wl


def _dd_dot(u: np.ndarray, w):
    """Sum of u*w over axis 0 in double-double, w = (hi, lo) as u is shaped.

    A 1-D u gives a (hi, lo) pair of floats; (N, m) stacks give the m
    column sums, each equal to its column's dot alone.
    """
    th, tl = dd_mul((u, np.zeros_like(u)), w)
    return dd_sum(th, tl)


def h1_inner_dd(sys: TruthSystem, u: np.ndarray, v: np.ndarray):
    """u^T * Gram * v in double-double; returns the (hi, lo) pair.

    All products are error-free transforms of the double inputs, and the
    final reduction is a pairwise double-double tree, so the result
    carries ~32 significant digits: effectively the exact value of the
    double-data inner product, to be rounded as the caller requires.
    """
    return _dd_dot(u, _dd_gram_matvec(sys, v))


# --- E2: compact offline/online form --------------------------------------

@dataclass(frozen=True)
class E2Data:
    """Offline data for the compact estimator.

    Index convention: I = k*N_hat + i with k in {0,1} and i in 0..N_hat-1
    (zero-based), i.e. the first N_hat slots belong to the a0 block and
    the next N_hat to the a1 block; x_I = alpha_k(mu)*gamma_i with
    alpha_0 = 1, alpha_1 = mu.

    Only the double-double pairs (`*_dd`) are stored: the double-double
    kernel reads them, and the working-precision kernel their
    correctly-rounded values ``delta``, ``s`` and ``S``, derived on access.
    """

    delta2_dd: tuple         # (hi, lo)
    s_dd: tuple              # (hi array, lo array), length 2*N_hat
    S_dd: tuple              # (hi matrix, lo matrix), 2*N_hat x 2*N_hat, symmetric PSD
    beta: float = 1.0

    @property
    def n_hat(self) -> int:
        return self.s_dd[0].size // 2

    @property
    def delta2(self) -> float:
        return self.delta2_dd[0] + self.delta2_dd[1]

    @property
    def delta(self) -> float:
        dh, dl = dd_sqrt(self.delta2_dd)
        return dh + dl

    @property
    def s(self) -> np.ndarray:
        return self.s_dd[0] + self.s_dd[1]

    @property
    def S(self) -> np.ndarray:
        return self.S_dd[0] + self.S_dd[1]


class E2Table:
    """E2's double-double Gram table, grown with the basis.

    Holds the Riesz vectors in insertion order (riesz_b, a0_0, a1_0, a0_1,
    a1_1, ...), the dd Gram matvec of each, and F[u, v] =
    :func:`h1_inner_dd` of vectors u and v, bit for bit, for every needed
    pair: (b, b), (b, r) and (r, r'); (r, b) is never used.  :meth:`grow`
    adds the vectors of the snapshots the table has not seen yet, so each
    new snapshot costs two dd Gram matvecs and the pairs that involve its
    two vectors.  Matvecs and pairs go in chunks of at most
    _CACHE_BLOCK_ELEMENTS entries per temporary.  The model must only grow
    between calls.
    """

    def __init__(self, sys: TruthSystem):
        self.sys = sys
        self.R: list[np.ndarray] = []
        self.Wh: list[np.ndarray] = []
        self.Wl: list[np.ndarray] = []
        self.Fh = np.zeros((0, 0))
        self.Fl = np.zeros((0, 0))

    def grow(self, model) -> E2Data:
        """Add the model's Riesz vectors the table lacks; return the model's E2Data."""
        new = [] if self.R else [model.riesz_b]
        for i in range(len(self.R) // 2, model.n_hat):  # len(R) = 1 + 2*N_hat
            new += [model.riesz_a0[i], model.riesz_a1[i]]
        if new:
            self._extend(new)
        return self._e2_data(model.beta)

    def _extend(self, vectors) -> None:
        k0, k = len(self.R), len(self.R) + len(vectors)
        step = max(1, _CACHE_BLOCK_ELEMENTS // self.sys.n)
        V = np.column_stack(vectors)
        for c in range(0, V.shape[1], step):
            wh, wl = _dd_gram_matvec(self.sys, V[:, c:c + step])
            self.Wh += list(wh.T)
            self.Wl += list(wl.T)
        self.R += vectors
        Fh = np.zeros((k, k))
        Fl = np.zeros((k, k))
        Fh[:k0, :k0], Fl[:k0, :k0] = self.Fh, self.Fl
        # The needed pairs (R[u[p]], R[v[p]]) that involve a new vector.
        u, v = np.divmod(np.arange(k * k), k)
        keep = ((u >= k0) | (v >= k0)) & ((u == 0) | (v > 0))
        u, v = u[keep], v[keep]
        for c in range(0, len(u), step):
            uc, vc = u[c:c + step], v[c:c + step]
            U = np.stack([self.R[p] for p in uc], axis=1)
            Wh = np.stack([self.Wh[q] for q in vc], axis=1)
            Wl = np.stack([self.Wl[q] for q in vc], axis=1)
            Fh[uc, vc], Fl[uc, vc] = _dd_dot(U, (Wh, Wl))
        self.Fh, self.Fl = Fh, Fl

    def _e2_data(self, beta: float) -> E2Data:
        # Insertion order to E2's layout I = k*N_hat + i, shifted by riesz_b.
        n = len(self.R) // 2
        perm = np.concatenate([[0], np.arange(1, 2 * n, 2), np.arange(2, 2 * n + 1, 2)])
        Fh, Fl = self.Fh[np.ix_(perm, perm)], self.Fl[np.ix_(perm, perm)]
        d2 = (float(Fh[0, 0]), float(Fl[0, 0]))
        sh, sl = Fh[0, 1:], Fl[0, 1:]
        Sh, Sl = Fh[1:, 1:], Fl[1:, 1:]
        # (S + S^T)/2 in dd; division by 2 is exact.
        Sh, Sl = dd_add((Sh, Sl), (Sh.T.copy(), Sl.T.copy()))
        return E2Data(delta2_dd=d2, s_dd=(sh, sl), S_dd=(0.5 * Sh, 0.5 * Sl), beta=beta)


def build_e2_data(sys: TruthSystem, model) -> E2Data:
    """Assemble delta^2, s, S in double-double from the stored Riesz vectors.

    One :class:`E2Table` grown from empty over all of the model's Riesz
    vectors, the same growth the greedy runs one snapshot at a time, so
    every entry is :func:`h1_inner_dd` of a pair of Riesz vectors, bit for
    bit.  S is symmetrized after assembly by averaging with its transpose
    (exact in dd: the half-scaling is error-free).  The plain-double fields
    are the rounded dd values, so the working-precision estimator starts
    from correctly-rounded data and its floor is purely an online effect.
    """
    return E2Table(sys).grow(model)


def x_dimension(n_hat: int) -> int:
    return 1 + 3 * n_hat + 2 * n_hat * n_hat


def _upper_coefficients(S: np.ndarray) -> np.ndarray:
    """Quadratic-form coefficients over the I <= J pairs, in triu order: S_II, 2*S_IJ."""
    i, j = np.triu_indices(len(S))
    return np.where(i == j, S[i, j], 2.0 * S[i, j])


def q_coefficients(data: E2Data) -> np.ndarray:
    """Coefficients q with radicand(mu) = q . X(mu).

    q_0 = delta^2; q over the linear slots = 2*s_I; q over the quadratic
    slots = S_II on the diagonal and 2*S_IJ for I < J.
    """
    return np.concatenate([[data.delta2], 2.0 * data.s, _upper_coefficients(data.S)])


# --- E3: cancellation-free interpolated form -------------------------------

# The numerical rank rule of the E3 build: the pivoted Gram-Schmidt on the
# pool's matrix of monomial vectors stops once the largest column norm left
# after projection is at most E3_RANK_TOL times the matrix's largest column
# norm.  Its rank is at most 2*N_hat + 3 in exact arithmetic; at 1e-12 the
# default raw basis keeps 20 nodes (N_hat = 6, d = 91) and the converged
# orthonormal one 17 (N_hat = 12, d = 325).
E3_RANK_TOL = 1e-12


@dataclass
class E3Data:
    """Interpolation data on the numerical rank r of the monomial map.

    T[k, i] = X(mu_i)[rows[k]] for the r nodes mu_i and the r row indices
    rows[k] of X; V_i = (beta*E1(mu_i))^2.  T is recomputable bit-for-bit
    from the nodes, the rows and the model (:func:`interpolation_matrix`),
    which is what makes exact node lookup possible, and why an artifact
    stores the nodes, the rows and V but not T.  ``cond_estimate`` is the
    condition number of the full d x pool matrix the nodes were picked
    from, a diagnostic only.
    """

    interp_params: np.ndarray     # r nodes mu_i
    rows: np.ndarray              # r distinct row indices into X, in [0, d)
    T: np.ndarray                 # r x r
    V: np.ndarray                 # length r
    d: int                        # dimension of X(mu)
    cond_estimate: float
    beta: float = 1.0

    @functools.cached_property
    def lu(self):
        """Partial-pivoting LU of T, factored on first use."""
        return _lu_factor(self.T)


def interpolation_matrix(model, mus: np.ndarray) -> np.ndarray:
    """The (d, m) matrix whose column r is X(mus[r]) of the model's reduced solve."""
    from .reduced import solve_reduced_block

    return x_matrix(mus, solve_reduced_block(model, mus))


def log_uniform_sampler(mu_min: float, mu_max: float):
    """Default interpolation-point sampler: uniform in log(mu), seeded."""
    lo, hi = math.log(mu_min), math.log(mu_max)

    def draw(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.exp(rng.uniform(lo, hi, size=n))

    return draw


def _pivoted_gram_schmidt(A: np.ndarray, rtol: float):
    """Column-pivoted Gram-Schmidt of A, orthogonalization run twice.

    Each step picks the column with the largest norm left after projecting
    out the columns picked so far, and the steps stop when that norm is at
    most rtol times A's largest column norm, or every column is picked.
    Returns the picked column indices in pick order and the orthonormal
    basis Q of their span, one column per pick.
    """
    R = np.array(A, dtype=float)
    Q = np.empty((A.shape[0], 0))
    picks: list[int] = []
    norms = np.sqrt((R * R).sum(axis=0))
    tol = rtol * norms.max()
    for _ in range(min(A.shape)):
        norms[picks] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        q = R[:, j]
        for _ in range(2):  # twice is enough
            q = q - Q @ (Q.T @ q)
        q = q / np.linalg.norm(q)
        Q = np.column_stack([Q, q])
        R -= np.outer(q, q @ R)
        picks.append(j)
        norms = np.sqrt((R * R).sum(axis=0))
    return picks, Q


def _lu_factor(A: np.ndarray):
    """Partial-pivoting LU, in place on a copy; returns (LU, piv)."""
    LU = A.astype(float, copy=True)
    n = LU.shape[0]
    piv = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(LU[k:, k])))
        if LU[p, k] == 0.0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot at column {k}")
        if p != k:
            LU[[k, p]] = LU[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        LU[k + 1:, k] /= LU[k, k]
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    if LU[n - 1, n - 1] == 0.0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot at column {n - 1}")
    return LU, piv


def _lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve with a (n,) or (n, m) right-hand side; columns independently."""
    LU, piv = lu
    n = LU.shape[0]
    x = b[piv].astype(float, copy=True)
    cols = x.reshape(n, -1)
    for k in range(n - 1):
        cols[k + 1:] -= LU[k + 1:, k, None] * cols[k]
    for k in range(n - 1, -1, -1):
        cols[k] /= LU[k, k]
        cols[:k] -= LU[:k, k, None] * cols[k]
    return x


def build_e3_data(
    sys: TruthSystem,
    model,
    sampler,
    seed: int,
    oversample: int = 0,
) -> E3Data:
    """Pick interpolation nodes and rows on the numerical rank of T.

    Draws a pool of d + oversample parameters via ``sampler(n, seed)``
    (deterministic given the seed) and forms the pool's d x (d +
    oversample) matrix of monomial vectors X(mu), whose condition number
    is kept as a diagnostic.  The monomial map traces a low-dimensional
    manifold (rank <= 2*N_hat + 3), so that number is astronomically large
    by construction.  Column-pivoted Gram-Schmidt on the pool's matrix
    picks the r nodes, stopping at :data:`E3_RANK_TOL`; pivoted
    Gram-Schmidt on the transposed orthonormal basis of their columns
    picks r rows of X (Q-DEIM).  V = (beta*E1)^2 is evaluated at the r
    nodes only.  A pool whose condition number is not finite (repeated
    parameters, non-finite monomials) raises :class:`EstimatorBuildError`.
    """
    from .reduced import solve_reduced_block

    d = x_dimension(model.n_hat)
    pool = np.asarray(sampler(d + oversample, seed), dtype=float)
    X = interpolation_matrix(model, pool)
    cond = float(np.linalg.cond(X))
    if not math.isfinite(cond):
        raise EstimatorBuildError(
            f"interpolation pool is degenerate (cond(T) = {cond}): repeated or non-finite X(mu)"
        )
    picks, Q = _pivoted_gram_schmidt(X, E3_RANK_TOL)
    rows, _ = _pivoted_gram_schmidt(Q.T, 0.0)
    nodes = pool[picks]
    gamma = solve_reduced_block(model, nodes)
    e1 = estimator_e1_block(sys, model, nodes, gamma)
    return E3Data(
        interp_params=nodes,
        rows=np.array(rows),
        T=x_matrix(nodes, gamma)[rows],
        V=np.array([(model.beta * e) ** 2 for e in e1.tolist()]),
        d=d,
        cond_estimate=cond,
        beta=model.beta,
    )


# --- block evaluation ------------------------------------------------------
#
# The functions below evaluate a block of parameters at once.  Each runs one
# point's operations element by element across the block, so a point gets
# the same bits alone as in any block.  Reductions that BLAS may order
# differently for a matrix than for a vector (the Gram and V dots, the basis
# lift) are made one vector at a time.

# Block sizes come from budgets of float64 entries per block temporary.
# evaluate: a block's truth solve holds two (N, m) arrays and its monomial
# vectors d entries per point, so at the paper's size (N=199, d=91) a block
# is 41 points and every temporary stays under 64 KiB, which the allocator
# reuses instead of growing the process.  The block Thomas solve costs
# about the same per mesh row at any width up to 100 points and only
# overtakes point-by-point scalar solves from about 13 points, hence a floor
# of 32 points.  Once a 32-point block outgrows the cache budget
# (max(N, d) > 2**11) that per-row cost dominates the sweep, so the budget
# becomes a fixed 2**19 entries (4 MiB) per (N, m) array: 52 points at
# N=9999, where a 100-point sweep takes 2 blocks.
_BLOCK_ELEMENTS = 2 ** 13
_SOLVE_ELEMENTS = 2 ** 19
_MIN_BLOCK_POINTS = 32


def block_points(n: int, d: int) -> int:
    """Points per :func:`evaluate` block for truth size n and X dimension d."""
    size = max(n, d)
    cached = size * _MIN_BLOCK_POINTS <= _CACHE_BLOCK_ELEMENTS
    return max(_MIN_BLOCK_POINTS, (_BLOCK_ELEMENTS if cached else _SOLVE_ELEMENTS) // size)


def _h1_squares(sys: TruthSystem, G: np.ndarray) -> np.ndarray:
    """h1_inner(g, g) for every row g of the (m, n) stack G."""
    W = sys.Gram.matvec(G)
    return np.array([g @ w for g, w in zip(G, W)])


def estimator_e1_block(sys: TruthSystem, model, mus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Residual dual norm via the full-size Riesz representative, at every mus[j].

    g = riesz_b + sum_i gamma_i*riesz_a0[i] + mu*sum_i gamma_i*riesz_a1[i]
    with gamma = gamma[j], accumulated with pairwise summation over the
    N_hat+2 vector terms (the mu-scaled group is itself pairwise-summed
    before scaling), then a single Gram quadratic form.  Cost O(N*N_hat)
    per point.  gamma is (m, N_hat); N_hat = 0 is the empty model.  The
    pairwise tree runs on (m, N) stacks, in sub-blocks of at most
    _CACHE_BLOCK_ELEMENTS.
    """
    step = max(1, _CACHE_BLOCK_ELEMENTS // sys.n)
    out = np.empty(len(mus))
    for k in range(0, len(mus), step):
        out[k:k + step] = _e1_rows(sys, model, mus[k:k + step], gamma[k:k + step])
    return out


def _e1_rows(sys, model, mus, gamma):
    n_hat = gamma.shape[1]
    a0, a1 = model.riesz_a0, model.riesz_a1

    def term(k):
        if k == 0:
            return model.riesz_b
        if k <= n_hat:
            return gamma[:, k - 1, None] * a0[k - 1]
        return mus[:, None] * _pairwise_sum(n_hat, lambda i: gamma[:, i, None] * a1[i])

    g = _pairwise_sum(n_hat + 2 if n_hat else 1, term)
    g = np.broadcast_to(g, (len(mus), sys.n))
    return np.sqrt(np.maximum(_h1_squares(sys, g), 0.0)) / model.beta


def _small_x_columns(mus, gamma):
    """Column j is x = (gamma[j]; mus[j]*gamma[j]), the a0 then the a1 block: shape (2*N_hat, m)."""
    return np.concatenate([gamma.T, mus * gamma.T])


def _monomials(x):
    """Column j is X(mu_j) for column j of the small-x matrix x."""
    i, j = np.triu_indices(len(x))
    return np.concatenate([np.ones((1, x.shape[1])), x, x[i] * x[j]])


def x_matrix(mus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The (d, m) matrix whose column j is X(mus[j]) = (1; x_I; x_I*x_J for I <= J,
    lexicographic) with x from (mus[j], gamma[j])."""
    return _monomials(_small_x_columns(mus, gamma))


def _e2_block(data: E2Data, X):
    """Compact-form estimator for the monomial columns X; returns (value, radicand).

    The radicand delta^2 + 2 s.x + x.S x is evaluated in working
    precision as the linear form q.X(mu): each product is a rounded
    double, and the products are totalled with exact (compensated)
    summation.  The round-off floor therefore comes from the product
    roundings - O(eps) relative to the O(delta^2) summands - which is
    exactly the cancellation effect under study; the signed radicand is
    returned raw because a negative value is data, not an error.
    """
    radicand = np.array(
        [math.fsum(col) for col in (q_coefficients(data)[:, None] * X).T.tolist()]
    )
    return np.sqrt(np.maximum(radicand, 0.0)) / data.beta, radicand


def _e2dd_block(data: E2Data, x):
    """Compact form in double-double for the small-x columns x; returns (value, clamped).

    The terms of :func:`_e2_block`, but every product and sum is a
    double-double operation on the dd offline data; x is promoted exactly
    (zero trailing part) and x_I*x_J is an exact product.  The result is
    rounded back to working precision.  A negative dd radicand is clamped
    to zero and flagged.
    """
    i, j = np.triu_indices(len(x))
    sh, sl = data.s_dd
    Sh, Sl = data.S_dd
    ch, cl = _upper_coefficients(Sh), _upper_coefficients(Sl)
    lh, ll = dd_mul(((2.0 * sh)[:, None], (2.0 * sl)[:, None]), (x, np.zeros_like(x)))
    th, tl = dd_mul((ch[:, None], cl[:, None]), two_prod(x[i], x[j]))
    d2h, d2l = data.delta2_dd
    first = np.ones((1, x.shape[1]))
    rh, rl = dd_sum(
        np.concatenate([d2h * first, lh, th]), np.concatenate([d2l * first, ll, tl])
    )
    clamped = (rh < 0.0) | ((rh == 0.0) & (rl < 0.0))
    if clamped.any():
        logger.info("estimator_e2_dd: %d negative dd radicands clamped", clamped.sum())
    vh, vl = dd_sqrt((np.where(clamped, 0.0, rh), np.where(clamped, 0.0, rl)))
    return np.where(clamped, 0.0, (vh + vl) / data.beta), clamped


def _e3_block(data: E3Data, mus, X):
    """Interpolated estimator at mus with monomial columns X; returns (value, clamped).

    At a stored node (bit-equal mu) the node's value by exact lookup,
    elsewhere lambda . V with T lambda = X(mu)[rows] solved by T's LU.  A
    negative interpolated square is clamped to zero and flagged.
    """
    hit = mus[:, None] == data.interp_params
    node = hit.any(axis=1)
    total = np.empty(len(mus))
    total[node] = data.V[hit[node].argmax(axis=1)]
    free = ~node
    if free.any():
        lam = _lu_solve(data.lu, X[np.ix_(data.rows, free)])
        total[free] = [row @ data.V for row in np.ascontiguousarray(lam.T)]
    clamped = total < 0.0
    if clamped.any():
        logger.info("estimator_e3: %d negative interpolated squares clamped", clamped.sum())
    return np.sqrt(np.maximum(total, 0.0)) / data.beta, clamped


def _true_error_block(sys, model, mus, gamma):
    """H1 distance between the truth solve and the lifted reduced solution
    at every mus[j]: one block truth solve, then the lift and the H1 norm in
    sub-blocks of _CACHE_BLOCK_ELEMENTS entries."""
    U = solve_truth(sys, mus)
    B = model.basis_matrix
    step = max(1, _CACHE_BLOCK_ELEMENTS // sys.n)
    out = np.empty(len(mus))
    for k in range(0, len(mus), step):
        E = np.ascontiguousarray(U[:, k:k + step].T)
        if model.n_hat:
            for e, g in zip(E, gamma[k:k + step]):
                e -= B @ g
        out[k:k + step] = np.sqrt(np.maximum(_h1_squares(sys, E), 0.0))
    return out


def evaluate(sys: TruthSystem, model, e2data: E2Data, e3data: E3Data, mus) -> dict:
    """True error and all four estimators at every parameter of a block.

    Returns one array per field of ``experiments.SweepRecord``, keyed by
    the field name; entry j is what the one-point views (:func:`true_error`,
    :func:`estimator_e1`, :func:`estimator_e2`, :func:`estimator_e2_dd`
    and :func:`estimator_e3`) give at mus[j], bit for bit.  A mu that is
    not finite or below 1 raises ``ValueError``.  The whole block is held
    at once; callers bound its size with :func:`block_points`.
    """
    from .reduced import solve_reduced_block

    mus = np.asarray(mus, dtype=float)
    gamma = solve_reduced_block(model, mus)
    x = _small_x_columns(mus, gamma)
    X = _monomials(x)
    e2, radicand = _e2_block(e2data, X)
    e3, e3_clamped = _e3_block(e3data, mus, X)
    return {
        "mu": mus,
        "true_error": _true_error_block(sys, model, mus, gamma),
        "e1": estimator_e1_block(sys, model, mus, gamma),
        "e2": e2,
        "e2_radicand": radicand,
        "e2dd": _e2dd_block(e2data, x)[0],
        "e3": e3,
        "e3_clamped_flag": e3_clamped.astype(int),
    }


# --- one-point views ---------------------------------------------------------
#
# The per-point API: each function runs its block kernel on the one-point
# block (np.array([sol.mu]), sol.gamma[None]) and unpacks the result.

def _one_point(sol, d: int | None = None):
    """The one-point block (mus, gamma) of the reduced solution sol.

    With d given, raises ``ValueError`` unless sol.gamma is a vector whose
    monomial vector X(mu) has dimension d, i.e. one coefficient per basis
    vector of the data the view reads.
    """
    gamma = np.asarray(sol.gamma, dtype=float)
    if d is not None and (gamma.ndim != 1 or x_dimension(gamma.size) != d):
        raise ValueError(
            f"sol.gamma of shape {gamma.shape} does not fit data whose X(mu) has dimension {d}"
        )
    return np.array([sol.mu], dtype=float), gamma[None]


def x_vector(sol) -> np.ndarray:
    """Monomial vector X(mu) = (1; x_I; x_I*x_J for I <= J, lexicographic)."""
    return x_matrix(*_one_point(sol))[:, 0]


def estimator_e1(sys: TruthSystem, model, sol) -> float:
    """Residual dual norm via the full-size Riesz representative (:func:`estimator_e1_block`)."""
    mus, gamma = _one_point(sol, x_dimension(model.n_hat))
    return float(estimator_e1_block(sys, model, mus, gamma)[0])


def estimator_e2(data: E2Data, sol):
    """Compact-form estimator (:func:`_e2_block`); returns (value, radicand)."""
    value, radicand = _e2_block(data, x_matrix(*_one_point(sol, x_dimension(data.n_hat))))
    return float(value[0]), float(radicand[0])


def estimator_e2_dd(data: E2Data, sol):
    """Compact form in double-double (:func:`_e2dd_block`); returns (value, clamped)."""
    x = _small_x_columns(*_one_point(sol, x_dimension(data.n_hat)))
    value, clamped = _e2dd_block(data, x)
    return float(value[0]), bool(clamped[0])


def estimator_e3(data: E3Data, sol):
    """Interpolated estimator (:func:`_e3_block`); returns (value, clamped)."""
    mus, gamma = _one_point(sol, data.d)
    value, clamped = _e3_block(data, mus, x_matrix(mus, gamma))
    return float(value[0]), bool(clamped[0])


def true_error(sys: TruthSystem, model, sol) -> float:
    """H1 distance between the truth solve and the lifted reduced solution."""
    mus, gamma = _one_point(sol, x_dimension(model.n_hat))
    return float(_true_error_block(sys, model, mus, gamma)[0])

"""Four evaluations of the residual-norm error estimator.

For a reduced solution u_hat = sum_i gamma_i u_i of the affine problem
a0(u,v) + mu*a1(u,v) = b(v), the dual norm of the residual satisfies

    E(mu) = || sum_I z_I G_I ||_H1,   z = (1; gamma; mu*gamma),

with G_0 the (negated) Riesz lift of b and G_{1+k*N_hat+i} the Riesz lift
of operator term k in {a0, a1} applied to basis vector i.  The H1 error
of u_hat is at most E/beta for a lower bound beta of the coercivity
constant, and beta = 1: a(v,v;mu) = v'Kv + mu*v'Mv >= v'(K+M)v =
||v||_H1^2 on mu >= 1, the domain ``fem.check_parameters`` enforces.  So
no estimator divides by beta, and the floors delta*eps/beta and
delta*sqrt(eps)/beta keep the paper's form.  Squared, E is one linear
form in d = 2*N_hat^2 + 3*N_hat + 1 monomials,

    E^2 = q . X(mu),   X = (z_I*z_J for I <= J, lexicographic),

with q = <G_I, G_I> on the diagonal and 2<G_I, G_J> off it.  X starts
with 1, then x = (gamma; mu*gamma), then the products x_I*x_J.  The four
estimators compute the same number along different routes with very
different round-off floors:

* e1 - assembles sum_I z_I G_I at full size and takes one norm.
  Accurate (floor ~ delta*eps) but costs O(N*N_hat).
* e2 - the compact offline/online form q.X(mu) in working precision,
  cost O(N_hat^2), whose cancellation floor is delta*sqrt(eps): the
  radicand is a difference of O(delta^2) quantities while the true
  value sits at E^2.
* e2dd - the same q.X(mu) with q in double-double and X as exact
  products, which pushes the floor down below E1's own.
* e3 - cancellation-free form: since the squared estimator is linear in
  X(mu), it can be interpolated from reference values V_i = E1(mu_i)^2.
  X(mu) spans a space of dimension at most 2*N_hat + 3, not d, so the
  build picks r nodes and r rows of X on the numerical rank by pivoted
  Gram-Schmidt (Q-DEIM), and the online stage solves the r x r system
  T lambda = X(mu)[rows].  All summands are non-negative at the
  reference points, hence no cancellation.

There is one evaluation path: block kernels that take a block of
parameters with their reduced coefficients and run every operation
element by element across the block.  The API is :func:`evaluate`, the
true error and all four estimators for a block of parameters, and
:func:`estimator_e1_block`, e1 alone for given reduced coefficients;
:func:`x_matrix` gives the monomial vectors.  The greedy scan and the E3
build call the same kernels, and a single parameter is a one-point
block.

E2's offline data are q itself, in double-double (:class:`E2Data`); the
working-precision estimator reads its correctly-rounded doubles.  It is
only as good as its offline data, and the interesting floors live in the
online evaluation, not in data-assembly noise.  q is grown, not built in
one pass: an ``E2Table`` adds two Riesz vectors per snapshot, and the
greedy grows one alongside the basis.  Every Gram entry is the dd Gram
matvec of one vector dotted in dd with the other.  Each growth makes one
call of each of the compiled kernels ``fem.dd_gram_matvec`` and
``fem.dd_dots``, which make the operations of :mod:`rbcert.precision` in
their order; the tests keep the per-pair computation with the numpy dd
kernels as the reference.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fem import TruthSystem, dd_dots, dd_gram_matvec, parameter_block, solve_truth
from .precision import dd_add, dd_mul, dd_sqrt, dd_sum, two_prod

logger = logging.getLogger(__name__)

# Entries per temporary of the loops that stream length-N stacks: e1's
# pairwise tree (N_hat + 2 vectors per point) and the true error's lift.
# Both must stay in cache.  At N=9999, N_hat=12 this budget (6 columns) ran
# 200 e1 points in 43 ms against 71 ms point by point, and four times the
# budget took 66 ms (2-vCPU Xeon, one BLAS thread).  Each loop writes into
# buffers of this size that it allocates once per call.  Allocating per
# operation is slow beside a large live array: glibc serves a request
# above its mmap threshold (128 KiB at start) with a fresh mmap, so fresh
# page faults, and raises the threshold only when it frees such a
# mapping.  While an 8 MB truth chunk is alive and nothing as large has
# been freed, every 480 KB temporary is mapped anew: the allocating e1
# over 100 points at N=9999 took 103 ms so, and 30 ms once the chunk was
# freed, as e1 on reused buffers takes either way.
_CACHE_BLOCK_ELEMENTS = 2 ** 16


class EstimatorBuildError(RuntimeError):
    """Raised when interpolation data cannot be built (degenerate pool)."""


# --- E1: full-size reference ---------------------------------------------

class _Workspace:
    """(k, N) views into (step, N) buffers, allocated on first use and reused.

    e1's pairwise tree, the true error's lift and their Gram quadratic
    forms take every temporary here and write it with ``out=``, so a call
    allocates each buffer once, however many steps it runs (see
    _CACHE_BLOCK_ELEMENTS for why that matters).
    """

    def __init__(self, step: int, n: int):
        self.step, self.n = step, n
        self._free: list[np.ndarray] = []

    def take(self, k: int) -> np.ndarray:
        """A (k, N) view, k <= step, of a free buffer."""
        buf = self._free.pop() if self._free else np.empty((self.step, self.n))
        return buf[:k]

    def give(self, *views) -> None:
        """Return the buffers of views taken earlier."""
        self._free += [v.base for v in views]


def _pairwise_sum(n, term, work, first=0):
    """Balanced pairwise sum of term(first), ..., term(first + n - 1), in place.

    term(k) returns its term in a buffer taken from work.  The front half
    is summed, then the back half, then the back added into the front and
    its buffer given back, so besides the term at hand only one partial
    sum per tree level is alive.  Returns the buffer holding the sum.
    """
    if n == 1:
        return term(first)
    half = n // 2
    front = _pairwise_sum(half, term, work, first)
    back = _pairwise_sum(n - half, term, work, first + half)
    np.add(front, back, front)
    work.give(back)
    return front


# --- E2: compact offline/online form --------------------------------------

@dataclass(frozen=True)
class E2Data:
    """Offline data for the compact estimator: q in double-double.

    q_dd = (hi, lo) holds two arrays of length d in the order of X(mu)
    (see :func:`x_matrix`): for each pair I <= J of indices of z = (1;
    gamma; mu*gamma), <G_I, G_I> on the diagonal and 2<G_I, G_J> off it.
    The double-double kernel reads the pairs, the working-precision kernel
    their correctly-rounded values (:func:`q_coefficients`).
    """

    q_dd: tuple              # (hi array, lo array), length d
    # The coercivity bound of the problem, not data: a(v,v;mu) >= ||v||_H1^2
    # on mu >= 1 (see the module docstring).  A class attribute, not a field.
    beta = 1.0

    @property
    def delta(self) -> float:
        """sqrt(q_0) = ||G_0||, rounded from double-double."""
        dh, dl = dd_sqrt((self.q_dd[0][0], self.q_dd[1][0]))
        return dh + dl


class E2Table:
    """E2's double-double Gram table, grown with the basis.

    Holds the Riesz vectors in insertion order (riesz_b, a0_0, a1_0, a0_1,
    a1_1, ...), the dd Gram matvec of each, and F[u, v] = u^T Gram v in
    double-double (u dotted with v's dd matvec), for every needed pair:
    (b, b), (b, r) and (r, r'); (r, b) is never computed.  :meth:`grow`
    adds the vectors of the snapshots the table has not seen yet: one
    ``dd_gram_matvec`` call forms their dd matvecs, and one ``dd_dots``
    call reduces every pair that involves one of them, on a scratch of 2N
    doubles.  The model must only grow between calls.  q is read off F in
    z's order: F_II on the diagonal and the dd sum F_IJ + F_JI off it,
    with (b, r) standing in for (r, b).
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
        return self._e2_data()

    def _extend(self, vectors) -> None:
        k0, k = len(self.R), len(self.R) + len(vectors)
        Wh, Wl = dd_gram_matvec(self.sys, vectors)
        self.R += vectors
        self.Wh += list(Wh)
        self.Wl += list(Wl)
        # The needed pairs (R[u], R[v]) that involve a new vector.
        u, v = np.divmod(np.arange(k * k), k)
        keep = ((u >= k0) | (v >= k0)) & ((u == 0) | (v > 0))
        u, v = u[keep], v[keep]
        Fh = np.zeros((k, k))
        Fl = np.zeros((k, k))
        Fh[:k0, :k0], Fl[:k0, :k0] = self.Fh, self.Fl
        Fh[u, v], Fl[u, v] = dd_dots(self.R, self.Wh, self.Wl, np.stack([u, v], axis=1))
        self.Fh, self.Fl = Fh, Fl

    def _e2_data(self) -> E2Data:
        # Insertion order to z's order: riesz_b, the a0 block, the a1 block.
        n = len(self.R) // 2
        perm = np.concatenate([[0], np.arange(1, 2 * n, 2), np.arange(2, 2 * n + 1, 2)])
        Fh, Fl = self.Fh[np.ix_(perm, perm)], self.Fl[np.ix_(perm, perm)]
        # (r, b) is never computed; the Gram table is symmetric.
        Fh[1:, 0], Fl[1:, 0] = Fh[0, 1:], Fl[0, 1:]
        i, j = np.triu_indices(len(perm))
        qh, ql = dd_add((Fh[i, j], Fl[i, j]), (Fh[j, i], Fl[j, i]))
        diag = i == j
        return E2Data(q_dd=(np.where(diag, Fh[i, j], qh), np.where(diag, Fl[i, j], ql)))


def x_dimension(n_hat: int) -> int:
    return 1 + 3 * n_hat + 2 * n_hat * n_hat


def q_coefficients(data: E2Data) -> np.ndarray:
    """Coefficients q with radicand(mu) = q . X(mu): the roundings of data.q_dd."""
    return data.q_dd[0] + data.q_dd[1]


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
    rows[k] of X; V_i = E1(mu_i)^2.  T and V are recomputable bit
    for bit from the nodes, the rows and the model (:func:`e3_data`), which
    is what makes exact node lookup possible, and why an artifact stores
    only the nodes and the rows.
    """

    interp_params: np.ndarray     # r nodes mu_i
    rows: np.ndarray              # r distinct row indices into X, in [0, d)
    T: np.ndarray                 # r x r
    V: np.ndarray                 # length r
    d: int                        # dimension of X(mu)

    @functools.cached_property
    def lu(self):
        """Partial-pivoting LU of T, factored on first use."""
        return _lu_factor(self.T)


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


def e3_data(sys: TruthSystem, model, nodes, rows) -> E3Data:
    """E3Data at the given nodes and rows of X: T = X(nodes)[rows], V = E1(nodes)^2.

    The build calls it with its picks, and loading an artifact with the
    stored ones, so both get the same bits.
    """
    from .reduced import solve_reduced_block

    nodes = np.asarray(nodes, dtype=float)
    rows = np.asarray(rows, dtype=int)
    gamma = solve_reduced_block(model, nodes)
    e1 = estimator_e1_block(sys, model, nodes, gamma)
    return E3Data(
        interp_params=nodes,
        rows=rows,
        T=x_matrix(nodes, gamma)[rows],
        V=np.array([e ** 2 for e in e1.tolist()]),
        d=x_dimension(model.n_hat),
    )


def build_e3_data(sys: TruthSystem, model, sampler, seed: int) -> E3Data:
    """Pick interpolation nodes and rows on the numerical rank of T.

    Draws a pool of d parameters via ``sampler(d, seed)`` (deterministic
    given the seed; a sampler that draws more enlarges the pool) and forms
    the pool's matrix of monomial vectors X(mu), one column per parameter.
    The monomial map traces a low-dimensional manifold (rank <= 2*N_hat +
    3), so that matrix is rank-deficient by construction.  Column-pivoted
    Gram-Schmidt on it picks the r nodes, stopping at :data:`E3_RANK_TOL`;
    pivoted Gram-Schmidt on the transposed orthonormal basis of their
    columns picks r rows of X (Q-DEIM).  :func:`e3_data` then forms T and
    V at the r nodes.  A pool that repeats a parameter raises
    :class:`EstimatorBuildError`.
    """
    from .reduced import solve_reduced_block

    d = x_dimension(model.n_hat)
    pool = np.asarray(sampler(d, seed), dtype=float)
    if len(set(pool.tolist())) != pool.size:
        raise EstimatorBuildError("interpolation pool is degenerate: it repeats a parameter")
    X = x_matrix(pool, solve_reduced_block(model, pool))
    picks, Q = _pivoted_gram_schmidt(X, E3_RANK_TOL)
    rows, _ = _pivoted_gram_schmidt(Q.T, 0.0)
    return e3_data(sys, model, pool[picks], rows)


# --- block evaluation ------------------------------------------------------
#
# The functions below evaluate a block of parameters at once.  Each runs one
# point's operations element by element across the block, and makes the
# reductions that BLAS may order differently for a matrix than for a vector
# (the Gram and V dots, the basis lift) one vector at a time.  So a point
# gets the same bits alone as in any block on the same machine with the
# same OpenBLAS kernel and numpy SIMD target.  That is the measured scope:
# under OpenBLAS's oldest x86 kernel (Prescott) block and point differ.

# Block sizes come from budgets of float64 entries per block temporary.
# evaluate solves the truth in chunks of _SOLVE_ELEMENTS // N parameters.
# The compiled block Thomas solve holds one (N, m) array, its solution,
# plus about 2*sqrt(N) rows.  Its cost per entry is flat from about 13
# columns up (4.7-5.5 ns at N=9999, against 34 ns for one column), so the
# chunk bounds memory only: 2**20 entries, 8 MiB, 5269 points at N=199 and
# 104 at N=9999, where a 100-point sweep is one solve.  A narrower
# chunk costs time elsewhere, since each chunk runs its own reduced solves
# and monomials: at N=9999, d=325, 2**17 entries cut the sweep's peak RSS
# from 49.1 to 44.6 MB but took its time from 56-63 to 71-72 ms, and 2**16
# to 80-82 ms (2-vCPU Xeon).  The true error's lift and e1 then stream the
# chunk's length-N stacks in steps, on one workspace (:func:`_n_length_work`).
# The d-length stages run on sub-blocks of
# _BLOCK_ELEMENTS // d points, whose monomial vectors (d entries per point)
# stay under 64 KiB, which the allocator reuses instead of growing the
# process: 90 points at the paper's size (d=91), 25 at d=325.
_BLOCK_ELEMENTS = 2 ** 13
_SOLVE_ELEMENTS = 2 ** 20


def _n_length_work(sys: TruthSystem, model, m: int) -> _Workspace:
    """The workspace of e1's tree and the lift for m points.

    Its steps take as many points as the cache budget allows, but no more
    than m, nor than a d-length sub-block, which bounds the buffers at
    small N (90 points of N=199 at d=91, not 329).
    """
    d = x_dimension(model.n_hat)
    step = min(m, _CACHE_BLOCK_ELEMENTS // sys.n, _BLOCK_ELEMENTS // d)
    return _Workspace(max(1, step), sys.n)


def _h1_norms(sys: TruthSystem, work: _Workspace, m: int, stack) -> np.ndarray:
    """The H1 norms of m vectors, work.step at a time.

    stack(rows) returns the (k, N) stack of the vectors at rows, in a
    buffer taken from work; its Gram quadratic forms run on two more.
    The matvec is ``Gram.matvec`` with ``out=``, and each form one dot.
    """
    out = np.empty(m)
    diag, off = sys.Gram.diag, sys.Gram.off
    mul, add = np.multiply, np.add
    for k in range(0, m, work.step):
        G = stack(slice(k, k + work.step))
        W, T = work.take(len(G)), work.take(len(G))
        mul(diag, G, W)
        mul(off, G[:, 1:], T[:, 1:])
        add(W[:, :-1], T[:, 1:], W[:, :-1])
        mul(off, G[:, :-1], T[:, 1:])
        add(W[:, 1:], T[:, 1:], W[:, 1:])
        out[k:k + len(G)] = [g @ w for g, w in zip(G, W)]
        work.give(G, W, T)
    return np.sqrt(np.maximum(out, 0.0))


def estimator_e1_block(sys: TruthSystem, model, mus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Residual dual norm via the full-size Riesz representative, at every mus[j].

    g = riesz_b + sum_i gamma_i*riesz_a0[i] + mu*sum_i gamma_i*riesz_a1[i]
    with gamma = gamma[j], accumulated with pairwise summation over the
    N_hat+2 vector terms (the mu-scaled group is itself pairwise-summed
    before scaling), then a single Gram quadratic form.  Cost O(N*N_hat)
    per point.  gamma is (m, N_hat), one row per point and one coefficient
    per basis vector, or ``ValueError`` is raised, as it is for the empty
    model.  The pairwise tree runs on (k, N) stacks of at most
    _CACHE_BLOCK_ELEMENTS entries, on buffers allocated once per call.
    """
    if model.n_hat < 1:
        raise ValueError("reduced model is empty")
    if np.shape(gamma) != (len(mus), model.n_hat):
        raise ValueError(
            f"gamma of shape {np.shape(gamma)} does not fit {len(mus)} points "
            f"on a basis of {model.n_hat}"
        )
    return _e1_norms(sys, model, mus, gamma, _n_length_work(sys, model, len(mus)))


def _e1_norms(sys, model, mus, gamma, work):
    n_hat = model.n_hat
    a0, a1 = model.riesz_a0, model.riesz_a1

    def stack(rows):
        mu, ga = mus[rows], gamma[rows]

        def scaled(a, i):
            return np.multiply(ga[:, i, None], a[i], work.take(len(ga)))

        # The mu-scaled group first, so its tree is not alive beside the
        # outer one's.  No bit changes: every node still adds the same
        # front and back sums.
        group = _pairwise_sum(n_hat, lambda i: scaled(a1, i), work)
        np.multiply(mu[:, None], group, group)

        def term(k):
            if k == 0:
                b = work.take(len(ga))
                b[:] = model.riesz_b
                return b
            return scaled(a0, k - 1) if k <= n_hat else group

        return _pairwise_sum(n_hat + 2, term, work)

    return _h1_norms(sys, work, len(mus), stack)


def _monomial_factors(mus, gamma):
    """The factor rows (z_I, z_J), I <= J in lexicographic order, of X at every mus[j].

    Column j of z is (1; gamma[j]; mus[j]*gamma[j]); both results are
    (d, m), and their product is :func:`x_matrix`.
    """
    z = np.concatenate([np.ones((1, len(mus))), gamma.T, mus * gamma.T])
    i, j = np.triu_indices(len(z))
    return z[i], z[j]


def x_matrix(mus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The (d, m) matrix whose column j is X(mus[j]) = (1; x_I; x_I*x_J for I <= J,
    lexicographic) with x = (gamma[j]; mus[j]*gamma[j])."""
    zi, zj = _monomial_factors(mus, gamma)
    return zi * zj


def _e2_block(data: E2Data, X):
    """Compact-form estimator for the monomial columns X; returns (value, radicand).

    The radicand q.X(mu) is evaluated in working precision: each product
    is a rounded double, and the products are totalled with exact
    (compensated) summation.  The round-off floor therefore comes from the
    product roundings - O(eps) relative to the O(delta^2) summands - which
    is exactly the cancellation effect under study; the signed radicand is
    returned raw because a negative value is data, not an error.
    """
    radicand = np.array(
        [math.fsum(col) for col in (q_coefficients(data)[:, None] * X).T.tolist()]
    )
    return np.sqrt(np.maximum(radicand, 0.0)), radicand


def _e2dd_block(data: E2Data, XX):
    """Compact form in double-double; returns (value, clamped).

    XX = (hi, lo) are the monomial columns as exact products, ``two_prod``
    of :func:`_monomial_factors`.  Each q_p*X_p and the sum over the d
    monomials are double-double operations on q_dd; the result is rounded
    back to working precision.  A negative dd radicand is clamped to zero
    and flagged.
    """
    qh, ql = data.q_dd
    rh, rl = dd_sum(*dd_mul((qh[:, None], ql[:, None]), XX))
    clamped = (rh < 0.0) | ((rh == 0.0) & (rl < 0.0))
    if clamped.any():
        logger.info("e2dd: %d negative dd radicands clamped", clamped.sum())
    vh, vl = dd_sqrt((np.where(clamped, 0.0, rh), np.where(clamped, 0.0, rl)))
    return np.where(clamped, 0.0, vh + vl), clamped


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
        logger.info("e3: %d negative interpolated squares clamped", clamped.sum())
    return np.sqrt(np.maximum(total, 0.0)), clamped


def _true_error_block(sys, B, U, gamma, work):
    """H1 distance between each truth solution U[:, j] and the basis matrix B
    times gamma[j]; the lift B @ gamma[j] is one matrix-vector product per
    point, into a row allocated once per call."""
    lift = np.empty(sys.n)

    def stack(rows):
        E = work.take(len(gamma[rows]))
        np.copyto(E, U[:, rows].T)
        for e, g in zip(E, gamma[rows]):
            np.matmul(B, g, out=lift)
            np.subtract(e, lift, e)
        return E

    return _h1_norms(sys, work, len(gamma), stack)


def evaluate(sys: TruthSystem, model, e2data: E2Data, e3data: E3Data, mus) -> dict:
    """True error and all four estimators at every parameter of a block.

    Returns one array per field of ``experiments.SweepRecord``, keyed by
    the field name.  Entry j has the same bits in any block that holds
    mus[j], so the one-point block ``evaluate(..., [mu])`` is the per-point
    evaluation.  A mu that is not finite or below 1, or a block that is not
    1-D, raises ``ValueError``.  A block of any size runs in bounded
    working memory.  It is taken in chunks of _SOLVE_ELEMENTS // N points,
    each with one reduced solve and one truth solve, whose (N, m) solution
    is the only chunk-sized array.  The true error's lift and then e1 stream the chunk
    in steps of at most _CACHE_BLOCK_ELEMENTS entries, on buffers
    allocated once per call, and the solution is released before e1.  The
    monomials, e2, e2dd and e3 run on sub-blocks of the chunk of
    _BLOCK_ELEMENTS entries per monomial array.
    """
    from .reduced import solve_reduced_block

    mus = parameter_block(mus)
    names = ("true_error", "e1", "e2", "e2_radicand", "e2dd", "e3")
    cols = {name: np.empty(mus.size) for name in names}
    cols["e3_clamped_flag"] = np.empty(mus.size, dtype=int)
    chunk = max(1, _SOLVE_ELEMENTS // sys.n)
    step = max(1, _BLOCK_ELEMENTS // e3data.d)
    work = _n_length_work(sys, model, min(chunk, mus.size))
    for c in range(0, mus.size, chunk):
        m = mus[c:c + chunk]
        gamma = solve_reduced_block(model, m)
        U = solve_truth(sys, m)
        cols["true_error"][c:c + len(m)] = _true_error_block(sys, model.basis_matrix, U, gamma, work)
        del U  # not alive beside e1's tree or the next chunk's solve
        cols["e1"][c:c + len(m)] = _e1_norms(sys, model, m, gamma, work)
        for k in range(0, len(m), step):
            part = slice(c + k, c + min(k + step, len(m)))
            XX = two_prod(*_monomial_factors(m[k:k + step], gamma[k:k + step]))
            cols["e2"][part], cols["e2_radicand"][part] = _e2_block(e2data, XX[0])
            cols["e3"][part], cols["e3_clamped_flag"][part] = _e3_block(e3data, m[k:k + step], XX[0])
            cols["e2dd"][part] = _e2dd_block(e2data, XX)[0]
    return {"mu": mus, **cols}

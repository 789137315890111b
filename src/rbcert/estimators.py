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
greedy grows one alongside the basis.  ``build_e2_data`` is the same
growth run once over all of a model's vectors.  Every Gram entry equals
one ``h1_inner_dd`` call per pair bit for bit; that call stays as the
reference.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fem import TruthSystem, solve_truth
from .precision import SPLITTER, dd_add, dd_mul, dd_sqrt, dd_sum, dd_sum_into, two_prod

logger = logging.getLogger(__name__)

# Entries per temporary of the loops that stream length-N stacks: e1's
# pairwise tree (N_hat + 2 vectors per point), the true error's lift and
# the E2 build's dd dots (one column per pair, on seven reused buffers of
# this size).  All must stay in cache.  At N=9999, N_hat=12 this budget
# (6 columns) ran 200 e1 points in 43 ms against 71 ms point by point, and
# four times the budget took 66 ms; a whole E2 build took 194 ms, against
# 257 ms at 2**14 (one pair per chunk), 311 ms at 2**18 and 397 ms at
# 2**20 entries, and 320 ms with the former allocating dd kernels (2-vCPU
# Xeon, one BLAS thread).
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
    """Gram*v in double-double, for a vector or each row of a (k, N) stack.

    Every entry is built from error-free products of the double inputs
    and two dd additions, element by element, so a row of a stack gets
    the bits the same vector gets alone.
    """
    G = sys.Gram
    wh, wl = two_prod(G.diag, v)
    ah, al = two_prod(G.off, v[..., 1:])
    bh, bl = two_prod(G.off, v[..., :-1])
    wh[..., :-1], wl[..., :-1] = dd_add((wh[..., :-1], wl[..., :-1]), (ah, al))
    wh[..., 1:], wl[..., 1:] = dd_add((wh[..., 1:], wl[..., 1:]), (bh, bl))
    return wh, wl


def _dd_dots(us, whs, wls, buf):
    """sum_i u_i*(wh_i + wl_i) in double-double for every column j = (us[j], whs[j], wls[j]).

    The dot of the double u with the dd w = (wh, wl) is ``dd_mul((u, 0),
    w)`` then :func:`precision.dd_sum`, run in place: the same operations
    in the same order (the zero low part's 0*wh included, for the sign of
    a zero), so each column's (hi, lo) equals that route's bit for bit.
    buf holds seven flat float arrays of at least N*m entries, reused from
    call to call: the operands are gathered into (N, m) views of them, one
    call each, and no other array is allocated.  Each vector is still
    Dekker-split again for every pair it enters.  Returns views into buf
    holding the m sums.
    """
    n, m = us[0].shape[0], len(us)
    U, Wh, Wl, P, E, T1, T2 = (b[: n * m].reshape(n, m) for b in buf)
    np.stack(us, axis=1, out=U)
    np.stack(whs, axis=1, out=Wh)
    np.stack(wls, axis=1, out=Wl)
    mul, add, sub = np.multiply, np.add, np.subtract
    mul(U, Wl, Wl)           # dd_mul's cross term u*wl + 0*wh
    mul(0.0, Wh, P)
    add(Wl, P, Wl)
    mul(U, Wh, P)            # two_prod(u, wh) = (P, E)
    mul(SPLITTER, U, T1)     # split(u) = (T1, U)
    sub(T1, U, E)
    sub(T1, E, T1)
    sub(U, T1, U)
    mul(SPLITTER, Wh, T2)    # split(wh) = (T2, Wh)
    sub(T2, Wh, E)
    sub(T2, E, T2)
    sub(Wh, T2, Wh)
    mul(T1, T2, E)           # ((uh*wh_h - p) + uh*wh_l + ul*wh_h) + ul*wh_l
    sub(E, P, E)
    mul(T1, Wh, T1)
    add(E, T1, E)
    mul(U, T2, T2)
    add(E, T2, E)
    mul(U, Wh, U)
    add(E, U, E)
    add(E, Wl, E)            # + the cross term
    add(P, E, U)             # quick_two_sum(p, e) = (U, E)
    sub(U, P, P)
    sub(E, P, E)
    return dd_sum_into(U, E, buf[1:4] + buf[5:6])


def h1_inner_dd(sys: TruthSystem, u: np.ndarray, v: np.ndarray):
    """u^T * Gram * v in double-double; returns the (hi, lo) pair.

    All products are error-free transforms of the double inputs, and the
    final reduction is a pairwise double-double tree, so the result
    carries ~32 significant digits: effectively the exact value of the
    double-data inner product, to be rounded as the caller requires.
    """
    wh, wl = _dd_gram_matvec(sys, v)
    h, l = _dd_dots([u], [wh], [wl], [np.empty(sys.n) for _ in range(7)])
    return float(h[0]), float(l[0])


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
    a1_1, ...), the dd Gram matvec of each, and F[u, v] =
    :func:`h1_inner_dd` of vectors u and v, bit for bit, for every needed
    pair: (b, b), (b, r) and (r, r'); (r, b) is never computed.  :meth:`grow`
    adds the vectors of the snapshots the table has not seen yet, so each
    new snapshot costs two dd Gram matvecs and the pairs that involve its
    two vectors.  Matvecs and pairs go in chunks of at most
    _CACHE_BLOCK_ELEMENTS entries per temporary, the budget as it is at
    each growth; the pairs run in place on seven buffers that each growth
    allocates once (:func:`_dd_dots`).  The model must only grow
    between calls.  q is read off F in z's order: F_II on the diagonal and
    the dd sum F_IJ + F_JI off it, with (b, r) standing in for (r, b).
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
        step = max(1, _CACHE_BLOCK_ELEMENTS // self.sys.n)
        for c in range(0, len(vectors), step):
            wh, wl = _dd_gram_matvec(self.sys, np.array(vectors[c:c + step]))
            self.Wh += list(wh)
            self.Wl += list(wl)
        self.R += vectors
        Fh = np.zeros((k, k))
        Fl = np.zeros((k, k))
        Fh[:k0, :k0], Fl[:k0, :k0] = self.Fh, self.Fl
        # The needed pairs (R[u[p]], R[v[p]]) that involve a new vector.
        u, v = np.divmod(np.arange(k * k), k)
        keep = ((u >= k0) | (v >= k0)) & ((u == 0) | (v > 0))
        u, v = u[keep], v[keep]
        buf = [np.empty(self.sys.n * min(step, len(u))) for _ in range(7)]
        for c in range(0, len(u), step):
            uc, vc = u[c:c + step], v[c:c + step]
            Fh[uc, vc], Fl[uc, vc] = _dd_dots(
                [self.R[p] for p in uc], [self.Wh[q] for q in vc], [self.Wl[q] for q in vc], buf
            )
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


def build_e2_data(sys: TruthSystem, model) -> E2Data:
    """Assemble q in double-double from the stored Riesz vectors.

    One :class:`E2Table` grown from empty over all of the model's Riesz
    vectors, the same growth the greedy runs one snapshot at a time, so
    every Gram entry is :func:`h1_inner_dd` of a pair of Riesz vectors, bit
    for bit.  An off-diagonal q is the dd sum of the pair's two entries.
    The working-precision estimator reads q's rounded dd values, so it
    starts from correctly-rounded data and its floor is purely an online
    effect.
    """
    return E2Table(sys).grow(model)


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
    d = x_dimension(model.n_hat)
    pool = np.asarray(sampler(d, seed), dtype=float)
    if len(set(pool.tolist())) != pool.size:
        raise EstimatorBuildError("interpolation pool is degenerate: it repeats a parameter")
    X = interpolation_matrix(model, pool)
    picks, Q = _pivoted_gram_schmidt(X, E3_RANK_TOL)
    rows, _ = _pivoted_gram_schmidt(Q.T, 0.0)
    return e3_data(sys, model, pool[picks], rows)


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
    per point.  gamma is (m, N_hat), one row per point and one coefficient
    per basis vector, or ``ValueError`` is raised; N_hat = 0 is the empty
    model.  The pairwise tree runs on (m, N) stacks, in sub-blocks of at
    most _CACHE_BLOCK_ELEMENTS.
    """
    if np.shape(gamma) != (len(mus), model.n_hat):
        raise ValueError(
            f"gamma of shape {np.shape(gamma)} does not fit {len(mus)} points "
            f"on a basis of {model.n_hat}"
        )
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
    return np.sqrt(np.maximum(_h1_squares(sys, g), 0.0))


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
    the field name.  Entry j has the same bits in any block that holds
    mus[j], so the one-point block ``evaluate(..., [mu])`` is the per-point
    evaluation.  A mu that is not finite or below 1 raises
    ``ValueError``.  The whole block is held at once; callers bound its
    size with :func:`block_points`.
    """
    from .reduced import solve_reduced_block

    mus = np.asarray(mus, dtype=float)
    gamma = solve_reduced_block(model, mus)
    XX = two_prod(*_monomial_factors(mus, gamma))
    e2, radicand = _e2_block(e2data, XX[0])
    e3, e3_clamped = _e3_block(e3data, mus, XX[0])
    return {
        "mu": mus,
        "true_error": _true_error_block(sys, model, mus, gamma),
        "e1": estimator_e1_block(sys, model, mus, gamma),
        "e2": e2,
        "e2_radicand": radicand,
        "e2dd": _e2dd_block(e2data, XX)[0],
        "e3": e3,
        "e3_clamped_flag": e3_clamped.astype(int),
    }

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
greedy grows one alongside the basis, from the empty model, whose q_0
gives the greedy its delta.  Each Gram pair is computed once, as the dd
Gram product of the later inserted vector dotted in dd with the earlier
one, and q_IJ off the diagonal is exactly twice it.

Every stage past the reduced solve runs in the compiled kernels of
:mod:`rbcert.fem`: E2's growth (``dd_gram_table``), e1 and the true error
(``lift_norms``, each from its lift's first term to its norm's last sum),
and, from z with the monomials formed in the kernel, e2dd's radicands and
their square roots (``dd_radicands``), e2's radicands (``fsum_columns``)
and e3's interpolated squares (``lu_solve_dots``).  e1 is the norm of the
lift sum_I z_I G_I with the rows of z that the monomials multiply, and the
true error that of U less the lift sum_k gamma_k u_k.  Each kernel makes
the operations of the numpy reference the tests keep for it, in their
order, so its bits: the per-pair dd inner product, the dd sum and square
root, the lift adding its vectors in order, a dot summed in eight lanes in
an order fixed by N, and T's LU solve with its dot with V summed left to
right.  The kernels' C source is the package's only double-double
arithmetic; the numpy dd operations are the tests' reference for it.
e2's radicands are correctly rounded sums, so they have the bits of
``math.fsum``, the tests' reference: the kernel sums by Sum3 with a
certificate of correct rounding, and leaves the column it cannot certify
to ``math.fsum``.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fem import TruthSystem, dd_gram_table, dd_radicands, fsum_columns, lift_norms
from .fem import lu_solve_dots, parameter_block, solve_truth

logger = logging.getLogger(__name__)


class EstimatorBuildError(RuntimeError):
    """Raised when interpolation data cannot be built (degenerate pool)."""


# --- E2: compact offline/online form --------------------------------------

@dataclass(frozen=True)
class E2Data:
    """Offline data for the compact estimator: q in double-double.

    q_dd = (hi, lo) holds two arrays of length d in the order of X(mu)
    (see :func:`x_matrix`): for each pair I <= J of indices of z = (1;
    gamma; mu*gamma), <G_I, G_I> on the diagonal and 2<G_I, G_J> off it,
    each pair's dd inner product computed once (:class:`E2Table`) and
    doubled exactly off the diagonal.  The double-double kernel reads the
    pairs, the working-precision kernel their correctly-rounded values
    (:func:`q_coefficients`).  :attr:`delta` is the one delta of the
    pipeline: the greedy's first e1 and the scale of the floors.
    """

    q_dd: tuple              # (hi array, lo array), length d
    # The coercivity bound of the problem, not data: a(v,v;mu) >= ||v||_H1^2
    # on mu >= 1 (see the module docstring).  A class attribute, not a field.
    beta = 1.0

    @property
    def delta(self) -> float:
        """sqrt(q_0) = ||G_0||, rounded from double-double: e2dd's kernel on
        q_0 alone at z = 1, whose one term dd_mul(q_0, two_prod(1, 1)) is
        q_0 itself."""
        q0 = (self.q_dd[0][:1], self.q_dd[1][:1])
        return float(dd_radicands(q0, np.ones((1, 1)))[0][2, 0])


class E2Table:
    """E2's double-double Gram table, grown with the basis.

    Holds the Riesz vectors R in insertion order (riesz_b, a0_0, a1_0,
    a0_1, a1_1, ...) and, for each pair, F = u^T Gram v in double-double,
    v the later of the two: a (2, k(k+1)/2) array of hi and lo parts, the
    pair (R[j], R[i]), i <= j, at column j(j+1)/2 + i.  :meth:`grow` adds
    the vectors of the snapshots the table has not seen yet in one
    ``dd_gram_table`` call, which forms each new vector's dd Gram product
    once and dots it with the vector and every one before it.  The model
    must only grow between calls.  q is read off F in z's order: F on the
    diagonal and exactly 2*F off it.
    """

    def __init__(self, sys: TruthSystem):
        self.sys = sys
        self.R: list[np.ndarray] = []
        self.F = np.zeros((2, 0))

    def grow(self, model) -> E2Data:
        """Add the model's Riesz vectors the table lacks; return the model's E2Data."""
        k0 = len(self.R)
        if not self.R:
            self.R.append(model.riesz_b)
        for i in range(k0 // 2, model.n_hat):  # len(R) = 1 + 2*N_hat
            self.R += [model.riesz_a0[i], model.riesz_a1[i]]
        if len(self.R) > k0:
            self.F = np.concatenate([self.F, dd_gram_table(self.sys, self.R, k0)], axis=1)
        # z's order, riesz_b, the a0 block, the a1 block, to insertion order.
        n = len(self.R) // 2
        perm = np.concatenate([[0], np.arange(1, 2 * n, 2), np.arange(2, 2 * n + 1, 2)])
        i, j = np.triu_indices(len(perm))
        late, early = np.maximum(perm[i], perm[j]), np.minimum(perm[i], perm[j])
        pair, scale = late * (late + 1) // 2 + early, np.where(i == j, 1.0, 2.0)
        return E2Data(q_dd=(scale * self.F[0, pair], scale * self.F[1, pair]))


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


def e3_data(sys: TruthSystem, model, nodes, rows) -> E3Data:
    """E3Data at the given nodes and rows of X: T = X(nodes)[rows], V = E1(nodes)^2.

    The build calls it with its picks, and loading an artifact with the
    stored ones, so both get the same bits.
    """
    from .reduced import solve_reduced_block

    nodes = np.asarray(nodes, dtype=float)
    rows = np.asarray(rows, dtype=int)
    gamma = solve_reduced_block(model, nodes)
    e1 = _e1_block(sys, model, _z_rows(nodes, gamma))
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
# point's operations element by element across the block, in an order that
# does not depend on the block.  e1 and the true error are compiled from
# their lifts' first terms to the norms' last sums (fem.lift_norms), and
# e2, e2dd and e3 from z's entries to their last sums (fem.fsum_columns,
# fem.dd_radicands, fem.lu_solve_dots), so their bits depend neither on the
# block nor on the host.  The reduced solves (LAPACK) run one matrix's
# operations per point; their bits hold on one machine with one OpenBLAS
# kernel and numpy SIMD target.  That is the measured scope.  Under
# OpenBLAS's oldest x86 kernel (Prescott), ddot's result depends on the
# 16-byte phase of its second operand, which the rows of a (step, N) buffer
# used to alternate at odd N: block and point differed there until the
# norms left BLAS.

# evaluate solves the truth in chunks of _SOLVE_ELEMENTS // N parameters:
# the compiled block Thomas solve holds one (N, m) array, its solution,
# and costs the same per entry from about 13 columns up, so the chunk
# bounds memory only (8 MiB; 5269 points at N=199, 104 at N=9999).  A
# narrower chunk runs more reduced solves: at N=9999, d=325, 2**17 entries
# cut the sweep's peak RSS from 49.1 to 44.6 MB and cost it 15-25 % of its
# time.  z is formed once a chunk, and every other stage takes the chunk's
# z in one kernel call, on scratch that does not grow with the chunk: a few
# doubles a point for the norms, and passes of fem._BLOCK_ELEMENTS for the
# dd sums and e3's solves.
_SOLVE_ELEMENTS = 2 ** 20


def estimator_e1_block(sys: TruthSystem, model, mus, gamma: np.ndarray) -> np.ndarray:
    """Residual dual norm via the full-size Riesz representative, at every mus[j].

    g = riesz_b + sum_i gamma_i*riesz_a0[i] + sum_i mu*gamma_i*riesz_a1[i]
    with gamma = gamma[j]: the lift of the Riesz vectors with z's column j
    (:func:`_z_rows`), its terms added in that order, then g.Gram*g summed
    in a fixed order, all in :func:`fem.lift_norms`.  Cost O(N*N_hat) per
    point.  mus is a 1-D block of parameters in [1, inf) and gamma (m,
    N_hat), one row per point and one coefficient per basis vector, or
    ``ValueError`` is raised, as it is for the empty model.
    """
    if model.n_hat < 1:
        raise ValueError("reduced model is empty")
    mus = parameter_block(mus)
    if np.shape(gamma) != (len(mus), model.n_hat):
        raise ValueError(f"gamma of shape {np.shape(gamma)} does not fit {len(mus)} points "
                         f"on a basis of {model.n_hat}")
    return _e1_block(sys, model, _z_rows(mus, np.asarray(gamma, dtype=float)))


def _e1_block(sys: TruthSystem, model, z):
    """e1 at every column of z: the norm of the lift of [riesz_b, *riesz_a0, *riesz_a1]."""
    return lift_norms(sys, [model.riesz_b, *model.riesz_a0, *model.riesz_a1], z)


def _z_rows(mus, gamma):
    """z = (1; gamma[j]; mus[j]*gamma[j]) at every mus[j]: a (2*N_hat + 1, m)
    array with one row per Riesz vector, in the order riesz_b, riesz_a0,
    riesz_a1.  e1 lifts with it, and the monomials are products of its rows."""
    gamma_t = np.ascontiguousarray(np.transpose(gamma))
    return np.concatenate([np.ones((1, len(mus))), gamma_t, mus * gamma_t])


def x_matrix(mus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The (d, m) matrix whose column j is X(mus[j]) = (1; x_I; x_I*x_J for I <= J,
    lexicographic) with x = (gamma[j]; mus[j]*gamma[j]): the products z_I*z_J
    of the rows of z (:func:`_z_rows`) over the pairs I <= J.  The online
    kernels form these products themselves, from z."""
    z = _z_rows(mus, gamma)
    i, j = np.triu_indices(len(z))
    X = z[i]
    X *= z[j]
    return X


def _e2_block(q, z):
    """Compact-form estimator for the coefficients q (:func:`q_coefficients`)
    at every column of z (:func:`_z_rows`); returns (value, radicand).

    The radicand q.X(mu) is evaluated in working precision: each monomial
    and each product with q is a rounded double, and the radicand is the
    correctly rounded sum of the rounded products (:func:`fem.fsum_columns`:
    a three-fold compensated sum, certified correctly rounded, so
    ``math.fsum``'s bits).  The round-off floor therefore comes from the
    product roundings - O(eps) relative to the O(delta^2) summands - which
    is exactly the cancellation effect under study; the signed radicand is
    returned raw because a negative value is data, not an error.
    """
    radicand = fsum_columns(q, z)
    return np.sqrt(np.maximum(radicand, 0.0)), radicand


def _e2dd_block(data: E2Data, z):
    """Compact form in double-double at every column of z (:func:`_z_rows`);
    returns (value, clamps).

    Each q_p*X_p, X_p = z_I*z_J the exact product of its factors, the sum
    over the d monomials and the square root are dd operations on q_dd
    (:func:`fem.dd_radicands`), rounded back to working precision.  A
    negative dd radicand is clamped to zero and counted in clamps.
    """
    out, clamps = dd_radicands(data.q_dd, z)
    if clamps:
        logger.info("e2dd: %d negative dd radicands clamped", clamps)
    return out[2], clamps


def _e3_block(data: E3Data, mus, z):
    """Interpolated estimator at mus with z's columns (:func:`_z_rows`);
    returns (value, clamped).

    At a stored node (bit-equal mu) the node's value by exact lookup,
    elsewhere lambda . V with T lambda = X(mu)[rows] solved by T's LU, the
    monomials of X's rows formed from z (:func:`fem.lu_solve_dots`).  A
    negative interpolated square is clamped to zero and flagged.
    """
    pairs = np.stack(np.triu_indices(len(z)))[:, data.rows]
    total = lu_solve_dots(data.lu, pairs, z, data.V)
    hit = mus[:, None] == data.interp_params
    node = hit.any(axis=1)
    total[node] = data.V[hit[node].argmax(axis=1)]
    clamped = total < 0.0
    if clamped.any():
        logger.info("e3: %d negative interpolated squares clamped", clamped.sum())
    return np.sqrt(np.maximum(total, 0.0)), clamped


def evaluate(sys: TruthSystem, model, e2data: E2Data, e3data: E3Data, mus) -> dict:
    """True error and all four estimators at every parameter of a block.

    Returns one array per field of ``experiments.SweepRecord``, keyed by
    the field name.  Entry j has the same bits in any block that holds
    mus[j], so the one-point block ``evaluate(..., [mu])`` is the per-point
    evaluation.  A mu that is not finite or below 1, or a block that is not
    1-D, raises ``ValueError``.  A block of any size runs in bounded
    working memory: chunks of _SOLVE_ELEMENTS // N points, each with one
    reduced and one truth solve and one z (:func:`_z_rows`), whose (N, m)
    solution is released once the true error has read it; the true error,
    e1, e2, e2dd and e3 take a chunk's z in one kernel call each.
    """
    from .reduced import solve_reduced_block

    mus = parameter_block(mus)
    names = ("true_error", "e1", "e2", "e2_radicand", "e2dd", "e3")
    cols = {name: np.empty(mus.size) for name in names}
    cols["e3_clamped_flag"] = np.empty(mus.size, dtype=int)
    q = q_coefficients(e2data)
    chunk = max(1, _SOLVE_ELEMENTS // sys.n)
    for c in range(0, mus.size, chunk):
        m = mus[c:c + chunk]
        part = slice(c, c + len(m))
        z = _z_rows(m, solve_reduced_block(model, m))
        U = solve_truth(sys, m)
        cols["true_error"][part] = lift_norms(sys, model.snapshots, z[1:model.n_hat + 1], U)
        del U  # not alive beside the next chunk's solve
        cols["e1"][part] = _e1_block(sys, model, z)
        cols["e2"][part], cols["e2_radicand"][part] = _e2_block(q, z)
        cols["e2dd"][part] = _e2dd_block(e2data, z)[0]
        cols["e3"][part], cols["e3_clamped_flag"][part] = _e3_block(e3data, m, z)
    return {"mu": mus, **cols}

"""Estimators: reference form, compact forms, interpolated form."""

import dataclasses
import logging
import math
import re
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import rbcert as rb
from rbcert import estimators, fem
from rbcert.estimators import (
    _CACHE_BLOCK_ELEMENTS,
    _SOLVE_ELEMENTS,
    E3_RANK_TOL,
    E2Data,
    _e2_block,
    _e2dd_block,
    _lu_solve,
    _monomial_factors,
    _pivoted_gram_schmidt,
)
from rbcert.experiments import sweep_grid, training_grid
from rbcert.fem import TruthSystem, dd_dots, dd_gram_matvec
from rbcert.precision import dd_add, dd_mul, dd_sqrt, dd_sum, two_prod
from rbcert.reduced import ReducedModel, add_snapshot

from conftest import analytic_solution, build_e2_data, operator

# Frozen from the assembled default system: the plain-double Riesz norm of
# the load and its correctly rounded double-double counterpart.  They differ
# in the low bits because the dd Gram products do not commit intermediate
# roundings.
DELTA_200 = 0.27525243598751564
DELTA_200_DD = 0.2752524359875254


# --- E1 ----------------------------------------------------------------------


def test_e1_block_rejects_the_empty_model(truth):
    # The greedy seeds its first snapshot without an estimate, so the empty
    # model is never evaluated: its e1 would be delta at every mu.
    with pytest.raises(ValueError, match="reduced model is empty"):
        rb.estimator_e1_block(truth, ReducedModel(truth), np.array([1.0, 31.0]), np.empty((2, 0)))


def test_e1_matches_direct_residual_norm(truth, default_model):
    # E1 must equal ||Gram^{-1} (A(mu) B gamma - F)||_H1 computed the
    # pedestrian way, for arbitrary (not just Galerkin) coefficients.
    model, _ = default_model
    rng = np.random.default_rng(12)
    B = model.basis_matrix
    for mu in (1.5, 70.0, 640.0):
        mus = np.array([mu])
        galerkin = rb.solve_reduced_block(model, mus)[0]
        for gamma in (galerkin, galerkin * (1 + 1e-3), rng.normal(size=model.n_hat)):
            residual = operator(truth, mu).matvec(B @ gamma) - truth.F
            w = rb.riesz_representative(truth, residual)
            direct = math.sqrt(rb.h1_inner(truth, w, w))
            e1 = rb.estimator_e1_block(truth, model, mus, gamma[None])[0]
            assert e1 == pytest.approx(direct, rel=1e-11)


def test_e1_is_an_upper_bound(truth, default_model, default_e2, default_e3):
    # Off-snapshot parameters: at a snapshot both sides are ~1e-12
    # round-off noise and the comparison is meaningless.
    model, _ = default_model
    cols = rb.evaluate(truth, model, default_e2, default_e3, np.geomspace(1.3, 970.0, 17))
    assert (cols["true_error"] <= cols["e1"] * (1 + 1e-10)).all()


# --- E2 offline data ---------------------------------------------------------


def test_e2_data_shapes_and_symmetry(default_e2):
    # E2Data is q alone: the symmetric Gram data once per pair I <= J, as
    # normalized dd pairs.
    assert [f.name for f in dataclasses.fields(E2Data)] == ["q_dd"]
    assert E2Data.beta == default_e2.beta == 1.0
    qh, ql = default_e2.q_dd
    assert qh.shape == ql.shape == (rb.x_dimension(6),)
    assert np.array_equal(qh + ql, qh)


def test_e2_data_is_positive_semidefinite(default_e2):
    # S is a Gram matrix of Riesz representatives.  Rebuilt from q: q_II on
    # the diagonal, q_IJ / 2 (exact) on both sides of it; z's index 0 is b.
    q = rb.q_coefficients(default_e2)
    i, j = np.triu_indices(13)
    G = np.empty((13, 13))
    G[i, j] = G[j, i] = np.where(i == j, q, 0.5 * q)
    w = np.linalg.eigvalsh(G[1:, 1:])
    assert w.min() >= -1e-12 * w.max()


def test_e2_delta_is_rounded_dd_value(default_e2):
    # The plain-double delta carries ~35 ulp of accumulated rounding from
    # the length-200 dot products and the tridiagonal solve; the dd value
    # differs from it in exactly those low bits.
    assert default_e2.delta == DELTA_200_DD
    assert abs(default_e2.delta - DELTA_200) <= 1e-13 * DELTA_200
    d2h, d2l = default_e2.q_dd[0][0], default_e2.q_dd[1][0]
    delta2 = rb.q_coefficients(default_e2)[0]
    assert delta2 == d2h + d2l
    assert delta2 == pytest.approx(default_e2.delta**2, rel=1e-15)


def test_e2_data_single_snapshot_oracle(truth):
    # For one snapshot q holds the inner products of three vectors:
    # g = riesz_b, r0, r1, in the order of X = (1, x0, x1, x0^2, x0 x1, x1^2).
    # Each stored double must be the dd-accurate value, which agrees with the
    # plain-double inner product to ~1e-13.
    model = ReducedModel(truth)
    add_snapshot(model, truth, 10.0)
    q = rb.q_coefficients(build_e2_data(truth, model))
    g, r0, r1 = model.riesz_b, model.riesz_a0[0], model.riesz_a1[0]
    assert q[1] == pytest.approx(2.0 * rb.h1_inner(truth, g, r0), rel=1e-13)
    assert q[2] == pytest.approx(2.0 * rb.h1_inner(truth, g, r1), rel=1e-13)
    assert q[3] == pytest.approx(rb.h1_inner(truth, r0, r0), rel=1e-13)
    assert q[4] == pytest.approx(2.0 * rb.h1_inner(truth, r0, r1), rel=1e-13)
    assert q[5] == pytest.approx(rb.h1_inner(truth, r1, r1), rel=1e-13)


def dd_gram_matvec_oracle(sys_, V):
    """Gram*v in double-double for each row of V, with the allocating kernels."""
    G = sys_.Gram
    wh, wl = two_prod(G.diag, V)
    ah, al = two_prod(G.off, V[:, 1:])
    bh, bl = two_prod(G.off, V[:, :-1])
    wh[:, :-1], wl[:, :-1] = dd_add((wh[:, :-1], wl[:, :-1]), (ah, al))
    wh[:, 1:], wl[:, 1:] = dd_add((wh[:, 1:], wl[:, 1:]), (bh, bl))
    return wh, wl


def dd_dot_oracle(u, wh, wl):
    """The dd dot down axis 0 of (N, m) stacks: dd_mul with a zero low part,
    then dd_sum's pairwise tree made of allocating dd_add calls."""
    th, tl = dd_mul((u, np.zeros_like(u)), (wh, wl))
    n = th.shape[0]
    while n > 1:
        half = (n + 1) // 2
        m = n - half
        th[:m], tl[:m] = dd_add((th[:m], tl[:m]), (th[half:n], tl[half:n]))
        n = half
    return th[0], tl[0]


def h1_inner_dd(sys: TruthSystem, u: np.ndarray, v: np.ndarray):
    """u^T * Gram * v in double-double; returns the (hi, lo) pair.

    All products are error-free transforms of the double inputs, and the
    final reduction is a pairwise double-double tree, so the result
    carries ~32 significant digits: effectively the exact value of the
    double-data inner product, to be rounded as the caller requires.
    It runs the allocating numpy kernels, the reference that the compiled
    E2 growth is checked against.
    """
    wh, wl = dd_gram_matvec_oracle(sys, v[None])
    h, l = dd_dot_oracle(u[:, None], wh.T, wl.T)
    return float(h[0]), float(l[0])


def test_h1_inner_dd_against_mpmath(truth):
    mpmath.mp.dps = 60
    rng = np.random.default_rng(13)
    G = truth.Gram
    for _ in range(3):
        u = rng.normal(size=truth.n)
        v = rng.normal(size=truth.n)
        hi, lo = h1_inner_dd(truth, u, v)
        ref = mpmath.mpf(0)
        for i in range(truth.n):
            ref += mpmath.mpf(float(u[i])) * mpmath.mpf(float(G.diag[i])) * mpmath.mpf(float(v[i]))
        for i in range(truth.n - 1):
            cross = mpmath.mpf(float(u[i])) * mpmath.mpf(float(v[i + 1]))
            cross += mpmath.mpf(float(u[i + 1])) * mpmath.mpf(float(v[i]))
            ref += mpmath.mpf(float(G.off[i])) * cross
        got = mpmath.mpf(hi) + mpmath.mpf(lo)
        assert abs(got - ref) <= mpmath.mpf(1e-30) * abs(ref)


# --- E2 evaluation ------------------------------------------------------------


def test_x_vector_layout_single_snapshot():
    mu, gamma = 7.0, 0.3
    mg = mu * gamma
    expected = np.array([1.0, gamma, mg, gamma * gamma, gamma * mg, mg * mg])
    assert np.array_equal(rb.x_matrix(np.array([mu]), np.array([[gamma]]))[:, 0], expected)
    assert rb.x_dimension(1) == 6


def test_x_dimension():
    assert [rb.x_dimension(n) for n in (1, 2, 6)] == [6, 15, 91]


def test_q_coefficients_layout(truth, default_model, default_e2):
    # q is the rounding of q_dd, and q . X(mu) is ||sum_I z_I G_I||^2 for
    # z = (1; gamma; mu*gamma) and any gamma: diagonal coefficients once,
    # off-diagonal ones doubled, in X's order.
    model, _ = default_model
    q = rb.q_coefficients(default_e2)
    assert q.shape == (rb.x_dimension(6),)
    assert np.array_equal(q, default_e2.q_dd[0] + default_e2.q_dd[1])
    lifts = [model.riesz_b, *model.riesz_a0, *model.riesz_a1]
    rng = np.random.default_rng(14)
    for mu in (2.0, 90.0, 800.0):
        gamma = rng.normal(size=6)
        z = np.concatenate([[1.0], gamma, mu * gamma])
        g = sum(c * r for c, r in zip(z, lifts))
        X = rb.x_matrix(np.array([mu]), gamma[None])[:, 0]
        assert math.fsum(q * X) == pytest.approx(rb.h1_inner(truth, g, g), rel=1e-10)


def monomials(mu, gamma):
    """The monomial columns of one parameter and its coefficients:
    X(mu) for _e2_block, its exact products for _e2dd_block."""
    zi, zj = _monomial_factors(np.array([mu]), np.array([gamma], dtype=float))
    return zi * zj, two_prod(zi, zj)


def test_e2_at_zero_coefficients_returns_delta(default_e2):
    value, radicand = _e2_block(default_e2, monomials(5.0, np.zeros(6))[0])
    assert value.tolist() == [default_e2.delta]
    assert radicand.tolist() == [rb.q_coefficients(default_e2)[0]]


def test_e2dd_at_zero_coefficients_returns_delta(default_e2):
    value, clamped = _e2dd_block(default_e2, monomials(5.0, np.zeros(6))[1])
    assert clamped.tolist() == [False]
    assert value[0] == pytest.approx(default_e2.delta, rel=1e-15)


def test_e2_radicand_is_the_assembled_linear_form(truth, default_e2, default_e3, default_model):
    model, _ = default_model
    q = rb.q_coefficients(default_e2)
    mus = np.array([2.0, 90.0, 800.0])
    radicands = rb.evaluate(truth, model, default_e2, default_e3, mus)["e2_radicand"]
    X = rb.x_matrix(mus, rb.solve_reduced_block(model, mus))
    assert radicands.tolist() == [math.fsum(q * x) for x in X.T]


def test_e2_and_e2dd_agree_before_convergence(truth, default_config):
    # With one snapshot the residual is huge, no cancellation occurs, and
    # the two precisions must agree to ~1e-11.
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    e2data = build_e2_data(truth, model)
    sampler = rb.log_uniform_sampler(default_config.mu_min, default_config.mu_max)
    e3data = rb.build_e3_data(truth, model, sampler, seed=default_config.seed)
    cols = rb.evaluate(truth, model, e2data, e3data, [3.0, 50.0, 900.0])
    assert (cols["e2dd"] > 0.0).all()
    assert cols["e2"] == pytest.approx(cols["e2dd"], rel=1e-9)


def synthetic_negative_data():
    # q = (delta^2, 2 s, S) = (1; -4, 0; 0, 0, 0): at gamma=1, mu=1 the
    # radicand is 1 - 4*1 = -3.
    return E2Data(q_dd=(np.array([1.0, -4.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(6)))


def test_e2_clamps_negative_radicand():
    value, radicand = _e2_block(synthetic_negative_data(), monomials(1.0, [1.0])[0])
    assert radicand.tolist() == [-3.0]
    assert value.tolist() == [0.0]


def test_e2dd_clamps_negative_radicand_and_flags():
    value, clamped = _e2dd_block(synthetic_negative_data(), monomials(1.0, [1.0])[1])
    assert value.tolist() == [0.0]
    assert clamped.tolist() == [True]


def test_clamp_logs_name_the_sweep_fields(caplog, truth, default_model, default_e2, default_e3):
    # The clamp counts log under the SweepRecord field names; on the default
    # basis e3 clamps at mu = 1000.
    with caplog.at_level(logging.INFO, logger="rbcert.estimators"):
        _e2dd_block(synthetic_negative_data(), monomials(1.0, [1.0])[1])
        rb.evaluate(truth, default_model[0], default_e2, default_e3, [1000.0])
    assert [r.getMessage() for r in caplog.records] == [
        "e2dd: 1 negative dd radicands clamped",
        "e3: 1 negative interpolated squares clamped",
    ]


# --- E3 ------------------------------------------------------------------------


def test_e3_shapes(default_model, default_e3, default_config):
    r = default_e3.T.shape[0]
    assert default_e3.d == 91
    assert 1 <= r < 91 // 4  # the numerical rank, far below d
    assert default_e3.T.shape == (r, r)
    assert default_e3.V.shape == default_e3.rows.shape == default_e3.interp_params.shape == (r,)
    assert len(set(default_e3.rows.tolist())) == r
    assert 0 <= default_e3.rows.min() and default_e3.rows.max() < 91
    # The pool's cond is structural: rank X <= 2*N_hat + 3.
    model, _ = default_model
    cfg = default_config
    pool = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)(91, cfg.seed)
    assert np.linalg.cond(rb.x_matrix(pool, rb.solve_reduced_block(model, pool))) > 1e14


def test_e3_columns_recomputable_bit_for_bit(truth, default_model, default_e3):
    model, _ = default_model
    for i, mu_i in enumerate(default_e3.interp_params.tolist()):
        mus = np.array([mu_i])
        gamma = rb.solve_reduced_block(model, mus)
        assert np.array_equal(rb.x_matrix(mus, gamma)[default_e3.rows, 0], default_e3.T[:, i])
        e1 = float(rb.estimator_e1_block(truth, model, mus, gamma)[0])
        assert default_e3.V[i] == e1 ** 2


def test_e3_nodes_and_rows_are_pivots(default_model, default_e3, default_config):
    # Nodes: the pivots of the pool's T, up to the rank tolerance.  Rows: the
    # pivots of the transposed orthonormal basis of their columns (Q-DEIM).
    model, _ = default_model
    cfg = default_config
    pool = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)(91, cfg.seed)
    T = rb.x_matrix(pool, rb.solve_reduced_block(model, pool))
    picks, Q = _pivoted_gram_schmidt(T, E3_RANK_TOL)
    assert np.array_equal(pool[picks], default_e3.interp_params)
    assert np.allclose(Q.T @ Q, np.eye(len(picks)), atol=1e-12)
    rows, _ = _pivoted_gram_schmidt(Q.T, 0.0)
    assert np.array_equal(rows, default_e3.rows)
    # The columns left out lie in the picked columns' span, to the tolerance.
    rest = T - Q @ (Q.T @ T)
    norms = np.linalg.norm(T, axis=0)
    assert np.linalg.norm(rest, axis=0).max() <= 2.0 * E3_RANK_TOL * norms.max()


def test_pivoted_gram_schmidt_picks_and_stops():
    # Column norms 1, 2, 3, sqrt(5): column 2 first, then column 1 (column 3
    # ties at 2 after the first projection and loses to the lower index);
    # column 3's remaining 1e-14 is below the tolerance.
    A = np.array([[1.0, 0.0, 3.0, 1.0], [0.0, 2.0, 0.0, 2.0], [0.0, 0.0, 0.0, 1e-14]])
    picks, Q = _pivoted_gram_schmidt(A, 1e-12)
    assert picks == [2, 1]
    assert np.array_equal(Q, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    picks, Q = _pivoted_gram_schmidt(A, 0.0)
    assert picks == [2, 1, 3]
    assert np.array_equal(Q[:, 2], [0.0, 0.0, 1.0])


def test_e3_reproduces_e1_at_interpolation_points(truth, default_model, default_e2, default_e3):
    model, _ = default_model
    r = default_e3.interp_params.size
    nodes = default_e3.interp_params[[0, r // 2, r - 1]]
    cols = rb.evaluate(truth, model, default_e2, default_e3, nodes)
    assert not cols["e3_clamped_flag"].any()
    assert cols["e3"].tolist() == cols["e1"].tolist()


def test_e3_tracks_e1_between_interpolation_points(truth, default_model, default_e2, default_e3):
    model, _ = default_model
    cols = rb.evaluate(truth, model, default_e2, default_e3, np.geomspace(1.3, 970.0, 15))
    assert cols["e3"] == pytest.approx(cols["e1"], rel=1e-3)


def test_e3_oversampled_pool(truth, default_model, default_e2, default_config):
    # A sampler that draws 7 more enlarges the pool the nodes are picked
    # from; T stays r x r.
    model, _ = default_model
    sampler = rb.log_uniform_sampler(default_config.mu_min, default_config.mu_max)
    data = rb.build_e3_data(
        truth, model, lambda n, seed: sampler(n + 7, seed), seed=default_config.seed
    )
    pool = sampler(98, default_config.seed)
    assert data.d == 91
    assert data.T.shape == (data.V.size, data.V.size)
    assert np.isin(data.interp_params, pool).all()
    mus = [2.5, 333.0, float(data.interp_params[-1])]
    block = rb.evaluate(truth, model, default_e2, data, mus)
    assert block["e3"] == pytest.approx(block["e1"], rel=1e-3)
    for mu, b3 in zip(mus, block["e3"].tolist()):
        v3 = rb.evaluate(truth, model, default_e2, data, [mu])["e3"][0]
        assert b3.hex() == float(v3).hex()


def test_e3_build_fails_on_degenerate_pool(truth, default_model):
    model, _ = default_model

    def sampler(n, seed):  # constant draw -> identical columns
        return np.full(n, 2.0)

    with pytest.raises(rb.EstimatorBuildError, match="degenerate"):
        rb.build_e3_data(truth, model, sampler, seed=0)


def test_e3_build_fails_on_one_repeated_parameter(truth, default_model, default_config):
    # The default pool with its last draw replaced by its first: every other
    # column is as before, and the pool's cond stays finite.
    model, _ = default_model
    default = rb.log_uniform_sampler(default_config.mu_min, default_config.mu_max)

    def sampler(n, seed):
        pool = default(n, seed)
        pool[-1] = pool[0]
        return pool

    with pytest.raises(rb.EstimatorBuildError, match="repeats a parameter"):
        rb.build_e3_data(truth, model, sampler, seed=default_config.seed)


def test_log_uniform_sampler_is_deterministic():
    sampler = rb.log_uniform_sampler(1.0, 1000.0)
    a = sampler(100, 42)
    b = sampler(100, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sampler(100, 43))
    assert a.min() >= 1.0 and a.max() <= 1000.0
    # Log-uniform: the median sits near the geometric mean of the range.
    assert 10.0 <= np.median(sampler(4000, 7)) <= 100.0


def test_small_x_layout():
    # Column j of z is (1; x) with x = (gamma[j]; mus[j]*gamma[j]); the factor
    # rows run over the pairs I <= J of z, row I = 0 first.
    mus, gamma = np.array([3.0, 2.0]), np.array([[0.5, -2.0], [1.0, 4.0]])
    zi, zj = _monomial_factors(mus, gamma)
    z = [[1.0, 1.0], [0.5, 1.0], [-2.0, 4.0], [1.5, 2.0], [-6.0, 8.0]]
    assert zi.shape == zj.shape == (rb.x_dimension(2), 2)
    assert np.array_equal(zi[:5], np.ones((5, 2))) and np.array_equal(zj[:5], z)
    assert np.array_equal(zi[5:9], [z[1]] * 4) and np.array_equal(zj[5:9], z[1:])
    assert np.array_equal(zi[-1], z[4]) and np.array_equal(zj[-1], z[4])
    assert np.array_equal(zi * zj, rb.x_matrix(mus, gamma))


# --- per-point oracle --------------------------------------------------------------
#
# The estimators one mu at a time, in the loop forms the block kernels were
# derived from: the float.hex reference for evaluate, whose one-point blocks
# are the API's per-point evaluation.

FIELDS = ("mu", "true_error", "e1", "e2", "e2_radicand", "e2dd", "e3", "e3_clamped_flag")


def solve_reduced_oracle(model, mu):
    return np.linalg.solve(model.A0_hat + mu * model.A1_hat, model.b_hat)


def pairwise_sum(n, term, first=0):
    """Balanced pairwise sum of term(first), ..., term(first + n - 1): the
    front half, then the back half, then the two added."""
    if n == 1:
        return term(first)
    half = n // 2
    return pairwise_sum(half, term, first) + pairwise_sum(n - half, term, first + half)


def e1_oracle(sys_, model, mu, gamma):
    """g = riesz_b + sum_i gamma_i*riesz_a0[i] + mu*sum_i gamma_i*riesz_a1[i], pairwise."""
    terms = [model.riesz_b]
    if gamma.size:
        terms += [g * r for g, r in zip(gamma, model.riesz_a0)]
        part1 = pairwise_sum(gamma.size, lambda i: gamma[i] * model.riesz_a1[i])
        terms.append(mu * part1)
    g = pairwise_sum(len(terms), terms.__getitem__)
    return math.sqrt(max(rb.h1_inner(sys_, g, g), 0.0))


def small_x_oracle(mu, gamma):
    """x_I = alpha_k(mu)*gamma_i: gamma for the a0 block, mu*gamma for a1."""
    return np.concatenate([gamma, mu * gamma])


def x_vector_oracle(mu, gamma):
    """(1; x_I; fl(x_I * x_J) for I <= J in lexicographic order)."""
    x = small_x_oracle(mu, gamma)
    return np.concatenate([[1.0], x, *(x[i] * x[i:] for i in range(x.size))])


def e2_oracle(data, mu, gamma):
    q = data.q_dd[0] + data.q_dd[1]
    radicand = math.fsum(q * x_vector_oracle(mu, gamma))
    return math.sqrt(max(radicand, 0.0)), radicand


def e2dd_oracle(data, mu, gamma):
    """q.X in double-double, the exact monomials built one row I of pairs at a time."""
    x = small_x_oracle(mu, gamma)
    ph_parts = [np.array([1.0]), x]
    pl_parts = [np.array([0.0]), np.zeros_like(x)]
    for i in range(x.size):
        ph, pl = two_prod(x[i], x[i:])
        ph_parts.append(ph)
        pl_parts.append(pl)
    th, tl = dd_mul(data.q_dd, (np.concatenate(ph_parts), np.concatenate(pl_parts)))
    rh, rl = dd_sum(th, tl)
    if rh < 0.0 or (rh == 0.0 and rl < 0.0):
        return 0.0, True
    vh, vl = dd_sqrt((rh, rl))
    return vh + vl, False


def e3_oracle(data, mu, gamma):
    """e3 at one point: exact node lookup, else one vector solve with T's LU."""
    hits = np.nonzero(data.interp_params == mu)[0]
    if hits.size:
        total = float(data.V[hits[0]])
    else:
        total = float(_lu_solve(data.lu, x_vector_oracle(mu, gamma)[data.rows]) @ data.V)
    return math.sqrt(max(total, 0.0)), total < 0.0


def true_error_oracle(sys_, model, mu, gamma):
    u = rb.solve_truth(sys_, mu)
    if model.n_hat:
        u = u - model.basis_matrix @ gamma
    return math.sqrt(max(rb.h1_inner(sys_, u, u), 0.0))


ORACLE = {
    "gamma": solve_reduced_oracle, "e1": e1_oracle, "e2": e2_oracle, "e2dd": e2dd_oracle,
    "e3": e3_oracle, "true_error": true_error_oracle,
}


def per_point_record(sys_, model, e2data, e3data, mu):
    """Every sweep quantity at mu from the oracle, keyed by FIELDS."""
    mu = float(mu)
    gamma = ORACLE["gamma"](model, mu)
    e2, radicand = ORACLE["e2"](e2data, mu, gamma)
    e3, clamped = ORACLE["e3"](e3data, mu, gamma)
    return {
        "mu": mu,
        "true_error": ORACLE["true_error"](sys_, model, mu, gamma),
        "e1": ORACLE["e1"](sys_, model, mu, gamma),
        "e2": e2,
        "e2_radicand": radicand,
        "e2dd": ORACLE["e2dd"](e2data, mu, gamma)[0],
        "e3": e3,
        "e3_clamped_flag": int(clamped),
    }


# --- block evaluation ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_orthonormal():
    """n_cells=50, orthonormal basis of 8: d = 153, with e3 clamps at mu = 1."""
    cfg = rb.ExperimentConfig(
        n_cells=50, n_train=50, rb_size=8, orthonormalize=True, dependence_tol=1e-30
    )
    sys_ = rb.assemble(cfg.n_cells)
    model, _, _ = rb.greedy_build(
        sys_, training_grid(cfg), n_max=cfg.rb_size, orthonormalize=True,
        dependence_tol=cfg.dependence_tol,
    )
    e2data = build_e2_data(sys_, model)
    e3data = rb.build_e3_data(
        sys_, model, rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max), seed=cfg.seed
    )
    return sys_, model, e2data, e3data


@pytest.fixture(scope="module")
def large_orthonormal():
    """n_cells=4000, orthonormal basis of 4: one truth chunk holds more
    points than the cache budget, so the true error lifts it in sub-blocks."""
    cfg = rb.ExperimentConfig(
        n_cells=4000, n_train=20, rb_size=4, orthonormalize=True, dependence_tol=1e-30
    )
    sys_ = rb.assemble(cfg.n_cells)
    model, _, e2data = rb.greedy_build(
        sys_, training_grid(cfg), n_max=cfg.rb_size, orthonormalize=True,
        dependence_tol=cfg.dependence_tol,
    )
    e3data = rb.build_e3_data(
        sys_, model, rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max), seed=cfg.seed
    )
    return sys_, model, e2data, e3data


@pytest.fixture(scope="module", params=["default", "small_orthonormal", "large_orthonormal"])
def evaluation_case(request, truth, default_model, default_e2, default_e3):
    if request.param == "default":
        case = truth, default_model[0], default_e2, default_e3
    else:
        case = request.getfixturevalue(request.param)
    model, e3data = case[1], case[3]
    # Two stored nodes take e3's exact-lookup path; at the snapshot
    # parameters e1 sits on its floor.
    grid = np.geomspace(1.0, 1000.0, 31)
    mus = np.concatenate([grid, e3data.interp_params[[3, -1]], model.snapshot_params])
    reference = [per_point_record(*case, mu) for mu in mus]
    if request.param == "large_orthonormal":
        # One truth chunk, whose lift _true_error_block runs in sub-blocks.
        n = case[0].n
        assert _SOLVE_ELEMENTS // n >= len(mus) > _CACHE_BLOCK_ELEMENTS // n
    else:
        # The grid's endpoints clamp e3 (mu = 1000 on the default basis,
        # mu = 1 on the small one).
        assert any(r["e3_clamped_flag"] for r in reference)
    return case, mus, reference


def assert_same_bits(got, reference):
    """Every field of got (lists keyed by FIELDS) equals the reference by float.hex."""
    for name in FIELDS:
        expect = [r[name] for r in reference]
        if name == "e3_clamped_flag":
            assert got[name] == expect
        else:
            assert [v.hex() for v in got[name]] == [v.hex() for v in expect], name


@pytest.mark.parametrize("block", [1, 3, None])
def test_evaluate_equals_per_point_bit_for_bit(evaluation_case, block):
    case, mus, reference = evaluation_case
    step = block or len(mus)
    got = {name: [] for name in FIELDS}
    for k in range(0, len(mus), step):
        cols = rb.evaluate(*case, mus[k:k + step])
        for name in FIELDS:
            got[name] += cols[name].tolist()
    assert_same_bits(got, reference)


def test_compute_sweep_equals_per_point(evaluation_case):
    case, mus, reference = evaluation_case
    rows = rb.compute_sweep(*case, mus)
    assert_same_bits({name: [getattr(r, name) for r in rows] for name in FIELDS}, reference)


def test_truth_chunks_and_sub_blocks_keep_the_bits(evaluation_case, monkeypatch):
    # 7-point truth chunks with a ragged tail, 3-point sub-blocks that leave
    # one point at each chunk's end, and e1 and the lift in steps of 2.
    case, mus, reference = evaluation_case
    n, d = case[0].n, case[3].d
    monkeypatch.setattr("rbcert.estimators._SOLVE_ELEMENTS", 7 * n)
    monkeypatch.setattr("rbcert.estimators._BLOCK_ELEMENTS", 3 * d)
    monkeypatch.setattr("rbcert.estimators._CACHE_BLOCK_ELEMENTS", 2 * n)
    assert len(mus) > 3 * 7 and len(mus) % 7
    cols = rb.evaluate(*case, mus)
    assert_same_bits({name: cols[name].tolist() for name in FIELDS}, reference)
    rows = rb.compute_sweep(*case, mus)
    assert_same_bits({name: [getattr(r, name) for r in rows] for name in FIELDS}, reference)


def test_sweep_memory_is_bounded(truth, default_model, default_e2, default_e3, default_config):
    # The default 400-point grid is one truth chunk, whose solve holds one
    # (N, 400) array (0.64 MB); e1 and the lift stream it in 90-point steps
    # and the other stages run on sub-blocks of it: 1.41 MB traced, against
    # 1.97 MB with the two-array solve and 5.1 MB with every stage across
    # the whole chunk.
    mus = sweep_grid(default_config)
    tracemalloc.start()
    try:
        rb.compute_sweep(truth, default_model[0], default_e2, default_e3, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("misfit", ["short", "long", "rows"])
def test_e1_block_rejects_mis_sized_gamma(misfit, truth, default_model):
    # 4 or N_hat + 1 = 7 coefficients for a basis of 6, or one row of
    # coefficients for two points.
    model, _ = default_model
    mus = np.array([50.0])
    gamma = rb.solve_reduced_block(model, mus)
    mus, gamma = {
        "short": (mus, gamma[:, :4]),
        "long": (mus, np.append(gamma, [[0.0]], axis=1)),
        "rows": (np.array([50.0, 60.0]), gamma),
    }[misfit]
    with pytest.raises(ValueError, match="does not fit"):
        rb.estimator_e1_block(truth, model, mus, gamma)


@pytest.mark.parametrize("mus", [5.0, [[2.0, 3.0]]], ids=["scalar", "2d"])
def test_evaluate_rejects_a_block_that_is_not_1d(mus, truth, default_model, default_e2, default_e3):
    with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(mus)}")):
        rb.evaluate(truth, default_model[0], default_e2, default_e3, mus)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_mu_rejected(bad, truth, default_model, default_e2, default_e3):
    model, _ = default_model
    with pytest.raises(ValueError):
        rb.solve_truth(truth, bad)
    with pytest.raises(ValueError):
        rb.solve_reduced_block(model, [bad])
    with pytest.raises(ValueError):
        analytic_solution(bad, 0.5)
    with pytest.raises(ValueError):
        rb.evaluate(truth, model, default_e2, default_e3, [2.0, bad])


# --- E2 build: block pass against the per-pair reference ---------------------

def per_pair_e2_data(sys_, model):
    """q_dd from one h1_inner_dd call per pair: delta^2, then 2*s_I, then per
    row I of S = (S + S^T)/2 the entries S_II, 2*S_IJ for J > I."""
    riesz = list(model.riesz_a0) + list(model.riesz_a1)
    m = len(riesz)
    d2 = h1_inner_dd(sys_, model.riesz_b, model.riesz_b)
    sh = np.empty(m)
    sl = np.empty(m)
    for i, r in enumerate(riesz):
        sh[i], sl[i] = h1_inner_dd(sys_, model.riesz_b, r)
    Sh = np.empty((m, m))
    Sl = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            Sh[i, j], Sl[i, j] = h1_inner_dd(sys_, riesz[i], riesz[j])
    Sh, Sl = dd_add((Sh, Sl), (Sh.T.copy(), Sl.T.copy()))
    Sh, Sl = 0.5 * Sh, 0.5 * Sl
    qh, ql = [np.array([d2[0]]), 2.0 * sh], [np.array([d2[1]]), 2.0 * sl]
    for i in range(m):
        rh, rl = 2.0 * Sh[i, i:], 2.0 * Sl[i, i:]
        rh[0], rl[0] = Sh[i, i], Sl[i, i]
        qh.append(rh)
        ql.append(rl)
    return np.concatenate(qh), np.concatenate(ql)


def assert_e2_data_is_per_pair(data, sys_, model):
    def hexes(pair):
        return [[float(x).hex() for x in part] for part in pair]

    assert hexes(data.q_dd) == hexes(per_pair_e2_data(sys_, model))


@pytest.fixture
def single_dof():
    """n_cells=2, so N = 1, with one snapshot: N_hat = 1."""
    sys_ = rb.assemble(2)
    model = ReducedModel(sys_)
    add_snapshot(model, sys_, 10.0)
    assert (sys_.n, model.n_hat) == (1, 1)
    return sys_, model, build_e2_data(sys_, model)


@pytest.mark.parametrize("case", ["default", "small_orthonormal", "single_dof"])
def test_e2_build_equals_per_pair(case, request, truth, default_model, default_e2):
    if case == "default":
        sys_, model, e2data = truth, default_model[0], default_e2
    else:
        sys_, model, e2data = request.getfixturevalue(case)[:3]
    assert_e2_data_is_per_pair(e2data, sys_, model)


def grown_in_steps(sys_, model, snapshots_per_growth):
    """The model's E2Data from one E2Table grown over prefixes of its basis,
    snapshots_per_growth snapshots at a time."""
    table = estimators.E2Table(sys_)
    for end in range(snapshots_per_growth, model.n_hat + snapshots_per_growth, snapshots_per_growth):
        n = min(end, model.n_hat)
        prefix = SimpleNamespace(
            n_hat=n,
            riesz_b=model.riesz_b,
            riesz_a0=model.riesz_a0[:n],
            riesz_a1=model.riesz_a1[:n],
        )
        data = table.grow(prefix)
    return data


@pytest.mark.parametrize("snapshots_per_growth", [1, 7])
def test_e2_build_chunking_is_bit_identical(snapshots_per_growth, truth, default_model):
    # N_hat = 6: six growths of one snapshot, or the whole basis in one.
    model = default_model[0]
    assert model.n_hat == 6
    assert_e2_data_is_per_pair(grown_in_steps(truth, model, snapshots_per_growth), truth, model)


@pytest.mark.parametrize("snapshots_per_growth", [1, 7])
def test_greedy_e2_data_equals_per_pair(snapshots_per_growth, greedy_case):
    # The greedy grows E2's table two Riesz vectors per snapshot; a table
    # grown over its basis in steps of 1 or 7 snapshots holds the same bits.
    sys_, training, kwargs = greedy_case
    model, _, e2data = rb.greedy_build(sys_, training, **kwargs)
    assert_e2_data_is_per_pair(e2data, sys_, model)
    regrown = grown_in_steps(sys_, model, snapshots_per_growth)
    assert [a.tobytes() for a in regrown.q_dd] == [a.tobytes() for a in e2data.q_dd]


def test_each_growth_is_one_matvec_call_and_one_dots_call(truth, monkeypatch):
    # One snapshot at a time, as the greedy grows the table, and three at
    # once into a fresh table; a growth with nothing new calls neither.
    calls = []
    for name in ("dd_gram_matvec", "dd_dots"):
        def counted(*args, _kernel=getattr(estimators, name), _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(estimators, name, counted)
    model, table = ReducedModel(truth), estimators.E2Table(truth)
    for mu in (1.0, 10.0, 100.0):
        add_snapshot(model, truth, mu)
        calls.clear()
        table.grow(model)
        assert calls == ["dd_gram_matvec", "dd_dots"], mu
    calls.clear()
    table.grow(model)
    assert calls == []
    fresh = estimators.E2Table(truth).grow(model)
    assert calls == ["dd_gram_matvec", "dd_dots"]
    assert [a.tobytes() for a in fresh.q_dd] == [a.tobytes() for a in table.grow(model).q_dd]


# --- the compiled dd kernels against the allocating route -------------------

def special_stacks(n, seed):
    """(u, wh, wl) as (n, 6) stacks with +-0.0, subnormals and exactly
    representable products among ordinary values.

    Column 0 has a zero u throughout, column 1 a zero low part, column 2
    small integers times powers of two (exact products, zero product
    errors), column 3 only zeros, column 4 subnormals, column 5 a mix.
    Every zero gets a random sign: the sign of a zero low part is where an
    in-place rewrite can drift.
    """
    rng = np.random.default_rng(seed)

    def zeros():
        return rng.choice(np.array([0.0, -0.0]), size=n)

    def ordinary():
        return rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n)

    u, wh = np.empty((n, 6)), np.empty((n, 6))
    for j in range(6):
        u[:, j], wh[:, j] = ordinary(), ordinary()
    wl = wh * rng.uniform(-(2.0**-53), 2.0**-53, size=(n, 6))
    u[:, 0] = zeros()
    wl[:, 1] = zeros()
    u[:, 2] = rng.integers(-9, 10, size=n).astype(float)
    wh[:, 2] = 2.0 ** rng.integers(-20, 20, size=n) * rng.choice([-1.0, 1.0], size=n)
    wl[:, 2] = zeros()
    u[:, 3], wh[:, 3], wl[:, 3] = zeros(), zeros(), zeros()
    u[:, 4] = 5e-324 * rng.integers(-3, 4, size=n)
    wl[:, 4] = 2.0**-1070 * rng.integers(-3, 4, size=n)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 0.5, -4.0, 3.0])
    for a in (u, wh, wl):
        pick = rng.uniform(size=n) < 0.4
        a[pick, 5] = rng.choice(specials, size=pick.sum())
    return u, wh, wl


def hexes(pair):
    return [[float(x).hex() for x in part] for part in pair]


def columns(a):
    """The columns of an (N, m) stack as a list of m contiguous (N,) vectors."""
    return list(np.ascontiguousarray(a.T))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1001])
def test_dd_dots_equal_the_allocating_route_bit_for_bit(n):
    u, wh, wl = special_stacks(n, seed=n)
    ref = dd_dot_oracle(u, wh, wl)
    us, whs, wls = columns(u), columns(wh), columns(wl)
    got = dd_dots(us, whs, wls, [(j, j) for j in range(6)])
    assert hexes(got) == hexes(ref)
    # Some columns in another order, and one column alone.
    cols = [5, 3, 0]
    got = dd_dots(us, whs, wls, [(j, j) for j in cols])
    assert hexes(got) == hexes((ref[0][cols], ref[1][cols]))
    got = dd_dots([us[3]], [whs[3]], [wls[3]], [(0, 0)])
    assert hexes(got) == hexes((ref[0][3:4], ref[1][3:4]))
    # u of one column against w of another, as E2's pairs take them.
    pairs = [(a, b) for a in range(6) for b in range(6) if a != b]
    got = dd_dots(us, whs, wls, pairs)
    expect = [dd_dot_oracle(u[:, [a]], wh[:, [b]], wl[:, [b]]) for a, b in pairs]
    assert hexes(got) == hexes(([h[0] for h, _ in expect], [l[0] for _, l in expect]))


@pytest.mark.parametrize("n", [*range(1, 10), 9999])
def test_dd_kernels_write_nothing_past_their_buffers(n):
    # The dots write their 2n scratch entries (the terms, then the tree
    # over them) and p entries of each output half, the matvec k rows of
    # n of wh and of wl.  Each buffer is passed with NaN guards on both
    # sides, which must survive, while the results equal the allocating
    # route's.  n = 1..9 spans trees of every shape up to four levels.
    pad = 7
    u, wh, wl = special_stacks(n, seed=100 + n)
    us, whs, wls = columns(u), columns(wh), columns(wl)
    pairs = np.array([(5, 0), (2, 2), (0, 5), (4, 1)], dtype=np.intp)
    p = len(pairs)
    out, scratch = np.full(2 * p + 2 * pad, np.nan), np.full(2 * n + 2 * pad, np.nan)
    tables = [np.array([v.ctypes.data for v in vs], dtype=np.uintp) for vs in (us, whs, wls)]
    fem._lib.dd_dots(
        n, p, *(t.ctypes.data for t in tables), pairs.ctypes.data,
        out[pad:].ctypes.data, scratch[pad:].ctypes.data,
    )
    for buf, k in ((out, 2 * p), (scratch, 2 * n)):
        assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + k:]).all()
    expect = [dd_dot_oracle(u[:, [a]], wh[:, [b]], wl[:, [b]]) for a, b in pairs]
    got = out[pad:pad + 2 * p].reshape(2, p)
    assert hexes(got) == hexes(([h[0] for h, _ in expect], [l[0] for _, l in expect]))

    sys_ = rb.assemble(n + 1)
    V = np.ascontiguousarray(u.T[:3])
    Wh, Wl = (np.full(3 * n + 2 * pad, np.nan) for _ in range(2))
    G = sys_.Gram
    fem._lib.dd_gram_matvec(
        n, 3, G.diag[0], G.off[0] if n > 1 else 0.0,
        np.array([v.ctypes.data for v in V], dtype=np.uintp).ctypes.data,
        Wh[pad:].ctypes.data, Wl[pad:].ctypes.data,
    )
    for buf in (Wh, Wl):
        assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + 3 * n:]).all()
    ref = dd_gram_matvec_oracle(sys_, V)
    got = (Wh[pad:pad + 3 * n], Wl[pad:pad + 3 * n])
    assert hexes(got) == hexes((ref[0].ravel(), ref[1].ravel()))


def test_e2_build_holds_no_per_operation_temporaries():
    # The compiled kernels allocate nothing: a growth holds the dd vectors
    # the table keeps, the 2N entries of the dots' scratch and arrays of
    # the size of the table.  At n_cells = 4000 the traced peak of the
    # build is 653,387 bytes with N_hat = 4 and 916,391 with N_hat = 6.
    # The bound is nine arrays of _CACHE_BLOCK_ELEMENTS entries, 4,718,592
    # bytes.
    for n_hat in (4, 6):
        sys_ = rb.assemble(4000)
        model = ReducedModel(sys_, orthonormalize=True)
        for mu in (1.0, 10.0, 100.0, 1000.0, 3.0, 300.0)[:n_hat]:
            add_snapshot(model, sys_, mu)
        tracemalloc.start()
        try:
            build_e2_data(sys_, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 8 * _CACHE_BLOCK_ELEMENTS, n_hat


@pytest.mark.parametrize("n_cells", [2, 3, 200])
def test_dd_gram_matvec_equals_the_allocating_route_bit_for_bit(n_cells):
    # Alone and in a list, for random rows,
    # rows near underflow, alternating signs (the dd sums cancel) and
    # Gram's own diagonal.
    sys_ = rb.assemble(n_cells)
    n = sys_.n
    rng = np.random.default_rng(n_cells)
    V = np.vstack([
        rng.normal(size=(3, n)),
        np.cos(np.arange(n)) * 1e-300,
        (-1.0) ** np.arange(n),
        sys_.Gram.diag / 3.0,
    ])
    ref = dd_gram_matvec_oracle(sys_, V)
    for rows in (range(len(V)), [4], [5, 0]):
        for got, expect in zip(dd_gram_matvec(sys_, [V[r] for r in rows]), ref):
            assert [x.hex() for x in got.ravel().tolist()] == [
                x.hex() for x in expect[list(rows)].ravel().tolist()
            ]

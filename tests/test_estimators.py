"""Estimators: reference form, compact forms, interpolated form."""

import ctypes
import dataclasses
import hashlib
import json
import logging
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbcert as rb
from rbcert import estimators, fem
from rbcert.estimators import (
    _SOLVE_ELEMENTS,
    E3_RANK_TOL,
    E2Data,
    _e1_block,
    _e2_block,
    _e2dd_block,
    _e3_block,
)
from rbcert.experiments import sweep_grid, training_grid
from rbcert.fem import TruthSystem, dd_gram_table, lift_norms, lu_solve_dots, sum2_columns
from rbcert.reduced import ReducedModel, add_snapshot

from conftest import TridiagonalArrays, analytic_solution, build_e2_data, dd_mul, dd_sum, operator
from conftest import SPECIAL_Q, SPECIAL_Z, dd_add, dd_root, dd_sqrt, sum2, two_prod
from conftest import _lu_factor, _lu_solve, _pivoted_gram_schmidt, dot_in_order, h1_norm_lanes
from conftest import h1_inner_lanes, lift_in_snapshot_order, project_in_lanes, z_of

# Frozen from the assembled default system: the plain-double Riesz norm of
# the load, its dot summed in the eight-lane order, and its correctly
# rounded double-double counterpart.  They differ in the low bits because
# the dd Gram products do not commit intermediate roundings.
DELTA_200 = 0.2752524359875157
DELTA_200_DD = 0.2752524359875254


# --- E1 ----------------------------------------------------------------------


def test_z_block_rejects_the_empty_model(truth):
    # The greedy seeds its first snapshot without an estimate, so the empty
    # model is never evaluated: its e1 would be delta at every mu.
    with pytest.raises(ValueError, match="reduced model is empty"):
        rb.z_block(ReducedModel(truth), np.array([1.0, 31.0]))


def test_e1_matches_direct_residual_norm(truth, default_model):
    # E1 must equal ||Gram^{-1} (A(mu) B gamma - F)||_H1 computed the
    # pedestrian way, for arbitrary (not just Galerkin) coefficients.
    model, _ = default_model
    rng = np.random.default_rng(12)
    B = np.column_stack(model.snapshots)
    for mu in (1.5, 70.0, 640.0):
        mus = np.array([mu])
        galerkin = rb.z_block(model, mus)[1:model.n_hat + 1, 0]
        for gamma in (galerkin, galerkin * (1 + 1e-3), rng.normal(size=model.n_hat)):
            residual = operator(truth, mu).matvec(B @ gamma) - truth.F
            w = rb.riesz_representative(truth, residual)
            direct = math.sqrt(h1_inner_lanes(truth, w, w))
            e1 = _e1_block(truth, model, z_of(mus, gamma[None]))[0]
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
    assert q[1] == pytest.approx(2.0 * h1_inner_lanes(truth, g, r0), rel=1e-13)
    assert q[2] == pytest.approx(2.0 * h1_inner_lanes(truth, g, r1), rel=1e-13)
    assert q[3] == pytest.approx(h1_inner_lanes(truth, r0, r0), rel=1e-13)
    assert q[4] == pytest.approx(2.0 * h1_inner_lanes(truth, r0, r1), rel=1e-13)
    assert q[5] == pytest.approx(h1_inner_lanes(truth, r1, r1), rel=1e-13)


def dd_gram_matvec_oracle(sys_, V):
    """Gram*v in double-double for each row of V, with the allocating kernels."""
    G = TridiagonalArrays.of(sys_.Gram, sys_.n)
    wh, wl = two_prod(G.diag, V)
    ah, al = two_prod(G.off, V[:, 1:])
    bh, bl = two_prod(G.off, V[:, :-1])
    wh[:, :-1], wl[:, :-1] = dd_add((wh[:, :-1], wl[:, :-1]), (ah, al))
    wh[:, 1:], wl[:, 1:] = dd_add((wh[:, 1:], wl[:, 1:]), (bh, bl))
    return wh, wl


def dd_dot_oracle(u, wh, wl):
    """The dd dot down axis 0 of (N, m) stacks: dd_mul with a zero low part,
    then dd_sum's pairwise tree made of allocating dd_add calls."""
    return dd_sum(*dd_mul((u, np.zeros_like(u)), (wh, wl)))


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
    G = TridiagonalArrays.of(truth.Gram, truth.n)
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
    assert np.array_equal(rb.x_matrix(np.array([[1.0], [gamma], [mg]]))[:, 0], expected)
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
        X = rb.x_matrix(z[:, None])[:, 0]
        assert math.fsum(q * X) == pytest.approx(h1_inner_lanes(truth, g, g), rel=1e-10)


def one_point_z(mu, gamma):
    """z = (1; gamma; mu*gamma) of one parameter, the input of the e2, e2dd
    and e3 kernels."""
    return z_of(np.array([mu]), np.array([gamma], dtype=float))


def test_e2_at_zero_coefficients_returns_delta(default_e2):
    value, radicand = _e2_block(rb.q_coefficients(default_e2), one_point_z(5.0, np.zeros(6)))
    assert value.tolist() == [default_e2.delta]
    assert radicand.tolist() == [rb.q_coefficients(default_e2)[0]]


def test_e2dd_at_zero_coefficients_returns_delta(default_e2):
    value, clamps = _e2dd_block(default_e2, one_point_z(5.0, np.zeros(6)))
    assert clamps == 0
    assert value[0] == pytest.approx(default_e2.delta, rel=1e-15)


def assert_radicands_are_sum2s(sys_, model, e2data, e3data, mus):
    """evaluate's e2 radicands have, bit for bit and sign of zero included,
    the Sum2 of the rounded products q_p*X_p."""
    q = rb.q_coefficients(e2data)
    radicands = rb.evaluate(sys_, model, e2data, e3data, mus)["e2_radicand"]
    X = rb.x_matrix(rb.z_block(model, mus))
    assert hex_list(radicands) == hex_list(sum2(q[:, None] * X))


def test_e2_radicand_is_the_assembled_linear_form(truth, default_e2, default_e3, default_model):
    model, _ = default_model
    assert_radicands_are_sum2s(truth, model, default_e2, default_e3, np.array([2.0, 90.0, 800.0]))


def test_e2_radicand_is_the_assembled_linear_form_on_the_converged_basis(
    floors_config, floors_artifact
):
    # N_hat = 12, d = 325: the deepest cancellation, over the whole sweep grid.
    sys_, model, e2data, e3data, _ = rb.load_artifact(floors_artifact, floors_config)
    assert (model.n_hat, e3data.d) == (12, 325)
    assert_radicands_are_sum2s(sys_, model, e2data, e3data, sweep_grid(floors_config))


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
    q = rb.q_coefficients(synthetic_negative_data())
    value, radicand = _e2_block(q, one_point_z(1.0, [1.0]))
    assert radicand.tolist() == [-3.0]
    assert value.tolist() == [0.0]


def test_e2dd_clamps_negative_radicand_and_flags():
    value, clamps = _e2dd_block(synthetic_negative_data(), one_point_z(1.0, [1.0]))
    assert value.tolist() == [0.0]
    assert clamps == 1


def synthetic_negative_e3():
    # One node at mu = 2 on X's first row, which is 1 at every mu, with
    # V = -1: off the node lambda = 1 and the interpolated square is -1.
    return rb.E3Data(interp_params=np.array([2.0]), rows=np.array([0]), T=np.array([[1.0]]),
                     V=np.array([-1.0]), d=6)


def test_clamp_logs_name_the_sweep_fields(caplog):
    # The clamp counts log under the SweepRecord field names.
    with caplog.at_level(logging.INFO, logger="rbcert.estimators"):
        _e2dd_block(synthetic_negative_data(), one_point_z(1.0, [1.0]))
        _e3_block(synthetic_negative_e3(), np.array([1.0]), one_point_z(1.0, [1.0]))
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
    assert np.linalg.cond(rb.x_matrix(rb.z_block(model, pool))) > 1e14


def test_e3_columns_recomputable_bit_for_bit(truth, default_model, default_e3):
    model, _ = default_model
    for i, mu_i in enumerate(default_e3.interp_params.tolist()):
        z = rb.z_block(model, [mu_i])
        assert np.array_equal(rb.x_matrix(z)[default_e3.rows, 0], default_e3.T[:, i])
        e1 = float(_e1_block(truth, model, z)[0])
        assert default_e3.V[i] == e1 * e1


def test_e3_values_are_the_correctly_rounded_squares_of_e1(truth, default_model):
    # V = e1 * e1, one correctly rounded product per node.  A float's
    # e ** 2 is libm's pow, which is not correctly rounded: at these 5,000
    # nodes glibc's pow misses the product at 3 of them.
    model, _ = default_model
    nodes = np.geomspace(1.0, 1000.0, 5000)
    e1 = _e1_block(truth, model, rb.z_block(model, nodes))
    V = estimators.e3_data(truth, model, nodes, np.arange(3)).V
    assert hex_list(V) == hex_list(e1 * e1)


def test_e3_nodes_and_rows_are_pivots(default_model, default_e3, default_config):
    # Nodes: the pivots of the pool's T, up to the rank tolerance.  Rows: the
    # pivots of the transposed orthonormal basis of their columns (Q-DEIM).
    model, _ = default_model
    cfg = default_config
    pool = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)(91, cfg.seed)
    T = rb.x_matrix(rb.z_block(model, pool))
    picks, Q = fem.column_pivots(T, E3_RANK_TOL)
    assert np.array_equal(pool[picks], default_e3.interp_params)
    assert np.allclose(Q.T @ Q, np.eye(len(picks)), atol=1e-12)
    rows, _ = fem.column_pivots(Q.T, 0.0)
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
    picks, Q = fem.column_pivots(A, 1e-12)
    assert picks == [2, 1]
    assert np.array_equal(Q, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    picks, Q = fem.column_pivots(A, 0.0)
    assert picks == [2, 1, 3]
    assert np.array_equal(Q[:, 2], [0.0, 0.0, 1.0])


# The benchmark's three configurations: the paper's default raw basis (d =
# 91), the converged orthonormal one (d = 325) and the same at N = 9999.
PIVOT_CONFIGS = {
    "paper-default": {},
    "floors-converged": {"rb_size": 24, "orthonormalize": True, "dependence_tol": 1e-30},
    "large-mesh": {"n_cells": 10000, "rb_size": 12, "orthonormalize": True,
                   "dependence_tol": 1e-30},
}


@pytest.mark.parametrize("name", sorted(PIVOT_CONFIGS))
def test_column_pivots_pick_the_numpy_references_nodes_and_rows(name):
    # On the seed-28 pool of each configuration, and on the pool that the
    # sampler enlarges by 7, the kernel's lane-ordered dots pick the nodes
    # and rows that the BLAS reference picks.
    cfg = rb.ExperimentConfig(**PIVOT_CONFIGS[name])
    sys_ = rb.assemble(cfg.n_cells)
    model, _, _ = rb.greedy_build(sys_, training_grid(cfg), n_max=cfg.rb_size, tol=cfg.tol,
                                  orthonormalize=cfg.orthonormalize,
                                  dependence_tol=cfg.dependence_tol)
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    d = rb.x_dimension(model.n_hat)
    for size in (d, d + 7):
        pool = sampler(size, cfg.seed)
        X = rb.x_matrix(rb.z_block(model, pool))
        picks, Q = fem.column_pivots(X, E3_RANK_TOL)
        expect, Q_ref = _pivoted_gram_schmidt(X, E3_RANK_TOL)
        assert picks == expect, size
        assert fem.column_pivots(Q.T, 0.0)[0] == _pivoted_gram_schmidt(Q_ref.T, 0.0)[0], size


@pytest.mark.parametrize("A, rtol, match", [
    ([[1.0, np.nan], [0.0, 5.0]], 0.0, "A has a non-finite entry"),
    ([[1.0, 2.0], [np.inf, 0.0]], 1e-12, "A has a non-finite entry"),
    ([[1.0, 2.0], [0.0, -np.inf]], 1e-12, "A has a non-finite entry"),
    ([[1.0, 2.0], [3.0, 4.0]], -1e-12, "rtol = -1e-12"),
    ([[1.0, 2.0], [3.0, 4.0]], np.nan, "rtol = nan"),
    ([1.0, 2.0], 0.0, r"A of shape \(2,\) is not a 2-D array"),
    (np.ones((2, 2, 2)), 0.0, r"A of shape \(2, 2, 2\) is not a 2-D array"),
    (3.0, 0.0, r"A of shape \(\) is not a 2-D array"),
])
def test_column_pivots_rejects_what_it_cannot_pivot(A, rtol, match, monkeypatch):
    # A NaN column was numpy argmax's first pick; the entry point now
    # rejects it, and each of the others, before any kernel runs.
    monkeypatch.setattr(fem, "_lib", SimpleNamespace())
    with pytest.raises(ValueError, match=match):
        fem.column_pivots(np.array(A), rtol)


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


@pytest.mark.parametrize("seed", [0, 1, 28, 1009, 2**32 - 1, 2**32, 2**64 + 1, 2**200])
def test_log_uniform_sampler_draws_numpys_generator_bit_for_bit(seed, default_config):
    # numpy's SeedSequence and PCG64 are the oracle: seeds of one to seven
    # 32-bit words cover the pool's padding and its extra entropy words.
    cfg = default_config
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    lo, hi = math.log(cfg.mu_min), math.log(cfg.mu_max)
    for n in (0, 1, 91, 325, 1000):
        oracle = np.exp(np.random.default_rng(seed).uniform(lo, hi, n))
        draws = sampler(n, seed)
        assert draws.dtype == np.float64 and draws.shape == (n,)
        assert draws.tobytes() == oracle.tobytes(), (seed, n)


def test_log_uniform_sampler_draws_are_frozen(default_config):
    # Seed 28's uniform draws in log(mu), before np.exp: integer arithmetic
    # fixed by the seed, so these bits hold under any numpy (NEP 19 does not
    # promise Generator.uniform's stream across releases).  The digest pins
    # the whole floors-converged pool (d = 325), whose first 91 draws are
    # paper-default's.
    lo, hi = math.log(default_config.mu_min), math.log(default_config.mu_max)
    draws = [x.hex() for x in estimators._uniform_draws(lo, hi, 325, 28)]
    assert draws[:4] == [
        "0x1.7897b8cc88007p+2", "0x1.87353b3030d50p+2",
        "0x1.528455e1cad1ep+2", "0x1.c7842a79608b6p-3",
    ]
    assert hashlib.sha256(" ".join(draws).encode()).hexdigest() == (
        "2f33136e0dd247f7f897493f0e55957a69d70816fdcd833114292f7bda36ac88"
    )


def test_log_uniform_sampler_refuses_a_negative_seed():
    sampler = rb.log_uniform_sampler(1.0, 1000.0)
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        sampler(3, -1)
    with pytest.raises(TypeError):
        sampler(3, 1.5)


def test_small_x_layout():
    # Column j of z is (1; x) with x = (gamma[j]; mus[j]*gamma[j]); X's rows
    # are the products z_I*z_J over the pairs I <= J of z, row I = 0 first.
    # The reduced system mu*I gamma = b_hat has gamma = b_hat/mu, exactly.
    model = SimpleNamespace(n_hat=2, A0_hat=np.zeros((2, 2)), A1_hat=np.eye(2),
                            b_hat=np.array([1.0, -4.0]))
    z = np.array([[1.0, 1.0], [0.5, 0.25], [-2.0, -1.0], [1.0, 1.0], [-4.0, -4.0]])
    got = rb.z_block(model, [2.0, 4.0])
    assert np.array_equal(got, z) and got.flags.c_contiguous
    X = rb.x_matrix(z)
    assert X.shape == (rb.x_dimension(2), 2)
    assert np.array_equal(X[:5], z)
    assert np.array_equal(X[5:9], z[1] * z[1:])
    assert np.array_equal(X[-1], z[4] * z[4])


# --- per-point oracle --------------------------------------------------------------
#
# The estimators one mu at a time, in the loop forms the block kernels were
# derived from: the float.hex reference for evaluate, whose one-point blocks
# are the API's per-point evaluation.

FIELDS = ("mu", "true_error", "e1", "e2", "e2_radicand", "e2dd", "e3", "e3_clamped_flag")


def solve_reduced_oracle(model, mu):
    return _lu_solve(_lu_factor(model.A0_hat + mu * model.A1_hat), model.b_hat)


def e1_oracle(sys_, model, mu, gamma):
    """The lane-summed norm of the Riesz vectors' lift with z = (1; gamma;
    mu*gamma), in z's order."""
    z = np.concatenate([[1.0], gamma, mu * gamma])
    g = lift_in_snapshot_order([model.riesz_b, *model.riesz_a0, *model.riesz_a1], z)
    return h1_norm_lanes(sys_, g)


def small_x_oracle(mu, gamma):
    """x_I = alpha_k(mu)*gamma_i: gamma for the a0 block, mu*gamma for a1."""
    return np.concatenate([gamma, mu * gamma])


def x_vector_oracle(mu, gamma):
    """(1; x_I; fl(x_I * x_J) for I <= J in lexicographic order)."""
    x = small_x_oracle(mu, gamma)
    return np.concatenate([[1.0], x, *(x[i] * x[i:] for i in range(x.size))])


def e2_oracle(data, mu, gamma):
    q = data.q_dd[0] + data.q_dd[1]
    radicand = float(sum2(q * x_vector_oracle(mu, gamma)))
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
    """e3 at one point: exact node lookup, else one vector solve with T's LU
    dotted with V left to right."""
    hits = np.nonzero(data.interp_params == mu)[0]
    if hits.size:
        total = float(data.V[hits[0]])
    else:
        total = dot_in_order(_lu_solve(data.lu, x_vector_oracle(mu, gamma)[data.rows]), data.V)
    return math.sqrt(max(total, 0.0)), total < 0.0


def true_error_oracle(sys_, model, mu, gamma):
    u = rb.solve_truth(sys_, mu)
    return h1_norm_lanes(sys_, u - lift_in_snapshot_order(model.snapshots, gamma))


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
    """n_cells=4000, orthonormal basis of 4: one truth chunk on a large mesh."""
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
    # e3 clamps by construction, whatever the BLAS: node 3's V is negated,
    # so its exact lookup is negative, and the interpolated squares move
    # with it.  Whether e3 clamps on its own data is a matter of its noise
    # (under OpenBLAS's Haswell kernel no default point does).
    V = case[3].V.copy()
    V[3] = -V[3]
    case = (*case[:3], dataclasses.replace(case[3], V=V))
    model, e3data = case[1], case[3]
    # Two stored nodes take e3's exact-lookup path; at the snapshot
    # parameters e1 sits on its floor.
    grid = np.geomspace(1.0, 1000.0, 31)
    mus = np.concatenate([grid, e3data.interp_params[[3, -1]], model.snapshot_params])
    reference = [per_point_record(*case, mu) for mu in mus]
    assert any(r["e3_clamped_flag"] for r in reference)
    if request.param == "large_orthonormal":
        assert _SOLVE_ELEMENTS // case[0].n >= len(mus)  # one truth chunk
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


@pytest.fixture(scope="module")
def large_mesh():
    """n_cells=10000, orthonormal basis of 12: the large-mesh benchmark's sizes."""
    cfg = rb.ExperimentConfig(
        n_cells=10000, n_train=30, rb_size=12, orthonormalize=True, dependence_tol=1e-30
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


def test_one_point_blocks_equal_the_large_mesh_block(large_mesh):
    # At N = 9999 a 100-point block runs e1 and the true error across the
    # points, and a one-point block along the mesh in strips: every field
    # of every point has the same bits.
    mus = np.geomspace(1.0, 1000.0, 100)
    block = rb.evaluate(*large_mesh, mus)
    for j, mu in enumerate(mus):
        alone = rb.evaluate(*large_mesh, [mu])
        for name in FIELDS:
            assert [float(alone[name][0]).hex()] == [float(block[name][j]).hex()], (name, mu)


def test_compute_sweep_equals_per_point(evaluation_case):
    case, mus, reference = evaluation_case
    rows = rb.compute_sweep(*case, mus)
    assert_same_bits({name: [getattr(r, name) for r in rows] for name in FIELDS}, reference)


def test_truth_chunks_and_sub_blocks_keep_the_bits(evaluation_case, monkeypatch):
    # 7-point truth chunks with a ragged tail, the norm kernel's passes over
    # 2 points at a time across the points (not along the mesh, which
    # chunks this narrow take by default), so with one point in each
    # chunk's last, and pass budgets that leave one point in each chunk's
    # last pass: over 3 points in the dd sums, then over 2 in e3's solves.
    case, mus, reference = evaluation_case
    n, d, rank = case[0].n, case[3].d, case[3].V.size
    monkeypatch.setattr("rbcert.estimators._SOLVE_ELEMENTS", 7 * n)
    monkeypatch.setattr("rbcert.fem._STRIP_POINTS", 0)
    monkeypatch.setattr("rbcert.fem._NORM_POINTS", 2)
    assert len(mus) > 3 * 7 and len(mus) % 7
    for budget in (3 * d, 2 * rank):
        monkeypatch.setattr("rbcert.fem._BLOCK_ELEMENTS", budget)
        cols = rb.evaluate(*case, mus)
        assert_same_bits({name: cols[name].tolist() for name in FIELDS}, reference)
        rows = rb.compute_sweep(*case, mus)
        assert_same_bits({name: [getattr(r, name) for r in rows] for name in FIELDS}, reference)


def test_sweep_memory_is_bounded(truth, default_model, default_e2, default_e3, default_config):
    # The default 400-point grid is one truth chunk, whose solve holds one
    # (N, 400) array (0.64 MB); the norm kernel reads it with a few doubles
    # of scratch a point and the other kernels read z in passes of bounded
    # scratch: 0.81 MB traced, z of the chunk included, against 1.07 MB with
    # two 90-point row buffers.
    mus = sweep_grid(default_config)
    tracemalloc.start()
    try:
        rb.compute_sweep(truth, default_model[0], default_e2, default_e3, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_wide_sweep_scratch_does_not_grow_with_the_block(floors_config, floors_artifact):
    # 3000 points at d = 325 are one truth chunk, whose solve holds one
    # (N, 3000) array (4.8 MB), beside z (0.6 MB).  The dd sums and e3's
    # solves run in passes of fem._BLOCK_ELEMENTS columns: 7.15 MB traced,
    # against 22.7 MB if the dd terms of the whole chunk were held at once,
    # and 15 MB if its monomial matrix X were.
    sys_, model, e2data, e3data, _ = rb.load_artifact(floors_artifact, floors_config)
    assert e3data.d == 325
    mus = sweep_grid(dataclasses.replace(floors_config, n_sweep=3000))
    assert estimators._SOLVE_ELEMENTS // sys_.n >= len(mus)
    tracemalloc.start()
    try:
        rb.compute_sweep(sys_, model, e2data, e3data, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


@pytest.mark.parametrize("misfit", ["short", "long", "1-d"])
def test_e1_block_rejects_a_z_that_does_not_fit(misfit, truth, default_model):
    # The 13 Riesz vectors of a basis of 6 against a z of 9 or 14 rows, or
    # one point's z as a 1-D array.
    model, _ = default_model
    z = rb.z_block(model, [50.0])
    z = {
        "short": z[:9],
        "long": np.append(z, [[0.0]], axis=0),
        "1-d": z[:, 0],
    }[misfit]
    with pytest.raises(ValueError, match="do not fit"):
        _e1_block(truth, model, z)


@pytest.mark.parametrize("mus, match", [
    ([math.nan], "mu = nan outside"), ([math.inf], "mu = inf outside"),
    ([0.5], "mu = 0.5 outside"), (50.0, re.escape("shape ()")),
], ids=["nan", "inf", "below-one", "scalar"])
def test_z_block_rejects_parameters_outside_the_domain(mus, match, default_model):
    # z takes its parameters as evaluate does: a 1-D block of mu in [1, inf).
    model, _ = default_model
    with pytest.raises(ValueError, match=match):
        rb.z_block(model, mus)


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
        rb.z_block(model, [bad])
    with pytest.raises(ValueError):
        analytic_solution(bad, 0.5)
    with pytest.raises(ValueError):
        rb.evaluate(truth, model, default_e2, default_e3, [2.0, bad])


# --- E2 build: block pass against the per-pair reference ---------------------

def per_pair_e2_data(sys_, model):
    """q_dd from one h1_inner_dd call per pair of Riesz vectors, each pair
    once: h1_inner_dd(u, v) with v the later inserted of the two (the
    table's order riesz_b, a0_0, a1_0, a0_1, ...), in z's order I <= J,
    F itself on the diagonal and exactly 2*F off it."""
    z = [model.riesz_b, *model.riesz_a0, *model.riesz_a1]
    n = model.n_hat
    inserted = [0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]
    qh, ql = [], []
    for i, j in zip(*np.triu_indices(len(z))):
        u, v = sorted((i, j), key=inserted.__getitem__)
        h, l = h1_inner_dd(sys_, z[u], z[v])
        qh.append(h if i == j else 2.0 * h)
        ql.append(l if i == j else 2.0 * l)
    return np.array(qh), np.array(ql)


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


@pytest.mark.parametrize("case", ["default", "small_orthonormal", "single_dof", "empty"])
def test_e2_build_equals_per_pair(case, request, truth, default_model, default_e2):
    if case == "default":
        sys_, model, e2data = truth, default_model[0], default_e2
    elif case == "empty":  # riesz_b alone: q = (delta^2,), the greedy's first growth
        sys_, model = truth, ReducedModel(truth)
        e2data = build_e2_data(sys_, model)
    else:
        sys_, model, e2data = request.getfixturevalue(case)[:3]
    assert_e2_data_is_per_pair(e2data, sys_, model)


def grown_in_steps(sys_, model, snapshots_per_growth, start=None):
    """The model's E2Data from one E2Table grown over prefixes of its basis,
    snapshots_per_growth snapshots at a time, from a prefix of start
    snapshots if given (0: the empty model, as the greedy grows it)."""
    table = estimators.E2Table(sys_)
    first = [] if start is None else [start]
    for end in [*first, *range(snapshots_per_growth, model.n_hat + snapshots_per_growth,
                               snapshots_per_growth)]:
        n = min(end, model.n_hat)
        prefix = SimpleNamespace(
            n_hat=n,
            riesz_b=model.riesz_b,
            riesz_a0=model.riesz_a0[:n],
            riesz_a1=model.riesz_a1[:n],
        )
        data = table.grow(prefix)
    return data


@pytest.mark.parametrize("snapshots_per_growth, start", [
    pytest.param(1, None, id="1"), pytest.param(7, None, id="7"),
    pytest.param(1, 0, id="1-from-empty"), pytest.param(7, 0, id="7-from-empty"),
])
def test_e2_build_chunking_is_bit_identical(snapshots_per_growth, start, truth, default_model):
    # N_hat = 6: six growths of one snapshot, or the whole basis in one,
    # each also after a growth on the empty model (riesz_b alone), as the
    # greedy grows it.
    model = default_model[0]
    assert model.n_hat == 6
    grown = grown_in_steps(truth, model, snapshots_per_growth, start)
    assert_e2_data_is_per_pair(grown, truth, model)


@pytest.mark.parametrize("snapshots_per_growth", [1, 7])
def test_greedy_e2_data_equals_per_pair(snapshots_per_growth, greedy_case):
    # The greedy grows E2's table two Riesz vectors per snapshot; a table
    # grown over its basis in steps of 1 or 7 snapshots holds the same bits.
    sys_, training, kwargs = greedy_case
    model, _, e2data = rb.greedy_build(sys_, training, **kwargs)
    assert_e2_data_is_per_pair(e2data, sys_, model)
    regrown = grown_in_steps(sys_, model, snapshots_per_growth)
    assert [a.tobytes() for a in regrown.q_dd] == [a.tobytes() for a in e2data.q_dd]


def test_each_growth_is_one_kernel_call(truth, monkeypatch):
    # One snapshot at a time, as the greedy grows the table, and three at
    # once into a fresh table; a growth with nothing new calls nothing.
    # Each call computes the pairs of the new vectors alone: 3 + 5 for
    # (a0, a1) joining riesz_b, then 5 + 7 and 7 + 9.
    calls = []

    def counted(sys_, vectors, k0):
        calls.append((len(vectors), k0))
        return dd_gram_table(sys_, vectors, k0)

    monkeypatch.setattr(estimators, "dd_gram_table", counted)
    model, table = ReducedModel(truth), estimators.E2Table(truth)
    for k, mu in zip((3, 5, 7), (1.0, 10.0, 100.0)):
        add_snapshot(model, truth, mu)
        calls.clear()
        data = table.grow(model)
        assert calls == [(k, 0 if k == 3 else k - 2)], mu
        assert table.F.shape == (2, k * (k + 1) // 2)
    calls.clear()
    table.grow(model)
    assert calls == []
    fresh = estimators.E2Table(truth).grow(model)
    assert calls == [(7, 0)]
    assert [a.tobytes() for a in fresh.q_dd] == [a.tobytes() for a in data.q_dd]


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


def gram_table_oracle(sys_, vectors):
    """fem.dd_gram_table's (2, p) entries for k0 = 0 from the allocating
    route: for each v = vectors[j], Gram*v by dd_gram_matvec_oracle, dotted
    with vectors[i], i <= j, by dd_dot_oracle."""
    hi, lo = [], []
    for j in range(len(vectors)):
        wh, wl = dd_gram_matvec_oracle(sys_, vectors[j][None])
        for i in range(j + 1):
            h, l = dd_dot_oracle(vectors[i][:, None], wh.T, wl.T)
            hi.append(h[0])
            lo.append(l[0])
    return np.array([hi, lo]).reshape(2, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1001])
def test_dd_dots_equal_the_allocating_route_bit_for_bit(n):
    # E2's dd dots u.(Gram*v) for every pair of twelve vectors with +-0.0,
    # subnormals and exactly representable products among ordinary values
    # (special_stacks' u and wh columns): all at once, grown from k0 on,
    # one vector alone and some in another order.
    u, wh, _ = special_stacks(n, seed=n)
    sys_ = rb.assemble(n + 1)
    vectors = columns(u) + columns(wh)
    ref = gram_table_oracle(sys_, vectors)
    assert hexes(dd_gram_table(sys_, vectors, 0)) == hexes(ref)
    for k0 in (1, 5, 11, 12):
        assert hexes(dd_gram_table(sys_, vectors, k0)) == hexes(ref[:, k0 * (k0 + 1) // 2:]), k0
    for pick in ([3], [5, 3, 0]):
        sub = [vectors[j] for j in pick]
        assert hexes(dd_gram_table(sys_, sub, 0)) == hexes(gram_table_oracle(sys_, sub))


@pytest.mark.parametrize("n", [*range(1, 10), 600, 9999])
def test_dd_kernels_write_nothing_past_their_buffers(n):
    # The table writes p entries of each half of out and its 4n scratch
    # entries: Gram*v's two parts, then the dots' terms and the tree over
    # them.  Each buffer is passed with NaN guards on both sides, which
    # must survive, for growths from k0 = 0, 1, k - 1 and k (nothing new),
    # while the results equal the allocating route's.  n = 1..9 spans
    # trees of every shape up to four levels.
    pad = 7
    u, wh, wl = special_stacks(n, seed=100 + n)
    sys_ = rb.assemble(n + 1)
    vectors = columns(u)
    k, ref = len(vectors), gram_table_oracle(sys_, vectors)
    table = np.array([v.ctypes.data for v in vectors], dtype=np.uintp)
    for k0 in (0, 1, k - 1, k):
        p = (k * (k + 1) - k0 * (k0 + 1)) // 2
        out, scratch = np.full(2 * p + 2 * pad, np.nan), np.full(4 * n + 2 * pad, np.nan)
        fem._lib.dd_gram_table(
            n, k0, k, sys_.Gram.diag, sys_.Gram.off, table.ctypes.data,
            out[pad:].ctypes.data, scratch[pad:].ctypes.data,
        )
        for buf, size in ((out, 2 * p), (scratch, 4 * n)):
            assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all(), k0
        got = out[pad:pad + 2 * p].reshape(2, p)
        assert hexes(got) == hexes(ref[:, k0 * (k0 + 1) // 2:]), k0

    # The radicands write the 3*6 doubles of their sums and roots, and
    # 2*d*4 doubles of scratch, in passes over four columns and then two: z
    # is six columns of min(n, 30) rows, with d = k(k+1)/2 monomials, and
    # q_dd the rows of u and wl repeated to d.
    k = min(n, 30)
    d = k * (k + 1) // 2
    qh, ql, z = np.resize(u[:, 5], d), np.resize(wl[:, 5], d), u[:k].copy()
    out, scratch = np.full(18 + 2 * pad, np.nan), np.full(8 * d + 2 * pad, np.nan)
    clamps = fem._lib.dd_radicands(
        k, 6, qh.ctypes.data, ql.ctypes.data, z.ctypes.data, out[pad:].ctypes.data, 4,
        scratch[pad:].ctypes.data,
    )
    for buf, size in ((out, 18), (scratch, 8 * d)):
        assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all()
    i, j = np.triu_indices(k)
    expect = dd_sum(*dd_mul((qh[:, None], ql[:, None]), two_prod(z[i], z[j])))
    root, clamped = dd_root(*expect)
    assert hexes(out[pad:pad + 18].reshape(3, 6)) == hexes(np.array([*expect, root]))
    assert clamps == clamped.sum()


def test_e2_build_holds_no_per_operation_temporaries():
    # The compiled kernel allocates nothing: a growth holds the kernel's 4N
    # doubles of scratch (one dd Gram product and one dot's terms) and
    # arrays of the size of the table, and the table keeps no dd product.
    # At n_cells = 4000 the traced peak of the build is 131,097 bytes with
    # N_hat = 4 and 132,145 with N_hat = 6 (653,157 and 916,335 when the
    # table kept every vector's dd product).  The bound is nine arrays of
    # 2**16 doubles, 4,718,592 bytes.
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
        assert peak <= 4_718_592, n_hat


@pytest.mark.parametrize("n_cells", [2, 3, 200])
def test_dd_gram_matvec_equals_the_allocating_route_bit_for_bit(n_cells):
    # The table's Gram*v in double-double, seen through its dots, alone and
    # in a list, for random rows, rows near underflow, alternating signs
    # (the dd sums cancel) and Gram's own diagonal.
    sys_ = rb.assemble(n_cells)
    n = sys_.n
    rng = np.random.default_rng(n_cells)
    V = np.vstack([
        rng.normal(size=(3, n)),
        np.cos(np.arange(n)) * 1e-300,
        (-1.0) ** np.arange(n),
        np.full(n, sys_.Gram.diag / 3.0),
    ])
    for rows in (range(len(V)), [4], [5, 0]):
        sub = [V[r] for r in rows]
        assert hexes(dd_gram_table(sys_, sub, 0)) == hexes(gram_table_oracle(sys_, sub))


# --- the compiled row kernels of e1 and the H1 norms against numpy --------------

def special_rows(k, n, seed):
    """A (k, n) array of ordinary values with signed zeros and values near
    underflow at random entries, and row k // 2 of alternating signs."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-6, 6, size=(k, n))
    specials = np.array([0.0, -0.0, 2.0**-1020, -(2.0**-1021), 5e-324])
    pick = rng.uniform(size=(k, n)) < 0.3
    rows[pick] = rng.choice(specials, size=pick.sum())
    rows[k // 2] = (-1.0) ** np.arange(n) * rng.uniform(1.0, 2.0)
    return rows


def hex_list(a):
    return [x.hex() for x in np.ravel(a).tolist()]


def norm_hexes(sums):
    """float.hex of the norms of a norm kernel's raw sums, as its wrapper takes them."""
    return hex_list(np.sqrt(np.maximum(sums, 0.0)))


def t_units(T, vectors):
    """The (N,) vectors over their norms in T's inner product, a zero-norm
    one as it is, so that Gram-Schmidt over them keeps v bounded."""
    A = TridiagonalArrays.of(T, len(vectors[0]))
    norms = [math.sqrt(math.fsum(x * A.matvec(x))) for x in vectors]
    return [x / s if s > 0.0 else x for x, s in zip(vectors, norms)]


def lifts(vectors, coefficients):
    """The lift of the vectors in their order (lift_in_snapshot_order) for
    each column of coefficients, one row per vector."""
    return np.array([lift_in_snapshot_order(list(vectors), c) for c in np.transpose(coefficients)])


@pytest.mark.parametrize("n_hat", [1, 2, 5, 12])
@pytest.mark.parametrize("n", [1, 2, 199, 513, 9999])
def test_row_kernels_equal_the_numpy_forms_bit_for_bit(n, n_hat, monkeypatch):
    # N_hat = 1 makes the true error's lift one snapshot.  e1's norm at each
    # point is the lane-summed norm of the Riesz vectors' lift with z =
    # (1; gamma; mu*gamma), in z's order, and the true error's that of U's
    # column less the lift of the snapshots in their order: in a block,
    # each point alone, both along the mesh (lift_norms_strips, which the
    # entry point picks for so few points) and across the points in one
    # pass and in passes of 3 points, the last one ragged.
    # Without U the kernel gives the lift's norm, bit for bit that of U = 0
    # less the lift.  With Gram, K and M, the dots of the other lifts, over
    # their T-norms, with T times the first, that lift after zero and two
    # Gram-Schmidt sweeps and its product equal the lane reference's.
    sys_ = rb.assemble(n + 1)
    vectors = list(special_rows(2 * n_hat + 1, n, seed=n + n_hat))
    mus, gamma = np.array([1.0, 3.0, 1e3, 0.5]), special_rows(4, n_hat, seed=n * n_hat)
    z = z_of(mus, gamma)
    U = np.ascontiguousarray(special_rows(4, n, seed=1000 + n + n_hat).T)
    snapshots, coefficients = vectors[:n_hat], np.ascontiguousarray(gamma.T)
    G = lifts(vectors, z)
    cases = [
        (vectors, z, None, G),
        (vectors, z, np.zeros((n, 4)), G),
        (snapshots, coefficients, U, U.T - lifts(snapshots, coefficients)),
    ]
    for vs, c, u, residuals in cases:
        expect = hex_list([h1_norm_lanes(sys_, g) for g in residuals])
        alone = [lift_norms(sys_, vs, c[:, [j]], None if u is None else u[:, [j]])
                 for j in range(4)]
        assert hex_list(lift_norms(sys_, vs, c, u)) == hex_list(alone) == expect
        with monkeypatch.context() as patch:
            patch.setattr(fem, "_STRIP_POINTS", 0)
            assert hex_list(lift_norms(sys_, vs, c, u)) == expect
            patch.setattr(fem, "_NORM_POINTS", 3)
            assert hex_list(lift_norms(sys_, vs, c, u)) == expect
    for T in (sys_.Gram, sys_.K, sys_.M):
        xs = t_units(T, G[1:])
        for passes in (0, 2):
            v, w = G[0].copy(), np.empty(n)
            dots = fem.tridiagonal_project(T, xs, v, passes, w)
            expect = project_in_lanes(T, xs, G[0], passes)
            assert [hex_list(a) for a in (dots, v, w)] == [hex_list(a) for a in expect], T


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, fem._NORM_STRIP - 1, fem._NORM_STRIP,
                               fem._NORM_STRIP + 1, 9999])
def test_strip_kernel_equals_the_numpy_forms_and_writes_nothing_past_its_buffers(n):
    # lift_norms_strips, for every m from 1 to 9 points, writes m sums into
    # out and s + m(s + 10) doubles of scratch, in strips of s rows: the
    # entry point's, and 8, for many strip edges at small n.  Without U
    # (e1: five Riesz vectors with z for N_hat = 2) and with it (the true
    # error: U less the first two vectors' lift), each norm equals the lane
    # reference's of the lift reference's, and NaN guards on both sides of
    # out and scratch survive.
    pad = 7
    sys_ = rb.assemble(n + 1)
    vectors = special_rows(5, n, seed=1300 + n)
    table = np.array([v.ctypes.data for v in vectors], dtype=np.uintp)
    for m in range(1, 10):
        mus, gamma = np.geomspace(1.0, 1e3, m), special_rows(m, 2, seed=1400 + n + m)
        z, coefficients = z_of(mus, gamma), np.ascontiguousarray(gamma.T)
        U = np.ascontiguousarray(special_rows(m, n, seed=1500 + n + m).T)
        cases = ((None, z, lifts(vectors, z)),
                 (U, coefficients, U.T - lifts(vectors[:2], coefficients)))
        for u, c, residuals in cases:
            expect = hex_list([h1_norm_lanes(sys_, g) for g in residuals])
            for s in (8, fem._NORM_STRIP):
                size = s + m * (s + 10)
                out, scratch = (np.full(k + 2 * pad, np.nan) for k in (m, size))
                fem._lib.lift_norms_strips(
                    n, m, len(c), table.ctypes.data, None if u is None else u.ctypes.data,
                    c.ctypes.data, sys_.Gram.diag, sys_.Gram.off, out[pad:].ctypes.data, s,
                    scratch[pad:].ctypes.data,
                )
                for buf, k in zip((out, scratch), (m, size)):
                    assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + k:]).all(), (m, s)
                assert norm_hexes(out[pad:pad + m]) == expect, (m, s, u is None)


@pytest.mark.parametrize("n_hat", [1, 3])
@pytest.mark.parametrize("n", [*range(1, 10), 600])
def test_row_kernels_write_nothing_past_their_buffers(n, n_hat):
    # lift_norms writes m sums into out and 12p doubles of scratch, p = 2
    # leaving a last pass over one point, without U (e1) and with it (the
    # true error); tridiagonal_project writes k dots, and T*v into w, and
    # with Gram-Schmidt over the other lifts v too, with Gram's, K's and
    # M's rows.  NaN guards on both sides of each must survive, while the
    # results equal the numpy forms'.
    pad, k, p = 7, 3, 2
    sys_ = rb.assemble(n + 1)
    vectors = special_rows(2 * n_hat + 1, n, seed=200 + n)
    table = np.array([v.ctypes.data for v in vectors], dtype=np.uintp)
    mus, gamma = np.array([1.0, 7.5, 300.0]), special_rows(k, n_hat, seed=300 + n)
    z, coefficients = z_of(mus, gamma), np.ascontiguousarray(gamma.T)
    U = np.ascontiguousarray(special_rows(k, n, seed=400 + n).T)
    G = lifts(vectors, z)
    errors = U.T - lifts(vectors[:n_hat], coefficients)
    for u, c, residuals in ((None, z, G), (U, coefficients, errors)):
        out, scratch = (np.full(size + 2 * pad, np.nan) for size in (k, 12 * p))
        fem._lib.lift_norms(
            n, k, len(c), table.ctypes.data, None if u is None else u.ctypes.data, c.ctypes.data,
            sys_.Gram.diag, sys_.Gram.off, out[pad:].ctypes.data, p, scratch[pad:].ctypes.data,
        )
        for buf, size in zip((out, scratch), (k, 12 * p)):
            assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all()
        expect = hex_list([h1_norm_lanes(sys_, g) for g in residuals])
        assert norm_hexes(out[pad:pad + k]) == expect

    for T in (sys_.Gram, sys_.K, sys_.M):
        xs = t_units(T, G[1:])
        rows = np.array([x.ctypes.data for x in xs], dtype=np.uintp)
        for passes in (0, 2):
            v, w, out = (np.full(size + 2 * pad, np.nan) for size in (n, n, k))
            v[pad:pad + n] = G[0]
            fem._lib.tridiagonal_project(n, k - 1, T.diag, T.off, rows.ctypes.data,
                                         v[pad:].ctypes.data, passes, w[pad:].ctypes.data,
                                         out[pad:].ctypes.data)
            for buf, size in zip((v, w, out), (n, n, k)):
                assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all(), T
            got = [hex_list(a[pad:pad + size]) for a, size in zip((out, v, w), (k, n, n))]
            assert got == [hex_list(a) for a in project_in_lanes(T, xs, G[0], passes)], T


def sum2_oracle(q, z):
    """sum2 of the rounded products q_p*X_p, X_p = z_I*z_J rounded over the
    pairs I <= J of z's rows, column by column.  Products and sums that
    overflow are part of the cases."""
    i, j = np.triu_indices(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        return sum2(q[:, None] * (z[i] * z[j]))


def terms_as_columns(columns):
    """(q', z) for each column of terms t_p, one kernel call's inputs: z is
    one column of ones, whose products z_I*z_J = 1 make every term t_p*1 =
    t_p exactly, so the kernel sees all d terms, whatever their magnitudes;
    q' pads t with -0.0, which adds nothing, to k(k+1)/2 pairs."""
    for terms in columns:
        d = len(terms)
        k = next(k for k in range(1, d + 1) if k * (k + 1) // 2 >= d)
        yield np.concatenate([terms, np.full(k * (k + 1) // 2 - d, -0.0)]), np.ones((k, 1))


def assert_sum2_columns_is_sum2(q, X):
    """sum2_columns sums the d rounded products t_p = q_p*X[p, j] of each
    column j of X with sum2's bits, each column in one call
    (terms_as_columns)."""
    q, X = np.ascontiguousarray(q, dtype=float), np.ascontiguousarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [q * column for column in X.T]
    for padded, z in terms_as_columns(columns):
        assert hex_list(sum2_columns(padded, z)) == hex_list(sum2_oracle(padded, z))


def sum2_cases(d, seed):
    """(q, X) pairs with d rows: ordinary products with signed zeros and
    values near underflow; signed zeros, all -0.0 and products that
    underflow to zero; subnormal multiples of 5e-324, exact and rounded;
    and cancellation across the exponent range, +-2**1000 beside
    +-2**-1000."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(d, 4))
    ones = np.ones(d)
    ranged = rng.uniform(1.0, 2.0, size=(d, 3)) * 2.0 ** rng.integers(-1074, 1001, size=(d, 3))
    ranged[:, 0] = np.resize([2.0 ** 1000, 2.0 ** -1000, -(2.0 ** 1000), -3 * 2.0 ** -1000], d)
    ranged[d // 2:, 1] = -ranged[:d - d // 2, 1]    # pairs cancel; an odd d leaves one
    zeros = [np.zeros(d), -np.zeros(d), signs[:, 0] * 0.0,
             np.where(signs[:, 1] > 0, 0.0, signs[:, 2])]
    return [
        (special_rows(1, d, seed)[0], special_rows(5, d, seed + 1).T),
        (ones, np.stack(zeros, axis=1)),
        (signs[:, 3] * 1e-200, signs[:, :3] * [1e-200, 1e-170, 1e-123]),
        (ones, rng.integers(-2 ** 40, 2 ** 40, size=(d, 2)) * 5e-324),
        (np.full(d, 0.5), rng.integers(-2 ** 40, 2 ** 40, size=(d, 2)) * 5e-324),
        (rng.choice([1.0, -3.0, 0.75], size=d), ranged),
    ]


@pytest.mark.parametrize("d", [1, 2, 91, 325, 5000])
def test_sum2_columns_is_sum2_bit_for_bit(d):
    for seed in range(3):
        for q, X in sum2_cases(d, seed=10 * d + seed):
            assert_sum2_columns_is_sum2(q, X)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=40))
def test_sum2_columns_is_sum2_on_any_doubles(rows):
    q, x, y = (np.array(v) for v in zip(*rows))
    assert_sum2_columns_is_sum2(q, np.stack([x, y], axis=1))


@st.composite
def q_and_z(draw):
    """q any doubles and z of k <= 8 rows and two columns whose entries stay
    below 2**511, so that every product z_I*z_J is finite."""
    k = draw(st.integers(1, 8))
    q = draw(st.lists(st.floats(), min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2))
    z = draw(st.lists(st.floats(-(2.0 ** 511), 2.0 ** 511), min_size=2 * k, max_size=2 * k))
    return np.array(q), np.array(z).reshape(k, 2)


@settings(max_examples=400, deadline=None)
@given(q_and_z())
def test_sum2_columns_forms_the_pair_products_it_sums(case):
    # The kernel's own products q_p*(z_I*z_J), over the pairs I <= J in
    # lexicographic order, against sum2 of the same rounded products.
    q, z = case
    assert hex_list(sum2_columns(q, z)) == hex_list(sum2_oracle(q, z))


def test_sum2_columns_is_not_finite_past_its_range():
    # A NaN or an infinite product, or a running sum that overflows, gives
    # a non-finite radicand, as in e2dd's kernel, whatever follows it.
    rng = np.random.default_rng(5)
    heads = ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 2.0], [math.inf, -math.inf],
             [1.7e308, 1.7e308, -1.7e308])
    for head in heads:
        for d in (len(head), 325):
            column = np.concatenate([head, rng.normal(size=d - len(head))])
            for q, z in terms_as_columns([column]):
                assert not np.isfinite(sum2_columns(q, z)).any(), head


def with_leading_ones(q, X):
    """(q', z) for the d terms q_p*X[p, j] of each column j of X: z = (1; X),
    whose pairs (0, J), J >= 1, carry X's rows, q' = q at those pairs and 0
    at the others.  Those terms are zeros where the products of X's entries
    are finite."""
    d, m = np.shape(X)
    z = np.concatenate([np.ones((1, m)), X])
    q_full = np.zeros((d + 1) * (d + 2) // 2)
    q_full[1:d + 1] = q
    return q_full, z


# The first three q_p and X_p of a column past the kernel's range, and
# whether Sum2 keeps it finite: the products are those of a NaN, an
# infinity, an overflowing product, an intermediate overflow, and finite
# sums near overflow.  Large magnitudes sit in q, so that with_leading_ones
# keeps the products of X's entries finite.
SPECIAL_COLUMNS = {
    "nan": ([1.0, 1.0, 1.0], [1.0, math.nan, 2.0], False),
    "inf": ([1.0, 1e300, 1.0], [1.0, 1e10, -2.0], False),
    "-inf": ([1e300, 1e300, -1e300], [-1e10, 1.0, 1.0], False),
    "inf - inf": ([1e300, 1.0, 1e300], [1e10, 1.0, -1e10], False),
    "overflowing product": ([1e300, 1.0, 1.0], [1e10, 1.0, -1.0], False),
    "intermediate overflow": ([1.7e308, 1.7e308, -1.7e308], [1.0, 1.0, 1.0], False),
    "near overflow, finite": ([2.0 ** 1020, -(2.0 ** 1020), 1.0], [1.0, 1.0, 1.0], True),
    "largest finite sum": ([1.7e308, 1e292, -1e292], [1.0, 1.0, 1.0], True),
}


@pytest.mark.parametrize("d", [3, 325])
@pytest.mark.parametrize("name", sorted(SPECIAL_COLUMNS))
def test_sum2_columns_gives_sum2s_value_on_special_columns(name, d):
    # A column past the kernel's range, beside ordinary columns on either
    # side in one call, which are 0 where q is special: sum2's bits, finite
    # or not as the column's running sums are, and the ordinary columns
    # untouched by it.
    rng = np.random.default_rng(d)
    q, X = rng.normal(size=d), rng.normal(size=(d, 3))
    head_q, head_x, finite = SPECIAL_COLUMNS[name]
    q[:3], X[:3] = head_q, 0.0
    X[:3, 1] = head_x
    assert_sum2_columns_is_sum2(q, X)
    for columns in (X, X[:, 1:2]):
        q_full, z = with_leading_ones(q, columns)
        i, j = np.triu_indices(len(z))
        with np.errstate(invalid="ignore"):
            assert not np.isinf(z[i] * z[j]).any()
        out = sum2_columns(q_full, z)
        assert hex_list(out) == hex_list(sum2_oracle(q_full, z))
        assert np.isfinite(out[0 if columns.shape[1] == 1 else 1]) == finite
    ordinary = sum2_columns(*with_leading_ones(q, X[:, ::2].copy()))
    assert np.isfinite(ordinary).all()
    assert hex_list(ordinary) == hex_list(sum2_columns(*with_leading_ones(q, X))[::2])


def assert_sum2_columns_is_sum2_within_its_bound(columns):
    """sum2_columns has sum2's bits on each column of terms, in one call
    each (terms_as_columns), and meets Sum2's bound on it."""
    for column, (q, z) in zip(columns, terms_as_columns(columns)):
        total = sum2_columns(q, z)
        assert hex_list(total) == hex_list(sum2_oracle(q, z))
        assert_within_sum2s_bound(column, float(total[0]))


@pytest.mark.parametrize("d", [2, 3, 91, 325])
def test_sum2_columns_is_sum2_on_every_tie(d):
    # An exact sum on a half-ulp tie: s + c rounds it half to even, after
    # the error terms of the cancelling pairs have gone into c.  a's last
    # bit is odd and even, a power of two among them, the tie whole or
    # split in two, among cancelling pairs.
    rng = np.random.default_rng(d)
    columns = []
    randoms = rng.uniform(1.0, 2.0, size=6) * 2.0 ** rng.integers(-900, 900, size=6)
    for a in (1.0 + 2.0 ** -52, 1.5, 3.0 * 2.0 ** 700, 1.25 * 2.0 ** -700, 1.0, *randoms.tolist()):
        half = math.ulp(a) / 2
        split = [[a, half / 2, half / 2]] if d > 2 else []
        for tie in [[a, half], [-a, -half], *split]:
            terms = tie + [0.0] * (d - len(tie))
            for i in range(len(tie), d - 1, 2):
                x = rng.normal() * 2.0 ** int(rng.integers(-900, 900))
                terms[i:i + 2] = [x, -x]
            columns.append(rng.permutation(np.array(terms)) if d > 3 else np.array(terms))
    assert_sum2_columns_is_sum2_within_its_bound(columns)


@pytest.mark.parametrize("d", [2, 91, 325])
def test_sum2_columns_is_sum2_on_zero_subnormal_and_huge_sums(d):
    # A zero sum, a subnormal one, and terms near 2**1023 whose sum stays
    # finite, beside the cancelling pairs that fill each column to d.
    rng = np.random.default_rng(d)
    big = 2.0 ** 1023
    heads = ([1.5, -1.5], [2.0 ** -1021, -(2.0 ** -1021 - 2.0 ** -1070)], [0.0, 5e-324],
             [big * 0.75, 0.5], [-big, big * 0.5], [big * 0.875, -(big * 0.875)])
    columns = []
    for head in heads:
        fill = rng.normal(size=(d - 2) // 2) * 2.0 ** 100
        columns.append(np.array(head + [0.0] * (d % 2)
                                + [x for v in fill.tolist() for x in (v, -v)])[:d])
    assert_sum2_columns_is_sum2_within_its_bound(columns)


def test_sum2_columns_rejects_what_it_cannot_sum():
    # A strided or float32 z is refused by name, as test_fem checks q.
    for z in (np.ones((2, 4))[:, ::2], np.ones((2, 2), dtype=np.float32)):
        with pytest.raises(TypeError, match="z is not a C-contiguous float64 array"):
            sum2_columns(np.ones(3), z)
    with pytest.raises(ValueError, match="do not fit"):
        sum2_columns(np.ones(3), np.ones((3, 2)))


def sweep_columns(model, e2data, config):
    """(q, z) of every point of config's sweep grid on model."""
    mus = sweep_grid(config)
    return rb.q_coefficients(e2data), rb.z_block(model, mus)


def test_sum2_columns_is_sum2_on_every_sweep_column(default_model, default_e2, default_config,
                                                    floors_config, floors_artifact):
    # The default (d = 91) and converged (d = 325) sweeps, the deepest
    # cancellation at the floor, through the wrapper in one call each.
    _, model, e2data, _, _ = rb.load_artifact(floors_artifact, floors_config)
    for q, z in (sweep_columns(default_model[0], default_e2, default_config),
                 sweep_columns(model, e2data, floors_config)):
        assert hex_list(sum2_columns(q, z)) == hex_list(sum2_oracle(q, z))


def ulps_of_1074(x: float) -> int:
    """x, a finite double, as the integer x*2**1074."""
    num, den = x.as_integer_ratio()
    return num * (2 ** 1074 // den)


def assert_within_sum2s_bound(terms, total: float):
    """|total - S| <= u|S| + gamma_{d-1}**2 * sum|t_p| exactly, for the d
    terms t_p and their exact sum S, u = 2**-53 and gamma_n = nu/(1 - nu):
    Sum2's bound (Ogita, Rump and Oishi, Proposition 4.5)."""
    t = [ulps_of_1074(x) for x in terms.tolist()]
    S, nu = sum(t), Fraction(len(t) - 1, 2 ** 53)
    bound = Fraction(abs(S), 2 ** 53) + (nu / (1 - nu)) ** 2 * sum(map(abs, t))
    assert abs(ulps_of_1074(total) - S) <= bound, (total, float(Fraction(S, 2 ** 1074)))


def test_sum2_columns_meets_sum2s_bound(floors_config, floors_artifact):
    # Every converged sweep column, all on the plateau where the radicand is
    # rounding noise around zero (d = 325), and columns of terms of either
    # sign from 2**-1074 to 2**1000, some among pairs that cancel exactly.
    _, model, e2data, _, _ = rb.load_artifact(floors_artifact, floors_config)
    q, z = sweep_columns(model, e2data, floors_config)
    i, j = np.triu_indices(len(z))
    terms = q[:, None] * (z[i] * z[j])
    for column, total in zip(terms.T, sum2_columns(q, z).tolist()):
        assert_within_sum2s_bound(column, total)
    rng = np.random.default_rng(325)
    for d in (2, 91, 325, 5000):
        for _ in range(8):
            column = rng.choice([-1.0, 1.0], size=d) * rng.uniform(1.0, 2.0, size=d) \
                * 2.0 ** rng.integers(-1074, 1001, size=d)
            column[d // 2:] = np.where(rng.uniform(size=d - d // 2) < 0.5,
                                       -column[:d - d // 2], column[d // 2:])
            column = rng.permutation(column)
            for padded, ones in terms_as_columns([column]):
                assert_within_sum2s_bound(column, float(sum2_columns(padded, ones)[0]))


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
def test_sum2_columns_writes_nothing_past_its_buffer(m):
    # The kernel keeps its running sums on its stack, in passes of 64
    # columns, and writes the m doubles of out: -inf guards on both sides,
    # a value it never writes, must survive, and out holds sum2's bits.
    pad, rng = 7, np.random.default_rng(m)
    q, z = rng.normal(size=21), rng.normal(size=(6, m))
    out = np.full(m + 2 * pad, -np.inf)
    fem._lib.sum2_columns(6, m, q.ctypes.data, z.ctypes.data, out[pad:].ctypes.data)
    assert np.isneginf(out[:pad]).all() and np.isneginf(out[pad + m:]).all()
    assert hex_list(out[pad:pad + m]) == hex_list(sum2_oracle(q, z))


# --- the compiled LU against the numpy LU ------------------------------------

def lu_stack(r, m, seed):
    """(A, b): m matrices r x r of special_rows plus 4*I, whose pivots are
    not zero, and one right-hand side of r special values."""
    A = special_rows(m * r, r, seed).reshape(m, r, r) + 4.0 * np.eye(r)
    return A, special_rows(1, r, seed + 1)[0]


def lu_oracle(A, b):
    """hex lists of each matrix's _lu_factor factors, its permutation and
    its _lu_solve solution for b."""
    factors = [_lu_factor(a) for a in A]
    return ([hex_list(LU) for LU, _ in factors], [piv.tolist() for _, piv in factors],
            [hex_list(_lu_solve(lu, b)) for lu in factors])


@pytest.mark.parametrize("r", [1, 2, 6, 12, 20])
@pytest.mark.parametrize("m", [1, 5])
def test_lu_solves_equals_the_numpy_lu_bit_for_bit(r, m):
    # Each matrix's factors, permutation and solution, in a stack, each
    # matrix alone, and factored without a right-hand side.
    A, b = lu_stack(r, m, seed=10 * r + m)
    expect = lu_oracle(A, b)
    LU = A.copy()
    piv, x = fem.lu_solves(LU, b)
    assert ([hex_list(a) for a in LU], piv.tolist(), [hex_list(row) for row in x]) == expect
    for j in range(m):
        one = A[j:j + 1].copy()
        piv, x = fem.lu_solves(one, b)
        assert (hex_list(one), piv[0].tolist(), hex_list(x)) == tuple(e[j] for e in expect)
    LU = A.copy()
    piv, x = fem.lu_solves(LU)
    assert x is None and ([hex_list(a) for a in LU], piv.tolist()) == expect[:2]


def test_lu_solves_takes_the_first_of_equal_magnitude_pivots():
    # Column 0 has |-4| = |4| in rows 1 and 2, and after its elimination
    # column 1 has 2 - (-0.25) = 2.25 and -3.25 - (-1) = -2.25: the first
    # candidate wins both times, so only rows 0 and 1 swap.
    A = np.array([[1.0, 2.0, 3.0], [-4.0, 1.0, 0.0], [4.0, -3.25, 6.0]])
    b = np.array([1.0, -2.0, 0.5])
    for sign in (1.0, -1.0):
        LU = sign * A[None]
        expect = lu_oracle(LU, b)
        piv, x = fem.lu_solves(LU, b)
        assert piv.tolist() == expect[1] == [[1, 0, 2]]
        assert ([hex_list(LU)], [hex_list(x)]) == (expect[0], expect[2])


def test_a_zero_pivot_names_its_matrix_and_its_mu():
    # A0 + mu*A1 = [[mu - 4, 2], [2, 1]] is singular at mu = 8, where
    # column 1's pivot is 1 - 0.5*2 = 0 exactly.  The stack stops at the
    # first such matrix and leaves the later ones as they were; the reduced
    # solve names its mu, and T's factorisation raises too.
    A0, A1 = np.array([[-4.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])
    mus = np.array([2.0, 8.0, 16.0, 8.0])
    A = A0 + mus[:, None, None] * A1
    LU = A.copy()
    with pytest.raises(fem.ZeroPivotError, match="zero pivot in matrix 1") as caught:
        fem.lu_solves(LU, np.ones(2))
    assert caught.value.index == 1
    assert hex_list(LU[0]) == hex_list(_lu_factor(A[0])[0]) and LU[2:].tolist() == A[2:].tolist()
    model = SimpleNamespace(n_hat=2, A0_hat=A0, A1_hat=A1, b_hat=np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match=re.escape("at mu = 8.0 ")):
        rb.z_block(model, mus)
    e3 = rb.E3Data(interp_params=np.array([2.0, 3.0]), rows=np.array([0, 1]), T=A[1],
                   V=np.ones(2), d=6)
    with pytest.raises(np.linalg.LinAlgError):
        e3.lu


def test_lu_solves_rejects_what_does_not_fit():
    for A, b in ((np.eye(2), None), (np.ones((1, 2, 3)), None), (np.eye(3)[None], np.ones(2))):
        with pytest.raises(ValueError, match="not a stack of square matrices"):
            fem.lu_solves(A, b)


@pytest.mark.parametrize("r", [1, 4, 17])
def test_lu_solves_writes_nothing_past_its_buffers(r):
    # m stacked matrices factored in place, m permutations and m solutions;
    # NaN guards on both sides of A and x, and -7 guards on both sides of
    # piv, must survive.  A zero pivot in the last matrix returns its index.
    pad, m = 7, 3
    A, b = lu_stack(r, m, seed=r)
    expect = lu_oracle(A, b)
    LU, x = np.full(m * r * r + 2 * pad, np.nan), np.full(m * r + 2 * pad, np.nan)
    piv = np.full(m * r + 2 * pad, -7, dtype=np.intp)
    LU[pad:pad + m * r * r] = A.ravel()
    status = fem._lib.lu_solves(r, m, LU[pad:].ctypes.data, piv[pad:].ctypes.data, b.ctypes.data,
                                x[pad:].ctypes.data)
    assert status == -1
    for buf, size in ((LU, m * r * r), (x, m * r)):
        assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all()
    assert (piv[:pad] == -7).all() and (piv[pad + m * r:] == -7).all()
    got = LU[pad:pad + m * r * r].reshape(m, r, r), piv[pad:pad + m * r].reshape(m, r)
    assert [hex_list(a) for a in got[0]] == expect[0] and got[1].tolist() == expect[1]
    assert [hex_list(row) for row in x[pad:pad + m * r].reshape(m, r)] == expect[2]
    LU[pad + (m - 1) * r * r:pad + m * r * r] = 0.0
    assert fem._lib.lu_solves(r, m, LU[pad:].ctypes.data, piv[pad:].ctypes.data, None,
                              None) == m - 1


# --- e3's compiled LU solve against the numpy solve -------------------------

def e3_case(r, m, seed):
    """(lu, pairs, z, v): T's factors (e3_factors), r distinct pairs of the
    rows of a z of r + 2 rows and m columns, z's first row ones as in
    z_block's and the others special_rows, and v a special row."""
    k = r + 2
    rng = np.random.default_rng(seed)
    z = special_rows(k, m, seed)
    z[0] = 1.0
    i, j = np.triu_indices(k)
    rows = rng.choice(len(i), size=r, replace=False)
    return e3_factors(r, seed), np.stack([i[rows], j[rows]]), z, special_rows(1, r, seed + 1)[0]


def e3_kernel_oracle(lu, pairs, z, v):
    """_lu_solve on b_s = z[I_s]*z[J_s] for each column, then lambda.v summed
    left to right (dot_in_order)."""
    lam = _lu_solve(lu, z[pairs[0]] * z[pairs[1]])
    return [dot_in_order(lam[:, c], v) for c in range(z.shape[1])]


@pytest.mark.parametrize("r", [1, 2, 5, 17])
@pytest.mark.parametrize("m", [1, 3, 40])
def test_lu_solve_dots_equals_the_numpy_solve_bit_for_bit(r, m, monkeypatch):
    # In one pass, in passes of 2 columns, the last one ragged at odd m,
    # and each column alone.
    lu, pairs, z, v = e3_case(r, m, seed=100 * r + m)
    expect = hex_list(e3_kernel_oracle(lu, pairs, z, v))
    assert hex_list(lu_solve_dots(lu, pairs, z, v)) == expect
    alone = [lu_solve_dots(lu, pairs, z[:, [c]].copy(), v)[0] for c in range(m)]
    assert hex_list(alone) == expect
    monkeypatch.setattr(fem, "_BLOCK_ELEMENTS", 2 * r)
    assert hex_list(lu_solve_dots(lu, pairs, z, v)) == expect


@pytest.mark.parametrize("r", [1, 4, 17])
def test_lu_solve_dots_writes_nothing_past_its_buffers(r):
    # m sums into out and r*p doubles of scratch, p = 2 leaving a last pass
    # over one column; NaN guards on both sides of each must survive.
    pad, m, p = 7, 5, 2
    (LU, piv), pairs, z, v = e3_case(r, m, seed=r)
    ordered = np.ascontiguousarray(pairs[:, piv], dtype=np.intp)
    out, scratch = np.full(m + 2 * pad, np.nan), np.full(r * p + 2 * pad, np.nan)
    fem._lib.lu_solve_dots(r, m, LU.ctypes.data, ordered.ctypes.data, z.ctypes.data,
                           v.ctypes.data, out[pad:].ctypes.data, p, scratch[pad:].ctypes.data)
    for buf, size in ((out, m), (scratch, r * p)):
        assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + size:]).all()
    assert hex_list(out[pad:pad + m]) == hex_list(e3_kernel_oracle((LU, piv), pairs, z, v))


def test_lu_solve_dots_rejects_what_does_not_fit():
    lu, pairs, z, v = e3_case(3, 2, seed=0)
    for bad in (pairs + len(z), pairs - len(z)):
        with pytest.raises(ValueError, match="outside z's 5"):
            lu_solve_dots(lu, bad, z, v)
    with pytest.raises(ValueError, match="do not fit"):
        lu_solve_dots(lu, pairs, z, v[:2])
    with pytest.raises(ValueError, match="do not fit"):
        lu_solve_dots(lu, pairs[:, :2], z, v)


# The flags /proc/cpuinfo lists for the x86-64 levels above the baseline
# (the x86-64 psABI): x86-64-v3 needs those of x86-64-v2 and AVX2, and
# x86-64-v4 those of AVX-512 besides.
X86_64_V3 = {
    "cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3",
    "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave",
}
X86_64_V4 = X86_64_V3 | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}


def host_levels():
    """The -march levels x86-64, x86-64-v3 and x86-64-v4 that this CPU runs."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = set(next(line for line in f if line.startswith("flags")).split(":")[1].split())
    except (OSError, StopIteration):
        flags = set()
    return ["x86-64"] + [level for level, need in (("x86-64-v3", X86_64_V3), ("x86-64-v4", X86_64_V4))
                         if need <= flags]


def e3_factors(r, seed):
    """Partial-pivoting LU factors of an r x r matrix of special_rows plus
    4*I, whose pivots are not zero."""
    return _lu_factor(special_rows(r, r, seed) + 4.0 * np.eye(r))


def kernel_outputs(n):
    """The bytes of outputs of every kernel in fem._KERNELS on
    special_stacks(n) and special_rows, each through its entry point in
    fem, keyed by the kernel's name and, after a comma, the case.
    lift_norms lifts 17 of the 18 columns with z for N_hat = 8 at 21
    points, and takes 21 columns of wh, wl and u less the lift of the
    columns of u, as six snapshots; lift_norms_strips, which the entry
    point picks for at most 20 points, does the same at 3 points of z, at
    the first alone, and for wh's 6 columns.  thomas_factor is the assembled
    system's Gram factors, and thomas_substitute lifts wh's columns into
    a new array and wl's in place.  The kernels of
    z take u's transpose, n columns of six rows (21 monomials), and e3's
    four pairs of its rows, and dd_radicands also conftest's special
    radicands, so that every branch of its clamp and root runs.  lu_solves
    factors and solves a stack of three matrices of min(n, 20) rows.
    column_pivots pivots u with three columns in its span, -u's column 5
    beside u's (an exact tie) with rtol = 0, u's first row, and three rows
    of n + 4 columns; its bytes are the picks, then Q.
    tridiagonal_project takes no vectors, u's columns with wh's column 2
    and, by two Gram-Schmidt sweeps, wh's columns over their T-norms (so
    that v stays bounded) with u's column 1 and with v = 0; its bytes are
    the dots, v, then T*v."""
    u, wh, wl = special_stacks(n, seed=400 + n)
    us, whs, wls = columns(u), columns(wh), columns(wl)
    sys_ = rb.assemble(n + 1)
    diag, off = np.array([4.0, 2.5, 3.0, 4.0, 2.0, 6.0]), np.clip(wh[0], -1.0, 1.0)
    z = z_of(np.array([1.0, 7.5, 1e3]), special_rows(3, 8, seed=500 + n))
    z21 = z_of(np.geomspace(1.0, 1e3, 21), special_rows(21, 8, seed=1100 + n))
    wide = np.hstack([wh, wl, u, wh[:, :3]])
    zu, q = np.ascontiguousarray(u.T), np.resize(u[:, 5], 21)
    pairs = np.array([[0, 1, 5, 2], [3, 1, 5, 4]])
    A, b = lu_stack(min(n, 20), 3, seed=900 + n)
    piv, x = fem.lu_solves(A, b)

    def project(T, vectors, v, passes=0):
        v, w = v.copy(), np.empty(n)
        return np.concatenate([fem.tridiagonal_project(T, vectors, v, passes, w), v, w])

    pivots = {
        "rank-deficient": (np.column_stack([u, u[:, 5], 2.0 * u[:, 2], u[:, 1] - u[:, 5]]),
                           E3_RANK_TOL),
        "a tie": (np.column_stack([u[:, 2], -u[:, 5], u[:, 5]]), 0.0),
        "one row": (u[:1], 0.0),
        "more columns than rows": (special_rows(3, n + 4, seed=1000 + n), 1e-12),
    }
    outputs = {
        **{f"column_pivots, {case}": np.append(*fem.column_pivots(*args))
           for case, args in pivots.items()},
        "thomas": fem._thomas(diag, off, wh[0], np.empty((n, 6))),
        "thomas, two rows a segment": fem._thomas(diag, off, wl[0], np.empty((n, 6)), s=2),
        "thomas_factor": sys_.gram_factors,
        "thomas_substitute": fem._lift(sys_, wh, np.empty((n, 6))),
        "thomas_substitute, in place": fem._lift(sys_, *[wl.copy()] * 2),
        "dd_gram_table": dd_gram_table(sys_, us + whs, 0),
        "dd_radicands": np.append(*fem.dd_radicands((q, np.resize(wl[:, 5], 21)), zu)),
        "dd_radicands, special radicands": np.append(*fem.dd_radicands(SPECIAL_Q, SPECIAL_Z)),
        "sum2_columns": sum2_columns(q, zu),
        "lift_norms, a lift": lift_norms(sys_, us + whs + wls[:5], z21),
        "lift_norms, U less a lift": lift_norms(sys_, us, special_rows(6, 21, seed=600 + n), wide),
        "lift_norms_strips, a lift": lift_norms(sys_, us + whs + wls[:5], z),
        "lift_norms_strips, one point": lift_norms(sys_, us + whs + wls[:5], z[:, :1].copy()),
        "lift_norms_strips, U less a lift": lift_norms(sys_, us, special_rows(6, 6, seed=600 + n),
                                                       wh),
        "lu_solve_dots": lu_solve_dots(e3_factors(4, 700 + n), pairs, zu,
                                       special_rows(1, 4, seed=800 + n)[0]),
        "lu_solves": np.concatenate([A.ravel(), x.ravel(), piv.ravel().astype(float)]),
        "tridiagonal_project, no vectors": project(sys_.K, [], us[5]),
        "tridiagonal_project, dots": project(sys_.Gram, us, whs[2]),
        "tridiagonal_project, Gram-Schmidt": project(sys_.Gram, t_units(sys_.Gram, whs), us[1],
                                                     passes=2),
        "tridiagonal_project, v = 0": project(sys_.M, t_units(sys_.M, whs), np.zeros(n),
                                              passes=2),
    }
    assert {name.split(",")[0] for name in outputs} == {name for name, _, _ in fem._KERNELS}
    return {name: a.tobytes() for name, a in outputs.items()}


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or shutil.which("cc") is None,
    reason="builds x86-64 levels with cc",
)
def test_every_isa_build_gives_the_shipped_bits(tmp_path, monkeypatch):
    # The shipped library runs the widest clone this CPU supports and no
    # other.  So each level the CPU runs is built on its own, with
    # -march=<level> and the clones defined away, and every kernel of
    # fem._KERNELS must give the shipped library's bits.  N = 9999 runs the
    # vector loops far past their remainders.
    sizes = (1, 2, 7, 300, 9999)
    shipped = {n: kernel_outputs(n) for n in sizes}
    for level in host_levels():
        path = str(tmp_path / f"{level}.so")
        cmd = ["cc", *fem._FLAGS, f"-march={level}", "-DWIDE=", "-o", path, "-x", "c", "-"]
        subprocess.run(cmd, input=fem._SOURCE, capture_output=True, text=True, check=True)
        monkeypatch.setattr(fem, "_lib", fem._bind(ctypes.CDLL(path)))
        for n in sizes:
            got = kernel_outputs(n)
            assert [name for name in got if got[name] != shipped[n][name]] == [], (level, n)


# Runs kernel_outputs on the library built at argv[1] for the sizes that
# follow, and prints each output's bytes in hex.
SANITIZED_CHILD = r"""
import ctypes, json, sys
from rbcert import fem
import test_estimators

fem._lib = fem._bind(ctypes.CDLL(sys.argv[1]))
print(json.dumps({n: {name: out.hex() for name, out in test_estimators.kernel_outputs(int(n)).items()}
                  for n in sys.argv[2:]}))
"""


def test_kernels_run_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    # The source built with ASan and UBSan, every report fatal, runs every
    # kernel of fem._KERNELS on the special inputs in a fresh process with
    # the ASan runtime preloaded: it must exit 0 and give the shipped
    # library's bits.
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip() if shutil.which("cc") else ""
    if not (os.path.isabs(runtime) and os.path.exists(runtime)):
        pytest.skip("no ASan runtime for cc")
    path = str(tmp_path / "sanitized.so")
    cmd = ["cc", *fem._FLAGS, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
           "-DWIDE=", "-o", path, "-x", "c", "-"]
    if subprocess.run(cmd, input=fem._SOURCE, capture_output=True, text=True).returncode:
        pytest.skip("cc cannot build with -fsanitize=address,undefined")
    sizes = ("1", "2", "7", "300")
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(rb.__file__)), os.path.dirname(__file__),
        env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SANITIZED_CHILD, path, *sizes],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr[-4000:]
    shipped = {n: {name: out.hex() for name, out in kernel_outputs(int(n)).items()} for n in sizes}
    assert json.loads(done.stdout) == shipped


def dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel OPENBLAS_CORETYPE picks when it loads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    config = blas.get("openblas configuration", "")
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in config


# Loads the inputs that the test below saves, runs the norm kernel for e1
# and for the true error, and the reduced solve, on the block and on each
# point alone, and E3's pivoted Gram-Schmidt on the pool's X, and prints
# their float.hex values and the picks.
NORMS_CHILD = r"""
import json, sys
from types import SimpleNamespace
import numpy as np
from rbcert import fem
from rbcert.estimators import E3_RANK_TOL, z_block

vectors, snapshots, U, z, A0_hat, A1_hat, b_hat, mus, X = (
    np.load(f"{sys.argv[1]}/{k}.npy")
    for k in ("vectors", "snapshots", "U", "z", "A0_hat", "A1_hat", "b_hat", "mus", "X"))
sys_ = fem.assemble(len(U) + 1)
model = SimpleNamespace(n_hat=len(b_hat), A0_hat=A0_hat, A1_hat=A1_hat, b_hat=b_hat)

def norms(j):
    e1 = fem.lift_norms(sys_, list(vectors), np.ascontiguousarray(z[:, j]))
    gamma = np.ascontiguousarray(z[1:len(snapshots) + 1, j])
    return [*e1, *fem.lift_norms(sys_, list(snapshots), gamma, np.ascontiguousarray(U[:, j]))]

def hexes(a):
    return [float(x).hex() for x in np.ravel(a)]

picks, Q = fem.column_pivots(X, E3_RANK_TOL)
print(json.dumps({
    "block": hexes(norms(slice(None))),
    "points": [hexes(norms([j])) for j in range(z.shape[1])],
    "z": hexes(z_block(model, mus)),
    "z points": [hexes(z_block(model, [mu])) for mu in mus],
    "picks": picks,
    "Q": hexes(Q),
}))
"""


@pytest.mark.skipif(not dynamic_arch_openblas(), reason="needs numpy's OpenBLAS with DYNAMIC_ARCH")
def test_norm_kernels_give_the_same_bits_under_every_openblas_kernel(tmp_path):
    # e1, the true error, the reduced solves and E3's pivoted Gram-Schmidt
    # call no BLAS or LAPACK.  In fresh processes under the host's default
    # OpenBLAS kernel, Prescott's (whose ddot depends on its second
    # operand's 16-byte phase) and Haswell's, a raw basis's fixed inputs
    # give one set of bits, at odd N, and each point alone gives the
    # block's; the pool's saved X gives one set of picks and of Q's bits.
    sys_ = rb.assemble(200)
    model = ReducedModel(sys_)
    for mu in (1.0, 10.0, 100.0, 1000.0):
        add_snapshot(model, sys_, mu)
    mus = np.geomspace(1.0, 1000.0, 23)
    z = rb.z_block(model, mus)
    pool = rb.log_uniform_sampler(1.0, 1000.0)(rb.x_dimension(model.n_hat), 28)
    inputs = {
        "vectors": np.array([model.riesz_b, *model.riesz_a0, *model.riesz_a1]),
        "snapshots": np.array(model.snapshots), "U": rb.solve_truth(sys_, mus), "z": z,
        "A0_hat": model.A0_hat, "A1_hat": model.A1_hat, "b_hat": model.b_hat, "mus": mus,
        "X": rb.x_matrix(rb.z_block(model, pool)),
    }
    for name, a in inputs.items():
        np.save(tmp_path / f"{name}.npy", a)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(rb.__file__)), env.get("PYTHONPATH")]))
    env["OPENBLAS_VERBOSE"] = "2"
    outputs, cores = {}, {}
    for core in ("", "Prescott", "Haswell"):
        done = subprocess.run(
            [sys.executable, "-c", NORMS_CHILD, str(tmp_path)], capture_output=True, text=True,
            check=True, env=dict(env, OPENBLAS_CORETYPE=core) if core else env,
        )
        outputs[core] = json.loads(done.stdout)
        cores[core] = re.findall(r"Core: (\S+)", done.stderr)
    assert cores["Prescott"] != cores["Haswell"], cores
    expect = hex_list(lift_norms(sys_, list(inputs["vectors"]), z))
    expect += hex_list(lift_norms(sys_, model.snapshots, z[1:5], inputs["U"]))
    picks, Q = fem.column_pivots(inputs["X"], E3_RANK_TOL)
    assert len(picks) > 1
    for core, out in outputs.items():
        assert out["block"] == expect, core
        assert [p[0] for p in out["points"]] == expect[:len(mus)], core
        assert [p[1] for p in out["points"]] == expect[len(mus):], core
        assert out["z"] == hex_list(z) and out["z points"] == [hex_list(c) for c in z.T], core
        assert out["picks"] == picks and out["Q"] == hex_list(Q), core


# Two small configurations, raw and orthonormal, whose artifact and CSV
# took BLAS dots until the basis extension moved into the compiled kernel.
PIPELINE_CONFIGS = {
    "raw": ["--n-cells", "40", "--n-train", "25", "--rb-size", "4", "--n-sweep", "30"],
    "orthonormal": ["--n-cells", "50", "--n-train", "50", "--rb-size", "8", "--n-sweep", "30",
                    "--orthonormalize", "true", "--dependence-tol", "1e-30"],
}


@pytest.mark.skipif(not dynamic_arch_openblas(), reason="needs numpy's OpenBLAS with DYNAMIC_ARCH")
def test_pipeline_gives_the_same_bytes_under_every_openblas_kernel(tmp_path):
    # `rbcert offline` and `rbcert sweep` in fresh processes under the
    # host's default OpenBLAS kernel, Prescott's and Haswell's write one
    # artifact and one CSV per configuration, byte for byte.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(rb.__file__)), env.get("PYTHONPATH")]))
    outputs = {}
    for core in ("", "Prescott", "Haswell"):
        for name, flags in PIPELINE_CONFIGS.items():
            out = tmp_path / f"{name}-{core or 'default'}"
            for command in ("offline", "sweep"):
                subprocess.run(
                    [sys.executable, "-m", "rbcert.cli", command, *flags, "--output-dir", str(out)],
                    capture_output=True, check=True,
                    env=dict(env, OPENBLAS_CORETYPE=core) if core else env,
                )
            outputs[core, name] = [(out / f).read_bytes() for f in ("artifact.json", "sweep.csv")]
    for name in PIPELINE_CONFIGS:
        assert outputs["Prescott", name] == outputs["", name] == outputs["Haswell", name], name


def test_e1_block_holds_no_truth_size_rows():
    # At n_cells = 4000 e1's kernel holds 12 doubles a point of scratch,
    # besides z and other arrays of a point's size: 10,728 bytes traced
    # with N_hat = 4 and 50 points, below one (N,) vector, against about
    # 1,038,000 for two (16, N) row buffers.  One point and three take the
    # strips along the mesh, 266 doubles a point and 256 more.
    sys_ = rb.assemble(4000)
    model = ReducedModel(sys_, orthonormalize=True)
    for mu in (1.0, 10.0, 100.0, 1000.0):
        add_snapshot(model, sys_, mu)
    for points in (1, 3, 50):
        mus = np.geomspace(1.0, 1000.0, points)
        z = rb.z_block(model, mus)
        tracemalloc.start()
        try:
            _e1_block(sys_, model, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * sys_.n, points

"""Reduced model: projection algebra, greedy selection, serialization."""

import json

import numpy as np
import pytest

import rbcert as rb
from rbcert.experiments import training_grid
from rbcert.reduced import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ReducedModel,
    add_snapshot,
    dumps_deterministic,
    e2data_from_dict,
    e2data_to_dict,
    e3data_from_dict,
    e3data_to_dict,
    model_from_dict,
    model_to_dict,
)

# ||Riesz(F)||_H1 for n_cells=200: the estimator value of the empty model
# and the scale delta of every floor prediction.  Frozen from the assembled
# system (it is just sqrt(F^T Gram^{-1} F)) and cross-checked against an
# independent dense computation in test_delta_matches_dense_computation.
DELTA_200 = 0.27525243598751564


@pytest.fixture(scope="module")
def small_model(truth):
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    add_snapshot(model, truth, 100.0)
    return model


def test_empty_model(truth):
    model = ReducedModel(truth)
    assert model.n_hat == 0
    assert model.A0_hat.shape == (0, 0)
    sol = model.empty_solution(5.0)
    assert sol.gamma.size == 0
    assert model.delta == DELTA_200


def test_delta_matches_dense_computation(truth):
    # delta^2 = F^T Gram^{-1} F, recomputed here with dense numpy algebra.
    G = np.diag(truth.Gram.diag.copy())
    for i in range(truth.n - 1):
        G[i, i + 1] = G[i + 1, i] = truth.Gram.off[i]
    delta_dense = float(np.sqrt(truth.F @ np.linalg.solve(G, truth.F)))
    assert delta_dense == pytest.approx(DELTA_200, rel=1e-13)


def test_first_snapshot_projection_entries(truth):
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    u = rb.solve_truth(truth, 1.0)
    Ku = truth.K.matvec(u)
    Mu = truth.M.matvec(u)
    assert model.A0_hat[0, 0] == float(u @ Ku)
    assert model.A1_hat[0, 0] == float(u @ Mu)
    assert model.b_hat[0] == float(truth.F @ u)
    assert model.snapshot_params == [1.0]


def test_duplicate_parameter_rejected(truth, small_model):
    with pytest.raises(ValueError):
        add_snapshot(small_model, truth, 1.0)


def test_near_duplicate_snapshot_rejected(truth):
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    with pytest.raises(rb.DependentSnapshotError) as exc_info:
        add_snapshot(model, truth, 1.0 + 1e-13)
    assert exc_info.value.pivot_ratio < 1e-12


def test_near_duplicate_rejected_on_orthonormal_path(truth):
    model = ReducedModel(truth, orthonormalize=True)
    add_snapshot(model, truth, 1.0)
    with pytest.raises(rb.DependentSnapshotError):
        add_snapshot(model, truth, 1.0 + 1e-13)


def test_projection_matches_dense(truth, small_model):
    B = small_model.basis_matrix
    K = np.column_stack([truth.K.matvec(B[:, j]) for j in range(B.shape[1])])
    M = np.column_stack([truth.M.matvec(B[:, j]) for j in range(B.shape[1])])
    assert np.allclose(small_model.A0_hat, B.T @ K, rtol=1e-13, atol=1e-16)
    assert np.allclose(small_model.A1_hat, B.T @ M, rtol=1e-13, atol=1e-16)
    assert np.allclose(small_model.b_hat, B.T @ truth.F, rtol=1e-13, atol=1e-18)


def test_single_snapshot_solve_is_scalar_division(truth):
    model = ReducedModel(truth)
    add_snapshot(model, truth, 2.0)
    mu = 17.0
    sol = rb.solve_reduced(model, mu)
    expected = model.b_hat[0] / (model.A0_hat[0, 0] + mu * model.A1_hat[0, 0])
    assert sol.gamma[0] == pytest.approx(expected, rel=1e-15)


def test_galerkin_reproduces_snapshots(truth, small_model):
    # At a snapshot parameter the reduced solution is the truth solution.
    for mu in small_model.snapshot_params:
        u = rb.solve_truth(truth, mu)
        u_rb = small_model.basis_matrix @ rb.solve_reduced(small_model, mu).gamma
        err = rb.h1_norm(truth, u_rb - u) / rb.h1_norm(truth, u)
        assert err <= 1e-10


def test_solve_reduced_rejects_empty_and_out_of_domain(truth, small_model):
    with pytest.raises(ValueError):
        rb.solve_reduced(ReducedModel(truth), 2.0)
    with pytest.raises(ValueError):
        rb.solve_reduced(small_model, 0.25)
    with pytest.raises(ValueError):
        rb.solve_reduced_block(ReducedModel(truth), [2.0])
    with pytest.raises(ValueError):
        rb.solve_reduced_block(small_model, [2.0, 0.25])


def test_solve_reduced_block_rows_are_solve_reduced_bit_for_bit(default_model):
    model, _ = default_model
    mus = np.geomspace(1.0, 1000.0, 57)
    gamma = rb.solve_reduced_block(model, mus)
    assert gamma.shape == (57, model.n_hat)
    for mu, row in zip(mus, gamma):
        assert row.tolist() == rb.solve_reduced(model, float(mu)).gamma.tolist()


def test_orthonormal_basis_is_h1_orthonormal(truth):
    model = ReducedModel(truth, orthonormalize=True)
    for mu in (1.0, 10.0, 100.0, 1000.0):
        add_snapshot(model, truth, mu)
    for i, wi in enumerate(model.snapshots):
        for j, wj in enumerate(model.snapshots):
            assert rb.h1_inner(truth, wi, wj) == pytest.approx(
                1.0 if i == j else 0.0, abs=1e-12
            )


# --- greedy ------------------------------------------------------------------


def test_greedy_first_pick_is_smallest_parameter(truth, default_model):
    # Before any snapshot exists every candidate ties at delta, and ties
    # break to the smallest mu by the ascending scan with strict >.
    model, history = default_model
    assert model.snapshot_params[0] == 1.0
    assert history[0] == (1.0, DELTA_200)


def test_greedy_default_selection(truth, default_model, default_config):
    model, history = default_model
    assert model.n_hat == 6
    train = set(training_grid(default_config).tolist())
    assert set(model.snapshot_params) <= train
    assert len(set(model.snapshot_params)) == 6
    expected = [1.0, 1000.0, 43.97603609, 240.940356, 11.35733358, 615.0985789]
    assert np.allclose(model.snapshot_params, expected, rtol=1e-8, atol=0)
    # The max estimator over the training set decreases monotonically.
    vals = [v for _, v in history]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_greedy_stops_on_dependence_with_warning(truth, caplog):
    # Two nearly identical parameters: the second snapshot is selected
    # (its estimator is still above tol) but rejected as dependent, and
    # the greedy stops cleanly instead of raising.
    import logging

    with caplog.at_level(logging.WARNING, logger="rbcert.reduced"):
        model, history = rb.greedy_build(truth, [1.0, 1.0 + 1e-10], n_max=2, tol=1e-14)
    assert model.n_hat == 1
    assert len(history) == 1
    assert any("greedy stopped" in r.message for r in caplog.records)


def test_greedy_stops_on_tol(truth, floors_config):
    # With an orthonormal basis and a tiny dependence threshold the greedy
    # runs until the estimator hits tol, well before n_max.
    model, history = rb.greedy_build(
        truth,
        training_grid(floors_config),
        n_max=floors_config.rb_size,
        tol=floors_config.tol,
        orthonormalize=True,
        dependence_tol=floors_config.dependence_tol,
    )
    assert model.n_hat == 12
    assert model.n_hat < floors_config.rb_size
    assert history[-1][1] > floors_config.tol


def test_greedy_rejects_bad_training_sets(truth):
    with pytest.raises(ValueError):
        rb.greedy_build(truth, [], n_max=2)
    with pytest.raises(ValueError):
        rb.greedy_build(truth, [0.5, 2.0], n_max=2)
    with pytest.raises(ValueError):
        rb.greedy_build(truth, [1.0, 2.0], n_max=0)


# --- serialization -----------------------------------------------------------


def test_model_roundtrip_is_bit_exact(truth, small_model):
    d = model_to_dict(small_model)
    back = model_from_dict(json.loads(dumps_deterministic(d)), truth)
    assert back.snapshot_params == small_model.snapshot_params
    assert np.array_equal(back.A0_hat, small_model.A0_hat)
    assert np.array_equal(back.A1_hat, small_model.A1_hat)
    assert np.array_equal(back.b_hat, small_model.b_hat)
    for a, b in zip(back.snapshots, small_model.snapshots):
        assert np.array_equal(a, b)
    for a, b in zip(back.riesz_a0, small_model.riesz_a0):
        assert np.array_equal(a, b)
    assert back.delta == small_model.delta
    assert back.orthonormalize == small_model.orthonormalize


def test_e2data_roundtrip_is_bit_exact(truth, default_e2):
    d = e2data_to_dict(default_e2)
    back = e2data_from_dict(json.loads(dumps_deterministic(d)))
    assert back.delta == default_e2.delta
    assert np.array_equal(back.s, default_e2.s)
    assert np.array_equal(back.S, default_e2.S)
    assert back.delta2_dd == default_e2.delta2_dd
    assert np.array_equal(back.s_dd[0], default_e2.s_dd[0])
    assert np.array_equal(back.s_dd[1], default_e2.s_dd[1])
    assert np.array_equal(back.S_dd[0], default_e2.S_dd[0])
    assert np.array_equal(back.S_dd[1], default_e2.S_dd[1])


def test_e3data_roundtrip_is_bit_exact(default_e3):
    d = e3data_to_dict(default_e3)
    back = e3data_from_dict(json.loads(dumps_deterministic(d)))
    assert np.array_equal(back.interp_params, default_e3.interp_params)
    assert np.array_equal(back.T, default_e3.T)
    assert np.array_equal(back.V, default_e3.V)
    assert back.cond_estimate == default_e3.cond_estimate
    assert back.beta == default_e3.beta


def test_dumps_deterministic_is_deterministic(small_model):
    d = model_to_dict(small_model)
    assert dumps_deterministic(d) == dumps_deterministic(json.loads(dumps_deterministic(d)))


def test_float_hex_survives_extreme_values(truth):
    # The encoding must not lose subnormals or huge magnitudes.
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    model.b_hat = np.array([5e-324])
    back = model_from_dict(json.loads(dumps_deterministic(model_to_dict(model))), truth)
    assert back.b_hat[0] == 5e-324


def test_format_tag():
    assert FORMAT_NAME == "rbcert-artifact"
    assert FORMAT_VERSION == 1

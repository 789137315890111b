"""Reduced model: projection algebra, greedy selection, serialization."""

import json
import re

import numpy as np
import pytest

import rbcert as rb
from rbcert import fem
from rbcert.experiments import training_grid
from rbcert.reduced import (
    FORMAT_NAME,
    FORMAT_VERSION,
    DependentSnapshotError,
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
    assert rb.h1_norm(truth, model.riesz_b) == DELTA_200


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
    gamma = rb.solve_reduced_block(model, [mu])
    expected = model.b_hat[0] / (model.A0_hat[0, 0] + mu * model.A1_hat[0, 0])
    assert gamma.shape == (1, 1)
    assert gamma[0, 0] == pytest.approx(expected, rel=1e-15)


def test_galerkin_reproduces_snapshots(truth, small_model):
    # At a snapshot parameter the reduced solution is the truth solution.
    for mu in small_model.snapshot_params:
        u = rb.solve_truth(truth, mu)
        u_rb = small_model.basis_matrix @ rb.solve_reduced_block(small_model, [mu])[0]
        err = rb.h1_norm(truth, u_rb - u) / rb.h1_norm(truth, u)
        assert err <= 1e-10


def test_solve_reduced_rejects_empty_and_out_of_domain(truth, small_model):
    with pytest.raises(ValueError):
        rb.solve_reduced_block(ReducedModel(truth), [2.0])
    with pytest.raises(ValueError):
        rb.solve_reduced_block(small_model, [2.0, 0.25])


@pytest.mark.parametrize("mus", [5.0, [[2.0, 3.0]]], ids=["scalar", "2d"])
def test_solve_reduced_block_rejects_a_block_that_is_not_1d(mus, small_model):
    shape = np.shape(mus)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        rb.solve_reduced_block(small_model, mus)


def test_solve_reduced_block_rows_are_solve_reduced_bit_for_bit(default_model):
    model, _ = default_model
    mus = np.geomspace(1.0, 1000.0, 57)
    gamma = rb.solve_reduced_block(model, mus)
    assert gamma.shape == (57, model.n_hat)
    for mu, row in zip(mus, gamma):
        direct = np.linalg.solve(model.A0_hat + mu * model.A1_hat, model.b_hat)
        one = rb.solve_reduced_block(model, [mu])[0]
        assert row.tolist() == one.tolist() == direct.tolist()


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
        model, history, _ = rb.greedy_build(truth, [1.0, 1.0 + 1e-10], n_max=2, tol=1e-14)
    assert model.n_hat == 1
    assert len(history) == 1
    assert any("greedy stopped" in r.message for r in caplog.records)


def test_greedy_stops_on_tol(truth, floors_config):
    # With an orthonormal basis and a tiny dependence threshold the greedy
    # runs until the estimator hits tol, well before n_max.
    model, history, _ = rb.greedy_build(
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


def test_greedy_rejects_a_tol_the_empty_model_meets(truth):
    # Nothing to build: the empty model's estimator delta is already <= tol.
    with pytest.raises(ValueError, match="tol = 1.0 "):
        rb.greedy_build(truth, [1.0, 2.0], n_max=2, tol=1.0)
    model, history, _ = rb.greedy_build(truth, [1.0, 2.0], n_max=1, tol=0.5 * DELTA_200)
    assert history == [(1.0, DELTA_200)]


def test_greedy_raises_when_its_first_snapshot_is_rejected(truth):
    # The first pivot ratio is exactly 1: a dependence_tol of 1 rejects the
    # seed, and the greedy raises instead of returning an empty model.
    with pytest.raises(DependentSnapshotError):
        rb.greedy_build(truth, [1.0, 2.0], n_max=2, dependence_tol=1.0)


def e1_greedy_build(sys_, training_set, n_max, tol, *, orthonormalize, dependence_tol):
    """The reference greedy: every unselected candidate is scanned with e1.

    Returns (model, history) with one (mu_selected, max e1) pair per
    accepted snapshot.
    """
    training = sorted(float(mu) for mu in training_set)
    model = ReducedModel(sys_, orthonormalize=orthonormalize)
    history = []
    while model.n_hat < n_max:
        selected = set(model.snapshot_params)
        candidates = np.array([mu for mu in training if mu not in selected])
        if not candidates.size:
            break
        if model.n_hat:
            gamma = rb.solve_reduced_block(model, candidates)
            values = rb.estimator_e1_block(sys_, model, candidates, gamma)
        else:  # the empty model's residual is -F, whatever mu
            values = np.full(candidates.size, rb.h1_norm(sys_, model.riesz_b))
        best = int(np.argmax(values))
        best_mu, best_val = float(candidates[best]), float(values[best])
        if best_val <= tol:
            break
        try:
            add_snapshot(model, sys_, best_mu, dependence_tol=dependence_tol)
        except DependentSnapshotError:
            break
        history.append((best_mu, best_val))
    return model, history


def test_greedy_equals_e1_driven_oracle(greedy_case):
    sys_, training, kwargs = greedy_case
    model, history, _ = rb.greedy_build(sys_, training, **kwargs)
    ref_model, ref_history = e1_greedy_build(sys_, training, **kwargs)
    assert _hex(model.snapshot_params) == _hex(ref_model.snapshot_params)
    assert [_hex(entry) for entry in history] == [_hex(entry) for entry in ref_history]


# --- serialization -----------------------------------------------------------


def _hex(a) -> list:
    return [float(x).hex() for x in np.ravel(a)]


def _assert_same_model(back, model):
    assert back.snapshot_params == model.snapshot_params
    assert back.orthonormalize == model.orthonormalize
    for name in ("A0_hat", "A1_hat", "b_hat", "riesz_b"):
        assert _hex(getattr(back, name)) == _hex(getattr(model, name)), name
    for name in ("snapshots", "riesz_a0", "riesz_a1"):
        assert len(getattr(back, name)) == model.n_hat
        for a, b in zip(getattr(back, name), getattr(model, name)):
            assert _hex(a) == _hex(b), name


@pytest.fixture(scope="module")
def orthonormal_model(truth):
    model = ReducedModel(truth, orthonormalize=True)
    for mu in (1.0, 30.0, 1000.0):
        add_snapshot(model, truth, mu)
    return model


@pytest.fixture(scope="module")
def large_truth():
    return rb.assemble(10000)


@pytest.fixture(scope="module")
def large_orthonormal_model(large_truth):
    """12 orthonormal snapshots at N = 9999, the large-mesh benchmark's size."""
    model = ReducedModel(large_truth, orthonormalize=True)
    for mu in np.geomspace(1.0, 1000.0, 12).tolist():
        add_snapshot(model, large_truth, mu, dependence_tol=1e-30)
    return model


def test_model_roundtrip_is_bit_exact(
    truth, small_model, orthonormal_model, large_truth, large_orthonormal_model
):
    # Only the flag, the parameters and the basis hash are stored; the
    # snapshots, projections and Riesz lifts are replayed on load, bit for
    # bit: the replay's block lifts against the greedy's one-vector lifts.
    for sys_, model in (
        (truth, small_model),
        (truth, orthonormal_model),
        (large_truth, large_orthonormal_model),
    ):
        d = model_to_dict(model)
        assert sorted(d) == ["basis_sha256", "orthonormalize", "snapshot_params"]
        back = model_from_dict(json.loads(dumps_deterministic(d)), sys_)
        _assert_same_model(back, model)
        for lift in back.riesz_a0 + back.riesz_a1:
            assert lift.shape == (sys_.n,) and lift.flags.c_contiguous


def test_loading_lifts_every_functional_in_one_block(
    monkeypatch, large_truth, large_orthonormal_model
):
    # The replay solves the truth at all 12 parameters, then lifts the 24
    # functionals K v_i, M v_i as one block; riesz_b is one lift alone.
    # Each is one call of the kernel: 13 of width 1 and one of width 24.
    widths = []
    kernel = fem._thomas

    def counted(diag, off, rhs, X, s=None):
        widths.append(X.shape[1])
        return kernel(diag, off, rhs, X, s)

    monkeypatch.setattr(fem, "_thomas", counted)
    model_from_dict(model_to_dict(large_orthonormal_model), large_truth)
    assert sorted(widths) == [1] * 13 + [24]


def test_e2data_roundtrip_is_bit_exact(truth, default_e2):
    d = e2data_to_dict(default_e2)
    assert sorted(d) == ["q_dd"]
    back = e2data_from_dict(json.loads(dumps_deterministic(d)))
    assert _hex(back.delta) == _hex(default_e2.delta)
    for k in (0, 1):
        assert _hex(back.q_dd[k]) == _hex(default_e2.q_dd[k])


def test_e3data_roundtrip_is_bit_exact(truth, default_model, default_e3, default_config):
    # T and V are not stored: they are rebuilt from the nodes, the rows and
    # the model, for the default build and for one picked from a pool that
    # the sampler enlarges by 7.
    model, _ = default_model
    sampler = rb.log_uniform_sampler(default_config.mu_min, default_config.mu_max)
    oversampled = rb.build_e3_data(
        truth, model, lambda n, seed: sampler(n + 7, seed), seed=default_config.seed
    )
    for data in (default_e3, oversampled):
        d = e3data_to_dict(data)
        assert sorted(d) == ["interp_params", "rows"]
        back = e3data_from_dict(json.loads(dumps_deterministic(d)), truth, model)
        assert back.T.shape == data.T.shape == (data.V.size, data.V.size)
        assert back.rows.tolist() == data.rows.tolist()
        assert back.d == data.d == 91
        for name in ("interp_params", "T", "V"):
            assert _hex(getattr(back, name)) == _hex(getattr(data, name)), name


def test_dumps_deterministic_is_deterministic(small_model):
    d = model_to_dict(small_model)
    assert dumps_deterministic(d) == dumps_deterministic(json.loads(dumps_deterministic(d)))


def test_float_hex_survives_extreme_values(default_e2):
    # The encoding must not lose subnormals or huge magnitudes.
    hi, lo = (part.copy() for part in default_e2.q_dd)
    hi[3] = 1.7976931348623157e308
    lo[5] = 5e-324
    data = rb.E2Data(q_dd=(hi, lo))
    back = e2data_from_dict(json.loads(dumps_deterministic(e2data_to_dict(data))))
    assert back.q_dd[0][3] == 1.7976931348623157e308
    assert back.q_dd[1][5] == 5e-324
    assert _hex(back.q_dd) == _hex(data.q_dd)


def test_format_tag():
    assert FORMAT_NAME == "rbcert-artifact"
    assert FORMAT_VERSION == 7

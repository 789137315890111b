"""Reduced model: projection algebra, greedy selection, serialization."""

import hashlib
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
    _dec_vec,
    _enc_vec,
    add_snapshot,
    dumps_deterministic,
    e2data_from_dict,
    e2data_to_dict,
    e3data_from_dict,
    e3data_to_dict,
    model_from_dict,
    model_to_dict,
)

from conftest import (
    TridiagonalArrays,
    _lu_factor,
    _lu_solve,
    build_e2_data,
    h1_inner_lanes,
    h1_norm_lanes,
    lane_dot,
)

# ||Riesz(F)||_H1 for n_cells=200: the estimator value of the empty model
# and the scale delta of every floor prediction.  Frozen from the assembled
# system (it is just sqrt(F^T Gram^{-1} F)) and cross-checked against an
# independent dense computation in test_delta_matches_dense_computation.
# DELTA_200 is the plain double norm, its dot summed in the eight-lane
# order, DELTA_200_DD the double-double one that the greedy records,
# E2Data.delta.
DELTA_200 = 0.2752524359875157
DELTA_200_DD = 0.2752524359875254


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
    assert h1_norm_lanes(truth, model.riesz_b) == DELTA_200


def test_delta_matches_dense_computation(truth):
    # delta^2 = F^T Gram^{-1} F, recomputed here with dense numpy algebra.
    n, Gram = truth.n, truth.Gram
    G = np.diag(np.full(n, Gram.diag)) + np.diag(np.full(n - 1, Gram.off), 1)
    G += np.diag(np.full(n - 1, Gram.off), -1)
    delta_dense = float(np.sqrt(truth.F @ np.linalg.solve(G, truth.F)))
    assert delta_dense == pytest.approx(DELTA_200, rel=1e-13)


def test_first_snapshot_projection_entries(truth):
    model = ReducedModel(truth)
    add_snapshot(model, truth, 1.0)
    u = rb.solve_truth(truth, 1.0)
    Ku, Mu = (TridiagonalArrays.of(T, truth.n).matvec(u) for T in (truth.K, truth.M))
    assert model.A0_hat[0, 0] == lane_dot(u, Ku)
    assert model.A1_hat[0, 0] == lane_dot(u, Mu)
    assert model.b_hat[0] == lane_dot(truth.F, u)
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
    B = np.column_stack(small_model.snapshots)
    K, M = (TridiagonalArrays.of(T, truth.n).matvec(B.T).T for T in (truth.K, truth.M))
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
        u_rb = np.column_stack(small_model.snapshots) @ rb.solve_reduced_block(small_model, [mu])[0]
        err = h1_norm_lanes(truth, u_rb - u) / h1_norm_lanes(truth, u)
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
        direct = _lu_solve(_lu_factor(model.A0_hat + mu * model.A1_hat), model.b_hat)
        one = rb.solve_reduced_block(model, [mu])[0]
        assert _hex(row) == _hex(one) == _hex(direct)


def test_orthonormal_basis_is_h1_orthonormal(truth):
    model = ReducedModel(truth, orthonormalize=True)
    for mu in (1.0, 10.0, 100.0, 1000.0):
        add_snapshot(model, truth, mu)
    for i, wi in enumerate(model.snapshots):
        for j, wj in enumerate(model.snapshots):
            assert h1_inner_lanes(truth, wi, wj) == pytest.approx(
                1.0 if i == j else 0.0, abs=1e-12
            )


# --- greedy ------------------------------------------------------------------


def test_greedy_first_pick_is_smallest_parameter(truth, default_model):
    # Before any snapshot exists every candidate ties at delta, and ties
    # break to the smallest mu by the ascending scan with strict >.
    model, history = default_model
    assert model.snapshot_params[0] == 1.0
    assert history[0] == (1.0, DELTA_200_DD)


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
    assert history == [(1.0, DELTA_200_DD)]


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
        else:  # the empty model's residual is -F, whatever mu: delta
            values = np.full(candidates.size, build_e2_data(sys_, model).delta)
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
    # bit, by the build's own add_snapshot calls.
    for sys_, model in (
        (truth, small_model),
        (truth, orthonormal_model),
        (large_truth, large_orthonormal_model),
    ):
        d = model_to_dict(model)
        assert sorted(d) == ["basis_sha256", "orthonormalize", "snapshot_params"]
        back, _ = model_from_dict(json.loads(dumps_deterministic(d)), sys_)
        _assert_same_model(back, model)
        for lift in back.riesz_a0 + back.riesz_a1:
            assert lift.shape == (sys_.n,) and lift.flags.c_contiguous


def test_loading_makes_the_builds_kernel_calls(
    monkeypatch, large_truth, large_orthonormal_model
):
    # The replay is the build's add_snapshot calls: riesz_b is one lift of
    # width 1, then each of the 12 parameters has one truth solve, a Thomas
    # kernel call of width 1, and one lift of its K v_i and M v_i, a
    # substitution call of width 2 with Gram's stored factors; Gram is not
    # factored again.  The e1 the replay takes between them calls no
    # Thomas kernel.
    calls = []
    lib = fem._lib

    class Counted:
        def __getattr__(self, name):
            kernel = getattr(lib, name)

            def counted(n, m, *args):
                if name.startswith("thomas"):
                    calls.append((name, m))
                return kernel(n, m, *args)

            return counted

    monkeypatch.setattr(fem, "_lib", Counted())
    model_from_dict(model_to_dict(large_orthonormal_model), large_truth)
    loaded = calls.copy()
    calls.clear()
    build = ReducedModel(large_truth, orthonormalize=True)
    for mu in large_orthonormal_model.snapshot_params:
        add_snapshot(build, large_truth, mu, dependence_tol=1e-30)
    assert loaded == calls
    assert loaded == [("thomas_substitute", 1)] + [("thomas", 1), ("thomas_substitute", 2)] * 12


def test_e2data_roundtrip_is_bit_exact(monkeypatch, truth, default_model, default_e2):
    # Only q's sha256 is stored, of its hi and then its lo part as
    # little-endian float64; q is rebuilt from the replayed model's Riesz
    # vectors in one dd Gram table, bit for bit, and a digest it misses is
    # refused.
    model, _ = default_model
    d = e2data_to_dict(default_e2)
    assert sorted(d) == ["q_sha256"]
    hi, lo = default_e2.q_dd
    raw = hi.astype("<f8").tobytes() + lo.astype("<f8").tobytes()
    assert d["q_sha256"] == hashlib.sha256(raw).hexdigest()
    tables = []
    table = rb.estimators.dd_gram_table
    monkeypatch.setattr(rb.estimators, "dd_gram_table",
                        lambda *args: tables.append(args[2]) or table(*args))
    back = e2data_from_dict(json.loads(dumps_deterministic(d)), truth, model)
    assert tables == [0]
    assert _hex(back.delta) == _hex(default_e2.delta)
    for k in (0, 1):
        assert _hex(back.q_dd[k]) == _hex(default_e2.q_dd[k])
    d["q_sha256"] = d["q_sha256"][::-1]
    with pytest.raises(ValueError, match="the rebuilt q misses the stored q_sha256"):
        e2data_from_dict(d, truth, model)
    with pytest.raises(KeyError, match="q_sha256"):
        e2data_from_dict({}, truth, model)


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


def test_float_hex_survives_extreme_values():
    # The encoding must not lose subnormals or huge magnitudes.
    values = [1.7976931348623157e308, 5e-324, -0.0, 0.1, -2.5e-310]
    back = _dec_vec(json.loads(dumps_deterministic(_enc_vec(values))))
    assert _hex(back) == _hex(np.array(values))
    with pytest.raises(ValueError, match="non-finite"):
        _dec_vec([(1.0).hex(), "inf"])


def test_format_tag():
    assert FORMAT_NAME == "rbcert-artifact"
    assert FORMAT_VERSION == 9

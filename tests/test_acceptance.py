"""Acceptance suite: nine criteria, one recorded pass/fail line each.

Each test computes its measurements, records exactly one summary line
(echoed at the end of the pytest run by the terminal-summary hook in
conftest.py), and then asserts.  Tolerances are pinned here, not in
helper code, so a regression shows up as a failed criterion rather than
a silently moved goalpost.
"""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

import rbcert as rb
from rbcert import cli
from rbcert.experiments import EPS, ExperimentConfig, sweep_grid, training_grid
from rbcert.estimators import _e2_block, _z_rows

from conftest import (
    analytic_solution,
    build_e2_data,
    h1_error_vs_analytic,
    make_output_dir,
)


def test_criterion_1_floor_reproduction(floors_report, acceptance):
    """Observed E1/E2 minima sit on the predicted round-off floors.

    Run on a converged basis (orthonormalized, greedy run to tol; the
    default-size raw basis stops ~five orders above the E1 floor, so its
    sweep cannot reach the floors at all).  Bands: min(E2) within a
    factor 30 of delta*sqrt(eps), min(E1) within a factor 100 of
    delta*eps, and at least 1e4 separation between the two minima.
    """
    rep = floors_report
    f1, f2 = rep["predicted_floor_e1"], rep["predicted_floor_e2"]
    m1, m2 = rep["observed_min_e1"], rep["observed_min_e2"]
    ok = (
        f1 / 100.0 <= m1 <= f1 * 100.0
        and f2 / 30.0 <= m2 <= f2 * 30.0
        and m2 >= 1e4 * m1
    )
    acceptance(
        1,
        "floor reproduction",
        ok,
        f"min e1 {m1:.3e} vs predicted {f1:.3e} (x{m1 / f1:.1f}), "
        f"min e2 {m2:.3e} vs predicted {f2:.3e} (x{m2 / f2:.2f}), "
        f"separation {m2 / m1:.2e}",
    )
    assert f1 / 100.0 <= m1 <= f1 * 100.0
    assert f2 / 30.0 <= m2 <= f2 * 30.0
    assert m2 >= 1e4 * m1


def test_criterion_2_quadruple_precision_remedy(floors_report, acceptance):
    """Double-double evaluation removes the sqrt(eps) floor: its observed
    minimum is no higher than the reference estimator's."""
    m1 = floors_report["observed_min_e1"]
    mdd = floors_report["observed_min_e2dd"]
    ok = mdd <= m1
    acceptance(2, "double-double remedy", ok, f"min e2dd {mdd:.3e} <= min e1 {m1:.3e}")
    assert mdd <= m1


def test_criterion_3_interpolated_equals_reference(
    truth, default_model, default_e2, default_e3, default_rows, acceptance
):
    """E3 follows E1 pointwise over the sweep and reproduces it exactly
    at the interpolation parameters (bit-equal lookup)."""
    model, _ = default_model
    ratios = [r.e3 / r.e1 for r in default_rows if r.e1 >= 1e-14]
    nodes = rb.evaluate(truth, model, default_e2, default_e3, default_e3.interp_params)
    worst_rel = float(np.max(np.abs(nodes["e3"] - nodes["e1"]) / nodes["e1"]))
    ok = min(ratios) >= 0.5 and max(ratios) <= 2.0 and worst_rel <= 1e-12
    acceptance(
        3,
        "e3 = e1",
        ok,
        f"sweep ratio in [{min(ratios):.6f}, {max(ratios):.6f}] over {len(ratios)} points, "
        f"node identity rel diff {worst_rel:.1e} over {default_e3.interp_params.size} nodes",
    )
    assert len(ratios) == len(default_rows)  # every point qualifies
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0
    assert worst_rel <= 1e-12


def test_criterion_4_certification_bound(default_rows, acceptance):
    """E1 is a rigorous upper bound with efficiency close to 1."""
    margin = min(r.e1 * (1 + 1e-10) - r.true_error for r in default_rows)
    effs = [r.e1 / r.true_error for r in default_rows if r.true_error >= 1e-12]
    ok = margin >= 0.0 and max(effs) <= 10.0
    acceptance(
        4,
        "certified bound",
        ok,
        f"0 violations over {len(default_rows)} points, "
        f"max efficiency {max(effs):.3f} over {len(effs)} points",
    )
    assert margin >= 0.0
    assert max(effs) <= 10.0


def test_criterion_5_formula_equivalence(truth, default_config, acceptance):
    """E1 and E2 agree before cancellation sets in, and the E2 radicand is
    exactly the assembled linear form q.X.

    The N_hat=2 sweep grazes a near-snapshot dip (residual ~6e-5) where
    cancellation already costs the compact form ~1e-8; agreement is
    therefore asserted where the residual is at least 1e-4, which is the
    regime the equivalence is about.
    """
    cfg = ExperimentConfig(n_sweep=100)
    train = training_grid(default_config)
    worst_agree = 0.0
    for n_hat in (1, 2):
        model, _, _ = rb.greedy_build(truth, train, n_max=n_hat, tol=cfg.tol)
        data = build_e2_data(truth, model)
        mus = sweep_grid(cfg)
        gamma = rb.solve_reduced_block(model, mus)
        e1 = rb.estimator_e1_block(truth, model, mus, gamma)
        e2, _ = _e2_block(rb.q_coefficients(data), _z_rows(mus, gamma))
        keep = e1 >= 1e-4
        worst_agree = max([worst_agree, *(np.abs(e2 - e1) / e1)[keep].tolist()])

    model6, _, _ = rb.greedy_build(truth, train, n_max=6, tol=cfg.tol)
    data6 = build_e2_data(truth, model6)
    q = rb.q_coefficients(data6)
    rng = np.random.default_rng(1234)
    worst_form = 0.0
    for _ in range(300):
        mu = float(np.exp(rng.uniform(0.0, math.log(1000.0))))
        gamma = rng.normal(size=6)[None]
        X = rb.x_matrix(np.array([mu]), gamma)
        radicand = float(_e2_block(q, _z_rows(np.array([mu]), gamma))[1][0])
        exact = sum(
            (Fraction(float(a)) * Fraction(float(b)) for a, b in zip(q, X[:, 0])), Fraction(0)
        )
        if exact != 0:
            worst_form = max(worst_form, float(abs(Fraction(radicand) - exact) / abs(exact)))

    ok = worst_agree <= 1e-9 and worst_form <= 1e-13
    acceptance(
        5,
        "formula equivalence",
        ok,
        f"|e1-e2|/e1 <= {worst_agree:.2e} at N_hat in (1,2), "
        f"q-form radicand within {worst_form:.2e} of exact rational",
    )
    assert worst_agree <= 1e-9
    assert worst_form <= 1e-13


def test_criterion_6_truth_solver_verification(acceptance):
    """H1 error against the analytic solution halves from h=0.01 to
    h=0.005, and the analytic boundary values are exact zeros."""
    ratios = []
    for mu in (1.0, 100.0):
        errs = []
        for n_cells in (100, 200):
            s = rb.assemble(n_cells)
            errs.append(h1_error_vs_analytic(s, rb.solve_truth(s, mu), mu))
        ratios.append(errs[0] / errs[1])
    boundary = [float(analytic_solution(mu, np.array([0.0, 1.0])).max()) for mu in (1.0, 1e6)]
    ok = all(abs(r - 2.0) <= 0.2 for r in ratios) and all(b == 0.0 for b in boundary)
    acceptance(
        6,
        "truth solver",
        ok,
        f"error ratios {ratios[0]:.4f} (mu=1), {ratios[1]:.4f} (mu=100); "
        f"boundary values exactly 0: {all(b == 0.0 for b in boundary)}",
    )
    for r in ratios:
        assert abs(r - 2.0) <= 0.2
    assert boundary == [0.0, 0.0]


def test_criterion_7_precision_kernels(compiled_dd, acceptance):
    """The compiled two_sum/two_prod, the package's own, are exact and its
    compound dd arithmetic (dd_add, then dd_mul) agrees with big-rational
    arithmetic to 1e-30 relative, over 10^4 random cases."""
    rng = np.random.default_rng(1007)
    n_cases = 10_000
    worst = 0.0
    a, b = np.empty(n_cases), np.empty(n_cases)
    for c in range(n_cases):
        sign = rng.choice([-1.0, 1.0], size=2)
        mant = rng.uniform(1.0, 10.0, size=2)
        expo = rng.uniform(-120.0, 120.0, size=2)
        a[c], b[c] = sign * mant * 10.0 ** expo
    zero = np.zeros(n_cases)
    his, los = compiled_dd.two_sum(a, b)
    ps, es = compiled_dd.two_prod(a, b)
    # compound: (a (+) b) (*) b, all dd
    sh, sl = compiled_dd.dd_add((a, zero), (b, zero))
    phs, pls = compiled_dd.dd_mul((sh, sl), (b, zero))
    for x, y, hi, lo, p, e, ph, pl in zip(*(v.tolist() for v in (a, b, his, los, ps, es, phs, pls))):
        assert Fraction(hi) + Fraction(lo) == Fraction(x) + Fraction(y)
        assert Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y)
        ref = (Fraction(x) + Fraction(y)) * Fraction(y)
        if ref != 0:
            rel = abs((Fraction(ph) + Fraction(pl)) - ref) / abs(ref)
            worst = max(worst, float(rel))
    ok = worst <= 1e-30
    acceptance(
        7,
        "precision kernels",
        ok,
        f"{n_cases} cases: error-free transforms exact, dd chain within {worst:.2e} of rational",
    )
    assert worst <= 1e-30


def test_criterion_8_conditioning_trend(
    truth, default_model, default_e2, default_config, acceptance
):
    """The cond of the d-parameter pool's monomial matrix grows (at most one
    inversion) with basis size, and the oversampled build tracks the square
    build."""
    cfg = default_config
    train = training_grid(cfg)
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    conds = []
    for n_hat in range(2, 7):
        model, _, _ = rb.greedy_build(truth, train, n_max=n_hat, tol=cfg.tol)
        pool = sampler(rb.x_dimension(n_hat), cfg.seed)
        conds.append(np.linalg.cond(rb.x_matrix(pool, rb.solve_reduced_block(model, pool))))
    inversions = sum(1 for a, b in zip(conds, conds[1:]) if b < a)

    model6, _ = default_model
    d = rb.x_dimension(model6.n_hat)
    square = rb.build_e3_data(truth, model6, sampler, seed=cfg.seed)
    over = rb.build_e3_data(
        truth, model6, lambda n, seed: sampler(n + (d + 1) // 2, seed), seed=cfg.seed
    )
    vs = rb.evaluate(truth, model6, default_e2, square, sweep_grid(cfg))
    vo = rb.evaluate(truth, model6, default_e2, over, sweep_grid(cfg))
    ratios = (vo["e3"] / vs["e3"])[vs["e1"] >= 1e-12].tolist()
    ok = inversions <= 1 and min(ratios) >= 0.5 and max(ratios) <= 2.0
    acceptance(
        8,
        "conditioning trend",
        ok,
        f"cond(T) {' -> '.join(f'{c:.2e}' for c in conds)} ({inversions} inversions); "
        f"oversampled(+{(d + 1) // 2})/square ratio in [{min(ratios):.6f}, {max(ratios):.6f}]",
    )
    assert inversions <= 1
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0


def test_criterion_9_determinism(cli_workdir, acceptance):
    """offline + sweep twice with the same seed produce byte-identical CSV."""
    payloads = []
    for name in ("accept_det_a", "accept_det_b"):
        out = make_output_dir(cli_workdir, name)
        assert cli.main(["offline", "--output-dir", out]) == 0
        assert cli.main(["sweep", "--output-dir", out]) == 0
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            payloads.append(fh.read())
    ok = payloads[0] == payloads[1]
    acceptance(
        9,
        "determinism",
        ok,
        f"two offline+sweep runs: CSV byte-identical ({len(payloads[0])} bytes)",
    )
    assert payloads[0] == payloads[1]


def test_e2_driven_greedy_stagnates_at_its_floor(truth, floors_config, monkeypatch):
    """A greedy driven by the working-precision compact form e2 stagnates.

    The scan and the value at the pick (history and tol stop) both use e2.
    Its selection leaves the accurate one at the 9th pick, and its maximum
    settles at e2's floor delta*sqrt(eps)/beta instead of falling to tol,
    so it runs to rb_size.
    """
    cfg = floors_config
    kwargs = dict(
        n_max=cfg.rb_size,
        tol=cfg.tol,
        orthonormalize=cfg.orthonormalize,
        dependence_tol=cfg.dependence_tol,
    )
    accurate, _, _ = rb.greedy_build(truth, training_grid(cfg), **kwargs)
    scanned = []

    def e2_scan(data, z):
        scanned.append(data)
        return _e2_block(rb.q_coefficients(data), z)

    def e2_at_pick(sys_, model, mus, gamma):
        return _e2_block(rb.q_coefficients(scanned[-1]), _z_rows(mus, gamma))[0]

    monkeypatch.setattr("rbcert.reduced._e2dd_block", e2_scan)
    monkeypatch.setattr("rbcert.reduced.estimator_e1_block", e2_at_pick)
    model, history, e2data = rb.greedy_build(truth, training_grid(cfg), **kwargs)

    assert model.snapshot_params[:8] == accurate.snapshot_params[:8]
    assert accurate.snapshot_params[8] == pytest.approx(405.546, rel=1e-5)
    assert model.snapshot_params[8] == pytest.approx(1.3667, rel=1e-4)
    assert model.n_hat == cfg.rb_size
    assert history[-1][1] > cfg.tol
    floor = e2data.delta * math.sqrt(EPS) / e2data.beta
    assert floor / 30.0 <= history[-1][1] <= floor * 30.0


@pytest.fixture(scope="module")
def floors_loaded(floors_config, floors_artifact):
    return rb.load_artifact(floors_artifact, floors_config)


def test_e3_tracks_e1_at_range_ends_and_snapshots(floors_config, floors_loaded):
    """On the converged basis e3 is not clamped and stays within a factor 2
    of e1 at mu_min, mu_max and every snapshot parameter: points the sweep
    grid of cell midpoints never visits."""
    cfg = floors_config
    sys_, model, e2data, e3data, _ = floors_loaded
    mus = [cfg.mu_min, cfg.mu_max, *model.snapshot_params]
    cols = rb.evaluate(sys_, model, e2data, e3data, mus)
    ratios = cols["e3"] / cols["e1"]
    assert not cols["e3_clamped_flag"].any()
    assert 0.5 <= ratios.min() and ratios.max() <= 2.0


def test_floors_sweep_has_no_e3_clamps(floors_config, floors_loaded):
    sys_, model, e2data, e3data, _ = floors_loaded
    rows = rb.compute_sweep(sys_, model, e2data, e3data, sweep_grid(floors_config))
    assert len(rows) == floors_config.n_sweep
    assert sum(r.e3_clamped_flag for r in rows) == 0

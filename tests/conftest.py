"""Shared fixtures: assembled truth systems and prebuilt artifacts.

The greedy build, the double-double Gram assembly, and the interpolation
data are the expensive pieces, so they are session-scoped; every consumer
treats them as read-only.
"""

import os

import pytest

import rbcert as rb
from rbcert.experiments import (
    ExperimentConfig,
    compute_sweep,
    run_offline,
    sweep_grid,
    training_grid,
)

# Populated by the tests in test_acceptance.py, printed at the end of the
# run so every criterion gets exactly one visible pass/fail line.
ACCEPTANCE_RESULTS = {}


@pytest.fixture
def acceptance():
    """Record one acceptance-criterion outcome and echo it."""

    def record(num: int, label: str, passed: bool, detail: str) -> bool:
        ACCEPTANCE_RESULTS[num] = (label, passed, detail)
        print(f"acceptance {num} [{'PASS' if passed else 'FAIL'}] {label}: {detail}")
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} {status} — {label}: {detail}")


@pytest.fixture(scope="session")
def truth():
    """Default-size truth system (n_cells=200)."""
    return rb.assemble(200)


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_model(truth, default_config):
    """Greedy basis at the default configuration, with its history."""
    cfg = default_config
    model, history, _ = rb.greedy_build(
        truth,
        training_grid(cfg),
        n_max=cfg.rb_size,
        tol=cfg.tol,
        orthonormalize=cfg.orthonormalize,
        dependence_tol=cfg.dependence_tol,
    )
    return model, history


@pytest.fixture(scope="session")
def default_e2(truth, default_model):
    model, _ = default_model
    return rb.build_e2_data(truth, model)


@pytest.fixture(scope="session")
def default_e3(truth, default_model, default_config):
    model, _ = default_model
    cfg = default_config
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    return rb.build_e3_data(truth, model, sampler, seed=cfg.seed)


@pytest.fixture(scope="session")
def default_rows(truth, default_model, default_e2, default_e3, default_config):
    model, _ = default_model
    return compute_sweep(truth, model, default_e2, default_e3, sweep_grid(default_config))


@pytest.fixture(scope="session")
def floors_config(tmp_path_factory):
    """Converged-basis configuration used for the round-off floor checks.

    The default raw basis stops at N_hat=6 with approximation error around
    1e-9, far above the e1 floor; orthonormalizing and letting the greedy
    run to its tolerance (it stops at N_hat=12) drives every sweep point
    down to the floors.
    """
    out = tmp_path_factory.mktemp("floors")
    return ExperimentConfig(
        rb_size=24,
        orthonormalize=True,
        dependence_tol=1e-30,
        output_dir=str(out),
    )


# Greedy configurations on which the greedy is checked against the e1-driven
# oracle and its E2 data against the per-pair oracle: the default raw basis,
# the floors basis (stops on tol at N_hat=12), a small orthonormal one, and a
# raw one that stops on dependence at N_hat=8.
GREEDY_CASES = {
    "default": {},
    "floors": {"rb_size": 24, "orthonormalize": True, "dependence_tol": 1e-30},
    "small_orthonormal": {
        "n_cells": 50, "n_train": 50, "rb_size": 8, "orthonormalize": True,
        "dependence_tol": 1e-30,
    },
    "raw_rb10": {"rb_size": 10},
}


@pytest.fixture(scope="session", params=sorted(GREEDY_CASES))
def greedy_case(request):
    """(truth system, training grid, greedy keyword arguments) of one case."""
    cfg = ExperimentConfig(**GREEDY_CASES[request.param])
    kwargs = dict(
        n_max=cfg.rb_size,
        tol=cfg.tol,
        orthonormalize=cfg.orthonormalize,
        dependence_tol=cfg.dependence_tol,
    )
    return rb.assemble(cfg.n_cells), training_grid(cfg), kwargs


@pytest.fixture(scope="session")
def floors_artifact(floors_config):
    return run_offline(floors_config, log=lambda *a: None)


@pytest.fixture(scope="session")
def floors_report(floors_config, floors_artifact):
    return rb.measure_floors(floors_config, log=lambda *a: None)


@pytest.fixture(scope="session")
def cli_workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    return str(d)


def make_output_dir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    os.makedirs(path, exist_ok=True)
    return path

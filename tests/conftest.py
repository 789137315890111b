"""Shared fixtures and references: truth systems, prebuilt artifacts, the
analytic solution.

The greedy build, the double-double Gram assembly, and the interpolation
data are the expensive pieces, so they are session-scoped; every consumer
treats them as read-only.  The analytic solution of the truth problem and
the H1 error against it are references the truth-solver tests (and
acceptance criterion 6) check the finite elements with, and ``operator``
forms the A(mu) whose residual the truth and e1 tests check.  The
two-pass Thomas solve on Python floats is the reference the compiled
kernel in :mod:`rbcert.fem` is checked against by ``float.hex``.
"""

import math
import os

import numpy as np
import pytest

import rbcert as rb
from rbcert.estimators import E2Table
from rbcert.fem import Tridiagonal, TruthSystem, check_parameters
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


def build_e2_data(sys_, model):
    """The model's E2Data: one E2Table grown from empty over all its Riesz vectors."""
    return E2Table(sys_).grow(model)


@pytest.fixture(scope="session")
def default_e2(truth, default_model):
    model, _ = default_model
    return build_e2_data(truth, model)


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


# --- the parametric operator ----------------------------------------------

def scaled(T: Tridiagonal, c: float) -> Tridiagonal:
    return Tridiagonal(c * T.diag, c * T.off)


def operator(sys: TruthSystem, mu: float) -> Tridiagonal:
    """The parametric operator A(mu) = K + mu*M at one parameter."""
    return sys.K + scaled(sys.M, mu)


# --- the two-pass Thomas solve -------------------------------------------

def thomas_factor(diag, off):
    """Thomas elimination's multipliers and pivots of one system.

    diag and off are lists of Python floats, and so are the multipliers
    c_i = off[i-1]/piv[i-1] and pivots piv_i = diag[i] - off[i-1]*c_i
    returned.  A zero pivot raises ``ZeroDivisionError`` here or in the
    substitution.
    """
    piv = diag[0]
    cs, pivs = [], [piv]
    for a, o in zip(diag[1:], off):
        c = o / piv
        piv = a - o * c
        cs.append(c)
        pivs.append(piv)
    return cs, pivs


def thomas_substitute(off, cs, pivs, rhs):
    """The two substitution sweeps of a system factored by :func:`thomas_factor`.

    Python floats throughout; returns the solution as a list.
    """
    x = rhs[0] / pivs[0]
    xs = [x]
    for o, p, r in zip(off, pivs[1:], rhs[1:]):
        x = (r - o * x) / p
        xs.append(x)
    for i, c in zip(range(len(cs) - 1, -1, -1), reversed(cs)):
        x = xs[i] = xs[i] - c * x
    return xs


def thomas(diag, off, rhs):
    """One tridiagonal system solved by the two passes, as an array.

    A zero pivot raises ``LinAlgError``, as the compiled kernel's wrapper does.
    """
    diag, off, rhs = (np.asarray(a, dtype=float).tolist() for a in (diag, off, rhs))
    try:
        return np.array(thomas_substitute(off, *thomas_factor(diag, off), rhs))
    except ZeroDivisionError as exc:
        raise np.linalg.LinAlgError("zero pivot") from exc


# --- analytic reference -------------------------------------------------

def analytic_solution(mu: float, x):
    """Exact solution of -u'' + mu*u = 1, u(0) = u(1) = 0.

    Written with exp(-sqrt(mu)*(1-x)) and exp(-sqrt(mu)*x) factors so it
    stays finite for arbitrarily large mu; algebraically identical to the
    cosh/sinh form.  Boundary values are exactly 0.0 in floating point.
    """
    check_parameters(mu)
    s = math.sqrt(mu)
    x = np.asarray(x, dtype=float)
    num = np.exp(-s * (1.0 - x)) + np.exp(-s * x)
    den = 1.0 + math.exp(-s)
    u = (1.0 - num / den) / mu
    return u if u.ndim else float(u)


def analytic_derivative(mu: float, x):
    """Derivative of :func:`analytic_solution` (same overflow-safe form)."""
    s = math.sqrt(mu)
    x = np.asarray(x, dtype=float)
    num = np.exp(-s * x) - np.exp(-s * (1.0 - x))
    den = 1.0 + math.exp(-s)
    du = s * num / (den * mu)
    return du if du.ndim else float(du)


# 4-point Gauss-Legendre on [-1, 1]: exact through degree 7, which makes
# the per-cell quadrature error negligible next to the O(h) FE error.
_GAUSS_X = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GAUSS_W = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def h1_error_vs_analytic(sys: TruthSystem, u: np.ndarray, mu: float) -> float:
    """H1-norm distance between a discrete field and the analytic solution.

    The discrete field is the P1 interpolant of the interior nodal values
    `u` (zero at the boundary); the integral of (e')^2 + e^2 is taken
    cell by cell with 4-point Gauss quadrature.
    """
    h = sys.h
    full = np.zeros(sys.n_cells + 1)
    full[1:-1] = u
    left = full[:-1]
    right = full[1:]
    slope = (right - left) / h
    x_left = h * np.arange(sys.n_cells)
    total = 0.0
    for xi, w in zip(_GAUSS_X, _GAUSS_W):
        t = 0.5 * (xi + 1.0)
        x = x_left + t * h
        uh = left + t * (right - left)
        e = uh - analytic_solution(mu, x)
        de = slope - analytic_derivative(mu, x)
        total += w * float(np.sum(de * de + e * e))
    return math.sqrt(0.5 * h * total)

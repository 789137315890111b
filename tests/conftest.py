"""Shared fixtures and references: truth systems, prebuilt artifacts, the
analytic solution.

The greedy build, the double-double Gram assembly, and the interpolation
data are the expensive pieces, so they are session-scoped; every consumer
treats them as read-only.  The analytic solution of the truth problem and
the H1 error against it are references the truth-solver tests (and
acceptance criterion 6) check the finite elements with, and ``operator``
forms the A(mu) whose residual the truth and e1 tests check.
:class:`TridiagonalArrays`, an operator as numpy arrays of its entries,
and the eight-lane dot :func:`lane_dot` make :func:`project_in_lanes`, the
reference of ``fem.tridiagonal_project``, and :func:`h1_inner_lanes`, the
H1 inner product as the package sums it; :func:`h1_norm_lanes` and
:func:`lift_in_snapshot_order` are the references of the H1 norm and the
lift that ``fem.lift_norms`` compiles, for e1 and for the true error.  The
two-pass Thomas solve on Python floats is the reference the compiled
kernel in :mod:`rbcert.fem` is checked against by ``float.hex``.  The
numpy double-double arithmetic (:func:`two_sum`, :func:`two_prod`,
:func:`dd_add`, :func:`dd_mul`, :func:`dd_sqrt` and the pairwise sum
:func:`dd_sum`) is the reference of the package's only dd arithmetic, the
C source of :mod:`rbcert.fem`, :func:`dd_root` that of e2dd's clamp and
square root, and :func:`sum2`, two_sum's compensated sum, that of e2's
radicands; ``compiled_dd`` builds that source with a shim that
exports its static dd operations, for the tests that check them one by
one.  The numpy LU, the factorisation :func:`_lu_factor` and the solve
:func:`_lu_solve`, is the reference of both LU kernels: of
``fem.lu_solves``, which factors and solves the reduced systems, E3's T
and the raw basis's pivot system, and, with a left-to-right dot
(:func:`dot_in_order`), of e3's ``fem.lu_solve_dots``.
"""

import ctypes
import math
import os
import subprocess
from dataclasses import dataclass

import numpy as np
import pytest

import rbcert as rb
from rbcert import fem
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

@dataclass(frozen=True)
class TridiagonalArrays:
    """A symmetric tridiagonal matrix as numpy arrays of its n diagonal and
    n - 1 off-diagonal entries."""

    diag: np.ndarray
    off: np.ndarray

    @classmethod
    def of(cls, T: Tridiagonal, n: int) -> "TridiagonalArrays":
        """The n rows of fem's one-row operator T."""
        return cls(np.full(n, T.diag), np.full(n - 1, T.off))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A*v, or A*v_j for every row v_j of a (m, n) stack."""
        w = self.diag * v
        w[..., :-1] += self.off * v[..., 1:]
        w[..., 1:] += self.off * v[..., :-1]
        return w


def operator(sys: TruthSystem, mu: float) -> TridiagonalArrays:
    """The parametric operator A(mu) = K + mu*M at one parameter."""
    K, M = sys.K, sys.M
    return TridiagonalArrays.of(Tridiagonal(K.diag + mu * M.diag, K.off + mu * M.off), sys.n)


def lane_dot(a, b) -> float:
    """sum_i a_i*b_i as the compiled kernels sum it: a_i*b_i added into
    lane i % 8, in increasing i, from 0.0, then the lanes as
    ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))."""
    l = [0.0] * 8
    for i, x in enumerate((np.asarray(a) * np.asarray(b)).tolist()):
        l[i % 8] += x
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))


def project_in_lanes(T: Tridiagonal, vectors, v, passes: int = 0):
    """``fem.tridiagonal_project``'s operations on a copy of v: passes
    sweeps of v = v - lane_dot(x, T*v)*x over vectors in order, then the
    lane dots of every x and of v with w = T*v.  Returns (dots, v, w)."""
    A, v = TridiagonalArrays.of(T, len(v)), np.array(v, dtype=float)
    for _ in range(passes):
        for x in vectors:
            v = v - lane_dot(x, A.matvec(v)) * x
    w = A.matvec(v)
    return np.array([lane_dot(x, w) for x in vectors] + [lane_dot(v, w)]), v, w


def h1_inner_lanes(sys: TruthSystem, u: np.ndarray, v: np.ndarray) -> float:
    """u . Gram*v summed by :func:`lane_dot`, as the package sums it."""
    return lane_dot(u, TridiagonalArrays.of(sys.Gram, sys.n).matvec(v))


def h1_norm_lanes(sys: TruthSystem, v: np.ndarray) -> float:
    """sqrt(max(v . Gram*v, 0)) with the dot summed by :func:`lane_dot`."""
    return math.sqrt(max(h1_inner_lanes(sys, v, v), 0.0))


def z_of(mus, gamma) -> np.ndarray:
    """z = (1; gamma[j]; mus[j]*gamma[j]) for the rows gamma[j] of an (m,
    N_hat) array: the (2*N_hat + 1, m) array that ``z_block`` forms from
    the reduced solve, here for coefficients and parameters of a test's
    choosing, out of the domain too."""
    gamma_t = np.ascontiguousarray(np.transpose(gamma))
    return np.concatenate([np.ones((1, len(mus))), gamma_t, mus * gamma_t])


def lift_in_snapshot_order(snapshots, gamma) -> np.ndarray:
    """sum_k gamma[k]*snapshots[k], from gamma[0]*snapshots[0], adding the
    snapshots in order."""
    lift = gamma[0] * snapshots[0]
    for c, s in zip(gamma[1:], snapshots[1:]):
        lift = lift + c * s
    return lift


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


# --- the numpy double-double references ------------------------------------
#
# A double-double value represents a real number as an unevaluated sum
# hi + lo of two floats with |lo| <= ulp(hi)/2, giving roughly 106 bits of
# significand.  Every operation below is ordinary double arithmetic, so
# each accepts Python floats or numpy arrays and broadcasts; the compiled
# forms in fem._SOURCE make the same operations in the same order.

# Dekker's splitter for binary64: 2**27 + 1.
SPLITTER = 134217729.0


def two_sum(a, b):
    """Return ``(s, e)`` with ``s = fl(a + b)`` and ``s + e == a + b`` exactly.

    Knuth's branch-free version: correct for any ordering of magnitudes,
    and symmetric in its arguments bit-for-bit.
    """
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def sum2(terms):
    """Ogita, Rump and Oishi's Sum2 of the rows of terms, column by column:
    each row is two_summed into s, from +0.0, its error added into c, from
    +0.0, and s + c returned.  The reference of ``fem.sum2_columns``."""
    s = c = np.zeros(np.shape(terms)[1:])
    for t in terms:
        s, e = two_sum(s, t)
        c = c + e
    return s + c


def quick_two_sum(a, b):
    """two_sum specialized to ``|a| >= |b|`` (three flops instead of six)."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a):
    """Dekker split: ``a == hi + lo`` with both halves 26-bit exact."""
    t = SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Return ``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly,
    by Dekker's splitting (no fused multiply-add)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    """Add two double-double values given as (hi, lo) pairs.

    The classic accurate sum: both hi and lo parts go through exact
    transforms, followed by two renormalizations.  The result is
    symmetric in x and y bit-for-bit because every intermediate is.
    """
    xh, xl = x
    yh, yl = y
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def dd_sqrt(x):
    """Square root of a double-double ``x = (hi, lo)``.

    One Newton/Karp correction on top of the double sqrt; zero maps to
    (0, 0), and negative input raises ``ValueError`` (callers that want
    clamping must clamp before calling).  Array pairs are taken element
    by element; scalars give a pair of floats.
    """
    hi, lo = x
    if np.any(np.less(hi, 0.0)):
        raise ValueError("dd_sqrt of negative value")
    zero = np.equal(hi, 0.0)
    a = np.sqrt(np.where(zero, 1.0, hi))
    p, e = two_prod(a, a)
    d = dd_add(x, (-p, -e))
    corr = (d[0] + d[1]) / (2.0 * a)
    s, e = quick_two_sum(a, corr)
    s, e = np.where(zero, 0.0, s), np.where(zero, 0.0, e)
    return (float(s), float(e)) if s.ndim == 0 else (s, e)


def dd_root(hi, lo):
    """e2dd's value at the double-double radicands (hi, lo), arrays: a
    negative radicand, hi < 0 or hi = 0 with lo < 0, is clamped to 0;
    elsewhere :func:`dd_sqrt` rounded to a double.  NaN and infinities are
    not clamped, and their invalid operations do not warn.  Returns the
    values and the clamped mask."""
    hi, lo = np.atleast_1d(np.asarray(hi, dtype=float)), np.atleast_1d(np.asarray(lo, dtype=float))
    clamped = (hi < 0.0) | ((hi == 0.0) & (lo < 0.0))
    with np.errstate(invalid="ignore", over="ignore"):
        vh, vl = dd_sqrt((np.where(clamped, 0.0, hi), np.where(clamped, 0.0, lo)))
        return np.where(clamped, 0.0, vh + vl), clamped


def dd_mul(x, y):
    """Multiply two double-double values given as (hi, lo) pairs."""
    xh, xl = x
    yh, yl = y
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def dd_sum(hi, lo):
    """Sum the double-double entries of paired (hi, lo) arrays.

    Pairwise (balanced-tree) reduction along the first axis, each level
    the :func:`dd_add` of the front half (the larger when the length is
    odd) and the back half, on copies of the inputs.  1-D input gives a
    scalar (hi, lo) pair; (d, m) input gives the m column sums, each
    summed exactly as its column alone would be.
    """
    h, l = np.array(hi, dtype=float), np.array(lo, dtype=float)
    n = h.shape[0]
    while n > 1:
        half = (n + 1) // 2
        m = n - half
        h[:m], l[:m] = dd_add((h[:m], l[:m]), (h[half:n], l[half:n]))
        n = half
    return (float(h[0]), float(l[0])) if h.ndim == 1 else (h[0], l[0])


# z of two rows (s; t) whose columns, with q = (1, 0, -1) on the monomials
# (s^2, st, t^2), give fem.dd_radicands the radicands s^2 - t^2 of the cases
# that e2dd's clamp and square root single out: zero from signed zero
# factors, a subnormal hi (2**-1040), a hi near 2**996, above which Dekker's
# splitting overflows, negative his, a negative and a positive one with a
# lo, and NaN from a NaN or an infinite factor.  A radicand out of the dd
# sum is never hi = 0 with lo < 0, nor infinite: the compiled dd_root takes
# those through DD_SHIM.
SPECIAL_Z = np.array([
    [0.0, -0.0, 0.0, 2.0**-520, 1.5 * 2.0**497, 1.0, 2.0**-40, 1.0 + 2.0**-30, math.nan,
     math.inf, -math.inf, 1.0],
    [0.0, 0.0, -0.0, 0.0, 0.0, 2.0, 1.0 + 2.0**-30, 2.0**-40, 0.0, 0.0, 1.0, math.inf],
])
SPECIAL_Q = (np.array([1.0, 0.0, -1.0]), np.zeros(3))

# Exported array forms of fem._SOURCE's static dd operations, appended to
# it for the tests only: each takes n entries of its operand arrays and
# writes n of its result arrays; shim_dd_root returns the clamps.
DD_SHIM = r"""
ptrdiff_t shim_two_sum(ptrdiff_t n, const double *a, const double *b, double *s, double *e)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++)
        two_sum(a[i], b[i], &s[i], &e[i]);
    return 0;
}

ptrdiff_t shim_two_prod(ptrdiff_t n, const double *a, const double *b, double *p, double *e)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++)
        two_prod(a[i], b[i], &p[i], &e[i]);
    return 0;
}

ptrdiff_t shim_dd_add(ptrdiff_t n, const double *xh, const double *xl, const double *yh,
                      const double *yl, double *h, double *l)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        h[i] = xh[i];
        l[i] = xl[i];
        dd_add(&h[i], &l[i], yh[i], yl[i]);
    }
    return 0;
}

ptrdiff_t shim_dd_mul(ptrdiff_t n, const double *xh, const double *xl, const double *yh,
                      const double *yl, double *h, double *l)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++)
        dd_mul(xh[i], xl[i], yh[i], yl[i], &h[i], &l[i]);
    return 0;
}

ptrdiff_t shim_dd_root(ptrdiff_t n, const double *h, const double *l, double *root)
{
    ptrdiff_t i, clamps = 0;
    for (i = 0; i < n; i++)
        root[i] = dd_root(h[i], l[i], &clamps);
    return clamps;
}
"""


class CompiledDD:
    """The dd operations of a build of fem._SOURCE with DD_SHIM, taking
    operands of any one broadcast shape, element by element."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib

    def _run(self, name: str, operands, results: int):
        ops = [np.ascontiguousarray(a, dtype=float) for a in np.broadcast_arrays(*operands)]
        outs = [np.empty(ops[0].shape) for _ in range(results)]
        kernel = getattr(self.lib, name)
        kernel.restype = ctypes.c_ssize_t
        clamps = kernel(ctypes.c_ssize_t(ops[0].size),
                        *(ctypes.c_void_p(a.ctypes.data) for a in ops + outs))
        return outs, clamps

    def two_sum(self, a, b):
        return tuple(self._run("shim_two_sum", (a, b), 2)[0])

    def two_prod(self, a, b):
        return tuple(self._run("shim_two_prod", (a, b), 2)[0])

    def dd_add(self, x, y):
        return tuple(self._run("shim_dd_add", (*x, *y), 2)[0])

    def dd_mul(self, x, y):
        return tuple(self._run("shim_dd_mul", (*x, *y), 2)[0])

    def dd_root(self, hi, lo):
        """e2dd's values at the radicands (hi, lo) and the number clamped."""
        (root,), clamps = self._run("shim_dd_root", (hi, lo), 1)
        return root, clamps


@pytest.fixture(scope="session")
def compiled_dd(tmp_path_factory):
    """fem._SOURCE with DD_SHIM, built with fem._FLAGS into a temporary
    directory: the package's compiled dd operations, which the shipped
    library keeps static."""
    path = str(tmp_path_factory.mktemp("dd_shim") / "dd_shim.so")
    cmd = ["cc", *fem._FLAGS, "-o", path, "-x", "c", "-"]
    subprocess.run(cmd, input=fem._SOURCE + DD_SHIM, capture_output=True, text=True, check=True)
    return CompiledDD(ctypes.CDLL(path))


# --- the numpy LU and pivoted Gram-Schmidt ------------------------------------

def _lu_factor(A: np.ndarray):
    """Partial-pivoting LU, in place on a copy; returns (LU, piv).  At
    column k the first maximal |a_ik|, i >= k, wins, its whole row is
    swapped with row k, and l = a_ik/a_kk, then a_ij - l*a_kj.  A zero
    pivot raises ``LinAlgError``."""
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
    """Solve with the partial-pivoting LU factors lu = (LU, piv) of
    :func:`_lu_factor` for a (n,) or (n, m) right-hand side b; columns
    independently."""
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


# The BLAS reference for fem.column_pivots, which sums its dots in the norm
# kernels' lane order: the same picks, Q to rounding.
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


def dot_in_order(a, b) -> float:
    """sum_i a_i*b_i, each product rounded and added left to right from
    +0.0.  Not the builtin sum, which compensates floats from Python 3.12."""
    total = 0.0
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        total = total + x * y
    return total


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

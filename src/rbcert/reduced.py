"""Reduced-basis core: snapshot model, greedy construction, serialization.

A :class:`ReducedModel` holds the snapshot basis plus every projected and
Riesz-lifted quantity the online stage needs:

* ``A0_hat``, ``A1_hat``, ``b_hat`` - Galerkin projections of the affine
  operator blocks a0 = K, a1 = M and the load, so the reduced system
  (A0_hat + mu*A1_hat) gamma = b_hat solves in O(N_hat^3) independently
  of the truth size.
* ``riesz_b``, ``riesz_a0[i]``, ``riesz_a1[i]`` - Riesz representatives
  of the residual pieces.  Sign convention: riesz_b = -Gram^{-1} F, so
  the residual representative is riesz_b + sum_I x_I * riesz-terms with
  no extra minus anywhere downstream.

Snapshots are kept raw by default (the conditioning of the derived
interpolation matrix at larger basis sizes is itself an effect under
study); an optional Gram-Schmidt flag orthonormalizes the basis vectors
as they are added, which is what a run pushed to round-off-floor
convergence needs.

:func:`_extend_basis` is the only code that extends a basis: the greedy
runs it in :func:`add_snapshot`, and loading an artifact replays it at
the stored snapshot parameters, so the artifact holds no truth-size vector.
"""

from __future__ import annotations

import hashlib
import json
import logging

import numpy as np

from .estimators import (
    E2Data,
    E2Table,
    E3Data,
    _e2dd_block,
    _monomial_factors,
    e3_data,
    estimator_e1_block,
)
from .fem import (
    TruthSystem,
    _lift,
    check_parameters,
    h1_inner,
    h1_norm,
    parameter_block,
    riesz_representative,
    solve_truth,
)
from .precision import two_prod

logger = logging.getLogger(__name__)


class DependentSnapshotError(RuntimeError):
    """New snapshot is (numerically) linearly dependent on the basis."""

    def __init__(self, mu: float, pivot_ratio: float):
        super().__init__(
            f"snapshot at mu={mu!r} rejected: relative Gram pivot "
            f"{pivot_ratio:.3e} signals linear dependence"
        )
        self.mu = mu
        self.pivot_ratio = pivot_ratio


class ReducedModel:
    """Snapshot basis plus projected operators and Riesz lifts."""

    def __init__(self, sys: TruthSystem, orthonormalize: bool = False):
        self.orthonormalize = bool(orthonormalize)
        self.snapshots: list[np.ndarray] = []
        self.snapshot_params: list[float] = []
        self.A0_hat = np.empty((0, 0))
        self.A1_hat = np.empty((0, 0))
        self.b_hat = np.empty(0)
        self.riesz_b = -riesz_representative(sys, sys.F)
        self.riesz_a0: list[np.ndarray] = []
        self.riesz_a1: list[np.ndarray] = []

    @property
    def n_hat(self) -> int:
        return len(self.snapshots)

    @property
    def basis_matrix(self) -> np.ndarray:
        return np.column_stack(self.snapshots)


def add_snapshot(
    model: ReducedModel,
    sys: TruthSystem,
    mu_new: float,
    dependence_tol: float = 1e-12,
) -> ReducedModel:
    """Solve the truth problem at mu_new and extend the model in place.

    :func:`_extend_basis`, then the two Riesz lifts, one vector at a time.
    Replaying a build's calls in order, at any dependence_tol at or below
    the build's, rebuilds its model bit for bit (:func:`model_from_dict`).
    """
    Kv, Mv = _extend_basis(model, sys, mu_new, dependence_tol)
    model.riesz_a0.append(riesz_representative(sys, Kv))
    model.riesz_a1.append(riesz_representative(sys, Mv))
    return model


def _extend_basis(model, sys, mu_new, dependence_tol):
    """Append the basis vector v at mu_new, its projections and parameter.

    v is the truth solution, or what survives Gram-Schmidt of it,
    normalized.  Returns (K v, M v), the functionals to Riesz-lift.  Raises
    ``ValueError`` if mu_new is already a snapshot parameter, and
    :class:`DependentSnapshotError` if v's Gram pivot against the basis is
    at most dependence_tol * ||u_new||^2: the Schur complement of the
    snapshot Gram matrix for a raw basis, the squared norm surviving
    Gram-Schmidt for an orthonormalized one.
    """
    mu_new = float(mu_new)
    if mu_new in model.snapshot_params:
        raise ValueError(f"mu={mu_new!r} is already a snapshot parameter")
    u = solve_truth(sys, mu_new)
    nrm2 = h1_inner(sys, u, u)
    v = u
    if model.orthonormalize:
        v = u.copy()
        for _ in range(2):  # twice-is-enough re-orthogonalization
            for w in model.snapshots:
                v -= h1_inner(sys, w, v) * w
        pivot = h1_inner(sys, v, v)
    elif model.n_hat:
        g = np.array([h1_inner(sys, w, u) for w in model.snapshots])
        Gb = np.array(
            [[h1_inner(sys, wi, wj) for wj in model.snapshots] for wi in model.snapshots]
        )
        pivot = nrm2 - float(g @ np.linalg.solve(Gb, g))
    else:
        pivot = nrm2
    if pivot <= dependence_tol * nrm2:
        raise DependentSnapshotError(mu_new, pivot / nrm2)
    if model.orthonormalize:
        v = v / np.sqrt(pivot)
    n = model.n_hat
    A0 = np.empty((n + 1, n + 1))
    A1 = np.empty((n + 1, n + 1))
    A0[:n, :n] = model.A0_hat
    A1[:n, :n] = model.A1_hat
    Kv = sys.K.matvec(v)
    Mv = sys.M.matvec(v)
    for i, w in enumerate(model.snapshots):
        A0[i, n] = A0[n, i] = float(w @ Kv)
        A1[i, n] = A1[n, i] = float(w @ Mv)
    A0[n, n] = float(v @ Kv)
    A1[n, n] = float(v @ Mv)
    model.A0_hat = A0
    model.A1_hat = A1
    model.b_hat = np.append(model.b_hat, float(sys.F @ v))
    model.snapshots.append(v)
    model.snapshot_params.append(mu_new)
    return Kv, Mv


def solve_reduced_block(model: ReducedModel, mus) -> np.ndarray:
    """Reduced coefficients at every mus[j], as the rows of an (m, N_hat) array.

    One stacked LAPACK solve, O(N_hat^3) per point and truth-free; row j
    does not depend on the block it was solved in (each matrix of the
    stack is factored by the same routine on the same entries).  mus must
    be a 1-D block of valid parameters, or ``ValueError`` is raised.
    """
    if model.n_hat < 1:
        raise ValueError("reduced model is empty")
    mus = parameter_block(mus)
    A = model.A0_hat + mus[:, None, None] * model.A1_hat
    b = np.broadcast_to(model.b_hat[:, None], A.shape[:2] + (1,))
    try:
        gamma = np.linalg.solve(A, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular reduced system for mu in [{mus.min()!r}, {mus.max()!r}] "
            f"(snapshot dependence?): {exc}"
        ) from exc
    return np.ascontiguousarray(gamma)


def greedy_build(
    sys: TruthSystem,
    training_set,
    n_max: int,
    tol: float = 1e-14,
    *,
    orthonormalize: bool = False,
    dependence_tol: float = 1e-12,
):
    """Greedy basis construction driven by the double-double compact form.

    The first snapshot is the smallest training parameter: the empty model's
    estimator is delta = ||riesz_b|| at every parameter, so every candidate
    ties, and that delta is its recorded e1.  If delta is already at or
    below tol there is nothing to build and ``ValueError`` is raised.  Then
    the greedy repeatedly selects the training parameter maximizing e2dd
    over all unselected candidates, evaluated as one block, adds its
    snapshot, and stops at n_max, when e1 at the selected parameter drops
    to tol, or when the selected snapshot is numerically dependent.  e2dd
    costs O(N_hat^2) per candidate against e1's O(N*N_hat), and its floor
    lies at or below e1's; the working-precision e2 would stagnate at its
    delta*sqrt(eps) floor and corrupt the selection.  e1 is evaluated at
    the selected parameter only, and is what the history records.  E2's
    data grow with the basis (:class:`E2Table`), two Riesz vectors per
    snapshot.  Ties break to the smallest mu: candidates are in ascending
    order and the first maximum wins.

    Returns (model, history, e2data): history has one (mu_selected, e1)
    pair per accepted snapshot, and e2data is the final model's E2Data,
    bit for bit what one table grown over all of the model's Riesz vectors
    gives.
    """
    training = sorted(float(mu) for mu in training_set)
    if not training:
        raise ValueError("empty training set")
    check_parameters(training)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    model = ReducedModel(sys, orthonormalize=orthonormalize)
    delta = h1_norm(sys, model.riesz_b)
    if delta <= tol:
        raise ValueError(f"tol = {tol!r} is at or above the empty model's estimator {delta!r}")
    add_snapshot(model, sys, training[0], dependence_tol=dependence_tol)
    history = [(training[0], delta)]
    table = E2Table(sys)
    e2data = table.grow(model)
    while model.n_hat < n_max:
        selected = set(model.snapshot_params)
        candidates = np.array([mu for mu in training if mu not in selected])
        if not candidates.size:
            break
        gamma = solve_reduced_block(model, candidates)
        XX = two_prod(*_monomial_factors(candidates, gamma))
        best = int(np.argmax(_e2dd_block(e2data, XX)[0]))
        pick = slice(best, best + 1)
        best_mu = float(candidates[best])
        best_val = float(estimator_e1_block(sys, model, candidates[pick], gamma[pick])[0])
        if best_val <= tol:
            break
        try:
            add_snapshot(model, sys, best_mu, dependence_tol=dependence_tol)
        except DependentSnapshotError as exc:
            logger.warning("greedy stopped at N_hat=%d: %s", model.n_hat, exc)
            break
        history.append((best_mu, best_val))
        e2data = table.grow(model)
    return model, history, e2data


# --- serialization ---------------------------------------------------------
#
# JSON with every float rendered via float.hex(): bit-exact round-trip,
# human-greppable, and deterministic bytes (sorted keys, fixed separators).
#
# Only what cannot be cheaply recomputed is stored: the snapshot
# parameters (the model is replayed from them by model_from_dict, and a sha256
# of the parameters and the replayed basis must match the stored one), the
# double-double coefficients q of E2 (its doubles are their roundings), and
# E3's nodes and rows (e3_data recomputes T and V from them).  beta is the
# problem's constant (see estimators), not data.  Decoding refuses
# non-finite entries.
#
# Bytes are reproducible on the same machine with the same OpenBLAS kernel
# and numpy SIMD target, and no further: artifacts built under two OpenBLAS
# kernels differ, raw basis included.  A raw basis vector is a truth solve
# in Python floats and does not depend on the BLAS, but the e1 history and
# the E3 picks go through BLAS dots.  An orthonormal basis goes through BLAS
# dots in Gram-Schmidt, so another kernel replays it with other bits than
# those q was built from; the hash turns that into a load error.  V is
# recomputed with the loading machine's e1.

FORMAT_NAME = "rbcert-artifact"
FORMAT_VERSION = 7


def _enc_vec(v) -> list:
    return list(map(float.hex, np.asarray(v, dtype=float).tolist()))

def _dec_vec(v) -> np.ndarray:
    out = np.array(list(map(float.fromhex, v)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite artifact entry")
    return out


def basis_sha256(model: ReducedModel) -> str:
    """sha256 hex digest of the snapshot parameters, then the basis vectors.

    Both in order, as little-endian float64, so a stored parameter that
    changed is caught even where it replays the same basis bits.
    """
    h = hashlib.sha256()
    h.update(np.asarray(model.snapshot_params, dtype="<f8").tobytes())
    for u in model.snapshots:
        h.update(np.asarray(u, dtype="<f8").tobytes())
    return h.hexdigest()


def model_to_dict(model: ReducedModel) -> dict:
    return {
        "basis_sha256": basis_sha256(model),
        "orthonormalize": model.orthonormalize,
        "snapshot_params": _enc_vec(model.snapshot_params),
    }


def model_from_dict(d: dict, sys: TruthSystem) -> ReducedModel:
    """Rebuild the model: extend the basis at each stored parameter, then lift.

    The 2 N_hat functionals are lifted in one block, with the bits of
    :func:`add_snapshot`'s one-vector lifts, and kept as contiguous rows.
    Tolerance 0 accepts every snapshot the build accepted (each had a
    positive pivot) and rejects only a pivot that cannot be normalized.
    Raises ValueError if the replayed basis misses the stored sha256.
    """
    model = ReducedModel(sys, orthonormalize=bool(d["orthonormalize"]))
    mus = _dec_vec(d["snapshot_params"]).tolist()
    n = len(mus)
    functionals = np.empty((sys.n, 2 * n))  # K v_0 ... K v_n-1, M v_0 ... M v_n-1
    for k, mu in enumerate(mus):
        functionals[:, k], functionals[:, n + k] = _extend_basis(model, sys, mu, 0.0)
    if basis_sha256(model) != d["basis_sha256"]:
        raise ValueError("the replayed basis misses the stored basis_sha256")
    lifts = np.ascontiguousarray(_lift(sys, functionals, functionals).T)
    model.riesz_a0, model.riesz_a1 = list(lifts[:n]), list(lifts[n:])
    return model


def e2data_to_dict(data: E2Data) -> dict:
    return {"q_dd": [_enc_vec(data.q_dd[0]), _enc_vec(data.q_dd[1])]}


def e2data_from_dict(d: dict) -> E2Data:
    """Decode q; raises ValueError unless q_0 = delta^2 = ||G_0||^2 is > 0."""
    hi, lo = map(_dec_vec, d["q_dd"])
    if not hi[0] + lo[0] > 0.0:
        raise ValueError("e2 data needs q_0 = delta^2 > 0")
    return E2Data(q_dd=(hi, lo))


def e3data_to_dict(data: E3Data) -> dict:
    return {
        "interp_params": _enc_vec(data.interp_params),
        "rows": [int(k) for k in data.rows],
    }


def e3data_from_dict(d: dict, sys: TruthSystem, model: ReducedModel) -> E3Data:
    """Rebuild E3Data at the stored nodes and rows: T and V come from :func:`e3_data`."""
    return e3_data(sys, model, _dec_vec(d["interp_params"]), np.array(d["rows"], dtype=int))


def dumps_deterministic(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")

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

:func:`add_snapshot` is the only code that extends a model: the greedy
calls it at each pick, and loading an artifact replays those calls at the
stored snapshot parameters and recomputes the greedy's history on the way,
so the artifact holds neither a truth-size vector nor the history.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math

import numpy as np

from .estimators import (
    E2Data,
    E2Table,
    E3Data,
    _e1_block,
    _e2dd_block,
    _z_rows,
    e3_data,
)
from .fem import (
    Tridiagonal,
    TruthSystem,
    ZeroPivotError,
    _lift,
    check_parameters,
    lu_solves,
    parameter_block,
    riesz_representative,
    solve_truth,
    tridiagonal_project,
)

logger = logging.getLogger(__name__)

# The identity's row: 1*v_i + 0*v_j is v_i for finite v, so its dots with v
# are plain dots in the eight-lane order (b_hat's F.v).
_IDENTITY = Tridiagonal(1.0, 0.0)


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


def add_snapshot(
    model: ReducedModel,
    sys: TruthSystem,
    mu_new: float,
    dependence_tol: float = 1e-12,
) -> ReducedModel:
    """Solve the truth problem at mu_new and extend the model in place.

    Appends the basis vector v, the truth solution or what survives
    Gram-Schmidt of it, normalized; its projections and parameter; and the
    Riesz lifts of K v and M v, in one block, each column with the bits of
    a one-vector lift, kept as contiguous rows.  Raises ``ValueError`` if
    mu_new is already a snapshot parameter, and
    :class:`DependentSnapshotError` if v's Gram pivot against the basis is
    at most dependence_tol * ||u_new||^2: the Schur complement of the
    snapshot Gram matrix for a raw basis, the squared norm surviving
    Gram-Schmidt for an orthonormalized one.  Replaying a build's calls in
    order, at any dependence_tol at or below the build's, rebuilds its
    model bit for bit (:func:`model_from_dict`).
    """
    mu_new = float(mu_new)
    if mu_new in model.snapshot_params:
        raise ValueError(f"mu={mu_new!r} is already a snapshot parameter")
    n, basis, Gram = model.n_hat, model.snapshots, sys.Gram
    v = solve_truth(sys, mu_new)
    # v's dots with the basis feed the raw pivot only; g[-1] = v.(Gram v).
    g = tridiagonal_project(Gram, [] if model.orthonormalize else basis, v)
    nrm2 = g[-1]
    if model.orthonormalize:
        pivot = tridiagonal_project(Gram, basis, v, passes=2)[n]  # twice is enough
    elif n:
        Gb = np.column_stack([tridiagonal_project(Gram, basis, w)[:n] for w in basis])
        pivot = nrm2 - math.fsum(g[:n] * lu_solves(Gb[None], g[:n])[1][0])
    else:
        pivot = nrm2
    if pivot <= dependence_tol * nrm2:
        raise DependentSnapshotError(mu_new, pivot / nrm2)
    if model.orthonormalize:
        v /= np.sqrt(pivot)
    A0, A1 = np.empty((n + 1, n + 1)), np.empty((n + 1, n + 1))
    Kv, Mv = np.empty(sys.n), np.empty(sys.n)
    A0[:n, :n], A1[:n, :n] = model.A0_hat, model.A1_hat
    A0[n] = A0[:, n] = tridiagonal_project(sys.K, basis, v, w=Kv)
    A1[n] = A1[:, n] = tridiagonal_project(sys.M, basis, v, w=Mv)
    model.A0_hat, model.A1_hat = A0, A1
    model.b_hat = np.append(model.b_hat, tridiagonal_project(_IDENTITY, [sys.F], v)[0])
    model.snapshots.append(v)
    model.snapshot_params.append(mu_new)
    functionals = np.column_stack([Kv, Mv])
    del Kv, Mv  # freed before the lift: the peak RSS at N = 9999 follows them
    lifts = np.ascontiguousarray(_lift(sys, functionals, functionals).T)
    model.riesz_a0.append(lifts[0])
    model.riesz_a1.append(lifts[1])
    return model


def solve_reduced_block(model: ReducedModel, mus) -> np.ndarray:
    """Reduced coefficients at every mus[j], as the rows of an (m, N_hat) array.

    Each system A0_hat + mu*A1_hat is factored by partial pivoting and
    solved in one compiled call (:func:`fem.lu_solves`), O(N_hat^3) per
    point and truth-free; row j has the bits of the tests' numpy LU of the
    system at mus[j], in any block and on any host.  mus must be a 1-D
    block of valid parameters, or ``ValueError`` is raised; a zero pivot
    raises ``LinAlgError`` naming its mu.
    """
    if model.n_hat < 1:
        raise ValueError("reduced model is empty")
    mus = parameter_block(mus)
    try:
        return lu_solves(model.A0_hat + mus[:, None, None] * model.A1_hat, model.b_hat)[1]
    except ZeroPivotError as exc:
        raise np.linalg.LinAlgError(
            f"singular reduced system at mu = {float(mus[exc.index])!r} (snapshot dependence?)"
        ) from exc


def _e1_at(sys: TruthSystem, model: ReducedModel, mu: float) -> float:
    """e1 at mu from its one-point reduced solve, which has the bits of any
    block's: what the greedy records for its pick, and the load recomputes."""
    mus = np.array([mu])
    return float(_e1_block(sys, model, _z_rows(mus, solve_reduced_block(model, mus)))[0])


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
    ties, and that delta is its recorded e1, read off the empty model's E2
    table (:attr:`E2Data.delta`, sqrt(q_0) in double-double) as every other
    stage reads it.  If delta is already at or below tol there is nothing
    to build and ``ValueError`` is raised.  Then the greedy repeatedly
    selects the training parameter maximizing e2dd over all unselected
    candidates, evaluated as one block, adds its snapshot, and stops at
    n_max, when e1 at the selected parameter drops to tol, or when the
    selected snapshot is numerically dependent.  e2dd
    costs O(N_hat^2) per candidate against e1's O(N*N_hat), and its floor
    lies at or below e1's; the working-precision e2 would stagnate at its
    delta*sqrt(eps) floor and corrupt the selection.  e1 is evaluated at
    the selected parameter only (:func:`_e1_at`), and is what the history
    records; an artifact's load recomputes it (:func:`model_from_dict`).
    E2's data grow with the basis (:class:`E2Table`), two Riesz vectors
    per snapshot.  Ties break to the smallest mu: candidates are in
    ascending order and the first maximum wins.

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
    table = E2Table(sys)
    delta = table.grow(model).delta
    if delta <= tol:
        raise ValueError(f"tol = {tol!r} is at or above the empty model's estimator {delta!r}")
    add_snapshot(model, sys, training[0], dependence_tol=dependence_tol)
    history = [(training[0], delta)]
    e2data = table.grow(model)
    while model.n_hat < n_max:
        selected = set(model.snapshot_params)
        candidates = np.array([mu for mu in training if mu not in selected])
        if not candidates.size:
            break
        z = _z_rows(candidates, solve_reduced_block(model, candidates))
        best_mu = float(candidates[int(np.argmax(_e2dd_block(e2data, z)[0]))])
        best_val = _e1_at(sys, model, best_mu)
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
# parameters (model_from_dict replays the greedy's add_snapshot calls at
# them, and a sha256 of the parameters and the replayed basis must match
# the stored one), a sha256 of E2's double-double q (e2data_from_dict
# rebuilds q from the replayed Riesz vectors and must match it), and E3's
# nodes and rows (e3_data recomputes T and V from them).  The greedy's
# history is not stored: the replay takes e1 at each parameter before
# adding it, as the greedy did, and the first entry is the rebuilt q's
# delta.  beta is the problem's constant (see estimators), not data.
# Decoding refuses non-finite entries.
#
# No stage calls BLAS or LAPACK, so the bytes do not depend on the OpenBLAS
# kernel.  A basis vector is a compiled truth solve, for an orthonormal
# basis swept by compiled Gram-Schmidt; the projections, the raw pivot's
# Gram entries and b_hat are the compiled kernel's lane-ordered dots (the
# pivot's last one a math.fsum); the reduced solves, T's factors, the E3
# picks, E2's dd Gram table and e1 are compiled too.  What still varies is
# numpy's SIMD np.exp and np.geomspace, hence the grids and every output.
# V is recomputed with the loading machine's e1.

FORMAT_NAME = "rbcert-artifact"
FORMAT_VERSION = 9


def _enc_vec(v) -> list:
    return list(map(float.hex, np.asarray(v, dtype=float).tolist()))

def _dec_vec(v) -> np.ndarray:
    out = np.array(list(map(float.fromhex, v)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite artifact entry")
    return out


def _sha256(*arrays) -> str:
    """sha256 hex digest of the arrays in order, as little-endian float64."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def basis_sha256(model: ReducedModel) -> str:
    """_sha256 of the snapshot parameters, then the basis: a moved parameter misses it."""
    return _sha256(model.snapshot_params, *model.snapshots)


def model_to_dict(model: ReducedModel) -> dict:
    return {
        "basis_sha256": basis_sha256(model),
        "orthonormalize": model.orthonormalize,
        "snapshot_params": _enc_vec(model.snapshot_params),
    }


def model_from_dict(d: dict, sys: TruthSystem) -> tuple[ReducedModel, list[float]]:
    """Replay the greedy's :func:`add_snapshot` calls at the stored parameters.

    Returns the model and, for every parameter after the first, e1 on the
    model before that parameter was added (:func:`_e1_at`): the greedy's
    history after its first entry, which is E2's delta.  Tolerance 0
    accepts every snapshot the build accepted (each had a positive pivot)
    and rejects only a pivot that cannot be normalized.  Raises ValueError
    if the replayed basis misses the stored sha256.
    """
    model = ReducedModel(sys, orthonormalize=bool(d["orthonormalize"]))
    e1s = []
    for k, mu in enumerate(_dec_vec(d["snapshot_params"]).tolist()):
        if k:
            e1s.append(_e1_at(sys, model, mu))
        add_snapshot(model, sys, mu, 0.0)
    if basis_sha256(model) != d["basis_sha256"]:
        raise ValueError("the replayed basis misses the stored basis_sha256")
    return model, e1s


def e2data_to_dict(data: E2Data) -> dict:
    return {"q_sha256": _sha256(*data.q_dd)}


def e2data_from_dict(d: dict, sys: TruthSystem, model: ReducedModel) -> E2Data:
    """Rebuild q from the model's Riesz vectors in one :class:`E2Table` growth;
    ValueError if it misses the stored q_sha256 (of q's hi, then lo part)."""
    data = E2Table(sys).grow(model)
    if _sha256(*data.q_dd) != d["q_sha256"]:
        raise ValueError("the rebuilt q misses the stored q_sha256")
    return data


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

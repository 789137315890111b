"""Experiment harness: offline/sweep/floors runs, CSV + SVG outputs.

Reproduces the benchmark study end to end: a greedy offline stage on a
log-spaced training grid, an online sweep on a distinct (offset) grid
evaluating the true error and all four estimators, and a floor
measurement comparing the observed minima against the predicted
round-off floors delta*eps/beta (full-size form) and
delta*sqrt(eps)/beta (compact form), with beta = 1 (``estimators``).

Everything is deterministic given the config: the sampler is seeded, the
serialization is canonical, and two identical runs produce byte-equal
artifacts and CSV files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import estimators, fem, precision, reduced

EPS = 2.0 ** -52


class ConfigError(ValueError):
    """Invalid configuration value, file, or artifact/config mismatch."""


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run.

    The defaults reproduce the benchmark: 200 mesh cells (h = 0.005),
    parameter range [1, 1000], basis size 6.  ``orthonormalize``, ``tol``
    and ``dependence_tol`` are forwarded to the greedy stage; a
    floor-measurement run wants ``orthonormalize=True`` with a larger
    ``rb_size`` so the greedy actually converges to the estimator floors
    (see ``measure_floors``).
    """

    n_cells: int = 200
    mu_min: float = 1.0
    mu_max: float = 1000.0
    n_train: int = 200
    n_sweep: int = 400
    rb_size: int = 6
    seed: int = 28
    orthonormalize: bool = False
    tol: float = 1e-14
    dependence_tol: float = 1e-12
    output_dir: str = "."

    def validate(self) -> "ExperimentConfig":
        if self.n_cells < 2:
            raise ConfigError("n_cells must be >= 2")
        if not (math.isfinite(self.mu_min) and math.isfinite(self.mu_max)):
            raise ConfigError("mu_min and mu_max must be finite")
        if not (1.0 <= self.mu_min < self.mu_max):
            raise ConfigError("need 1 <= mu_min < mu_max")
        if self.n_train < 2 or self.n_sweep < 1:
            raise ConfigError("n_train must be >= 2 and n_sweep >= 1")
        if self.rb_size < 1:
            raise ConfigError("rb_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.tol < math.inf):
            raise ConfigError("tol must be finite and >= 0")
        # The first snapshot's pivot ratio is exactly 1, so dependence_tol >= 1
        # would reject it and leave the model empty.
        if not (0.0 <= self.dependence_tol < 1.0):
            raise ConfigError("dependence_tol must be in [0, 1)")
        # os.makedirs and open raise ValueError, not OSError, on a NUL byte.
        if "\0" in self.output_dir:
            raise ConfigError(f"output_dir {self.output_dir!r} holds a NUL byte")
        return self

    def artifact_path(self) -> str:
        return os.path.join(self.output_dir, "artifact.json")


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, raw: str):
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    if name not in fields:
        raise ConfigError(f"unknown config key: {name!r}")
    kind = fields[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _BOOL_STRINGS[raw.lower()]
        return raw
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then a flat key=value file, then per-key overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                    key, raw = line.split("=", 1)
                    values[key.strip()] = _coerce(key.strip(), raw)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for key, raw in (overrides or {}).items():
        values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
        if key not in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            raise ConfigError(f"unknown config key: {key!r}")
    return ExperimentConfig(**values).validate()


def training_grid(config: ExperimentConfig) -> np.ndarray:
    """Log-spaced training parameters, endpoints included."""
    return np.geomspace(config.mu_min, config.mu_max, config.n_train)


def sweep_grid(config: ExperimentConfig) -> np.ndarray:
    """Evaluation grid: log-spaced cell midpoints, offset from the
    training grid so the online stage is certified off the greedy samples."""
    lo, hi = math.log(config.mu_min), math.log(config.mu_max)
    step = (hi - lo) / config.n_sweep
    return np.exp(lo + (np.arange(config.n_sweep) + 0.5) * step)


def _check_output_dir(config: ExperimentConfig) -> None:
    """Raise ConfigError unless output_dir is, or can be made, a writable
    directory: its nearest existing ancestor (or itself) must be one.
    Nothing is created, so a run that fails later leaves no directory."""
    head = os.path.abspath(config.output_dir)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK)):
        raise ConfigError(
            f"cannot create output directory {config.output_dir}: "
            f"{head} is not a writable directory"
        )


def _make_output_dir(config: ExperimentConfig) -> None:
    """Create output_dir; a path that cannot be a directory is a ConfigError."""
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.output_dir}: {exc}") from exc


# --- offline ----------------------------------------------------------------

def run_offline(config: ExperimentConfig, log=print) -> str:
    """Greedy build + estimator data, serialized to output_dir/artifact.json."""
    config.validate()
    _check_output_dir(config)
    sys_ = fem.assemble(config.n_cells)
    model, history, e2 = reduced.greedy_build(
        sys_,
        training_grid(config),
        n_max=config.rb_size,
        tol=config.tol,
        orthonormalize=config.orthonormalize,
        dependence_tol=config.dependence_tol,
    )
    sampler = estimators.log_uniform_sampler(config.mu_min, config.mu_max)
    e3 = estimators.build_e3_data(sys_, model, sampler, seed=config.seed)
    payload = {
        "format": reduced.FORMAT_NAME,
        "version": reduced.FORMAT_VERSION,
        "config": {
            "n_cells": config.n_cells,
            "mu_min": float(config.mu_min).hex(),
            "mu_max": float(config.mu_max).hex(),
        },
        "model": reduced.model_to_dict(model),
        "e2": reduced.e2data_to_dict(e2),
        "e3": reduced.e3data_to_dict(e3),
        "history": [float(est).hex() for _, est in history],
    }
    _make_output_dir(config)
    path = config.artifact_path()
    with open(path, "wb") as fh:
        fh.write(reduced.dumps_deterministic(payload))
    log(
        f"offline: N_hat={model.n_hat} d={e3.d} r={e3.T.shape[0]} "
        f"cond(T)={np.linalg.cond(e3.T):.3e} delta={e2.delta:.6e} "
        f"[two_prod path: {precision.TWO_PROD_PATH}]"
    )
    log(f"offline: wrote {path}")
    return path


def _has_shape(x, *shape: int) -> bool:
    """Whether x is a nested list of the given shape (its leaves unchecked)."""
    if not isinstance(x, list) or len(x) != shape[0]:
        return False
    return len(shape) == 1 or all(_has_shape(row, *shape[1:]) for row in x)


def _check_shapes(payload: dict) -> None:
    """Raise ConfigError unless the stored arrays fit each other."""
    e2, e3 = payload["e2"], payload["e3"]
    params = payload["model"]["snapshot_params"]
    n_hat = len(params) if isinstance(params, list) else 0
    if n_hat < 1:
        raise ConfigError("artifact needs at least one snapshot parameter")
    if not _has_shape(payload["history"], n_hat):
        raise ConfigError(f"artifact history needs {n_hat} e1 entries, one per snapshot")
    d = estimators.x_dimension(n_hat)
    if not _has_shape(e2["q_dd"], 2, d):
        raise ConfigError(f"artifact e2 data needs q_dd of 2 x {d} entries")
    nodes, rows = e3["interp_params"], e3["rows"]
    r = len(nodes) if isinstance(nodes, list) else 0
    if not 1 <= r <= d:
        raise ConfigError(f"artifact e3 data needs between 1 and {d} nodes, not {r}")
    if not _has_shape(rows, r):
        raise ConfigError(f"artifact e3 data needs one row per node ({r})")
    if not all(type(k) is int and 0 <= k < d for k in rows):
        raise ConfigError(f"artifact e3 rows must be integers in [0, {d})")
    if len(set(rows)) != r:
        raise ConfigError("artifact e3 rows must be distinct")


def load_artifact(path: str, config: ExperimentConfig):
    """Deserialize an artifact and check it matches the config dimensions.

    The model, E2Data and E3Data are rebuilt from what the artifact stores
    (see ``reduced``): the model by replaying its snapshot parameters, E3's
    T and V at the stored nodes and rows on the replayed model.  The
    history pairs each replayed snapshot parameter with its stored e1.  No
    beta is stored or read: it is 1 on mu >= 1 (``estimators``), so an
    artifact cannot change the certified bound.  An unreadable file, bytes
    that are not ASCII JSON, another format version, a missing key,
    mis-shaped arrays, e3 data with r outside [1, d], rows that are not
    distinct integers in [0, d) or repeated nodes, entries that are not
    finite floats, q_0 <= 0, a snapshot the replay rejects and parameters
    or a replayed basis that miss the stored sha256 all raise ConfigError.
    """
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read().decode("ascii"))
    except OSError as exc:
        raise ConfigError(f"cannot read artifact {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not valid artifact JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != reduced.FORMAT_NAME:
        raise ConfigError(f"{path} is not an artifact file")
    if payload.get("version") != reduced.FORMAT_VERSION:
        raise ConfigError(f"unsupported artifact version {payload.get('version')!r}")
    try:
        echo = payload["config"]
        if echo["n_cells"] != config.n_cells:
            raise ConfigError(
                f"artifact n_cells={echo['n_cells']} does not match config n_cells={config.n_cells}"
            )
        if (float.fromhex(echo["mu_min"]), float.fromhex(echo["mu_max"])) != (
            config.mu_min,
            config.mu_max,
        ):
            raise ConfigError("artifact parameter range does not match config")
        sys_ = fem.assemble(config.n_cells)
        _check_shapes(payload)
        model = reduced.model_from_dict(payload["model"], sys_)
        history = list(zip(model.snapshot_params, map(float.fromhex, payload["history"])))
        e2 = reduced.e2data_from_dict(payload["e2"])
        e3 = reduced.e3data_from_dict(payload["e3"], sys_, model)
        if len(set(e3.interp_params.tolist())) != e3.interp_params.size:
            raise ConfigError("artifact e3 nodes must be distinct")
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"artifact {path} lacks the key {exc}") from exc
    except (TypeError, ValueError, OverflowError, reduced.DependentSnapshotError) as exc:
        # malformed entries, and replay errors (a dependent snapshot, a
        # basis hash miss, a node below 1, a singular reduced system) that
        # only a damaged artifact can cause
        raise ConfigError(f"artifact {path} is damaged: {exc}") from exc
    if not np.all(np.isfinite(history)):
        raise ConfigError(f"artifact {path} has a non-finite history entry")
    return sys_, model, e2, e3, history


# --- online sweep ------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    mu: float
    true_error: float
    e1: float
    e2: float
    e2_radicand: float
    e2dd: float
    e3: float
    e3_clamped_flag: int


_SWEEP_FIELDS = dataclasses.fields(SweepRecord)
CSV_HEADER = ",".join(f.name for f in _SWEEP_FIELDS)


def compute_sweep(sys_, model, e2data, e3data, mus) -> list[SweepRecord]:
    """One SweepRecord per mu, from one ``estimators.evaluate`` call."""
    cols = estimators.evaluate(sys_, model, e2data, e3data, mus)
    return [SweepRecord(*vals) for vals in zip(*(cols[f.name].tolist() for f in _SWEEP_FIELDS))]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def rows_to_csv(rows: list[SweepRecord]) -> str:
    """CSV_HEADER, then one line per record: floats as %.17g, ints as they are."""
    fmts = [str if f.type == "int" else _fmt for f in _SWEEP_FIELDS]
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(fmt(getattr(r, f.name)) for fmt, f in zip(fmts, _SWEEP_FIELDS)))
    return "\n".join(lines) + "\n"


def run_sweep(config: ExperimentConfig, artifact_path: str | None = None, log=print):
    """Evaluate everything on the sweep grid; write sweep.csv and SVG plots."""
    config.validate()
    _check_output_dir(config)
    sys_, model, e2data, e3data, _ = load_artifact(
        artifact_path or config.artifact_path(), config
    )
    rows = compute_sweep(sys_, model, e2data, e3data, sweep_grid(config))
    _make_output_dir(config)
    csv_path = os.path.join(config.output_dir, "sweep.csv")
    with open(csv_path, "wb") as fh:
        fh.write(rows_to_csv(rows).encode("ascii"))
    mus = [r.mu for r in rows]
    left = os.path.join(config.output_dir, "figure_left.svg")
    right = os.path.join(config.output_dir, "figure_right.svg")
    write_svg_loglog(
        left,
        "Interpolated estimator vs reference",
        [
            ("e1", mus, [r.e1 for r in rows], "#1f77b4", None),
            ("e3", mus, [r.e3 for r in rows], "#d62728", "6,3"),
            ("true error", mus, [r.true_error for r in rows], "#7f7f7f", "2,3"),
        ],
    )
    write_svg_loglog(
        right,
        "Compact estimator: double vs double-double",
        [
            ("e1", mus, [r.e1 for r in rows], "#1f77b4", None),
            ("e2", mus, [r.e2 for r in rows], "#2ca02c", "6,3"),
            ("e2dd", mus, [r.e2dd for r in rows], "#9467bd", "2,3"),
        ],
    )
    n_neg = sum(1 for r in rows if r.e2_radicand < 0.0)
    n_clamp = sum(r.e3_clamped_flag for r in rows)
    log(
        f"sweep: {len(rows)} points -> {csv_path}; negative e2 radicands: {n_neg}; "
        f"e3 clamps: {n_clamp}"
    )
    log(f"sweep: plots -> {left}, {right}")
    return rows


# --- floor measurement --------------------------------------------------------

def measure_floors(config: ExperimentConfig, artifact_path: str | None = None, log=print):
    """Compare observed estimator minima against the predicted floors.

    Precondition: the artifact is converged, i.e. the basis is rich
    enough that the sweep actually reaches the round-off floors (a
    default-size raw basis does not get there; build the artifact with
    orthonormalize=true and a generous rb_size so the greedy stops on
    tol instead).  Reports delta, eps, predicted floors delta*eps/beta
    and delta*sqrt(eps)/beta with beta = 1 (a(v,v;mu) >= ||v||_H1^2 on
    mu >= 1, see ``estimators``), observed minima of e1/e2/e2dd, and
    pass/fail against the acceptance bands (factor 100 on e1, factor 30
    on e2, e1/e2 separation >= 1e4, e2dd no higher than e1).
    """
    config.validate()
    _check_output_dir(config)
    sys_, model, e2data, e3data, _ = load_artifact(
        artifact_path or config.artifact_path(), config
    )
    rows = compute_sweep(sys_, model, e2data, e3data, sweep_grid(config))
    delta = e2data.delta
    floor_e1 = delta * EPS
    floor_e2 = delta * math.sqrt(EPS)
    min_e1 = min(r.e1 for r in rows)
    positive_e2 = [r.e2 for r in rows if r.e2_radicand > 0.0]
    min_e2 = min(positive_e2) if positive_e2 else 0.0
    n_clamped_e2 = len(rows) - len(positive_e2)
    min_e2dd = min(r.e2dd for r in rows)
    checks = {
        "e1_within_factor_100": floor_e1 / 100.0 <= min_e1 <= floor_e1 * 100.0,
        "e2_within_factor_30": floor_e2 / 30.0 <= min_e2 <= floor_e2 * 30.0,
        "separation_1e4": min_e2 >= 1e4 * min_e1,
        "e2dd_at_or_below_e1": min_e2dd <= min_e1,
    }
    report = {
        "delta": delta,
        "eps": EPS,
        "predicted_floor_e1": floor_e1,
        "predicted_floor_e2": floor_e2,
        "observed_min_e1": min_e1,
        "observed_min_e2": min_e2,
        "observed_min_e2dd": min_e2dd,
        "clamped_e2_rows": n_clamped_e2,
        "checks": checks,
        "all_pass": all(checks.values()),
    }
    log(f"floors: delta = {delta:.16e}, eps = 2^-52 = {EPS:.6e}")
    log(f"floors: predicted e1 floor delta*eps/beta     = {floor_e1:.6e}")
    log(f"floors: predicted e2 floor delta*sqrt(eps)/beta = {floor_e2:.6e}")
    log(f"floors: observed min e1   = {min_e1:.6e}")
    log(f"floors: observed min e2   = {min_e2:.6e} ({n_clamped_e2} clamped rows excluded)")
    log(f"floors: observed min e2dd = {min_e2dd:.6e}")
    for name, ok in checks.items():
        log(f"floors: {'PASS' if ok else 'FAIL'} {name}")
    _make_output_dir(config)
    out = os.path.join(config.output_dir, "floors.json")
    with open(out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"floors: wrote {out}")
    return report


# --- SVG --------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 440
_ML, _MR, _MT, _MB = 64, 16, 36, 46


def _ticks_log(lo: float, hi: float):
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    return [10.0 ** k for k in range(first, last + 1)]


def write_svg_loglog(path: str, title: str, series):
    """Minimal hand-rolled log-log chart: polylines, decade ticks, legend.

    Non-positive values cannot be drawn on a log axis; they break the
    polyline into segments (a clamped estimator shows up as a gap).
    """
    xs_all = [x for _, xs, ys, _, _ in series for x, y in zip(xs, ys) if y > 0.0]
    ys_all = [y for _, xs, ys, _, _ in series for y in ys if y > 0.0]
    if not ys_all:
        raise ValueError("nothing positive to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 10.0, x_hi * 10.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 10.0, y_hi * 10.0
    lx0, lx1 = math.log10(x_lo), math.log10(x_hi)
    ly0, ly1 = math.log10(y_lo), math.log10(y_hi)
    pw = _SVG_W - _ML - _MR
    ph = _SVG_H - _MT - _MB

    def px(x):
        return _ML + pw * (math.log10(x) - lx0) / (lx1 - lx0)

    def py(y):
        return _MT + ph * (ly1 - math.log10(y)) / (ly1 - ly0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML}" y="{_MT - 14}" font-size="13">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks_log(x_lo, x_hi):
        X = px(tx)
        out.append(f'<line x1="{X:.1f}" y1="{_MT}" x2="{X:.1f}" y2="{_MT + ph}" stroke="#ddd"/>')
        out.append(
            f'<text x="{X:.1f}" y="{_MT + ph + 16}" text-anchor="middle">1e{int(round(math.log10(tx)))}</text>'
        )
    for ty in _ticks_log(y_lo, y_hi):
        Y = py(ty)
        out.append(f'<line x1="{_ML}" y1="{Y:.1f}" x2="{_ML + pw}" y2="{Y:.1f}" stroke="#ddd"/>')
        out.append(
            f'<text x="{_ML - 6}" y="{Y + 4:.1f}" text-anchor="end">1e{int(round(math.log10(ty)))}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_SVG_H - 10}" text-anchor="middle">mu</text>'
    )
    for idx, (label, xs, ys, color, dash) in enumerate(series):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        segment: list[str] = []
        segments = []
        for x, y in zip(xs, ys):
            if y > 0.0:
                segment.append(f"{px(x):.2f},{py(y):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.3"{dash_attr}/>'
                )
        ly = _MT + 14 + 14 * idx
        out.append(
            f'<line x1="{_ML + pw - 120}" y1="{ly}" x2="{_ML + pw - 96}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.3"{dash_attr}/>'
        )
        out.append(f'<text x="{_ML + pw - 90}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
    return path

"""Experiment harness: config, artifacts, CSV/SVG outputs, CLI exit codes."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rbcert as rb
from rbcert import cli
from rbcert.experiments import (
    CSV_HEADER,
    EPS,
    ConfigError,
    ExperimentConfig,
    SweepRecord,
    compute_sweep,
    load_config,
    rows_to_csv,
    run_offline,
    run_sweep,
    sweep_grid,
    training_grid,
)

from conftest import build_e2_data, make_output_dir


# --- configuration -------------------------------------------------------------


def test_defaults():
    cfg = ExperimentConfig()
    assert (cfg.n_cells, cfg.mu_min, cfg.mu_max) == (200, 1.0, 1000.0)
    assert (cfg.n_train, cfg.n_sweep, cfg.rb_size) == (200, 400, 6)
    assert cfg.seed == 28
    assert cfg.orthonormalize is False
    assert cfg.tol == 1e-14


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "n_cells = 50\n"
        "mu_max = 500  # trailing comment\n"
        "orthonormalize = true\n"
        "tol = 1e-10\n"
        "\n"
    )
    cfg = load_config(str(p))
    assert cfg.n_cells == 50
    assert cfg.mu_max == 500.0
    assert cfg.orthonormalize is True
    assert cfg.tol == 1e-10


def test_overrides_beat_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_cells = 50\n")
    cfg = load_config(str(p), {"n_cells": "75"})
    assert cfg.n_cells == 75


def test_cli_has_one_flag_per_config_field(capsys):
    # "--" plus the field name with "-", metavar the upper-case name.
    parser = cli._build_parser()
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert "oversample" not in names
    argv = ["offline"]
    for name in names:
        argv += ["--" + name.replace("_", "-"), name]
    args = parser.parse_args(argv)
    assert [getattr(args, name) for name in names] == names
    with pytest.raises(SystemExit):
        parser.parse_args(["offline", "--help"])
    assert "--n-cells N_CELLS" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        parser.parse_args(["offline", "--oversample", "3"])


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_cels = 50\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(None, {"n_cels": "50"})


def test_malformed_values_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_cells = soon\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_config_file_that_is_not_utf8_rejected(tmp_path):
    # A UnicodeDecodeError is a ValueError, which the CLI would report as a
    # numerical failure; the loader makes it a ConfigError.
    p = tmp_path / "latin1.cfg"
    p.write_bytes(b"rb_size = 3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(p))


@pytest.mark.parametrize(
    "bad",
    [
        {"n_cells": 1},
        {"mu_min": 0.5},
        {"mu_min": 10.0, "mu_max": 5.0},
        {"n_train": 1},
        {"rb_size": 0},
        {"seed": -1},
        {"tol": -1e-3},
        {"tol": float("nan")},
        {"dependence_tol": float("nan")},
        {"tol": float("inf")},
        {"dependence_tol": float("inf")},
        {"dependence_tol": 1.0},
        {"orthonormalize": "no"},
        {"orthonormalize": 1},
        {"rb_size": 2.5},
        {"n_cells": 200.5},
        {"seed": 1.5},
        {"n_sweep": True},
        {"mu_max": "1000"},
        {"tol": None},
        {"output_dir": 5},
    ],
)
def test_validate_rejects(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad).validate()


# --- grids -----------------------------------------------------------------------


def test_training_grid_endpoints_exact():
    cfg = ExperimentConfig()
    grid = training_grid(cfg)
    assert grid[0] == 1.0
    assert grid[-1] == 1000.0
    assert grid.size == 200
    assert np.all(np.diff(grid) > 0)


def test_sweep_grid_avoids_training_points():
    # The sweep runs at log-midpoints, so the online stage never queries
    # the exact parameters the greedy trained on.
    cfg = ExperimentConfig()
    sweep = sweep_grid(cfg)
    assert sweep.size == cfg.n_sweep
    assert sweep[0] == pytest.approx(math.exp(0.5 * math.log(1000.0) / 400), rel=1e-15)
    assert not set(sweep.tolist()) & set(training_grid(cfg).tolist())
    assert sweep.min() > cfg.mu_min and sweep.max() < cfg.mu_max


# --- sweep records and CSV ---------------------------------------------------------


def test_csv_shape_and_roundtrip(default_rows):
    text = rows_to_csv(default_rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(default_rows)
    first = lines[1].split(",")
    assert len(first) == 8
    # %.17g formatting survives a float round-trip bit-for-bit.
    assert float(first[0]) == default_rows[0].mu
    assert float(first[2]) == default_rows[0].e1
    assert float(first[4]) == default_rows[0].e2_radicand
    assert first[7] in ("0", "1")


def test_sweep_rows_are_certified(default_rows):
    for r in default_rows[:50]:
        assert r.e1 >= r.true_error * (1 - 1e-12)
        assert r.e2dd >= 0.0
        assert r.e3 >= 0.0


# --- offline artifact ----------------------------------------------------------------


def test_offline_artifact_roundtrip(cli_workdir):
    cfg = ExperimentConfig(
        n_cells=40, n_train=25, n_sweep=30, rb_size=3,
        output_dir=make_output_dir(cli_workdir, "roundtrip"),
    )
    path = run_offline(cfg, log=lambda *a: None)
    assert os.path.basename(path) == "artifact.json"
    with open(path, "rb") as fh:
        payload = json.loads(fh.read())
    assert payload["format"] == "rbcert-artifact"
    assert payload["version"] == 9
    assert sorted(payload) == ["config", "e2", "e3", "format", "model", "version"]
    assert sorted(payload["config"]) == ["mu_max", "mu_min", "n_cells"]
    assert sorted(payload["model"]) == ["basis_sha256", "orthonormalize", "snapshot_params"]
    assert sorted(payload["e2"]) == ["q_sha256"]
    assert re.fullmatch("[0-9a-f]{64}", payload["e2"]["q_sha256"])
    assert sorted(payload["e3"]) == ["interp_params", "rows"]
    sys_, model, e2data, e3data, meta = rb.load_artifact(path, cfg)
    assert model.n_hat == 3
    assert e3data.d == rb.x_dimension(3)
    r = len(payload["e3"]["rows"])
    assert e3data.T.shape == (r, r) and 1 <= r <= e3data.d
    # Loading against an incompatible mesh must fail loudly.
    with pytest.raises(ConfigError):
        rb.load_artifact(path, ExperimentConfig(n_cells=50))


@pytest.mark.parametrize(
    "case",
    [
        {"n_cells": 40, "rb_size": 4},
        {"n_cells": 40, "rb_size": 4, "orthonormalize": True},
        # a converged orthonormal basis (it stops on tol at N_hat = 12), and
        # a raw one on a large mesh
        {"n_train": 200, "rb_size": 24, "orthonormalize": True, "dependence_tol": 1e-30},
        {"n_cells": 4000, "rb_size": 4},
    ],
    ids=["raw", "orthonormal", "orthonormal-converged", "raw-n_cells-4000"],
)
def test_loaded_artifact_equals_fresh_build(cli_workdir, case):
    # Every field of the loaded model, E2Data and E3Data, the recomputed
    # ones (q, T and V among them) included, equals a fresh build bit for
    # bit, and so does the history, which the load recomputes too.
    cfg = ExperimentConfig(
        **{"n_train": 25, **case},
        output_dir=make_output_dir(cli_workdir, "fresh_" + "_".join(map(str, case.values()))),
    )
    path = run_offline(cfg, log=lambda *a: None)
    sys_, model, e2data, e3data, history = rb.load_artifact(path, cfg)
    fresh, fresh_history, _ = rb.greedy_build(
        sys_, training_grid(cfg), n_max=cfg.rb_size, tol=cfg.tol,
        orthonormalize=cfg.orthonormalize, dependence_tol=cfg.dependence_tol,
    )
    if cfg.rb_size == 24:
        assert model.n_hat == 12
    fresh_e2 = build_e2_data(sys_, fresh)
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    fresh_e3 = rb.build_e3_data(sys_, fresh, sampler, seed=cfg.seed)

    def hexes(x):
        if isinstance(x, (list, tuple)):
            return [hexes(e) for e in x]
        return [float(v).hex() for v in np.ravel(x)]

    assert history == fresh_history
    assert hexes(history) == hexes(fresh_history)
    assert model.snapshot_params == fresh.snapshot_params
    for name in ("A0_hat", "A1_hat", "b_hat", "riesz_b", "snapshots",
                 "riesz_a0", "riesz_a1"):
        assert hexes(getattr(model, name)) == hexes(getattr(fresh, name)), name
    for name in ("q_dd", "delta"):
        assert hexes(getattr(e2data, name)) == hexes(getattr(fresh_e2, name)), name
    for name in ("interp_params", "T", "V"):
        assert hexes(getattr(e3data, name)) == hexes(getattr(fresh_e3, name)), name
    assert e3data.rows.tolist() == fresh_e3.rows.tolist()
    assert e3data.d == fresh_e3.d
    assert hexes(e3data.lu) == hexes(fresh_e3.lu)


@pytest.mark.parametrize("orthonormalize", [False, True])
def test_replay_under_perturbed_projections(cli_workdir, monkeypatch, orthonormalize):
    # Every dot of the basis extension scaled by (1 + 2^-52) stands in for
    # another summation order.  A raw basis is a truth solve and its Riesz
    # lifts take K v and M v, not the dots, so both replay hex-equal; an
    # orthonormal one divides by the pivot's square root, so its replay
    # misses the stored hash and the load is refused.
    cfg = ExperimentConfig(
        n_cells=40, n_train=25, rb_size=4, orthonormalize=orthonormalize,
        output_dir=make_output_dir(cli_workdir, f"perturbed_{orthonormalize}"),
    )
    path = run_offline(cfg, log=lambda *a: None)
    _, model, _, _, _ = rb.load_artifact(path, cfg)
    project = rb.reduced.tridiagonal_project
    monkeypatch.setattr(rb.reduced, "tridiagonal_project",
                        lambda *args, **kw: project(*args, **kw) * (1.0 + EPS))
    if orthonormalize:
        with pytest.raises(ConfigError, match="basis_sha256"):
            rb.load_artifact(path, cfg)
        return
    _, replayed, _, _, _ = rb.load_artifact(path, cfg)
    assert replayed.A0_hat.tolist() != model.A0_hat.tolist()
    for name in ("snapshots", "riesz_b", "riesz_a0", "riesz_a1"):
        got, want = (np.ravel(getattr(m, name)).tolist() for m in (replayed, model))
        assert list(map(float.hex, got)) == list(map(float.hex, want)), name


def test_offline_is_deterministic(cli_workdir):
    digests = []
    for name in ("det_a", "det_b"):
        cfg = ExperimentConfig(
            n_cells=40, n_train=25, n_sweep=30, rb_size=3,
            output_dir=make_output_dir(cli_workdir, name),
        )
        path = run_offline(cfg, log=lambda *a: None)
        with open(path, "rb") as fh:
            digests.append(fh.read())
    assert digests[0] == digests[1]


IMPORT_FREE_CHILD = """
import json, sys
import rbcert as rb
before = set(sys.modules)
cfg = rb.ExperimentConfig(output_dir=sys.argv[1])
path = rb.run_offline(cfg, log=lambda *a: None)
sys_, model, e2, e3, _ = rb.load_artifact(path, cfg)
rows = rb.compute_sweep(sys_, model, e2, e3, rb.sweep_grid(cfg))
print(json.dumps([len(rows), sorted(set(sys.modules) - before), "numpy.random" in sys.modules]))
"""


def test_offline_load_and_sweep_import_nothing_after_rbcert(tmp_path):
    # A fresh interpreter, so no other test's imports count: the default
    # build, its load and its sweep load no module that import rbcert did
    # not, numpy.random (the E3 pool's draws are the package's own) among them.
    src = os.path.dirname(os.path.dirname(rb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_FREE_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [ExperimentConfig().n_sweep, [], False]


# --- sweep outputs ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep_dir(cli_workdir):
    out = make_output_dir(cli_workdir, "small_sweep")
    cfg = ExperimentConfig(n_cells=40, n_train=25, n_sweep=30, rb_size=3, output_dir=out)
    run_offline(cfg, log=lambda *a: None)
    run_sweep(cfg, log=lambda *a: None)
    return out


def test_sweep_writes_csv_and_figures(small_sweep_dir):
    names = sorted(os.listdir(small_sweep_dir))
    assert names == ["artifact.json", "figure_left.svg", "figure_right.svg", "sweep.csv"]
    with open(os.path.join(small_sweep_dir, "sweep.csv")) as fh:
        text = fh.read()
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.strip().split("\n")) == 31


def test_figures_are_valid_svg(small_sweep_dir):
    for name in ("figure_left.svg", "figure_right.svg"):
        root = ET.parse(os.path.join(small_sweep_dir, name)).getroot()
        assert root.tag.endswith("svg")
        with open(os.path.join(small_sweep_dir, name)) as fh:
            body = fh.read()
        assert "polyline" in body
        assert "true error" in body or "e1" in body


def flatness_stats(rows: list[SweepRecord]):
    """Spread of log10(e2) vs log10(e1) over e2's lowest decade.

    On a converged run e2 sits at its floor: the region where e2 is
    within a decade of its minimum should be flat in e2 (stdev of log10
    < 0.5) while e1 still varies (stdev > 0.5) there.
    """
    pos = [r for r in rows if r.e2 > 0.0 and r.e1 > 0.0]
    lo = min(r.e2 for r in pos)
    region = [r for r in pos if r.e2 <= 10.0 * lo]
    log_e2 = np.log10([r.e2 for r in region])
    log_e1 = np.log10([r.e1 for r in region])
    return float(np.std(log_e2)), float(np.std(log_e1)), len(region)


def test_flatness_invariant():
    # A converged basis over a wide range, trained on a sparse grid so the
    # sweep sees plenty of between-sample ripple: e2 sits flat at its
    # sqrt(eps) floor (log10 spread < 0.5) while e1 keeps varying
    # (log10 spread > 0.5) across the same points.
    cfg = ExperimentConfig(
        n_train=40, rb_size=20, mu_max=1e6, orthonormalize=True, dependence_tol=1e-30
    )
    sys_ = rb.assemble(cfg.n_cells)
    model, _, _ = rb.greedy_build(
        sys_, training_grid(cfg), n_max=cfg.rb_size, tol=cfg.tol,
        orthonormalize=True, dependence_tol=cfg.dependence_tol,
    )
    e2data = build_e2_data(sys_, model)
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    e3data = rb.build_e3_data(sys_, model, sampler, seed=cfg.seed)
    rows = compute_sweep(sys_, model, e2data, e3data, sweep_grid(cfg))
    spread_e2, spread_e1, n = flatness_stats(rows)
    assert n >= 20
    assert spread_e2 < 0.5
    assert spread_e1 > 0.5


def test_floors_e2dd_check_takes_its_minimum_over_positive_e2dd(
    floors_config, floors_artifact, floors_report, tmp_path, monkeypatch
):
    # A clamped e2dd reads 0, which would pass "min e2dd <= min e1" at once.
    # Like e2's, the e2dd minimum is taken over the positive values, the
    # clamped rows are counted, and with no positive value the check fails.
    assert floors_report["clamped_e2dd_rows"] == 0
    assert floors_report["checks"]["e2dd_at_or_below_e1"]
    config = dataclasses.replace(floors_config, output_dir=str(tmp_path))

    def floors_with_e2dd(e2dd_of):
        def sweep(*args):
            return [r._replace(e2dd=e2dd_of(i, r)) for i, r in enumerate(compute_sweep(*args))]

        monkeypatch.setattr(rb.experiments, "compute_sweep", sweep)
        return rb.measure_floors(config, floors_artifact, log=lambda *a: None)

    report = floors_with_e2dd(lambda i, r: 0.0 if i == 0 else 10.0 * r.e1)
    assert report["clamped_e2dd_rows"] == 1
    assert report["observed_min_e2dd"] > report["observed_min_e1"]
    assert not report["checks"]["e2dd_at_or_below_e1"]
    report = floors_with_e2dd(lambda i, r: 0.0)
    assert report["clamped_e2dd_rows"] == len(sweep_grid(config))
    assert not report["checks"]["e2dd_at_or_below_e1"]
    with open(tmp_path / "floors.json", encoding="ascii") as fh:
        assert json.load(fh)["clamped_e2dd_rows"] == len(sweep_grid(config))


# --- CLI ------------------------------------------------------------------------------


def test_cli_offline_sweep_floors_happy_path(cli_workdir):
    out = make_output_dir(cli_workdir, "cli_happy")
    args = [
        "--output-dir", out, "--n-cells", "40", "--n-train", "25",
        "--n-sweep", "30", "--rb-size", "12", "--orthonormalize", "true",
        "--dependence-tol", "1e-30",
    ]
    assert cli.main(["offline", *args]) == 0
    assert cli.main(["sweep", *args]) == 0
    assert cli.main(["floors", *args]) == 0
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    assert os.path.exists(os.path.join(out, "floors.json"))


def test_cli_one_point_sweep_exits_0(small_sweep_dir, tmp_path):
    # One sweep point gives every plotted series a zero-width mu range.
    artifact = os.path.join(small_sweep_dir, "artifact.json")
    args = ["--n-cells", "40", "--n-train", "25", "--rb-size", "3", "--n-sweep", "1"]
    assert cli.main(["sweep", *args, "--artifact", artifact, "--output-dir", str(tmp_path)]) == 0
    for name in ("figure_left.svg", "figure_right.svg"):
        body = (tmp_path / name).read_text()
        assert ET.fromstring(body).tag.endswith("svg")
        assert body.count("<circle") == 3


def test_cli_failed_floor_check_exits_4(tmp_path, capsys):
    # The default basis is not converged: e1 stays far above its floor.
    out = str(tmp_path)
    assert cli.main(["offline", "--output-dir", out]) == 0
    assert cli.main(["floors", "--output-dir", out]) == 4
    assert "FAILED" in capsys.readouterr().err
    with open(os.path.join(out, "floors.json"), encoding="ascii") as fh:
        report = json.load(fh)
    assert not report["all_pass"]
    assert not report["checks"]["e1_within_factor_100"]


def test_cli_config_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("n_cels = 50\n")
    assert cli.main(["offline", "--config", str(p)]) == 2
    p.write_bytes(b"n_cells = 200\n# caf\xe9\n")  # not UTF-8
    assert cli.main(["offline", "--config", str(p)]) == 2
    assert cli.main(["offline", "--n-cells", "1"]) == 2
    assert cli.main(["sweep", "--artifact", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_tol_at_the_empty_models_estimate_exits_3(tmp_path, capsys):
    # The empty model's estimator is delta = 0.275 at n_cells = 200: a tol
    # of 1 leaves nothing to build, which the greedy says before its first
    # snapshot.
    out = tmp_path / "out"
    assert cli.main(["offline", "--tol", "1", "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: tol = 1.0 ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["offline", "sweep", "floors"])
def test_cli_unusable_output_dir_exits_2_before_work(command, tmp_path, monkeypatch, capsys):
    # An existing file, and a path under it: both fail before the greedy
    # build or the artifact load starts.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was made")

    monkeypatch.setattr("rbcert.reduced.greedy_build", no_work)
    monkeypatch.setattr("rbcert.experiments.load_artifact", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main([command, "--output-dir", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["offline", "sweep", "floors"])
def test_cli_nul_byte_in_output_dir_exits_2_before_work(command, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with a NUL byte in the output directory")

    monkeypatch.setattr("rbcert.reduced.greedy_build", no_work)
    monkeypatch.setattr("rbcert.experiments.load_artifact", no_work)
    p = tmp_path / "nul.cfg"
    p.write_text(f"output_dir = {tmp_path / 'o'}\0x\nn_cells = 50\nrb_size = 3\nn_train = 20\n")
    assert cli.main([command, "--config", str(p)]) == 2
    assert "holds a NUL byte" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["nul.cfg"]


@pytest.mark.parametrize("command", ["sweep", "floors"])
def test_cli_missing_artifact_leaves_no_output_dir(command, tmp_path, capsys):
    # The output directory is only checked before the artifact load; it is
    # made when the results are written, so a failed load creates nothing.
    out = tmp_path / "new" / "out"
    assert cli.main([command, "--output-dir", str(out)]) == 2
    assert "cannot read artifact" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_cli_nonfinite_mu_range_exits_2(tmp_path, capsys):
    for flag in (
        "--mu-max=inf", "--mu-min=nan", "--mu-max=-inf", "--tol=nan", "--dependence-tol=nan",
        "--tol=inf", "--dependence-tol=inf",
    ):
        assert cli.main(["offline", flag, "--output-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "artifact.json")


def _truncate(blob):
    return blob[: len(blob) // 2]


def _non_ascii(blob):
    return blob.replace(b"rbcert-artifact", "rbcert-\u00e4rtifact".encode("utf-8"), 1)


def _edited(edit):
    def damage(blob):
        payload = json.loads(blob)
        edit(payload)
        return json.dumps(payload).encode("ascii")

    damage.__name__ = edit.__name__
    return damage


@_edited
def _sha256_altered(payload):
    digest = payload["model"]["basis_sha256"]
    payload["model"]["basis_sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]


@_edited
def _sha256_dropped(payload):
    del payload["model"]["basis_sha256"]


@_edited
def _mu_one_ulp(payload):
    # mu_max = 1000 one ulp down: at n_cells=40 that changes the truth
    # solve's bits (an ulp at mu = 1 does not: _mu_first_one_ulp).
    params = payload["model"]["snapshot_params"]
    k = params.index((1000.0).hex())
    params[k] = math.nextafter(1000.0, 0.0).hex()


@_edited
def _mu_first_one_ulp(payload):
    # mu = 1 one ulp up replays the same basis bits at n_cells=40; the hash
    # covers the parameters too.
    params = payload["model"]["snapshot_params"]
    params[params.index((1.0).hex())] = math.nextafter(1.0, 2.0).hex()


@_edited
def _mu_near_duplicate(payload):
    params = payload["model"]["snapshot_params"]
    params[1] = math.nextafter(float.fromhex(params[0]), math.inf).hex()


@_edited
def _mu_order_swapped(payload):
    # the same parameters in another order replay another basis, and the
    # recomputed history follows that order
    params = payload["model"]["snapshot_params"]
    params[1], params[2] = params[2], params[1]


@_edited
def _mu_last_dropped(payload):
    payload["model"]["snapshot_params"].pop()


@_edited
def _q_sha256_altered(payload):
    digest = payload["e2"]["q_sha256"]
    payload["e2"]["q_sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]


@_edited
def _q_sha256_dropped(payload):
    del payload["e2"]["q_sha256"]


@_edited
def _nan_entry(payload):
    payload["model"]["snapshot_params"][2] = "nan"


@_edited
def _drop_e2(payload):
    del payload["e2"]


@_edited
def _version_1(payload):
    payload["version"] = 1


@_edited
def _version_2(payload):
    payload["version"] = 2


@_edited
def _version_3(payload):
    payload["version"] = 3


@_edited
def _version_4(payload):
    payload["version"] = 4


@_edited
def _version_5(payload):
    payload["version"] = 5


@_edited
def _version_6(payload):
    payload["version"] = 6


@_edited
def _version_7(payload):
    payload["version"] = 7


@_edited
def _version_8(payload):
    payload["version"] = 8


@_edited
def _e3_row_negative(payload):
    payload["e3"]["rows"][0] = -1


@_edited
def _e3_row_past_d(payload):
    payload["e3"]["rows"][0] = rb.x_dimension(3)


@_edited
def _e3_row_repeated(payload):
    rows = payload["e3"]["rows"]
    rows[1] = rows[0]


@_edited
def _e3_row_not_integer(payload):
    payload["e3"]["rows"][0] += 0.5


@_edited
def _e3_rank_zero(payload):
    for key in ("interp_params", "rows"):
        payload["e3"][key] = []


@_edited
def _e3_rank_past_d(payload):
    e3 = payload["e3"]
    d = rb.x_dimension(3)
    e3["interp_params"] = [float(1.0 + k).hex() for k in range(d + 1)]
    e3["rows"] = list(range(d + 1))


@_edited
def _e3_one_row_short(payload):
    payload["e3"]["rows"].pop()


@_edited
def _e3_one_node_short(payload):
    payload["e3"]["interp_params"].pop()


@_edited
def _e3_node_repeated(payload):
    nodes = payload["e3"]["interp_params"]
    nodes[1] = nodes[0]


@pytest.mark.parametrize(
    "damage",
    [
        _truncate, _non_ascii, _nan_entry,
        _version_1, _version_2, _e3_row_negative, _e3_row_past_d, _e3_row_repeated,
        _e3_row_not_integer, _e3_rank_zero, _e3_rank_past_d, _e3_one_row_short,
        _e3_one_node_short, _e3_node_repeated, _q_sha256_altered, _drop_e2,
        _version_3, _version_4, _version_5,
        _sha256_altered, _sha256_dropped, _mu_one_ulp, _mu_first_one_ulp,
        _mu_near_duplicate, _q_sha256_dropped, _version_6, _version_7, _version_8,
        _mu_order_swapped, _mu_last_dropped,
    ],
)
def test_cli_damaged_artifact_exits_2(small_sweep_dir, tmp_path, capsys, damage):
    with open(os.path.join(small_sweep_dir, "artifact.json"), "rb") as fh:
        blob = fh.read()
    bad = tmp_path / "artifact.json"
    bad.write_bytes(damage(blob))
    args = ["--n-cells", "40", "--n-train", "25", "--n-sweep", "30", "--rb-size", "3"]
    code = cli.main(["sweep", *args, "--artifact", str(bad), "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # The cases below each reach one check of load_artifact.
    reached = {
        _version_2: "unsupported artifact version 2",
        _version_3: "unsupported artifact version 3",
        _version_4: "unsupported artifact version 4",
        _version_5: "unsupported artifact version 5",
        _version_6: "unsupported artifact version 6",
        _version_7: "unsupported artifact version 7",
        _version_8: "unsupported artifact version 8",
        _nan_entry: "non-finite artifact entry",
        _q_sha256_altered: "misses the stored q_sha256",
        _q_sha256_dropped: "lacks the key 'q_sha256'",
        _drop_e2: "lacks the key 'e2'",
        _sha256_altered: "misses the stored basis_sha256",
        _sha256_dropped: "lacks the key 'basis_sha256'",
        _mu_one_ulp: "misses the stored basis_sha256",
        _mu_first_one_ulp: "misses the stored basis_sha256",
        _mu_near_duplicate: "signals linear dependence",
        _mu_order_swapped: "misses the stored basis_sha256",
    }
    assert reached.get(damage, "") in err


# Any JSON value, for edits that put one in the artifact.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 64, 2 ** 64) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


def _edit_paths(node, path=()):
    """The path of every node of the artifact but the root and "e3"'s."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        if path or key != "e3":
            yield path + (key,)
            yield from _edit_paths(child, path + (key,))


def _nudged(value, draw):
    """value moved as little as its kind allows: a float's hex by one ulp,
    another string by one character, a number by one, a bool negated."""
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        x = float.fromhex(value)
        return math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf]))).hex()
    if isinstance(value, str):
        k = draw(st.integers(0, max(len(value) - 1, 0)))
        return value[:k] + draw(st.sampled_from("0a1f.-x")) + value[k + 1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + draw(st.sampled_from([-1, 1]))
    return draw(_JSON_VALUES)


@pytest.fixture(scope="module")
def edit_dir(cli_workdir):
    return make_output_dir(cli_workdir, "single_edits")


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_single_edit_outside_e3_exits_2_or_keeps_the_csv(small_sweep_dir, edit_dir, data):
    # One edit of the small artifact outside its "e3" part (a value nudged,
    # replaced, deleted or inserted) is refused with exit 2, or the sweep
    # writes the CSV of the unedited artifact.  Edits inside "e3" stay
    # open: its nodes are stored floats, and nudging one moves e3's column
    # (ROADMAP item 7, step 2).
    with open(os.path.join(small_sweep_dir, "artifact.json"), "rb") as fh:
        payload = json.loads(fh.read())
    with open(os.path.join(small_sweep_dir, "sweep.csv"), "rb") as fh:
        want = fh.read()
    *parents, key = data.draw(st.sampled_from(list(_edit_paths(payload))), label="path")
    parent = payload
    for k in parents:
        parent = parent[k]
    kind = data.draw(st.sampled_from(["nudge", "replace", "delete", "insert"]), label="kind")
    if kind == "nudge":
        parent[key] = _nudged(parent[key], data.draw)
    elif kind == "replace":
        parent[key] = data.draw(_JSON_VALUES, label="value")
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4), label="new key")] = data.draw(_JSON_VALUES)
    else:
        parent.insert(key, data.draw(_JSON_VALUES, label="value"))
    edited = os.path.join(edit_dir, "artifact.json")
    with open(edited, "wb") as fh:
        fh.write(json.dumps(payload).encode("ascii"))
    csv = os.path.join(edit_dir, "sweep.csv")
    if os.path.exists(csv):
        os.remove(csv)
    args = ["--n-cells", "40", "--n-train", "25", "--n-sweep", "30", "--rb-size", "3"]
    code = cli.main(["sweep", *args, "--artifact", edited, "--output-dir", edit_dir])
    assert code in (0, 2)
    if code == 0:
        with open(csv, "rb") as fh:
            assert fh.read() == want


def test_stored_beta_cannot_change_an_estimate(small_sweep_dir, tmp_path):
    # beta = 1 is the problem's coercivity bound, not data: a "beta" added to
    # the model part is never read, so the sweep CSV keeps its bytes.
    with open(os.path.join(small_sweep_dir, "artifact.json"), "rb") as fh:
        payload = json.loads(fh.read())
    payload["model"]["beta"] = (4.0).hex()
    edited = tmp_path / "artifact.json"
    edited.write_bytes(json.dumps(payload).encode("ascii"))
    cfg = ExperimentConfig(n_cells=40, n_train=25, n_sweep=30, rb_size=3, output_dir=str(tmp_path))
    run_sweep(cfg, artifact_path=str(edited), log=lambda *a: None)
    with open(os.path.join(small_sweep_dir, "sweep.csv"), "rb") as fh:
        assert (tmp_path / "sweep.csv").read_bytes() == fh.read()


def test_cli_numerical_failure_exits_3(monkeypatch, capsys):
    def explode(config, log=print):
        raise rb.EstimatorBuildError("interpolation matrix is numerically singular")

    monkeypatch.setattr(cli, "run_offline", explode)
    assert cli.main(["offline"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# The package is the pipeline: every public module-level function of these
# modules must be entered by offline, sweep and floors.
PIPELINE_MODULES = ("fem", "precision", "estimators", "reduced", "experiments", "cli")


def test_the_pipeline_enters_every_public_function(tmp_path):
    public = {}
    for layer in PIPELINE_MODULES:
        module = importlib.import_module(f"rbcert.{layer}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
                public[fn.__code__] = f"{layer}.{name}"
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    smoke = ["--n-cells", "50", "--rb-size", "3", "--n-train", "20", "--n-sweep", "10"]
    orthonormal = smoke + ["--rb-size", "8", "--orthonormalize", "true"]
    orthonormal += ["--dependence-tol", "1e-30"]
    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for k, flags in enumerate((smoke, orthonormal)):
            for command in ("offline", "sweep", "floors"):
                codes.append(cli.main([command, *flags, "--output-dir", str(tmp_path / str(k))]))
    finally:
        sys.setprofile(previous)
    assert codes[0] == codes[1] == codes[3] == codes[4] == 0
    assert codes[2] in (0, 4) and codes[5] in (0, 4)
    missed = sorted(name for code, name in public.items() if code not in entered)
    assert not missed, f"never entered: {missed}"


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])

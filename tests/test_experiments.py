"""Experiment harness: config, artifacts, CSV/SVG outputs, CLI exit codes."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
    assert payload["version"] == 7
    assert sorted(payload["config"]) == ["mu_max", "mu_min", "n_cells"]
    assert sorted(payload["model"]) == ["basis_sha256", "orthonormalize", "snapshot_params"]
    assert sorted(payload["e2"]) == ["q_dd"]
    assert [len(part) for part in payload["e2"]["q_dd"]] == [rb.x_dimension(3)] * 2
    assert sorted(payload["e3"]) == ["interp_params", "rows"]
    sys_, model, e2data, e3data, meta = rb.load_artifact(path, cfg)
    assert model.n_hat == 3
    assert e3data.d == rb.x_dimension(3)
    r = len(payload["e3"]["rows"])
    assert e3data.T.shape == (r, r) and 1 <= r <= e3data.d
    # Loading against an incompatible mesh must fail loudly.
    with pytest.raises(ConfigError):
        rb.load_artifact(path, ExperimentConfig(n_cells=50))


@pytest.mark.parametrize("orthonormalize", [False, True])
def test_loaded_artifact_equals_fresh_build(cli_workdir, orthonormalize):
    # Every field of the loaded model, E2Data and E3Data, the recomputed
    # ones (T and V among them) included, equals a fresh build bit for bit.
    cfg = ExperimentConfig(
        n_cells=40, n_train=25, rb_size=4, orthonormalize=orthonormalize,
        output_dir=make_output_dir(cli_workdir, f"fresh_{orthonormalize}"),
    )
    path = run_offline(cfg, log=lambda *a: None)
    sys_, model, e2data, e3data, history = rb.load_artifact(path, cfg)
    fresh, fresh_history, _ = rb.greedy_build(
        sys_, training_grid(cfg), n_max=cfg.rb_size, tol=cfg.tol,
        orthonormalize=orthonormalize, dependence_tol=cfg.dependence_tol,
    )
    fresh_e2 = build_e2_data(sys_, fresh)
    sampler = rb.log_uniform_sampler(cfg.mu_min, cfg.mu_max)
    fresh_e3 = rb.build_e3_data(sys_, fresh, sampler, seed=cfg.seed)

    def hexes(x):
        if isinstance(x, (list, tuple)):
            return [hexes(e) for e in x]
        return [float(v).hex() for v in np.ravel(x)]

    assert history == fresh_history
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
def test_replay_under_perturbed_h1_inner(cli_workdir, monkeypatch, orthonormalize):
    # h1_inner scaled by (1 + 2^-52) stands in for another BLAS build.  A raw
    # basis is a truth solve in Python floats and replays hex-equal; an
    # orthonormal one goes through h1_inner in Gram-Schmidt, so its replay
    # misses the stored hash and the load is refused.
    cfg = ExperimentConfig(
        n_cells=40, n_train=25, rb_size=4, orthonormalize=orthonormalize,
        output_dir=make_output_dir(cli_workdir, f"perturbed_{orthonormalize}"),
    )
    path = run_offline(cfg, log=lambda *a: None)
    _, model, _, _, _ = rb.load_artifact(path, cfg)
    h1_inner = rb.reduced.h1_inner
    monkeypatch.setattr(rb.reduced, "h1_inner", lambda *args: h1_inner(*args) * (1.0 + EPS))
    if orthonormalize:
        with pytest.raises(ConfigError, match="basis_sha256"):
            rb.load_artifact(path, cfg)
        return
    _, replayed, _, _, _ = rb.load_artifact(path, cfg)
    for name in ("snapshots", "A0_hat", "A1_hat", "b_hat", "riesz_b", "riesz_a0", "riesz_a1"):
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
def _q0_negative(payload):
    payload["e2"]["q_dd"][0][0] = (-1.0).hex()


@_edited
def _nan_entry(payload):
    payload["e2"]["q_dd"][0][2] = "nan"


@_edited
def _e2_one_short(payload):
    payload["e2"]["q_dd"][1].pop()


@_edited
def _drop_e2(payload):
    del payload["e2"]


@_edited
def _history_one_short(payload):
    payload["history"].pop()


@_edited
def _history_nan(payload):
    payload["history"][0] = "nan"


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
        _e3_one_node_short, _e3_node_repeated, _e2_one_short, _drop_e2,
        _history_one_short, _history_nan, _version_3, _version_4, _version_5,
        _sha256_altered, _sha256_dropped, _mu_one_ulp, _mu_first_one_ulp,
        _mu_near_duplicate, _q0_negative, _version_6,
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
        _e2_one_short: "e2 data needs q_dd",
        _drop_e2: "lacks the key 'e2'",
        _history_one_short: "history needs 3 e1 entries",
        _history_nan: "non-finite history entry",
        _sha256_altered: "misses the stored basis_sha256",
        _sha256_dropped: "lacks the key 'basis_sha256'",
        _mu_one_ulp: "misses the stored basis_sha256",
        _mu_first_one_ulp: "misses the stored basis_sha256",
        _mu_near_duplicate: "signals linear dependence",
        _q0_negative: "e2 data needs q_0 = delta^2 > 0",
    }
    assert reached.get(damage, "") in err


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

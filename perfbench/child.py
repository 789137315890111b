"""One benchmark step, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the step (``env``, ``offline``, ``online`` or ``floors``),
the workload's ``ExperimentConfig`` overrides, the seed, the work directory
and whether to trace.  The last line on stdout is one JSON object with the
step's measurements; if the step raises, that object has ``"ok": false`` and
the process exits with code 1.

``rbcert`` is imported inside the steps, so an ``online`` step's set-up time
(interpreter start, ``import rbcert``, ``load_artifact``) is measured from the
moment ``run.py`` spawned this process (``t_spawn`` in the spec) to
``t_loaded``.

An untraced ``offline`` or ``online`` step also runs :class:`HostSpeed`, and
reports each timed window both as measured (``raw``) and scaled to the
reference speed (``scaled``); see README.md, "Host speed".
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

CERT_SLACK = 1e-10        # criterion 4: e1*(1 + CERT_SLACK) >= true_error
OFF_FLOOR_FACTOR = 1e4    # points with e1 >= OFF_FLOOR_FACTOR*delta*eps/beta

# The two panels `rbcert sweep` draws: file, title, (label, SweepRecord field, dash).
PANELS = (
    ("figure_left.svg", "Interpolated estimator vs reference",
     (("e1", "e1", None), ("e3", "e3", "6,3"), ("true error", "true_error", "2,3"))),
    ("figure_right.svg", "Compact estimator: double vs double-double",
     (("e1", "e1", None), ("e2", "e2", "6,3"), ("e2dd", "e2dd", "2,3"))),
)


# The speed probe: a fixed unit of work, run twice every PROBE_INTERVAL_S of
# wall time, the second run timed.  PROBE_REF_S is the timed run's duration
# at the reference speed: about its time in the fastest state of the host
# the benchmark was tuned on (README.md, "Host speed").
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 150e-6
_PROBE_M = np.linspace(0.5, 1.5, 96 * 96).reshape(96, 96)
_PROBE_V = np.linspace(0.0, 1.0, 16384)
_PROBE_X = np.linspace(1.0, 2.0, 160)


def now() -> float:
    """The clock of every window and tick; ``run.py`` stamps ``t_spawn`` with it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_unit() -> float:
    """The kinds of work rbcert does: an interpreter loop, a loop over array
    elements (as in the Thomas solve), small matrix products, a vector pass."""
    s = 0
    for i in range(500):
        s += i * i
    x = _PROBE_X.copy()
    for i in range(1, 150):
        x[i] = (x[i] - 0.5 * x[i - 1]) / 1.25
    m = _PROBE_M
    for _ in range(2):
        m = _PROBE_M @ m * 0.25
    return s + float((_PROBE_V * 1.5).sum()) + float(m[0, 0]) + float(x[-1])


class HostSpeed:
    """Times :func:`_probe_unit` on every SIGALRM tick while it runs.

    The host's speed changes within seconds and differs between its CPUs, so
    the probe runs inside the measured process, on the CPU the step runs on,
    throughout the step.  The untimed first run of each tick brings the
    unit's code and data back into cache, so the timed run follows the CPU's
    speed and not how much of the cache the step's own work has taken.
    :meth:`scaled` takes the probe's time out of a window and scales the rest
    to the reference speed.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []   # (start, duration, timed unit)
        self._handler = None

    def _tick(self, *_args):
        t0 = now()
        _probe_unit()                   # loads the unit's code and data into cache
        t1 = now()
        _probe_unit()
        t2 = now()
        self.ticks.append((t0, t2 - t0, t2 - t1))

    def start(self) -> None:
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        if self._handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._handler = None

    def scaled(self, t_a: float, t_b: float) -> dict:
        """The window [t_a, t_b] net of probe ticks, as measured and at the
        reference speed (None when the probe did not run).

        A window too short to hold a tick takes the speed of the whole step.
        """
        inside = [tick for tick in self.ticks if t_a <= tick[0] < t_b]
        net = t_b - t_a - sum(d for _, d, _ in inside)
        if not self.ticks:
            return {"raw": net, "scaled": None, "speed": None}
        speed = statistics.median(u for _, _, u in inside or self.ticks) / PROBE_REF_S
        return {"raw": net, "scaled": net / speed, "speed": speed}


def _quiet(*_args):
    pass


def _import_rbcert(spec):
    import rbcert

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rbcert.__file__).startswith(src + os.sep):
        raise RuntimeError(f"rbcert imported from {rbcert.__file__}, not from {src}")
    return rbcert


def _config(rbcert, spec):
    return rbcert.ExperimentConfig(
        **spec["config"], seed=spec["seed"], output_dir=spec["workdir"]
    ).validate()


def sweep_mus(rbcert, cfg, seed):
    """The workload's sweep parameters.

    The default seed gives ``sweep_grid`` exactly; any other seed shifts the
    whole grid by one seeded log-uniform offset within one grid cell, so the
    points move while their number and spacing stay the same.
    """
    import numpy as np

    if seed == rbcert.ExperimentConfig().seed:
        return rbcert.sweep_grid(cfg)
    lo, hi = math.log(cfg.mu_min), math.log(cfg.mu_max)
    step = (hi - lo) / cfg.n_sweep
    u = np.random.default_rng(seed).uniform(-0.5, 0.5)
    mus = np.exp(lo + (np.arange(cfg.n_sweep) + 0.5 + u) * step)
    return np.clip(mus, cfg.mu_min, cfg.mu_max)


class _Trace:
    """Installs a tracer for the span of a ``with`` block when the spec asks."""

    def __init__(self, rbcert, spec):
        self.rbcert, self.spec, self.tracer = rbcert, spec, None

    def __enter__(self):
        if self.spec["trace"]:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install(self.rbcert)
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()
        return False

    def report(self, out: dict) -> None:
        if self.tracer is None:
            return
        out["trace"] = self.tracer.summary()
        if self.spec["spans_path"]:
            tags = {k: self.spec[k] for k in ("workload", "seed", "iteration", "step")}
            self.tracer.write(self.spec["spans_path"], tags)


def step_env(spec):
    import platform

    import numpy as np

    rbcert = _import_rbcert(spec)
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "two_prod_path": rbcert.precision.TWO_PROD_PATH,
        "rbcert_version": rbcert.__version__,
    }


def step_offline(spec):
    rbcert = _import_rbcert(spec)
    from rbcert import experiments, reduced

    cfg = _config(rbcert, spec)
    with _Trace(rbcert, spec) as trace:
        t0 = now()
        path = experiments.run_offline(cfg, log=_quiet)
        t1 = now()
    with open(path, "rb") as fh:
        blob = fh.read()
    out = {
        "windows": {"offline_s": (t0, t1)},
        "artifact_bytes": len(blob),
        "artifact_sha256": hashlib.sha256(blob).hexdigest(),
    }
    if spec["trace"]:
        payload = json.loads(blob)
        out["part_bytes"] = {
            part: len(reduced.dumps_deterministic(payload[part])) for part in ("model", "e2", "e3")
        }
    trace.report(out)
    return out


def _accuracy(rbcert, rows, e2data):
    """Per-point checks and the accuracy figures of one sweep."""
    values = [
        (r.true_error, r.e1, r.e2, r.e2_radicand, r.e2dd, r.e3) for r in rows
    ]
    nonfinite = sum(1 for v in values if not all(math.isfinite(x) for x in v))
    floor = e2data.delta * rbcert.experiments.EPS / e2data.beta
    off_floor = [r for r in rows if r.e1 >= OFF_FLOOR_FACTOR * floor]

    def dev_max(attr):
        return max((abs(getattr(r, attr) / r.e1 - 1.0) for r in off_floor), default=0.0)

    return {
        "points": len(rows),
        "nonfinite_points": nonfinite,
        "cert_fail": sum(1 for r in rows if r.e1 * (1.0 + CERT_SLACK) < r.true_error),
        "off_floor_points": len(off_floor),
        "e3_dev_max": dev_max("e3"),
        "e2dd_dev_max": dev_max("e2dd"),
        "e2_neg_radicands": sum(1 for r in rows if r.e2_radicand < 0.0),
        "e2dd_clamps": sum(1 for r in rows if r.e2dd == 0.0),
        "e3_clamps": sum(r.e3_clamped_flag for r in rows),
    }


def step_online(spec):
    rbcert = _import_rbcert(spec)
    from rbcert import experiments

    cfg = _config(rbcert, spec)
    wd = spec["workdir"]
    with _Trace(rbcert, spec) as trace:
        sys_, model, e2data, e3data, _ = experiments.load_artifact(spec["artifact"], cfg)
        t_loaded = now()
        mus = sweep_mus(rbcert, cfg, spec["seed"])
        t0 = now()
        rows = experiments.compute_sweep(sys_, model, e2data, e3data, mus)
        t1 = now()
        csv = experiments.rows_to_csv(rows).encode("ascii")
        with open(os.path.join(wd, "sweep.csv"), "wb") as fh:
            fh.write(csv)
        xs = [r.mu for r in rows]
        for fname, title, series in PANELS:
            experiments.write_svg_loglog(
                os.path.join(wd, fname),
                title,
                [(label, xs, [getattr(r, f) for r in rows], "#333", dash) for label, f, dash in series],
            )
    out = {
        "windows": {"setup_s": (spec["t_spawn"], t_loaded), "sweep_s": (t0, t1)},
        "csv_sha256": hashlib.sha256(csv).hexdigest(),
        "csv_rows": csv.count(b"\n") - 1,
        "e3_d": e3data.d,
        "e3_cols": int(e3data.T.shape[1]),
    }
    out.update(_accuracy(rbcert, rows, e2data))
    trace.report(out)
    return out


def step_floors(spec):
    rbcert = _import_rbcert(spec)
    report = rbcert.measure_floors(_config(rbcert, spec), artifact_path=spec["artifact"], log=_quiet)
    return {"floor_checks": report["checks"]}


STEPS = {"env": step_env, "offline": step_offline, "online": step_online, "floors": step_floors}


def main() -> int:
    spec = json.loads(sys.argv[1])
    probe = HostSpeed()
    if not spec["trace"] and spec["step"] in ("offline", "online"):
        probe.start()
    try:
        out = STEPS[spec["step"]](spec)
        probe.stop()
        out["times"] = {k: probe.scaled(*w) for k, w in out.pop("windows", {}).items()}
        out["ok"] = True
        code = 0
    except Exception as exc:  # the step's boundary: report the failure, do not hide it
        probe.stop()
        traceback.print_exc()
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        code = 1
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""rbcert benchmark: offline build, set-up and sweep cost with accuracy checks.

    python3 perfbench/run.py --workload paper-default --seed 28 --seconds 40 --trace 0

Run from the root of a checkout.  One parent process runs the workload's
steps in sequence, each in a fresh child interpreter (``child.py``), one
child at a time, with BLAS pinned to one thread.  An iteration is an
offline child (``run_offline`` writes the artifact) followed by an online
child (``import rbcert``, ``load_artifact``, ``compute_sweep``, CSV and SVG
output).  Iterations repeat for about ``--seconds``.

``--trace 0`` prints the end-to-end metrics, the timings scaled to the
reference speed of the speed probe each untraced child runs
(``child.HostSpeed``); ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, the
tracing overhead among them.  The line before the last is a detailed
report (medians with percentiles and sample counts, accuracy figures,
checks and the environment); the last line is the result object.  Both are
also written under ``.perfbench/out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 28      # ExperimentConfig's seed: the paper's sweep grid

WORKLOADS = {
    # The paper's figure: N=199, N_hat=6, d=91; per-point Python overhead dominates.
    "paper-default": {"config": {}, "floors": False},
    # Converged basis (N_hat=12, d=325); the d x d e3 solve and T dominate.
    "floors-converged": {
        "config": {"rb_size": 24, "orthonormalize": True, "dependence_tol": 1e-30},
        "floors": True,
    },
    # Same N_hat and d as floors-converged at N=9999, isolating the N-dependence.
    "large-mesh": {
        "config": {
            "n_cells": 10000,
            "rb_size": 12,
            "orthonormalize": True,
            "dependence_tol": 1e-30,
            "n_sweep": 100,
        },
        "floors": False,
    },
}

END_TO_END = {
    "setup_s": "s",
    "offline_s": "s",
    "sweep_s": "s",
    "artifact_bytes": "bytes",
    "offline_rss_mb": "MB",
    "online_rss_mb": "MB",
}

LAYERS = ("fem", "reduced", "estimators", "precision", "experiments")

PER_LAYER = {
    "fem.truth_solve_us": "us",
    "fem.truth_solves": "count",
    "fem.riesz_us": "us",
    "fem.riesz_calls": "count",
    "fem.h1_inner_calls": "count",
    "fem.h1_inner_s": "s",
    "reduced.greedy_s": "s",
    "reduced.greedy_iters": "count",
    "reduced.greedy_e1_evals": "count",
    "reduced.add_snapshot_s": "s",
    "reduced.solve_reduced_us": "us",
    "reduced.solve_reduced_calls": "count",
    "reduced.encode_s": "s",
    "reduced.decode_s": "s",
    "reduced.bytes.model": "bytes",
    "reduced.bytes.e2": "bytes",
    "reduced.bytes.e3": "bytes",
    "estimators.e1_us": "us",
    "estimators.e2_us": "us",
    "estimators.e2dd_us": "us",
    "estimators.e3_us": "us",
    "estimators.true_error_us": "us",
    "estimators.build_e2_s": "s",
    "estimators.build_e3_s": "s",
    "estimators.e3_d": "count",
    "estimators.e3_cols": "count",
    "estimators.h1_inner_dd_calls": "count",
    "estimators.h1_inner_dd_s": "s",
    "estimators.e2_neg_radicands": "count",
    "estimators.e2dd_clamps": "count",
    "estimators.e3_clamps": "count",
    "estimators.cert_fail_frac": "ratio",
    "estimators.e3_dev_max": "ratio",
    "estimators.e2dd_dev_max": "ratio",
    "precision.dd_calls": "count",
    "precision.dd_s": "s",
    "experiments.run_offline_s": "s",
    "experiments.load_artifact_s": "s",
    "experiments.compute_sweep_s": "s",
    "experiments.csv_s": "s",
    "experiments.svg_s": "s",
    "cli.import_s": "s",
    "cli.offline_s": "s",
    "cli.sweep_s": "s",
    **{f"{layer}.offline_self_s": "s" for layer in LAYERS},
    **{f"{layer}.sweep_self_s": "s" for layer in LAYERS},
    "trace.offline_overhead_s": "s",
    "trace.sweep_overhead_s": "s",
    "trace.spans": "count",
}

# Timings are reported at the reference speed of child.HostSpeed; the report
# keeps them as measured too (README.md, "Host speed").
TIMINGS = ("setup_s", "offline_s", "sweep_s")

MIN_ITERATIONS = 2       # the determinism checks compare two iterations
RUN_BUDGET_S = 170.0     # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Ops:
    """Attempted and failed operations: builds, loads, sweep points, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, what: str, n: int = 1, failed: int = 0) -> bool:
        """Count ``n`` operations of which ``failed`` failed; True if none did."""
        self.attempted += n
        self.failed += failed
        if failed:
            self.failures.append(what)
        return not failed

    def check(self, ok: bool, what: str) -> bool:
        return self.add(what, failed=0 if ok else 1)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child step; return its result object.

    A crash, a timeout or output that is not a result object gives
    ``{"ok": False, ...}``; the caller counts it and goes on.
    """
    timeout = max(1.0, deadline - time.perf_counter())
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(dict(spec, t_spawn=t_spawn))],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{spec['step']} step timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False}
    if not result.get("ok"):
        result.setdefault("error", (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1])
    return result


def describe(values: list) -> dict:
    """Median, mean, the highest percentile with at least ten samples beyond
    it, the sample count and the samples in the order taken."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "mean": statistics.fmean(vals), "n": n, "values": values}
    for level in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - level / 100.0) >= 10:
            out[f"p{level:g}"] = vals[math.ceil(level / 100.0 * n) - 1]
            break
    return out


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(child: dict) -> dict:
    env = {k: v for k, v in child.items() if k not in ("ok", "rss_mb")}
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        blas_threads={var: "1" for var in BLAS_THREAD_VARS},
        git_commit=git_commit(),
    )
    return env


# --- per-layer metrics from one traced iteration -----------------------------

def _merge(*summaries):
    functions: dict = {}
    parents: dict = {}
    roots: dict = {}
    spans = 0
    for s in summaries:
        spans += s["spans"]
        for name, (count, incl, own) in s["functions"].items():
            f = functions.setdefault(name, [0, 0.0, 0.0])
            f[0] += count
            f[1] += incl
            f[2] += own
        for name, by in s["parents"].items():
            for caller, count in by.items():
                p = parents.setdefault(name, {})
                p[caller] = p.get(caller, 0) + count
        roots.update(s["roots"])
    return functions, parents, roots, spans


def layer_metrics(off: dict, on: dict) -> dict:
    """Per-layer metrics of one traced iteration (offline + online child)."""
    functions, parents, roots, spans = _merge(off["trace"], on["trace"])

    def count(name):
        return functions.get(name, (0, 0.0, 0.0))[0]

    def seconds(*names):
        return sum(functions.get(n, (0, 0.0, 0.0))[1] for n in names)

    def per_call_us(name):
        return 1e6 * seconds(name) / count(name) if count(name) else 0.0

    def calls_from(name, caller):
        return parents.get(name, {}).get(caller, 0)

    def self_in(root, layer):
        return roots.get(root, {}).get(layer, 0.0)

    calls_into_precision = sum(
        n for name, by in parents.items() if name.startswith("precision.")
        for caller, n in by.items() if not caller.startswith("precision.")
    )
    m = {
        "fem.truth_solve_us": per_call_us("fem.solve_truth"),
        "fem.truth_solves": count("fem.solve_truth"),
        "fem.riesz_us": per_call_us("fem.riesz_representative"),
        "fem.riesz_calls": count("fem.riesz_representative"),
        "fem.h1_inner_calls": count("fem.h1_inner"),
        "fem.h1_inner_s": seconds("fem.h1_inner"),
        "reduced.greedy_s": seconds("reduced.greedy_build"),
        "reduced.greedy_iters": calls_from("reduced.add_snapshot", "reduced.greedy_build"),
        "reduced.greedy_e1_evals": calls_from("estimators.estimator_e1", "reduced.greedy_build"),
        "reduced.add_snapshot_s": seconds("reduced.add_snapshot"),
        "reduced.solve_reduced_us": per_call_us("reduced.solve_reduced"),
        "reduced.solve_reduced_calls": count("reduced.solve_reduced"),
        "reduced.encode_s": seconds(
            "reduced.model_to_dict", "reduced.e2data_to_dict", "reduced.e3data_to_dict",
            "reduced.dumps_deterministic",
        ),
        "reduced.decode_s": seconds(
            "reduced.model_from_dict", "reduced.e2data_from_dict", "reduced.e3data_from_dict"
        ),
        "reduced.bytes.model": off["part_bytes"]["model"],
        "reduced.bytes.e2": off["part_bytes"]["e2"],
        "reduced.bytes.e3": off["part_bytes"]["e3"],
        "estimators.e1_us": per_call_us("estimators.estimator_e1"),
        "estimators.e2_us": per_call_us("estimators.estimator_e2"),
        "estimators.e2dd_us": per_call_us("estimators.estimator_e2_dd"),
        "estimators.e3_us": per_call_us("estimators.estimator_e3"),
        "estimators.true_error_us": per_call_us("estimators.true_error"),
        "estimators.build_e2_s": seconds("estimators.build_e2_data"),
        "estimators.build_e3_s": seconds("estimators.build_e3_data"),
        "estimators.e3_d": on["e3_d"],
        "estimators.e3_cols": on["e3_cols"],
        "estimators.h1_inner_dd_calls": count("estimators.h1_inner_dd"),
        "estimators.h1_inner_dd_s": seconds("estimators.h1_inner_dd"),
        "estimators.e2_neg_radicands": on["e2_neg_radicands"],
        "estimators.e2dd_clamps": on["e2dd_clamps"],
        "estimators.e3_clamps": on["e3_clamps"],
        "estimators.cert_fail_frac": on["cert_fail"] / on["points"],
        "estimators.e3_dev_max": on["e3_dev_max"],
        "estimators.e2dd_dev_max": on["e2dd_dev_max"],
        "precision.dd_calls": calls_into_precision,
        "precision.dd_s": sum(f[2] for name, f in functions.items() if name.startswith("precision.")),
        "experiments.run_offline_s": seconds("experiments.run_offline"),
        "experiments.load_artifact_s": seconds("experiments.load_artifact"),
        "experiments.compute_sweep_s": seconds("experiments.compute_sweep"),
        "experiments.csv_s": seconds("experiments.rows_to_csv"),
        "experiments.svg_s": seconds("experiments.write_svg_loglog"),
        "trace.spans": spans,
    }
    for layer in LAYERS:
        m[f"{layer}.offline_self_s"] = self_in("experiments.run_offline", layer)
        m[f"{layer}.sweep_self_s"] = self_in("experiments.compute_sweep", layer)
    return m


def cli_flags(config: dict, seed: int, output_dir: str) -> list[str]:
    flags = []
    for key, value in config.items():
        flags += ["--" + key.replace("_", "-"), str(value).lower() if isinstance(value, bool) else repr(value)]
    return flags + ["--seed", str(seed), "--output-dir", output_dir]


def time_cli(args: list[str], deadline: float) -> float | None:
    """Wall seconds of one ``python -m rbcert.cli`` style subprocess, None on failure."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return None
    elapsed = time.perf_counter() - t0
    return elapsed if proc.returncode == 0 else None


# --- one run ------------------------------------------------------------------

def make_spec(workload, config, seed, workdir) -> dict:
    """The untraced child spec of one workload; ``step`` is set per child."""
    return {
        "workload": workload, "config": config, "seed": seed, "src": SRC,
        "workdir": workdir, "artifact": os.path.join(workdir, "artifact.json"),
        "spans_path": None, "trace": False, "iteration": -1, "t_spawn": None,
    }


def run(workload: str, config: dict, floors: bool, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result object, detailed report)."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
    if trace and os.path.exists(spans_path):
        os.remove(spans_path)
    base = make_spec(workload, config, seed, workdir)
    ops = Ops()
    try:
        env_res = spawn(dict(base, step="env"), deadline)
        if not env_res.get("ok"):
            raise SystemExit(f"perfbench: cannot import rbcert from {SRC}: {env_res.get('error')}")
        samples: dict = {k: [] for k in END_TO_END}
        raw: dict = {k: [] for k in TIMINGS}       # timings as measured
        speed: dict = {k: [] for k in TIMINGS}     # probe time over its reference
        traced: list = []          # (offline result, online result) of traced iterations
        artifact_shas, csv_shas, accuracy = set(), set(), {}
        i = 0
        t_loop = time.perf_counter()
        while True:
            # Stop when one more iteration would end more than half of one
            # past --seconds, so a run lasts about --seconds on every workload.
            now = time.perf_counter()
            if i >= MIN_ITERATIONS and now - t_start + (now - t_loop) / (2 * i) >= seconds:
                break
            traced_iter = trace and i % 2 == 1
            # Iterations trace alike; the spans of the first traced one are kept.
            spec = dict(base, trace=traced_iter, iteration=i, spans_path=spans_path if i == 1 else None)
            off = spawn(dict(spec, step="offline"), deadline)
            i += 1
            if not ops.check(off.get("ok", False), f"offline build {i}: {off.get('error')}"):
                continue
            artifact_shas.add(off["artifact_sha256"])
            on = spawn(dict(spec, step="online"), deadline)
            if not ops.check(on.get("ok", False), f"load and sweep {i}: {on.get('error')}"):
                continue
            bad = on["nonfinite_points"]
            ops.add(f"sweep {i}: {bad} points with non-finite output", on["points"], bad)
            ops.check(on["csv_rows"] == on["points"], f"sweep {i}: CSV has {on['csv_rows']} rows")
            csv_shas.add(on["csv_sha256"])
            accuracy = accuracy or on
            if traced_iter:
                traced.append((off, on))
                continue
            times = {**off["times"], **on["times"]}
            for k in TIMINGS:
                samples[k].append(times[k]["scaled"])
                raw[k].append(times[k]["raw"])
                speed[k].append(times[k]["speed"])
            samples["artifact_bytes"].append(off["artifact_bytes"])
            samples["offline_rss_mb"].append(off["rss_mb"])
            samples["online_rss_mb"].append(on["rss_mb"])
        ops.check(len(artifact_shas) == 1, f"artifacts differ across builds: {len(artifact_shas)} digests")
        ops.check(len(csv_shas) == 1, f"sweep CSVs differ across runs: {len(csv_shas)} digests")
        floor_checks = None
        if floors:
            res = spawn(dict(base, step="floors"), deadline)
            floor_checks = res.get("floor_checks")
            if ops.check(res.get("ok", False), f"floors step: {res.get('error')}"):
                for name, ok in floor_checks.items():
                    ops.check(ok, f"floor check {name} failed")
        cli = {}
        if trace:
            cli_dir = os.path.join(workdir, "cli")
            flags = cli_flags(config, seed, cli_dir)
            for key, args in (
                ("cli.import_s", ["-c", "import rbcert.cli"]),
                ("cli.offline_s", ["-m", "rbcert.cli", "offline", *flags]),
                ("cli.sweep_s", ["-m", "rbcert.cli", "sweep", *flags]),
            ):
                cli[key] = time_cli(args, deadline)
                ops.check(cli[key] is not None, f"{key} command failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload,
        "config": config,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": i,
        "wall_s": time.perf_counter() - t_start,
        "environment": environment(env_res),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "error_frac": ops.failed / max(ops.attempted, 1),
        "floor_checks": floor_checks,
        "floor_checks_failed": sum(not ok for ok in (floor_checks or {}).values()),
        "csv_sha256": sorted(csv_shas),
        "artifact_sha256": sorted(artifact_shas),
        "accuracy": {
            k: accuracy.get(k)
            for k in ("points", "cert_fail", "off_floor_points", "e3_dev_max", "e2dd_dev_max")
        },
    }
    metrics = {}
    if trace:
        per_iter = [layer_metrics(off, on) for off, on in traced]
        missing = [k for k, v in cli.items() if v is None]
        if not per_iter or not samples["offline_s"] or missing:
            raise SystemExit(f"perfbench: traced run incomplete: {ops.failures}")
        values = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        # Traced children run no speed probe, so they compare with the
        # untraced timings as measured.
        values["trace.offline_overhead_s"] = values["experiments.run_offline_s"] - statistics.median(
            raw["offline_s"]
        )
        values["trace.sweep_overhead_s"] = values["experiments.compute_sweep_s"] - statistics.median(
            raw["sweep_s"]
        )
        values.update(cli)
        units = PER_LAYER
        report["traced_iterations"] = len(per_iter)
    else:
        missing = [k for k, v in samples.items() if not v]
        if missing:
            raise SystemExit(f"perfbench: no samples for {missing}: {ops.failures}")
        report["samples"] = {k: describe(v) for k, v in samples.items()}
        report["raw_samples"] = {k: describe(v) for k, v in raw.items()}
        report["speed"] = {k: describe(v) for k, v in speed.items()}
        values = {k: report["samples"][k]["median"] for k in END_TO_END}
        units = END_TO_END
    for key, unit in units.items():
        metrics[key] = {"value": values[key], "unit": unit}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rbcert", "__init__.py")):
        print(f"perfbench: no rbcert sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result, report = run(args.workload, wl["config"], wl["floors"], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself, at a tiny problem size.

    python3 perfbench/smoke.py

Run from the root of a checkout; exits 0 when every check passes.  Checks:

* ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` emits,
  and an untraced and a traced run emit every one of them, correctly;
* a truncated copy of the artifact is counted as a failed operation by the
  parent (run.py) instead of crashing it;
* an untraced step leaves every ``rbcert`` function object in place, and a
  traced step records spans and then puts the originals back.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import child
import run
import tracing

TINY = {"n_cells": 50, "rb_size": 3, "n_train": 20, "n_sweep": 10}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(declared["end_to_end"] == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(declared["per_layer"] == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run("smoke", TINY, False, run.DEFAULT_SEED, 1.0, trace)
        check(
            result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{kind} run is correct ({result['attempted']} attempted, {result['failed']} failed)",
        )
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == declared[kind], f"{kind} run emits every declared metric with its unit")
        check(
            all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values()),
            f"{kind} metric values are finite numbers",
        )


def check_truncated_artifact(workdir: str) -> None:
    deadline = time.perf_counter() + 60.0
    spec = run.make_spec("smoke", TINY, run.DEFAULT_SEED, workdir)
    off = run.spawn(dict(spec, step="offline"), deadline)
    check(off.get("ok", False), "tiny offline build")
    with open(spec["artifact"], "rb") as fh:
        blob = fh.read()
    with open(spec["artifact"], "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    ops = run.Ops()
    on = run.spawn(dict(spec, step="online"), deadline)
    ops.check(on.get("ok", False), f"load and sweep: {on.get('error')}")
    check(
        ops.attempted == 1 and ops.failed == 1,
        f"truncated artifact counted as one failed operation ({on.get('error')})",
    )


def check_unwrapped(workdir: str) -> None:
    sys.path.insert(0, run.SRC)
    import rbcert

    def snapshot():
        return {
            (ns, name): obj
            for ns, module in tracing.namespaces(rbcert)
            for name, obj in vars(module).items()
            if callable(obj)
        }

    spec = run.make_spec("smoke", TINY, run.DEFAULT_SEED, workdir)
    before = snapshot()
    child.step_offline(spec)
    child.step_online(spec)
    check(snapshot() == before and not tracing.wrapped_functions(rbcert),
          "untraced steps leave every rbcert function unwrapped")
    traced = dict(spec, trace=True, step="online", spans_path=os.path.join(workdir, "spans.jsonl"))
    out = child.step_online(traced)
    check(out["trace"]["spans"] > 0, f"traced step recorded {out['trace']['spans']} spans")
    check(snapshot() == before and not tracing.wrapped_functions(rbcert),
          "traced step restores every rbcert function")


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "rbcert", "__init__.py")):
        print(f"smoke: no rbcert sources under {run.SRC}; run from a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(run.ROOT, ".perfbench", "work", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_metrics()
        check_truncated_artifact(workdir)
        check_unwrapped(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"smoke: {len(failures)} check(s) failed" if failures else "smoke: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

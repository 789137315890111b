"""Command-line interface: offline / sweep / floors subcommands.

Each subcommand takes --config (flat key=value file) plus per-key
override flags.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 a floor check failed (``floors`` still writes
floors.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys

import numpy as np

from .estimators import EstimatorBuildError
from .experiments import (
    ConfigError,
    ExperimentConfig,
    load_config,
    measure_floors,
    run_offline,
    run_sweep,
)
from .reduced import DependentSnapshotError

# One --flag per config field, in field order: "--" plus the name with "-".
_OVERRIDE_FLAGS = [
    ("--" + f.name.replace("_", "-"), f.name) for f in dataclasses.fields(ExperimentConfig)
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbcert",
        description="Certified reduced-basis solver: offline build, estimator sweep, "
        "round-off floor measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("offline", "greedy basis + estimator data, serialized to an artifact"),
        ("sweep", "evaluate true error and all estimators over the parameter sweep"),
        ("floors", "compare observed estimator minima against predicted round-off floors"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for flag, key in _OVERRIDE_FLAGS:
            p.add_argument(flag, dest=key, metavar=key.upper())
        if name in ("sweep", "floors"):
            p.add_argument(
                "--artifact",
                metavar="PATH",
                help="artifact file (default: <output-dir>/artifact.json)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for _, key in _OVERRIDE_FLAGS
        if getattr(args, key) is not None
    }
    try:
        config = load_config(args.config, overrides)
        if args.command == "offline":
            run_offline(config)
        elif args.command == "sweep":
            run_sweep(config, artifact_path=args.artifact)
        else:
            report = measure_floors(config, artifact_path=args.artifact)
            if not report["all_pass"]:
                print("floors: one or more floor checks FAILED", file=_sys.stderr)
                return 4
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (
        EstimatorBuildError,
        DependentSnapshotError,
        np.linalg.LinAlgError,
        FloatingPointError,
        ValueError,
    ) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

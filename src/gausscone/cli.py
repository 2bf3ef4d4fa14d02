"""Batch front door.

    gausscone verify    --config cfg.json [--out report.json] [--format json|csv]
                        [--tolerance 1e-7] [--seed 0]
    gausscone spectrum  --config cfg.json ...   # spectral suite only
    gausscone sharpness --config cfg.json ...   # sweep-producing suites only
    gausscone report    --config cfg.json ...   # run and print, never fails

Exit codes: 0 success, 1 suite failure, 2 invalid config, 3 unwritable output.

Run as a program (`python -m gausscone.cli`, or the `gausscone` script,
whose entry module `gausscone.program` does the same), the process runs BLAS
and OpenMP on one thread, whatever the caller's environment says: the
thread count moves the last digits of `matmul`, `tensordot` and `eigh`, and
a report must not depend on it.  The variables are set before the package
imports below first load numpy (the package `__init__` loads nothing), so
the setting holds for the whole run.  Importing this module sets nothing,
so a caller that runs `main` in its own process keeps its thread settings.
"""

from __future__ import annotations

import argparse
import sys

if __name__ == "__main__":
    from .program import pin_one_thread

    pin_one_thread()

from .config import parse_config  # noqa: E402
from .errors import ConfigError, ToolkitError  # noqa: E402
from .report import emit, run  # noqa: E402

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_ERROR = 3

_SWEEP_SUITES = ("beckner", "poincare", "lsi")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscone",
        description="Numerical checks for weighted-Gaussian functional inequalities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "run the configured suites and report pass/fail"),
            ("spectrum", "run only the spectral suite"),
            ("sharpness", "run only the sweep-producing suites"),
            ("report", "run and print a report without failing the exit code")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--format", default="json", choices=("json", "csv"))
        cmd.add_argument("--tolerance", type=float, default=None,
                         help="override the config tolerance")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--timing", action="store_true",
                         help="include wall times (breaks byte determinism)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        # overrides pass the file's checks and show in the report's config
        overrides = {"tolerance": args.tolerance, "seed": args.seed}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if args.command == "spectrum":
            overrides["suites"] = ["spectral"]
        elif args.command == "sharpness":
            kept = [s for s in config.suites if s in _SWEEP_SUITES]
            overrides["suites"] = kept or list(_SWEEP_SUITES)
        if overrides:
            config = parse_config({**config.raw, **overrides})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ToolkitError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILURE

    payload = emit(report, format=args.format, include_timing=args.timing)
    out_path = args.out or config.output
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
    else:
        sys.stdout.write(payload.decode())

    for suite in report.suites:
        status = "pass" if suite.passed else "FAIL"
        print(f"[{status}] {suite.name}: {len(suite.checks)} checks"
              + (f" ({suite.wall_time_s:.2f}s)" if args.timing else ""),
              file=sys.stderr)
    if args.command == "report":
        return EXIT_OK
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())

"""Run reports: suite execution and deterministic serialization.

JSON is `json.dumps` with sorted keys and no whitespace; floats print as
their shortest round-trip repr (exact for regression diffs, and an integral
float keeps its ".0"), and nan and infinities as the strings "nan", "inf"
and "-inf".  Two runs with the same config, seed and version produce
byte-identical output.  Wall-clock timings are collected but kept out of
the serialized bytes by default for exactly that reason.

The thread count of BLAS moves the last digits of `matmul`, `tensordot` and
`eigh`, so the command line (`gausscone.cli`) pins BLAS and OpenMP to one
thread before numpy loads: its reports are byte-identical across reruns and
across the caller's thread settings.  A library caller who imports numpy
first owns the thread count, and `run` then reproduces bytes only at a
fixed thread count.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import RunConfig, build_field, build_weight
from .measures import DEFAULT_ORDER, make_measure
from .suites import RunContext, default_library, run_suite


@dataclass
class SuiteResult:
    name: str
    checks: list[dict]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.get("pass", False) or c.get("informational", False)
                   for c in self.checks)


@dataclass
class RunReport:
    config: dict
    version: str
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def run(config: RunConfig) -> RunReport:
    """Execute the configured suites in declared order, deterministically."""
    from .errors import ConfigError, ToolkitError
    try:
        weight = build_weight(config)
        order = config.quadrature.get("order", DEFAULT_ORDER)
        mc_samples = config.quadrature.get("mc_samples")
        measure = make_measure(weight, 1.0, order=order, mc_samples=mc_samples,
                               seed=config.seed)
        if config.fields is None:
            fields = default_library(weight, seed=config.seed)
        else:
            fields = [build_field(f, config.dim) for f in config.fields]
    except ConfigError:
        raise
    except ToolkitError as exc:
        # an inadmissible weight or impossible rule is a configuration
        # problem, not a theorem failure
        raise ConfigError(str(exc)) from exc
    ctx = RunContext(measure=measure, fields=fields,
                     tolerance=config.tolerance, seed=config.seed)
    report = RunReport(config=dict(config.raw), version=__version__)
    for name in config.suites:
        t0 = time.perf_counter()
        checks = run_suite(name, ctx)
        report.suites.append(SuiteResult(name, checks,
                                         time.perf_counter() - t0))
    return report


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _clean(value):
    """Normalize to plain JSON-serializable python values; nan and the
    infinities become the strings "nan", "inf" and "-inf"."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_clean(v) for v in seq]
    return value


def report_payload(report: RunReport, include_timing: bool = False) -> dict:
    suites = []
    for s in report.suites:
        entry = {"name": s.name, "checks": _clean(s.checks), "pass": s.passed}
        if include_timing:
            entry["wall_time_s"] = s.wall_time_s
        suites.append(entry)
    return {"config": _clean(report.config), "version": report.version,
            "suites": suites, "pass": report.passed}


def emit(report: RunReport, format: str = "json",
         include_timing: bool = False) -> bytes:
    """Serialize the report; json is byte-deterministic given (config, seed)."""
    if format == "json":
        text = json.dumps(report_payload(report, include_timing), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
        return (text + "\n").encode()
    if format == "csv":
        import csv  # only here: a JSON run does not pay for loading it

        def cells_of(theorem, record):
            cells = [str(theorem)]
            for key in ("lhs", "rhs", "deficit"):
                v = record.get(key, "")
                cells.append(format_float(v) if isinstance(v, float) else str(v))
            cells.append(str(bool(record.get("pass", ""))).lower())
            return cells

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "lhs", "rhs", "deficit", "pass"])
        for s in report.suites:
            for c in s.checks:
                theorem = c.get("theorem", s.name)
                writer.writerow(cells_of(theorem, c))
                # sweep tables expand to one row per parameter for plotting
                for row in c.get("rows", ()):
                    tag = f"{theorem}[{row.get('parameter')}]"
                    writer.writerow(cells_of(tag, dict(row, **{"pass": c.get("pass", "")})))
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")


def format_float(v: float) -> str:
    return format(v, ".12g")

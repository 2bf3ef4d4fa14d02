"""Process control, statistics and the correctness gate of the benchmark.

One `gausscone verify` process runs at a time.  Each child is reaped with
`os.wait4`, which gives that child's own peak RSS and CPU times (the
`RUSAGE_CHILDREN` totals only keep a running maximum).  A child that runs
past its wall cap is killed and recorded as "timeout".
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field


@dataclass
class ProcessResult:
    status: str            # "ok" | "timeout" | "crash" | "exit<code>"
    exit_code: int | None  # None when killed by a signal
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv: list[str], cap_s: float, env: dict | None = None,
                cwd: str | None = None, stderr_path: str | None = None
                ) -> ProcessResult:
    """Run argv to completion or until cap_s seconds pass, then kill it.

    The exit is awaited on a pidfd, so the wall time ends when the child
    exits rather than at the next poll, and a kill can never reach a reused
    pid.  The child leads its own session so a kill takes any helpers too.
    """
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], cap_s)
        except BaseException:
            # interrupted (SIGTERM is turned into SystemExit by run.py):
            # never leave the child running
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        timed_out = not ready
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    code = proc.returncode
    if timed_out:
        kind = "timeout"
    elif code < 0:
        kind, code = "crash", None
    else:
        kind = "ok" if code in (0, 1) else f"exit{code}"
    return ProcessResult(status=kind, exit_code=code,
                         wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                         peak_rss_mb=usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values, min_tail: int = 10) -> tuple[float, float] | None:
    """(p, value): the highest percentile p, in whole percent, that has at
    least `min_tail` samples strictly above its rank, with the sample at that
    rank; None when there are too few samples for any percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_tail:
        return None
    rank = n - min_tail - 1              # 0-based; min_tail samples beyond it
    p = math.floor(100.0 * (rank + 1) / n)
    return float(p), float(ordered[rank])


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """What the gate found about one process."""

    ok: bool
    reason: str = ""
    records: int = 0           # non-informational records
    passed: int = 0            # of which PASS
    fails: list[str] = field(default_factory=list)   # theorems that FAILed
    suite_wall_s: float = 0.0  # sum of the suites' wall_time_s


def load_report(path: str) -> dict | None:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    return report if isinstance(report, dict) else None


def strip_timing(report: dict) -> dict:
    """The report with every suite's wall_time_s dropped."""
    out = dict(report)
    out["suites"] = [{k: v for k, v in s.items() if k != "wall_time_s"}
                     for s in report.get("suites", [])]
    return out


def non_informational_counts(report: dict) -> dict[str, int]:
    return {s["name"]: sum(1 for c in s["checks"] if not c.get("informational"))
            for s in report["suites"]}


# bochner_convergence passes when every finite-difference ratio r1/r2 lies
# in this band (O(h^2) convergence gives 4)
BOCHNER_BAND = (3.5, 4.5)


def is_known_false_fail(check: dict, known: set[str]) -> bool:
    """Whether a FAIL record is a known false FAIL of the program: its
    theorem is listed for the config (`known`), or it is a Bochner check
    with exactly one ratio of at least five outside BOCHNER_BAND.  That one
    ratio comes from a sample point where the O(h^2) error term nearly
    vanishes (its residual is ~1e-7 against ~1e-4 elsewhere), so the next
    order sets the ratio.  It happens on about 1 seed in 64 of most
    configs, while a broken Bochner residual moves every ratio."""
    theorem = check.get("theorem")
    if theorem in known:
        return True
    if theorem != "bochner_convergence":
        return False
    ratios = check.get("ratios") or []
    lo, hi = BOCHNER_BAND
    outside = sum(1 for r in ratios if not lo <= r <= hi)
    return len(ratios) >= 5 and outside == 1


def judge(proc: ProcessResult, report: dict | None, expected: dict[str, int],
          known_fails: set[str]) -> Verdict:
    """Check one process against its config's reference.

    The process must exit 0 or 1 in agreement with the report's `pass`, its
    non-informational record count per suite must match `expected`, and
    every FAIL must be a known false FAIL (`is_known_false_fail`).
    """
    if proc.status != "ok":
        return Verdict(False, proc.status)
    if report is None or "suites" not in report:
        return Verdict(False, "no report")
    if proc.exit_code != (0 if report.get("pass") else 1):
        return Verdict(False, f"exit {proc.exit_code} disagrees with pass="
                              f"{report.get('pass')}")
    counts = non_informational_counts(report)
    if counts != expected:
        return Verdict(False, f"record counts {counts} != reference {expected}")
    fails, unexpected, records, passed = [], [], 0, 0
    for s in report["suites"]:
        for c in s["checks"]:
            if c.get("informational"):
                continue
            records += 1
            if c.get("pass"):
                passed += 1
                continue
            fails.append(c.get("theorem", s["name"]))
            if not is_known_false_fail(c, known_fails):
                unexpected.append(fails[-1])
    wall = sum(float(s.get("wall_time_s", 0.0)) for s in report["suites"])
    if unexpected:
        return Verdict(False, f"FAIL on {sorted(set(unexpected))}", records,
                       passed, fails, wall)
    return Verdict(True, "", records, passed, fails, wall)

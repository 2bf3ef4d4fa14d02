"""Benchmark of `gausscone verify`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark drives the real CLI
(`python -m gausscone.cli verify --timing --out ...`) as a closed loop with
one client: one process at a time, never two at once.  It repeats the
workload until --seconds have passed (and at least the workload's minimum
number of repetitions), checks every process against the correctness gate
and prints each metric by name and unit.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, from untraced processes.
With --trace 1 the same untraced loop runs first, then one traced repetition
(perfbench/traced_cli.py) and one `python -X importtime -c "import
gausscone"` process give the per-layer metrics.

The BLAS thread settings are the user's; they are recorded, not pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    judge,
    load_report,
    median,
    relative_spread,
    run_process,
    strip_timing,
    tail_percentile,
)
from perlayer import PER_LAYER, parse_importtime, per_layer  # noqa: E402
from spans import load  # noqa: E402
from workloads import KNOWN_FALSE_FAILS, WORKLOADS, config_key  # noqa: E402

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("checks_passed_frac", "ratio", "higher"),
    ("runs_ok_frac", "ratio", "higher"),
]
# a run never starts a process whose cap could end it later than this
RUN_LIMIT_S = 165.0
IMPORT_CAP_S = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One benchmark run: its processes, their verdicts and the reports
    seen so far for each config (for the determinism check)."""

    def __init__(self, workload, seed: int, root: str, work: str,
                 reference: dict):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # (config path, expected record counts, known false FAILs)
        self.configs = []
        for i, cfg in enumerate(workload.configs(seed, root)):
            key = config_key(cfg)
            if key not in reference:
                raise SystemExit(f"no reference for {workload.name} config "
                                 f"{i} ({key}); run perfbench/make_reference.py")
            self.configs.append((self._write(f"config{i}", cfg),
                                 reference[key]["non_informational"],
                                 set(KNOWN_FALSE_FAILS.get(key, {}))))
        self.first_report: dict[str, dict] = {}
        self.verdicts = []       # one per process attempted
        self.failures = []       # (config, reason)

    def _write(self, name: str, config: dict) -> str:
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def repetition(self, tag: str, traced: bool = False) -> dict | None:
        """Run every config of the workload once, in order; None when the
        run's time limit leaves no room for the next process's full cap."""
        procs, spans = [], []
        t0 = time.perf_counter()
        cap = self.workload.process_cap_s
        for i, (cfg_path, expected, known) in enumerate(self.configs):
            if self.remaining() < cap:
                return None
            out = os.path.join(self.work, f"{tag}-{i}.json")
            cli = ["verify", "--config", cfg_path, "--timing", "--out", out,
                   "--seed", str(self.seed)]
            if traced:
                span_path = os.path.join(self.work, f"{tag}-{i}.spans.json")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        span_path, f"{tag}-{i}", *cli]
            else:
                argv = [sys.executable, "-m", "gausscone.cli", *cli]
            proc = run_process(argv, cap, env=self.env, cwd=self.root,
                               stderr_path=out + ".stderr")
            report = load_report(out)
            verdict = judge(proc, report, expected, known)
            if verdict.ok:
                stripped = strip_timing(report)
                first = self.first_report.setdefault(cfg_path, stripped)
                if stripped != first:
                    verdict.ok = False
                    verdict.reason = "report differs from an earlier repetition"
            if not verdict.ok:
                self.failures.append((os.path.basename(cfg_path),
                                      verdict.reason))
            self.verdicts.append(verdict)
            procs.append((proc, verdict))
            if traced and os.path.exists(span_path):
                with open(span_path) as fh:
                    spans.append(json.load(fh))
        wall = time.perf_counter() - t0
        return {
            "wall_s": wall,
            "cpu_s": sum(p.cpu_s for p, _ in procs),
            "setup_s": sum(p.wall_s - v.suite_wall_s for p, v in procs),
            "peak_rss_mb": max(p.peak_rss_mb for p, _ in procs),
            "traces": spans,
        }

    def loop(self, seconds: float) -> list[dict]:
        """Closed loop: repeat until `seconds` have passed and the minimum
        number of repetitions is reached, within the run's time limit."""
        reps = []
        t0 = time.perf_counter()
        while True:
            rep = self.repetition(f"rep{len(reps)}")
            if rep is None:
                break
            reps.append(rep)
            if (len(reps) >= self.workload.min_reps
                    and time.perf_counter() - t0 >= seconds):
                break
        return reps

    def correctness(self) -> dict:
        records = sum(v.records for v in self.verdicts)
        passed = sum(v.passed for v in self.verdicts)
        ok = sum(1 for v in self.verdicts if v.ok)
        return {
            "correct": bool(self.verdicts) and ok == len(self.verdicts),
            "attempted": len(self.verdicts),
            "failed": len(self.verdicts) - ok,
            "checks_passed_frac": passed / records if records else 0.0,
            "runs_ok_frac": ok / len(self.verdicts) if self.verdicts else 0.0,
            "records": records,
            "fails": sorted({t for v in self.verdicts for t in v.fails}),
        }


def _environment() -> dict:
    import importlib.metadata

    import numpy

    env = {"python": sys.version.split()[0]}
    for package in ("numpy", "scipy", "mpmath"):
        env[package] = importlib.metadata.version(package)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["nproc"] = os.cpu_count()
    env.update({v: os.environ.get(v, "unset") for v in THREAD_VARS})
    return env


def _import_times(run: Run) -> dict[str, float]:
    if run.remaining() < IMPORT_CAP_S:
        run.failures.append(("import probe", "no time left in the run"))
        return {}
    err = os.path.join(run.work, "importtime.stderr")
    proc = run_process([sys.executable, "-X", "importtime", "-c",
                        "import gausscone"], IMPORT_CAP_S,
                       env=run.env, cwd=run.root, stderr_path=err)
    if proc.status != "ok" or proc.exit_code != 0:
        run.failures.append(("import probe", proc.status))
        return {}
    with open(err) as fh:
        return parse_importtime(fh.read())


def _print_metric(name, value, unit, detail=""):
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {detail}")


def main(argv=None) -> int:
    args = _args(argv)
    # a terminated benchmark unwinds, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gausscone", "cli.py")):
        print("perfbench: run from the root of a gausscone checkout "
              "(src/gausscone not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    # byte-compile once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src")], check=True,
                   stdout=subprocess.DEVNULL)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench"))
    try:
        run = Run(workload, args.seed, root, work, reference)
        reps = run.loop(args.seconds)
        if not reps:
            print("perfbench: no repetition completed", file=sys.stderr)
            return 1
        metrics = {}
        print(f"workload {workload.name}  seed {args.seed}  "
              f"repetitions {len(reps)}  processes/rep {len(run.configs)}  "
              f"environment {json.dumps(_environment())}")
        if args.trace == 0:
            samples = {name: [r[name] for r in reps]
                       for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
            for name, unit, _ in END_TO_END:
                if name not in samples:
                    continue        # the run-level fractions, added below
                values = samples[name]
                tail = tail_percentile(values)
                detail = (f"median of {len(values)}; spread "
                          f"{relative_spread(values):.3f}"
                          + (f"; p{tail[0]:.0f} {tail[1]:.6g}" if tail else "")
                          + "; " + " ".join(f"{v:.4g}" for v in values))
                metrics[name] = (median(values), unit, detail)
        else:
            untraced = median(r["wall_s"] for r in reps)
            traced = run.repetition("traced", traced=True)
            imports = _import_times(run)
            if traced is None or len(traced["traces"]) != len(run.configs):
                run.failures.append(("traced repetition", "did not finish"))
            else:
                spans = [s for t in traced["traces"]
                         for s in load(t["spans"], t["run"])]
                counters = [t["counters"] for t in traced["traces"]]
                values = per_layer(spans, counters, imports,
                                   traced["wall_s"] - untraced)
                for name, unit, _ in PER_LAYER:
                    metrics[name] = (values[name], unit, "")
        gate = run.correctness()
        if args.trace == 0:
            metrics["checks_passed_frac"] = (
                gate["checks_passed_frac"], "ratio",
                f"{gate['records']} records; FAIL on {gate['fails'] or 'none'}")
            metrics["runs_ok_frac"] = (gate["runs_ok_frac"], "ratio",
                                       f"{gate['attempted']} processes")
        for name, (value, unit, detail) in metrics.items():
            _print_metric(name, value, unit, detail)
        for where, reason in run.failures:
            print(f"  failed: {where}: {reason}")
        correct = gate["correct"] and not run.failures and bool(metrics)
        print(json.dumps({
            "correct": correct,
            "attempted": gate["attempted"],
            "failed": gate["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

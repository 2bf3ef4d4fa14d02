"""The benchmark's own pieces, run from the test suite so that a change in
the package that would break the benchmark fails here first.

* The per-layer benchmark's traced CLI wraps program functions by name
  (`perfbench/traced_cli.py`); running it makes a rename in the package fail
  the test suite rather than the benchmark.
* The benchmark's correctness gate compares each run with
  `perfbench/reference.json`; the configs it runs at seed 0 are run here in
  process against the same reference and the same false-FAIL allowance.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gausscone.config import build_weight, parse_config
from gausscone.report import report_payload, run

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name: str):
    """Import a perfbench module by path, without putting perfbench on the
    import path of the whole test session."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _perfbench_module("harness")
workloads = _perfbench_module("workloads")


def test_every_shipped_config_passes_the_hypothesis_gate():
    # `build_weight` refuses a weight that vanishes inside the open cone;
    # no workload config and no config under configs/ may be refused
    configs = [json.loads(p.read_text()) for p in (ROOT / "configs").glob("*.json")]
    configs += [workloads.PARTIAL_3D, workloads.DUNKL_MC]
    configs += [c for pool in workloads.sweep_pool().values() for c in pool]
    for config in configs:
        build_weight(parse_config(config))


def test_traced_cli_runs_and_writes_spans(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans),
         "tooling", "verify", "--config",
         str(ROOT / "configs" / "gaussian_baseline.json"),
         "--out", str(tmp_path / "report.json")],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    names = {row[1] for row in data["spans"]}
    assert {"spectral.build_galerkin", "spectral.spectral_gap",
            "measures.build_rule", "suites.spectral"} <= names
    assert data["counters"]["rule_cache_entries"] > 0


def _gate_configs() -> list[tuple[str, dict]]:
    """Every config the benchmark runs at seed 0, by workload."""
    replication = json.loads((ROOT / workloads.REPLICATION_CONFIG).read_text())
    configs = [("replication", replication),
               ("partial_3d", workloads.PARTIAL_3D),
               ("dunkl_mc", workloads.DUNKL_MC)]
    configs += [(f"sweep-{i}", config)
                for i, config in enumerate(workloads.sweep_configs(0))]
    return configs


@pytest.mark.parametrize("config", [c for _, c in _gate_configs()],
                         ids=[name for name, _ in _gate_configs()])
def test_benchmark_gate_at_seed_zero(config):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    key = workloads.config_key(config)
    report = report_payload(run(parse_config(dict(config, seed=0))))
    assert (harness.non_informational_counts(report)
            == reference[key]["non_informational"])
    known = set(workloads.KNOWN_FALSE_FAILS.get(key, {}))
    unexpected = [c["theorem"] for s in report["suites"] for c in s["checks"]
                  if not c.get("informational") and not c.get("pass")
                  and not harness.is_known_false_fail(c, known)]
    assert unexpected == []

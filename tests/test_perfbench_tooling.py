"""The per-layer benchmark's traced CLI wraps program functions by name
(`perfbench/traced_cli.py`); running it here makes a rename in the package
fail the test suite rather than the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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

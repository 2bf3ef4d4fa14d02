"""Write perfbench/reference.json: for every config a workload can run, the
number of non-informational records per suite.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Each config runs once per seed of
SEEDS, in this process; the counts must agree across seeds, because the gate
compares them for any seed.  FAIL verdicts are printed so that known false
FAILs can be listed in workloads.KNOWN_FALSE_FAILS.  Regenerate only when a
change adds a workload or deliberately changes which records a suite emits.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from harness import non_informational_counts  # noqa: E402
from workloads import WORKLOADS, config_key, sweep_pool  # noqa: E402

SEEDS = (0, 1, 2)


def all_configs(root: str) -> list[tuple[str, dict]]:
    out = [(name, WORKLOADS[name].configs(0, root)[0])
           for name in ("replication", "partial_3d", "dunkl_mc")]
    for kind, configs in sweep_pool().items():
        out += [(f"sweep/{kind}/{i}", cfg) for i, cfg in enumerate(configs)]
    return out


def main() -> int:
    from gausscone.config import parse_config
    from gausscone.report import report_payload, run

    reference = {}
    for label, cfg in all_configs(os.getcwd()):
        counts = None
        for seed in SEEDS:
            payload = report_payload(run(replace(parse_config(cfg), seed=seed)))
            seen = non_informational_counts(payload)
            if counts is not None and seen != counts:
                raise SystemExit(f"{label}: counts differ between seeds: "
                                 f"{counts} vs {seen}")
            counts = seen
            fails = [c["theorem"] for s in payload["suites"]
                     for c in s["checks"]
                     if not c.get("informational") and not c["pass"]]
            if fails:
                print(f"{label} seed {seed}: FAIL on {fails}")
        reference[config_key(cfg)] = {"label": label,
                                      "non_informational": counts}
        print(f"{label}: {sum(counts.values())} records", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

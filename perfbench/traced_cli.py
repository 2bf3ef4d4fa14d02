"""`gausscone` CLI with spans around the public functions of each module.

    python perfbench/traced_cli.py SPANS_OUT RUN_ID verify --config ... [args]

Runs `gausscone.cli.main` in this process after wrapping the functions
listed in TRACED at every module attribute that binds them (`suites` and
`cli` import their callees by name, `stability`, `functionals` and
`inequalities` bind `nu_integral` at import, `gamma` imports it lazily from
`measures`, which is patched too).  The program's code is not changed.  When
the CLI returns, the spans and the cache counters are written to SPANS_OUT
as JSON and the process exits with the CLI's code.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

TRACED = {
    "config": ["parse_config", "build_weight"],
    "weights": ["make_weight", "_sampled_curvature"],
    "quad1d": ["halfline_recurrence", "fullline_recurrence"],
    "measures": ["make_measure", "partition_function", "nu_integral",
                 "_mc_rule"],
    "functionals": ["hup_deficit"],
    "gamma": ["cd_margin", "integration_by_parts_residual",
              "bochner_residual"],
    "inequalities": ["check_beckner", "check_poincare", "check_scale_poincare",
                     "check_lsi", "check_euclidean_lsi",
                     "check_lsi_equivalence", "check_hup"],
    "stability": ["check_hup_stability", "distance_to_family",
                  "brute_force_lambda_scan"],
    "spectral": ["build_galerkin", "spectral_gap", "semigroup_decay_check",
                 "poisson_solve", "duality_stability_residual"],
    "report": ["run", "emit"],
}


def _rebind(old, new):
    """Point every gausscone module attribute bound to `old` at `new`."""
    for name, module in list(sys.modules.items()):
        if name == "gausscone" or name.startswith("gausscone."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _attrs(**fields):
    """on_exit hook storing attributes computed from the call's result."""
    def hook(span, args, kwargs, result):
        for key, fn in fields.items():
            span.attrs[key] = fn(args, kwargs, result)
    return hook


def install(tracer: Tracer):
    from gausscone import measures, spectral, suites

    hooks = {
        "measures._mc_rule": _attrs(samples=lambda a, k, r: len(r.weights)),
        "stability.distance_to_family":
            _attrs(iterations=lambda a, k, r: r.iterations),
        "spectral.build_galerkin": _attrs(
            basis_size=lambda a, k, r: r.size,
            nodes=lambda a, k, r: len(r.nodes)),
        "report.emit": _attrs(bytes=lambda a, k, r: len(r)),
    }
    for module_name, names in TRACED.items():
        module = sys.modules[f"gausscone.{module_name}"]
        for fn_name in names:
            name = f"{module_name}.{fn_name}"
            old = getattr(module, fn_name)
            _rebind(old, tracer.wrap(old, name, hooks.get(name)))

    # build_rule: record the rule size and whether the call added cache
    # entries, so hits and points evaluated are measured where they happen
    build_rule = measures.build_rule

    def counted_build_rule(*args, **kwargs):
        span = tracer.current
        before = len(measures._RULE_CACHE)
        rule = build_rule(*args, **kwargs)
        span.attrs["nodes"] = len(rule.weights)
        span.attrs["new_entries"] = len(measures._RULE_CACHE) - before
        return rule

    _rebind(build_rule, tracer.wrap(counted_build_rule, "measures.build_rule"))

    for method in ("values", "eigensystem"):
        setattr(spectral.GalerkinSystem, method, tracer.wrap(
            getattr(spectral.GalerkinSystem, method), f"spectral.{method}"))

    for suite, fn in list(suites.SUITES.items()):
        suites.SUITES[suite] = tracer.wrap(fn, f"suites.{suite}")


def counters() -> dict:
    from gausscone import measures, quad1d

    half = quad1d.halfline_rule.cache_info()
    full = quad1d.fullline_rule.cache_info()
    cache = measures._RULE_CACHE
    return {
        "rule_lru_hits": half.hits + full.hits,
        "rule_lru_misses": half.misses + full.misses,
        "rule_cache_entries": len(cache),
        "rule_cache_bytes": sum(r.nodes.nbytes + r.weights.nbytes
                                for r in cache.values()),
    }


def main(argv) -> int:
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import gausscone  # noqa: F401  (loads every module before patching)
    from gausscone import cli

    tracer = Tracer(run_id)
    install(tracer)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"run": run_id, "spans": tracer.dump(),
                       "counters": counters()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer metrics, named `<module>.<metric>`, computed from the spans and
counters of one traced repetition of a workload.

Times are in seconds and sum over the repetition's processes; a span nested
in a span of the same function counts once.  Sizes held in memory (cache
entries and bytes, Galerkin basis and node counts) take the largest value
any one process reached.
"""

from __future__ import annotations

import re

from spans import Span, outermost, self_times, total_time, within

SUITE_NAMES = ("gamma_calculus", "beckner", "poincare", "scale_poincare", "lsi",
               "euclidean_lsi", "lsi_equivalence", "hup", "hup_stability",
               "spectral")
LAYERS = ("config", "weights", "quad1d", "measures", "functionals", "gamma",
          "inequalities", "stability", "spectral", "suites", "report")

# (name, unit, better)
PER_LAYER = [
    ("import.total_s", "s", "lower"),
    ("import.scipy_stats_s", "s", "lower"),
    ("config.parse_config_s", "s", "lower"),
    ("weights.make_weight_s", "s", "lower"),
    ("weights.curvature_sampled", "count", "lower"),
    ("quad1d.rules_built", "count", "lower"),
    ("quad1d.rule_hit_ratio", "ratio", "higher"),
    ("quad1d.recurrence_s", "s", "lower"),
    ("measures.build_rule_calls", "count", "lower"),
    ("measures.build_rule_s", "s", "lower"),
    ("measures.rule_cache_entries", "count", "lower"),
    ("measures.rule_cache_mb", "MB", "lower"),
    ("measures.rule_cache_hit_ratio", "ratio", "higher"),
    ("measures.nu_integral_calls", "count", "lower"),
    ("measures.nu_integral_points", "count", "lower"),
    ("measures.nu_integral_s", "s", "lower"),
    ("measures.mc_samples_drawn", "count", "lower"),
    ("functionals.hup_deficit_s", "s", "lower"),
    ("gamma.cd_margin_s", "s", "lower"),
    ("gamma.integration_by_parts_s", "s", "lower"),
    ("inequalities.check_calls", "count", "lower"),
    ("inequalities.check_s", "s", "lower"),
    ("stability.distance_to_family_calls", "count", "lower"),
    ("stability.distance_to_family_s", "s", "lower"),
    ("stability.brute_force_scan_s", "s", "lower"),
    ("stability.golden_iterations", "count", "lower"),
    ("stability.nu_calls_per_distance", "count", "lower"),
    ("spectral.build_galerkin_calls", "count", "lower"),
    ("spectral.build_galerkin_s", "s", "lower"),
    ("spectral.basis_size", "count", "lower"),
    ("spectral.galerkin_nodes", "count", "lower"),
    ("spectral.eigensystem_s", "s", "lower"),
    ("spectral.values_calls", "count", "lower"),
    ("spectral.values_s", "s", "lower"),
    ("spectral.semigroup_decay_s", "s", "lower"),
    *[(f"suites.{s}_s", "s", "lower") for s in SUITE_NAMES],
    ("report.emit_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
]

_CHECKS = ("inequalities.check_beckner", "inequalities.check_poincare",
           "inequalities.check_scale_poincare", "inequalities.check_lsi",
           "inequalities.check_euclidean_lsi",
           "inequalities.check_lsi_equivalence", "inequalities.check_hup")
_RECURRENCES = ("quad1d.halfline_recurrence", "quad1d.fullline_recurrence")
_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output;
    a module is reported once, where it was first imported."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) not in out:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[Span], counters: list[dict], imports: dict[str, float],
              overhead_s: float) -> dict[str, float]:
    def named(name):
        return [s for s in spans if s.name == name]

    def time_of(*names):
        return total_time(spans, names)

    rules = outermost(spans, "measures.build_rule")
    distances = named("stability.distance_to_family")
    galerkins = named("spectral.build_galerkin")
    lru_hits = sum(c["rule_lru_hits"] for c in counters)
    lru_misses = sum(c["rule_lru_misses"] for c in counters)
    nu_in_distance = within(spans, "measures.nu_integral",
                            "stability.distance_to_family")
    nu_ids = {(s.run, s.id) for s in named("measures.nu_integral")}
    nu_rules = [s for s in named("measures.build_rule")
                if (s.run, s.parent) in nu_ids]
    selfs = self_times(spans)

    values = {
        "import.total_s": imports.get("gausscone", 0.0),
        "import.scipy_stats_s": imports.get("scipy.stats", 0.0),
        "config.parse_config_s": time_of("config.parse_config"),
        "weights.make_weight_s": time_of("weights.make_weight"),
        "weights.curvature_sampled": len(named("weights._sampled_curvature")),
        "quad1d.rules_built": lru_misses,
        "quad1d.rule_hit_ratio": _ratio(lru_hits, lru_hits + lru_misses),
        "quad1d.recurrence_s": time_of(*_RECURRENCES),
        "measures.build_rule_calls": len(named("measures.build_rule")),
        "measures.build_rule_s": time_of("measures.build_rule"),
        "measures.rule_cache_entries": max(
            (c["rule_cache_entries"] for c in counters), default=0),
        "measures.rule_cache_mb": max(
            (c["rule_cache_bytes"] for c in counters), default=0) / 2 ** 20,
        "measures.rule_cache_hit_ratio": _ratio(
            sum(1 for s in rules if s.attrs.get("new_entries") == 0),
            len(rules)),
        "measures.nu_integral_calls": len(named("measures.nu_integral")),
        "measures.nu_integral_points": sum(s.attrs["nodes"] for s in nu_rules),
        "measures.nu_integral_s": time_of("measures.nu_integral"),
        "measures.mc_samples_drawn": sum(
            s.attrs["samples"] for s in named("measures._mc_rule")),
        "functionals.hup_deficit_s": time_of("functionals.hup_deficit"),
        "gamma.cd_margin_s": time_of("gamma.cd_margin"),
        "gamma.integration_by_parts_s":
            time_of("gamma.integration_by_parts_residual"),
        "inequalities.check_calls": sum(len(named(n)) for n in _CHECKS),
        "inequalities.check_s": time_of(*_CHECKS),
        "stability.distance_to_family_calls": len(distances),
        "stability.distance_to_family_s":
            time_of("stability.distance_to_family"),
        "stability.brute_force_scan_s":
            time_of("stability.brute_force_lambda_scan"),
        "stability.golden_iterations": sum(
            s.attrs["iterations"] for s in distances),
        "stability.nu_calls_per_distance": _ratio(len(nu_in_distance),
                                                  len(distances)),
        "spectral.build_galerkin_calls": len(galerkins),
        "spectral.build_galerkin_s": time_of("spectral.build_galerkin"),
        "spectral.basis_size": max(
            (s.attrs["basis_size"] for s in galerkins), default=0),
        "spectral.galerkin_nodes": max(
            (s.attrs["nodes"] for s in galerkins), default=0),
        "spectral.eigensystem_s": time_of("spectral.eigensystem"),
        "spectral.values_calls": len(named("spectral.values")),
        "spectral.values_s": time_of("spectral.values"),
        "spectral.semigroup_decay_s": time_of("spectral.semigroup_decay_check"),
        "report.emit_s": time_of("report.emit"),
        "report.bytes": sum(s.attrs["bytes"] for s in named("report.emit")),
        "trace.overhead_s": overhead_s,
    }
    for suite in SUITE_NAMES:
        values[f"suites.{suite}_s"] = time_of(f"suites.{suite}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return {name: float(values[name]) for name, _, _ in PER_LAYER}

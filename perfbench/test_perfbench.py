"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import (  # noqa: E402
    ProcessResult,
    is_known_false_fail,
    judge,
    median,
    relative_spread,
    run_process,
    strip_timing,
    tail_percentile,
)
from perlayer import PER_LAYER, parse_importtime, per_layer  # noqa: E402
from spans import Span, Tracer, outermost, self_times, total_time  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_FALSE_FAILS,
    WORKLOADS,
    config_key,
    sweep_configs,
    sweep_pool,
)


def _span(id, name, start, end, parent=None, run="r"):
    return Span(id, name, start, end, parent, run)


# -- spans -----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "suites.hup", 0.0, 10.0),
        _span(1, "functionals.hup_deficit", 1.0, 3.0, parent=0),
        _span(2, "functionals.hup_deficit", 4.0, 8.0, parent=0),
        _span(3, "measures.nu_integral", 5.0, 6.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs["suites"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs["functionals"] == pytest.approx(2.0 + (4.0 - 1.0))
    assert selfs["measures"] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_spans_of_different_runs_do_not_mix():
    spans = [_span(0, "suites.lsi", 0.0, 4.0, run="a"),
             _span(1, "measures.nu_integral", 1.0, 2.0, parent=0, run="a"),
             _span(0, "suites.lsi", 0.0, 3.0, run="b")]
    assert self_times(spans) == pytest.approx({"suites": 3.0 + 3.0,
                                               "measures": 1.0})


def test_recursive_calls_count_once_in_totals():
    spans = [
        _span(0, "measures.build_rule", 0.0, 5.0),
        _span(1, "measures.build_rule", 1.0, 4.0, parent=0),
        _span(2, "measures.build_rule", 6.0, 7.0),
    ]
    assert [s.id for s in outermost(spans, "measures.build_rule")] == [0, 2]
    assert total_time(spans, ["measures.build_rule"]) == pytest.approx(6.0)


def test_tracer_records_nesting_and_attributes():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "m.inner",
                               lambda span, a, k, r: span.attrs.update(r=r))
    outer = tracer.wrap(lambda x: traced_inner(x) * 2, "m.outer")
    assert outer(3) == 8
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["m.inner"].parent == by_name["m.outer"].id
    assert by_name["m.inner"].attrs == {"r": 4}
    assert by_name["m.outer"].end >= by_name["m.inner"].end


def test_per_layer_reports_every_listed_metric():
    spans = [_span(0, "suites.hup", 0.0, 2.0),
             _span(1, "measures.nu_integral", 0.5, 1.0, parent=0),
             _span(2, "measures.build_rule", 0.6, 0.7, parent=1)]
    spans[2].attrs.update(nodes=1024, new_entries=0)
    counters = [{"rule_lru_hits": 3, "rule_lru_misses": 1,
                 "rule_cache_entries": 2, "rule_cache_bytes": 2 ** 20}]
    values = per_layer(spans, counters, {"gausscone": 1.5}, 0.25)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["measures.nu_integral_points"] == 1024
    assert values["quad1d.rule_hit_ratio"] == pytest.approx(0.75)
    assert values["measures.rule_cache_hit_ratio"] == 1.0
    assert values["measures.rule_cache_mb"] == 1.0
    assert values["suites.hup_s"] == pytest.approx(2.0)
    assert values["suites.self_s"] == pytest.approx(1.5)
    assert values["import.total_s"] == 1.5
    assert values["trace.overhead_s"] == 0.25


def test_parse_importtime_takes_cumulative_microseconds():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        480 |     scipy.stats\n"
            "import time:       100 |       1250 | gausscone\n")
    times = parse_importtime(text)
    assert times == pytest.approx({"scipy.stats": 480e-6, "gausscone": 1250e-6})


# -- statistics ------------------------------------------------------------

def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 21))          # 20 samples
    p, value = tail_percentile(values)
    assert (p, value) == (50.0, 10.0)
    assert sum(v > value for v in values) == 10
    assert tail_percentile(list(range(10))) is None
    p, value = tail_percentile(list(range(100)))
    assert (p, value) == (90.0, 89.0)


def test_relative_spread_is_interquartile_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    assert relative_spread(values) == pytest.approx((10.5 - 9.5) / 10.0)
    assert relative_spread([5.0]) == 0.0


# -- workloads -------------------------------------------------------------

def test_sweep_generation_is_deterministic_and_seeded():
    assert sweep_configs(7) == sweep_configs(7)
    assert any(sweep_configs(s) != sweep_configs(0) for s in range(1, 5))


def test_sweep_mixes_weight_kinds_dimensions_and_exponents():
    configs = sweep_configs(0)
    assert {c["weight"]["kind"] for c in configs} == {
        "monomial", "radial", "gaussian_tilt", "partial_product", "dunkl"}
    assert {c["dim"] for c in configs} == {1, 2, 3}
    # every seed runs the same kinds and dims; only the exponents move
    shape = [(c["weight"]["kind"], c["dim"]) for c in configs]
    for seed in range(1, 20):
        assert [(c["weight"]["kind"], c["dim"])
                for c in sweep_configs(seed)] == shape
    seen = {config_key(c) for seed in range(20) for c in sweep_configs(seed)}
    assert len(seen) > 2 * len(configs)


def test_every_generated_config_parses():
    from gausscone.config import parse_config

    for configs in sweep_pool().values():
        for cfg in configs:
            parse_config(cfg)
    for seed in range(10):
        for cfg in sweep_configs(seed):
            assert "hup_stability" not in cfg["suites"]
            assert "spectral" not in cfg["suites"]
            parse_config(cfg)


def test_every_workload_config_has_a_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    keys = {config_key(c) for cs in sweep_pool().values() for c in cs}
    for name, workload in WORKLOADS.items():
        if name != "sweep":
            keys.add(config_key(workload.configs(0, ROOT)[0]))
    assert keys <= set(reference)


def test_known_false_fails_name_configs_a_workload_runs():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    assert KNOWN_FALSE_FAILS and set(KNOWN_FALSE_FAILS) <= set(reference)


def test_benchmark_json_matches_the_code():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == PER_LAYER


# -- process control and the gate -----------------------------------------

def test_timeout_kills_the_child_and_reports_it():
    t0 = time.perf_counter()
    result = run_process(["sleep", "30"], cap_s=0.3)
    assert result.status == "timeout"
    assert 0.3 <= result.wall_s < 5.0
    assert time.perf_counter() - t0 < 5.0


def test_no_process_starts_without_room_for_its_cap(tmp_path):
    import run

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    bench = run.Run(WORKLOADS["dunkl_mc"], 0, ROOT, str(tmp_path), reference)
    cap = WORKLOADS["dunkl_mc"].process_cap_s
    bench.started = time.perf_counter() - run.RUN_LIMIT_S + cap / 2
    assert bench.repetition("rep0") is None
    assert bench.verdicts == []


def test_exit_codes_are_classified():
    assert run_process(["true"], cap_s=10).status == "ok"
    result = run_process(["sh", "-c", "exit 3"], cap_s=10)
    assert (result.status, result.exit_code) == ("exit3", 3)
    result = run_process(["sh", "-c", "kill -9 $$"], cap_s=10)
    assert (result.status, result.exit_code) == ("crash", None)


def _report(passes, informational=(), wall=0.5):
    checks = [{"theorem": t, "pass": p, "informational": False}
              for t, p in passes]
    checks += [{"theorem": t, "pass": True, "informational": True}
               for t in informational]
    return {"pass": all(p for _, p in passes),
            "suites": [{"name": "lsi", "checks": checks, "wall_time_s": wall,
                        "pass": all(p for _, p in passes)}]}


def _proc(code):
    return ProcessResult("ok", code, 1.0, 1.0, 100.0)


def test_gate_requires_exit_code_to_match_pass():
    report = _report([("lsi", True), ("lsi", True)], ["lsi"])
    assert judge(_proc(0), report, {"lsi": 2}, set()).ok
    verdict = judge(_proc(1), report, {"lsi": 2}, set())
    assert not verdict.ok and "disagrees" in verdict.reason


def test_gate_checks_record_counts_and_unknown_fails():
    report = _report([("lsi", True), ("integration_by_parts", False)])
    assert not judge(_proc(1), report, {"lsi": 3}, set()).ok
    assert not judge(_proc(1), report, {"lsi": 2}, set()).ok
    verdict = judge(_proc(1), report, {"lsi": 2}, {"integration_by_parts"})
    assert verdict.ok
    assert (verdict.records, verdict.passed) == (2, 1)
    assert verdict.suite_wall_s == 0.5


def _bochner(ratios):
    return {"theorem": "bochner_convergence", "pass": False,
            "informational": False, "ratios": ratios}


def test_one_point_bochner_flake_is_the_only_bochner_fail_accepted():
    assert is_known_false_fail(_bochner([4.0] * 9 + [6.8]), set())
    assert not is_known_false_fail(_bochner([4.0] * 8 + [6.8, 3.2]), set())
    assert not is_known_false_fail(_bochner([4.0] * 3 + [6.8]), set())
    assert not is_known_false_fail(_bochner([2.0] * 10), set())
    lsi = {"theorem": "lsi", "pass": False, "informational": False}
    assert not is_known_false_fail(lsi, {"integration_by_parts"})
    assert is_known_false_fail(lsi, {"lsi"})


def test_gate_rejects_failed_processes_and_missing_reports():
    timeout = ProcessResult("timeout", None, 9.0, 0.0, 0.0)
    assert judge(timeout, None, {}, set()).reason == "timeout"
    assert judge(_proc(0), None, {}, set()).reason == "no report"


def test_strip_timing_drops_only_wall_times():
    a = _report([("lsi", True)], wall=0.1)
    b = _report([("lsi", True)], wall=0.9)
    assert a != b
    assert strip_timing(a) == strip_timing(b)

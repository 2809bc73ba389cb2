"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import metrics
import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class TestTailPercentile:
    def test_eleventh_largest_with_ten_beyond(self):
        value, pct, beyond = metrics.tail_latency(list(range(100, 0, -1)))
        assert (value, pct, beyond) == (90, 90.0, 10)

    def test_smallest_qualifying_sample_count(self):
        value, pct, beyond = metrics.tail_latency([float(i) for i in range(11)])
        assert (value, beyond) == (0.0, 10)
        assert pct == pytest.approx(100 / 11)

    def test_too_few_samples_reports_maximum_and_nothing_beyond(self):
        assert metrics.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)

    def test_quartile_spread(self):
        assert metrics.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
        assert metrics.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(
            (11.5 - 8.5) / 10)


class TestSpanArithmetic:
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    SPANS = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["a1", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]

    def test_self_time_subtracts_children(self):
        assert tracing.self_times(self.SPANS) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_add_up_to_root_duration(self):
        assert sum(tracing.self_times(self.SPANS)) == 10.0

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0],
                 ["d", 3.0, 7.0, 0], ["e", 9.0, 12.0, 0]]
        # union of children inside p: [1, 7] and [9, 10]
        assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 1.0

    def test_busy_time_counts_outermost_span_of_a_name(self):
        spans = [["build", 0.0, 4.0, -1], ["build", 1.0, 3.0, 0],
                 ["other", 5.0, 6.0, -1]]
        totals = tracing.layer_totals(spans)
        assert totals["build"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


class TestWrappers:
    def test_names_bound_at_import_are_wrapped_everywhere(self):
        import stalab
        from stalab import cli, oracle, phase
        original = phase.total_phase
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = phase.total_phase
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
            assert stalab.total_phase is wrapped
            assert cli.total_phase is wrapped
            assert oracle.total_phase is wrapped
            p = stalab.PhysicalParams.rubidium87()
            t0 = time.perf_counter()
            with tracer.span(tracing.ITEM_SPAN):
                stalab.total_phase(stalab.build_mach_zehnder(p, "0.0931"))
            item_time = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        assert phase.total_phase is original
        assert stalab.total_phase is original and cli.total_phase is original
        names = {span[0] for span in tracer.spans}
        assert {"sequence.build", "phase.total_phase",
                "kinematics.integrate_arm", "sequence.symmetry_class",
                "kinematics.PathDifference.moment_poly_exact"} <= names
        values, acct = tracing.layer_metrics(tracer, 1, 0.0, item_time)
        assert 0.0 <= acct["residual_s"] <= run.TRACE_SLACK_S
        assert values["phase.total_phase.calls"] == 1
        assert values["kinematics.path_difference.cache_misses"] == 1
        assert values["kinematics.pieces_merged"] == 2

    def test_trig_pairs_follow_the_series_switch(self):
        import stalab
        p = stalab.PhysicalParams.rubidium87()
        pd = stalab.path_difference(stalab.build_mach_zehnder(p, "0.1"))
        # pieces [-0.1, 0] and [0, 0.1]: max|t| = 0.1, switch at omega = 5
        assert tracing.classify_trig([(pd, 4.0), (pd, 6.0), (pd, 0.0)]) \
            == (2, 2)


class TestFailures:
    @pytest.fixture(scope="class")
    def sweep(self):
        wl = workloads.PhaseSweep(7, ROOT)
        return wl, wl.make_item("mz", {})

    def test_correct_output_passes(self, sweep):
        wl, item = sweep
        assert wl.check(item, wl.run(item))

    def test_wrong_output_counts_as_failed(self, sweep):
        wl, item = sweep
        bd, area, astar = wl.run(item)
        wrong = dataclasses.replace(bd, inertial=bd.inertial * (1 + 1e-9))
        records = [(item, (bd, area, astar), False),
                   (item, (wrong, area, astar), False),
                   (item, None, True)]
        assert run.count_failed(wl, records) == 2

    def test_nonzero_vanishing_quadrature_fails(self):
        wl = workloads.ResponseSweep(7, ROOT)
        item = wl.make_item("mz", {"points": 50})
        tf = wl.run(item)
        assert wl.check(item, tf)
        area_sin = tf.area_sin.copy()
        area_sin[3, 2] = 1e-30
        assert not wl.check(item, dataclasses.replace(tf, area_sin=area_sin))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phase-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

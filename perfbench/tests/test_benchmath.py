"""Tests for the benchmark's arithmetic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchmath  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent=-1, items=1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "request": 1, "items": items}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = [4, 1, 3, 2, 5]
        self.assertEqual(benchmath.percentile(values, 0), 1)
        self.assertEqual(benchmath.percentile(values, 50), 3)
        self.assertEqual(benchmath.percentile(values, 100), 5)
        self.assertAlmostEqual(benchmath.percentile(values, 90), 4.6)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchmath.percentile([], 50)


class TailPercentileTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(benchmath.samples_beyond(100, 90), 10)
        self.assertEqual(benchmath.samples_beyond(99, 90), 9)
        self.assertEqual(benchmath.samples_beyond(1000, 99), 10)
        self.assertEqual(benchmath.samples_beyond(10000, 99.9), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(benchmath.tail_percentile(99))
        self.assertEqual(benchmath.tail_percentile(100), 90.0)
        self.assertEqual(benchmath.tail_percentile(999), 90.0)
        self.assertEqual(benchmath.tail_percentile(1000), 99.0)
        self.assertEqual(benchmath.tail_percentile(9999), 99.0)
        self.assertEqual(benchmath.tail_percentile(10000), 99.9)

    def test_latency_tail_choice(self):
        # The end-to-end tail: p90 where it has 10 samples beyond it, else
        # the median where that has, else nothing.
        def choose(n):
            return benchmath.tail_percentile(n, candidates=(90.0, 50.0))
        self.assertEqual(choose(440), 90.0)
        self.assertEqual(choose(100), 90.0)
        self.assertEqual(choose(99), 50.0)
        self.assertEqual(choose(20), 50.0)
        self.assertIsNone(choose(19))

    def test_candidates_and_threshold_are_parameters(self):
        self.assertEqual(
            benchmath.tail_percentile(20, candidates=(50, 90)), 50)
        self.assertEqual(
            benchmath.tail_percentile(20, candidates=(50, 90), min_beyond=2),
            90)


class BlockedStatisticsTest(unittest.TestCase):
    def test_blocks_are_consecutive_and_large_enough(self):
        samples = list(range(250))
        parts = benchmath.blocks(samples, size=100)
        self.assertEqual(len(parts), 2)
        self.assertEqual(sum(parts, []), samples)
        self.assertTrue(all(len(p) >= 100 for p in parts))
        self.assertEqual(benchmath.blocks(samples[:99], size=100),
                         [samples[:99]])

    def test_a_slow_stretch_moves_only_its_block(self):
        fast = [10.0] * 100
        slow = [16.0] * 100
        samples = fast + slow + fast
        self.assertEqual(benchmath.blocked_percentile(samples, 90), 10.0)
        self.assertEqual(benchmath.blocked_percentile(samples, 50), 10.0)
        # The pooled p90 lands in the slow stretch.
        self.assertEqual(benchmath.percentile(samples, 90), 16.0)

    def test_median_rate(self):
        self.assertEqual(
            benchmath.median_rate([100, 100, 100], [1.0, 2.0, 4.0]), 50.0)
        with self.assertRaises(ValueError):
            benchmath.median_rate([1], [1.0, 2.0])


class FailedRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchmath.failed_ratio(8, 0), 0.0)
        self.assertEqual(benchmath.failed_ratio(8, 2), 0.25)
        self.assertEqual(benchmath.failed_ratio(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (2, 3), (2, -1)):
            with self.assertRaises(ValueError):
                benchmath.failed_ratio(attempted, failed)


class HostGaugeTest(unittest.TestCase):
    def test_bracket_is_the_mean_of_the_readings_around(self):
        gauge = [0.010, 0.020, 0.030]
        self.assertAlmostEqual(benchmath.bracket_gauge(gauge, 0), 0.015)
        self.assertAlmostEqual(benchmath.bracket_gauge(gauge, 1), 0.025)
        self.assertAlmostEqual(benchmath.bracket_gauge(gauge, 2), 0.030)

    def test_a_slow_host_is_scaled_back_to_the_reference(self):
        ref = benchmath.HOST_GAUGE_REF_S
        gauge = [ref, ref, 2 * ref, 2 * ref]
        self.assertEqual(
            benchmath.normalize([5.0, 10.0, 10.0], [0, 2, 3], gauge),
            [5.0, 5.0, 5.0])

    def test_needs_an_index_per_value(self):
        with self.assertRaises(ValueError):
            benchmath.normalize([1.0, 2.0], [0], [0.01])


class EndToEndTest(unittest.TestCase):
    REF = benchmath.HOST_GAUGE_REF_S
    RAW = {"setup_s": [0.5, 0.4, 0.6], "peak_rss_mb": 20.0, "iter_ops": [1.0] * 30, "iter_s": [0.1] * 30,
           "iter_gauge": [0] * 30, "gauge_s": [REF], "cost_count": 4}

    def test_timings_scale_with_the_gauge(self):
        raw = dict(self.RAW, gauge_s=[2 * self.REF],
                   latency_ms=[float(i) for i in range(1, 101)],
                   latency_gauge=[0] * 100, attempted=30, failed=0)
        norm = run.end_to_end(raw)
        wall = run.end_to_end(raw, normalized=False)
        self.assertAlmostEqual(norm["setup_s"], 0.25)
        self.assertAlmostEqual(wall["setup_s"], 0.5)
        self.assertAlmostEqual(norm["throughput_per_s"], 20.0)
        self.assertAlmostEqual(wall["throughput_per_s"], 10.0)
        self.assertAlmostEqual(norm["latency_ms_p50"], 25.25)
        self.assertAlmostEqual(wall["latency_ms_p50"], 50.5)

    def test_every_session_failed_still_reports_failures(self):
        raw = dict(self.RAW, latency_ms=[], latency_gauge=[], attempted=30,
                   failed=30)
        metrics = run.end_to_end(raw)
        self.assertEqual(metrics["ok_ratio"], 0.0)
        self.assertEqual(metrics["setup_s"], 0.5)
        self.assertIsNone(metrics["latency_ms_p50"])
        self.assertIsNone(metrics["latency_ms_tail"])

    def test_enough_samples_give_latency(self):
        raw = dict(self.RAW, latency_ms=[float(i) for i in range(1, 101)],
                   latency_gauge=[0] * 100, attempted=30, failed=0)
        metrics = run.end_to_end(raw)
        self.assertEqual(metrics["ok_ratio"], 1.0)
        self.assertAlmostEqual(metrics["latency_ms_p50"], 50.5)
        self.assertAlmostEqual(metrics["latency_ms_tail"], 90.1)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(benchmath.self_times([span("a", 10, 30)]), [20])

    def test_back_to_back_children(self):
        spans = [span("wave", 0, 100),
                 span("send", 10, 30, parent=0),
                 span("send", 30, 60, parent=0)]
        self.assertEqual(benchmath.self_times(spans), [50, 20, 30])

    def test_nested_children(self):
        # wave > shim > port: each level subtracts only its direct children.
        spans = [span("wave", 0, 100),
                 span("shim", 10, 60, parent=0),
                 span("port", 20, 50, parent=1)]
        self.assertEqual(benchmath.self_times(spans), [50, 20, 30])

    def test_overlapping_children_count_once(self):
        # Children measured on other threads may overlap in time.
        spans = [span("batch", 0, 100),
                 span("t1", 10, 60, parent=0),
                 span("t2", 40, 80, parent=0)]
        self.assertEqual(benchmath.self_times(spans)[0], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("a", 10, 20), span("b", 15, 40, parent=0)]
        self.assertEqual(benchmath.self_times(spans)[0], 5)

    def test_layer_costs_sum_self_time_and_items(self):
        spans = [span("wave", 0, 100),
                 span("send", 10, 30, parent=0, items=2),
                 span("send", 30, 60, parent=0, items=3)]
        costs = benchmath.layer_costs(spans)
        self.assertEqual(costs["send"], (50, 5))
        self.assertEqual(costs["wave"], (50, 1))


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchmath.spread(values), (q3 - q1) / median)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchmath.spread([4, 4, 4, 4]), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchmath.worse_by(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(benchmath.worse_by(100, 110, "higher"), -0.1)
        self.assertAlmostEqual(benchmath.worse_by(100, 80, "higher"), 0.2)


class SteadinessTest(unittest.TestCase):
    METRICS = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ]

    def test_steady_runs_pass(self):
        runs = [{"setup_s": 1.0 + 0.01 * i, "throughput_per_s": 100 + i}
                for i in range(10)]
        verdicts = benchmath.steadiness(runs, self.METRICS)
        self.assertTrue(all(ok for _, _, ok in verdicts.values()))

    def test_wide_spread_fails_setup_included(self):
        runs = [{"setup_s": float(i + 1), "throughput_per_s": 50.0 * (i + 1)}
                for i in range(10)]
        verdicts = benchmath.steadiness(runs, self.METRICS)
        self.assertFalse(verdicts["setup_s"][2])
        self.assertFalse(verdicts["throughput_per_s"][2])
        self.assertGreater(verdicts["throughput_per_s"][0], 0.1)


class ContextTest(unittest.TestCase):
    BASE = {"workload": "fleet-packet", "seconds": 20, "obs_level": 2,
            "build_type": "RelWithDebInfo", "nproc": 4, "workers": 4,
            "traced": False, "source_sha": "aa", "git_sha": "x", "seed": 1}

    def test_seeds_may_differ(self):
        other = dict(self.BASE, seed=2)
        self.assertEqual(
            benchmath.context_mismatch(self.BASE, other, same_code=True), [])

    def test_different_code_needs_same_build_and_host(self):
        other = dict(self.BASE, source_sha="bb", git_sha="y")
        self.assertEqual(
            benchmath.context_mismatch(self.BASE, other, same_code=False), [])
        self.assertEqual(
            benchmath.context_mismatch(self.BASE, other, same_code=True),
            ["source_sha"])
        other = dict(other, obs_level=0, workers=2)
        self.assertEqual(
            benchmath.context_mismatch(self.BASE, other, same_code=False),
            ["obs_level", "workers"])


class BenchmarkSpecTest(unittest.TestCase):
    """BENCHMARK.json and metrics.json describe the same metrics."""

    def test_every_per_layer_metric_has_a_mapping(self):
        root = HERE.parent.parent
        bench = json.loads((root / "BENCHMARK.json").read_text())
        meta = json.loads((HERE.parent / "metrics.json").read_text())
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(meta["per_layer"]))
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(meta["workloads"]))
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertFalse(math.isnan(m["bound"]))


if __name__ == "__main__":
    unittest.main()

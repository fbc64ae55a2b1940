#!/usr/bin/env python3
"""Self-tests for the replay benchmark's own statistics and BENCHMARK.json.

    python3 perfbench/test_perfbench.py            # fast: no build
    PERFBENCH_RUN=1 python3 perfbench/test_perfbench.py   # also runs it

The fast tests cover the median, quartiles and tail rule, the shape of
BENCHMARK.json, and that run.py computes exactly the metric names
BENCHMARK.json lists for every workload. With PERFBENCH_RUN=1 they also
build and run every workload briefly, check the printed names, and check
that a wrong pinned digest and an injected failing test are reported as
failures while a clean run reports none.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        for values in ([3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0, 9.0],
                       [float(x * x % 17) for x in range(1, 40)]):
            self.assertEqual(stats.median(values), statistics.median(values))
            self.assertEqual(list(stats.quartiles(values)),
                             statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1250), 99)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(999), 98)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))
        for n in (20, 33, 40, 99, 100, 101, 640, 999, 1000, 1250, 5000):
            values = [float(i) for i in range(n)]
            p, value = stats.tail(values)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10, n)
            # One percentile higher would leave fewer than ten beyond.
            if p < 99:
                above = stats.percentile(values, p + 1)
                self.assertLess(sum(1 for v in values if v > above), 10, n)

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 99), 99.0)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_tail_without_enough_samples_is_the_maximum(self):
        self.assertEqual(stats.tail([1.0, 5.0, 2.0]), (None, 5.0))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertIsInstance(bench["run_seconds"], int)
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_run_computes_every_listed_metric(self):
        bench = load_benchmark()
        e2e_names = [m["name"] for m in bench["end_to_end"]]
        layer_names = [m["name"] for m in bench["per_layer"]]
        for workload in run.WORKLOADS:
            result = fake_result(workload)
            e2e, _ = run.end_to_end(result, result["phases"][0])
            self.assertEqual(list(e2e), e2e_names, workload)
            layers, closure = run.per_layer(result, result["phases"][0], result["phases"][1])
            self.assertEqual(list(layers), layer_names, workload)
            for name, m in list(e2e.items()) + list(layers.items()):
                self.assertEqual(set(m), {"value", "unit"}, name)
                self.assertIsInstance(m["value"], (int, float), name)
            for name, m in e2e.items():
                self.assertGreater(m["value"], 0, (workload, name))
            self.assertIn("rows", closure)


def fake_unit(workload, i):
    base = {"wall_s": 1.0 + 0.1 * i, "cpu_s": 3.0, "peak_rss_mb": 50.0, "sim_s": 100.0,
            "packages": 1000, "bunches": 500, "events": 4000, "late": 0,
            "power_samples": 100}
    if workload == "stream":
        base.update(replay_call_s=0.9, cache_hits=10, cache_misses=2, tier_hits=5,
                    spin_ups=3)
    else:
        base.update(tests=10, test_ms=[1.0 + j for j in range(10)], test_busy_s=2.5,
                    filter_s=0.01, replay_s=2.0, measure_s=0.01, generate_s=0.0,
                    checkpoint_writes=10, frames_sent=30, journal_bytes=2900,
                    coord_cpu_s=0.1, leases_granted=2, records_merged=10,
                    load_err_pct=5.0)
    return base


def fake_result(workload):
    n = 3
    phases = [{"traced": t, "wall_s": 2.0 * n,
               "units": [fake_unit(workload, i) for i in range(n)]}
              for t in (False, True)]
    phases[1]["spans"] = {"replay.run": {"total_s": 2.0, "self_s": 2.0, "count": n}}
    result = {"workload": workload, "threads": 4, "workers": 3 if workload == "fleet" else 4,
              "setup_s": [0.2, 0.3, 0.25], "phases": phases}
    if workload == "stream":
        result.update(setup_convert_s=[0.01, 0.02], trace_file_mb=1.2)
        phases[1]["decode_s"] = [0.001, 0.002]
    else:
        result.update(setup_generate_s=[0.5, 0.6], requests_generated=1000,
                      peak_bunches=5000)
    return result


@unittest.skipUnless(os.environ.get("PERFBENCH_RUN") == "1", "set PERFBENCH_RUN=1 to build and run")
class RunTest(unittest.TestCase):
    def run_bench(self, *args):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_name_is_printed(self):
        bench = load_benchmark()
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                out, last = self.run_bench("--workload", workload, "--seconds", "1",
                                           "--trace", trace)
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"], out)
                self.assertEqual(last["failed"], 0)
                self.assertEqual(list(last["metrics"]), [m["name"] for m in bench[key]])
                for m in bench[key]:
                    self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertIn(m["name"], out.rsplit("\n", 2)[0])

    def test_wrong_digest_and_injected_failure_are_reported(self):
        for workload in run.WORKLOADS:
            _, wrong = self.run_bench("--workload", workload, "--seconds", "1",
                                      "--expect-digest", "0000000000000000")
            self.assertFalse(wrong["correct"])
            self.assertEqual(wrong["failed"], wrong["attempted"])
            _, injected = self.run_bench("--workload", workload, "--seconds", "1",
                                         "--inject-fail", "1")
            self.assertFalse(injected["correct"])
            self.assertGreater(injected["failed"], 0)


if __name__ == "__main__":
    unittest.main()

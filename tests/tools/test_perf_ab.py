#!/usr/bin/env python3
"""The perf_ab.py gate and claim rules on committed BENCH_*.json samples.

Builds and times nothing: each recorded sample becomes one perfbench
result, and the tests run tools/perf_ab.py's comparisons on them.
Registered as the ctest test `perf_ab_rule`.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "tools"))
# Keep the source tree free of __pycache__ when ctest runs this.
sys.dont_write_bytecode = True

import perf_ab  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]
with open(os.path.join(ROOT, "BENCH_pr15.json")) as f:
    RECORDED = json.load(f)["end_to_end"]
with open(os.path.join(ROOT, "BENCH_pr19.json")) as f:
    CLAIMED = json.load(f)["end_to_end"]


def runs_of(workload, recorded=RECORDED):
    """The recorded samples of @p workload as perfbench results."""
    metrics = recorded[workload]["metrics"]
    runs = {}
    for side in perf_ab.SIDES:
        count = len(next(iter(metrics.values()))[side])
        runs[side] = [
            {"correct": True, "attempted": 100, "failed": 0,
             "metrics": {name: {"value": m[side][i]}
                         for name, m in metrics.items()}}
            for i in range(count)]
    return runs


class GateRule(unittest.TestCase):

    def test_recorded_samples_pass(self):
        for workload in RECORDED:
            with self.subTest(workload=workload):
                self.assertEqual(
                    perf_ab.gate(END_TO_END, runs_of(workload)), ([], []))

    def test_summary_reproduces_the_recorded_quartiles(self):
        for workload, entry in RECORDED.items():
            summary = perf_ab.summarize(END_TO_END, runs_of(workload))
            for name, recorded in entry["metrics"].items():
                for key in ("parent_median", "parent_q1", "parent_q3",
                            "change_median", "change_q1", "change_q3"):
                    with self.subTest(workload=workload, metric=name,
                                      key=key):
                        self.assertAlmostEqual(summary[name][key],
                                               recorded[key], places=5)

    def test_swapped_wall_time_fails(self):
        runs = runs_of("train-deep")
        for parent, change in zip(runs["parent"], runs["change"]):
            parent["metrics"]["wall_s"], change["metrics"]["wall_s"] = \
                change["metrics"]["wall_s"], parent["metrics"]["wall_s"]
        failures, unresolved = perf_ab.gate(END_TO_END, runs)
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(failures[0].startswith("wall_s:"), failures)
        self.assertEqual(unresolved, [])

    def test_an_incorrect_change_run_fails(self):
        runs = runs_of("serve-stream")
        runs["change"][2]["correct"] = False
        failures, _ = perf_ab.gate(END_TO_END, runs)
        self.assertEqual(failures, ["1 change run(s) not correct"])

    def test_more_failed_operations_fail(self):
        runs = runs_of("zoo-sweep")
        runs["change"][0]["failed"] = 1
        failures, _ = perf_ab.gate(END_TO_END, runs)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("larger share of operations", failures[0])
        # The same failure on the parent side does not count against
        # the change.
        runs["parent"][0]["failed"] = 1
        self.assertEqual(perf_ab.gate(END_TO_END, runs), ([], []))

    def test_a_worsening_within_the_parent_spread_is_unresolved(self):
        spec = [{"name": "wall_s", "unit": "s", "better": "lower",
                 "bound": 0.25}]

        def runs(parent, change):
            return {side: [{"correct": True, "attempted": 1,
                            "failed": 0,
                            "metrics": {"wall_s": {"value": v}}}
                           for v in values]
                    for side, values in (("parent", parent),
                                         ("change", change))}

        # Median 1.0 -> 1.3 is 30% worse, but the parent's quartiles
        # span 0.6 and the runs overlap.
        noisy = runs([0.4, 0.7, 1.0, 1.3, 1.6], [0.9, 1.1, 1.3, 1.5, 1.7])
        failures, unresolved = perf_ab.gate(spec, noisy)
        self.assertEqual(failures, [])
        self.assertEqual(len(unresolved), 1, unresolved)
        self.assertTrue(unresolved[0].startswith("wall_s:"), unresolved)
        # The same medians with every change run worse than every
        # parent run fail.
        apart = runs([0.4, 0.7, 1.0, 1.03, 1.06],
                     [1.1, 1.2, 1.3, 1.4, 1.5])
        self.assertEqual(len(perf_ab.gate(spec, apart)[0]), 1)
        # So does a worsening larger than the parent's spread.
        tight = runs([0.9, 0.95, 1.0, 1.05, 1.1], [0.9, 1.2, 1.3, 1.4, 1.6])
        self.assertEqual(len(perf_ab.gate(spec, tight)[0]), 1)

    def test_the_parent_runs_this_checkouts_benchmark(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        checkout = tempfile.mkdtemp(prefix="perf-ab-test-")
        try:
            # A parent whose benchmark differs: an old BENCHMARK.json,
            # an edited file and one the change deleted.
            with open(os.path.join(checkout, "BENCHMARK.json"), "w") as f:
                f.write("{}")
            for path in bench["paths"]:
                os.makedirs(os.path.join(checkout, path))
                with open(os.path.join(checkout, path, "run.py"),
                          "w") as f:
                    f.write("old")
                with open(os.path.join(checkout, path, "gone.txt"),
                          "w") as f:
                    f.write("old")
            perf_ab.sync_benchmark(bench, checkout)
            files = perf_ab.benchmark_files(bench)
            self.assertIn("BENCHMARK.json", files)
            self.assertGreater(len(files), 1)
            for rel in files:
                with self.subTest(file=rel):
                    with open(os.path.join(ROOT, rel), "rb") as a, \
                            open(os.path.join(checkout, rel), "rb") as b:
                        self.assertEqual(a.read(), b.read())
            for path in bench["paths"]:
                self.assertFalse(os.path.exists(
                    os.path.join(checkout, path, "gone.txt")))
        finally:
            shutil.rmtree(checkout)

    def test_claim_holds_on_the_recorded_gains(self):
        # The gains BENCH_pr19.json records: 10/10 pairs each.
        for workload, name in (("train-deep", "wall_s"),
                               ("serve-stream", "wall_s"),
                               ("zoo-sweep", "scenarios_per_s")):
            with self.subTest(workload=workload):
                spec = next(m for m in END_TO_END if m["name"] == name)
                verdict = perf_ab.claim(spec,
                                        runs_of(workload, CLAIMED))
                self.assertEqual((verdict["wins"], verdict["pairs"],
                                  verdict["ties"]), (10, 10, 0))
                self.assertTrue(verdict["holds"], verdict)
                self.assertGreater(verdict["median_gain"],
                                   verdict["parent_spread"])

    def test_claim_rule(self):
        spec = {"name": "scenarios_per_s", "unit": "1/s",
                "better": "higher", "bound": 0.25}

        def verdict(parent, change):
            runs = {side: [{"correct": True, "attempted": 1,
                            "failed": 0,
                            "metrics": {spec["name"]: {"value": v}}}
                           for v in values]
                    for side, values in (("parent", parent),
                                         ("change", change))}
            return perf_ab.claim(spec, runs)

        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        won = verdict(parent, [v + 10 for v in parent])
        self.assertEqual((won["wins"], won["ties"]), (10, 0))
        self.assertEqual(won["median_gain"], 10)
        self.assertTrue(won["holds"])
        # Nine wins and one tie of ten still hold; a tie is no win.
        tie = [v + 10 for v in parent[:9]] + [parent[9]]
        self.assertEqual(verdict(parent, tie)["ties"], 1)
        self.assertTrue(verdict(parent, tie)["holds"])
        # Eight wins of ten do not, however large the gain.
        lost = [v + 10 for v in parent[:8]] + [v - 1 for v in parent[8:]]
        self.assertEqual(verdict(parent, lost)["wins"], 8)
        self.assertFalse(verdict(parent, lost)["holds"])
        # Ten wins by less than the parent's quartile spread do not.
        small = [v + 1 for v in parent]
        self.assertEqual(verdict(parent, small)["wins"], 10)
        self.assertFalse(verdict(parent, small)["holds"])
        # A lower-is-better metric wins by going down.
        spec = dict(spec, better="lower")
        self.assertTrue(verdict(parent, [v - 10 for v in parent])["holds"])
        self.assertEqual(verdict(parent, [v + 10 for v in parent])["wins"],
                         0)

    def test_bound_direction(self):
        lower = {"better": "lower"}
        higher = {"better": "higher"}
        self.assertAlmostEqual(
            perf_ab.relative_worsening(lower, 2.0, 3.0), 0.5)
        self.assertAlmostEqual(
            perf_ab.relative_worsening(lower, 2.0, 1.0), -0.5)
        self.assertAlmostEqual(
            perf_ab.relative_worsening(higher, 2.0, 1.0), 0.5)
        self.assertEqual(
            perf_ab.relative_worsening(lower, 0.0, 1.0), float("inf"))
        self.assertEqual(perf_ab.relative_worsening(higher, 0.0, 0.0),
                         0.0)


if __name__ == "__main__":
    unittest.main()

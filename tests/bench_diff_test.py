#!/usr/bin/env python3
"""Golden tests for tools/bench_diff.py.

Pins the contract CI's perf-trajectory lane depends on: which moves get
marked REGRESSED vs IMPROVED vs CHANGED, the direction heuristics for the
per-load-point latency leaves fig12 emits, --threshold, and the exit
codes (--strict gates, default warns, unreadable input is 2).

Runs the script as a subprocess — the same way ci.yml does — against
fixture pairs in tests/testdata/bench_diff/, plus direct unit checks of
direction() via import. Stdlib only (unittest), registered with ctest.
"""
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.environ.get(
    "BENCH_DIFF", os.path.join(HERE, "..", "tools", "bench_diff.py"))
TESTDATA = os.environ.get(
    "BENCH_DIFF_TESTDATA", os.path.join(HERE, "testdata", "bench_diff"))


def run_diff(*args):
    """Run bench_diff.py; returns (exit_code, stdout)."""
    proc = subprocess.run(
        [sys.executable, BENCH_DIFF] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def fixture(name):
    return os.path.join(TESTDATA, name)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def write_json(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f)


class ExitCodes(unittest.TestCase):
    def test_identical_is_clean_and_green(self):
        code, out = run_diff(fixture("base.json"), fixture("base.json"))
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSED", out)
        self.assertNotIn("IMPROVED", out)
        self.assertIn("no metric moved", out)

    def test_regression_warns_by_default(self):
        code, out = run_diff(fixture("base.json"), fixture("regressed.json"))
        self.assertEqual(code, 0)
        self.assertIn("REGRESSED", out)
        self.assertIn("warn-only", out)

    def test_regression_gates_under_strict(self):
        code, out = run_diff("--strict",
                             fixture("base.json"), fixture("regressed.json"))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)
        self.assertNotIn("warn-only", out)

    def test_improvement_is_green_even_under_strict(self):
        code, out = run_diff("--strict",
                             fixture("base.json"), fixture("improved.json"))
        self.assertEqual(code, 0)
        self.assertIn("IMPROVED", out)
        self.assertNotIn("REGRESSED", out)

    def test_unreadable_input_is_exit_2(self):
        code, _ = run_diff(fixture("base.json"), fixture("malformed.json"))
        self.assertEqual(code, 2)
        code, _ = run_diff(fixture("base.json"), fixture("does_not_exist.json"))
        self.assertEqual(code, 2)


class Marks(unittest.TestCase):
    def diff_lines(self, *args):
        _, out = run_diff(*args)
        return out.splitlines()

    def line_for(self, lines, path):
        hits = [l for l in lines if l.strip().startswith(path + " ")]
        self.assertEqual(len(hits), 1, "expected one row for %s" % path)
        return hits[0]

    def test_throughput_drop_is_regression(self):
        lines = self.diff_lines(fixture("base.json"), fixture("regressed.json"))
        self.assertIn("REGRESSED", self.line_for(
            lines, "scenarios[Small].dpu.rps"))
        # A MiB/s rate is a throughput, not a duration: the _s suffix must
        # not flip it to lower-is-better.
        self.assertIn("REGRESSED", self.line_for(lines, "stream_mib_s"))

    def test_per_load_point_latency_rise_is_regression(self):
        # The fig12 curve leaves: identity comes from the "label" key, and
        # _us latency quantiles read lower-is-better.
        lines = self.diff_lines(fixture("base.json"), fixture("regressed.json"))
        self.assertIn("REGRESSED", self.line_for(
            lines, "points[1500rps].p99_us"))
        self.assertIn("REGRESSED", self.line_for(
            lines, "points[6000rps].timeouts"))
        self.assertIn("REGRESSED", self.line_for(
            lines, "points[24000rps].wrong"))
        # The knee sliding toward lighter load is a regression too.
        self.assertIn("REGRESSED", self.line_for(lines, "knee_offered_rps"))

    def test_per_load_point_latency_drop_is_improvement(self):
        lines = self.diff_lines(fixture("base.json"), fixture("improved.json"))
        self.assertIn("IMPROVED", self.line_for(
            lines, "points[6000rps].p99_us"))
        self.assertIn("IMPROVED", self.line_for(lines, "unloaded_p99_us"))
        self.assertIn("IMPROVED", self.line_for(lines, "knee_offered_rps"))

    def test_added_and_removed_points_are_reported(self):
        with tempfile.TemporaryDirectory() as td:
            new = read_json(fixture("base.json"))
            pts = new["fig12_openloop"]["points"]
            pts[0]["label"] = "1000rps"  # renamed rung: one REMOVED, one ADDED
            path = os.path.join(td, "new.json")
            write_json(new, path)
            lines = self.diff_lines(fixture("base.json"), path)
            self.assertIn("REMOVED", self.line_for(
                lines, "points[1500rps].p99_us"))
            self.assertIn("ADDED", self.line_for(
                lines, "points[1000rps].p99_us"))

    def test_unknown_direction_is_changed_not_gated(self):
        with tempfile.TemporaryDirectory() as td:
            new = read_json(fixture("base.json"))
            new["fig8_datapath"]["mystery_metric"] = 100.0
            old = read_json(fixture("base.json"))
            old["fig8_datapath"]["mystery_metric"] = 50.0
            old_p = os.path.join(td, "old.json")
            new_p = os.path.join(td, "new.json")
            write_json(old, old_p)
            write_json(new, new_p)
            code, out = run_diff("--strict", old_p, new_p)
            self.assertEqual(code, 0)  # CHANGED never gates
            lines = out.splitlines()
            self.assertIn("CHANGED", self.line_for(lines, "mystery_metric"))


class Threshold(unittest.TestCase):
    def test_threshold_suppresses_small_moves(self):
        # base -> regressed moves Small rps by -20%: marked at the default
        # 10% threshold, silent at 30%.
        code, out = run_diff("--strict", "--threshold", "30",
                             fixture("base.json"), fixture("regressed.json"))
        self.assertNotIn("scenarios[Small].dpu.rps", out)
        # Bigger moves (the 62% stream_mib_s drop) still gate.
        self.assertIn("stream_mib_s", out)
        self.assertEqual(code, 1)


class DirectionHeuristics(unittest.TestCase):
    """Unit checks of direction() itself, via import."""

    @classmethod
    def setUpClass(cls):
        spec = importlib.util.spec_from_file_location("bench_diff", BENCH_DIFF)
        cls.mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cls.mod)

    def test_latency_leaves_are_lower_better(self):
        d = self.mod.direction
        for leaf in ("p50_us", "p95_us", "p99_us", "mean_us", "latency_us",
                     "unloaded_p99_us", "timeouts", "decode_busy_ns",
                     "credit_stalls", "errors", "wrong", "dropped",
                     "lateness_p99_us", "stream_errors", "wall_s"):
            self.assertEqual(d("points[6000rps].%s" % leaf), -1, leaf)

    def test_throughput_leaves_are_higher_better(self):
        d = self.mod.direction
        for leaf in ("offered_rps", "achieved_rps", "stream_mib_s", "gbps",
                     "knee_offered_rps", "points[6000rps].completed"):
            self.assertEqual(d(leaf), 1, leaf)

    def test_attempted_calls_are_unknown_direction(self):
        # A rung's attempted count follows from its pinned offered rate:
        # a move means the schedule changed, which is neither good nor bad.
        self.assertEqual(self.mod.direction("points[6000rps].attempted"), 0)

    def test_suffix_matching_is_not_substring_matching(self):
        # "status"/"bonus" contain "us" but are not microsecond leaves.
        d = self.mod.direction
        self.assertEqual(d("status"), 0)
        self.assertEqual(d("bonus"), 0)
        self.assertEqual(d("fraction"), 0)

    def test_share_and_occupancy_leaves_are_informational(self):
        # Attribution shares and occupancy snapshots describe *where* time
        # or capacity went, not how much of it there was — either direction
        # of movement is news, never a regression.
        d = self.mod.direction
        for leaf in ("worker_decode_share", "xrpc_inbound_share",
                     "dominant_share_knee", "driver_share_unloaded",
                     "ring_occupancy", "credit_occupancy"):
            self.assertIsNone(d("points[1500rps].%s" % leaf), leaf)
        # "flush_wait_share" must be INFO even though "wait"-ish stage
        # names would otherwise smell like latency leaves.
        self.assertIsNone(d("flush_wait_share"))
        # The forensics health counters stay unknown-direction (CHANGED):
        # they are gated inside the benchmark itself, not by the diff.
        for leaf in ("counter_tracks", "exemplars_captured",
                     "tiling_exemplars", "pending_at_drain"):
            self.assertEqual(d(leaf), 0, leaf)


class InformationalMarks(unittest.TestCase):
    """fig12_forensics share leaves: reported as INFO, never gated."""

    def test_share_moves_are_info_and_never_gate(self):
        with tempfile.TemporaryDirectory() as td:
            def doc(share):
                return {"fig12_forensics": {
                    "benchmark": "fig12_forensics",
                    "dominant_stage": "xrpc_inbound",
                    "points": [
                        {"label": "1500rps", "worker_decode_share": 0.05},
                        {"label": "24000rps", "worker_decode_share": share},
                    ]}}
            old_p = os.path.join(td, "old.json")
            new_p = os.path.join(td, "new.json")
            write_json(doc(0.10), old_p)
            write_json(doc(0.40), new_p)  # +300%: adverse if it were gated
            code, out = run_diff("--strict", old_p, new_p)
            self.assertEqual(code, 0, out)
            lines = out.splitlines()
            hits = [l for l in lines
                    if "points[24000rps].worker_decode_share" in l]
            self.assertEqual(len(hits), 1, out)
            self.assertIn("INFO", hits[0])
            self.assertNotIn("REGRESSED", out)


if __name__ == "__main__":
    unittest.main()

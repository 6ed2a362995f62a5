#!/usr/bin/env python3
"""Tests of the benchmark's own output: python3 perfbench/test_run.py

Checks that run.py reports exactly the metrics BENCHMARK.json declares,
with their units, that the ledger arithmetic is right on a fixed input,
and that the command fails cleanly where there is nothing to build.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the module under test lives beside this file)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def e2e_raw():
    return {"setup_s": 0.021, "light.p50_us": 110.0, "load.p50_us": 115.0,
            "capacity_rps": 65000.0,
            "host_cpu_ns_per_call": 11000.0, "goodput_mib_s": 0.29, "peak_rss_mib": 47.5,
            "attempted": 1000, "failed": 0, "wrong": 0, "stream_wrong": 0,
            "capacity_window": 16, "generator_valid": 1}


def traced_raw():
    """Round numbers, so every derived value can be checked by hand."""
    raw = {name: 1.0 for name in run.PER_LAYER_UNITS}
    raw.update({
        "xrpc.call_rtt_us.small": 20.0, "xrpc.call_rtt_us.ints512": 30.0,
        "xrpc.call_rtt_us.chars8000": 40.0,
        "rdmarpc.call_rtt_ns.small": 1000.0, "rdmarpc.call_rtt_ns.ints512": 10000.0,
        "rdmarpc.call_rtt_ns.chars8000": 3000.0,
        "adt.relocate_ns.small": 10.0, "adt.relocate_ns.ints512": 20.0,
        "adt.relocate_ns.chars8000": 50.0,
        "adt.serialize_ns.ack": 30.0, "adt.serialize_ns.ints512": 2000.0,
        "adt.parse_ns.small": 100.0, "dpu.pool_rtt_ns.parked": 5100.0,
        "untraced_light.p50_us": 120.0, "traced_light.p50_us": 132.0,
        "untraced_light.samples": 9000, "untraced_light.p95_us": 250.0,
        "untraced_light.p99_us": 350.0,
        "load.lateness_p99_us": 12.5,
        "trace.stage_sum_ns": 900.0, "trace.e2e_sum_ns": 1000.0,
        "stage.worker_decode.sum_ns": 150.0, "stage.worker_encode.sum_ns": 50.0,
        "attempted": 200, "failed": 1, "wrong": 0, "stream_wrong": 0, "generator_valid": 1,
        "layers_ok": 1,
    })
    for s in run.STAGES:
        raw[f"stage.{s}.p50_us"] = 2.0
    return raw


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER_UNITS)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))

    def test_setup_time_is_gated_with_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_result_objects_carry_every_metric_with_its_unit(self):
        for trace, raw, units in ((0, e2e_raw(), run.END_TO_END_UNITS),
                                  (1, traced_raw(), run.PER_LAYER_UNITS)):
            res = run.result_object(raw, "mix_stream", trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(res["metrics"]), set(units))
            for name, m in res["metrics"].items():
                self.assertEqual(m["unit"], units[name])
                self.assertIsInstance(m["value"], float)
            json.dumps(res)  # serializable as the last stdout line

    def test_a_wrong_reply_makes_the_run_incorrect(self):
        raw = e2e_raw()
        raw["wrong"] = 1
        self.assertFalse(run.result_object(raw, "small_unary", 0)["correct"])
        raw = traced_raw()
        raw["layers_ok"] = 0
        self.assertFalse(run.result_object(raw, "small_unary", 1)["correct"])
        self.assertTrue(run.result_object(e2e_raw(), "small_unary", 0)["correct"])

    def test_a_mis_acked_stream_makes_the_run_incorrect(self):
        for trace, raw in ((0, e2e_raw()), (1, traced_raw())):
            raw["stream_wrong"] = 1
            raw["failed"] += 1
            res = run.result_object(raw, "mix_stream", trace)
            self.assertFalse(res["correct"])
            self.assertEqual(res["failed"], raw["failed"])


class LedgerArithmetic(unittest.TestCase):
    def test_ratios(self):
        m = run.derive_metrics(traced_raw(), "small_unary", 1)
        self.assertAlmostEqual(m["trace.tiling_ratio"], 0.9)
        self.assertAlmostEqual(m["trace.codec_share"], 0.2)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 1.1)
        self.assertAlmostEqual(m["failed_frac"], 0.005)
        self.assertAlmostEqual(m["loadgen.lateness_p99_us"], 12.5)
        self.assertEqual(m["light.samples"], 9000)
        self.assertEqual(m["light.p95_us"], 250.0)
        self.assertEqual(m["light.p99_us"], 350.0)

    def test_single_kind_ledger(self):
        # handoff = 5100 - 100 = 5000 ns, paid twice per call.
        # small: 20 us + (1000 + 10 + 10 + 30 + 10000) ns = 31.05 us
        m = run.derive_metrics(traced_raw(), "small_unary", 1)
        self.assertAlmostEqual(m["ledger.sum_us"], 31.05)
        self.assertAlmostEqual(m["ledger.gap_us"], 120.0 - 31.05)
        # ints: 30 us + (10000 + 20 + 20 + 2000 + 10000) ns = 52.04 us
        m = run.derive_metrics(traced_raw(), "ints_echo", 1)
        self.assertAlmostEqual(m["ledger.sum_us"], 52.04)

    def test_mix_ledger_is_weighted_by_the_mix(self):
        # chars: 40 us + (3000 + 50 + 10 + 30 + 10000) ns = 53.09 us
        expect = 0.6 * 31.05 + 0.3 * 52.04 + 0.1 * 53.09
        m = run.derive_metrics(traced_raw(), "mix_stream", 1)
        self.assertAlmostEqual(m["ledger.sum_us"], expect)
        self.assertAlmostEqual(m["ledger.gap_us"], 120.0 - expect)

    def test_handoff_never_negative(self):
        raw = traced_raw()
        raw["dpu.pool_rtt_ns.parked"] = 50.0  # below the parse cost it contains
        m = run.derive_metrics(raw, "small_unary", 1)
        self.assertAlmostEqual(m["ledger.sum_us"], 20.0 + 1.05)


class Command(unittest.TestCase):
    def test_fails_without_the_sources(self):
        scratch = run.ROOT / ".bench_build" / "tests"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "small_unary", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

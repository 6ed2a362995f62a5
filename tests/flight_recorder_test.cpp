// Unit tests for the tail-forensics primitives: FlightRecorder (trigger
// logic, counter watches, bounded reservoir, JSON dump), ResourceSampler
// (probe rings, gauges, background thread), and the counter-track
// overload of TraceCollector::to_chrome_json. Everything here drives the
// components directly with hand-built span trees — no datapath, no
// Tracer; the end-to-end wiring is forensics_test.cpp's job.
#include "trace/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "trace/collector.hpp"
#include "trace/resource_sampler.hpp"

namespace {

using dpurpc::trace::CounterSeries;
using dpurpc::trace::FlightRecorder;
using dpurpc::trace::ResourceSampler;
using dpurpc::trace::Span;
using dpurpc::trace::SpanTree;
using dpurpc::trace::Stage;
using dpurpc::trace::TraceCollector;
using dpurpc::trace::TriggerKind;

// A minimal well-formed tree: a root (parent 0) spanning e2e_ns, plus one
// stage child covering most of it, so stage_sum_ns() tiles duration_ns().
SpanTree make_tree(uint64_t trace_id, uint64_t e2e_ns) {
  SpanTree t;
  t.trace_id = trace_id;
  Span root;
  root.span_id = 1;
  root.parent_span_id = 0;
  root.start_ns = 1'000;
  root.end_ns = 1'000 + e2e_ns;
  root.stage = Stage::kRequest;
  Span child;
  child.span_id = 2;
  child.parent_span_id = 1;
  child.start_ns = 1'100;
  child.end_ns = 1'100 + (e2e_ns * 9) / 10;
  child.stage = Stage::kWorkerDecode;
  t.spans = {root, child};
  return t;
}

// ------------------------------------------------------- latency trigger

TEST(FlightRecorder, LatencyTriggerWaitsForHistoryThenFires) {
  FlightRecorder::Options o;
  o.min_history = 8;
  o.latency_factor = 3.0;
  FlightRecorder rec(o);
  dpurpc::metrics::Counter& latency_captures =
      dpurpc::metrics::default_registry()
          .counter_family("dpurpc_flight_recorder_captures_total", "")
          .counter({{"trigger", "latency"}});
  const uint64_t latency_captures_before = latency_captures.value();

  // Below min_history nothing can fire, outlier or not — a cold quantile
  // is meaningless.
  for (uint64_t i = 0; i < 7; ++i) {
    EXPECT_FALSE(rec.offer(make_tree(100 + i, 1'000'000)));
  }
  EXPECT_EQ(rec.captured_total(), 0u);
  EXPECT_EQ(rec.rolling_threshold_s(), 0.0);

  // Build history past the floor; the rolling p99 of a 1ms population puts
  // the threshold around 3× that.
  for (uint64_t i = 0; i < 60; ++i) {
    rec.offer(make_tree(200 + i, 1'000'000));
  }
  double thr = rec.rolling_threshold_s();
  EXPECT_GT(thr, 0.0);
  EXPECT_LT(thr, 0.1);

  // A 100ms outlier is far above any 3× p99 of the 1ms history.
  EXPECT_TRUE(rec.offer(make_tree(999, 100'000'000)));
  EXPECT_EQ(rec.captured_total(), 1u);
  EXPECT_EQ(rec.trigger_total(TriggerKind::kLatency), 1u);
  EXPECT_EQ(latency_captures.value() - latency_captures_before, 1u);
  ASSERT_EQ(rec.exemplars().size(), 1u);
  const auto& ex = rec.exemplars()[0];
  EXPECT_EQ(ex.trace_id, 999u);
  EXPECT_EQ(ex.trigger, TriggerKind::kLatency);
  EXPECT_EQ(ex.e2e_ns, 100'000'000u);
  EXPECT_GT(ex.threshold_s, 0.0);
  // The capture copies the whole tree, stage children included.
  EXPECT_EQ(ex.tree.spans.size(), 2u);
}

TEST(FlightRecorder, SlowBurstDoesNotMaskItself) {
  // should_capture checks BEFORE the observation feeds the rolling
  // histogram, so a burst of equally-slow requests is captured at least
  // at its front — the burst can't raise the threshold ahead of itself.
  FlightRecorder::Options o;
  o.min_history = 8;
  o.latency_factor = 2.0;
  FlightRecorder rec(o);
  for (uint64_t i = 0; i < 32; ++i) rec.offer(make_tree(i, 1'000'000));
  uint64_t first_burst_captures = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    if (rec.offer(make_tree(500 + i, 50'000'000))) ++first_burst_captures;
  }
  EXPECT_GE(first_burst_captures, 1u);
}

// -------------------------------------------------------- counter watches

TEST(FlightRecorder, WatchPrimesThenArmsWindowOnIncrease) {
  FlightRecorder::Options o;
  o.anomaly_window = 2;
  FlightRecorder rec(o);

  std::atomic<uint64_t> drops{7};  // nonzero start: priming must not fire
  rec.watch_counter(TriggerKind::kDrop, "test_drops_total",
                    [&] { return drops.load(); });

  // First poll baselines; no window opens off the initial value.
  rec.poll_watches();
  EXPECT_FALSE(rec.offer(make_tree(1, 1'000)));

  // An increase arms the window: the next `anomaly_window` trees are kept
  // regardless of latency, attributed to the watch's kind, threshold 0.
  drops.store(9);
  rec.poll_watches();
  EXPECT_TRUE(rec.offer(make_tree(2, 1'000)));
  EXPECT_TRUE(rec.offer(make_tree(3, 1'000)));
  EXPECT_FALSE(rec.offer(make_tree(4, 1'000)));  // window exhausted
  EXPECT_EQ(rec.trigger_total(TriggerKind::kDrop), 2u);
  ASSERT_GE(rec.exemplars().size(), 2u);
  EXPECT_EQ(rec.exemplars()[0].trigger, TriggerKind::kDrop);
  EXPECT_EQ(rec.exemplars()[0].threshold_s, 0.0);

  // Steady counter → no new window.
  rec.poll_watches();
  EXPECT_FALSE(rec.offer(make_tree(5, 1'000)));
}

TEST(FlightRecorder, ManualArmOpensOneWindow) {
  FlightRecorder::Options o;
  o.anomaly_window = 1;
  FlightRecorder rec(o);
  rec.arm(TriggerKind::kManual);
  EXPECT_TRUE(rec.offer(make_tree(11, 1'000)));
  EXPECT_FALSE(rec.offer(make_tree(12, 1'000)));
  EXPECT_EQ(rec.trigger_total(TriggerKind::kManual), 1u);
}

// ----------------------------------------------------- bounded reservoir

TEST(FlightRecorder, ReservoirIsBoundedRing) {
  FlightRecorder::Options o;
  o.reservoir_capacity = 4;
  o.anomaly_window = 100;  // capture everything offered
  FlightRecorder rec(o);
  rec.arm(TriggerKind::kManual);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(rec.offer(make_tree(1000 + i, 1'000)));
  }
  EXPECT_EQ(rec.captured_total(), 10u);
  EXPECT_EQ(rec.exemplars().size(), 4u);  // oldest overwritten, never grows
  // The survivors are from the most recent captures.
  for (const auto& ex : rec.exemplars()) {
    EXPECT_GE(ex.trace_id, 1006u);
  }
}

// ------------------------------------------------------------- JSON dump

TEST(FlightRecorder, ToJsonCarriesTriggerAndTraceId) {
  FlightRecorder::Options o;
  o.anomaly_window = 1;
  FlightRecorder rec(o);
  rec.arm(TriggerKind::kManual);
  rec.offer(make_tree(0xabcdef0123456789ull, 2'000'000));
  std::string j = rec.to_json();
  EXPECT_NE(j.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(j.find("abcdef0123456789"), std::string::npos);
  EXPECT_NE(j.find("manual"), std::string::npos);
  EXPECT_NE(j.find("worker_decode"), std::string::npos);
}

// --------------------------------------------------------------- sampler

TEST(ResourceSampler, SampleOnceFillsRingsAndGauges) {
  ResourceSampler::Options o;
  o.capacity = 8;
  ResourceSampler sampler(o);
  double depth = 3.0;
  sampler.add_probe("lane0_ring_depth", [&] { return depth; });
  sampler.add_probe("worker_busy", [] { return 0.5; });
  EXPECT_EQ(sampler.probe_count(), 2u);

  sampler.sample_once();
  depth = 5.0;
  sampler.sample_once();
  EXPECT_EQ(sampler.samples_taken(), 2u);

  auto series = sampler.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "lane0_ring_depth");
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[0].points[0].second, 3.0);
  EXPECT_EQ(series[0].points[1].second, 5.0);
  // Timestamps are monotone within a ring.
  EXPECT_GE(series[0].points[1].first, series[0].points[0].first);

  // The live gauges mirror the most recent sample, labeled by probe.
  std::string text = dpurpc::metrics::default_registry().expose_text();
  EXPECT_NE(text.find("dpurpc_resource_occupancy{probe=\"lane0_ring_depth\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("dpurpc_resource_occupancy{probe=\"worker_busy\"} 0.5"),
            std::string::npos);
}

TEST(ResourceSampler, RingOverwritesOldestBeyondCapacity) {
  ResourceSampler::Options o;
  o.capacity = 4;
  ResourceSampler sampler(o);
  double v = 0;
  sampler.add_probe("p", [&] { return v; });
  for (int i = 0; i < 10; ++i) {
    v = i;
    sampler.sample_once();
  }
  auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 4u);
  // Oldest-first view of the last 4 samples: 6, 7, 8, 9.
  EXPECT_EQ(series[0].points.front().second, 6.0);
  EXPECT_EQ(series[0].points.back().second, 9.0);
}

TEST(ResourceSampler, BackgroundThreadSamples) {
  ResourceSampler::Options o;
  o.period_ns = 1'000'000;  // 1ms
  ResourceSampler sampler(o);
  sampler.add_probe("p", [] { return 1.0; });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  EXPECT_GE(sampler.samples_taken(), 2u);
  uint64_t after = sampler.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(sampler.samples_taken(), after);  // stop() really stopped it
}

// ------------------------------------------------- counter-track export

TEST(ChromeExport, CounterSeriesBecomeCounterTracks) {
  std::vector<SpanTree> trees = {make_tree(42, 5'000)};
  std::vector<Span> globals;
  CounterSeries cs;
  cs.name = "lane0_ring_depth";
  cs.points = {{2'000, 1.0}, {4'000, 3.0}};
  std::string j = TraceCollector::to_chrome_json(trees, globals, {cs});
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"resource\""), std::string::npos);
  EXPECT_NE(j.find("lane0_ring_depth"), std::string::npos);
  // Span tracks still present alongside.
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeExport, EmptyCountersMatchesTwoArgOverloadExactly) {
  std::vector<SpanTree> trees = {make_tree(7, 1'000), make_tree(8, 2'000)};
  std::vector<Span> globals;
  EXPECT_EQ(TraceCollector::to_chrome_json(trees, globals, {}),
            TraceCollector::to_chrome_json(trees, globals));
}

TEST(ChromeExport, CountersOnlyIsValidJsonShape) {
  // No spans at all: the comma logic must still produce a well-formed
  // array (single shared `first` flag across spans -> globals -> counters).
  CounterSeries cs;
  cs.name = "depth";
  cs.points = {{1'000, 2.0}};
  std::string j = TraceCollector::to_chrome_json({}, {}, {cs});
  EXPECT_EQ(j.find(",["), std::string::npos);
  EXPECT_EQ(j.find("[,"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace

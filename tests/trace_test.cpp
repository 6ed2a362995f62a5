// Unit tests for the tracing subsystem: SPSC ring overflow/wrap, head
// sampling, collector reassembly, tail sampling, orphan aging, and the
// Chrome trace-event exporter (golden JSON).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"

namespace dpurpc::trace {
namespace {

// The Tracer is a process-wide singleton shared across tests: drain any
// leftovers so each test observes only its own records.
void drain_leftovers() {
  std::vector<SpanRecord> junk;
  Tracer::instance().drain_into(junk);
}

TraceConfig full_config() {
  TraceConfig c;
  c.mode = Mode::kFull;
  return c;
}

// ------------------------------------------------------------- SpanRing

TEST(SpanRing, DropNewestOnFullAndCountsDrops) {
  SpanRing ring(8, 0);
  SpanRecord r;
  for (uint64_t i = 0; i < 8; ++i) {
    r.span_id = i;
    EXPECT_TRUE(ring.try_push(r));
  }
  r.span_id = 99;
  EXPECT_FALSE(ring.try_push(r));  // full: the *newest* record is dropped
  EXPECT_FALSE(ring.try_push(r));
  EXPECT_EQ(ring.dropped(), 2u);

  std::vector<SpanRecord> out;
  EXPECT_EQ(ring.drain(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].span_id, i);
  // Space reclaimed: pushes succeed again, drop counter is cumulative.
  EXPECT_TRUE(ring.try_push(r));
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(SpanRing, WrapsAroundPreservingOrder) {
  SpanRing ring(4, 0);
  SpanRecord r;
  std::vector<SpanRecord> out;
  uint64_t next = 0;
  // Many times around the ring; every record comes back exactly once, in
  // push order.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      r.span_id = next++;
      ASSERT_TRUE(ring.try_push(r));
    }
    ring.drain(out);
  }
  ASSERT_EQ(out.size(), next);
  for (uint64_t i = 0; i < next; ++i) EXPECT_EQ(out[i].span_id, i);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpanRing, ConcurrentProducerConsumer) {
  SpanRing ring(64, 0);
  constexpr uint64_t kCount = 100'000;
  std::vector<SpanRecord> out;
  std::thread producer([&] {
    SpanRecord r;
    for (uint64_t i = 0; i < kCount; ++i) {
      r.span_id = i;
      while (!ring.try_push(r)) std::this_thread::yield();
    }
  });
  while (out.size() < kCount) ring.drain(out);
  producer.join();
  // The producer retries on full, so nothing is lost and order holds
  // (each retry counts a drop, but the record eventually lands).
  ASSERT_EQ(out.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(out[i].span_id, i);
}

// --------------------------------------------------------------- Tracer

TEST(Tracer, OffModeYieldsInactiveContexts) {
  drain_leftovers();
  Tracer::instance().configure(TraceConfig{});  // kOff
  TraceContext ctx = Tracer::instance().begin_trace();
  EXPECT_FALSE(ctx.active());
  // record() on an inactive context is a no-op: nothing to drain.
  Tracer::instance().record(Stage::kWorkerDecode, ctx, 10, 20);
  std::vector<SpanRecord> out;
  EXPECT_EQ(Tracer::instance().drain_into(out), 0u);
}

TEST(Tracer, HeadSamplingIsExactlyOneInN) {
  drain_leftovers();
  TraceConfig c;
  c.mode = Mode::kSampled;
  c.head_sample_every = 4;
  Tracer::instance().configure(c);
  int active = 0;
  for (int i = 0; i < 16; ++i) {
    if (Tracer::instance().begin_trace().active()) ++active;
  }
  // The shared counter makes the rate exact regardless of its start value.
  EXPECT_EQ(active, 4);
  Tracer::instance().configure(TraceConfig{});
  drain_leftovers();
}

TEST(Tracer, RecordRoundTripsThroughTheRing) {
  drain_leftovers();
  Tracer::instance().configure(full_config());
  TraceContext ctx = Tracer::instance().begin_trace();
  ASSERT_TRUE(ctx.active());
  Tracer::instance().record(Stage::kWorkerDecode, ctx, 100, 250, 42);
  Tracer::instance().record_root(ctx, 50, 400, 7);
  std::vector<SpanRecord> out;
  Tracer::instance().drain_into(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].trace_id, ctx.trace_id);
  EXPECT_EQ(out[0].parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(static_cast<Stage>(out[0].stage), Stage::kWorkerDecode);
  EXPECT_EQ(out[0].start_ns, 100u);
  EXPECT_EQ(out[0].end_ns, 250u);
  EXPECT_EQ(out[0].arg, 42u);
  // The root reuses the parent id every stage span points at.
  EXPECT_EQ(out[1].span_id, ctx.parent_span_id);
  EXPECT_EQ(out[1].parent_span_id, 0u);
  EXPECT_EQ(static_cast<Stage>(out[1].stage), Stage::kRequest);
  Tracer::instance().configure(TraceConfig{});
}

// ------------------------------------------------------- TraceCollector

TEST(Collector, ReassemblesATreeAndFeedsStageHistograms) {
  drain_leftovers();
  Tracer::instance().configure(full_config());
  TraceCollector collector;
  metrics::HistogramSnapshot decode_before =
      collector.stage_histogram(Stage::kWorkerDecode)->snapshot();
  metrics::HistogramSnapshot request_before =
      collector.stage_histogram(Stage::kRequest)->snapshot();

  TraceContext ctx = Tracer::instance().begin_trace();
  ASSERT_TRUE(ctx.active());
  Tracer::instance().record(Stage::kWorkerDecode, ctx, 100, 300);
  Tracer::instance().record(Stage::kHostDispatch, ctx, 300, 450);
  Tracer::instance().record_root(ctx, 0, 500);
  collector.collect();

  EXPECT_EQ(collector.traces_completed(), 1u);
  // 1-in-N head retention keeps the very first completed trace.
  ASSERT_EQ(collector.retained().size(), 1u);
  const SpanTree& tree = collector.retained()[0];
  EXPECT_EQ(tree.trace_id, ctx.trace_id);
  ASSERT_EQ(tree.spans.size(), 3u);
  ASSERT_NE(tree.root(), nullptr);
  EXPECT_EQ(tree.duration_ns(), 500u);
  EXPECT_EQ(tree.stage_sum_ns(), 200u + 150u);

  // Every span fed its stage histogram in the process registry.
  EXPECT_EQ(collector.stage_histogram(Stage::kWorkerDecode)
                ->snapshot()
                .delta(decode_before)
                .count,
            1u);
  EXPECT_EQ(
      collector.stage_histogram(Stage::kRequest)->snapshot().delta(request_before).count,
      1u);
  Tracer::instance().configure(TraceConfig{});
}

TEST(Collector, TailSamplingKeepsSlowTraces) {
  drain_leftovers();
  Tracer::instance().configure(full_config());
  // An earlier collector's 10 ms history shares the registry's request
  // histogram; it must not raise this collector's tail-keep bar.
  {
    TraceCollector earlier;
    for (int i = 0; i < 50; ++i) {
      TraceContext ctx = Tracer::instance().begin_trace();
      Tracer::instance().record_root(ctx, 1000, 10'001'000);
      earlier.collect();
    }
  }
  TraceCollector::Options opts;
  opts.tail_keep_every = 0;  // isolate the latency criterion
  TraceCollector collector(opts);

  // 20 fast requests (600 ns): under the rolling p95, never retained.
  for (int i = 0; i < 20; ++i) {
    TraceContext ctx = Tracer::instance().begin_trace();
    Tracer::instance().record_root(ctx, 1000, 1600);
    collector.collect();
  }
  EXPECT_EQ(collector.traces_completed(), 20u);
  EXPECT_EQ(collector.retained().size(), 0u);

  // One slow request (1 ms): above the p95 of the fast population.
  TraceContext slow = Tracer::instance().begin_trace();
  Tracer::instance().record_root(slow, 1000, 1'001'000);
  collector.collect();
  ASSERT_EQ(collector.retained().size(), 1u);
  EXPECT_EQ(collector.retained()[0].trace_id, slow.trace_id);
  EXPECT_EQ(collector.traces_retained(), 1u);
  Tracer::instance().configure(TraceConfig{});
}

TEST(Collector, RootlessTracesAgeOutAsOrphans) {
  drain_leftovers();
  Tracer::instance().configure(full_config());
  TraceCollector::Options opts;
  opts.orphan_max_age = 2;
  TraceCollector collector(opts);

  TraceContext ctx = Tracer::instance().begin_trace();
  Tracer::instance().record(Stage::kWorkerDecode, ctx, 10, 20);
  collector.collect();  // pending, no root
  EXPECT_EQ(collector.orphans_dropped(), 0u);
  collector.collect();
  collector.collect();  // age threshold crossed
  EXPECT_EQ(collector.orphans_dropped(), 1u);
  EXPECT_EQ(collector.traces_completed(), 0u);
  // A root arriving after the age-out starts a fresh (still rootful) tree
  // rather than resurrecting the dropped spans.
  Tracer::instance().record_root(ctx, 0, 100);
  collector.collect();
  EXPECT_EQ(collector.traces_completed(), 1u);
  Tracer::instance().configure(TraceConfig{});
}

TEST(Collector, GlobalEventsLandOnTheSideTrack) {
  drain_leftovers();
  Tracer::instance().configure(full_config());
  TraceCollector collector;
  Tracer::instance().record_global(Stage::kSimverbsWrite, 100, 900, 4096);
  collector.collect();
  ASSERT_EQ(collector.global_events().size(), 1u);
  EXPECT_EQ(collector.global_events()[0].stage, Stage::kSimverbsWrite);
  EXPECT_EQ(collector.global_events()[0].arg, 4096u);
  EXPECT_EQ(collector.traces_completed(), 0u);
  Tracer::instance().configure(TraceConfig{});
}

TEST(Collector, MirrorsRingDropsIntoTheRegistry) {
  drain_leftovers();
  TraceConfig c = full_config();
  c.ring_capacity = 64;  // floor; applies to rings created after configure()
  Tracer::instance().configure(c);
  uint64_t drops_before = Tracer::instance().dropped_total();
  // A fresh thread gets a fresh (64-slot) ring; overflow it.
  std::thread t([] {
    TraceContext ctx{12345, 1};
    for (int i = 0; i < 80; ++i) {
      Tracer::instance().record(Stage::kWorkerDecode, ctx, 0, 1);
    }
  });
  t.join();
  EXPECT_GE(Tracer::instance().dropped_total() - drops_before, 16u);

  // The process counter mirrors the Tracer's cumulative drop total, however
  // many collectors have come and gone.
  TraceCollector collector;
  collector.collect();
  metrics::Snapshot snap = metrics::default_registry().scrape();
  const metrics::Sample* dropped = snap.find("dpurpc_trace_ring_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, static_cast<double>(Tracer::instance().dropped_total()));
  Tracer::instance().configure(TraceConfig{});
  drain_leftovers();
}

// ------------------------------------------------------------- exporter

TEST(Exporter, GoldenChromeTraceJson) {
  SpanTree tree;
  tree.trace_id = 7;
  // Deliberately out of order: the exporter sorts root-first, then by
  // start time, so the output is stable.
  tree.spans.push_back({2, 1, 1500, 2500, 9, 3, Stage::kWorkerDecode});
  tree.spans.push_back({1, 0, 1000, 5000, 42, 0, Stage::kRequest});
  Span global{5, 0, 2000, 2600, 4096, 1, Stage::kSimverbsWrite};

  std::string json = TraceCollector::to_chrome_json({tree}, {global});
  EXPECT_EQ(
      json,
      "{\"traceEvents\":["
      "{\"name\":\"request\",\"cat\":\"datapath\",\"ph\":\"X\","
      "\"ts\":1.000,\"dur\":4.000,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace_id\":7,\"span_id\":1,\"parent_span_id\":0,\"arg\":42}},"
      "{\"name\":\"worker_decode\",\"cat\":\"datapath\",\"ph\":\"X\","
      "\"ts\":1.500,\"dur\":1.000,\"pid\":1,\"tid\":3,"
      "\"args\":{\"trace_id\":7,\"span_id\":2,\"parent_span_id\":1,\"arg\":9}},"
      "{\"name\":\"simverbs_write\",\"cat\":\"datapath\",\"ph\":\"X\","
      "\"ts\":2.000,\"dur\":0.600,\"pid\":1,\"tid\":1,"
      "\"args\":{\"trace_id\":0,\"span_id\":5,\"parent_span_id\":0,\"arg\":4096}}"
      "],\"displayTimeUnit\":\"ns\"}");
}

TEST(Exporter, EmptyInputIsStillValidJson) {
  EXPECT_EQ(TraceCollector::to_chrome_json({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

TEST(Record, IsExactlyOneCacheLine) {
  EXPECT_EQ(sizeof(SpanRecord), 64u);
}

}  // namespace
}  // namespace dpurpc::trace

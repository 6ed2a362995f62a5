// Unit tests for the Prometheus-style metrics library and the paper's
// monitoring methodology (instant rate of increase, 1% stability).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"

namespace dpurpc::metrics {
namespace {

TEST(Counter, IncrementAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 4, kPer = 50'000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      for (int j = 0; j < kPer; ++j) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPer);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(Histogram, BucketsAreCumulative) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5);
  h.observe(50);
  h.observe(500);
  EXPECT_EQ(h.bucket_count(0), 1u);   // <= 1
  EXPECT_EQ(h.bucket_count(1), 2u);   // <= 10
  EXPECT_EQ(h.bucket_count(2), 3u);   // <= 100
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
}

TEST(Histogram, BoundaryGoesToLowerBucket) {
  Histogram h({1.0, 10.0});
  h.observe(1.0);   // le="1" includes 1.0
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
}

TEST(Histogram, ExemplarLandsInObserveBucket) {
  Histogram h({1.0, 10.0, 100.0});
  h.put_exemplar(5.0, 0xdeadbeef);           // bucket 1: (1, 10]
  h.put_exemplar(500.0, 0xfeedface);         // overflow slot bounds.size()
  EXPECT_EQ(h.exemplar_at(0).trace_id, 0u);  // untouched bucket: none
  EXPECT_EQ(h.exemplar_at(1).trace_id, 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(h.exemplar_at(1).value, 5.0);
  EXPECT_EQ(h.exemplar_at(3).trace_id, 0xfeedfaceu);
  // Not an observation: counts and sum stay untouched.
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  // Last writer wins within a bucket.
  h.put_exemplar(6.0, 0xabad1dea);
  EXPECT_EQ(h.exemplar_at(1).trace_id, 0xabad1deau);
  // Out-of-range reads answer "none" instead of tripping.
  EXPECT_EQ(h.exemplar_at(99).trace_id, 0u);
}

TEST(Histogram, ExemplarSurfacesInExposition) {
  Registry reg;
  auto& fam = reg.histogram_family("e2e_seconds", "", {0.001, 0.1});
  Histogram& h = fam.histogram({});
  h.observe(0.05);
  std::string before = reg.expose_text();
  EXPECT_EQ(before.find("# {trace_id"), std::string::npos)
      << "no exemplar annotation before one is put";
  h.put_exemplar(0.05, 0x123456789abcdef0ull);
  std::string after = reg.expose_text();
  EXPECT_NE(after.find(" # {trace_id=\"123456789abcdef0\"} 0.05"),
            std::string::npos)
      << after;
}

TEST(Family, LabelsCreateDistinctChildren) {
  Registry reg;
  auto& fam = reg.counter_family("rpc_requests_total", "requests");
  fam.counter({{"side", "client"}}).inc(3);
  fam.counter({{"side", "server"}}).inc(5);
  auto snap = reg.scrape();
  EXPECT_EQ(snap.find("rpc_requests_total", {{"side", "client"}})->value, 3);
  EXPECT_EQ(snap.find("rpc_requests_total", {{"side", "server"}})->value, 5);
}

TEST(Family, SameLabelsSameChild) {
  Registry reg;
  auto& fam = reg.counter_family("x", "");
  auto& a = fam.counter({{"k", "v"}});
  auto& b = fam.counter({{"k", "v"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, ReRegisteringReturnsSameFamily) {
  Registry reg;
  auto& a = reg.counter_family("dup", "first");
  auto& b = reg.counter_family("dup", "second");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TextExpositionFormat) {
  Registry reg;
  reg.counter_family("reqs_total", "total requests").counter({{"msg", "small"}}).inc(7);
  reg.gauge_family("credits", "available credits").gauge().set(256);
  std::string text = reg.expose_text();
  EXPECT_NE(text.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("reqs_total{msg=\"small\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE credits gauge"), std::string::npos);
  EXPECT_NE(text.find("credits 256"), std::string::npos);
}

TEST(Registry, HistogramExposition) {
  Registry reg;
  auto& fam = reg.histogram_family("lat", "latency", {1.0, 2.0});
  fam.histogram().observe(1.5);
  std::string text = reg.expose_text();
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Registry, SubMicrosecondBucketBoundsStayDistinct) {
  // Each `le` label must parse back to exactly its bound, in both the
  // scrape and the text, or sub-µs buckets collapse onto one label.
  const std::vector<double> bounds = {100e-9, 250e-9, 2.5e-6};
  Registry reg;
  reg.histogram_family("stage_seconds", "stage", bounds).histogram().observe(1e-7);

  std::vector<std::string> scraped;
  for (const Sample& s : reg.scrape().samples) {
    auto le = s.labels.find("le");
    if (le != s.labels.end() && le->second != "+Inf") scraped.push_back(le->second);
  }
  std::vector<std::string> exposed;
  std::string text = reg.expose_text();
  const std::string key = "le=\"";
  for (size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos)) {
    pos += key.size();
    std::string le = text.substr(pos, text.find('"', pos) - pos);
    if (le != "+Inf") exposed.push_back(le);
  }

  for (const auto* les : {&scraped, &exposed}) {
    ASSERT_EQ(les->size(), bounds.size());
    for (size_t i = 0; i < bounds.size(); ++i) {
      EXPECT_EQ(std::strtod((*les)[i].c_str(), nullptr), bounds[i]) << (*les)[i];
    }
  }
}

// ------------------------------------------------------- quantiles

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileUniformDistribution) {
  // 100 observations spread one per unit over (0, 100] with bounds every
  // 10: rank r lands in bucket ⌈r/10⌉ and interpolates linearly, so the
  // estimate equals the observation's own value.
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileFirstBucketInterpolatesFromZero) {
  // All mass in the first bucket (le=8): rank n/2 of n → halfway, 4.0.
  Histogram h({8.0, 16.0});
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
}

TEST(Histogram, QuantileOverflowClampsToHighestBound) {
  Histogram h({1.0, 2.0});
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, QuantileSkewedDistribution) {
  // 90 fast + 10 slow: p50 inside the fast bucket, p99 in the slow one.
  Histogram h({1.0, 100.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  // rank 50 of 90 in (0,1]: 50/90 of the way up.
  EXPECT_NEAR(h.quantile(0.50), 50.0 / 90.0, 1e-12);
  // rank 99: the 9th of 10 observations in (1,100].
  EXPECT_NEAR(h.quantile(0.99), 1.0 + 99.0 * (9.0 / 10.0), 1e-12);
}

TEST(Registry, QuantilesInScrapeAndExposition) {
  Registry reg;
  auto& fam = reg.histogram_family("lat_seconds", "latency", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) fam.histogram().observe(i < 50 ? 0.5 : 3.0);
  Snapshot snap = reg.scrape();
  const Sample* p50 = snap.find("lat_seconds_p50");
  const Sample* p95 = snap.find("lat_seconds_p95");
  const Sample* p99 = snap.find("lat_seconds_p99");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p95, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_DOUBLE_EQ(p50->value, 1.0);        // rank 50 tops out the (0,1] bucket
  EXPECT_GT(p95->value, 2.0);               // inside the (2,4] bucket
  EXPECT_LE(p99->value, 4.0);
  std::string text = reg.expose_text();
  EXPECT_NE(text.find("lat_seconds_p50 1"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_seconds_p95"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_p99"), std::string::npos);
}

TEST(RateMonitor, QuantilesFromSnapshot) {
  Registry reg;
  auto& fam = reg.histogram_family("lat_seconds", "latency",
                                   {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) fam.histogram().observe(i);
  Snapshot snap = reg.scrape();
  auto q = quantiles(snap, "lat_seconds");
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(q->p50, 50.0);
  EXPECT_DOUBLE_EQ(q->p95, 95.0);
  EXPECT_DOUBLE_EQ(q->p99, 99.0);
  EXPECT_FALSE(quantiles(snap, "absent_family").has_value());
}

// Build a snapshot by hand so rate math is exact.
Snapshot make_snap(uint64_t ns, double value) {
  Snapshot s;
  s.mono_ns = ns;
  s.samples.push_back({"reqs_total", {}, value});
  return s;
}

TEST(RateMonitor, InstantRateFromLastTwoPoints) {
  RateMonitor mon("reqs_total");
  EXPECT_FALSE(mon.observe(make_snap(0, 0)).has_value());
  auto r1 = mon.observe(make_snap(1'000'000'000, 100));  // +100 in 1s
  ASSERT_TRUE(r1.has_value());
  EXPECT_DOUBLE_EQ(*r1, 100.0);
  auto r2 = mon.observe(make_snap(3'000'000'000, 500));  // +400 in 2s
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(*r2, 200.0);
  EXPECT_DOUBLE_EQ(*mon.instant_rate(), 200.0);
}

TEST(RateMonitor, StabilityWithinOnePercent) {
  RateMonitor mon("reqs_total", {}, 0.01);
  mon.observe(make_snap(0, 0));
  mon.observe(make_snap(1'000'000'000, 1000));   // rate 1000
  EXPECT_FALSE(mon.stable());                    // only one rate so far
  mon.observe(make_snap(2'000'000'000, 2005));   // rate 1005: +0.5%
  EXPECT_TRUE(mon.stable());
  mon.observe(make_snap(3'000'000'000, 3200));   // rate 1195: +19%
  EXPECT_FALSE(mon.stable());
}

TEST(RateMonitor, MissingCounterYieldsNoRate) {
  RateMonitor mon("does_not_exist");
  Snapshot s;
  s.mono_ns = 5;
  EXPECT_FALSE(mon.observe(s).has_value());
}

TEST(Registry, ConcurrentScrapeDuringIncrements) {
  // TSan regression shape for the monitoring pipeline: writer threads
  // bump counters/gauges/histograms (hot path, lock-free atomics) while
  // a scraper thread snapshots and renders text exposition (cold path,
  // Registry -> Family lock order) and a third thread keeps registering
  // new children. Counter monotonicity across scrapes is the observable
  // invariant.
  Registry reg;
  Family& reqs = reg.counter_family("reqs_total", "requests");
  Family& lat = reg.histogram_family("lat", "latency", {1, 10, 100});
  Family& gauge = reg.gauge_family("credits", "credits");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      Counter& c = reqs.counter({{"lane", std::to_string(w)}});
      Histogram& h = lat.histogram();
      Gauge& g = gauge.gauge();
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.observe(static_cast<double>(w) * 7.0);
        g.add(1.0);
        g.sub(1.0);
      }
    });
  }
  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) {
      reqs.counter({{"lane", "extra" + std::to_string(i)}}).inc();
    }
  });
  double last_total = 0;
  for (int i = 0; i < 200; ++i) {
    Snapshot snap = reg.scrape();
    double total = 0;
    for (const auto& sample : snap.samples) {
      if (sample.name == "reqs_total") total += sample.value;
    }
    EXPECT_GE(total, last_total) << "counter aggregate went backwards";
    last_total = total;
    EXPECT_FALSE(reg.expose_text().empty());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  registrar.join();
}

TEST(HistogramSnapshot, MatchesLiveHistogram) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.observe(0.5 + i * 0.07);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, h.total_count());
  EXPECT_DOUBLE_EQ(s.sum, h.sum());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), h.quantile(q)) << q;
  }
  EXPECT_NEAR(s.mean(), h.sum() / 100.0, 1e-12);
}

TEST(HistogramSnapshot, DeltaIsolatesTheInterval) {
  // The sweep pattern: one cumulative histogram, per-point quantiles from
  // snapshot deltas. The second interval's quantiles must see only the
  // second interval's observations.
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);  // first interval: all small
  HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.observe(6.0);  // second: all in (4, 8]
  HistogramSnapshot d = h.snapshot().delta(before);
  EXPECT_EQ(d.count, 50u);
  EXPECT_DOUBLE_EQ(d.sum, 300.0);
  // Every delta observation is in the (4, 8] bucket; the cumulative
  // histogram's p50 would still sit in the first bucket.
  EXPECT_GT(d.quantile(0.5), 4.0);
  EXPECT_LE(h.quantile(0.5), 1.0);
}

TEST(HistogramSnapshot, DeltaRejectsMismatchedOrBackwards) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  a.observe(0.5);
  b.observe(0.5);
  HistogramSnapshot mism = a.snapshot().delta(b.snapshot());
  EXPECT_EQ(mism.count, 0u);
  EXPECT_EQ(mism.quantile(0.5), 0.0);

  HistogramSnapshot later = a.snapshot();
  a.observe(0.5);
  HistogramSnapshot backwards = later.delta(a.snapshot());
  EXPECT_EQ(backwards.count, 0u);
}

TEST(HistogramSnapshot, EmptyDeltaQuantileIsZero) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  HistogramSnapshot s = h.snapshot();
  HistogramSnapshot d = h.snapshot().delta(s);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.quantile(0.99), 0.0);
  EXPECT_EQ(d.mean(), 0.0);
}

TEST(Snapshot, FindHonorsLabels) {
  Snapshot s;
  s.samples.push_back({"m", {{"a", "1"}}, 10});
  EXPECT_NE(s.find("m", {{"a", "1"}}), nullptr);
  EXPECT_EQ(s.find("m", {{"a", "2"}}), nullptr);
  EXPECT_EQ(s.find("m"), nullptr);
}

}  // namespace
}  // namespace dpurpc::metrics

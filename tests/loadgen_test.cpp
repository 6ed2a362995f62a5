// Tests for the open-loop arrival schedule (DESIGN.md §3.19): the Poisson
// process's statistics and its determinism per seed, down to the exact
// arrival instants perfbench and fig12 replay.
#include "loadgen/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dpurpc::loadgen {
namespace {

std::vector<uint64_t> draw_arrivals(const ScheduleConfig& config, size_t n) {
  ArrivalSchedule s(config);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(s.next_arrival_ns());
  return out;
}

/// Mean and coefficient of variation of the inter-arrival gaps.
struct GapStats {
  double mean_ns = 0;
  double cv = 0;
};

GapStats gap_stats(const std::vector<uint64_t>& arrivals) {
  GapStats g;
  if (arrivals.size() < 2) return g;
  std::vector<double> gaps;
  gaps.reserve(arrivals.size() - 1);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(static_cast<double>(arrivals[i] - arrivals[i - 1]));
  }
  double sum = 0;
  for (double d : gaps) sum += d;
  g.mean_ns = sum / static_cast<double>(gaps.size());
  double var = 0;
  for (double d : gaps) var += (d - g.mean_ns) * (d - g.mean_ns);
  var /= static_cast<double>(gaps.size());
  g.cv = g.mean_ns > 0 ? std::sqrt(var) / g.mean_ns : 0;
  return g;
}

/// Index of dispersion of counts: variance/mean of per-window arrival
/// counts. ~1 for Poisson.
double dispersion(const std::vector<uint64_t>& arrivals, uint64_t window_ns) {
  std::vector<uint64_t> counts((arrivals.back() / window_ns) + 1, 0);
  for (uint64_t a : arrivals) ++counts[a / window_ns];
  double mean = static_cast<double>(arrivals.size()) /
                static_cast<double>(counts.size());
  double var = 0;
  for (uint64_t c : counts) {
    double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(counts.size());
  return mean > 0 ? var / mean : 0;
}

TEST(ArrivalSchedule, SameSeedSameSequence) {
  ScheduleConfig config;
  config.rate_rps = 50'000;
  config.seed = 1234;
  EXPECT_EQ(draw_arrivals(config, 5000), draw_arrivals(config, 5000));
}

// The exact draw for one seed: benchmark runs are only comparable across
// builds while the same seed replays the same arrival instants.
TEST(ArrivalSchedule, PoissonDrawIsPinned) {
  ScheduleConfig config;
  config.rate_rps = 10'000;
  config.seed = 42;
  const std::vector<uint64_t> expected = {
      140713u,  242609u,  382100u,  396750u,  630332u,  640211u,
      725677u,  772340u,  804343u,  853817u,  855063u,  929235u,
      1044840u, 1146268u, 1321454u, 1612775u,
  };
  EXPECT_EQ(draw_arrivals(config, expected.size()), expected);
}

TEST(ArrivalSchedule, DifferentSeedDifferentSequence) {
  ScheduleConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(draw_arrivals(a, 100), draw_arrivals(b, 100));
}

TEST(ArrivalSchedule, ArrivalsAreNonDecreasing) {
  ScheduleConfig config;
  config.rate_rps = 200'000;
  auto arrivals = draw_arrivals(config, 20'000);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

TEST(ArrivalSchedule, PoissonMatchesRateAndIsMemoryless) {
  ScheduleConfig config;
  config.rate_rps = 100'000;  // 10 µs mean gap
  config.seed = 42;
  auto arrivals = draw_arrivals(config, 50'000);
  GapStats g = gap_stats(arrivals);
  // Mean inter-arrival = 1/rate within sampling noise.
  EXPECT_NEAR(g.mean_ns, 10'000.0, 500.0);
  // Exponential gaps: coefficient of variation 1.
  EXPECT_NEAR(g.cv, 1.0, 0.05);
  // Counts in fixed windows are Poisson: dispersion index ~1.
  EXPECT_LT(dispersion(arrivals, 1'000'000), 1.5);
}

}  // namespace
}  // namespace dpurpc::loadgen

// Arrival schedule for open-loop load generation.
//
// An open-loop generator launches requests at times drawn *in advance*
// from an arrival process, independent of when earlier requests complete
// (nanoPU's framing: tail latency under open-loop arrivals is the metric
// that matters for RPC systems — a closed-loop bench self-paces and can
// never show the latency-vs-offered-load knee). perfbench's Traffic fires
// these arrivals; fig12_openloop drives the same Traffic.
#pragma once

#include <cstdint>
#include <random>

#include "common/rng.hpp"

namespace dpurpc::loadgen {

struct ScheduleConfig {
  /// Mean offered rate, requests per second. Must be > 0.
  double rate_rps = 1000.0;
  uint64_t seed = kDefaultSeed;
};

/// Deterministic Poisson arrival times (exponential inter-arrival gaps at
/// `rate_rps`): same config → same sequence. Not thread-safe; one
/// instance per driver thread.
class ArrivalSchedule {
 public:
  explicit ArrivalSchedule(const ScheduleConfig& config);

  /// Nanosecond offset of the next arrival, measured from the schedule's
  /// epoch (the driver's start instant). Non-decreasing.
  uint64_t next_arrival_ns();

 private:
  double mean_gap_s_;
  std::mt19937_64 rng_;
  double now_s_ = 0;  ///< virtual clock, seconds since epoch
};

}  // namespace dpurpc::loadgen

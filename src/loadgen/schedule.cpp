#include "loadgen/schedule.hpp"

#include <cmath>

namespace dpurpc::loadgen {

ArrivalSchedule::ArrivalSchedule(const ScheduleConfig& config)
    : mean_gap_s_(1.0 / (config.rate_rps > 0 ? config.rate_rps : 1.0)),
      rng_(config.seed) {}

uint64_t ArrivalSchedule::next_arrival_ns() {
  // Inverse-CDF sampling rather than std::exponential_distribution: the
  // stdlib's algorithm is implementation-defined, and the schedule tests
  // pin deterministic sequences per seed. generate_canonical is in [0,1);
  // flip so log never sees 0.
  double u = std::generate_canonical<double, 53>(rng_);
  now_s_ += -mean_gap_s_ * std::log1p(-u);
  return static_cast<uint64_t>(now_s_ * 1e9);
}

}  // namespace dpurpc::loadgen

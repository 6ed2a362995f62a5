// Traffic against the deployment: open-loop Poisson phases, a closed-loop
// capacity probe, and the background bulk stream.
//
// Arrivals are fired from this program's own loop over a deterministic
// loadgen::ArrivalSchedule, so each request's scheduled instant is known
// exactly: latency is charged from it (coordinated-omission safe), the
// generator's lateness is measured per arrival, and every percentile is
// computed from raw per-request samples rather than histogram buckets.
// Every reply is compared byte for byte with the reply its input must get.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "deployment.hpp"
#include "xrpc/channel.hpp"

namespace perfbench {

/// Share of each Kind in a workload's unary calls.
using Mix = std::array<double, kKinds>;

struct PhaseSpec {
  double rate_rps = 1000;
  double warm_s = 0.5;     ///< arrivals before this are verified, not measured
  double measure_s = 2.0;
  uint64_t seed = 1;
};

/// Outcome counts over every arrival of a phase (warmup included).
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t errors = 0;    ///< non-OK status, or refused at submit
  uint64_t wrong = 0;     ///< OK status with a reply that differs from the expected one
  uint64_t timeouts = 0;  ///< no reply within the timeout
  uint64_t drops = 0;     ///< outstanding cap hit
  uint64_t failed() const noexcept { return errors + wrong + timeouts + drops; }
  void add(const Outcomes& o) noexcept {
    attempted += o.attempted;
    errors += o.errors;
    wrong += o.wrong;
    timeouts += o.timeouts;
    drops += o.drops;
  }
};

/// Latencies of one ~0.5 s slice of a measured window, cut by scheduled
/// arrival. Percentiles are taken per slice and reported as the median
/// over slices, so one multi-millisecond hiccup of the host moves one
/// slice, not the run.
struct Slice {
  std::vector<uint64_t> latency_ns;   ///< OK calls, from scheduled arrival
  std::vector<uint64_t> lateness_ns;  ///< how late each arrival was fired
};

struct PhaseResult {
  Outcomes outcomes;
  std::vector<Slice> slices;  ///< measured window only
  uint64_t ok_calls = 0;      ///< OK calls in the measured window
  /// Request + reply payload bytes of OK calls in the window.
  uint64_t payload_bytes = 0;
  double measure_s = 0;

  /// Fold another phase's window into this one.
  void merge(PhaseResult&& o);
};

/// Called with `true` when the arrival loop enters the measured window and
/// `false` when it leaves it (snapshot hooks for per-layer counters).
using WindowHook = std::function<void(bool begin)>;

struct CapacityResult {
  std::vector<double> rates;   ///< completed calls/s in each 0.25 s slice
  uint64_t payload_bytes = 0;  ///< request + reply bytes of OK calls in the window
  double measure_s = 0;
};

class Traffic {
 public:
  /// `inputs` must outlive the Traffic object.
  Traffic(uint16_t port, const Inputs& inputs, Mix mix);
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  Status connect();

  PhaseResult open_loop(const PhaseSpec& spec, const WindowHook& hook = {});

  /// Closed loop: keep `window` calls in flight, so the system paces the
  /// completions; `hook` brackets the measured part.
  CapacityResult closed_loop(size_t window, double warm_s, double measure_s, uint64_t seed,
                             Outcomes& outcomes, const WindowHook& hook = {});

  /// One synchronous call, verified (set-up's first successful call).
  Status probe(Kind kind);

 private:
  uint16_t port_;
  const Inputs& inputs_;
  Mix mix_;
  std::unique_ptr<xrpc::Channel> channel_;
};

/// Continuous fig11-style bulk stream on its own channel: ~512 KiB
/// streams back to back, each checked against its final ack.
class BulkStream {
 public:
  BulkStream(uint16_t port, const Inputs& inputs, Bytes expected_ack);
  ~BulkStream();
  BulkStream(const BulkStream&) = delete;
  BulkStream& operator=(const BulkStream&) = delete;

  uint64_t bytes_written() const noexcept { return bytes_.load(); }
  uint64_t credit_stalls() const noexcept { return stalls_.load(); }
  /// Streams finished (attempted); of those, transport failures count as
  /// errors and a final ack that differs from the bytes sent as wrong.
  Outcomes outcomes() const;
  void stop();

 private:
  void loop(uint16_t port);

  const Inputs& inputs_;
  Bytes expected_ack_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> wrong_{0};
  std::thread thread_;
};

/// Exact nearest-rank percentile of raw samples (q in (0, 1]); 0 when empty.
double percentile(std::vector<uint64_t> v, double q);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// Median over the phase's slices of each slice's latency percentile `q`.
double slice_median_latency(const PhaseResult& r, double q);
/// Same, of the generator's lateness.
double slice_median_lateness(const PhaseResult& r, double q);

}  // namespace perfbench

// ResourceSampler: periodic resource-occupancy timelines for forensics.
//
// Span trees show where *one request's* time went; they cannot show what
// the queues were doing when it went there. The sampler closes that gap:
// registered probes (lane handoff-ring depths, CodecPool outstanding
// budget, worker busy fractions, rdmarpc credit occupancy, stream-budget
// holds) are read on a fixed period into per-probe time-series rings, and
// exported two ways:
//
//   - as Perfetto *counter tracks* (ph:"C" events) tiled alongside the
//     span tracks via TraceCollector::to_chrome_json's counters overload —
//     the queue-depth timeline sits directly under the request timeline;
//   - as gauges (`dpurpc_resource_occupancy{probe=...}`) holding the most
//     recent sample, so the timelines are scrapeable in-band through
//     dpurpc.Metrics/Scrape.
//
// The read side (`sample_once`) is the hot part: one probe call, one
// gauge store, one ring write per probe — no allocation, no locks, no
// waits (DPURPC_HOT_PATH; rings are preallocated by add_probe). Probes
// themselves must honor the same contract: read atomics, don't take
// locks.
//
// Threading: start() runs sample_once on a background thread;
// add_probe/series are configuration- and read-time calls, made before
// start() and after stop() respectively. Gauges are always safe to
// scrape concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/hot_path.hpp"
#include "metrics/metrics.hpp"
#include "trace/collector.hpp"

namespace dpurpc::trace {

class ResourceSampler {
 public:
  struct Options {
    /// Sampling period for the background thread (200µs default: fine
    /// enough to see ring ramps, coarse enough to stay invisible).
    uint64_t period_ns = 200'000;
    /// Per-probe ring capacity; older samples are overwritten.
    size_t capacity = 1 << 13;
  };
  /// A probe reads one occupancy value; called on the sampler thread.
  using ProbeFn = std::function<double()>;

  ResourceSampler() : ResourceSampler(Options{}) {}
  explicit ResourceSampler(Options options);
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Register a probe (before start()). Returns its index. The name
  /// becomes the counter-track title and the gauge's probe= label.
  size_t add_probe(std::string name, ProbeFn fn);

  /// Spawn the background sampling thread. stop() joins it.
  void start();
  void stop();

  /// One sampling pass over every probe: read, publish gauge, append to
  /// the ring. Callable standalone (tests, manual pacing) or via the
  /// background thread.
  DPURPC_HOT_PATH void sample_once();

  /// The recorded timelines, oldest sample first, ready for
  /// TraceCollector::to_chrome_json's counters parameter. Call after
  /// stop() (or before start()) for a consistent view.
  std::vector<CounterSeries> series() const;

  size_t probe_count() const noexcept { return probes_.size(); }
  uint64_t samples_taken() const noexcept { return samples_taken_; }

 private:
  struct Point {
    uint64_t t_ns = 0;
    double value = 0;
  };
  struct Probe {
    std::string name;
    ProbeFn fn;
    metrics::Gauge* gauge = nullptr;
    std::vector<Point> ring;  ///< preallocated to Options::capacity
    uint64_t written = 0;
  };

  void run();

  Options options_;
  std::vector<Probe> probes_;
  uint64_t samples_taken_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace dpurpc::trace

// FlightRecorder: anomaly-triggered tail capture for the trace collector.
//
// Head sampling (1-in-N) keeps tracing cheap but throws away exactly the
// requests a tail investigation needs: the outliers. The flight recorder
// closes that gap — it sees *every* completed span tree the collector
// finalizes (sampled or not) and captures a full per-stage breakdown into
// a bounded reservoir when the request looks anomalous:
//
//   - latency trigger: end-to-end time above k× a rolling quantile of its
//     own history (the "> 3× rolling p99" rule);
//   - counter watches: externally registered cumulative counters (e.g.
//     xRPC credit stalls) polled between collector passes;
//     any increase arms a capture window so the next few completed trees
//     are retained regardless of latency — the trees that overlapped the
//     anomaly are the evidence.
//
// The trigger check itself (`should_capture`) runs once per completed
// tree on the collector thread and is allocation- and lock-free
// (DPURPC_HOT_PATH; the rolling quantile walks fixed histogram buckets).
// The capture path copies the tree — that cost is paid only for the
// outliers it exists to keep.
//
// Threading: single-threaded by design, like the collector that drives it
// (one collector, one draining thread). Readers (exemplars(), to_json())
// run after the collecting thread quiesces.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hot_path.hpp"
#include "metrics/metrics.hpp"
#include "trace/collector.hpp"

namespace dpurpc::trace {

/// Why an exemplar was captured.
enum class TriggerKind : uint8_t {
  kLatency = 0,   ///< e2e above the rolling-quantile threshold
  kTimeout,       ///< a watched timeout counter moved
  kDrop,          ///< a watched drop counter moved
  kCreditStall,   ///< a watched credit-stall counter moved
  kManual,        ///< arm() was called explicitly
  kTriggerCount
};
const char* trigger_name(TriggerKind k) noexcept;

/// One captured outlier: the full span tree plus why it was kept.
struct TailExemplar {
  uint64_t trace_id = 0;
  TriggerKind trigger = TriggerKind::kManual;
  uint64_t e2e_ns = 0;
  /// The rolling latency threshold (seconds) at capture time; 0 for
  /// window-triggered captures.
  double threshold_s = 0;
  SpanTree tree;
};

class FlightRecorder {
 public:
  struct Options {
    /// Latency trigger: capture when e2e > latency_factor × the
    /// rolling_quantile of the recorder's own e2e history.
    double latency_factor = 3.0;
    double rolling_quantile = 0.99;
    /// Observations before the latency trigger arms (a cold quantile on
    /// two samples would capture everything).
    uint64_t min_history = 64;
    /// Bounded reservoir: beyond this the oldest capture is overwritten.
    size_t reservoir_capacity = 64;
    /// Trees captured after a counter watch fires (the capture window).
    uint32_t anomaly_window = 8;
  };
  /// A watched cumulative counter; any increase between polls arms a
  /// capture window.
  using WatchFn = std::function<uint64_t()>;

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);

  /// Register a counter watch (before wiring into a collector).
  void watch_counter(TriggerKind kind, std::string name, WatchFn fn);

  /// Poll every watch; an observed increase arms the capture window. The
  /// collector calls this once per collect() pass.
  void poll_watches();

  /// Arm one capture window explicitly.
  void arm(TriggerKind kind) noexcept;

  /// The trigger check, once per completed tree: open capture window, or
  /// e2e above the rolling threshold. Records the winning trigger
  /// internally for offer() to consume. Allocation- and lock-free.
  DPURPC_HOT_PATH bool should_capture(uint64_t e2e_ns) noexcept;

  /// Offer one completed tree; returns true when it was captured into the
  /// reservoir. Also feeds the rolling e2e history.
  bool offer(const SpanTree& tree);

  /// Captures, oldest-first up to capacity (ring order is internal; the
  /// order here is unspecified once the reservoir wrapped).
  const std::vector<TailExemplar>& exemplars() const noexcept {
    return reservoir_;
  }
  uint64_t offered_total() const noexcept { return offered_; }
  uint64_t captured_total() const noexcept { return captured_; }
  uint64_t trigger_total(TriggerKind k) const noexcept {
    return trigger_counts_[static_cast<size_t>(k)];
  }
  /// The current latency threshold in seconds (0 until min_history).
  double rolling_threshold_s() const noexcept;

  /// The tail-exemplar dump: captures with per-stage breakdowns, trigger
  /// attribution, and the rolling-threshold context.
  std::string to_json() const;

 private:
  struct Watch {
    TriggerKind kind;
    std::string name;
    WatchFn fn;
    uint64_t last = 0;
    uint64_t fired = 0;
    bool primed = false;
  };

  void capture(const SpanTree& tree, TriggerKind kind, double threshold_s);

  Options options_;
  metrics::Histogram rolling_;  ///< e2e history behind the latency trigger
  std::vector<Watch> watches_;
  std::vector<TailExemplar> reservoir_;
  size_t next_slot_ = 0;
  uint32_t window_remaining_ = 0;
  TriggerKind window_trigger_ = TriggerKind::kManual;
  TriggerKind last_trigger_ = TriggerKind::kManual;  ///< set by should_capture
  double last_threshold_s_ = 0;
  uint64_t offered_ = 0;
  uint64_t captured_ = 0;
  uint64_t trigger_counts_[static_cast<size_t>(TriggerKind::kTriggerCount)] = {};
  metrics::Counter* trigger_counter_[static_cast<size_t>(TriggerKind::kTriggerCount)] = {};
};

}  // namespace dpurpc::trace

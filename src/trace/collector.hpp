// TraceCollector: the off-hot-path half of the tracing subsystem.
//
// Drains the Tracer's per-thread rings, reassembles spans into per-request
// trees keyed by trace id, feeds every span's duration into per-stage
// Histograms (so p50/p95/p99 per stage are scrapeable from the registry
// even when no full tree is retained), and applies *tail sampling*: full
// span trees are kept only for requests slower than a rolling quantile of
// the end-to-end latency, plus a deterministic 1-in-N so the fast path
// stays represented. Retained trees (and trace-less global events like
// simverbs block transfers) export as Chrome trace-event JSON — openable
// in Perfetto / chrome://tracing.
//
// Threading: one collector, one draining thread at a time (the Tracer's
// registry lock enforces single-drainer; the collector's own state is
// plain members). Producers never block on any of this.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace dpurpc::trace {

/// One reassembled span (SpanRecord minus the wire padding).
struct Span {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t arg = 0;
  uint32_t tid = 0;
  Stage stage = Stage::kRequest;
  uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// All spans of one traced request. `root()` is the Stage::kRequest span
/// (parent 0); stage spans are its children.
struct SpanTree {
  uint64_t trace_id = 0;
  std::vector<Span> spans;

  const Span* root() const noexcept {
    for (const auto& s : spans) {
      if (s.parent_span_id == 0) return &s;
    }
    return nullptr;
  }
  uint64_t duration_ns() const noexcept {
    const Span* r = root();
    return r != nullptr ? r->duration_ns() : 0;
  }
  /// Sum of non-root span durations — the per-stage attribution the Fig. 8
  /// decomposition checks against the root's end-to-end time.
  uint64_t stage_sum_ns() const noexcept {
    uint64_t sum = 0;
    for (const auto& s : spans) {
      if (s.parent_span_id != 0) sum += s.duration_ns();
    }
    return sum;
  }
};

/// One resource-occupancy timeline (name + (mono_ns, value) samples),
/// exported as a Perfetto counter track alongside the span tracks. The
/// ResourceSampler produces these; to_chrome_json consumes them.
struct CounterSeries {
  std::string name;
  std::vector<std::pair<uint64_t, double>> points;
};

class FlightRecorder;

class TraceCollector {
 public:
  struct Options {
    /// Tail sampling: retain a tree when its root duration exceeds this
    /// quantile of the end-to-end latencies this collector has seen.
    double tail_keep_quantile = 0.95;
    /// …plus every Nth completed trace regardless of latency (0 = never).
    uint32_t tail_keep_every = 32;
    /// Cap on retained trees; beyond it the oldest are evicted (counted).
    size_t max_retained = 4096;
    /// Cap on buffered trace-less global events.
    size_t max_global_events = 8192;
    /// Completed-root-less traces are discarded after this many collect()
    /// calls without their root arriving (ring drops orphan spans).
    uint32_t orphan_max_age = 4;
  };

  TraceCollector() : TraceCollector(Options{}) {}
  explicit TraceCollector(Options options);

  /// Drain the rings, feed histograms, finalize trees whose root span has
  /// arrived, retain per the tail-sampling policy.
  void collect();

  /// Attach a flight recorder: every finalized tree is offered to it
  /// (before the tail-sampling keep decision — captured trees are always
  /// retained), and its counter watches are polled once per collect().
  /// The recorder must outlive the collector or be detached (nullptr).
  /// Captures also land as OpenMetrics exemplars on the e2e histogram.
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Move out the retained trees (completed order).
  std::vector<SpanTree> take_retained();
  const std::vector<SpanTree>& retained() const noexcept { return retained_; }
  const std::vector<Span>& global_events() const noexcept { return globals_; }

  uint64_t traces_completed() const noexcept { return traces_completed_; }
  uint64_t traces_retained() const noexcept { return traces_retained_; }
  uint64_t traces_evicted() const noexcept { return traces_evicted_; }
  uint64_t orphans_dropped() const noexcept { return orphans_dropped_; }
  /// Traces still waiting for their root span (quiesce check).
  size_t pending_traces() const noexcept { return pending_.size(); }

  /// The live per-stage histogram (seconds) in the process registry,
  /// shared by every collector: read it as snapshot deltas. Never null.
  const metrics::Histogram* stage_histogram(Stage stage) const noexcept {
    return stage_hist_[static_cast<size_t>(stage)];
  }

  /// Chrome trace-event JSON ("traceEvents" of ph:"X" complete events,
  /// ts/dur in microseconds) for the currently retained trees + globals.
  std::string export_chrome_json() const;

  /// Same, for an explicit set (the exporter golden test uses this).
  static std::string to_chrome_json(const std::vector<SpanTree>& trees,
                                    const std::vector<Span>& globals = {});

  /// Span tracks plus resource counter tracks (ph:"C" events, one track
  /// per CounterSeries) tiled in the same timeline. With `counters`
  /// empty the output is byte-identical to the two-argument overload.
  static std::string to_chrome_json(const std::vector<SpanTree>& trees,
                                    const std::vector<Span>& globals,
                                    const std::vector<CounterSeries>& counters);

 private:
  struct PendingTrace {
    std::vector<Span> spans;
    uint64_t first_seen_collect = 0;
  };

  void finalize(uint64_t trace_id, PendingTrace&& pending);

  Options options_;
  metrics::Histogram* stage_hist_[static_cast<size_t>(Stage::kStageCount)] = {};
  metrics::Histogram* request_hist_ = nullptr;  ///< alias of kRequest's hist
  /// Unregistered e2e history behind the tail-keep threshold: the
  /// registry's request histogram is shared with every other collector in
  /// the process, this one sees only this collector's trees.
  metrics::Histogram tail_hist_;
  metrics::Counter* drop_counter_ = nullptr;
  metrics::Counter* orphan_counter_ = nullptr;
  metrics::Counter* evict_counter_ = nullptr;
  FlightRecorder* recorder_ = nullptr;

  std::vector<SpanRecord> scratch_;
  std::unordered_map<uint64_t, PendingTrace> pending_;
  std::vector<SpanTree> retained_;
  std::vector<Span> globals_;
  uint64_t collect_count_ = 0;
  uint64_t traces_completed_ = 0;
  uint64_t traces_retained_ = 0;
  uint64_t traces_evicted_ = 0;
  uint64_t orphans_dropped_ = 0;
};

}  // namespace dpurpc::trace

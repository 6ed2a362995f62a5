#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace dpurpc::trace {
namespace {

// Rolling e2e-latency history bounds, seconds: 1µs .. 1s in a 1-2-5
// ladder. Wide enough that the quantile estimator interpolates rather
// than clamping for every realistic datapath latency.
std::vector<double> rolling_bounds() {
  return {1e-6,  2e-6,  5e-6,  1e-5,  2e-5,  5e-5,  1e-4,  2e-4,
          5e-4,  1e-3,  2e-3,  5e-3,  1e-2,  2e-2,  5e-2,  1e-1,
          2e-1,  5e-1,  1.0};
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

const char* trigger_name(TriggerKind k) noexcept {
  switch (k) {
    case TriggerKind::kLatency:
      return "latency";
    case TriggerKind::kTimeout:
      return "timeout";
    case TriggerKind::kDrop:
      return "drop";
    case TriggerKind::kCreditStall:
      return "credit_stall";
    case TriggerKind::kManual:
      return "manual";
    case TriggerKind::kTriggerCount:
      break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options)
    : options_(options), rolling_(rolling_bounds()) {
  if (options_.reservoir_capacity == 0) options_.reservoir_capacity = 1;
  reservoir_.reserve(options_.reservoir_capacity);
  auto& family = metrics::default_registry().counter_family(
      "dpurpc_flight_recorder_captures_total",
      "Tail exemplars captured by the flight recorder, by trigger");
  for (size_t i = 0; i < static_cast<size_t>(TriggerKind::kTriggerCount); ++i) {
    trigger_counter_[i] = &family.counter(
        {{"trigger", trigger_name(static_cast<TriggerKind>(i))}});
  }
}

void FlightRecorder::watch_counter(TriggerKind kind, std::string name,
                                   WatchFn fn) {
  watches_.push_back(Watch{kind, std::move(name), std::move(fn), 0, 0, false});
}

void FlightRecorder::poll_watches() {
  for (Watch& w : watches_) {
    uint64_t now = w.fn ? w.fn() : 0;
    // The first poll only baselines: increments that predate the recorder
    // are history, not anomalies.
    if (w.primed && now > w.last) {
      w.fired += now - w.last;
      arm(w.kind);
    }
    w.last = now;
    w.primed = true;
  }
}

void FlightRecorder::arm(TriggerKind kind) noexcept {
  window_remaining_ = options_.anomaly_window;
  window_trigger_ = kind;
}

DPURPC_HOT_PATH bool FlightRecorder::should_capture(uint64_t e2e_ns) noexcept {
  if (window_remaining_ > 0) {
    last_trigger_ = window_trigger_;
    last_threshold_s_ = 0;
    return true;
  }
  if (rolling_.total_count() >= options_.min_history) {
    double threshold =
        options_.latency_factor * rolling_.quantile(options_.rolling_quantile);
    if (threshold > 0 && static_cast<double>(e2e_ns) * 1e-9 > threshold) {
      last_trigger_ = TriggerKind::kLatency;
      last_threshold_s_ = threshold;
      return true;
    }
  }
  return false;
}

bool FlightRecorder::offer(const SpanTree& tree) {
  ++offered_;
  uint64_t e2e_ns = tree.duration_ns();
  bool take = should_capture(e2e_ns);
  // Feed the history *after* the check so a burst of equally-slow
  // requests doesn't instantly raise its own threshold past itself.
  rolling_.observe(static_cast<double>(e2e_ns) * 1e-9);
  if (!take) return false;
  if (window_remaining_ > 0) --window_remaining_;
  capture(tree, last_trigger_, last_threshold_s_);
  return true;
}

double FlightRecorder::rolling_threshold_s() const noexcept {
  if (rolling_.total_count() < options_.min_history) return 0;
  return options_.latency_factor * rolling_.quantile(options_.rolling_quantile);
}

void FlightRecorder::capture(const SpanTree& tree, TriggerKind kind,
                             double threshold_s) {
  ++captured_;
  ++trigger_counts_[static_cast<size_t>(kind)];
  trigger_counter_[static_cast<size_t>(kind)]->inc();
  TailExemplar ex;
  ex.trace_id = tree.trace_id;
  ex.trigger = kind;
  ex.e2e_ns = tree.duration_ns();
  ex.threshold_s = threshold_s;
  ex.tree = tree;
  if (reservoir_.size() < options_.reservoir_capacity) {
    reservoir_.push_back(std::move(ex));
  } else {
    reservoir_[next_slot_] = std::move(ex);
    next_slot_ = (next_slot_ + 1) % options_.reservoir_capacity;
  }
}

std::string FlightRecorder::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{";
  append(out, "\"offered\":%llu,\"captured\":%llu,",
         static_cast<unsigned long long>(offered_),
         static_cast<unsigned long long>(captured_));
  append(out, "\"rolling_threshold_us\":%.3f,", rolling_threshold_s() * 1e6);
  out += "\"triggers\":{";
  for (size_t i = 0; i < static_cast<size_t>(TriggerKind::kTriggerCount);
       ++i) {
    if (i != 0) out += ",";
    append(out, "\"%s\":%llu", trigger_name(static_cast<TriggerKind>(i)),
           static_cast<unsigned long long>(trigger_counts_[i]));
  }
  out += "},\"exemplars\":[";
  for (size_t i = 0; i < reservoir_.size(); ++i) {
    const TailExemplar& ex = reservoir_[i];
    if (i != 0) out += ",";
    append(out, "{\"trace_id\":\"%016llx\",\"trigger\":\"%s\",",
           static_cast<unsigned long long>(ex.trace_id),
           trigger_name(ex.trigger));
    append(out, "\"e2e_us\":%.3f,\"threshold_us\":%.3f,\"stage_sum_us\":%.3f,",
           static_cast<double>(ex.e2e_ns) / 1e3, ex.threshold_s * 1e6,
           static_cast<double>(ex.tree.stage_sum_ns()) / 1e3);
    out += "\"stages\":[";
    const Span* root = ex.tree.root();
    uint64_t t0 = root != nullptr ? root->start_ns : 0;
    bool first = true;
    for (const Span& s : ex.tree.spans) {
      if (s.parent_span_id == 0) continue;
      if (!first) out += ",";
      first = false;
      append(out, "{\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}",
             stage_name(s.stage),
             static_cast<double>(s.start_ns - t0) / 1e3,
             static_cast<double>(s.duration_ns()) / 1e3);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace dpurpc::trace

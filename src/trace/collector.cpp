#include "trace/collector.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "trace/flight_recorder.hpp"

namespace dpurpc::trace {

namespace {

// Stage latencies span ~100ns (a queue-wait on an idle ring) to ~100ms (a
// stalled tail under load); log-ish buckets in seconds, Prometheus style.
std::vector<double> stage_seconds_bounds() {
  return {100e-9, 250e-9, 500e-9, 1e-6,  2.5e-6, 5e-6,  10e-6, 25e-6,
          50e-6,  100e-6, 250e-6, 500e-6, 1e-3,  2.5e-3, 5e-3, 10e-3,
          25e-3,  50e-3,  100e-3};
}

void append_json_event(std::string& out, const char* name, const Span& s,
                       uint64_t trace_id) {
  char buf[512];
  // Chrome trace-event "complete" event; ts/dur in microseconds (double,
  // so sub-µs spans keep their nanoseconds as fractions).
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"cat\":\"datapath\",\"ph\":\"X\","
      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
      "\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
      ",\"parent_span_id\":%" PRIu64 ",\"arg\":%" PRIu64 "}}",
      name, static_cast<double>(s.start_ns) / 1e3,
      static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, trace_id,
      s.span_id, s.parent_span_id, s.arg);
  out += buf;
}

Span from_record(const SpanRecord& r) {
  Span s;
  s.span_id = r.span_id;
  s.parent_span_id = r.parent_span_id;
  s.start_ns = r.start_ns;
  s.end_ns = r.end_ns;
  s.arg = r.arg;
  s.tid = r.tid;
  s.stage = static_cast<Stage>(r.stage);
  return s;
}

}  // namespace

TraceCollector::TraceCollector(Options options)
    : options_(options), tail_hist_(stage_seconds_bounds()) {
  metrics::Registry& reg = metrics::default_registry();
  auto& fam = reg.histogram_family(
      "dpurpc_trace_stage_seconds",
      "Per-request datapath stage durations from the trace subsystem",
      stage_seconds_bounds());
  for (size_t i = 0; i < static_cast<size_t>(Stage::kStageCount); ++i) {
    stage_hist_[i] =
        &fam.histogram({{"stage", stage_name(static_cast<Stage>(i))}});
  }
  request_hist_ = stage_hist_[static_cast<size_t>(Stage::kRequest)];
  drop_counter_ = &reg.counter_family(
                          "dpurpc_trace_ring_dropped_total",
                          "Span records dropped because a thread ring was full")
                       .counter();
  orphan_counter_ =
      &reg.counter_family(
              "dpurpc_trace_orphans_dropped_total",
              "Pending traces discarded because their root span never arrived")
           .counter();
  evict_counter_ = &reg.counter_family(
                           "dpurpc_trace_retained_evicted_total",
                           "Retained span trees evicted past max_retained")
                        .counter();
}

void TraceCollector::collect() {
  ++collect_count_;
  Tracer& tracer = Tracer::instance();

  // Poll the recorder's counter watches first so an anomaly seen now arms
  // the capture window for the trees this very pass finalizes.
  if (recorder_ != nullptr) recorder_->poll_watches();

  scratch_.clear();
  tracer.drain_into(scratch_);

  for (const SpanRecord& r : scratch_) {
    Span s = from_record(r);
    size_t stage_idx = std::min<size_t>(
        r.stage, static_cast<size_t>(Stage::kStageCount) - 1);
    double seconds = static_cast<double>(s.duration_ns()) / 1e9;
    stage_hist_[stage_idx]->observe(seconds);
    if (stage_idx == static_cast<size_t>(Stage::kRequest)) tail_hist_.observe(seconds);

    if (r.trace_id == 0) {  // global event: side track, never a tree member
      if (globals_.size() < options_.max_global_events) globals_.push_back(s);
      continue;
    }
    auto [it, inserted] = pending_.try_emplace(r.trace_id);
    if (inserted) it->second.first_seen_collect = collect_count_;
    it->second.spans.push_back(s);
  }

  // The root span is recorded last (by whoever called begin_trace, when the
  // request completes), so seeing it means the trace is complete modulo
  // records still in flight on other threads — those land next collect()
  // and would join a fresh pending entry; in practice the entry points
  // record the root after the response is fully observed, so stage records
  // drained in the same pass. Finalize root-bearing entries now.
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool has_root = false;
    for (const Span& s : it->second.spans) {
      if (s.parent_span_id == 0) {
        has_root = true;
        break;
      }
    }
    if (has_root) {
      finalize(it->first, std::move(it->second));
      it = pending_.erase(it);
    } else if (collect_count_ - it->second.first_seen_collect >=
               options_.orphan_max_age) {
      // Root never arrived (dropped to a full ring, or the request died).
      orphans_dropped_ += 1;
      orphan_counter_->inc();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  // Mirror ring drops into the registry so scrapes see trace loss. The
  // counter itself is the accounted total, shared by every collector.
  uint64_t drops = tracer.dropped_total();
  uint64_t accounted = drop_counter_->value();
  if (drops > accounted) drop_counter_->inc(drops - accounted);
}

void TraceCollector::finalize(uint64_t trace_id, PendingTrace&& pending) {
  traces_completed_ += 1;

  SpanTree tree;
  tree.trace_id = trace_id;
  tree.spans = std::move(pending.spans);

  // The flight recorder sees every completed tree, sampled or not; a
  // capture forces retention (the whole point: outliers survive 1-in-N)
  // and links the e2e histogram bucket to this trace via an exemplar.
  bool captured = recorder_ != nullptr && recorder_->offer(tree);
  if (captured) {
    request_hist_->put_exemplar(static_cast<double>(tree.duration_ns()) / 1e9,
                                trace_id);
  }

  // `1 % every` (not a literal 1) so every=1 means "keep everything" and
  // larger N still keeps the first completed trace.
  bool keep = captured ||
              (options_.tail_keep_every != 0 &&
               traces_completed_ % options_.tail_keep_every ==
                   1 % options_.tail_keep_every);
  if (!keep) {
    // Tail sampling: keep trees slower than the rolling pX of end-to-end
    // latency. Needs a populated histogram to be meaningful; early on
    // (cold histogram) the 1-in-N head retention above carries coverage.
    double threshold = tail_hist_.quantile(options_.tail_keep_quantile);
    double e2e = static_cast<double>(tree.duration_ns()) / 1e9;
    keep = tail_hist_.total_count() >= 16 && e2e >= threshold;
  }
  if (!keep) return;

  traces_retained_ += 1;
  retained_.push_back(std::move(tree));
  if (retained_.size() > options_.max_retained) {
    size_t excess = retained_.size() - options_.max_retained;
    retained_.erase(retained_.begin(),
                    retained_.begin() + static_cast<ptrdiff_t>(excess));
    traces_evicted_ += excess;
    evict_counter_->inc(excess);
  }
}

std::vector<SpanTree> TraceCollector::take_retained() {
  std::vector<SpanTree> out = std::move(retained_);
  retained_.clear();
  return out;
}

std::string TraceCollector::export_chrome_json() const {
  return to_chrome_json(retained_, globals_);
}

std::string TraceCollector::to_chrome_json(const std::vector<SpanTree>& trees,
                                           const std::vector<Span>& globals) {
  return to_chrome_json(trees, globals, {});
}

std::string TraceCollector::to_chrome_json(
    const std::vector<SpanTree>& trees, const std::vector<Span>& globals,
    const std::vector<CounterSeries>& counters) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanTree& t : trees) {
    // Root first, then stages in start order: Perfetto doesn't care, but it
    // makes the file stable for the golden test and pleasant to eyeball.
    std::vector<const Span*> ordered;
    ordered.reserve(t.spans.size());
    for (const Span& s : t.spans) ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const Span* a, const Span* b) {
                bool ra = a->parent_span_id == 0, rb = b->parent_span_id == 0;
                if (ra != rb) return ra;
                if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
                return a->span_id < b->span_id;
              });
    for (const Span* s : ordered) {
      if (!first) out += ",";
      first = false;
      append_json_event(out, stage_name(s->stage), *s, t.trace_id);
    }
  }
  for (const Span& s : globals) {
    if (!first) out += ",";
    first = false;
    append_json_event(out, stage_name(s.stage), s, 0);
  }
  // Counter tracks: one ph:"C" series per probe, tiled under the span
  // tracks (same pid, so Perfetto renders them in the same process group).
  for (const CounterSeries& cs : counters) {
    for (const auto& [t_ns, value] : cs.points) {
      if (!first) out += ",";
      first = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"resource\",\"ph\":\"C\","
                    "\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%g}}",
                    cs.name.c_str(), static_cast<double>(t_ns) / 1e3, value);
      out += buf;
    }
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

}  // namespace dpurpc::trace

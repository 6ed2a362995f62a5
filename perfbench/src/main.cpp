// perfbench_ledger: the measuring half of the benchmark (perfbench/run.py
// builds it, picks the pinned rates and turns its output into metrics).
//
//   perfbench_ledger e2e    --mix S,I,C --stream 0|1 --seed N --seconds T
//                           --light-rps R --load-rps R
//   perfbench_ledger traced (same flags)
//
// --mix gives the shares of Small, x512 Ints and x8000 Chars unary calls;
// --stream 1 adds the continuous bulk stream.
//
// e2e: end-to-end numbers with tracing off — set-up time (median of
// several builds), open-loop latency at the pinned light and loaded
// rates, host CPU per call at the loaded rate, closed-loop capacity and
// goodput.
// traced: the per-layer ledger — isolated layer micro-benchmarks, an
// untraced and a head-sampled traced light phase (stage split, tiling,
// overhead), and counters read from outside the datapath during a loaded
// phase.
//
// Human-readable lines go to stderr; the last stdout line is one flat
// JSON object of raw measurements.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/cpu_timer.hpp"
#include "deployment.hpp"
#include "layers.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

/// Deployments built per run: every build is a set-up sample, the last
/// kStands are also measured. Each build re-rolls where the scheduler
/// places the datapath threads, so the run's medians span placements.
constexpr int kSetupBuilds = 12;
constexpr int kStands = 8;
/// Calls kept in flight by the closed-loop capacity probe.
constexpr size_t kCapacityWindow = 16;
/// A generator whose p99 lateness exceeds this fell behind its schedule;
/// the run's latencies are then not trustworthy and run.py flags the run.
constexpr double kLatenessGuardUs = 1000.0;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string mode;
  Mix mix{};
  bool stream = false;
  uint64_t seed = 1;
  double seconds = 10, light_rps = 0, load_rps = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--mix") {
      char* end = nullptr;
      for (size_t k = 0; k < kKinds; ++k) {
        a.mix[k] = std::strtod(k == 0 ? v : end + 1, &end);
        if (*end != (k + 1 < kKinds ? ',' : '\0')) return false;
      }
    } else if (flag == "--stream") a.stream = std::strtoul(v, nullptr, 10) != 0;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--light-rps") a.light_rps = std::strtod(v, nullptr);
    else if (flag == "--load-rps") a.load_rps = std::strtod(v, nullptr);
    else return false;
  }
  double total = 0;
  for (double w : a.mix) {
    if (w < 0) return false;
    total += w;
  }
  return (a.mode == "e2e" || a.mode == "traced") && total > 0 && a.seconds > 0 &&
         a.light_rps > 0 && a.load_rps > 0;
}

/// The first kind the workload sends (set-up's probe call).
Kind first_kind(const Mix& mix) {
  for (size_t k = 0; k < kKinds; ++k) {
    if (mix[k] > 0) return static_cast<Kind>(k);
  }
  return Kind::kSmall;
}

double us(double ns) { return ns / 1000.0; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_json(const MetricList& m) {
  std::string s = "{";
  char buf[128];
  for (size_t i = 0; i < m.size(); ++i) {
    double v = std::isfinite(m[i].second) ? m[i].second : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(), v);
    s += buf;
  }
  s += "}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// A phase's latency percentiles (median over its slices), sample count
/// and generator lateness.
void put_phase(MetricList& out, const std::string& name, const PhaseResult& r) {
  const double p50 = us(slice_median_latency(r, 0.50));
  const double p95 = us(slice_median_latency(r, 0.95));
  const double p99 = us(slice_median_latency(r, 0.99));
  const double late = us(slice_median_lateness(r, 0.99));
  out.emplace_back(name + ".p50_us", p50);
  out.emplace_back(name + ".p95_us", p95);
  out.emplace_back(name + ".p99_us", p99);
  out.emplace_back(name + ".samples", static_cast<double>(r.ok_calls));
  out.emplace_back(name + ".lateness_p99_us", late);
  std::vector<uint64_t> pooled;
  for (const Slice& sl : r.slices) {
    pooled.insert(pooled.end(), sl.latency_ns.begin(), sl.latency_ns.end());
  }
  std::fprintf(stderr,
               "%-14s p50 %7.1f  p95 %7.1f  p99 %7.1f us  (%zu slices; pooled p99 %.1f, "
               "p99.9 %.1f us)  n=%" PRIu64 "  lateness p99 %.1f us\n",
               name.c_str(), p50, p95, p99, r.slices.size(), us(percentile(pooled, 0.99)),
               us(percentile(pooled, 0.999)), r.ok_calls, late);
}

/// The generator kept its schedule in a typical slice.
bool generator_valid(const PhaseResult& r) {
  return us(slice_median_lateness(r, 0.99)) <= kLatenessGuardUs;
}

/// The deployment plus its client side, built the way set-up is timed.
struct Stand {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Traffic> traffic;  // declared last: destroyed before the deployment
};

/// Build a stand: set-up ends at the first successful (verified) call.
bool build_stand(Stand& s, const Inputs& in, const Mix& mix, double& setup_s) {
  uint64_t t0 = WallTimer::now();
  s.d = std::make_unique<Deployment>();
  Status st = s.d->start();
  if (st.is_ok()) {
    s.traffic = std::make_unique<Traffic>(s.d->port(), in, mix);
    st = s.traffic->connect();
  }
  if (st.is_ok()) st = s.traffic->probe(first_kind(mix));
  setup_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
  if (!st.is_ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.to_string().c_str());
    return false;
  }
  return true;
}

/// Keeps the span rings drained while a traced phase runs.
class CollectPump {
 public:
  explicit CollectPump(trace::TraceCollector& c)
      : collector_(c), thread_([this] {
          while (!stop_.load()) {
            collector_.collect();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~CollectPump() { stop(); }
  CollectPump(const CollectPump&) = delete;
  CollectPump& operator=(const CollectPump&) = delete;

  /// Join, then drain on the caller until no trace waits for its root.
  void stop() {
    if (stop_.exchange(true)) return;
    thread_.join();
    uint64_t deadline = WallTimer::now() + 2'000'000'000ull;
    do {
      collector_.collect();
      if (collector_.pending_traces() == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (WallTimer::now() < deadline);
  }

 private:
  trace::TraceCollector& collector_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Samples queue occupancy from outside the datapath while a window runs.
class OccupancySampler {
 public:
  explicit OccupancySampler(const Deployment& d) : d_(d) {}
  ~OccupancySampler() { stop(); }
  OccupancySampler(const OccupancySampler&) = delete;
  OccupancySampler& operator=(const OccupancySampler&) = delete;

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        ring_depth_ += static_cast<double>(d_.proxy().codec_pool().lane_queue_depth(0));
        outstanding_ += static_cast<double>(d_.proxy().lane_outstanding(0));
        zero_credit_ += d_.dpu_conn().credits_available() == 0 ? 1 : 0;
        ++samples_;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Read after stop() (the join orders these reads after the writes).
  double ring_depth_mean() const { return ratio(ring_depth_, samples_); }
  double outstanding_mean() const { return ratio(outstanding_, samples_); }
  /// Share of samples that found the DPU side with no block credit left.
  double zero_credit_frac() const { return ratio(zero_credit_, samples_); }

 private:
  const Deployment& d_;
  std::atomic<bool> stop_{false};
  double ring_depth_ = 0, outstanding_ = 0, zero_credit_ = 0, samples_ = 0;
  std::thread thread_;
};

/// Counters read at the edges of a loaded window.
struct Snapshot {
  uint64_t host_cpu = 0, handler = 0, hint_retries = 0;
  uint64_t jobs = 0, steals = 0, busy = 0, scaled_busy = 0;
  uint64_t inline_codec = 0;
  uint64_t link_bytes = 0, dpu_ops = 0;
  uint64_t stream_bytes = 0, stream_stalls = 0;

  static Snapshot take(const Deployment& d, const BulkStream* bulk) {
    Snapshot s;
    s.host_cpu = d.host_cpu_ns();
    s.handler = d.handler_cpu_ns();
    s.hint_retries = d.block_hint_retries();
    const dpu::CodecPool& pool = d.proxy().codec_pool();
    for (size_t w = 0; w < pool.worker_count(); ++w) {
      dpu::CodecPool::WorkerStats ws = pool.worker_stats(w);
      s.jobs += ws.jobs;
      s.steals += ws.steals;
      s.busy += ws.busy_ns;
      s.scaled_busy += ws.scaled_busy_ns;
    }
    const grpccompat::DpuProxyStats& ps = d.proxy().stats();
    s.inline_codec = ps.inline_decodes.load() + ps.inline_serializes.load();
    s.link_bytes = d.dpu_conn().tx_counters().bytes.load() +
                   d.host_conn().tx_counters().bytes.load();
    s.dpu_ops = d.dpu_conn().tx_counters().ops.load();
    if (bulk != nullptr) {
      s.stream_bytes = bulk->bytes_written();
      s.stream_stalls = bulk->credit_stalls();
    }
    return s;
  }
};

int run_e2e(const Args& a) {
  const Mix& mix = a.mix;
  proto::DescriptorPool input_pool;
  parse_schema(input_pool);
  Inputs in = Inputs::make(input_pool, a.seed);

  std::vector<uint64_t> setup_ns;
  PhaseResult light, load;
  std::vector<double> capacity, host_cpu, goodput;
  Outcomes closed, streams;
  const double B = a.seconds / kStands;
  for (int r = 0; r < kSetupBuilds; ++r) {
    Stand stand;
    double s = 0;
    if (!build_stand(stand, in, mix, s)) return 1;
    setup_ns.push_back(static_cast<uint64_t>(s * 1e9));
    if (r < kSetupBuilds - kStands) continue;  // a set-up sample only

    const uint64_t seed = a.seed * 64 + static_cast<uint64_t>(r) * 4;
    std::unique_ptr<BulkStream> bulk;
    if (a.stream) {
      bulk = std::make_unique<BulkStream>(
          stand.d->port(), in, Inputs::ack_wire(input_pool, in.stream_payload.size()));
    }
    Traffic& tr = *stand.traffic;
    light.merge(tr.open_loop({a.light_rps, 0.1 * B, 0.3 * B, seed + 1}));
    Snapshot before, after;
    PhaseResult ld = tr.open_loop({a.load_rps, 0.1 * B, 0.25 * B, seed + 2}, [&](bool begin) {
      (begin ? before : after) = Snapshot::take(*stand.d, bulk.get());
    });
    host_cpu.push_back(ratio(static_cast<double>(after.host_cpu - before.host_cpu),
                             static_cast<double>(ld.ok_calls)));
    load.merge(std::move(ld));
    // Goodput where the system paces completions: unary bytes of the
    // closed loop plus the bulk stream's bytes over the same window.
    uint64_t stream_bytes[2] = {0, 0};
    CapacityResult cap =
        tr.closed_loop(kCapacityWindow, 0.03 * B, 0.22 * B, seed + 3, closed, [&](bool begin) {
          stream_bytes[begin ? 0 : 1] = bulk ? bulk->bytes_written() : 0;
        });
    capacity.insert(capacity.end(), cap.rates.begin(), cap.rates.end());
    goodput.push_back(static_cast<double>(cap.payload_bytes + stream_bytes[1] - stream_bytes[0]) /
                      cap.measure_s / kMiB);
    if (bulk) {
      bulk->stop();
      streams.add(bulk->outcomes());
    }
  }
  Outcomes all = closed;
  all.add(streams);
  all.add(light.outcomes);
  all.add(load.outcomes);

  MetricList out;
  out.emplace_back("setup_s", percentile(setup_ns, 0.5) * 1e-9);
  put_phase(out, "light", light);
  put_phase(out, "load", load);
  out.emplace_back("capacity_rps", median(capacity));
  out.emplace_back("host_cpu_ns_per_call", median(host_cpu));
  out.emplace_back("goodput_mib_s", median(goodput));
  out.emplace_back("peak_rss_mib", peak_rss_mib());
  out.emplace_back("attempted", static_cast<double>(all.attempted));
  out.emplace_back("failed", static_cast<double>(all.failed()));
  out.emplace_back("wrong", static_cast<double>(all.wrong - streams.wrong));
  out.emplace_back("stream_wrong", static_cast<double>(streams.wrong));
  out.emplace_back("capacity_window", static_cast<double>(kCapacityWindow));
  out.emplace_back("generator_valid", generator_valid(light) && generator_valid(load) ? 1 : 0);
  std::fprintf(stderr, "setup          median %.4f s over %d builds\n",
               percentile(setup_ns, 0.5) * 1e-9, kSetupBuilds);
  std::fprintf(stderr, "capacity       %.0f rps (closed loop, %zu in flight, median of %zu slices)\n",
               median(capacity), kCapacityWindow, capacity.size());
  std::fprintf(stderr, "outcomes       attempted %" PRIu64 " errors %" PRIu64 " wrong %" PRIu64
                       " timeouts %" PRIu64 " drops %" PRIu64 "\n",
               all.attempted, all.errors, all.wrong, all.timeouts, all.drops);
  print_json(out);
  return 0;
}

/// Stage split of the traced unary calls (stream traces are excluded:
/// their root spans a whole transfer, not one call).
void put_stages(MetricList& out, std::vector<trace::SpanTree> trees) {
  constexpr size_t kStages = static_cast<size_t>(trace::Stage::kStageCount);
  std::array<std::vector<uint64_t>, kStages> per_tree;
  std::array<double, kStages> stage_sum{};
  double all_stage_sum = 0, e2e_sum = 0, traces = 0;
  for (const trace::SpanTree& t : trees) {
    const trace::Span* root = t.root();
    if (root == nullptr) continue;
    bool stream = false;
    for (const trace::Span& s : t.spans) stream |= s.stage == trace::Stage::kStreamTransfer;
    if (stream) continue;
    std::array<uint64_t, kStages> mine{};
    std::array<bool, kStages> seen{};
    for (const trace::Span& s : t.spans) {
      if (s.parent_span_id == 0) continue;
      auto i = static_cast<size_t>(s.stage);
      mine[i] += s.duration_ns();
      seen[i] = true;
    }
    for (size_t i = 0; i < kStages; ++i) {
      if (!seen[i]) continue;
      per_tree[i].push_back(mine[i]);
      stage_sum[i] += static_cast<double>(mine[i]);
    }
    all_stage_sum += static_cast<double>(t.stage_sum_ns());
    e2e_sum += static_cast<double>(root->duration_ns());
    ++traces;
  }
  for (size_t i = 0; i < kStages; ++i) {
    auto st = static_cast<trace::Stage>(i);
    if (st == trace::Stage::kRequest || st == trace::Stage::kSimverbsWrite ||
        st >= trace::Stage::kStreamTransfer) {
      continue;
    }
    std::string name = std::string("stage.") + trace::stage_name(st);
    out.emplace_back(name + ".p50_us", us(percentile(per_tree[i], 0.5)));
    out.emplace_back(name + ".sum_ns", stage_sum[i]);
  }
  out.emplace_back("trace.stage_sum_ns", all_stage_sum);
  out.emplace_back("trace.e2e_sum_ns", e2e_sum);
  out.emplace_back("trace.samples", traces);
}

int run_traced(const Args& a) {
  const Mix& mix = a.mix;
  const double S = a.seconds;
  MetricList out;
  if (!run_layers(0.3 * S, a.seed, out)) {
    std::fprintf(stderr, "perfbench: an isolated layer micro-benchmark returned a wrong result\n");
    out.emplace_back("layers_ok", 0);
  } else {
    out.emplace_back("layers_ok", 1);
  }

  proto::DescriptorPool input_pool;
  parse_schema(input_pool);
  Inputs in = Inputs::make(input_pool, a.seed);
  Stand stand;
  double setup_s = 0;
  if (!build_stand(stand, in, mix, setup_s)) return 1;
  std::unique_ptr<BulkStream> bulk;
  if (a.stream) {
    bulk = std::make_unique<BulkStream>(
        stand.d->port(), in, Inputs::ack_wire(input_pool, in.stream_payload.size()));
  }
  Traffic& tr = *stand.traffic;
  Outcomes all;

  PhaseResult light = tr.open_loop({a.light_rps, 0.05 * S, 0.15 * S, a.seed * 16 + 4});
  all.add(light.outcomes);
  put_phase(out, "untraced_light", light);

  trace::TraceConfig tc;
  tc.mode = trace::Mode::kSampled;
  tc.head_sample_every = 4;
  tc.ring_capacity = 1 << 16;
  trace::Tracer::instance().configure(tc);
  trace::TraceCollector::Options co;
  co.tail_keep_every = 1;  // keep every traced call: stage p50s need them all
  co.max_retained = 1 << 18;
  co.orphan_max_age = 1u << 30;
  trace::TraceCollector collector(co);
  PhaseResult traced;
  {
    CollectPump pump(collector);
    traced = tr.open_loop({a.light_rps, 0.05 * S, 0.15 * S, a.seed * 16 + 5});
    pump.stop();
  }
  trace::Tracer::instance().configure(trace::TraceConfig{});
  all.add(traced.outcomes);
  put_phase(out, "traced_light", traced);
  put_stages(out, collector.take_retained());

  Snapshot before, after;
  OccupancySampler sampler(*stand.d);
  PhaseResult load = tr.open_loop({a.load_rps, 0.05 * S, 0.25 * S, a.seed * 16 + 6},
                                  [&](bool begin) {
                                    if (begin) {
                                      before = Snapshot::take(*stand.d, bulk.get());
                                      sampler.start();
                                    } else {
                                      sampler.stop();
                                      after = Snapshot::take(*stand.d, bulk.get());
                                    }
                                  });
  all.add(load.outcomes);
  put_phase(out, "load", load);
  Outcomes streams;
  if (bulk) {
    bulk->stop();
    streams = bulk->outcomes();
    all.add(streams);
  }

  const double calls = static_cast<double>(load.ok_calls);
  auto d = [](uint64_t b, uint64_t e) { return static_cast<double>(e - b); };
  const double jobs = d(before.jobs, after.jobs);
  const double inline_codec = d(before.inline_codec, after.inline_codec);
  out.emplace_back("dpu.codec_busy_ns_per_call", ratio(d(before.busy, after.busy), calls));
  out.emplace_back("dpu.inline_spill_frac", ratio(inline_codec, jobs + inline_codec));
  out.emplace_back("dpu.steal_frac", ratio(d(before.steals, after.steals), jobs));
  out.emplace_back("dpu.ring_depth_mean", sampler.ring_depth_mean());
  out.emplace_back("simverbs.link_bytes_per_call",
                   ratio(d(before.link_bytes, after.link_bytes), calls));
  // Unary calls per DPU-side write. On mix_stream the writes also carry the
  // bulk stream's ~64 KiB fragments, which no counter separates, so there
  // the ratio understates unary batching.
  out.emplace_back("rdmarpc.msgs_per_block", ratio(calls, d(before.dpu_ops, after.dpu_ops)));
  out.emplace_back("rdmarpc.zero_credit_time_frac", sampler.zero_credit_frac());
  out.emplace_back("rdmarpc.block_hint_retries", d(before.hint_retries, after.hint_retries));
  out.emplace_back("xrpc.stream_credit_stalls", d(before.stream_stalls, after.stream_stalls));
  out.emplace_back("proxy.lane_outstanding_mean", sampler.outstanding_mean());
  out.emplace_back("proxy.deserialize_failures",
                   static_cast<double>(stand.d->proxy().stats().deserialize_failures.load()));
  out.emplace_back("host.protocol_cpu_ns_per_call",
                   ratio(d(before.host_cpu, after.host_cpu) - d(before.handler, after.handler),
                         calls));
  out.emplace_back("stream_mib_s",
                   d(before.stream_bytes, after.stream_bytes) / load.measure_s / kMiB);
  out.emplace_back("modeled.dpu_codec_busy_ns_per_call",
                   ratio(d(before.scaled_busy, after.scaled_busy), calls));
  out.emplace_back("attempted", static_cast<double>(all.attempted));
  out.emplace_back("failed", static_cast<double>(all.failed()));
  out.emplace_back("wrong", static_cast<double>(all.wrong - streams.wrong));
  out.emplace_back("stream_wrong", static_cast<double>(streams.wrong));
  out.emplace_back("generator_valid",
                   generator_valid(light) && generator_valid(traced) && generator_valid(load)
                       ? 1
                       : 0);
  print_json(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_ledger <e2e|traced> --mix S,I,C --stream 0|1 --seed N "
                 "--seconds T --light-rps R --load-rps R\n");
    return 2;
  }
  // Tracing stays off unless the traced pass turns it on, whatever
  // DPURPC_TRACE_FORCE says.
  trace::Tracer::instance().configure(trace::TraceConfig{});
  return a.mode == "e2e" ? run_e2e(a) : run_traced(a);
}

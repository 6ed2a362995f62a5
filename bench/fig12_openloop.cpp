// Fig. 12: open-loop tail latency vs. offered load over the full offload
// datapath (xRPC client → DPU proxy with full-duplex CodecPool → RPC over
// RDMA → host compat layer → back).
//
// A closed-loop bench self-paces — a slow system makes the bench issue
// fewer requests — so it can never show the latency-vs-offered-load
// knee. This harness drives perfbench's deployment and open-loop traffic
// (perfbench/src/deployment.* and traffic.*, compiled in as they are):
// Poisson arrivals fire independent of completions, latency is charged
// from the *scheduled* arrival (no coordinated omission), percentiles
// come from raw per-call samples (median over 0.5 s slices), every reply
// is compared byte for byte with the reply its request must get, and
// arrivals the datapath cannot absorb count as drops. The ladder is a
// pinned list of absolute rates; each rung runs one open-loop phase on a
// fresh client connection, and the knee is the first rung whose p99 blows
// past a multiple of the lightest rung's p99 or which sheds a meaningful
// share of its arrivals.
//
// Workload: perfbench mix_stream's shape, extended into a ladder. The
// paper's three synthetic messages are mixed per request (Small 60%,
// x512 Ints 30%, x8000 Chars 10%), each a real unary call through the
// proxy's offloaded decode and DPU-side response serialize, while
// perfbench's continuous bulk stream runs through the same proxy during
// every rung, so the unary tail is measured while the chunked-decode
// pipeline competes for the pool. --unary-only drops the stream; that
// curve is flatter, and on a 4-vCPU host it may not reach its knee below
// the top rung (a full run then fails the knee gate).
//
// --knee-forensics explains the knee instead of just locating it. The
// sweep runs under sampled tracing with a live collector, and per-stage
// share-of-e2e is attributed at every rung from the stage histogram
// deltas — which stage's share *grows* toward the knee is the
// bottleneck. Then the knee rung is re-run with the flight recorder
// armed (latency and credit-stall triggers), the resource sampler
// snapshotting lane rings, worker busy fractions, rdma credits and
// stream holds, and full tracing on: --trace-out gets a Perfetto
// timeline with span tracks tiled over the resource counter tracks, and
// --exemplars-out gets the captured tail-exemplar dump.
//
// Exit 3 when any unary call or bulk stream got an error or a wrong
// reply (every run, smoke included), or when a gate fails. Gates (full
// runs only):
//   - the curve has >= 5 points and the unloaded (lightest) p99 is finite;
//   - the knee is detected strictly below the heaviest rung — the sweep
//     must actually reach saturation, or the curve is meaningless;
//   - with --knee-forensics: the timeline carries >= 4 counter tracks
//     (>= 2 samples each), at least one captured exemplar's stage spans
//     tile its end-to-end time (sum/e2e in [0.5, 1.05]), the dominant
//     stage's share strictly grows from the unloaded rung to the knee,
//     and the re-run loses nothing (no orphaned traces, no ring drops).
//
// Usage: fig12_openloop [--quick] [--json <path>] [--unary-only]
//                       [--knee-forensics] [--forensics-json <path>]
//                       [--trace-out <path>] [--exemplars-out <path>]
#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "deployment.hpp"
#include "metrics/metrics.hpp"
#include "trace/collector.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/resource_sampler.hpp"
#include "trace/trace.hpp"
#include "traffic.hpp"

namespace {

using namespace dpurpc;
using perfbench::Outcomes;
using perfbench::PhaseResult;
using perfbench::PhaseSpec;

/// Offered load per rung, rps. 3000 and 6000 are perfbench mix_stream's
/// pinned light and load rates. On a 4-vCPU host the generator keeps its
/// schedule (lateness p99 in the tens of µs) up to the top rung.
constexpr double kLadder[] = {1500, 3000, 6000, 12000, 24000, 36000, 48000, 72000, 96000};
/// Smoke: every other rung, still five points from 1.5k rps to the top rung.
constexpr double kQuickLadder[] = {1500, 6000, 24000, 48000, 96000};
/// Knee: the first rung whose p99 exceeds this multiple of the lightest
/// rung's p99 …
constexpr double kKneeFactor = 3.0;
/// … or which loses more than this share of attempted calls to drops and
/// timeouts.
constexpr double kShedFraction = 0.01;
constexpr perfbench::Mix kMix = {0.6, 0.3, 0.1};
constexpr uint64_t kSeed = kDefaultSeed;

double us(double ns) { return ns / 1000.0; }

struct Rung {
  std::string label;  ///< "3000rps": bench JSON row identity
  double rate_rps = 0;
  PhaseResult run;
  double p50_us = 0, p95_us = 0, p99_us = 0, lateness_p99_us = 0;

  double shed() const {
    const Outcomes& o = run.outcomes;
    return o.attempted == 0 ? 0.0
                            : static_cast<double>(o.drops + o.timeouts) /
                                  static_cast<double>(o.attempted);
  }
  double achieved_rps() const {
    return run.measure_s > 0 ? static_cast<double>(run.ok_calls) / run.measure_s : 0.0;
  }
};

Rung make_rung(double rate_rps, PhaseResult run) {
  Rung r;
  r.label = std::to_string(static_cast<uint64_t>(rate_rps)) + "rps";
  r.rate_rps = rate_rps;
  r.run = std::move(run);
  r.p50_us = us(perfbench::slice_median_latency(r.run, 0.50));
  r.p95_us = us(perfbench::slice_median_latency(r.run, 0.95));
  r.p99_us = us(perfbench::slice_median_latency(r.run, 0.99));
  r.lateness_p99_us = us(perfbench::slice_median_lateness(r.run, 0.99));
  return r;
}

/// Index of the knee rung, -1 when no rung qualifies.
int find_knee(const std::vector<Rung>& rungs) {
  if (rungs.empty()) return -1;
  const double unloaded = rungs.front().p99_us;
  for (size_t i = 0; i < rungs.size(); ++i) {
    bool tail_blown = i > 0 && unloaded > 0 && rungs[i].p99_us > kKneeFactor * unloaded;
    // A rung that completed almost nothing has a meaningless p99; the
    // shed share catches it.
    if (tail_blown || rungs[i].shed() > kShedFraction) return static_cast<int>(i);
  }
  return -1;
}

// ------------------------------------------------------ knee forensics

constexpr size_t kNumStages = static_cast<size_t>(trace::Stage::kStageCount);

// Per-rung attribution row: each stage's share of the end-to-end time
// observed during that rung, from stage-histogram deltas.
struct StageShares {
  std::string label;
  uint64_t e2e_count = 0;  ///< traced requests the deltas cover
  std::array<double, kNumStages> share{};
};

using StageSnaps = std::array<metrics::HistogramSnapshot, kNumStages>;

StageSnaps snapshot_stages(const trace::TraceCollector& c) {
  StageSnaps snaps;
  for (size_t s = 0; s < kNumStages; ++s) {
    snaps[s] = c.stage_histogram(static_cast<trace::Stage>(s))->snapshot();
  }
  return snaps;
}

StageShares shares_between(const StageSnaps& before, const StageSnaps& after,
                           std::string label) {
  StageShares out;
  out.label = std::move(label);
  constexpr size_t kRoot = static_cast<size_t>(trace::Stage::kRequest);
  metrics::HistogramSnapshot e2e = after[kRoot].delta(before[kRoot]);
  out.e2e_count = e2e.count;
  if (!(e2e.sum > 0)) return out;  // nothing traced at this rung
  for (size_t s = 0; s < kNumStages; ++s) {
    if (s == kRoot) continue;
    out.share[s] = after[s].delta(before[s]).sum / e2e.sum;
  }
  return out;
}

// Background collect() pump: keeps the per-thread span rings drained
// while a load phase runs so ring drops stay at zero.
class CollectPump {
 public:
  explicit CollectPump(trace::TraceCollector& collector)
      : collector_(collector), thread_([this] {
          while (!stop_.load()) {
            collector_.collect();
            // 2ms between passes: at full-trace knee rates the 64Ki rings
            // hold far more than 2ms of spans, and fewer wakeups matter on
            // small hosts where the pump competes with the datapath.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}

  /// Join, then finish draining on the calling thread (the join is the
  /// happens-before edge that makes main-thread collect() safe). Loops
  /// until no trace is still waiting for its root span, bounded by the
  /// deadline — stragglers' responses may land after the run returns.
  void stop_and_drain(double deadline_s) {
    if (!stop_.exchange(true) && thread_.joinable()) thread_.join();
    uint64_t deadline =
        WallTimer::now() + static_cast<uint64_t>(deadline_s * 1e9);
    do {
      collector_.collect();
      if (collector_.pending_traces() == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (WallTimer::now() < deadline);
  }

  ~CollectPump() {
    if (!stop_.exchange(true) && thread_.joinable()) thread_.join();
  }

 private:
  trace::TraceCollector& collector_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig12_openloop: %s open: %s\n", what,
                 std::strerror(errno));
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void json_rung(FILE* f, const Rung& r) {
  const Outcomes& o = r.run.outcomes;
  std::fprintf(f,
               "\"attempted\": %" PRIu64 ", \"completed\": %" PRIu64
               ", \"dropped\": %" PRIu64 ", \"timeouts\": %" PRIu64
               ", \"errors\": %" PRIu64 ", \"wrong\": %" PRIu64
               ", \"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
               "\"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, "
               "\"lateness_p99_us\": %.2f",
               o.attempted, r.run.ok_calls, o.drops, o.timeouts, o.errors, o.wrong,
               r.rate_rps, r.achieved_rps(), r.p50_us, r.p95_us, r.p99_us,
               r.lateness_p99_us);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::smoke_mode();
  bool background_stream = true;
  bool forensics = false;
  std::string json_path, forensics_json_path, trace_out_path, exemplars_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--unary-only") {
      background_stream = false;
    } else if (arg == "--knee-forensics") {
      forensics = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--forensics-json" && i + 1 < argc) {
      forensics_json_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (arg == "--exemplars-out" && i + 1 < argc) {
      exemplars_path = argv[++i];
    }
  }

  perfbench::Deployment d;
  if (Status st = d.start(); !st.is_ok()) {
    std::fprintf(stderr, "fig12: deployment setup failed: %s\n", st.to_string().c_str());
    return 1;
  }
  proto::DescriptorPool pool;
  perfbench::parse_schema(pool);
  const perfbench::Inputs in = perfbench::Inputs::make(pool, kSeed);

  std::vector<double> ladder(std::begin(kLadder), std::end(kLadder));
  PhaseSpec spec;  // full runs: 0.5 s warm-up, 2 s measured
  if (quick) {
    // Smoke: prove the sweep walks >= 5 rungs and reports — the numbers
    // are meaningless at these durations.
    ladder.assign(std::begin(kQuickLadder), std::end(kQuickLadder));
    spec.warm_s = 0.05;
    spec.measure_s = 0.2;
  }

  std::printf("Fig. 12 — open-loop tail latency vs. offered load "
              "(Poisson arrivals%s)\n",
              background_stream ? ", background bulk stream" : "");
  std::printf("Mix: Small %.0f%% / x512 Ints %.0f%% / x8000 Chars %.0f%%; "
              "full xRPC->DPU->host datapath\n\n",
              kMix[0] * 100, kMix[1] * 100, kMix[2] * 100);

  std::unique_ptr<perfbench::BulkStream> bg;
  if (background_stream) {
    bg = std::make_unique<perfbench::BulkStream>(
        d.port(), in, perfbench::Inputs::ack_wire(pool, in.stream_payload.size()));
  }
  // One client connection per phase, so a saturated rung's overload
  // queue cannot bleed into the next; all stay alive until exit so
  // straggler completions land on live sockets.
  std::vector<std::unique_ptr<perfbench::Traffic>> clients;
  auto fresh_client = [&]() -> perfbench::Traffic* {
    clients.push_back(std::make_unique<perfbench::Traffic>(d.port(), in, kMix));
    if (Status st = clients.back()->connect(); !st.is_ok()) {
      std::fprintf(stderr, "fig12: connect: %s\n", st.to_string().c_str());
      return nullptr;
    }
    return clients.back().get();
  };

  // Knee-forensics phase A: sampled tracing across the whole sweep, a
  // live collector feeding the per-stage histograms, and histogram
  // snapshots bracketing every rung's measured window — the deltas
  // attribute each rung's e2e time to stages, so the curve comes with a
  // breakdown.
  std::unique_ptr<trace::TraceCollector> sweep_collector;
  std::unique_ptr<CollectPump> sweep_pump;
  std::vector<StageShares> shares;
  const int settle_ms = quick ? 40 : 150;
  const double drain_deadline_s = quick ? 1.0 : 3.0;
  if (forensics) {
    trace::TraceConfig tc;
    tc.mode = trace::Mode::kSampled;
    // 1-in-4: the attribution needs enough traced requests per rung for
    // stable share estimates; the recorder exists precisely because
    // outliers would not survive a sparser head sample.
    tc.head_sample_every = 4;
    // Sized before any traced thread exists — configure() only applies
    // the capacity to rings created afterwards.
    tc.ring_capacity = 1 << 16;
    trace::Tracer::instance().configure(tc);

    trace::TraceCollector::Options co;
    co.tail_keep_quantile = 0.99;
    // Stragglers finish well after their rung; never age them out as
    // orphans mid-sweep.
    co.orphan_max_age = 1u << 30;
    sweep_collector = std::make_unique<trace::TraceCollector>(co);
    sweep_pump = std::make_unique<CollectPump>(*sweep_collector);
  }

  std::vector<Rung> rungs;
  for (size_t i = 0; i < ladder.size(); ++i) {
    perfbench::Traffic* client = fresh_client();
    if (client == nullptr) return 1;
    spec.rate_rps = ladder[i];
    // Decorrelate rungs, deterministically: the same seed at every rung
    // would replay one arrival pattern across the whole ladder.
    spec.seed = kSeed + i;
    StageSnaps window_begin;
    perfbench::WindowHook hook;
    if (forensics) {
      hook = [&](bool begin) {
        if (begin) window_begin = snapshot_stages(*sweep_collector);
      };
    }
    Rung rung = make_rung(ladder[i], client->open_loop(spec, hook));
    if (forensics) {
      // Let the rung's last spans reach the collector before the closing
      // snapshot, so they charge to the rung that issued them.
      std::this_thread::sleep_for(std::chrono::milliseconds(settle_ms));
      shares.push_back(
          shares_between(window_begin, snapshot_stages(*sweep_collector), rung.label));
    }
    rungs.push_back(std::move(rung));
  }
  const int knee_index = find_knee(rungs);
  const double unloaded_p99_us = rungs.front().p99_us;

  // Knee-forensics phase B: re-run the knee rung (fallback: the heaviest
  // rung) with the full forensic kit armed — every request traced, the
  // flight recorder watching tail latency and xRPC credit stalls, and the
  // resource sampler snapshotting the proxy's queues.
  int target_index = -1;
  Rung rerun;
  std::unique_ptr<trace::TraceCollector> knee_collector;
  std::unique_ptr<trace::FlightRecorder> recorder;
  std::unique_ptr<trace::ResourceSampler> sampler;
  std::vector<trace::CounterSeries> counter_series;
  size_t counter_tracks = 0;
  size_t tiling_exemplars = 0;
  uint64_t rerun_ring_drops = 0;
  uint64_t rerun_orphans = 0;
  size_t rerun_pending = 0;
  if (forensics) {
    // Finish phase A before phase B drains: one collector at a time.
    sweep_pump->stop_and_drain(drain_deadline_s);
    sweep_pump.reset();

    target_index = knee_index >= 0 ? knee_index : static_cast<int>(rungs.size()) - 1;
    const Rung& target = rungs[static_cast<size_t>(target_index)];

    trace::TraceCollector::Options co;
    co.tail_keep_every = 8;  // thin the timeline; tail + captures still kept
    co.orphan_max_age = 1u << 30;
    knee_collector = std::make_unique<trace::TraceCollector>(co);

    // More sensitive than the library defaults: a shed-free knee keeps a
    // compact latency distribution (p99 and the extreme tail are the same
    // queueing mode), so 3x rolling p99 would never fire — 1.5x still
    // singles out the top fraction of a percent.
    trace::FlightRecorder::Options ro;
    ro.latency_factor = 1.5;
    ro.min_history = 32;
    recorder = std::make_unique<trace::FlightRecorder>(ro);
    recorder->watch_counter(
        trace::TriggerKind::kCreditStall, "dpurpc_xrpc_credit_stalls_total",
        [] {
          return metrics::default_counter(
                     "dpurpc_xrpc_credit_stalls_total",
                     "Client stream writes that blocked on the byte-credit "
                     "window")
              .value();
        });
    knee_collector->set_flight_recorder(recorder.get());

    sampler = std::make_unique<trace::ResourceSampler>();
    d.proxy().register_resource_probes(*sampler);

    trace::TraceConfig tc;
    tc.mode = trace::Mode::kFull;
    tc.ring_capacity = 1 << 16;
    trace::Tracer::instance().configure(tc);
    uint64_t ring_drops_before = trace::Tracer::instance().dropped_total();

    std::printf("knee forensics: re-running %s with the recorder armed\n",
                target.label.c_str());

    perfbench::Traffic* client = fresh_client();
    if (client == nullptr) return 1;
    spec.rate_rps = target.rate_rps;
    spec.seed = kSeed + 10'000;  // same arrival law, decorrelated pattern
    sampler->start();
    {
      CollectPump pump(*knee_collector);
      rerun = make_rung(target.rate_rps, client->open_loop(spec));
      sampler->stop();
      pump.stop_and_drain(drain_deadline_s);
    }
    trace::Tracer::instance().configure(trace::TraceConfig{});  // off

    rerun_ring_drops =
        trace::Tracer::instance().dropped_total() - ring_drops_before;
    rerun_orphans = knee_collector->orphans_dropped();
    rerun_pending = knee_collector->pending_traces();
    counter_series = sampler->series();
    for (const trace::CounterSeries& s : counter_series) {
      if (s.points.size() >= 2) ++counter_tracks;
    }
    for (const trace::TailExemplar& ex : recorder->exemplars()) {
      double ratio = ex.e2e_ns == 0
                         ? 0.0
                         : static_cast<double>(ex.tree.stage_sum_ns()) /
                               static_cast<double>(ex.e2e_ns);
      if (ratio >= 0.5 && ratio <= 1.05) ++tiling_exemplars;
    }
  }
  Outcomes stream_outcomes;
  if (bg) {
    bg->stop();  // stop the background flow before reporting
    stream_outcomes = bg->outcomes();
  }

  std::printf("\n%-9s %9s %9s %9s %9s %9s %8s %8s %9s\n", "load", "offered", "achieved",
              "p50_us", "p95_us", "p99_us", "drops", "timeouts", "late_p99");
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    std::printf("%-9s %9.0f %9.0f %9.1f %9.1f %9.1f %8" PRIu64 " %8" PRIu64 " %9.1f%s\n",
                r.label.c_str(), r.rate_rps, r.achieved_rps(), r.p50_us, r.p95_us,
                r.p99_us, r.run.outcomes.drops, r.run.outcomes.timeouts,
                r.lateness_p99_us,
                static_cast<int>(i) == knee_index ? "   <-- knee" : "");
  }
  if (knee_index >= 0) {
    const Rung& k = rungs[static_cast<size_t>(knee_index)];
    std::printf("\nknee: %s offered — p99 %.1f us vs unloaded %.1f us, %.2f%% shed\n",
                k.label.c_str(), k.p99_us, unloaded_p99_us, k.shed() * 100);
  } else {
    std::printf("\nknee: not detected — the ladder never saturated the "
                "datapath\n");
  }

  // ---- knee attribution report -----------------------------------------
  size_t dominant_stage = 0;  // kRequest (share always 0) until found
  double dominant_unloaded = 0, dominant_target = 0;
  // The knee driver: the stage whose e2e share *grew* the most from the
  // unloaded rung — under saturation that's the queueing stage that
  // explains the knee, regardless of which stage is largest in absolute
  // terms at light load.
  size_t driver_stage = 0;
  double driver_unloaded = 0, driver_target = 0;
  if (forensics) {
    const StageShares& tgt = shares[static_cast<size_t>(target_index)];
    std::array<size_t, kNumStages> order{};
    for (size_t s = 0; s < kNumStages; ++s) order[s] = s;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tgt.share[a] > tgt.share[b];
    });
    size_t ncols = 0;
    while (ncols < 5 && tgt.share[order[ncols]] > 0) ++ncols;

    std::printf("\nper-stage share of e2e (sampled traces; top stages at "
                "%s):\n",
                tgt.label.c_str());
    std::printf("%-9s %7s", "load", "traces");
    for (size_t c = 0; c < ncols; ++c) {
      std::printf(" %16s",
                  trace::stage_name(static_cast<trace::Stage>(order[c])));
    }
    std::printf("\n");
    for (const StageShares& row : shares) {
      std::printf("%-9s %7" PRIu64, row.label.c_str(), row.e2e_count);
      for (size_t c = 0; c < ncols; ++c) {
        std::printf(" %15.1f%%", row.share[order[c]] * 100);
      }
      std::printf("%s\n", &row == &tgt ? "   <-- forensics target" : "");
    }
    if (ncols > 0) {
      dominant_stage = order[0];
      dominant_target = tgt.share[dominant_stage];
      dominant_unloaded = shares.front().share[dominant_stage];
      for (size_t s = 0; s < kNumStages; ++s) {
        if (s == static_cast<size_t>(trace::Stage::kRequest)) continue;
        double growth = tgt.share[s] - shares.front().share[s];
        if (growth > tgt.share[driver_stage] - shares.front().share[driver_stage] ||
            driver_stage == 0) {
          driver_stage = s;
          driver_unloaded = shares.front().share[s];
          driver_target = tgt.share[s];
        }
      }
      std::printf("\ndominant stage at %s: %s — %.1f%% of e2e vs %.1f%% "
                  "unloaded\n",
                  tgt.label.c_str(),
                  trace::stage_name(static_cast<trace::Stage>(dominant_stage)),
                  dominant_target * 100, dominant_unloaded * 100);
      std::printf("knee driver (largest share growth): %s — %.1f%% -> %.1f%% "
                  "of e2e\n",
                  trace::stage_name(static_cast<trace::Stage>(driver_stage)),
                  driver_unloaded * 100, driver_target * 100);
    }
    std::printf("knee re-run: %" PRIu64 " completed, p99 %.1f us; recorder "
                "captured %" PRIu64 " of %" PRIu64 " trees (%zu tiling), "
                "%zu counter tracks, %" PRIu64 " orphans, %" PRIu64
                " ring drops, %zu pending at drain\n",
                rerun.run.ok_calls, rerun.p99_us, recorder->captured_total(),
                recorder->offered_total(), tiling_exemplars, counter_tracks,
                rerun_orphans, rerun_ring_drops, rerun_pending);
  }

  // ---- verification: every run, smoke included --------------------------
  bool failed = false;
  Outcomes unary = rerun.run.outcomes;
  for (const Rung& r : rungs) unary.add(r.run.outcomes);
  if (unary.errors + unary.wrong + stream_outcomes.errors + stream_outcomes.wrong != 0) {
    std::fprintf(stderr,
                 "FAIL: unary calls: %" PRIu64 " errors, %" PRIu64
                 " wrong replies; bulk streams: %" PRIu64 " errors, %" PRIu64
                 " wrong acks\n",
                 unary.errors, unary.wrong, stream_outcomes.errors, stream_outcomes.wrong);
    failed = true;
  }

  // ---- acceptance gates (full runs only: smoke rungs are too short
  // for the knee detector to be meaningful) ------------------------------
  if (!quick) {
    if (rungs.size() < 5) {
      std::fprintf(stderr, "FAIL: curve has %zu points, need >= 5\n", rungs.size());
      failed = true;
    }
    if (!(unloaded_p99_us > 0) || !std::isfinite(unloaded_p99_us)) {
      std::fprintf(stderr,
                   "FAIL: unloaded p99 is not finite/positive (%.2f us)\n",
                   unloaded_p99_us);
      failed = true;
    }
    if (knee_index < 0 || knee_index >= static_cast<int>(rungs.size()) - 1) {
      std::fprintf(stderr,
                   "FAIL: knee %s — the sweep must saturate strictly below "
                   "its heaviest point\n",
                   knee_index < 0 ? "not detected" : "only at the heaviest point");
      failed = true;
    }
    if (forensics) {
      if (counter_tracks < 4) {
        std::fprintf(stderr,
                     "FAIL: forensics timeline has %zu counter tracks with "
                     ">= 2 samples, need >= 4\n",
                     counter_tracks);
        failed = true;
      }
      if (recorder->captured_total() == 0 || tiling_exemplars == 0) {
        std::fprintf(stderr,
                     "FAIL: no captured tail exemplar whose stage spans tile "
                     "its e2e time (sum/e2e in [0.5, 1.05])\n");
        failed = true;
      }
      if (rerun_orphans != 0 || rerun_ring_drops != 0) {
        std::fprintf(stderr,
                     "FAIL: knee re-run lost data — %" PRIu64
                     " orphaned traces, %" PRIu64 " span-ring drops\n",
                     rerun_orphans, rerun_ring_drops);
        failed = true;
      }
      if (rerun_pending != 0) {
        // Warn only: the drain deadline bounds the wait for stragglers;
        // the exemplar/counter gates above are the real evidence check.
        std::fprintf(stderr,
                     "warn: %zu traces still pending at the drain deadline\n",
                     rerun_pending);
      }
      // Growth gate only when a real knee exists: without saturation there
      // is no queueing stage to grow, and the knee-detection gate above
      // already failed the run.
      if (knee_index > 0 && !(driver_target > driver_unloaded)) {
        std::fprintf(stderr,
                     "FAIL: attribution did not identify a dominant stage "
                     "whose e2e share grows from the unloaded point to the "
                     "knee\n");
        failed = true;
      }
    }
  }

  // Forensics artifacts are written even when a gate failed — a failing
  // run is exactly when the timeline and exemplars are wanted.
  if (forensics) {
    if (!trace_out_path.empty() &&
        !write_text_file(trace_out_path,
                         trace::TraceCollector::to_chrome_json(
                             knee_collector->retained(),
                             knee_collector->global_events(), counter_series),
                         "--trace-out")) {
      return 65;
    }
    if (!exemplars_path.empty() &&
        !write_text_file(exemplars_path, recorder->to_json(),
                         "--exemplars-out")) {
      return 65;
    }
    if (!forensics_json_path.empty()) {
      FILE* f = std::fopen(forensics_json_path.c_str(), "w");
      if (f == nullptr) {
        std::perror("fig12_openloop: --forensics-json open");
        return 65;
      }
      // Leaf naming matters: *_share / counter-track counts are
      // informational leaves for bench_diff.py — attribution shifting
      // between stages is the datapath's shape, not a regression.
      std::fprintf(f,
                   "{\n  \"benchmark\": \"fig12_forensics\",\n"
                   "  \"smoke\": %s,\n"
                   "  \"target_label\": \"%s\",\n"
                   "  \"dominant_stage\": \"%s\",\n"
                   "  \"dominant_share_unloaded\": %.4f,\n"
                   "  \"dominant_share_knee\": %.4f,\n"
                   "  \"driver_stage\": \"%s\",\n"
                   "  \"driver_share_unloaded\": %.4f,\n"
                   "  \"driver_share_knee\": %.4f,\n"
                   "  \"counter_tracks\": %zu,\n"
                   "  \"exemplars_captured\": %" PRIu64 ",\n"
                   "  \"tiling_exemplars\": %zu,\n"
                   "  \"orphaned_traces\": %" PRIu64 ",\n"
                   "  \"span_ring_drop_events\": %" PRIu64 ",\n"
                   "  \"pending_at_drain\": %zu,\n"
                   "  \"points\": [\n",
                   quick ? "true" : "false",
                   rungs[static_cast<size_t>(target_index)].label.c_str(),
                   trace::stage_name(static_cast<trace::Stage>(dominant_stage)),
                   dominant_unloaded, dominant_target,
                   trace::stage_name(static_cast<trace::Stage>(driver_stage)),
                   driver_unloaded, driver_target, counter_tracks,
                   recorder->captured_total(), tiling_exemplars, rerun_orphans,
                   rerun_ring_drops, rerun_pending);
      for (size_t i = 0; i < shares.size(); ++i) {
        const StageShares& row = shares[i];
        std::fprintf(f, "    {\"label\": \"%s\"", row.label.c_str());
        for (size_t s = 0; s < kNumStages; ++s) {
          if (s == static_cast<size_t>(trace::Stage::kRequest)) continue;
          std::fprintf(f, ", \"%s_share\": %.4f",
                       trace::stage_name(static_cast<trace::Stage>(s)),
                       row.share[s]);
        }
        std::fprintf(f, "}%s\n", i + 1 < shares.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", forensics_json_path.c_str());
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fig12_openloop: --json open");
      return 65;
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fig12_openloop\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"background_stream\": %s,\n"
                 "  \"stream_errors\": %" PRIu64 ",\n"
                 "  \"unloaded_p99_us\": %.2f,\n"
                 "  \"knee_detected\": %s,\n"
                 "  \"knee_offered_rps\": %.1f,\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", background_stream ? "true" : "false",
                 stream_outcomes.errors + stream_outcomes.wrong, unloaded_p99_us,
                 knee_index >= 0 ? "true" : "false",
                 knee_index >= 0 ? rungs[static_cast<size_t>(knee_index)].rate_rps : 0.0);
    for (size_t i = 0; i < rungs.size(); ++i) {
      std::fprintf(f, "    {\"label\": \"%s\", ", rungs[i].label.c_str());
      json_rung(f, rungs[i]);
      std::fprintf(f, "}%s\n", i + 1 < rungs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return failed ? 3 : 0;
}

// Ablation: what does the tracing subsystem cost the datapath?
//
// Runs the same offloaded rdmarpc loop (in-place deserialize, empty
// handler, empty response — the Fig. 8 Small shape) under five tracer
// configurations and reports ns/request:
//
//   off      runtime gate closed (Mode::kOff) — the shipping default
//   off2     the same again: the run-to-run noise floor
//   sampled  head sampling 1-in-64 (the production-monitoring setting)
//   rec      sampled + flight recorder on the collector (the tail-forensics
//            deployment shape: every completed tree trigger-checked)
//   full     every request traced, collector draining each loop turn
//
// The off/off2 pair is the regression check: tracing compiled in but
// disabled must cost nothing, so the two runs may differ only by noise
// (|off-off2|/off < 25%, enforced unless DPURPC_BENCH_SMOKE is set —
// smoke runs are too short to gate on). Compile-time removal
// (-DDPURPC_TRACE=OFF) strips the sites entirely and can only be faster.
//
// --json emits one machine-readable line for EXPERIMENTS.md bookkeeping.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/server.hpp"
#include "trace/collector.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dpurpc;
using bench::BenchEnv;

constexpr uint16_t kMethod = 7;
constexpr uint32_t kConcurrency = 1024;

// One timed pass over the datapath; returns wall ns per completed request.
// `collector` non-null = drain rings every loop turn (the deployment shape
// whenever tracing is on).
double run_pass(BenchEnv& env, const Bytes& wire, uint64_t requests,
                trace::TraceCollector* collector) {
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
  if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) std::abort();
  rdmarpc::RpcClient client(&dpu_conn);
  rdmarpc::RpcServer server(&host_conn);
  server.register_handler(kMethod, [](const rdmarpc::RequestView&, Bytes& out) {
    out.clear();
    return Status::ok();
  });

  uint64_t completed = 0, enqueued = 0;
  uint32_t small_class = env.small_class;
  uint64_t t0 = WallTimer::now();
  while (completed < requests) {
    while (enqueued - completed < kConcurrency && enqueued < requests) {
      // The entry-point instrumentation under test: begin (or sample away)
      // a context, thread it through the call, close the root on
      // completion. In kOff mode every one of these is the gated no-op the
      // hot path ships with.
      trace::TraceContext ctx;
      uint64_t start_ns = 0;
      if (trace::enabled()) {
        ctx = trace::Tracer::instance().begin_trace();
        if (ctx.active()) start_ns = WallTimer::now();
      }
      Status st = client.call_inplace(
          kMethod, static_cast<uint16_t>(small_class),
          static_cast<uint32_t>(wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
              -> StatusOr<uint32_t> {
            auto obj = env.deserializer->deserialize(small_class, ByteSpan(wire),
                                                     arena, xlate);
            if (!obj.is_ok()) return obj.status();
            return static_cast<uint32_t>(arena.used());
          },
          [&completed, ctx, start_ns](const Status&, const rdmarpc::InMessage&) {
            ++completed;
            if (ctx.active()) {
              trace::Tracer::instance().record_root(ctx, start_ns,
                                                    WallTimer::now());
            }
          },
          ctx);
      if (!st.is_ok()) break;  // backpressure: pump the loops
      ++enqueued;
    }
    if (!client.event_loop_once().is_ok()) std::abort();
    if (!server.event_loop_once().is_ok()) std::abort();
    if (collector != nullptr) collector->collect();
  }
  uint64_t elapsed = WallTimer::now() - t0;
  return static_cast<double>(elapsed) / static_cast<double>(completed);
}

void configure(trace::Mode mode) {
  trace::TraceConfig c;
  c.mode = mode;
  c.head_sample_every = 64;
  c.ring_capacity = 1 << 14;
  trace::Tracer::instance().configure(c);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = std::getenv("DPURPC_BENCH_SMOKE") != nullptr;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--quick") == 0) smoke = true;
  }
  const uint64_t requests = smoke ? 4000 : 200000;

  static BenchEnv env;
  Bytes wire = bench::make_small_wire(env);

  // The collector lives across modes; its histograms are only fed while
  // tracing is on.
  trace::TraceCollector collector;

  // The rec mode's deployment shape: a second collector with a flight
  // recorder attached, so every finalized tree pays the trigger check
  // (rolling-quantile compare) and every collect() pays the watch poll.
  trace::FlightRecorder recorder;
  trace::TraceCollector rec_collector;
  rec_collector.set_flight_recorder(&recorder);

  configure(trace::Mode::kOff);
  (void)run_pass(env, wire, std::max<uint64_t>(1000, requests / 10), nullptr);  // warmup

  // Interleaved repetitions, per-mode minimum: a shared host's scheduler
  // noise routinely swings a single pass 50%+, and the minimum is the run
  // least disturbed by it — the right statistic for an overhead bound.
  const int reps = smoke ? 1 : 5;
  double off_ns = 1e300, off2_ns = 1e300, sampled_ns = 1e300,
         rec_ns = 1e300, full_ns = 1e300;
  for (int r = 0; r < reps; ++r) {
    configure(trace::Mode::kOff);
    off_ns = std::min(off_ns, run_pass(env, wire, requests, nullptr));
    configure(trace::Mode::kOff);
    off2_ns = std::min(off2_ns, run_pass(env, wire, requests, nullptr));
    configure(trace::Mode::kSampled);
    sampled_ns = std::min(sampled_ns, run_pass(env, wire, requests, &collector));
    configure(trace::Mode::kSampled);
    rec_ns = std::min(rec_ns, run_pass(env, wire, requests, &rec_collector));
    configure(trace::Mode::kFull);
    full_ns = std::min(full_ns, run_pass(env, wire, requests, &collector));
  }
  trace::Tracer::instance().configure(trace::TraceConfig{});

  double off_base = std::min(off_ns, off2_ns);
  double off_delta = std::abs(off_ns - off2_ns) / off_base;
  double sampled_over = sampled_ns / off_base - 1.0;
  double rec_over = rec_ns / off_base - 1.0;
  double recorder_over = rec_ns / sampled_ns - 1.0;  // the recorder itself
  double full_over = full_ns / off_base - 1.0;

  if (json) {
    std::printf("{\"requests\":%" PRIu64
                ",\"off_ns\":%.1f,\"off2_ns\":%.1f,\"sampled_ns\":%.1f,"
                "\"rec_ns\":%.1f,\"full_ns\":%.1f,\"off_delta\":%.4f,"
                "\"sampled_overhead\":%.4f,\"recorder_overhead\":%.4f,"
                "\"full_overhead\":%.4f,"
                "\"recorder_offered\":%" PRIu64
                ",\"traces_completed\":%" PRIu64 ",\"ring_drops\":%" PRIu64 "}\n",
                requests, off_ns, off2_ns, sampled_ns, rec_ns, full_ns,
                off_delta, sampled_over, recorder_over, full_over,
                recorder.offered_total(), collector.traces_completed(),
                trace::Tracer::instance().dropped_total());
  } else {
    std::printf("Tracing overhead ablation (%s Small requests per mode)\n",
                smoke ? "smoke-scale" : "full-scale");
    std::printf("  %-8s %10s %14s\n", "mode", "ns/req", "vs off");
    std::printf("  %-8s %10.1f %14s\n", "off", off_ns, "-");
    std::printf("  %-8s %10.1f %13.1f%%\n", "off2", off2_ns, off_delta * 100);
    std::printf("  %-8s %10.1f %13.1f%%\n", "sampled", sampled_ns,
                sampled_over * 100);
    std::printf("  %-8s %10.1f %13.1f%%\n", "rec", rec_ns, rec_over * 100);
    std::printf("  %-8s %10.1f %13.1f%%\n", "full", full_ns, full_over * 100);
    std::printf("  traces completed %" PRIu64 ", recorder offered %" PRIu64
                ", ring drops %" PRIu64 "\n",
                collector.traces_completed(), recorder.offered_total(),
                trace::Tracer::instance().dropped_total());
  }

  // Regression gate: the runtime-off datapath must not have gained a
  // measurable cost. Two identical off runs bound the noise.
  if (!smoke && off_delta >= 0.25) {
    std::fprintf(stderr,
                 "FAIL: off-mode runs differ by %.1f%% (>25%%): tracing-off "
                 "overhead is not in the noise\n",
                 off_delta * 100);
    return 2;
  }
  // The flight recorder rides the sampled deployment shape; its trigger
  // check + watch polls must stay inside that mode's noise envelope.
  if (!smoke && rec_ns > sampled_ns * 1.25) {
    std::fprintf(stderr,
                 "FAIL: recorder-on sampled run costs %.1f ns/req vs %.1f "
                 "without (>25%% over): the trigger check is not cheap\n",
                 rec_ns, sampled_ns);
    return 2;
  }
  return 0;
}

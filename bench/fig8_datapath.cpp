// Fig. 8: RPC datapath metrics — requests/s (8a), PCIe bandwidth (8b),
// host CPU usage (8c) — comparing DPU-offloaded deserialization against
// traditional host (CPU) deserialization for the three synthetic messages.
//
// Methodology (DESIGN.md §1): the full protocol runs for real (blocks,
// credits, acks, IDs, in-place deserialization, simulated-verbs transfers)
// on one core, and per-request single-core costs are measured with
// thread-CPU clocks, split into DPU-side work (deserialize + protocol) and
// host-side work (handler + protocol). The multi-core figures then follow
// from Table I's thread counts (16 DPU / 8 host) and the calibrated DPU
// slowdown — the paper itself observes per-core-even scaling. Byte counts
// come from the simulated link, including all block overheads.
//
// Scenarios, per the paper §VI.C: business logic empty, responses empty,
// and BOTH scenarios use the custom stack-based deserializer. The
// response codec's round trip (echoed replies, host codec per offload
// direction) is fig10_roundtrip's; this bench only prints the serialize
// plan's unit cost per workload.
//
// Usage: fig8_datapath [--quick] [--json <path>] [--trace-out=PATH]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "adt/object_codec.hpp"
#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "metrics/metrics.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/server.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dpurpc;
using bench::BenchEnv;

constexpr uint16_t kMethod = 7;
constexpr uint32_t kConcurrency = 1024;  // Table I

struct ScenarioResult {
  uint64_t requests = 0;
  double client_protocol_ns = 0;  ///< DPU-side protocol + copy work
  double client_deser_ns = 0;     ///< DPU-side deserialization (offload only)
  double server_ns = 0;           ///< host-side work (handler incl. any deser)
  uint64_t c2s_bytes = 0;
  uint64_t s2c_bytes = 0;
  double deserialized_bytes = 0;  ///< mean in-memory object size
  size_t serialized_bytes = 0;
};

struct Workload {
  const char* name;
  uint32_t class_index;
  Bytes wire;
  dpu::WorkloadClass dpu_class;
  uint64_t requests;
};

// Prevent the optimizer from deciding the handler is dead.
void benchmark_keep(bool v) {
  volatile bool sink = v;
  (void)sink;
}

// Offline unit cost of one deserialization of `wire` (bulk-measured so
// clock_gettime overhead amortizes away; per-request timers would swamp
// the 15-byte message numbers).
double measure_deser_unit_ns(BenchEnv& env, uint32_t class_index, const Bytes& wire) {
  arena::OwningArena arena(1 << 21);
  arena::AddressTranslator xlate{0x10000};  // offload path runs with fixup
  constexpr int kIters = 3000;
  ThreadCpuTimer t;
  for (int i = 0; i < kIters; ++i) {
    arena.reset();
    auto obj = env.deserializer->deserialize(class_index, ByteSpan(wire), arena, xlate);
    if (!obj.is_ok()) std::abort();
    volatile const void* sink = *obj;
    (void)sink;
  }
  return static_cast<double>(t.elapsed_ns()) / kIters;
}

// Offline unit cost of the response path: serializing the in-memory object
// back to wire form through the compiled serialize plan (DESIGN.md §3.13).
// Bulk-measured for the same reason as measure_deser_unit_ns. The Fig. 8
// scenarios themselves run empty responses per §VI.C, so this is reported
// as a separate split rather than folded into the pipeline model.
double measure_ser_unit_ns(BenchEnv& env, uint32_t class_index, const Bytes& wire) {
  arena::OwningArena arena(1 << 21);
  auto obj = env.deserializer->deserialize(class_index, ByteSpan(wire), arena, {});
  if (!obj.is_ok()) std::abort();
  adt::ObjectSerializer ser(&env.adt);
  adt::ObjectRef ref(class_index, *obj);
  Bytes out;
  constexpr int kIters = 3000;
  ThreadCpuTimer t;
  for (int i = 0; i < kIters; ++i) {
    out.clear();  // capacity retained: steady-state reply buffer
    if (!ser.serialize(ref, out).is_ok()) std::abort();
    volatile const void* sink = out.data();
    (void)sink;
  }
  return static_cast<double>(t.elapsed_ns()) / kIters;
}

ScenarioResult run_scenario(BenchEnv& env, const Workload& w, bool offload) {
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::ConnectionConfig ccfg, scfg;  // Table I defaults
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, ccfg);
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, scfg);
  if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) std::abort();

  rdmarpc::RpcClient client(&dpu_conn);
  rdmarpc::RpcServer server(&host_conn);

  ScenarioResult res;
  res.serialized_bytes = w.wire.size();
  arena::OwningArena host_arena(1 << 21);  // host-side scratch (CPU scenario)
  uint64_t deser_count = 0;

  server.register_handler(kMethod, [&](const rdmarpc::RequestView& req, Bytes& out) {
    if (!offload) {
      // Traditional scenario: the host runs the deserializer.
      host_arena.reset();
      auto obj = env.deserializer->deserialize(w.class_index, req.payload,
                                               host_arena, {});
      if (!obj.is_ok()) return obj.status();
      benchmark_keep(obj.status().is_ok());
      res.deserialized_bytes += static_cast<double>(host_arena.used());
      ++deser_count;
    }
    // Business logic empty; response empty (§VI.C).
    out.clear();
    return Status::ok();
  });

  uint64_t completed = 0;
  uint64_t enqueued = 0;
  auto enqueue_one = [&]() -> bool {
    Status st;
    if (offload) {
      st = client.call_inplace(
          kMethod, static_cast<uint16_t>(w.class_index),
          static_cast<uint32_t>(w.wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
              -> StatusOr<uint32_t> {
            auto obj = env.deserializer->deserialize(w.class_index, ByteSpan(w.wire),
                                                     arena, xlate);
            if (!obj.is_ok()) return obj.status();
            res.deserialized_bytes += static_cast<double>(arena.used());
            ++deser_count;
            return static_cast<uint32_t>(arena.used());
          },
          [&](const Status&, const rdmarpc::InMessage&) { ++completed; });
    } else {
      st = client.call(kMethod, ByteSpan(w.wire),
                       [&](const Status&, const rdmarpc::InMessage&) { ++completed; });
    }
    if (st.is_ok()) {
      ++enqueued;
      return true;
    }
    return false;  // backpressure
  };

  // One thread pumps both sides alternately; CPU time is split per side.
  while (completed < w.requests) {
    {
      ThreadCpuTimer t;
      while (enqueued - completed < kConcurrency && enqueued < w.requests) {
        if (!enqueue_one()) break;
      }
      auto n = client.event_loop_once();
      if (!n.is_ok()) std::abort();
      res.client_protocol_ns += static_cast<double>(t.elapsed_ns());
    }
    {
      ThreadCpuTimer t;
      auto n = server.event_loop_once();
      if (!n.is_ok()) std::abort();
      res.server_ns += static_cast<double>(t.elapsed_ns());
    }
  }
  // Split the bulk-measured client time into deserialization (offline unit
  // cost x count) and protocol (the remainder).
  if (offload) {
    res.client_deser_ns =
        measure_deser_unit_ns(env, w.class_index, w.wire) * static_cast<double>(completed);
    res.client_protocol_ns =
        std::max(0.0, res.client_protocol_ns - res.client_deser_ns);
  }
  res.requests = completed;
  res.c2s_bytes = dpu_conn.tx_counters().bytes.load();
  res.s2c_bytes = host_conn.tx_counters().bytes.load();
  res.deserialized_bytes /= static_cast<double>(deser_count ? deser_count : 1);
  return res;
}

// --trace-out: run a dedicated fully-traced pass over the offload datapath
// and emit the Perfetto/chrome://tracing timeline. Separate from the
// measured scenarios so tracing overhead never contaminates the Fig. 8
// numbers. Returns 0, or 2 when the span decomposition fails validation
// (per-stage durations must sum to ~the root's end-to-end time).
int run_traced(BenchEnv& env, const Workload& w, const std::string& out_path,
               bool quick) {
  trace::TraceConfig tc;
  tc.mode = trace::Mode::kFull;
  tc.ring_capacity = 1 << 16;
  trace::Tracer::instance().configure(tc);
  trace::TraceCollector::Options copts;
  copts.tail_keep_every = 1;     // retain every tree: we validate them all
  copts.max_retained = 1 << 20;
  copts.orphan_max_age = 1u << 30;
  trace::TraceCollector collector(copts);  // default registry

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

  const uint64_t requests = quick ? 2000 : 20000;
  uint64_t completed = 0, enqueued = 0;
  while (completed < requests) {
    while (enqueued - completed < kConcurrency && enqueued < requests) {
      trace::TraceContext ctx = trace::Tracer::instance().begin_trace();
      uint64_t t0 = WallTimer::now();
      Status st = client.call_inplace(
          kMethod, static_cast<uint16_t>(w.class_index),
          static_cast<uint32_t>(w.wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
              -> StatusOr<uint32_t> {
            auto obj = env.deserializer->deserialize(w.class_index,
                                                     ByteSpan(w.wire), arena, xlate);
            if (!obj.is_ok()) return obj.status();
            return static_cast<uint32_t>(arena.used());
          },
          [&completed, ctx, t0](const Status&, const rdmarpc::InMessage&) {
            ++completed;
            trace::Tracer::instance().record_root(ctx, t0, WallTimer::now());
          },
          ctx);
      if (!st.is_ok()) break;  // backpressure: pump the loops
      ++enqueued;
    }
    if (!client.event_loop_once().is_ok()) std::abort();
    if (!server.event_loop_once().is_ok()) std::abort();
    // Drain rings while they are warm; a single 64 Ki ring would overflow
    // over the whole run.
    collector.collect();
  }
  collector.collect();
  trace::Tracer::instance().configure(trace::TraceConfig{});

  std::string json = collector.export_chrome_json();
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  // Validate the decomposition: per-stage durations must account for the
  // end-to-end time. The stage spans tile the request's life almost
  // exactly (each wait span ends at the stamp the next span starts at), so
  // the mean ratio sits near 1; well under and the instrumentation lost a
  // stage, well over and spans double-count.
  double ratio_sum = 0;
  uint64_t trees = 0, dropped_spans = trace::Tracer::instance().dropped_total();
  for (const trace::SpanTree& t : collector.retained()) {
    if (t.duration_ns() == 0) continue;
    ratio_sum += static_cast<double>(t.stage_sum_ns()) /
                 static_cast<double>(t.duration_ns());
    ++trees;
  }
  double mean_ratio = trees ? ratio_sum / static_cast<double>(trees) : 0.0;
  std::printf("\nDatapath trace (%s, %" PRIu64 " requests): %s\n", w.name,
              completed, out_path.c_str());
  std::printf("  trees retained %" PRIu64 "   ring drops %" PRIu64
              "   mean sum(stages)/e2e = %.3f\n",
              trees, dropped_spans, mean_ratio);

  std::printf("  %-16s %12s %12s %12s\n", "stage", "p50_us", "p95_us", "p99_us");
  metrics::Snapshot snap = metrics::default_registry().scrape();
  for (size_t i = 0; i < static_cast<size_t>(trace::Stage::kStageCount); ++i) {
    auto st = static_cast<trace::Stage>(i);
    metrics::Labels labels{{"stage", trace::stage_name(st)}};
    const metrics::Sample* count =
        snap.find("dpurpc_trace_stage_seconds_count", labels);
    if (count == nullptr || count->value == 0) continue;
    const metrics::Sample* p50 = snap.find("dpurpc_trace_stage_seconds_p50", labels);
    const metrics::Sample* p95 = snap.find("dpurpc_trace_stage_seconds_p95", labels);
    const metrics::Sample* p99 = snap.find("dpurpc_trace_stage_seconds_p99", labels);
    std::printf("  %-16s %12.2f %12.2f %12.2f\n", trace::stage_name(st),
                p50 ? p50->value * 1e6 : 0, p95 ? p95->value * 1e6 : 0,
                p99 ? p99->value * 1e6 : 0);
  }

  if (trees == 0 || mean_ratio < 0.5 || mean_ratio > 1.05) {
    std::fprintf(stderr,
                 "FAIL: span decomposition out of tolerance "
                 "(mean ratio %.3f, want [0.5, 1.05])\n",
                 mean_ratio);
    return 2;
  }
  // Collector health: a traced pass that silently lost spans (ring
  // overflow) or whole requests (roots that never arrived) produced a
  // timeline that cannot be trusted. Full runs only — smoke durations are
  // too short to guarantee the drain keeps up.
  if (!quick && (collector.orphans_dropped() != 0 || dropped_spans != 0)) {
    std::fprintf(stderr,
                 "FAIL: traced pass lost data — %" PRIu64
                 " orphaned traces, %" PRIu64 " span-ring drops\n",
                 collector.orphans_dropped(), dropped_spans);
    return 2;
  }
  return 0;
}

struct ModeledFigures {
  double rps;
  double bandwidth_gbps;
  double host_cores;
  double dpu_cores;
};

ModeledFigures model(const ScenarioResult& r, dpu::WorkloadClass wclass, bool offload) {
  dpu::CostModel cost;
  auto dpu_spec = dpu::DeviceSpec::bluefield3();
  auto host_spec = dpu::DeviceSpec::host_xeon();
  double n = static_cast<double>(r.requests);

  // Per-request single-core seconds on each side.
  double dpu_s = (cost.scale_ns(dpu::Processor::kDpu, dpu::WorkloadClass::kProtocol,
                                r.client_protocol_ns / n) +
                  cost.scale_ns(dpu::Processor::kDpu, wclass, r.client_deser_ns / n)) *
                 1e-9;
  double host_s = (r.server_ns / n) * 1e-9;

  // Pipeline throughput: whichever side saturates first (the paper's
  // per-core-even scaling observation makes this linear).
  double dpu_capacity = dpu_spec.threads / dpu_s;
  double host_capacity = host_spec.threads / host_s;
  ModeledFigures f{};
  f.rps = std::min(dpu_capacity, host_capacity);
  double bytes_per_req =
      static_cast<double>(r.c2s_bytes + r.s2c_bytes) / n;
  f.bandwidth_gbps = f.rps * bytes_per_req * 8.0 / 1e9;
  f.host_cores = f.rps * host_s;
  f.dpu_cores = f.rps * dpu_s;
  (void)offload;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks request counts (used by CI-style runs); the CI
  // bench-smoke lane's DPURPC_BENCH_SMOKE env var implies it.
  // --trace-out=PATH additionally runs a fully-traced pass and writes the
  // Chrome trace-event timeline there.
  bool quick = std::getenv("DPURPC_BENCH_SMOKE") != nullptr;
  std::string trace_out, json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(strlen("--trace-out="));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  uint64_t scale = quick ? 4 : 1;

  static BenchEnv env;
  Workload workloads[] = {
      {"Small", env.small_class, bench::make_small_wire(env),
       dpu::WorkloadClass::kMixedSmall, 60000 / scale},
      {"x512 Ints", env.ints_class, bench::make_int_array_wire(env, 512),
       dpu::WorkloadClass::kVarintDecode, 16000 / scale},
      {"x8000 Chars", env.chars_class, bench::make_char_array_wire(env, 8000),
       dpu::WorkloadClass::kByteCopy, 8000 / scale},
  };

  std::printf("Fig. 8 — RPC datapath metrics (DPU offload vs. CPU deserialization)\n");
  std::printf("Configuration: Table I (16 DPU threads, 8 host threads, credits 256,\n");
  std::printf("block 8 KiB, concurrency 1024). See DESIGN.md for the hardware model.\n\n");

  std::printf("%-12s %-5s %11s %11s %10s %10s %9s %9s\n", "message", "side", "rps",
              "Gbit/s", "hostCores", "dpuCores", "wireB/req", "objB");
  double rps_ratio[3], bw_ratio[3], cpu_ratio[3];
  ModeledFigures fds[3], fcs[3];
  double dpu_bytes[3], cpu_bytes[3];
  int idx = 0;
  for (const auto& w : workloads) {
    // Warmup run (small) to stabilize caches/branch predictors.
    Workload warm = w;
    warm.requests = std::max<uint64_t>(200, w.requests / 20);
    (void)run_scenario(env, warm, true);
    (void)run_scenario(env, warm, false);

    ScenarioResult dpu_res = run_scenario(env, w, /*offload=*/true);
    ScenarioResult cpu_res = run_scenario(env, w, /*offload=*/false);
    ModeledFigures fd = model(dpu_res, w.dpu_class, true);
    ModeledFigures fc = model(cpu_res, w.dpu_class, false);

    double dpu_bytes_req = static_cast<double>(dpu_res.c2s_bytes + dpu_res.s2c_bytes) /
                           static_cast<double>(dpu_res.requests);
    double cpu_bytes_req = static_cast<double>(cpu_res.c2s_bytes + cpu_res.s2c_bytes) /
                           static_cast<double>(cpu_res.requests);
    std::printf("%-12s %-5s %11.0f %11.2f %10.2f %10.2f %9.0f %9.0f\n", w.name, "DPU",
                fd.rps, fd.bandwidth_gbps, fd.host_cores, fd.dpu_cores, dpu_bytes_req,
                dpu_res.deserialized_bytes);
    std::printf("%-12s %-5s %11.0f %11.2f %10.2f %10.2f %9.0f %9.0f\n", w.name, "CPU",
                fc.rps, fc.bandwidth_gbps, fc.host_cores, fc.dpu_cores, cpu_bytes_req,
                static_cast<double>(cpu_res.deserialized_bytes));

    rps_ratio[idx] = fd.rps / fc.rps;
    bw_ratio[idx] = fd.bandwidth_gbps / fc.bandwidth_gbps;
    cpu_ratio[idx] = fc.host_cores / fd.host_cores;
    fds[idx] = fd;
    fcs[idx] = fc;
    dpu_bytes[idx] = dpu_bytes_req;
    cpu_bytes[idx] = cpu_bytes_req;
    ++idx;
  }

  std::printf("\nShape checks against the paper:\n");
  const char* names[] = {"Small", "x512 Ints", "x8000 Chars"};
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-12s rps(DPU)/rps(CPU) = %.2f   bandwidth(DPU)/bandwidth(CPU) = "
                "%.2f   hostCPU(CPU)/hostCPU(DPU) = %.2fx\n",
                names[i], rps_ratio[i], bw_ratio[i], cpu_ratio[i]);
  }
  std::printf("\nResponse path (serialize unit cost, object -> wire, single core):\n");
  for (const auto& w : workloads) {
    std::printf("  %-12s serialize_plan %9.1f ns\n", w.name,
                measure_ser_unit_ns(env, w.class_index, w.wire));
  }

  std::printf("\nPaper reference (Fig. 8): DPU matches CPU rps when given 2x threads;\n");
  std::printf("bandwidth penalty largest for Small/Ints (deserialized > serialized),\n");
  std::printf("~1.0x for Chars; host CPU reduced 1.8x (Small), 8.0x (Ints), 1.53x "
              "(Chars).\n");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fig8_datapath: --json open");
      return 65;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"fig8_datapath\",\n  \"scenarios\": [\n");
    const char* names[] = {"Small", "x512 Ints", "x8000 Chars"};
    for (int i = 0; i < 3; ++i) {
      std::fprintf(f,
                   "    {\"message\": \"%s\", \"dpu\": {\"rps\": %.0f, "
                   "\"gbps\": %.3f, \"host_cores\": %.3f, \"dpu_cores\": %.3f, "
                   "\"wire_bytes_req\": %.0f}, \"cpu\": {\"rps\": %.0f, "
                   "\"gbps\": %.3f, \"host_cores\": %.3f, \"dpu_cores\": %.3f, "
                   "\"wire_bytes_req\": %.0f}, \"host_cpu_reduction\": %.2f}%s\n",
                   names[i], fds[i].rps, fds[i].bandwidth_gbps, fds[i].host_cores,
                   fds[i].dpu_cores, dpu_bytes[i], fcs[i].rps,
                   fcs[i].bandwidth_gbps, fcs[i].host_cores, fcs[i].dpu_cores,
                   cpu_bytes[i], cpu_ratio[i], i < 2 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  if (!trace_out.empty()) {
    return run_traced(env, workloads[0], trace_out, quick);
  }
  return 0;
}

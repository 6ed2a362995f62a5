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
// and BOTH scenarios use the custom stack-based deserializer. A second,
// round-trip mode (this repo's §III.A response extension) echoes the
// request back so the response codec is exercised too: with offload on
// the host must perform zero (de)serialization in either direction.
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

// Round-trip mode (response-offload extension, DESIGN.md §3.16): the
// server echoes the request back, and the *response* codec moves with the
// offload switch. Offload on: the request decodes on the DPU, the host
// handler is a memcpy + pointer rebase into the response block (zero host
// codec), and the DPU serializes the returned object for the xRPC client.
// Offload off: the host runs both the request deserialize and the
// response serialize. Host codec cost must measure ≈ 0 with offload on.
struct RoundTripResult {
  uint64_t requests = 0;
  double host_ns = 0;       ///< host-side thread-CPU total
  double host_codec_ns = 0; ///< of which (de)serialization on the host
  double dpu_ns = 0;        ///< DPU-side thread-CPU total
  double dpu_codec_ns = 0;  ///< of which decode + serialize on the DPU
};

RoundTripResult run_roundtrip(BenchEnv& env, const Workload& w, bool offload) {
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
  if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) std::abort();
  rdmarpc::RpcClient client(&dpu_conn);
  rdmarpc::RpcServer server(&host_conn);

  adt::ObjectSerializer ser(&env.adt, {});
  RoundTripResult res;
  arena::OwningArena host_scratch(1 << 21);
  Bytes host_wire, dpu_wire;

  if (offload) {
    // Host business logic: echo the request object into the response
    // block — memcpy plus the relocation walk, no codec at all.
    server.register_inplace_handler(
        kMethod,
        [&](const rdmarpc::RequestView& req, arena::Arena& arena,
            const arena::AddressTranslator& xlate, uint32_t* payload_size,
            uint16_t* class_index) -> Status {
          void* dst = arena.allocate(req.payload.size(), kPayloadAlign);
          if (dst == nullptr) {
            return Status(Code::kResourceExhausted, "response block full");
          }
          std::memcpy(dst, req.payload.data(), req.payload.size());
          adt::ArenaDeserializer::SliceRelocation rel;
          rel.old_begin = req.payload.data();
          rel.old_end = req.payload.data() + req.payload.size();
          rel.move_delta = static_cast<std::byte*>(dst) - req.payload.data();
          rel.publish_delta = rel.move_delta + xlate.delta;
          env.deserializer->relocate(w.class_index, static_cast<std::byte*>(dst),
                                     rel);
          *payload_size = static_cast<uint32_t>(arena.used());
          *class_index = static_cast<uint16_t>(w.class_index);
          return Status::ok();
        });
  } else {
    // Host runs the full codec: deserialize the request, serialize the
    // echoed response.
    server.register_handler(
        kMethod, [&](const rdmarpc::RequestView& req, Bytes& out) {
          host_scratch.reset();
          auto obj = env.deserializer->deserialize(w.class_index, req.payload,
                                                   host_scratch, {});
          if (!obj.is_ok()) return obj.status();
          out.clear();
          return ser.serialize(adt::ObjectRef(w.class_index, *obj), out);
        });
  }

  const uint64_t requests = std::max<uint64_t>(w.requests / 2, 500);
  uint64_t completed = 0, enqueued = 0;
  auto on_response = [&](const Status& st, const rdmarpc::InMessage& resp) {
    ++completed;
    if (!st.is_ok()) std::abort();
    if ((resp.header.flags & rdmarpc::kFlagInPlaceObject) != 0) {
      // The DPU serializes the in-place response object for the xRPC
      // client — the step the codec pool runs in the proxy datapath.
      dpu_wire.clear();
      if (!ser.serialize(adt::ObjectRef(resp.header.aux, resp.payload_addr),
                         dpu_wire)
               .is_ok()) {
        std::abort();
      }
      benchmark_keep(!dpu_wire.empty());
    } else {
      benchmark_keep(!resp.payload.empty());
    }
  };
  auto enqueue_one = [&]() -> bool {
    Status st;
    if (offload) {
      st = client.call_inplace(
          kMethod, static_cast<uint16_t>(w.class_index),
          static_cast<uint32_t>(w.wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
              -> StatusOr<uint32_t> {
            auto obj = env.deserializer->deserialize(w.class_index,
                                                     ByteSpan(w.wire), arena, xlate);
            if (!obj.is_ok()) return obj.status();
            return static_cast<uint32_t>(arena.used());
          },
          on_response);
    } else {
      st = client.call(kMethod, ByteSpan(w.wire), on_response);
    }
    if (st.is_ok()) ++enqueued;
    return st.is_ok();
  };

  while (completed < requests) {
    {
      ThreadCpuTimer t;
      while (enqueued - completed < kConcurrency && enqueued < requests) {
        if (!enqueue_one()) break;
      }
      if (!client.event_loop_once().is_ok()) std::abort();
      res.dpu_ns += static_cast<double>(t.elapsed_ns());
    }
    {
      ThreadCpuTimer t;
      if (!server.event_loop_once().is_ok()) std::abort();
      res.host_ns += static_cast<double>(t.elapsed_ns());
    }
  }
  res.requests = completed;

  // Codec splits from bulk-measured unit costs (same method as
  // run_scenario): decode + serialize land on whichever side ran them.
  const double unit_codec_ns =
      measure_deser_unit_ns(env, w.class_index, w.wire) +
      measure_ser_unit_ns(env, w.class_index, w.wire);
  if (offload) {
    res.dpu_codec_ns = unit_codec_ns * static_cast<double>(completed);
    res.host_codec_ns = 0;  // the host never touches wire bytes
  } else {
    res.host_codec_ns = unit_codec_ns * static_cast<double>(completed);
    res.dpu_codec_ns = 0;
  }
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

  // Round-trip mode: echoed responses, with the response codec riding the
  // same offload switch (DESIGN.md §3.16). Acceptance: with offload on the
  // host performs zero codec work in either direction.
  std::printf("\nRound trip (server echoes the request; host codec = request\n"
              "deserialize + response serialize when not offloaded):\n");
  std::printf("%-12s %-5s %13s %15s %14s\n", "message", "side", "host ns/req",
              "hostCodec ns/r", "dpuCodec ns/r");
  RoundTripResult rt_dpu[3], rt_cpu[3];
  bool host_codec_zero = true;
  for (int i = 0; i < 3; ++i) {
    const auto& w = workloads[i];
    rt_dpu[i] = run_roundtrip(env, w, /*offload=*/true);
    rt_cpu[i] = run_roundtrip(env, w, /*offload=*/false);
    const double nd = static_cast<double>(rt_dpu[i].requests);
    const double nc = static_cast<double>(rt_cpu[i].requests);
    std::printf("%-12s %-5s %13.0f %15.1f %14.1f\n", w.name, "DPU",
                rt_dpu[i].host_ns / nd, rt_dpu[i].host_codec_ns / nd,
                rt_dpu[i].dpu_codec_ns / nd);
    std::printf("%-12s %-5s %13.0f %15.1f %14.1f\n", w.name, "CPU",
                rt_cpu[i].host_ns / nc, rt_cpu[i].host_codec_ns / nc,
                rt_cpu[i].dpu_codec_ns / nc);
    if (rt_dpu[i].host_codec_ns != 0) host_codec_zero = false;
  }
  if (!host_codec_zero) {
    std::fprintf(stderr,
                 "FAIL: round trip with offload on performed host codec work\n");
    return 4;
  }
  std::printf("round trip: host codec with offload on = 0 for every shape\n");

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
    std::fprintf(f, "  ],\n  \"roundtrip\": [\n");
    for (int i = 0; i < 3; ++i) {
      const double nd = static_cast<double>(rt_dpu[i].requests);
      const double nc = static_cast<double>(rt_cpu[i].requests);
      std::fprintf(f,
                   "    {\"message\": \"%s\", \"offload\": {\"host_ns_req\": %.1f, "
                   "\"host_codec_ns_req\": %.1f, \"dpu_codec_ns_req\": %.1f}, "
                   "\"host\": {\"host_ns_req\": %.1f, \"host_codec_ns_req\": %.1f, "
                   "\"dpu_codec_ns_req\": %.1f}}%s\n",
                   names[i], rt_dpu[i].host_ns / nd, rt_dpu[i].host_codec_ns / nd,
                   rt_dpu[i].dpu_codec_ns / nd, rt_cpu[i].host_ns / nc,
                   rt_cpu[i].host_codec_ns / nc, rt_cpu[i].dpu_codec_ns / nc,
                   i < 2 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"roundtrip_host_codec_zero_with_offload\": %s\n}\n",
                 host_codec_zero ? "true" : "false");
    std::fclose(f);
  }

  if (!trace_out.empty()) {
    return run_traced(env, workloads[0], trace_out, quick);
  }
  return 0;
}

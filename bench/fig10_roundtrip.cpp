// Fig. 10: response-path serialize offload — host-serialize vs
// DPU-serialize round trips across message shapes.
//
// Fig. 8 measures the request direction (deserialize offload); this
// harness closes the loop for the repo's §III.A response extension
// (DESIGN.md §3.16). The server echoes the request object back, and each
// codec leg sits on the host or the DPU by mode:
//
//   host mode    — the host deserializes the request AND serializes the
//                  echoed response (classic CPU datapath).
//   request mode — the paper's implemented scope (§III.A): the DPU
//                  decodes the request, the host serializes the reply
//                  from the in-place request object.
//   offload mode — the DPU decodes the request, the host handler is a
//                  memcpy + relocation walk into the response block, and
//                  the DPU-side completion serializes the returned object
//                  (the CodecPool encode descriptor in the proxy datapath).
//
// Headline metric: host thread-CPU ns per request, and its reduction
// host(host mode) / host(offload mode); host(host mode) / host(request
// mode) is what request offload alone saves. Acceptance: >= 1.5x on the Ints
// shapes (x512, x4096), where varint-heavy serialize dominates the
// handler cost. The gate is skipped under DPURPC_BENCH_SMOKE because
// smoke iteration counts make the ratio noisy.
//
// Usage: fig10_roundtrip [--quick] [--json <path>]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "adt/object_codec.hpp"
#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "dpu/dpu_model.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/server.hpp"

namespace {

using namespace dpurpc;
using bench::BenchEnv;

constexpr uint16_t kMethod = 10;
constexpr uint32_t kConcurrency = 1024;  // Table I

void benchmark_keep(const void* p) {
  volatile const void* sink = p;
  (void)sink;
}

struct Shape {
  const char* name;
  uint32_t class_index;
  Bytes wire;
  dpu::WorkloadClass dpu_class;
  uint64_t requests;
};

enum class Mode { kHost, kRequest, kOffload };
constexpr const char* kModeNames[] = {"host", "request", "offload"};

struct Result {
  uint64_t requests = 0;
  double host_ns = 0;       ///< host-side thread-CPU total
  double host_codec_ns = 0; ///< of which (de)serialization on the host
  double dpu_ns = 0;        ///< DPU-side thread-CPU total
  double dpu_codec_ns = 0;  ///< of which decode + serialize on the DPU
};

/// Offline unit costs of one message's request deserialize and response
/// serialize.
struct CodecUnit {
  double decode_ns = 0;
  double encode_ns = 0;
};

// Bulk-measured so clock overhead amortizes (same method as
// fig8_datapath). Every mode runs the same compiled codec; only its
// *placement* differs.
CodecUnit measure_codec_unit_ns(BenchEnv& env, const Shape& s) {
  arena::OwningArena arena(1 << 21);
  adt::ObjectSerializer ser(&env.adt);
  Bytes out;
  constexpr int kIters = 3000;
  CodecUnit unit;
  {
    ThreadCpuTimer t;
    for (int i = 0; i < kIters; ++i) {
      arena.reset();
      auto obj = env.deserializer->deserialize(s.class_index, ByteSpan(s.wire),
                                               arena, {});
      if (!obj.is_ok()) std::abort();
      benchmark_keep(*obj);
    }
    unit.decode_ns = static_cast<double>(t.elapsed_ns()) / kIters;
  }
  arena.reset();
  auto obj = env.deserializer->deserialize(s.class_index, ByteSpan(s.wire), arena, {});
  if (!obj.is_ok()) std::abort();
  ThreadCpuTimer t;
  for (int i = 0; i < kIters; ++i) {
    out.clear();
    if (!ser.serialize(adt::ObjectRef(s.class_index, *obj), out).is_ok()) {
      std::abort();
    }
    benchmark_keep(out.data());
  }
  unit.encode_ns = static_cast<double>(t.elapsed_ns()) / kIters;
  return unit;
}

Result run_shape(BenchEnv& env, const Shape& s, Mode mode) {
  const bool dpu_decode = mode != Mode::kHost;
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  // The echoed x4096 object needs a single-message response block larger
  // than the 8 KiB default; size the response buffers so a full burst of
  // oversize replies fits (server sbuf mirrors into the client rbuf).
  rdmarpc::ConnectionConfig ccfg, scfg;
  ccfg.rbuf_size = 32ull << 20;
  scfg.sbuf_size = 32ull << 20;
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, ccfg);
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, scfg);
  if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) std::abort();
  rdmarpc::RpcClient client(&dpu_conn);
  rdmarpc::RpcServer server(&host_conn);

  adt::ObjectSerializer ser(&env.adt);
  Result res;
  arena::OwningArena host_scratch(1 << 21);
  Bytes host_wire, dpu_wire;

  if (mode == Mode::kOffload) {
    // Host business logic: echo the request object into the response
    // block — memcpy plus the relocation walk, zero codec work.
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
          env.deserializer->relocate(s.class_index, static_cast<std::byte*>(dst),
                                     rel);
          *payload_size = static_cast<uint32_t>(arena.used());
          *class_index = static_cast<uint16_t>(s.class_index);
          return Status::ok();
        });
  } else if (mode == Mode::kRequest) {
    // The DPU decoded the request in place; the host serializes the echo
    // straight from that object.
    server.register_handler(
        kMethod, [&](const rdmarpc::RequestView& req, Bytes& out) {
          out.clear();
          return ser.serialize(adt::ObjectRef(s.class_index, req.object), out);
        });
  } else {
    // Classic datapath: the host runs both codec legs.
    server.register_handler(
        kMethod, [&](const rdmarpc::RequestView& req, Bytes& out) {
          host_scratch.reset();
          auto obj = env.deserializer->deserialize(s.class_index, req.payload,
                                                   host_scratch, {});
          if (!obj.is_ok()) return obj.status();
          out.clear();
          return ser.serialize(adt::ObjectRef(s.class_index, *obj), out);
        });
  }

  uint64_t completed = 0, enqueued = 0;
  auto on_response = [&](const Status& st, const rdmarpc::InMessage& resp) {
    ++completed;
    if (!st.is_ok()) {
      std::fprintf(stderr, "fig10: response error (%s, %s mode): code=%d %s\n",
                   s.name, kModeNames[static_cast<int>(mode)], static_cast<int>(st.code()),
                   st.message().c_str());
      std::abort();
    }
    if ((resp.header.flags & rdmarpc::kFlagInPlaceObject) != 0) {
      // DPU side serializes the in-place response object for the xRPC
      // client — the CodecPool encode step of the proxy datapath.
      dpu_wire.clear();
      if (auto st2 = ser.serialize(adt::ObjectRef(resp.header.aux, resp.payload_addr),
                                   dpu_wire);
          !st2.is_ok()) {
        std::fprintf(stderr, "fig10: dpu serialize failed (%s): %s\n", s.name,
                     st2.message().c_str());
        std::abort();
      }
      benchmark_keep(dpu_wire.data());
    } else {
      benchmark_keep(resp.payload.data());
    }
  };
  auto enqueue_one = [&]() -> bool {
    Status st;
    if (dpu_decode) {
      st = client.call_inplace(
          kMethod, static_cast<uint16_t>(s.class_index),
          static_cast<uint32_t>(s.wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
              -> StatusOr<uint32_t> {
            auto obj = env.deserializer->deserialize(s.class_index,
                                                     ByteSpan(s.wire), arena, xlate);
            if (!obj.is_ok()) return obj.status();
            return static_cast<uint32_t>(arena.used());
          },
          on_response);
    } else {
      st = client.call(kMethod, ByteSpan(s.wire), on_response);
    }
    if (st.is_ok()) ++enqueued;
    return st.is_ok();
  };

  // One thread pumps both sides alternately; thread-CPU time splits per
  // side (same methodology as fig8_datapath's run_scenario).
  while (completed < s.requests) {
    {
      ThreadCpuTimer t;
      while (enqueued - completed < kConcurrency && enqueued < s.requests) {
        if (!enqueue_one()) break;
      }
      if (auto n = client.event_loop_once(); !n.is_ok()) {
        std::fprintf(stderr, "fig10: client loop failed (%s): %s\n", s.name,
                     n.status().message().c_str());
        std::abort();
      }
      res.dpu_ns += static_cast<double>(t.elapsed_ns());
    }
    {
      ThreadCpuTimer t;
      if (auto n = server.event_loop_once(); !n.is_ok()) {
        std::fprintf(stderr, "fig10: server loop failed (%s): %s\n", s.name,
                     n.status().message().c_str());
        std::abort();
      }
      res.host_ns += static_cast<double>(t.elapsed_ns());
    }
  }
  res.requests = completed;

  // Charge each codec leg to the side that ran it. In offload mode the
  // host never touches wire bytes.
  const CodecUnit unit = measure_codec_unit_ns(env, s);
  const double n = static_cast<double>(completed);
  const double decode = unit.decode_ns * n, encode = unit.encode_ns * n;
  res.dpu_codec_ns = (dpu_decode ? decode : 0) + (mode == Mode::kOffload ? encode : 0);
  res.host_codec_ns = decode + encode - res.dpu_codec_ns;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::smoke_mode();
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  static BenchEnv env;
  Shape shapes[] = {
      {"Small", env.small_class, bench::make_small_wire(env),
       dpu::WorkloadClass::kMixedSmall, quick ? 1500ull : 20000ull},
      {"x512 Ints", env.ints_class, bench::make_int_array_wire(env, 512),
       dpu::WorkloadClass::kVarintDecode, quick ? 800ull : 6000ull},
      {"x4096 Ints", env.ints_class, bench::make_int_array_wire(env, 4096),
       dpu::WorkloadClass::kVarintDecode, quick ? 400ull : 1500ull},
      {"x8000 Chars", env.chars_class, bench::make_char_array_wire(env, 8000),
       dpu::WorkloadClass::kByteCopy, quick ? 500ull : 3000ull},
  };
  constexpr int kShapes = 4;

  std::printf("Fig. 10 — response-path serialize offload (round trip, echoed "
              "responses)\n");
  std::printf("host mode: host runs request deserialize + response serialize.\n");
  std::printf("request mode: DPU decodes; host serializes the reply.\n");
  std::printf("offload mode: DPU decodes and serializes; the host handler is a\n");
  std::printf("memcpy + relocation walk (DESIGN.md §3.16).\n\n");

  std::printf("%-12s %-8s %13s %15s %14s %16s\n", "message", "side",
              "host ns/req", "hostCodec ns/r", "dpuCodec ns/r",
              "dpuCodec scaled");
  constexpr Mode kModes[] = {Mode::kOffload, Mode::kRequest, Mode::kHost};
  // Per shape, per mode (indexed by Mode): per-request costs.
  struct PerReq {
    uint64_t requests = 0;
    double host = 0, host_codec = 0, dpu_codec = 0;
  };
  PerReq rt[kShapes][3];
  double reduction[kShapes], request_reduction[kShapes];
  dpu::CostModel cost;
  for (int i = 0; i < kShapes; ++i) {
    const Shape& s = shapes[i];
    // Warmup pass (small) to stabilize caches/branch predictors.
    Shape warm = s;
    warm.requests = std::max<uint64_t>(200, s.requests / 20);
    for (Mode m : kModes) (void)run_shape(env, warm, m);

    for (Mode m : kModes) {
      Result r = run_shape(env, s, m);
      const double n = static_cast<double>(r.requests);
      PerReq& p = rt[i][static_cast<int>(m)];
      p = {r.requests, r.host_ns / n, r.host_codec_ns / n, r.dpu_codec_ns / n};
      // What the codec leg costs once it lands on the (slower) DPU cores —
      // the price paid for freeing the host, per the calibrated model.
      char scaled[32] = "-";
      if (m != Mode::kHost) {
        std::snprintf(scaled, sizeof scaled, "%.1f",
                      cost.scale_ns(dpu::Processor::kDpu, s.dpu_class, p.dpu_codec));
      }
      std::printf("%-12s %-8s %13.0f %15.1f %14.1f %16s\n", s.name,
                  kModeNames[static_cast<int>(m)], p.host, p.host_codec, p.dpu_codec,
                  scaled);
    }
    const double host = rt[i][static_cast<int>(Mode::kHost)].host;
    reduction[i] = host / rt[i][static_cast<int>(Mode::kOffload)].host;
    request_reduction[i] = host / rt[i][static_cast<int>(Mode::kRequest)].host;
  }

  std::printf("\nHost-cycles-per-request reduction vs host mode "
              "(request mode / offload mode):\n");
  for (int i = 0; i < kShapes; ++i) {
    std::printf("  %-12s %.2fx / %.2fx\n", shapes[i].name, request_reduction[i],
                reduction[i]);
  }

  // Acceptance: the varint-heavy Ints shapes must shed at least 1.5x of
  // the host's per-request cycles when the response codec moves to the
  // DPU. Skipped under smoke (tiny counts, meaningless ratios).
  bool ints_ok = reduction[1] >= 1.5 && reduction[2] >= 1.5;
  if (!quick && !ints_ok) {
    std::fprintf(stderr,
                 "FAIL: Ints host-cycle reduction below 1.5x "
                 "(x512 %.2fx, x4096 %.2fx)\n",
                 reduction[1], reduction[2]);
    return 3;
  }
  if (ints_ok) {
    std::printf("\nInts shapes meet the >= 1.5x host-cycle reduction target "
                "(x512 %.2fx, x4096 %.2fx)\n",
                reduction[1], reduction[2]);
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fig10_roundtrip: --json open");
      return 65;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"fig10_roundtrip\",\n  \"shapes\": [\n");
    for (int i = 0; i < kShapes; ++i) {
      const PerReq& off = rt[i][static_cast<int>(Mode::kOffload)];
      const PerReq& req = rt[i][static_cast<int>(Mode::kRequest)];
      const PerReq& host = rt[i][static_cast<int>(Mode::kHost)];
      std::fprintf(f,
                   "    {\"message\": \"%s\", \"requests\": %" PRIu64
                   ", \"offload\": {\"host_ns_req\": %.1f, "
                   "\"host_codec_ns_req\": %.1f, \"dpu_codec_ns_req\": %.1f}, "
                   "\"request\": {\"host_ns_req\": %.1f, "
                   "\"host_codec_ns_req\": %.1f, \"dpu_codec_ns_req\": %.1f}, "
                   "\"host\": {\"host_ns_req\": %.1f, \"host_codec_ns_req\": "
                   "%.1f}, \"host_reduction\": %.3f, "
                   "\"request_host_reduction\": %.3f}%s\n",
                   shapes[i].name, off.requests, off.host, off.host_codec,
                   off.dpu_codec, req.host, req.host_codec, req.dpu_codec, host.host,
                   host.host_codec, reduction[i], request_reduction[i],
                   i < kShapes - 1 ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"ints_reduction_ge_1p5\": %s,\n"
                 "  \"smoke\": %s\n}\n",
                 ints_ok ? "true" : "false", quick ? "true" : "false");
    std::fclose(f);
  }
  return 0;
}

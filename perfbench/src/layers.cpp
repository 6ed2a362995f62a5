#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/cpu_timer.hpp"
#include "deployment.hpp"
#include "traffic.hpp"
#include "dpu/codec_pool.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/server.hpp"
#include "simverbs/simverbs.hpp"
#include "wire/utf8.hpp"
#include "wire/varint.hpp"
#include "wire/varint_batch.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"

namespace perfbench {

namespace {

/// Median over repetitions of the mean wall ns per call of `fn`, each
/// repetition `batch` calls, repeated for `budget_s` (at least 5 times).
template <typename Fn>
double time_ns(double budget_s, size_t batch, Fn&& fn) {
  for (size_t i = 0; i < batch; ++i) fn();  // warm caches and branch history
  std::vector<double> reps;
  const uint64_t deadline = WallTimer::now() + static_cast<uint64_t>(budget_s * 1e9);
  do {
    uint64_t t0 = WallTimer::now();
    for (size_t i = 0; i < batch; ++i) fn();
    reps.push_back(static_cast<double>(WallTimer::now() - t0) / static_cast<double>(batch));
  } while (WallTimer::now() < deadline || reps.size() < 5);
  return median(std::move(reps));
}

/// Median of single-call samples: `once()` returns one call's ns.
template <typename Fn>
double sample_ns(double budget_s, Fn&& once) {
  for (int i = 0; i < 16; ++i) once();
  std::vector<double> samples;
  const uint64_t deadline = WallTimer::now() + static_cast<uint64_t>(budget_s * 1e9);
  do {
    samples.push_back(static_cast<double>(once()));
  } while (WallTimer::now() < deadline || samples.size() < 5);
  return median(std::move(samples));
}

/// The payload of a single length-delimited field 1 (packed ints, string).
ByteSpan field1_payload(const Bytes& wire) {
  const auto* p = reinterpret_cast<const uint8_t*>(wire.data());
  const auto* end = p + wire.size();
  auto len = wire::decode_varint(p + 1, end);  // p[0] is the tag byte
  return ByteSpan(reinterpret_cast<const std::byte*>(len.next), len.value);
}

struct Codec {
  proto::DescriptorPool pool;
  std::unique_ptr<grpccompat::OffloadManifest> manifest;
  std::unique_ptr<adt::ArenaDeserializer> deser;
  std::unique_ptr<adt::ObjectSerializer> ser;
  uint32_t in_class[kKinds] = {};
  uint32_t out_class[kKinds] = {};
  uint16_t method_id[kKinds] = {};

  bool init() {
    parse_schema(pool);
    auto built = grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
    if (!built.is_ok()) return false;
    manifest = std::make_unique<grpccompat::OffloadManifest>(std::move(*built));
    deser = std::make_unique<adt::ArenaDeserializer>(&manifest->adt());
    ser = std::make_unique<adt::ObjectSerializer>(&manifest->adt());
    for (size_t k = 0; k < kKinds; ++k) {
      const auto* m = manifest->find_by_name(kMethods[k]);
      if (m == nullptr) return false;
      in_class[k] = m->input_class;
      out_class[k] = m->output_class;
      method_id[k] = m->method_id;
    }
    return true;
  }
};

bool wire_layer(double budget, const Inputs& in, MetricList& out) {
  ByteSpan packed = field1_payload(in.wire[1][0]);
  const auto* p = reinterpret_cast<const uint8_t*>(packed.data());
  const auto* end = p + packed.size();
  std::vector<uint32_t> vals32(kIntsCount);
  bool ok = true;
  double dec = time_ns(budget, 256, [&] {
    ok &= wire::decode_varint_batch32(p, end, kIntsCount, vals32.data()) == end;
  });
  std::vector<uint64_t> vals(vals32.begin(), vals32.end());
  std::vector<uint8_t> buf(kIntsCount * wire::kMaxVarint64Bytes);
  const uint8_t* enc_end = nullptr;
  double enc = time_ns(budget, 256, [&] {
    enc_end = wire::encode_varint_run(buf.data(), buf.data() + buf.size(), vals.data(),
                                      kIntsCount);
  });
  ok &= static_cast<size_t>(enc_end - buf.data()) == packed.size() &&
        std::memcmp(buf.data(), p, packed.size()) == 0;
  ByteSpan text = field1_payload(in.wire[2][0]);
  const auto* t = reinterpret_cast<const uint8_t*>(text.data());
  double utf8 = time_ns(budget, 64, [&] { ok &= wire::validate_utf8(t, text.size()); });
  out.emplace_back("wire.varint_decode_ns_per_value", dec / kIntsCount);
  out.emplace_back("wire.varint_encode_ns_per_value", enc / kIntsCount);
  out.emplace_back("wire.utf8_ns_per_kib", utf8 * 1024.0 / static_cast<double>(text.size()));
  return ok;
}

bool adt_layer(double budget, const Codec& c, const Inputs& in, MetricList& out) {
  bool ok = true;
  constexpr size_t kSlice = 1 << 20;
  dpu::ScratchSlice a = dpu::ScratchSlice::allocate(kSlice);
  dpu::ScratchSlice b = dpu::ScratchSlice::allocate(kSlice);
  for (size_t k = 0; k < kKinds; ++k) {
    const Bytes& wire = in.wire[k][0];
    arena::Arena arena(a.data(), kSlice);
    double parse = time_ns(budget, 64, [&] {
      arena.reset();
      ok &= c.deser->deserialize(c.in_class[k], ByteSpan(wire), arena, {}).is_ok();
    });
    out.emplace_back(std::string("adt.parse_ns.") + kKindNames[k], parse);

    // Relocate as the proxy forwards a pool-decoded slice: memcpy the
    // fully-local tree elsewhere, then rebase its pointers.
    arena.reset();
    auto obj = c.deser->deserialize(c.in_class[k], ByteSpan(wire), arena, {});
    if (!obj.is_ok()) return false;
    const size_t used = arena.used();
    const ptrdiff_t off = static_cast<std::byte*>(*obj) - a.data();
    adt::ArenaDeserializer::SliceRelocation rel;
    rel.old_begin = a.data();
    rel.old_end = a.data() + used;
    rel.move_delta = b.data() - a.data();
    rel.publish_delta = rel.move_delta;
    double reloc = time_ns(budget, 64, [&] {
      std::memcpy(b.data(), a.data(), used);
      c.deser->relocate(c.in_class[k], b.data() + off, rel);
    });
    out.emplace_back(std::string("adt.relocate_ns.") + kKindNames[k], reloc);

    if (k == static_cast<size_t>(Kind::kInts)) {
      // The echo reply is an IntArray with the request's values: the
      // decoded request object is exactly the object the DPU encodes.
      Bytes enc;
      adt::ObjectRef ref(c.in_class[k], *obj);
      double ser = time_ns(budget, 64, [&] {
        enc.clear();
        ok &= c.ser->serialize(ref, enc).is_ok();
      });
      ok &= enc == wire;
      out.emplace_back("adt.serialize_ns.ints512", ser);
    }
  }
  // The Ack reply of Small and Chars calls.
  arena::Arena arena(b.data(), kSlice);
  auto ack = adt::LayoutBuilder::create(&c.manifest->adt(), c.out_class[0], &arena);
  if (!ack.is_ok() || !ack->set_uint64(1, 0x123456789ull).is_ok()) return false;
  Bytes enc;
  adt::ObjectRef ref(*ack);
  double ser = time_ns(budget, 256, [&] {
    enc.clear();
    ok &= c.ser->serialize(ref, enc).is_ok();
  });
  out.emplace_back("adt.serialize_ns.ack", ser);
  return ok;
}

/// CodecPool::submit → try_pop_result round trip of a Small decode job,
/// with the worker hot (back to back) and parked (idle for 3 ms first).
bool dpu_layer(double budget, const Codec& c, const Inputs& in, MetricList& out) {
  dpu::CodecPool pool(c.deser.get(), c.ser.get(), 1);
  pool.start();
  bool ok = true;
  uint64_t cookie = 0;
  auto rtt = [&] {
    dpu::CodecJob job;
    job.kind = dpu::JobKind::kDecode;
    job.class_index = c.in_class[0];
    job.cookie = ++cookie;
    job.wire = in.wire[0][cookie % in.wire[0].size()];
    uint64_t t0 = WallTimer::now();
    while (!pool.submit(0, job)) std::this_thread::yield();
    dpu::CodecResult r;
    while (!pool.try_pop_result(0, r)) {
    }
    uint64_t dt = WallTimer::now() - t0;
    ok &= r.status.is_ok() && r.cookie == cookie;
    return dt;
  };
  double hot = sample_ns(budget, rtt);
  double parked = sample_ns(budget, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return rtt();
  });
  pool.stop();
  out.emplace_back("dpu.pool_rtt_ns.hot", hot);
  out.emplace_back("dpu.pool_rtt_ns.parked", parked);
  return ok;
}

/// post_write_with_imm of a 256-byte block → poll_into of its receive
/// completion on the peer, one thread.
bool simverbs_layer(double budget, MetricList& out) {
  simverbs::ProtectionDomain pd_a("a"), pd_b("b");
  std::vector<std::byte> buf_a(64 * 1024), buf_b(64 * 1024);
  pd_a.register_memory(buf_a.data(), buf_a.size());
  const simverbs::MemoryRegion* mr_b = pd_b.register_memory(buf_b.data(), buf_b.size());
  simverbs::CompletionQueue scq_a(64), rcq_a(64), scq_b(64), rcq_b(64);
  simverbs::QueuePair qa(&pd_a, &scq_a, &rcq_a), qb(&pd_b, &scq_b, &rcq_b);
  if (!simverbs::QueuePair::connect(qa, qb).is_ok()) return false;
  for (int i = 0; i < 8; ++i) qb.post_recv({});
  std::vector<simverbs::Completion> got, sent;
  got.reserve(64);
  sent.reserve(64);
  bool ok = true;
  uint32_t imm = 0;
  double ns = sample_ns(budget, [&] {
    simverbs::SendWr wr;
    wr.wr_id = ++imm;
    wr.local_addr = buf_a.data();
    wr.length = 256;
    wr.rkey = mr_b->rkey();
    wr.imm_data = imm;
    got.clear();
    uint64_t t0 = WallTimer::now();
    ok &= qa.post_write_with_imm(wr).is_ok();
    rcq_b.poll_into(got);
    uint64_t dt = WallTimer::now() - t0;
    ok &= got.size() == 1 && got[0].imm_data == imm;
    sent.clear();
    scq_a.poll_into(sent);
    qb.post_recv({});
    return dt;
  });
  out.emplace_back("simverbs.post_poll_ns", ns);
  return ok;
}

/// RpcClient::call_inplace (in-place deserialize into the block) → bare
/// RpcServer handler building the reply object → continuation; client
/// and server pumped from one thread, one call at a time.
bool rdmarpc_layer(double budget, const Codec& c, const Inputs& in, MetricList& out) {
  bool ok = true;
  for (Kind kind : {Kind::kSmall, Kind::kInts, Kind::kChars}) {
    const auto k = static_cast<size_t>(kind);
    simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
    rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
    rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
    if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) return false;
    rdmarpc::RpcClient client(&dpu_conn);
    rdmarpc::RpcServer server(&host_conn);
    const adt::Adt* adt = &c.manifest->adt();
    server.register_inplace_handler(
        c.method_id[k],
        [&](const rdmarpc::RequestView& req, arena::Arena& arena,
            const arena::AddressTranslator& xlate, uint32_t* payload_size,
            uint16_t* class_index) -> Status {
          adt::LayoutView view(adt, req.class_index, req.object);
          DPURPC_ASSIGN_OR_RETURN(auto resp,
                                  adt::LayoutBuilder::create(adt, c.out_class[k], &arena, xlate));
          if (kind == Kind::kSmall) {
            DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, view.get_uint64(4)));
          } else if (kind == Kind::kChars) {
            DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, view.get_string(1).size()));
          } else {
            for (uint32_t i = 0; i < view.repeated_size(1); ++i) {
              DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, view.repeated_uint64(1, i)));
            }
          }
          *payload_size = static_cast<uint32_t>(arena.used());
          *class_index = static_cast<uint16_t>(c.out_class[k]);
          return Status::ok();
        });
    const Bytes& wire = in.wire[k][0];
    double ns = sample_ns(budget, [&] {
      bool done = false;
      uint64_t t0 = WallTimer::now();
      Status st = client.call_inplace(
          c.method_id[k], static_cast<uint16_t>(c.in_class[k]),
          static_cast<uint32_t>(wire.size() * 4 + 256),
          [&](arena::Arena& arena, const arena::AddressTranslator& xlate) -> StatusOr<uint32_t> {
            auto obj = c.deser->deserialize(c.in_class[k], ByteSpan(wire), arena, xlate);
            if (!obj.is_ok()) return obj.status();
            return static_cast<uint32_t>(arena.used());
          },
          [&](const Status& s, const rdmarpc::InMessage&) {
            ok &= s.is_ok();
            done = true;
          });
      ok &= st.is_ok();
      for (int turns = 0; st.is_ok() && !done && turns < 64; ++turns) {
        ok &= client.event_loop_once().is_ok();
        ok &= server.event_loop_once().is_ok();
        ok &= client.event_loop_once().is_ok();
      }
      ok &= done;
      return WallTimer::now() - t0;
    });
    out.emplace_back(std::string("rdmarpc.call_rtt_ns.") + kKindNames[k], ns);
  }
  return ok;
}

/// Channel::call_async → callback against a bare xrpc::Server that
/// answers inline with the reply the deployment would give.
bool xrpc_layer(double budget, const Inputs& in, MetricList& out) {
  auto server = xrpc::Server::start([&in](xrpc::CallContext ctx) {
    for (size_t k = 0; k < kKinds; ++k) {
      if (ctx.method == kMethods[k]) {
        ctx.respond(Code::kOk, ByteSpan(in.expected[k][0]));
        return;
      }
    }
    ctx.respond(Code::kUnimplemented, {});
  });
  if (!server.is_ok()) return false;
  auto chan = xrpc::Channel::connect((*server)->port());
  if (!chan.is_ok()) return false;
  bool ok = true;
  for (size_t k = 0; k < kKinds; ++k) {
    double ns = sample_ns(budget, [&] {
      std::atomic<bool> done{false};
      bool match = false;
      uint64_t t0 = WallTimer::now();
      Status st = (*chan)->call_async(kMethods[k], ByteSpan(in.wire[k][0]),
                                      [&](Code code, Bytes got) {
                                        match = code == Code::kOk && got == in.expected[k][0];
                                        done.store(true, std::memory_order_release);
                                      });
      ok &= st.is_ok();
      while (st.is_ok() && !done.load(std::memory_order_acquire)) std::this_thread::yield();
      ok &= match;
      return WallTimer::now() - t0;
    });
    out.emplace_back(std::string("xrpc.call_rtt_us.") + kKindNames[k], ns / 1000.0);
  }
  (*chan)->close();
  (*server)->shutdown();
  return ok;
}

}  // namespace

bool run_layers(double budget_s, uint64_t seed, MetricList& out) {
  Codec c;
  if (!c.init()) return false;
  Inputs in = Inputs::make(c.pool, seed);
  // 20 timed measurements share the budget.
  const double each = budget_s / 20.0;
  bool ok = true;
  ok &= wire_layer(each, in, out);
  ok &= adt_layer(each, c, in, out);
  ok &= dpu_layer(each, c, in, out);
  ok &= simverbs_layer(each, out);
  ok &= rdmarpc_layer(each, c, in, out);
  ok &= xrpc_layer(each, in, out);
  return ok;
}

}  // namespace perfbench

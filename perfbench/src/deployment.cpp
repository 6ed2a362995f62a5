#include "deployment.hpp"

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"

namespace perfbench {

namespace {

// Distinct inputs per kind: enough that the proxy never sees one payload
// twice in a row, few enough to stay in cache like a steady RPC stream.
constexpr size_t kSmallInputs = 1024;
constexpr size_t kIntsInputs = 64;
constexpr size_t kCharsInputs = 16;
constexpr size_t kStreamBytes = 512 * 1024;

/// Charges the calling thread's CPU time to `sink` for the scope.
class HandlerTimer {
 public:
  explicit HandlerTimer(std::atomic<uint64_t>& sink)
      : sink_(sink), start_(ThreadCpuTimer::now()) {}
  ~HandlerTimer() {
    sink_.fetch_add(ThreadCpuTimer::now() - start_, std::memory_order_relaxed);
  }
  HandlerTimer(const HandlerTimer&) = delete;
  HandlerTimer& operator=(const HandlerTimer&) = delete;

 private:
  std::atomic<uint64_t>& sink_;
  uint64_t start_;
};

}  // namespace

void parse_schema(proto::DescriptorPool& pool) {
  proto::SchemaParser parser(pool);
  Status st = parser.parse_and_link(kSchema);
  if (!st.is_ok()) {
    std::fprintf(stderr, "perfbench: schema: %s\n", st.to_string().c_str());
    std::abort();
  }
}

Bytes Inputs::ack_wire(const proto::DescriptorPool& pool, uint64_t v) {
  const auto* ack = pool.find_message("lb.Ack");
  proto::DynamicMessage m(ack);
  m.set_uint64(ack->field_by_name("stamp"), v);
  return proto::WireCodec::serialize(m);
}

Inputs Inputs::make(const proto::DescriptorPool& pool, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in;

  const auto* small = pool.find_message("lb.Small");
  for (size_t i = 0; i < kSmallInputs; ++i) {
    // Nonzero, so proto3 presence keeps the stamp on the Ack's wire.
    uint64_t stamp = 1 + rng() % (1ull << 40);
    proto::DynamicMessage s(small);
    s.set_int64(small->field_by_name("id"), static_cast<int32_t>(rng() % 100000));
    s.set_uint64(small->field_by_name("flag"), 1);
    s.set_float(small->field_by_name("score"), 1.5f);
    s.set_uint64(small->field_by_name("stamp"), stamp);
    in.wire[0].push_back(proto::WireCodec::serialize(s));
    in.expected[0].push_back(ack_wire(pool, stamp));
  }

  const auto* ints = pool.find_message("lb.IntArray");
  SkewedVarintDistribution dist;
  for (size_t i = 0; i < kIntsInputs; ++i) {
    proto::DynamicMessage m(ints);
    for (size_t k = 0; k < kIntsCount; ++k) {
      m.add_uint64(ints->field_by_name("values"), dist(rng));
    }
    in.wire[1].push_back(proto::WireCodec::serialize(m));
    in.expected[1].push_back(in.wire[1].back());  // echoed byte for byte
  }

  const auto* chars = pool.find_message("lb.CharArray");
  for (size_t i = 0; i < kCharsInputs; ++i) {
    proto::DynamicMessage m(chars);
    m.set_string(chars->field_by_name("data"), random_ascii(rng, kCharsCount));
    in.wire[2].push_back(proto::WireCodec::serialize(m));
    in.expected[2].push_back(ack_wire(pool, kCharsCount));
  }

  const auto* row = pool.find_message("lb.Row");
  while (in.stream_payload.size() < kStreamBytes) {
    proto::DynamicMessage m(row);
    m.set_uint64(row->field_by_name("row_id"), in.stream_payload.size());
    m.set_string(row->field_by_name("cells"), random_ascii(rng, 256 + rng() % 1024));
    Bytes w = proto::WireCodec::serialize(m);
    in.stream_payload.insert(in.stream_payload.end(), w.begin(), w.end());
  }
  return in;
}

Deployment::~Deployment() {
  if (proxy_) proxy_->stop();
  stop_.store(true);
  if (host_conn_) host_conn_->interrupt();
  if (host_thread_.joinable()) host_thread_.join();
}

Status Deployment::start() {
  parse_schema(pool_);
  auto built = grpccompat::OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
  if (!built.is_ok()) return built.status();
  manifest_ = std::make_unique<grpccompat::OffloadManifest>(std::move(*built));

  dpu_pd_ = std::make_unique<simverbs::ProtectionDomain>("dpu");
  host_pd_ = std::make_unique<simverbs::ProtectionDomain>("host");
  dpu_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kClient, dpu_pd_.get(),
                                                    rdmarpc::ConnectionConfig{});
  host_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kServer, host_pd_.get(),
                                                     rdmarpc::ConnectionConfig{});
  DPURPC_RETURN_IF_ERROR(rdmarpc::Connection::connect(*dpu_conn_, *host_conn_));
  host_ = std::make_unique<grpccompat::HostEngine>(host_conn_.get(), manifest_.get(), &pool_);
  DPURPC_RETURN_IF_ERROR(register_handlers());

  host_thread_ = std::thread([this] {
    rdmarpc::RpcServer& server = host_->rpc_server();
    while (!stop_.load(std::memory_order_relaxed)) {
      auto n = host_->event_loop_once();
      if (!n.is_ok()) {
        std::fprintf(stderr, "perfbench: host event loop: %s\n",
                     n.status().to_string().c_str());
        return;
      }
      hint_retries_.store(server.block_hint_retries(), std::memory_order_relaxed);
      if (*n == 0) host_->wait(1);
    }
  });

  proxy_ = std::make_unique<grpccompat::DpuProxy>(dpu_conn_.get(), manifest_.get());
  auto port = proxy_->start();
  if (!port.is_ok()) return port.status();
  port_ = *port;
  return Status::ok();
}

Status Deployment::register_handlers() {
  // Business logic is a field read (the paper's empty-logic scenarios),
  // except Ints, which echoes its 512 values so the DPU encodes a reply
  // twice the request's wire size.
  DPURPC_RETURN_IF_ERROR(host_->register_unary_object(
      kMethods[0], [this](const grpccompat::ServerContext&, const adt::LayoutView& req,
                          adt::LayoutBuilder& resp) {
        HandlerTimer t(handler_ns_);
        return resp.set_uint64(1, req.get_uint64(4));
      }));
  auto echo = [this](const grpccompat::ServerContext&, const adt::LayoutView& req,
                     adt::LayoutBuilder& resp) {
    HandlerTimer t(handler_ns_);
    uint32_t n = req.repeated_size(1);
    for (uint32_t i = 0; i < n; ++i) {
      DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, req.repeated_uint64(1, i)));
    }
    return Status::ok();
  };
  DPURPC_RETURN_IF_ERROR(host_->register_unary_object(kMethods[1], echo));
  DPURPC_RETURN_IF_ERROR(host_->register_unary_object(
      kMethods[2], [this](const grpccompat::ServerContext&, const adt::LayoutView& req,
                          adt::LayoutBuilder& resp) {
        HandlerTimer t(handler_ns_);
        return resp.set_uint64(1, req.get_string(1).size());
      }));
  // Bulk sink: counts each stream's bytes and acks with the total.
  auto bytes = std::make_shared<std::unordered_map<uint32_t, uint64_t>>();
  return host_->register_stream(
      kBulkMethod, [this, bytes](const grpccompat::ServerContext&, uint32_t stream_id,
                                 ByteSpan chunk, bool end, Bytes& final_response) -> Status {
        HandlerTimer t(handler_ns_);
        if (end) {
          final_response = Inputs::ack_wire(pool_, (*bytes)[stream_id]);
          bytes->erase(stream_id);
          return Status::ok();
        }
        (*bytes)[stream_id] += chunk.size();
        return Status::ok();
      });
}

uint64_t Deployment::host_cpu_ns() const {
  clockid_t cid;
  // const_cast: native_handle() is non-const, reading the clock is not.
  auto& t = const_cast<std::thread&>(host_thread_);
  if (pthread_getcpuclockid(t.native_handle(), &cid) != 0) return 0;
  return clock_ns(cid);
}

}  // namespace perfbench

// End-to-end offload tests: xRPC client → DPU proxy (deserialization
// offload) → RPC over RDMA → host compat layer → business logic → back.
// This is Fig. 1 of the paper as a running system.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/endian.hpp"
#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package kv;

message GetRequest { string key = 1; uint32 shard = 2; }
message GetResponse { string value = 1; bool found = 2; }
message PutRequest { string key = 1; string value = 2; }
message PutResponse { bool created = 1; }
message StatsRequest { repeated uint32 shard_ids = 1; }
message StatsResponse { uint64 keys = 1; double load = 2; }

service KvStore {
  rpc Get (GetRequest) returns (GetResponse);
  rpc Put (PutRequest) returns (PutResponse);
  rpc Stats (StatsRequest) returns (StatsResponse);
}
)";

// Full deployment harness: host engine thread + DPU proxy + xRPC channel.
class OffloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());

    // Host builds the manifest and "ships" it to the DPU (serialize →
    // deserialize round-trip, like the real one-time transfer).
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    host_manifest_ = std::make_unique<OffloadManifest>(std::move(*built));
    Bytes shipped = host_manifest_->serialize();
    auto received = OffloadManifest::deserialize(ByteSpan(shipped));
    ASSERT_TRUE(received.is_ok()) << received.status().to_string();
    dpu_manifest_ = std::make_unique<OffloadManifest>(std::move(*received));

    // RDMA link between DPU (client role) and host (server role).
    dpu_pd_ = std::make_unique<simverbs::ProtectionDomain>("dpu");
    host_pd_ = std::make_unique<simverbs::ProtectionDomain>("host");
    dpu_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kClient,
                                                      dpu_pd_.get(),
                                                      rdmarpc::ConnectionConfig{});
    host_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kServer,
                                                       host_pd_.get(),
                                                       rdmarpc::ConnectionConfig{});
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conn_, *host_conn_).is_ok());

    host_ = std::make_unique<HostEngine>(host_conn_.get(), host_manifest_.get(), &pool_);
  }

  void start_host_loop() {
    host_thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        auto n = host_->event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) host_->wait(1);
      }
    });
  }

  void TearDown() override {
    if (proxy_) proxy_->stop();
    stop_.store(true);
    host_conn_->interrupt();
    if (host_thread_.joinable()) host_thread_.join();
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> host_manifest_, dpu_manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;
  std::unique_ptr<DpuProxy> proxy_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
};

TEST_F(OffloadFixture, ManifestMapsAllMethods) {
  EXPECT_EQ(host_manifest_->methods().size(), 3u);
  const auto* get = host_manifest_->find_by_name("kv.KvStore/Get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->input_type, "kv.GetRequest");
  EXPECT_EQ(get->output_type, "kv.GetResponse");
  EXPECT_EQ(host_manifest_->find_by_id(get->method_id), get);
  EXPECT_EQ(host_manifest_->find_by_name("kv.KvStore/Nope"), nullptr);
  // The shipped manifest agrees.
  EXPECT_EQ(dpu_manifest_->methods().size(), 3u);
  EXPECT_NE(dpu_manifest_->adt().find_class("kv.GetRequest"), UINT32_MAX);
}

TEST_F(OffloadFixture, RegisterUnknownMethodFails) {
  EXPECT_EQ(host_->register_unary("kv.KvStore/Nope", nullptr).code(), Code::kNotFound);
  EXPECT_EQ(host_->register_stream("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
  EXPECT_EQ(host_->register_unary_inplace("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
  EXPECT_EQ(host_->register_unary_object("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
}

TEST_F(OffloadFixture, FullOffloadPathEndToEnd) {
  // Business logic on the host: zero deserialization — reads the request
  // through the in-place object view.
  std::map<std::string, std::string> store;
  const auto* get_resp_desc = pool_.find_message("kv.GetResponse");
  const auto* put_resp_desc = pool_.find_message("kv.PutResponse");
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [&store](const ServerContext&, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        std::string key(req.get_string(1));
                        bool created = store.find(key) == store.end();
                        store[key] = std::string(req.get_string(2));
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        created ? 1 : 0);
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [&store](const ServerContext& ctx, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        EXPECT_EQ(ctx.grpc_context, nullptr);  // mocked (§V.D)
                        auto it = store.find(std::string(req.get_string(1)));
                        if (it != store.end()) {
                          resp.set_string(resp.descriptor()->field_by_name("value"),
                                          it->second);
                          resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
                        }
                        return Status::ok();
                      })
                  .is_ok());
  (void)get_resp_desc;
  (void)put_resp_desc;
  start_host_loop();

  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();

  // The unmodified xRPC client dials the DPU's address (§III.A).
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // Serialize requests the way any gRPC client would.
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  const auto* get_desc = pool_.find_message("kv.GetRequest");

  auto put = [&](const std::string& k, const std::string& v) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), k);
    m.set_string(put_desc->field_by_name("value"), v);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Put", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.PutResponse"));
    ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  };
  auto get = [&](const std::string& k) -> std::pair<bool, std::string> {
    proto::DynamicMessage m(get_desc);
    m.set_string(get_desc->field_by_name("key"), k);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
    EXPECT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    return {r.get_uint64(r.descriptor()->field_by_name("found")) != 0,
            r.get_string(r.descriptor()->field_by_name("value"))};
  };

  put("alpha", "first value");
  put("beta", std::string(500, 'b'));  // beyond SSO, spills to the arena
  auto [found_a, val_a] = get("alpha");
  EXPECT_TRUE(found_a);
  EXPECT_EQ(val_a, "first value");
  auto [found_b, val_b] = get("beta");
  EXPECT_TRUE(found_b);
  EXPECT_EQ(val_b, std::string(500, 'b'));
  auto [found_c, val_c] = get("gamma");
  EXPECT_FALSE(found_c);
  EXPECT_TRUE(val_c.empty());

  EXPECT_EQ(proxy_->stats().offloaded_requests.load(), 5u);
  EXPECT_EQ(proxy_->stats().responses_forwarded.load(), 5u);
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 0u);
}

TEST_F(OffloadFixture, ObjectResponsePathServedByThePlanSerializer) {
  // register_unary_object: the handler builds the response *object* with
  // a LayoutBuilder and the host serializes it through the compiled plan —
  // the middle rung between the WireCodec baseline and DPU-side response
  // offload. An unmodified client must see byte-compatible responses.
  std::map<std::string, std::string> store;
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Get",
                      [&store](const ServerContext& ctx, const adt::LayoutView& req,
                               adt::LayoutBuilder& resp) {
                        EXPECT_EQ(ctx.grpc_context, nullptr);
                        auto it = store.find(std::string(req.get_string(1)));
                        if (it == store.end()) return Status::ok();  // empty resp
                        DPURPC_RETURN_IF_ERROR(resp.set_string(1, it->second));
                        return resp.set_bool(2, true);
                      })
                  .is_ok());
  // Unknown method still rejected through this registration flavor.
  EXPECT_EQ(host_->register_unary_object("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  store["alpha"] = "plan-served value";
  store["big"] = std::string(2000, 'z');  // spills past SSO into the arena

  const auto* get_desc = pool_.find_message("kv.GetRequest");
  auto get = [&](const std::string& k) -> std::pair<bool, std::string> {
    proto::DynamicMessage m(get_desc);
    m.set_string(get_desc->field_by_name("key"), k);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
    EXPECT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    return {r.get_uint64(r.descriptor()->field_by_name("found")) != 0,
            r.get_string(r.descriptor()->field_by_name("value"))};
  };

  auto [found_a, val_a] = get("alpha");
  EXPECT_TRUE(found_a);
  EXPECT_EQ(val_a, "plan-served value");
  auto [found_b, val_b] = get("big");
  EXPECT_TRUE(found_b);
  EXPECT_EQ(val_b, std::string(2000, 'z'));
  auto [found_c, val_c] = get("missing");  // handler returns an empty object
  EXPECT_FALSE(found_c);
  EXPECT_TRUE(val_c.empty());
  EXPECT_EQ(host_->requests_served(), 3u);
}

TEST_F(OffloadFixture, RepeatedFieldsThroughTheFullPath) {
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Stats",
                      [](const ServerContext&, const adt::LayoutView& req,
                         proto::DynamicMessage& resp) {
                        uint64_t sum = 0;
                        for (uint32_t i = 0; i < req.repeated_size(1); ++i) {
                          sum += req.repeated_uint64(1, i);
                        }
                        resp.set_uint64(resp.descriptor()->field_by_name("keys"), sum);
                        resp.set_double(resp.descriptor()->field_by_name("load"),
                                        static_cast<double>(req.repeated_size(1)));
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* desc = pool_.find_message("kv.StatsRequest");
  proto::DynamicMessage m(desc);
  uint64_t expect = 0;
  std::mt19937_64 rng(kDefaultSeed);
  SkewedVarintDistribution dist;
  for (int i = 0; i < 512; ++i) {
    uint32_t v = dist(rng);
    expect += v;
    m.add_uint64(desc->field_by_name("shard_ids"), v);
  }
  Bytes wire = proto::WireCodec::serialize(m);
  auto resp = (*chan)->call("kv.KvStore/Stats", ByteSpan(wire));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  proto::DynamicMessage r(pool_.find_message("kv.StatsResponse"));
  ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  EXPECT_EQ(r.get_uint64(r.descriptor()->field_by_name("keys")), expect);
  EXPECT_DOUBLE_EQ(r.get_double(r.descriptor()->field_by_name("load")), 512.0);
}

TEST_F(OffloadFixture, MalformedPayloadRejectedAtTheDpu) {
  // The DPU (not the host) pays for and rejects malformed requests.
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  Bytes garbage = to_bytes("\x0a\xff\xff\xff\xff not a protobuf");
  auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(garbage));
  EXPECT_FALSE(resp.is_ok());
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 1u);
  EXPECT_EQ(host_->requests_served(), 0u);  // the host never saw it
}

// A request whose decoded object cannot fit even a maximum-size RDMA
// block is a per-call error: it fails fast with kOutOfRange, the lane
// keeps serving, and no credit is left behind.
TEST_F(OffloadFixture, OversizedRequestFailsOnlyItsOwnCall) {
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage& resp) {
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  auto put = [&](const std::string& key, size_t value_bytes) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), key);
    m.set_string(put_desc->field_by_name("value"), std::string(value_bytes, 'v'));
    Bytes wire = proto::WireCodec::serialize(m);
    return (*chan)->call("kv.KvStore/Put", ByteSpan(wire), /*timeout_ms=*/1000);
  };
  // Credits at rest, after one call has completed the connection setup.
  ASSERT_TRUE(put("warm", 8).is_ok());
  auto credits_settle_at = [&](uint32_t want) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (dpu_conn_->credits_available() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return dpu_conn_->credits_available();
  };
  const uint32_t baseline = credits_settle_at(rdmarpc::ConnectionConfig{}.credits);

  const auto t0 = std::chrono::steady_clock::now();
  auto big = put("big", 100 * 1024);
  EXPECT_EQ(big.status().code(), Code::kOutOfRange);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 1u);

  // The same (only) lane keeps serving, and the host never saw the reject.
  auto small = put("small", 8);
  ASSERT_TRUE(small.is_ok()) << small.status().to_string();
  EXPECT_EQ(host_->requests_served(), 2u);
  EXPECT_EQ(proxy_->stats().offloaded_requests.load(), 2u);
  EXPECT_EQ(credits_settle_at(baseline), baseline);
}

TEST_F(OffloadFixture, UnknownXrpcMethodRejectedAtTheDpu) {
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("kv.KvStore/DoesNotExist", {});
  EXPECT_EQ(resp.status().code(), Code::kNotFound);  // rejected by the proxy
  EXPECT_EQ(host_->requests_served(), 0u);
}

TEST_F(OffloadFixture, ConcurrentXrpcClientsThroughOneProxy) {
  // The DPU multiplexes many xRPC connections onto one host link (§III.A).
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView& req,
                         proto::DynamicMessage& resp) {
                        resp.set_string(resp.descriptor()->field_by_name("value"),
                                        std::string(req.get_string(1)) + "!");
                        resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());

  constexpr int kClients = 3, kCallsEach = 30;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      const auto* desc = pool_.find_message("kv.GetRequest");
      for (int i = 0; i < kCallsEach; ++i) {
        proto::DynamicMessage m(desc);
        std::string key = "k" + std::to_string(c) + "-" + std::to_string(i);
        m.set_string(desc->field_by_name("key"), key);
        Bytes wire = proto::WireCodec::serialize(m);
        auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
        ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
        proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
        ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
        EXPECT_EQ(r.get_string(r.descriptor()->field_by_name("value")), key + "!");
        ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);
  EXPECT_EQ(host_->requests_served(), static_cast<uint64_t>(kClients * kCallsEach));
}

// ------------------------------------------------------------- streaming

uint64_t fnv1a(ByteSpan data) {
  uint64_t h = 1469598103934665603ull;
  for (std::byte b : data) {
    h ^= static_cast<uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

TEST_F(OffloadFixture, StreamedBulkTransferEndToEnd) {
  // The tentpole path: a multi-MB stream of kv.PutRequest records chunked
  // by the client, cut at record boundaries and chunk-decoded on the DPU
  // pool under a bounded per-stream budget, forwarded to the host as
  // (possibly fragmented) unary RPCs, and answered with a digest of the
  // reassembled bytes. Bit-for-bit parity: the host must accumulate
  // exactly the WireCodec oracle's concatenation.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  Bytes finished_stream;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t stream_id,
                          ByteSpan chunk, bool end, Bytes& final_response) {
                        std::lock_guard<std::mutex> lk(mu);
                        Bytes& acc = accumulated[stream_id];
                        if (end) {
                          final_response.resize(8);
                          store_le(final_response.data(), fnv1a(ByteSpan(acc)));
                          finished_stream = std::move(acc);
                          accumulated.erase(stream_id);
                          return Status::ok();
                        }
                        acc.insert(acc.end(), chunk.begin(), chunk.end());
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();

  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  StreamOptions sopts;
  sopts.per_stream_budget = 256 * 1024;  // force backpressure on a 1.5 MB stream
  sopts.piece_target = 64 * 1024;        // pieces fragment on the RDMA hop too
  proxy_->set_stream_options(sopts);
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // The oracle: WireCodec-serialized records, concatenated.
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes oracle;
  int n_records = 0;
  while (oracle.size() < 1536u * 1024) {  // ~1.5 MB, 6x the budget
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"),
                 "key-" + std::to_string(n_records));
    m.set_string(put_desc->field_by_name("value"),
                 random_ascii(rng, 200 + rng() % 1200));
    Bytes wire = proto::WireCodec::serialize(m);
    oracle.insert(oracle.end(), wire.begin(), wire.end());
    ++n_records;
  }
  ASSERT_GT(oracle.size(), sopts.per_stream_budget);

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
  constexpr size_t kWrite = 32 * 1024;  // deliberately not record-aligned
  for (size_t off = 0; off < oracle.size(); off += kWrite) {
    size_t n = std::min(kWrite, oracle.size() - off);
    ASSERT_TRUE((*stream)->write(ByteSpan(oracle.data() + off, n)).is_ok());
  }
  auto resp = (*stream)->finish(60000);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_EQ(resp->size(), 8u);
  EXPECT_EQ(load_le<uint64_t>(resp->data()), fnv1a(ByteSpan(oracle)));

  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(finished_stream.size(), oracle.size());
    EXPECT_TRUE(std::equal(finished_stream.begin(), finished_stream.end(),
                           oracle.begin()));
    EXPECT_TRUE(accumulated.empty());
  }

  // Bounded memory: the proxy never held more than the configured budget.
  EXPECT_GT(proxy_->stats().stream_chunks.load(), 0u);
  EXPECT_EQ(proxy_->stats().stream_bytes.load(), oracle.size());
  EXPECT_LE(proxy_->stats().stream_peak_bytes.load(), sopts.per_stream_budget);
  EXPECT_EQ(proxy_->stats().stream_aborts.load(), 0u);
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 0u);
  // Stream pieces are the pool's work: every piece is a pool decode
  // unless the ring was full (overload spill), and nothing else reached
  // the pool.
  const dpu::CodecPool& codec = proxy_->codec_pool();
  for (size_t w = 0; w < codec.worker_count(); ++w) {
    EXPECT_EQ(codec.worker_stats(w).encodes, 0u) << "worker " << w;
  }
  EXPECT_EQ(codec.total_jobs() + proxy_->stats().inline_decodes.load(),
            proxy_->stats().stream_chunks.load());
  EXPECT_EQ(proxy_->stats().offloaded_requests.load(), 0u);
  // Backpressure engaged at the xRPC edge: the 1.5 MB stream had to wait
  // for the 256 KiB window at least once.
  EXPECT_GE((*stream)->credit_stalls(), 1u);
}

TEST_F(OffloadFixture, StreamMalformedRecordAbortsAtTheDpu) {
  bool host_saw_stream = false;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t, ByteSpan, bool,
                          Bytes&) {
                        host_saw_stream = true;
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  // Field number 0 is never a valid tag: the record-boundary scan must
  // refuse it at the DPU without forwarding anything to the host.
  Bytes junk = {std::byte{0x00}, std::byte{0x01}, std::byte{0x02}};
  ASSERT_TRUE((*stream)->write(ByteSpan(junk)).is_ok());
  auto resp = (*stream)->finish();
  EXPECT_FALSE(resp.is_ok());
  EXPECT_FALSE(host_saw_stream);
  EXPECT_GE(proxy_->stats().stream_aborts.load(), 1u);
}

TEST_F(OffloadFixture, StreamAbortMidTransferDrainsCleanly) {
  // Client abort mid-stream: the proxy must drop every buffered piece and
  // retire its in-pool decodes without leaking a slice (ASan-checked when
  // the tier runs sanitized), and the datapath must stay healthy for the
  // next call — including a full second stream over the same lane.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  Bytes finished_stream;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t stream_id,
                          ByteSpan chunk, bool end, Bytes& final_response) {
                        std::lock_guard<std::mutex> lk(mu);
                        Bytes& acc = accumulated[stream_id];
                        if (end) {
                          final_response.resize(8);
                          store_le(final_response.data(), fnv1a(ByteSpan(acc)));
                          finished_stream = std::move(acc);
                          accumulated.erase(stream_id);
                          return Status::ok();
                        }
                        acc.insert(acc.end(), chunk.begin(), chunk.end());
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage& resp) {
                        resp.set_uint64(resp.descriptor()->field_by_name("found"),
                                        0);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  StreamOptions sopts;
  sopts.per_stream_budget = 256 * 1024;
  sopts.piece_target = 32 * 1024;
  proxy_->set_stream_options(sopts);
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes records;
  for (int i = 0; i < 400; ++i) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(put_desc->field_by_name("value"), random_ascii(rng, 700));
    Bytes wire = proto::WireCodec::serialize(m);
    records.insert(records.end(), wire.begin(), wire.end());
  }

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  // Push enough that pieces are in the pool and on the RDMA hop, then pull
  // the plug mid-transfer.
  size_t sent = 0;
  for (; sent < records.size() / 2; sent += 16 * 1024) {
    size_t n = std::min<size_t>(16 * 1024, records.size() - sent);
    ASSERT_TRUE((*stream)->write(ByteSpan(records.data() + sent, n)).is_ok());
  }
  (*stream)->abort(Code::kAborted);

  // The abort races the in-flight pieces; give the proxy a moment to drain.
  for (int i = 0; i < 200 && proxy_->stats().stream_aborts.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(proxy_->stats().stream_aborts.load(), 1u);

  // Datapath still healthy: a unary call and a complete second stream.
  const auto* get_desc = pool_.find_message("kv.GetRequest");
  proto::DynamicMessage g(get_desc);
  g.set_string(get_desc->field_by_name("key"), "after-abort");
  Bytes gw = proto::WireCodec::serialize(g);
  auto unary = (*chan)->call("kv.KvStore/Get", ByteSpan(gw));
  EXPECT_TRUE(unary.is_ok()) << unary.status().to_string();

  auto stream2 = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream2.is_ok());
  for (size_t off = 0; off < records.size(); off += 16 * 1024) {
    size_t n = std::min<size_t>(16 * 1024, records.size() - off);
    ASSERT_TRUE((*stream2)->write(ByteSpan(records.data() + off, n)).is_ok());
  }
  auto resp2 = (*stream2)->finish(60000);
  ASSERT_TRUE(resp2.is_ok()) << resp2.status().to_string();
  EXPECT_EQ(load_le<uint64_t>(resp2->data()), fnv1a(ByteSpan(records)));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(finished_stream.size(), records.size());
  }
}

}  // namespace
}  // namespace dpurpc::grpccompat

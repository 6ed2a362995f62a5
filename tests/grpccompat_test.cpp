// End-to-end offload tests: xRPC client → DPU proxy (deserialization
// offload) → RPC over RDMA → host compat layer → business logic → back.
// This is Fig. 1 of the paper as a running system.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
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
  EXPECT_EQ(host_->register_unary_object("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
}

TEST_F(OffloadFixture, OneRegistrySeesEveryLayer) {
  // One offloaded call with default connections, then the monitoring
  // scrape on the proxy's port: transport and codec families all land in
  // the one process registry.
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView&,
                         adt::LayoutBuilder& resp) { return resp.set_bool(2, true); })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  proto::DynamicMessage get(pool_.find_message("kv.GetRequest"));
  get.set_string(get.descriptor()->field_by_name("key"), "alpha");
  Bytes wire = proto::WireCodec::serialize(get);
  ASSERT_TRUE((*chan)->call("kv.KvStore/Get", ByteSpan(wire)).is_ok());

  auto scrape = (*chan)->call(xrpc::kMetricsMethod, {});
  ASSERT_TRUE(scrape.is_ok()) << scrape.status().to_string();
  std::string text(as_string_view(ByteSpan(*scrape)));
  for (const char* family :
       {"rdmarpc_blocks_sent_total", "rdmarpc_request_latency_seconds_count",
        "dpurpc_deser_plan_parses_total", "dpurpc_ser_plan_serializes_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
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

TEST_F(OffloadFixture, StopReturnsWhileALaneIsBackpressured) {
  // The host engine is never pumped: the lane runs out of request IDs and
  // credits and sits in its backpressure routine, its queue fills, and the
  // xRPC reader blocks posting to it. stop() must still return promptly.
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* desc = pool_.find_message("kv.GetRequest");
  proto::DynamicMessage m(desc);
  m.set_string(desc->field_by_name("key"), std::string(4000, 'k'));
  const Bytes wire = proto::WireCodec::serialize(m);
  constexpr int kCalls = 4000;
  std::atomic<int> sent{0};
  std::thread sender([&] {
    for (int i = 0; i < kCalls; ++i) {
      // Blocks once the socket buffers fill; close() below releases it.
      if (!(*chan)->call_async("kv.KvStore/Get", ByteSpan(wire), [](Code, Bytes) {})
               .is_ok()) {
        return;
      }
      sent.fetch_add(1);
    }
  });
  // Back-pressured: neither the sender nor the lane has moved for 200 ms.
  auto progress = [&] {
    return std::make_pair(sent.load(), proxy_->stats().offloaded_requests.load());
  };
  auto last = progress();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto now = progress();
    if (now == last && now.second > 0) break;
    last = now;
  }

  auto t0 = std::chrono::steady_clock::now();
  auto stopped = std::async(std::launch::async, [&] { proxy_->stop(); });
  const bool returned =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "stop() hung with " << last.first << " calls sent and "
                        << last.second << " forwarded";
  if (returned) {
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  } else {
    start_host_loop();  // drain the backlog so the hung stop() can finish
  }
  stopped.wait();
  (*chan)->close();
  sender.join();
}

// The host's Get answer for the reply tests below: echoes the key's
// leading tag (everything before ':') as the value.
Status tag_echo(const ServerContext&, const adt::LayoutView& req,
                proto::DynamicMessage& resp) {
  std::string_view key = req.get_string(1);
  resp.set_string(resp.descriptor()->field_by_name("value"),
                  std::string(key.substr(0, key.find(':'))));
  resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
  return Status::ok();
}

// The value of one unlabeled counter in a metrics exposition text.
double exposed(std::string_view text, std::string_view name) {
  std::string needle = "\n" + std::string(name) + " ";
  size_t at = text.find(needle);
  if (at == std::string_view::npos) return 0;
  return std::stod(std::string(text.substr(at + needle.size())));
}

// A burst the host answers together: the lane completes the replies in
// one pump and sends them in one socket write, so the proxy's scrape
// shows more frames sent than socket writes. Every reply stays exact.
TEST_F(OffloadFixture, BurstRepliesShareSocketWrites) {
  ASSERT_TRUE(host_->register_unary("kv.KvStore/Get", tag_echo).is_ok());
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  auto scrape = [&] {
    auto text = (*chan)->call(xrpc::kMetricsMethod, {});
    EXPECT_TRUE(text.is_ok()) << text.status().to_string();
    return text.is_ok() ? std::string(as_string_view(ByteSpan(*text))) : "";
  };
  const std::string before = scrape();

  constexpr int kCalls = 16;
  const auto* desc = pool_.find_message("kv.GetRequest");
  std::mutex mu;
  std::map<int, std::string> values;
  std::atomic<int> done{0};
  for (int i = 0; i < kCalls; ++i) {
    proto::DynamicMessage m(desc);
    m.set_string(desc->field_by_name("key"), "tag" + std::to_string(i) + ":key");
    Bytes wire = proto::WireCodec::serialize(m);
    ASSERT_TRUE((*chan)
                    ->call_async("kv.KvStore/Get", ByteSpan(wire),
                                 [&, i](Code code, Bytes payload) {
                                   proto::DynamicMessage r(
                                       pool_.find_message("kv.GetResponse"));
                                   std::string value = "<failed>";
                                   if (code == Code::kOk &&
                                       proto::WireCodec::parse(ByteSpan(payload), r)
                                           .is_ok()) {
                                     value = r.get_string(
                                         r.descriptor()->field_by_name("value"));
                                   }
                                   {
                                     std::lock_guard<std::mutex> lk(mu);
                                     values[i] = value;
                                   }
                                   done.fetch_add(1);
                                 })
                    .is_ok());
  }
  // The host starts only once the whole burst is with it, so it answers
  // the burst in one go.
  for (int i = 0; i < 500 && proxy_->stats().offloaded_requests.load() < kCalls; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(proxy_->stats().offloaded_requests.load(), uint64_t{kCalls});
  EXPECT_EQ(done.load(), 0);
  start_host_loop();
  for (int i = 0; i < 500 && done.load() < kCalls; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(done.load(), kCalls);
  for (int i = 0; i < kCalls; ++i) EXPECT_EQ(values[i], "tag" + std::to_string(i));

  // The first scrape's own reply counts once in each family.
  const std::string after = scrape();
  const double frames = exposed(after, "dpurpc_xrpc_frames_sent_total") -
                        exposed(before, "dpurpc_xrpc_frames_sent_total");
  const double writes = exposed(after, "dpurpc_xrpc_socket_writes_total") -
                        exposed(before, "dpurpc_xrpc_socket_writes_total");
  EXPECT_EQ(frames, kCalls + 1.0);
  EXPECT_LT(writes, frames) << "no two replies shared a socket write";
  EXPECT_GE(writes, 2.0);
}

// The lane is back-pressured (the host holds every credit) when the host
// answers a few calls: the lane completes those replies inside its
// backpressure routine and must send them then, not when later traffic
// happens to move the lane again.
TEST_F(OffloadFixture, ReplyCompletedUnderBackpressureIsSentWithoutNewTraffic) {
  std::atomic<int> answered{0};
  ASSERT_TRUE(host_
                  ->register_unary("kv.KvStore/Get",
                                   [&](const ServerContext& ctx,
                                       const adt::LayoutView& req,
                                       proto::DynamicMessage& resp) {
                                     answered.fetch_add(1);
                                     return tag_echo(ctx, req, resp);
                                   })
                  .is_ok());
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* desc = pool_.find_message("kv.GetRequest");
  constexpr int kCalls = 4000;
  std::atomic<int> sent{0};
  std::atomic<int> replied{0};
  std::atomic<int> wrong{0};
  std::thread sender([&] {
    for (int i = 0; i < kCalls; ++i) {
      proto::DynamicMessage m(desc);
      const std::string tag = "tag" + std::to_string(i);
      m.set_string(desc->field_by_name("key"), tag + ":" + std::string(4000, 'k'));
      Bytes wire = proto::WireCodec::serialize(m);
      auto done = [&, tag](Code code, Bytes payload) {
        if (code == Code::kUnavailable) return;  // failed at teardown
        proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
        if (code != Code::kOk || !proto::WireCodec::parse(ByteSpan(payload), r).is_ok() ||
            r.get_string(r.descriptor()->field_by_name("value")) != tag) {
          wrong.fetch_add(1);
        }
        replied.fetch_add(1);
      };
      // Blocks once the socket buffers fill; close() below releases it.
      if (!(*chan)->call_async("kv.KvStore/Get", ByteSpan(wire), done).is_ok()) return;
      sent.fetch_add(1);
    }
  });
  auto forwarded = [&] { return proxy_->stats().offloaded_requests.load(); };
  auto wait_for_stall = [&] {
    auto last = std::make_pair(sent.load(), forwarded());
    for (int i = 0; i < 100; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      auto now = std::make_pair(sent.load(), forwarded());
      if (now == last && now.second > 0) return;
      last = now;
    }
  };
  wait_for_stall();
  ASSERT_EQ(replied.load(), 0);
  const uint64_t stalled_at = forwarded();

  // Let the host answer one turn's worth, then hold it again. The lane
  // gets credits back, forwards more of its backlog and runs dry again.
  for (int turns = 0; turns < 1000 && answered.load() == 0; ++turns) {
    ASSERT_TRUE(host_->event_loop_once().is_ok());
    if (answered.load() == 0) host_->wait(1);
  }
  ASSERT_GT(answered.load(), 0);
  wait_for_stall();
  EXPECT_GT(forwarded(), stalled_at);
  ASSERT_LT(forwarded(), uint64_t{kCalls}) << "the lane is no longer back-pressured";

  // Nothing else moves the lane now. Every answered call must still
  // reach the client.
  for (int i = 0; i < 200 && replied.load() < answered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(replied.load(), answered.load())
      << "replies sat in the lane's write batch while it was back-pressured";
  EXPECT_EQ(wrong.load(), 0);

  start_host_loop();  // drain the backlog, then tear down
  proxy_->stop();
  (*chan)->close();
  sender.join();
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
  // by the client, cut at record boundaries into one-message pieces and
  // chunk-decoded on the DPU pool under the bounded per-stream budget,
  // forwarded to the host as unary RPCs, and answered with a digest of
  // the accumulated bytes. Bit-for-bit parity: the host must accumulate
  // exactly the WireCodec oracle's concatenation.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  Bytes finished_stream;
  size_t largest_chunk = 0;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t stream_id,
                          ByteSpan chunk, bool end, Bytes& final_response) {
                        std::lock_guard<std::mutex> lk(mu);
                        largest_chunk = std::max(largest_chunk, chunk.size());
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
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // The oracle: WireCodec-serialized records, concatenated.
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes oracle;
  int n_records = 0;
  while (oracle.size() < 4 * kStreamBudget) {  // backpressure engages
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"),
                 "key-" + std::to_string(n_records));
    m.set_string(put_desc->field_by_name("value"),
                 random_ascii(rng, 200 + rng() % 1200));
    Bytes wire = proto::WireCodec::serialize(m);
    oracle.insert(oracle.end(), wire.begin(), wire.end());
    ++n_records;
  }

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
    // One piece, one RDMA message.
    EXPECT_LE(largest_chunk, kMaxStreamPiece);
  }

  // Bounded memory: the proxy never held more than the budget.
  EXPECT_GT(proxy_->stats().stream_chunks.load(), 0u);
  EXPECT_EQ(proxy_->stats().stream_bytes.load(), oracle.size());
  EXPECT_LE(proxy_->stats().stream_peak_bytes.load(), kStreamBudget);
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
  // Backpressure engaged at the xRPC edge: the stream had to wait for the
  // budget's window at least once.
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

// A kv.PutRequest with only `value` set, exactly `bytes` long on the
// wire: one top-level field, so one record to the proxy's boundary scan.
Bytes put_record_of_size(const proto::MessageDescriptor* put_desc,
                         size_t bytes) {
  size_t value_len = bytes;
  for (;;) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("value"), std::string(value_len, 'v'));
    Bytes wire = proto::WireCodec::serialize(m);
    if (wire.size() == bytes) return wire;
    value_len -= wire.size() - bytes;  // headers only ever add bytes
  }
}

// The host side of the piece-size tests: every chunk is recorded, and the
// end marker answers with the stream's byte count.
struct ChunkLog {
  std::mutex mu;
  std::vector<size_t> chunk_sizes;
  Bytes bytes;
};

Status register_chunk_log(HostEngine& host, ChunkLog& log) {
  return host.register_stream(
      "kv.KvStore/Put",
      [&log](const ServerContext&, uint32_t, ByteSpan chunk, bool end,
             Bytes& final_response) {
        std::lock_guard<std::mutex> lk(log.mu);
        if (end) {
          final_response.resize(8);
          store_le<uint64_t>(final_response.data(), log.bytes.size());
          return Status::ok();
        }
        log.chunk_sizes.push_back(chunk.size());
        log.bytes.insert(log.bytes.end(), chunk.begin(), chunk.end());
        return Status::ok();
      });
}

TEST_F(OffloadFixture, StreamRecordOfExactlyOnePieceStreamsWithParity) {
  // The largest legal record fills a piece, and so one RDMA message, on
  // its own; the small records around it cannot share its piece.
  ChunkLog log;
  ASSERT_TRUE(register_chunk_log(*host_, log).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* put_desc = pool_.find_message("kv.PutRequest");
  const Bytes small = put_record_of_size(put_desc, 100);
  const Bytes full = put_record_of_size(put_desc, kMaxStreamPiece);
  Bytes oracle = small;
  oracle.insert(oracle.end(), full.begin(), full.end());
  oracle.insert(oracle.end(), small.begin(), small.end());

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE((*stream)->write(ByteSpan(oracle)).is_ok());
  auto resp = (*stream)->finish(60000);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(load_le<uint64_t>(resp->data()), oracle.size());

  std::lock_guard<std::mutex> lk(log.mu);
  EXPECT_EQ(log.bytes, oracle);
  EXPECT_EQ(log.chunk_sizes,
            (std::vector<size_t>{small.size(), full.size(), small.size()}));
  EXPECT_EQ(proxy_->stats().stream_aborts.load(), 0u);
}

TEST_F(OffloadFixture, StreamRecordOverOnePieceFailsOnlyItsStream) {
  // One byte past the largest piece: the record can never travel as one
  // message, so its stream fails with kOutOfRange, as an oversized unary
  // request fails its call. The lane keeps serving unary calls and streams.
  ChunkLog log;
  ASSERT_TRUE(register_chunk_log(*host_, log).is_ok());
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage& resp) {
                        resp.set_uint64(resp.descriptor()->field_by_name("found"),
                                        1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  ASSERT_EQ(proxy_->lane_count(), 1u);  // every call below shares the lane
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* put_desc = pool_.find_message("kv.PutRequest");
  const Bytes too_big = put_record_of_size(put_desc, kMaxStreamPiece + 1);
  auto doomed = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(doomed.is_ok());
  ASSERT_TRUE((*doomed)->write(ByteSpan(too_big)).is_ok());
  auto failed = (*doomed)->finish(60000);
  EXPECT_EQ(failed.status().code(), Code::kOutOfRange);
  EXPECT_EQ(proxy_->stats().stream_aborts.load(), 1u);
  {
    std::lock_guard<std::mutex> lk(log.mu);
    EXPECT_TRUE(log.chunk_sizes.empty());  // the host never saw it
  }

  const auto* get_desc = pool_.find_message("kv.GetRequest");
  proto::DynamicMessage g(get_desc);
  g.set_string(get_desc->field_by_name("key"), "after-oversize");
  Bytes gw = proto::WireCodec::serialize(g);
  auto unary = (*chan)->call("kv.KvStore/Get", ByteSpan(gw));
  EXPECT_TRUE(unary.is_ok()) << unary.status().to_string();

  const Bytes fits = put_record_of_size(put_desc, kMaxStreamPiece);
  auto next = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(next.is_ok());
  ASSERT_TRUE((*next)->write(ByteSpan(fits)).is_ok());
  auto resp = (*next)->finish(60000);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  std::lock_guard<std::mutex> lk(log.mu);
  EXPECT_EQ(log.bytes, fits);
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
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes records;
  for (int i = 0; records.size() < 3 * kStreamBudget; ++i) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(put_desc->field_by_name("value"), random_ascii(rng, 700));
    Bytes wire = proto::WireCodec::serialize(m);
    records.insert(records.end(), wire.begin(), wire.end());
  }

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  // Push more than the budget, so pieces are in the pool and on the RDMA
  // hop, then pull the plug mid-transfer.
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

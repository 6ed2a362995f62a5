// Tests for the multi-connection deployment (§III.C at the paper's scale
// shape): a DpuProxy with one dedicated poller lane per connection and a
// HostEnginePool serving all connections from one shared-channel poller.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/engine_pool.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package ml;
message Req { string key = 1; uint32 n = 2; }
message Resp { string echoed = 1; uint64 doubled = 2; }
service Worker { rpc Work (Req) returns (Resp); }
)";

TEST(MultiLane, ProxyLanesAndHostPoolServeConcurrently) {
  constexpr size_t kLanes = 3;
  constexpr int kClients = 4;
  constexpr int kCallsEach = 40;

  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
  auto manifest = OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(manifest.is_ok());

  // The shared channel must be declared BEFORE the connections that use
  // it (they touch it from their destructors).
  auto shared_channel = std::make_unique<simverbs::CompletionChannel>();

  // kLanes independent RDMA connections, paper-style.
  simverbs::ProtectionDomain host_pd("host");
  std::vector<std::unique_ptr<simverbs::ProtectionDomain>> dpu_pds;
  std::vector<std::unique_ptr<rdmarpc::Connection>> dpu_conns, host_conns;
  std::vector<rdmarpc::Connection*> dpu_ptrs, host_ptrs;

  rdmarpc::ConnectionConfig host_cfg;
  host_cfg.shared_channel = shared_channel.get();

  for (size_t i = 0; i < kLanes; ++i) {
    dpu_pds.push_back(std::make_unique<simverbs::ProtectionDomain>(
        "dpu" + std::to_string(i)));
    dpu_conns.push_back(std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kClient, dpu_pds.back().get(), rdmarpc::ConnectionConfig{}));
    host_conns.push_back(std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kServer, &host_pd, host_cfg));
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conns.back(), *host_conns.back())
                    .is_ok());
    dpu_ptrs.push_back(dpu_conns.back().get());
    host_ptrs.push_back(host_conns.back().get());
  }

  HostEnginePool host(host_ptrs, &*manifest, &pool);
  ASSERT_TRUE(host.register_unary_object(
                      "ml.Worker/Work",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(
                            resp.set_string(1, std::string(req.get_string(1))));
                        return resp.set_uint64(2, req.get_uint64(2) * 2);
                      })
                  .is_ok());
  EXPECT_EQ(host.size(), kLanes);

  // One host poller thread sleeping on the external shared channel.
  std::atomic<bool> stop{false};
  std::thread host_thread([&] {
    while (!stop.load()) {
      auto n = host.event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) shared_channel->wait(1);
    }
  });

  DpuProxy proxy(dpu_ptrs, &*manifest);
  EXPECT_EQ(proxy.lane_count(), kLanes);
  auto port = proxy.start();
  ASSERT_TRUE(port.is_ok());

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      const auto* req_desc = pool.find_message("ml.Req");
      const auto* resp_desc = pool.find_message("ml.Resp");
      for (int i = 0; i < kCallsEach; ++i) {
        proto::DynamicMessage q(req_desc);
        std::string key = "c" + std::to_string(c) + "-" + std::to_string(i);
        q.set_string(req_desc->field_by_name("key"), key);
        q.set_uint64(req_desc->field_by_name("n"), static_cast<uint64_t>(i));
        Bytes wire = proto::WireCodec::serialize(q);
        auto resp = (*chan)->call("ml.Worker/Work", ByteSpan(wire));
        ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
        proto::DynamicMessage r(resp_desc);
        ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
        EXPECT_EQ(r.get_string(resp_desc->field_by_name("echoed")), key);
        EXPECT_EQ(r.get_uint64(resp_desc->field_by_name("doubled")),
                  static_cast<uint64_t>(i) * 2);
        ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);

  // Round-robin actually spread the load: every lane carried traffic.
  uint64_t total = 0;
  for (size_t i = 0; i < kLanes; ++i) {
    EXPECT_GT(proxy.lane_requests(i), 0u) << "lane " << i;
    total += proxy.lane_requests(i);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kClients) * kCallsEach);
  EXPECT_EQ(host.requests_served(), total);

  proxy.stop();
  stop.store(true);
  shared_channel->interrupt();
  host_thread.join();
}

// Lane sharding (DESIGN.md §3.14): one proxy with MORE connections than
// codec workers, hammered by concurrent clients. Unary codec work runs on
// the lanes, which round-robin already balances, so the pool sits idle.
// Verifies the codec ledger: every request was decoded, and every reply
// serialized, exactly once on its lane, and the lanes split the calls.
TEST(MultiLane, CodecPoolShardsAcrossFewerWorkersThanLanes) {
  constexpr size_t kLanes = 4;
  constexpr int kWorkers = 2;  // fewer workers than lanes, deliberately
  constexpr int kClients = 6;
  constexpr int kCallsEach = 50;

  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
  auto manifest = OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(manifest.is_ok());

  auto shared_channel = std::make_unique<simverbs::CompletionChannel>();
  simverbs::ProtectionDomain host_pd("host");
  std::vector<std::unique_ptr<simverbs::ProtectionDomain>> dpu_pds;
  std::vector<std::unique_ptr<rdmarpc::Connection>> dpu_conns, host_conns;
  std::vector<rdmarpc::Connection*> dpu_ptrs, host_ptrs;
  rdmarpc::ConnectionConfig host_cfg;
  host_cfg.shared_channel = shared_channel.get();
  for (size_t i = 0; i < kLanes; ++i) {
    dpu_pds.push_back(std::make_unique<simverbs::ProtectionDomain>(
        "dpu" + std::to_string(i)));
    dpu_conns.push_back(std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kClient, dpu_pds.back().get(), rdmarpc::ConnectionConfig{}));
    host_conns.push_back(std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kServer, &host_pd, host_cfg));
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conns.back(), *host_conns.back())
                    .is_ok());
    dpu_ptrs.push_back(dpu_conns.back().get());
    host_ptrs.push_back(host_conns.back().get());
  }

  HostEnginePool host(host_ptrs, &*manifest, &pool);
  ASSERT_TRUE(host.register_unary_object(
                      "ml.Worker/Work",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(
                            resp.set_string(1, std::string(req.get_string(1))));
                        return resp.set_uint64(2, req.get_uint64(2) * 2);
                      })
                  .is_ok());

  std::atomic<bool> stop{false};
  std::thread host_thread([&] {
    while (!stop.load()) {
      auto n = host.event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) shared_channel->wait(1);
    }
  });

  DpuProxy proxy(dpu_ptrs, &*manifest, {}, kWorkers);
  EXPECT_EQ(proxy.codec_pool().worker_count(), static_cast<size_t>(kWorkers));
  EXPECT_EQ(proxy.codec_pool().lane_count(), kLanes);
  auto port = proxy.start();
  ASSERT_TRUE(port.is_ok());

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      const auto* req_desc = pool.find_message("ml.Req");
      const auto* resp_desc = pool.find_message("ml.Resp");
      for (int i = 0; i < kCallsEach; ++i) {
        proto::DynamicMessage q(req_desc);
        std::string key = "w" + std::to_string(c) + "-" + std::to_string(i) +
                          std::string(static_cast<size_t>(i % 7) * 16, 'p');
        q.set_string(req_desc->field_by_name("key"), key);
        q.set_uint64(req_desc->field_by_name("n"), static_cast<uint64_t>(i));
        Bytes wire = proto::WireCodec::serialize(q);
        auto resp = (*chan)->call("ml.Worker/Work", ByteSpan(wire));
        ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
        proto::DynamicMessage r(resp_desc);
        ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
        EXPECT_EQ(r.get_string(resp_desc->field_by_name("echoed")), key);
        ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  const auto total = static_cast<uint64_t>(kClients) * kCallsEach;
  EXPECT_EQ(ok.load(), static_cast<int>(total));

  // The codec ledger, both directions: every request decoded and every
  // in-place reply serialized exactly once, on its own lane. Unary calls
  // never reach the pool, however many lanes share its workers.
  EXPECT_EQ(proxy.codec_pool().total_jobs(), 0u);
  EXPECT_EQ(proxy.stats().offloaded_requests.load(), total);
  EXPECT_EQ(proxy.stats().offloaded_responses.load(), total);
  EXPECT_EQ(proxy.stats().inline_decodes.load() +
                proxy.stats().inline_serializes.load(),
            0u);
  EXPECT_EQ(proxy.stats().deserialize_failures.load(), 0u);

  // Bounds-safe introspection: an out-of-range lane reads as zero (the
  // monitor scrapes this concurrently with shutdown; it must never throw).
  EXPECT_EQ(proxy.lane_requests(999), 0u);
  // Round-robin balances unary work by construction: every lane forwarded
  // exactly its share.
  static_assert(kClients * kCallsEach % kLanes == 0);
  for (size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(proxy.lane_requests(i), total / kLanes) << "lane " << i;
  }

  proxy.stop();
  stop.store(true);
  shared_channel->interrupt();
  host_thread.join();
}

}  // namespace
}  // namespace dpurpc::grpccompat

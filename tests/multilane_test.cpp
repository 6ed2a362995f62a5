// Tests for the multi-connection deployment (§III.C at the paper's scale
// shape): a DpuProxy with one dedicated poller lane per connection, and on
// the host one HostEngine per connection, all pumped by one ServerPoller
// sleeping on their shared completion channel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "metrics/metrics.hpp"
#include "proto/schema_parser.hpp"
#include "rdmarpc/poller.hpp"
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

class MultiLane : public ::testing::Test {
 protected:
  ~MultiLane() override {
    stop_ = true;
    poller_.interrupt();
    if (host_thread_.joinable()) host_thread_.join();
  }

  /// `lanes` independent RDMA connections, paper-style, each served by its
  /// own HostEngine running the echo-and-double object handler.
  void build(size_t lanes) {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    auto manifest = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(manifest.is_ok());
    manifest_ = std::make_unique<OffloadManifest>(std::move(*manifest));

    rdmarpc::ConnectionConfig host_cfg;
    host_cfg.shared_channel = poller_.shared_channel();
    for (size_t i = 0; i < lanes; ++i) {
      dpu_pds_.push_back(std::make_unique<simverbs::ProtectionDomain>(
          "dpu" + std::to_string(i)));
      dpu_conns_.push_back(std::make_unique<rdmarpc::Connection>(
          rdmarpc::Role::kClient, dpu_pds_.back().get(), rdmarpc::ConnectionConfig{}));
      host_conns_.push_back(std::make_unique<rdmarpc::Connection>(
          rdmarpc::Role::kServer, &host_pd_, host_cfg));
      ASSERT_TRUE(
          rdmarpc::Connection::connect(*dpu_conns_.back(), *host_conns_.back()).is_ok());
      dpu_ptrs_.push_back(dpu_conns_.back().get());
      engines_.push_back(
          std::make_unique<HostEngine>(host_conns_.back().get(), manifest_.get(), &pool_));
      ASSERT_TRUE(engines_.back()
                      ->register_unary_object(
                          "ml.Worker/Work",
                          [](const ServerContext&, const adt::LayoutView& req,
                             adt::LayoutBuilder& resp) {
                            DPURPC_RETURN_IF_ERROR(
                                resp.set_string(1, std::string(req.get_string(1))));
                            return resp.set_uint64(2, req.get_uint64(2) * 2);
                          })
                      .is_ok());
      poller_.add(&engines_.back()->rpc_server());
    }
    EXPECT_EQ(poller_.connection_count(), lanes);
    // One host poller thread for every connection.
    host_thread_ = std::thread([this] {
      while (!stop_.load()) {
        int lane = kill_lane_.exchange(-1);
        if (lane >= 0) answer_unknown_request(*host_conns_[static_cast<size_t>(lane)]);
        auto n = poller_.event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) poller_.wait(1);
      }
    });
  }

  /// Commit and flush, on the host poller thread, a response for a request
  /// ID the DPU never sent: the lane's RpcClient fails its event loop with
  /// kDataLoss and the lane exits.
  static void answer_unknown_request(rdmarpc::Connection& conn) {
    constexpr uint16_t kNeverSent = 0xFFFF;
    trace::TraceContext untraced;
    auto dst = conn.begin_message(0, untraced);
    ASSERT_TRUE(dst.is_ok()) << dst.status().to_string();
    ASSERT_TRUE(conn.commit_message(0, kNeverSent).is_ok());
    auto sent = conn.flush();
    ASSERT_TRUE(sent.is_ok() && *sent);
  }

  uint64_t host_requests_served() const {
    uint64_t total = 0;
    for (const auto& e : engines_) total += e->requests_served();
    return total;
  }

  /// One Work call on `chan`; checks the echo when it succeeds.
  Status work(xrpc::Channel& chan, const std::string& key, uint64_t n,
              int timeout_ms = 5000) {
    const auto* req_desc = pool_.find_message("ml.Req");
    const auto* resp_desc = pool_.find_message("ml.Resp");
    proto::DynamicMessage q(req_desc);
    q.set_string(req_desc->field_by_name("key"), key);
    q.set_uint64(req_desc->field_by_name("n"), n);
    Bytes wire = proto::WireCodec::serialize(q);
    auto resp = chan.call("ml.Worker/Work", ByteSpan(wire), timeout_ms);
    if (!resp.is_ok()) return resp.status();
    proto::DynamicMessage r(resp_desc);
    DPURPC_RETURN_IF_ERROR(proto::WireCodec::parse(ByteSpan(*resp), r));
    EXPECT_EQ(r.get_string(resp_desc->field_by_name("echoed")), key);
    EXPECT_EQ(r.get_uint64(resp_desc->field_by_name("doubled")), n * 2);
    return Status::ok();
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> manifest_;
  // Declared before the connections that use its channel (they touch it
  // from their destructors).
  rdmarpc::ServerPoller poller_;
  simverbs::ProtectionDomain host_pd_{"host"};
  std::vector<std::unique_ptr<simverbs::ProtectionDomain>> dpu_pds_;
  std::vector<std::unique_ptr<rdmarpc::Connection>> dpu_conns_, host_conns_;
  std::vector<rdmarpc::Connection*> dpu_ptrs_;
  std::vector<std::unique_ptr<HostEngine>> engines_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> kill_lane_{-1};
};

TEST_F(MultiLane, ProxyLanesAndHostPoolServeConcurrently) {
  constexpr size_t kLanes = 3;
  constexpr int kClients = 4;
  constexpr int kCallsEach = 40;
  ASSERT_NO_FATAL_FAILURE(build(kLanes));

  DpuProxy proxy(dpu_ptrs_, manifest_.get());
  EXPECT_EQ(proxy.lane_count(), kLanes);
  auto port = proxy.start();
  ASSERT_TRUE(port.is_ok());

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      for (int i = 0; i < kCallsEach; ++i) {
        std::string key = "c" + std::to_string(c) + "-" + std::to_string(i);
        Status st = work(**chan, key, static_cast<uint64_t>(i));
        ASSERT_TRUE(st.is_ok()) << st.to_string();
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
  EXPECT_EQ(host_requests_served(), total);
  proxy.stop();
}

// Lane sharding (DESIGN.md §3.14): one proxy with MORE connections than
// codec workers, hammered by concurrent clients. Unary codec work runs on
// the lanes, which round-robin already balances, so the pool sits idle.
// Verifies the codec ledger: every request was decoded, and every reply
// serialized, exactly once on its lane, and the lanes split the calls.
TEST_F(MultiLane, CodecPoolShardsAcrossFewerWorkersThanLanes) {
  constexpr size_t kLanes = 4;
  constexpr int kWorkers = 2;  // fewer workers than lanes, deliberately
  constexpr int kClients = 6;
  constexpr int kCallsEach = 50;
  ASSERT_NO_FATAL_FAILURE(build(kLanes));

  DpuProxy proxy(dpu_ptrs_, manifest_.get(), {}, kWorkers);
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
      for (int i = 0; i < kCallsEach; ++i) {
        std::string key = "w" + std::to_string(c) + "-" + std::to_string(i) +
                          std::string(static_cast<size_t>(i % 7) * 16, 'p');
        Status st = work(**chan, key, static_cast<uint64_t>(i));
        ASSERT_TRUE(st.is_ok()) << st.to_string();
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
}

// A lane whose datapath failed leaves the round-robin rotation: every call
// still ends promptly (OK, or kUnavailable if it raced the lane's exit)
// instead of waiting out its deadline on a queue nobody drains, and with
// no lane left the proxy answers kUnavailable up front.
TEST_F(MultiLane, DeadLaneLeavesTheRotation) {
  constexpr int kTimeoutMs = 4000;
  constexpr auto kPrompt = std::chrono::milliseconds(kTimeoutMs / 4);
  ASSERT_NO_FATAL_FAILURE(build(2));
  DpuProxy proxy(dpu_ptrs_, manifest_.get());
  auto port = proxy.start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(work(**chan, "warm", 1).is_ok());
  ASSERT_EQ(proxy.lane_requests(0), 2u);
  ASSERT_EQ(proxy.lane_requests(1), 2u);

  // Kill lane `lane` while nothing is in flight. The DPU side counts the
  // bogus block as received just before it fails on it; after that the
  // lane only closes its queue and exits.
  metrics::Counter& dpu_blocks_received =
      metrics::default_registry()
          .counter_family("rdmarpc_blocks_received_total", "blocks received")
          .counter({{"role", "client"}});
  auto kill = [&](int lane) {
    const uint64_t before = dpu_blocks_received.value();
    kill_lane_ = lane;
    poller_.interrupt();
    for (int i = 0; i < 2000 && dpu_blocks_received.value() == before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(dpu_blocks_received.value(), before);
  };
  ASSERT_NO_FATAL_FAILURE(kill(0));

  int ok = 0;
  for (int i = 0; i < 8; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Status st = work(**chan, "after" + std::to_string(i), 2, kTimeoutMs);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kPrompt) << "call " << i;
    EXPECT_TRUE(st.is_ok() || st.code() == Code::kUnavailable) << st.to_string();
    if (st.is_ok()) ++ok;
  }
  // At most one call can have raced lane 0's exit; the rest ran on lane 1.
  EXPECT_GE(ok, 7);
  EXPECT_EQ(proxy.lane_requests(1), 2u + static_cast<uint64_t>(ok));

  ASSERT_NO_FATAL_FAILURE(kill(1));
  for (int i = 0; i < 2; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Status st = work(**chan, "none left", 3, kTimeoutMs);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kPrompt);
    EXPECT_EQ(st.code(), Code::kUnavailable) << st.to_string();
  }
  proxy.stop();
}

}  // namespace
}  // namespace dpurpc::grpccompat

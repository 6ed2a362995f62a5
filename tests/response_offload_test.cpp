// End-to-end tests for the response-serialization offload (§III.A "the
// response's serialization ... can be implemented similarly in our
// design"): the host builds the response *object* in place with a
// LayoutBuilder; the DPU serializes it with the ADT-driven
// ObjectSerializer before answering the xRPC client. With both directions
// offloaded, the host performs no serialization work at all.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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
package ro;

message Query { string text = 1; uint32 top_k = 2; }
message Hit { string doc = 1; double score = 2; }
message Results { repeated Hit hits = 1; uint64 total = 2; string shard = 3; }

service Search {
  rpc Find (Query) returns (Results);
}
)";

class ResponseOffloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    // Ship it (serialize/deserialize round trip, incl. output classes).
    Bytes shipped = built->serialize();
    auto received = OffloadManifest::deserialize(ByteSpan(shipped));
    ASSERT_TRUE(received.is_ok()) << received.status().to_string();
    host_manifest_ = std::make_unique<OffloadManifest>(std::move(*built));
    dpu_manifest_ = std::make_unique<OffloadManifest>(std::move(*received));

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

  void start() {
    host_thread_ = std::thread([this] {
      while (!stop_.load()) {
        auto n = host_->event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) host_->wait(1);
      }
    });
    proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
    auto port = proxy_->start();
    ASSERT_TRUE(port.is_ok());
    port_ = *port;
  }

  void TearDown() override {
    if (proxy_) proxy_->stop();
    stop_.store(true);
    host_conn_->interrupt();
    if (host_thread_.joinable()) host_thread_.join();
  }

  /// Find handler whose in-place reply is a deterministic function of the
  /// request, so echo_oracle() can rebuild the exact message client-side.
  void register_echo_find() {
    ASSERT_TRUE(host_
                    ->register_unary_inplace(
                        "ro.Search/Find",
                        [](const ServerContext&, const adt::LayoutView& req,
                           adt::LayoutBuilder& resp) {
                          std::string text(req.get_string(1));
                          uint64_t top_k = req.get_uint64(2) % 6;
                          for (uint64_t i = 0; i < top_k; ++i) {
                            auto hit = resp.add_message(1);
                            if (!hit.is_ok()) return hit.status();
                            DPURPC_RETURN_IF_ERROR(hit->set_string(
                                1, text + "#" + std::to_string(i)));
                            DPURPC_RETURN_IF_ERROR(hit->set_double(
                                2, static_cast<double>(i) * 0.25));
                          }
                          DPURPC_RETURN_IF_ERROR(resp.set_uint64(2, top_k));
                          return resp.set_string(3, text);
                        })
                    .is_ok());
  }

  Bytes query_wire(const std::string& text, uint64_t top_k) const {
    const auto* query_desc = pool_.find_message("ro.Query");
    proto::DynamicMessage q(query_desc);
    q.set_string(query_desc->field_by_name("text"), text);
    q.set_uint64(query_desc->field_by_name("top_k"), top_k);
    return proto::WireCodec::serialize(q);
  }

  /// WireCodec's bytes for register_echo_find's reply to (text, top_k).
  Bytes echo_oracle(const std::string& text, uint64_t top_k) const {
    const auto* results_desc = pool_.find_message("ro.Results");
    const auto* hit_desc = pool_.find_message("ro.Hit");
    proto::DynamicMessage want(results_desc);
    for (uint64_t j = 0; j < top_k % 6; ++j) {
      auto* hit = want.add_message(results_desc->field_by_name("hits"));
      hit->set_string(hit_desc->field_by_name("doc"),
                      text + "#" + std::to_string(j));
      hit->set_double(hit_desc->field_by_name("score"),
                      static_cast<double>(j) * 0.25);
    }
    want.set_uint64(results_desc->field_by_name("total"), top_k % 6);
    want.set_string(results_desc->field_by_name("shard"), text);
    return proto::WireCodec::serialize(want);
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> host_manifest_, dpu_manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;
  std::unique_ptr<DpuProxy> proxy_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
  uint16_t port_ = 0;
};

TEST_F(ResponseOffloadFixture, ManifestCarriesOutputClasses) {
  const auto* find = host_manifest_->find_by_name("ro.Search/Find");
  ASSERT_NE(find, nullptr);
  EXPECT_EQ(host_manifest_->adt().class_at(find->output_class).name, "ro.Results");
  const auto* shipped = dpu_manifest_->find_by_name("ro.Search/Find");
  ASSERT_NE(shipped, nullptr);
  EXPECT_EQ(shipped->output_class, find->output_class);
}

TEST_F(ResponseOffloadFixture, FullyOffloadedRoundTrip) {
  // Host handler: reads the in-place request, BUILDS the in-place response
  // — zero host-side (de)serialization in either direction.
  ASSERT_TRUE(host_
                  ->register_unary_inplace(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        std::string text(req.get_string(1));
                        uint64_t top_k = req.get_uint64(2);
                        for (uint64_t i = 0; i < top_k; ++i) {
                          auto hit = resp.add_message(1);
                          if (!hit.is_ok()) return hit.status();
                          DPURPC_RETURN_IF_ERROR(hit->set_string(
                              1, text + "-doc-" + std::to_string(i)));
                          DPURPC_RETURN_IF_ERROR(
                              hit->set_double(2, 1.0 / static_cast<double>(i + 1)));
                        }
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(2, top_k * 100));
                        return resp.set_string(3, "shard-7");
                      })
                  .is_ok());
  start();

  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  proto::DynamicMessage q(query_desc);
  q.set_string(query_desc->field_by_name("text"), "fast rpc");
  q.set_uint64(query_desc->field_by_name("top_k"), 3);
  Bytes wire = proto::WireCodec::serialize(q);

  auto resp = (*chan)->call("ro.Search/Find", ByteSpan(wire));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();

  // The client receives ordinary proto3 wire bytes, produced by the DPU's
  // ObjectSerializer — parse them with the reference codec.
  const auto* results_desc = pool_.find_message("ro.Results");
  const auto* hit_desc = pool_.find_message("ro.Hit");
  proto::DynamicMessage r(results_desc);
  ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  ASSERT_EQ(r.repeated_size(results_desc->field_by_name("hits")), 3u);
  EXPECT_EQ(r.get_repeated_message(results_desc->field_by_name("hits"), 0)
                ->get_string(hit_desc->field_by_name("doc")),
            "fast rpc-doc-0");
  EXPECT_DOUBLE_EQ(r.get_repeated_message(results_desc->field_by_name("hits"), 2)
                       ->get_double(hit_desc->field_by_name("score")),
                   1.0 / 3.0);
  EXPECT_EQ(r.get_uint64(results_desc->field_by_name("total")), 300u);
  EXPECT_EQ(r.get_string(results_desc->field_by_name("shard")), "shard-7");
}

// The acceptance criterion, literally: bytes serialized on the DPU are
// bit-identical to what the reference WireCodec produces for the
// equivalent DynamicMessage — over randomized response content, not one
// lucky shape.
TEST_F(ResponseOffloadFixture, PoolSerializedBytesMatchWireCodecOracle) {
  register_echo_find();
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());

  std::mt19937_64 rng(kDefaultSeed);
  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    // Strings long and short: SSO and heap forms both cross the
    // serialize path.
    std::string text = random_ascii(rng, 1 + rng() % 150);
    // top_k is uint32 on the wire: stay inside it so client and server
    // compute the same k % 6.
    uint64_t k = rng() % 100000;
    auto resp = (*chan)->call("ro.Search/Find", ByteSpan(query_wire(text, k)));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    // Rebuild the exact response message and demand the exact bytes.
    EXPECT_EQ(*resp, echo_oracle(text, k)) << "call " << i;
  }

  // The ledger: every reply was an in-place object serialized exactly
  // once on the DPU, and nothing spilled.
  const auto& stats = proxy_->stats();
  EXPECT_EQ(stats.offloaded_responses.load(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.inline_serializes.load(), 0u);
  EXPECT_EQ(stats.inline_decodes.load(), 0u);
}

// The hand-off rule (DESIGN.md §3.14): a unary call's codec runs on its
// lane in both directions, so serial calls never wake the pool, and the
// reply bytes still match the WireCodec oracle exactly.
TEST_F(ResponseOffloadFixture, IdleProxyRunsSerialCallsOnTheLane) {
  register_echo_find();
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  std::mt19937_64 rng(kDefaultSeed + 1);
  constexpr int kCalls = 30;
  for (int i = 0; i < kCalls; ++i) {
    std::string text = random_ascii(rng, 1 + rng() % 150);
    uint64_t k = rng() % 5000;
    auto resp = (*chan)->call("ro.Search/Find", ByteSpan(query_wire(text, k)));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(*resp, echo_oracle(text, k)) << "call " << i;
  }
  const auto& stats = proxy_->stats();
  EXPECT_EQ(proxy_->codec_pool().total_jobs(), 0u);
  EXPECT_EQ(stats.offloaded_requests.load(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.offloaded_responses.load(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.inline_decodes.load() + stats.inline_serializes.load(), 0u);
}

// Several channels keeping a window of calls in flight keep the lane queue
// busy. The rule does not depend on load: the pool still runs zero jobs,
// and every reply matches the oracle.
TEST_F(ResponseOffloadFixture, ConcurrentBurstRunsEveryCodecJobOnTheLane) {
  register_echo_find();
  start();
  constexpr int kChannels = 4;
  constexpr int kCallsEach = 64;
  constexpr int kWindow = 16;
  std::vector<std::unique_ptr<xrpc::Channel>> chans;
  for (int c = 0; c < kChannels; ++c) {
    auto chan = xrpc::Channel::connect(port_);
    ASSERT_TRUE(chan.is_ok());
    chans.push_back(std::move(*chan));
  }
  std::mutex mu;
  std::condition_variable cv;
  int done = 0, correct = 0;
  for (int i = 0; i < kCallsEach * kChannels; ++i) {
    {
      std::unique_lock<std::mutex> lk(mu);
      ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                              [&] { return i - done < kWindow; }));
    }
    std::string text = "call-" + std::to_string(i);
    const auto k = static_cast<uint64_t>(i);
    Bytes want = echo_oracle(text, k);
    ASSERT_TRUE(chans[i % kChannels]
                    ->call_async("ro.Search/Find", ByteSpan(query_wire(text, k)),
                                 [&, want = std::move(want)](Code code, Bytes p) {
                                   std::lock_guard<std::mutex> lk(mu);
                                   if (code == Code::kOk && p == want) ++correct;
                                   ++done;
                                   cv.notify_all();
                                 })
                    .is_ok());
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                            [&] { return done == kChannels * kCallsEach; }));
    EXPECT_EQ(correct, kChannels * kCallsEach);
  }
  const auto& stats = proxy_->stats();
  const uint64_t total = kChannels * kCallsEach;
  EXPECT_EQ(proxy_->codec_pool().total_jobs(), 0u);
  EXPECT_EQ(stats.offloaded_requests.load(), total);
  EXPECT_EQ(stats.offloaded_responses.load(), total);
  EXPECT_EQ(stats.inline_decodes.load() + stats.inline_serializes.load(), 0u);
}

TEST_F(ResponseOffloadFixture, ManyCallsStayConsistent) {
  ASSERT_TRUE(host_
                  ->register_unary_inplace(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(
                            resp.set_uint64(2, req.get_uint64(2) * 2));
                        return resp.set_string(3, std::string(req.get_string(1)));
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  const auto* results_desc = pool_.find_message("ro.Results");
  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < 60; ++i) {
    std::string text = random_ascii(rng, rng() % 120);
    uint64_t k = rng() % 5000;
    proto::DynamicMessage q(query_desc);
    q.set_string(query_desc->field_by_name("text"), text);
    q.set_uint64(query_desc->field_by_name("top_k"), k);
    Bytes wire = proto::WireCodec::serialize(q);
    auto resp = (*chan)->call("ro.Search/Find", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(results_desc);
    ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    EXPECT_EQ(r.get_uint64(results_desc->field_by_name("total")), k * 2);
    EXPECT_EQ(r.get_string(results_desc->field_by_name("shard")), text);
  }
}

TEST_F(ResponseOffloadFixture, HandlerErrorFallsBackToErrorResponse) {
  ASSERT_TRUE(host_
                  ->register_unary_inplace(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView&,
                         adt::LayoutBuilder&) {
                        return Status(Code::kInvalidArgument, "bad query");
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("ro.Search/Find", {});
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

}  // namespace
}  // namespace dpurpc::grpccompat

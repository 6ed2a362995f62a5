// End-to-end randomized stress: every feature at once through the full
// stack — foreground + background methods, copy-path + fully-offloaded
// responses, payloads from empty to multi-block, deliberate error methods,
// several concurrent xRPC clients — then total-consistency and
// full-reclamation checks. Deterministic seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package st;
message Blob { bytes data = 1; uint64 checksum = 2; repeated uint32 ints = 3; }
message Ack { uint64 checksum = 1; uint64 bytes_seen = 2; }
service Stress {
  rpc EchoSum (Blob) returns (Ack);      // foreground, copy response
  rpc SlowSum (Blob) returns (Ack);      // background
  rpc FastSum (Blob) returns (Ack);      // fully offloaded response
  rpc AlwaysFail (Blob) returns (Ack);   // handler error
}
)";

uint64_t fnv1a(ByteSpan data) {
  uint64_t h = 1469598103934665603ull;
  for (std::byte b : data) {
    h ^= static_cast<uint8_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EndToEndStress, EverythingAtOnce) {
  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
  auto manifest = OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(manifest.is_ok());

  rdmarpc::ConnectionConfig cfg;  // stress reclamation with small buffers
  cfg.sbuf_size = 512 * 1024;
  cfg.rbuf_size = 1024 * 1024;
  cfg.credits = 32;
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, cfg);
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, cfg);
  ASSERT_TRUE(rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok());

  HostEngine host(&host_conn, &*manifest, &pool);
  ASSERT_TRUE(host.rpc_server().enable_background({.threads = 2}).is_ok());

  // Shared verification state (handlers run on poller + pool threads).
  std::atomic<uint64_t> host_bytes_seen{0};

  auto sum_logic = [&](const adt::LayoutView& req, uint64_t* checksum,
                       uint64_t* nbytes) {
    std::string_view data = req.get_string(1);
    *checksum = fnv1a(as_bytes_view(data));
    for (uint32_t i = 0; i < req.repeated_size(3); ++i) {
      *checksum ^= req.repeated_uint64(3, i);
    }
    *nbytes = data.size();
    host_bytes_seen.fetch_add(data.size(), std::memory_order_relaxed);
  };

  ASSERT_TRUE(host.register_unary(
                      "st.Stress/EchoSum",
                      [&](const ServerContext&, const adt::LayoutView& req,
                          proto::DynamicMessage& resp) {
                        uint64_t sum, n;
                        sum_logic(req, &sum, &n);
                        resp.set_uint64(resp.descriptor()->field_by_name("checksum"), sum);
                        resp.set_uint64(resp.descriptor()->field_by_name("bytes_seen"), n);
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host.register_unary_object(
                      "st.Stress/FastSum",
                      [&](const ServerContext&, const adt::LayoutView& req,
                          adt::LayoutBuilder& resp) {
                        uint64_t sum, n;
                        sum_logic(req, &sum, &n);
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, sum));
                        return resp.set_uint64(2, n);
                      })
                  .is_ok());
  const auto* slow_entry = manifest->find_by_name("st.Stress/SlowSum");
  const auto* ack_desc = pool.find_message("st.Ack");
  ASSERT_TRUE(host.rpc_server()
                  .register_background_handler(
                      slow_entry->method_id,
                      [&](const rdmarpc::RequestView& r, Bytes& out) {
                        adt::LayoutView req(&manifest->adt(), slow_entry->input_class,
                                            r.object);
                        uint64_t sum, n;
                        sum_logic(req, &sum, &n);
                        proto::DynamicMessage ack(ack_desc);
                        ack.set_uint64(ack_desc->field_by_name("checksum"), sum);
                        ack.set_uint64(ack_desc->field_by_name("bytes_seen"), n);
                        proto::WireCodec::serialize(ack, out);
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host.register_unary(
                      "st.Stress/AlwaysFail",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage&) {
                        return Status(Code::kInvalidArgument, "nope");
                      })
                  .is_ok());

  std::atomic<bool> stop{false};
  std::thread host_thread([&] {
    while (!stop.load()) {
      auto n = host.event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) host.wait(1);
    }
  });
  DpuProxy proxy(&dpu_conn, &*manifest);
  auto port = proxy.start();
  ASSERT_TRUE(port.is_ok());

  constexpr int kClients = 3;
  constexpr int kCallsEach = 60;
  const char* kMethods[] = {"st.Stress/EchoSum", "st.Stress/SlowSum",
                            "st.Stress/FastSum"};
  std::atomic<uint64_t> client_bytes_sent{0};
  std::atomic<int> ok_calls{0}, failed_calls{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(kDefaultSeed + static_cast<uint64_t>(c));
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      const auto* blob_desc = pool.find_message("st.Blob");
      for (int i = 0; i < kCallsEach; ++i) {
        // Payload sizes: empty .. 40 KB (multi-block).
        size_t n = rng() % 5 == 0 ? 0 : (1ull << (rng() % 16)) + rng() % 100;
        n = std::min<size_t>(n, 40000);
        std::string data = random_bytes(rng, n);

        proto::DynamicMessage blob(blob_desc);
        blob.set_string(blob_desc->field_by_name("data"), data);
        uint64_t expect = fnv1a(as_bytes_view(data));
        size_t ints = rng() % 20;
        SkewedVarintDistribution dist;
        for (size_t j = 0; j < ints; ++j) {
          uint32_t v = dist(rng);
          blob.add_uint64(blob_desc->field_by_name("ints"), v);
          expect ^= v;
        }
        Bytes wire = proto::WireCodec::serialize(blob);

        if (rng() % 10 == 0) {
          auto resp = (*chan)->call("st.Stress/AlwaysFail", ByteSpan(wire), 20000);
          EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
          ++failed_calls;
          continue;
        }
        const char* method = kMethods[rng() % 3];
        auto resp = (*chan)->call(method, ByteSpan(wire), 20000);
        ASSERT_TRUE(resp.is_ok()) << method << ": " << resp.status().to_string();
        proto::DynamicMessage ack(pool.find_message("st.Ack"));
        ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), ack).is_ok());
        EXPECT_EQ(ack.get_uint64(ack.descriptor()->field_by_name("checksum")), expect)
            << method << " payload " << n;
        EXPECT_EQ(ack.get_uint64(ack.descriptor()->field_by_name("bytes_seen")), n);
        client_bytes_sent.fetch_add(n);
        ++ok_calls;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok_calls.load() + failed_calls.load(), kClients * kCallsEach);
  EXPECT_GT(ok_calls.load(), 0);
  EXPECT_GT(failed_calls.load(), 0);
  EXPECT_EQ(host_bytes_seen.load(), client_bytes_sent.load());
  EXPECT_EQ(proxy.stats().deserialize_failures.load(), 0u);
  EXPECT_EQ(dpu_conn.tx_counters().rnr_events.load(), 0u);
  EXPECT_EQ(host_conn.tx_counters().rnr_events.load(), 0u);

  // Reclamation is asynchronous: the final responses' send-completion and
  // credit-return events still have to drain through both pollers after the
  // last client call returns. Wait (bounded) for quiescence while both
  // sides are still polling, then shut down and assert.
  auto quiescent = [&] {
    return dpu_conn.allocator().used() == 0 && host_conn.allocator().used() == 0 &&
           dpu_conn.credits_available() == cfg.credits &&
           host_conn.credits_available() == cfg.credits;
  };
  for (int spin = 0; spin < 5000 && !quiescent(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  proxy.stop();
  stop.store(true);
  host_conn.interrupt();
  host_thread.join();

  // Quiescent reclamation despite small buffers and mixed completion
  // orders: nothing leaked.
  EXPECT_EQ(dpu_conn.allocator().used(), 0u);
  EXPECT_EQ(host_conn.allocator().used(), 0u);
  EXPECT_EQ(dpu_conn.credits_available(), cfg.credits);
  EXPECT_EQ(host_conn.credits_available(), cfg.credits);
}

}  // namespace
}  // namespace dpurpc::grpccompat

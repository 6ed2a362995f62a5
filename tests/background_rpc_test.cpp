// Tests for background RPC execution (§III.D extension): thread-pool
// handlers, out-of-order completion (which the response-ID protocol was
// designed for), deferred in-order block acknowledgment, mixing with
// foreground handlers, and full resource reclamation at quiescence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/server.hpp"

namespace dpurpc::rdmarpc {
namespace {

constexpr uint16_t kBgEcho = 1;
constexpr uint16_t kFgEcho = 2;
constexpr uint16_t kSlowFirst = 3;
constexpr uint16_t kBgFail = 4;

struct Fixture {
  explicit Fixture(RpcServer::BackgroundOptions options = {.threads = 2,
                                                           .queue_depth = 64})
      : client_conn(Role::kClient, &client_pd, {}),
        server_conn(Role::kServer, &server_pd, {}),
        client(&client_conn),
        server(&server_conn) {
    EXPECT_TRUE(Connection::connect(client_conn, server_conn).is_ok());
    EXPECT_TRUE(server.enable_background(options).is_ok());
  }

  // Pump until N responses. The server may be waiting on workers, so allow
  // wall time to pass between turns.
  Status pump_until(uint64_t target, int max_iters = 20000) {
    for (int i = 0; i < max_iters; ++i) {
      auto c = client.event_loop_once();
      if (!c.is_ok()) return c.status();
      auto s = server.event_loop_once();
      if (!s.is_ok()) return s.status();
      if (client.responses_received() >= target) return Status::ok();
      if (*c == 0 && *s == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Status(Code::kInternal, "pump did not converge");
  }

  // Pump both event loops until every credit, buffer and block is back on
  // both sides, bounded at 1 s: an idle client holds its last acks for
  // kIdleAckNs before it sends them as a pure ack.
  void pump_until_quiescent() {
    const uint64_t deadline = WallTimer::now() + 1'000'000'000ull;
    while (WallTimer::now() < deadline) {
      ASSERT_TRUE(client.event_loop_once().is_ok());
      ASSERT_TRUE(server.event_loop_once().is_ok());
      if (client_conn.credits_available() == client_conn.config().credits &&
          server_conn.credits_available() == server_conn.config().credits &&
          client_conn.sent_blocks_outstanding() == 0 &&
          server_conn.sent_blocks_outstanding() == 0) {
        return;
      }
    }
  }

  simverbs::ProtectionDomain client_pd{"dpu"}, server_pd{"host"};
  Connection client_conn, server_conn;
  RpcClient client;
  RpcServer server;
};

TEST(BackgroundRpc, RequiresEnableFirst) {
  simverbs::ProtectionDomain pd("x");
  Connection conn(Role::kServer, &pd, {});
  RpcServer server(&conn);
  EXPECT_EQ(server.register_background_handler(1, nullptr).code(),
            Code::kFailedPrecondition);
}

TEST(BackgroundRpc, EnableTwiceFails) {
  Fixture f;
  EXPECT_EQ(f.server.enable_background({}).code(), Code::kFailedPrecondition);
}

TEST(BackgroundRpc, HandlerRunsOffPollerThread) {
  Fixture f;
  std::thread::id poller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgEcho,
                      [&](const RequestView& req, Bytes& out) {
                        off_thread = std::this_thread::get_id() != poller;
                        out = Bytes(req.payload.begin(), req.payload.end());
                        return Status::ok();
                      })
                  .is_ok());
  std::string got;
  ASSERT_TRUE(f.client
                  .call(kBgEcho, as_bytes_view("bg hello"),
                        [&](const Status& st, const InMessage& resp) {
                          EXPECT_TRUE(st.is_ok());
                          got = std::string(as_string_view(resp.payload));
                        })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(got, "bg hello");
  EXPECT_TRUE(off_thread.load());
  EXPECT_EQ(f.server.background_served(), 1u);
}

TEST(BackgroundRpc, OutOfOrderCompletionMatchesRequests) {
  // The first request stalls in the pool while later ones finish: the
  // client must still route every response to the right continuation.
  Fixture f;
  std::atomic<bool> release_slow{false};
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kSlowFirst,
                      [&](const RequestView& req, Bytes& out) {
                        if (as_string_view(req.payload) == "slow") {
                          while (!release_slow.load()) {
                            std::this_thread::sleep_for(std::chrono::microseconds(100));
                          }
                        }
                        out = Bytes(req.payload.begin(), req.payload.end());
                        return Status::ok();
                      })
                  .is_ok());

  std::vector<std::string> completions;
  auto track = [&](std::string expect) {
    return [&completions, expect](const Status& st, const InMessage& resp) {
      ASSERT_TRUE(st.is_ok());
      EXPECT_EQ(as_string_view(resp.payload), expect);
      completions.push_back(expect);
    };
  };
  ASSERT_TRUE(f.client.call(kSlowFirst, as_bytes_view("slow"), track("slow")).is_ok());
  ASSERT_TRUE(f.client.call(kSlowFirst, as_bytes_view("fast1"), track("fast1")).is_ok());
  ASSERT_TRUE(f.client.call(kSlowFirst, as_bytes_view("fast2"), track("fast2")).is_ok());

  // The two fast ones complete while "slow" is pinned.
  ASSERT_TRUE(f.pump_until(2).is_ok());
  EXPECT_EQ(completions, (std::vector<std::string>{"fast1", "fast2"}));
  release_slow = true;
  ASSERT_TRUE(f.pump_until(3).is_ok());
  EXPECT_EQ(completions.back(), "slow");
}

TEST(BackgroundRpc, MixesWithForegroundHandlers) {
  Fixture f;
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgEcho,
                      [](const RequestView& req, Bytes& out) {
                        out = to_bytes("bg:" + std::string(as_string_view(req.payload)));
                        return Status::ok();
                      })
                  .is_ok());
  f.server.register_handler(kFgEcho, [](const RequestView& req, Bytes& out) {
    out = to_bytes("fg:" + std::string(as_string_view(req.payload)));
    return Status::ok();
  });

  std::set<std::string> got;
  auto sink = [&](const Status& st, const InMessage& resp) {
    ASSERT_TRUE(st.is_ok());
    got.insert(std::string(as_string_view(resp.payload)));
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.client
                    .call(i % 2 ? kBgEcho : kFgEcho,
                          as_bytes_view(std::to_string(i)), sink)
                    .is_ok());
  }
  ASSERT_TRUE(f.pump_until(10).is_ok());
  EXPECT_EQ(got.size(), 10u);
  EXPECT_TRUE(got.count("fg:0"));
  EXPECT_TRUE(got.count("bg:1"));
  EXPECT_EQ(f.server.background_served(), 5u);
}

TEST(BackgroundRpc, ErrorStatusPropagates) {
  Fixture f;
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgFail,
                      [](const RequestView&, Bytes&) {
                        return Status(Code::kFailedPrecondition, "bg error");
                      })
                  .is_ok());
  Status seen;
  ASSERT_TRUE(f.client
                  .call(kBgFail, as_bytes_view("x"),
                        [&](const Status& st, const InMessage&) { seen = st; })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(seen.code(), Code::kFailedPrecondition);
}

TEST(BackgroundRpc, ResourcesReclaimedAtQuiescence) {
  // Deferred acknowledgments must still retire every block once background
  // work drains — no leaked credits, buffers, or IDs.
  Fixture f;
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgEcho,
                      [](const RequestView& req, Bytes& out) {
                        out = Bytes(req.payload.begin(), req.payload.end());
                        return Status::ok();
                      })
                  .is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  uint64_t sent = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30; ++i) {
      ++sent;
      ASSERT_TRUE(
          f.client.call(kBgEcho, as_bytes_view(random_ascii(rng, 80)), nullptr).is_ok());
    }
    ASSERT_TRUE(f.pump_until(sent).is_ok());
  }
  f.pump_until_quiescent();
  EXPECT_EQ(f.client_conn.credits_available(), f.client_conn.config().credits);
  EXPECT_EQ(f.server_conn.credits_available(), f.server_conn.config().credits);
  EXPECT_EQ(f.client_conn.allocator().used(), 0u);
  EXPECT_EQ(f.server_conn.allocator().used(), 0u);
  EXPECT_EQ(f.client.in_flight(), 0u);
}

TEST(BackgroundRpc, InPlaceObjectStaysValidDuringBackgroundWork) {
  // The in-place request object lives in the receive buffer; deferred
  // acknowledgment keeps the region from being rewritten while a worker
  // reads it "slowly".
  Fixture f;
  std::atomic<uint64_t> checksum{0};
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgEcho,
                      [&](const RequestView& req, Bytes& out) {
                        uint64_t v = load_le<uint64_t>(req.object);
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                        // Re-read: must be unchanged.
                        EXPECT_EQ(load_le<uint64_t>(req.object), v);
                        checksum += v;
                        out.resize(8);
                        store_le(out.data(), v);
                        return Status::ok();
                      })
                  .is_ok());
  uint64_t expect = 0;
  for (uint64_t i = 1; i <= 8; ++i) {
    expect += i * 111;
    ASSERT_TRUE(f.client
                    .call_inplace(
                        kBgEcho, 0, 64,
                        [i](arena::Arena& arena, const arena::AddressTranslator&)
                            -> StatusOr<uint32_t> {
                          auto* p = static_cast<std::byte*>(arena.allocate(8));
                          if (p == nullptr) {
                            return Status(Code::kResourceExhausted, "full");
                          }
                          store_le<uint64_t>(p, i * 111);
                          return static_cast<uint32_t>(arena.used());
                        },
                        nullptr)
                    .is_ok());
  }
  ASSERT_TRUE(f.pump_until(8).is_ok());
  EXPECT_EQ(checksum.load(), expect);
}

TEST(BackgroundRpc, SaturatedPoolFallsBackToForeground) {
  // One worker, one queue slot. "hold" pins the worker on a latch and
  // "queued" waits in the slot, so every later request finds the pool
  // full and runs on the poller thread. All of them must be answered
  // correctly, and the deferred acks must still retire every block.
  Fixture f({.threads = 1, .queue_depth = 1});
  std::atomic<bool> release{false};
  // Unpins the worker however the test exits, before ~RpcServer joins it.
  struct Unpin {
    std::atomic<bool>& release;
    ~Unpin() { release = true; }
  } unpin{release};
  std::atomic<bool> holding{false};
  const std::thread::id poller = std::this_thread::get_id();
  std::atomic<int> on_poller{0};
  ASSERT_TRUE(f.server
                  .register_background_handler(
                      kBgEcho,
                      [&](const RequestView& req, Bytes& out) {
                        if (as_string_view(req.payload) == "hold") {
                          holding = true;
                          while (!release.load()) {
                            std::this_thread::sleep_for(std::chrono::microseconds(100));
                          }
                        }
                        if (std::this_thread::get_id() == poller) ++on_poller;
                        out = to_bytes("bg:" + std::string(as_string_view(req.payload)));
                        return Status::ok();
                      })
                  .is_ok());

  std::map<std::string, std::string> got;
  auto expect = [&](std::string payload) {
    return [&got, payload](const Status& st, const InMessage& resp) {
      ASSERT_TRUE(st.is_ok()) << payload;
      got[payload] = std::string(as_string_view(resp.payload));
    };
  };
  ASSERT_TRUE(f.client.call(kBgEcho, as_bytes_view("hold"), expect("hold")).is_ok());
  for (int i = 0; i < 2000 && !holding.load(); ++i) {
    ASSERT_TRUE(f.client.event_loop_once().is_ok());
    ASSERT_TRUE(f.server.event_loop_once().is_ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(holding.load());

  constexpr int kOverflow = 6;
  ASSERT_TRUE(
      f.client.call(kBgEcho, as_bytes_view("queued"), expect("queued")).is_ok());
  for (int i = 0; i < kOverflow; ++i) {
    std::string payload = "spill" + std::to_string(i);
    ASSERT_TRUE(f.client.call(kBgEcho, as_bytes_view(payload), expect(payload)).is_ok());
  }
  // The spilled requests are answered while the worker is still pinned.
  ASSERT_TRUE(f.pump_until(kOverflow).is_ok());
  EXPECT_EQ(on_poller.load(), kOverflow);
  EXPECT_EQ(got.count("hold"), 0u);
  EXPECT_EQ(got.count("queued"), 0u);

  release = true;
  ASSERT_TRUE(f.pump_until(kOverflow + 2).is_ok());
  ASSERT_EQ(got.size(), static_cast<size_t>(kOverflow + 2));
  for (const auto& [payload, reply] : got) EXPECT_EQ(reply, "bg:" + payload);
  EXPECT_EQ(f.server.background_served(), 2u);
  EXPECT_EQ(f.server.requests_served(), static_cast<uint64_t>(kOverflow + 2));

  // Follow-up calls still go through the pool.
  ASSERT_TRUE(f.client.call(kBgEcho, as_bytes_view("after"), expect("after")).is_ok());
  ASSERT_TRUE(f.pump_until(kOverflow + 3).is_ok());
  EXPECT_EQ(got["after"], "bg:after");
  EXPECT_EQ(f.server.background_served(), 3u);

  f.pump_until_quiescent();
  EXPECT_EQ(f.client_conn.credits_available(), f.client_conn.config().credits);
  EXPECT_EQ(f.server_conn.credits_available(), f.server_conn.config().credits);
  EXPECT_EQ(f.client_conn.allocator().used(), 0u);
  EXPECT_EQ(f.server_conn.allocator().used(), 0u);
  EXPECT_EQ(f.client.in_flight(), 0u);
}

}  // namespace
}  // namespace dpurpc::rdmarpc

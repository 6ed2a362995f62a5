// Tests for the RPC over RDMA core: offset allocator (with a shadow-model
// stress test), block format, deterministic ID pool, and full client/server
// protocol integration including batching, credits, acknowledgment
// reclamation, in-place payloads, large messages, and error paths.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "rdmarpc/block.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/id_pool.hpp"
#include "rdmarpc/offset_allocator.hpp"
#include "rdmarpc/server.hpp"
#include "trace/trace.hpp"

namespace dpurpc::rdmarpc {
namespace {

// --------------------------------------------------------- OffsetAllocator

TEST(OffsetAllocator, AllocationsAreAlignedAndDisjoint) {
  OffsetAllocator a(1 << 20);
  auto x = a.allocate(100);
  auto y = a.allocate(5000);
  ASSERT_TRUE(x && y);
  EXPECT_TRUE(is_aligned(*x, kBlockAlign));
  EXPECT_TRUE(is_aligned(*y, kBlockAlign));
  EXPECT_NE(*x, *y);
  EXPECT_EQ(a.used(), 1024u + align_up(5000, 1024));
}

TEST(OffsetAllocator, ExhaustionReturnsNullopt) {
  OffsetAllocator a(4096);
  EXPECT_TRUE(a.allocate(4096).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
}

TEST(OffsetAllocator, FreeCoalescesNeighbors) {
  OffsetAllocator a(8192);
  auto x = a.allocate(1024);
  auto y = a.allocate(1024);
  auto z = a.allocate(1024);
  ASSERT_TRUE(x && y && z);
  a.free(*x);
  a.free(*z);
  EXPECT_EQ(a.free_range_count(), 2u);  // [x], [z..tail coalesced]
  a.free(*y);                           // bridges x with z and the tail
  EXPECT_EQ(a.free_range_count(), 1u);
  EXPECT_EQ(a.largest_free_range(), 8192u);
}

TEST(OffsetAllocator, OutOfOrderFreeSupportsOutOfOrderCompletion) {
  // The reason a ring buffer is insufficient (§IV): later blocks freed
  // before earlier ones.
  OffsetAllocator a(1 << 16);
  std::vector<uint64_t> offs;
  for (int i = 0; i < 8; ++i) offs.push_back(*a.allocate(2048));
  for (int i : {5, 1, 7, 3}) a.free(offs[i]);
  // The freed holes are reusable.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a.allocate(2048).has_value());
  EXPECT_EQ(a.used(), 8u * 2048);
}

TEST(OffsetAllocator, ShadowModelStress) {
  // Property test: allocator agrees with a simple shadow model under a
  // long random alloc/free schedule.
  std::mt19937_64 rng(kDefaultSeed);
  OffsetAllocator a(1 << 20);
  std::map<uint64_t, uint64_t> shadow;  // offset -> aligned size
  uint64_t shadow_used = 0;
  for (int step = 0; step < 5000; ++step) {
    if (shadow.empty() || rng() % 2 == 0) {
      uint64_t size = 1 + rng() % 8000;
      auto off = a.allocate(size);
      if (off.has_value()) {
        uint64_t aligned = align_up(size, kBlockAlign);
        // No overlap with any shadow allocation.
        for (const auto& [o, s] : shadow) {
          EXPECT_TRUE(*off + aligned <= o || o + s <= *off)
              << "overlap at step " << step;
        }
        shadow[*off] = aligned;
        shadow_used += aligned;
      } else {
        // Only legal if no free range fits.
        EXPECT_LT(a.largest_free_range(), align_up(size, kBlockAlign));
      }
    } else {
      auto it = shadow.begin();
      std::advance(it, rng() % shadow.size());
      shadow_used -= it->second;
      a.free(it->first);
      shadow.erase(it);
    }
    ASSERT_EQ(a.used(), shadow_used);
    ASSERT_EQ(a.allocation_count(), shadow.size());
  }
  // Free everything: one maximal range remains.
  while (!shadow.empty()) {
    a.free(shadow.begin()->first);
    shadow.erase(shadow.begin());
  }
  EXPECT_EQ(a.free_range_count(), 1u);
  EXPECT_EQ(a.largest_free_range(), a.capacity());
}

TEST(OffsetAllocator, MonitorReadsAreRaceFreeDuringChurn) {
  // Regression for a TSan finding (DESIGN.md §3.12): the end-to-end
  // quiescence wait polls used() from the main thread while the engine
  // thread churns allocate()/free(). Those getters are documented as
  // monitor-safe relaxed hints — this pins the contract under TSan.
  OffsetAllocator a(1 << 20);
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Each getter samples used_ independently, and the churn thread
      // moves it between calls — so only per-sample bounds are stable.
      EXPECT_LE(a.used(), a.capacity());
      EXPECT_LE(a.free_bytes(), a.capacity());
      (void)a.allocation_count();
    }
  });
  std::mt19937_64 rng(kDefaultSeed);
  std::vector<uint64_t> live;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng() % 2 == 0) {
      auto off = a.allocate(1 + rng() % 4000);
      if (off.has_value()) live.push_back(*off);
    } else {
      size_t i = rng() % live.size();
      a.free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  stop.store(true, std::memory_order_release);
  monitor.join();
  for (uint64_t off : live) a.free(off);
  EXPECT_EQ(a.used(), 0u);
}

// ------------------------------------------------------------------ block

// Copy a serialized payload into `w` as one message.
Status append(BlockWriter& w, ByteSpan payload, uint16_t id_or_method,
              uint16_t flags = 0, uint16_t aux = 0) {
  DPURPC_RETURN_IF_ERROR(w.begin_message().status());
  arena::Arena arena = w.payload_arena();
  void* dst = arena.allocate(payload.size(), 1);
  if (dst == nullptr) {
    w.abort_message();
    return Status(Code::kResourceExhausted, "payload does not fit in block");
  }
  if (!payload.empty()) std::memcpy(dst, payload.data(), payload.size());
  return w.commit_message(static_cast<uint32_t>(payload.size()), id_or_method,
                          flags, aux);
}

TEST(Block, WriterReaderRoundTrip) {
  alignas(1024) std::byte buf[4096];
  BlockWriter w(buf, sizeof(buf));
  ASSERT_TRUE(append(w, as_bytes_view("first"), 10).is_ok());
  ASSERT_TRUE(append(w, as_bytes_view("second payload"), 20, kFlagInPlaceObject, 7).is_ok());
  ASSERT_TRUE(append(w, {}, 30).is_ok());  // empty payload is legal
  uint64_t len = w.finalize(3);
  EXPECT_TRUE(is_aligned(len, kPayloadAlign));

  auto r = BlockReader::parse(ByteSpan(buf, sizeof(buf)));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->preamble().ack_blocks, 3);
  EXPECT_EQ(r->message_count(), 3);
  auto m1 = r->next();
  ASSERT_TRUE(m1.is_ok());
  EXPECT_EQ(as_string_view(m1->payload), "first");
  EXPECT_EQ(m1->header.id_or_method, 10);
  auto m2 = r->next();
  EXPECT_EQ(as_string_view(m2->payload), "second payload");
  EXPECT_EQ(m2->header.flags, kFlagInPlaceObject);
  EXPECT_EQ(m2->header.aux, 7);
  auto m3 = r->next();
  EXPECT_EQ(m3->payload.size(), 0u);
  EXPECT_TRUE(r->done());
  EXPECT_FALSE(r->next().is_ok());
}

TEST(Block, PayloadsAreEightByteAligned) {
  alignas(1024) std::byte buf[4096];
  BlockWriter w(buf, sizeof(buf));
  ASSERT_TRUE(append(w, as_bytes_view("abc"), 1).is_ok());   // 3 bytes: padded
  ASSERT_TRUE(append(w, as_bytes_view("defgh"), 2).is_ok());
  w.finalize(0);
  auto r = BlockReader::parse(ByteSpan(buf, sizeof(buf)));
  auto m1 = r->next();
  auto m2 = r->next();
  EXPECT_TRUE(is_aligned(m1->payload_addr, kPayloadAlign));
  EXPECT_TRUE(is_aligned(m2->payload_addr, kPayloadAlign));
}

TEST(Block, InPlaceBuildViaArena) {
  alignas(1024) std::byte buf[2048];
  BlockWriter w(buf, sizeof(buf));
  auto dst = w.begin_message();
  ASSERT_TRUE(dst.is_ok());
  arena::Arena arena = w.payload_arena();
  auto* obj = static_cast<uint64_t*>(arena.allocate(16));
  ASSERT_NE(obj, nullptr);
  obj[0] = 0x1111;
  obj[1] = 0x2222;
  ASSERT_TRUE(w.commit_message(static_cast<uint32_t>(arena.used()), 5).is_ok());
  w.finalize(0);

  auto r = BlockReader::parse(ByteSpan(buf, sizeof(buf)));
  auto m = r->next();
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m->payload.size(), 16u);
  EXPECT_EQ(load_le<uint64_t>(m->payload_addr), 0x1111u);
}

TEST(Block, RejectsCorruptPreambleAndOverruns) {
  alignas(1024) std::byte buf[1024];
  BlockWriter w(buf, sizeof(buf));
  ASSERT_TRUE(append(w, as_bytes_view("x"), 1).is_ok());
  w.finalize(0);
  {
    // block_bytes larger than the region
    std::byte copy[1024];
    std::memcpy(copy, buf, sizeof(buf));
    Preamble p;
    std::memcpy(&p, copy, sizeof(p));
    p.block_bytes = 4096;
    std::memcpy(copy, &p, sizeof(p));
    EXPECT_FALSE(BlockReader::parse(ByteSpan(copy, sizeof(copy))).is_ok());
  }
  {
    // payload_size punching past block_bytes
    std::byte copy[1024];
    std::memcpy(copy, buf, sizeof(buf));
    MsgHeader h;
    std::memcpy(&h, copy + kPreambleSize, sizeof(h));
    h.payload_size = 900;
    std::memcpy(copy + kPreambleSize, &h, sizeof(h));
    auto r = BlockReader::parse(ByteSpan(copy, sizeof(copy)));
    ASSERT_TRUE(r.is_ok());
    EXPECT_FALSE(r->next().is_ok());
  }
}

TEST(Block, CapacityEnforced) {
  alignas(1024) std::byte buf[128];
  BlockWriter w(buf, sizeof(buf));
  EXPECT_FALSE(w.can_fit(1000));
  EXPECT_TRUE(w.can_fit(32));
  std::string big(200, 'x');
  EXPECT_FALSE(append(w, as_bytes_view(big), 1).is_ok());
  EXPECT_TRUE(append(w, as_bytes_view("ok"), 1).is_ok());
}

// ---------------------------------------------------------------- ID pool

TEST(IdPool, DeterministicFifoAcrossMirrors) {
  // Two pools fed the same alloc/free schedule assign identical IDs.
  RequestIdPool a(16), b(16);
  std::mt19937_64 rng(kDefaultSeed);
  std::vector<uint16_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || (rng() % 2 == 0 && a.available() > 0)) {
      auto ia = a.allocate();
      auto ib = b.allocate();
      ASSERT_EQ(ia.has_value(), ib.has_value());
      if (!ia) continue;
      ASSERT_EQ(*ia, *ib);
      live.push_back(*ia);
    } else {
      size_t k = rng() % live.size();
      a.release(live[k]);
      b.release(live[k]);
      live.erase(live.begin() + k);
    }
  }
}

TEST(IdPool, ExhaustionAndRecycle) {
  RequestIdPool p(4);
  std::set<uint16_t> seen;
  for (int i = 0; i < 4; ++i) {
    auto id = p.allocate();
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(seen.insert(*id).second);  // unique
  }
  EXPECT_FALSE(p.allocate().has_value());
  EXPECT_EQ(p.in_flight(), 4u);
  p.release(2);
  auto id = p.allocate();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 2);  // FIFO: the one just released
}

// ------------------------------------------------------------ integration

struct Fabric {
  explicit Fabric(ConnectionConfig client_cfg = {}, ConnectionConfig server_cfg = {})
      : client_pd("dpu"),
        server_pd("host"),
        client_conn(Role::kClient, &client_pd, client_cfg),
        server_conn(Role::kServer, &server_pd, server_cfg),
        client(&client_conn),
        server(&server_conn) {
    auto st = Connection::connect(client_conn, server_conn);
    EXPECT_TRUE(st.is_ok()) << st.to_string();
  }

  // Pump both event loops until the client saw `target` responses.
  Status pump_until(uint64_t target, int max_iters = 10000) {
    for (int i = 0; i < max_iters; ++i) {
      auto c = client.event_loop_once();
      if (!c.is_ok()) return c.status();
      auto s = server.event_loop_once();
      if (!s.is_ok()) return s.status();
      if (client.responses_received() >= target) return Status::ok();
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

  simverbs::ProtectionDomain client_pd, server_pd;
  Connection client_conn, server_conn;
  RpcClient client;
  RpcServer server;
};

constexpr uint16_t kEcho = 1;
constexpr uint16_t kFail = 2;

void register_echo(RpcServer& server) {
  server.register_handler(kEcho, [](const RequestView& req, Bytes& out) {
    out = Bytes(req.payload.begin(), req.payload.end());
    return Status::ok();
  });
}

TEST(Integration, SingleEchoRoundTrip) {
  Fabric f;
  register_echo(f.server);
  std::string got;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view("hello rdma"),
                        [&](const Status& st, const InMessage& resp) {
                          EXPECT_TRUE(st.is_ok());
                          got = std::string(as_string_view(resp.payload));
                        })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(got, "hello rdma");
  EXPECT_EQ(f.server.requests_served(), 1u);
}

TEST(Integration, BatchingPacksManyMessagesPerBlock) {
  Fabric f;
  register_echo(f.server);
  constexpr int kN = 200;  // 15-byte messages: many per 8 KiB block
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    std::string payload = "msg-" + std::to_string(i);
    ASSERT_TRUE(f.client
                    .call(kEcho, as_bytes_view(payload),
                          [&done, i](const Status& st, const InMessage& resp) {
                            EXPECT_TRUE(st.is_ok());
                            EXPECT_EQ(as_string_view(resp.payload),
                                      "msg-" + std::to_string(i));
                            ++done;
                          })
                    .is_ok());
  }
  ASSERT_TRUE(f.pump_until(kN).is_ok());
  EXPECT_EQ(done, kN);
  // Far fewer RDMA ops than messages: batching works.
  EXPECT_LT(f.client_conn.tx_counters().ops.load(), kN / 4);
}

TEST(Integration, ResponsesMatchRequestsAcrossManyBatches) {
  Fabric f;
  register_echo(f.server);
  std::mt19937_64 rng(kDefaultSeed);
  constexpr int kRounds = 50;
  uint64_t sent = 0;
  for (int round = 0; round < kRounds; ++round) {
    int burst = 1 + static_cast<int>(rng() % 60);
    for (int i = 0; i < burst; ++i) {
      std::string payload = random_ascii(rng, rng() % 200);
      ++sent;
      ASSERT_TRUE(f.client
                      .call(kEcho, as_bytes_view(payload),
                            [payload](const Status& st, const InMessage& resp) {
                              ASSERT_TRUE(st.is_ok());
                              EXPECT_EQ(as_string_view(resp.payload), payload);
                            })
                      .is_ok());
    }
    ASSERT_TRUE(f.pump_until(sent).is_ok());
  }
  EXPECT_EQ(f.client.responses_received(), sent);
  EXPECT_EQ(f.client.in_flight(), 0u);
}

TEST(Integration, LargeMessageGetsItsOwnBlock) {
  Fabric f;
  register_echo(f.server);
  std::mt19937_64 rng(kDefaultSeed);
  // Bigger than the 8 KiB block size: §IV "the block is composed of a
  // single message".
  std::string big = random_ascii(rng, 40000);
  std::string got;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view(big),
                        [&](const Status& st, const InMessage& resp) {
                          ASSERT_TRUE(st.is_ok());
                          got = std::string(as_string_view(resp.payload));
                        })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(got, big);
}

TEST(Integration, OversizedPayloadRejectedUpFront) {
  Fabric f;
  std::string too_big(kMaxPayloadSize + 1, 'x');
  EXPECT_EQ(f.client.call(kEcho, as_bytes_view(too_big), nullptr).code(),
            Code::kOutOfRange);
}

TEST(Integration, ErrorStatusPropagatesToContinuation) {
  Fabric f;
  f.server.register_handler(kFail, [](const RequestView&, Bytes&) {
    return Status(Code::kInvalidArgument, "bad request");
  });
  Status seen;
  ASSERT_TRUE(f.client
                  .call(kFail, as_bytes_view("x"),
                        [&](const Status& st, const InMessage&) { seen = st; })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(seen.code(), Code::kInvalidArgument);
}

TEST(Integration, UnknownMethodYieldsNotFound) {
  Fabric f;
  Status seen;
  ASSERT_TRUE(f.client
                  .call(99, as_bytes_view("x"),
                        [&](const Status& st, const InMessage&) { seen = st; })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(seen.code(), Code::kNotFound);
}

TEST(Integration, InPlacePayloadArrivesAtTranslatedAddress) {
  Fabric f;
  // Handler reads the in-place object through the receive-buffer address.
  f.server.register_handler(kEcho, [](const RequestView& req, Bytes& out) {
    EXPECT_NE(req.object, nullptr);
    EXPECT_EQ(req.class_index, 42);
    uint64_t v = load_le<uint64_t>(req.object);
    out.resize(8);
    store_le(out.data(), v * 2);
    return Status::ok();
  });
  uint64_t answer = 0;
  ASSERT_TRUE(f.client
                  .call_inplace(
                      kEcho, /*class_index=*/42, /*payload_hint=*/64,
                      [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
                          -> StatusOr<uint32_t> {
                        auto* p = static_cast<std::byte*>(arena.allocate(8));
                        if (p == nullptr) {
                          return Status(Code::kResourceExhausted, "full");
                        }
                        store_le<uint64_t>(p, 21);
                        (void)xlate;  // numeric payload: nothing to rebase
                        return static_cast<uint32_t>(arena.used());
                      },
                      [&](const Status& st, const InMessage& resp) {
                        ASSERT_TRUE(st.is_ok());
                        answer = load_le<uint64_t>(resp.payload_addr);
                      })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(answer, 42u);
}

TEST(Integration, OversizedInPlaceRequestIsOutOfRangeAndLeaksNothing) {
  // An in-place request that cannot fit a maximum-size block is a per-call
  // error, not backpressure: kOutOfRange, with no request ID, queued
  // continuation, credit or open message left behind, so the next call
  // goes through. Two ways to be too big: the builder's arena runs dry in
  // the maximum-size block, or the object fits that block's arena but not
  // the 64 KiB header field.
  Fabric f;
  register_echo(f.server);
  const uint32_t credits = f.client_conn.credits_available();
  uint64_t answered = 0;
  for (uint32_t object_bytes : {uint32_t{1} << 20, kMaxPayloadSize + 1}) {
    int builds = 0;
    Status st = f.client.call_inplace(
        kEcho, /*class_index=*/1, /*payload_hint=*/64,
        [&](arena::Arena& arena,
            const arena::AddressTranslator&) -> StatusOr<uint32_t> {
          ++builds;
          if (arena.allocate(object_bytes) == nullptr) {
            return Status(Code::kResourceExhausted, "full");
          }
          return static_cast<uint32_t>(arena.used());
        },
        [](const Status&, const InMessage&) { FAIL() << "must never complete"; });
    EXPECT_EQ(st.code(), Code::kOutOfRange) << object_bytes;
    EXPECT_EQ(builds, 2) << object_bytes;  // hinted block, then maximum-size
    EXPECT_EQ(f.client.enqueued_unflushed(), 0u);
    EXPECT_EQ(f.client.in_flight(), 0u);
    EXPECT_EQ(f.client_conn.credits_available(), credits);

    Status next = f.client.call(kEcho, as_bytes_view("next"),
                                [&](const Status& rst, const InMessage&) {
                                  EXPECT_TRUE(rst.is_ok());
                                  ++answered;
                                });
    ASSERT_TRUE(next.is_ok()) << object_bytes << ": " << next.to_string();
    ASSERT_TRUE(f.pump_until(answered + 1).is_ok());
  }
  EXPECT_EQ(answered, 2u);
}

TEST(Integration, OversizedInPlaceResponseGetsItsOwnBlock) {
  // The in-place response path starts with a small block hint; a handler
  // whose object exceeds the 8 KiB block must be retried in progressively
  // larger blocks (not silently re-handed the same undersized arena —
  // regression test for the empty-writer begin_message path).
  Fabric f;
  constexpr uint32_t kObjectBytes = 20000;
  f.server.register_inplace_handler(
      kEcho, [](const RequestView&, arena::Arena& arena,
                const arena::AddressTranslator&, uint32_t* payload_size,
                uint16_t* class_index) -> Status {
        auto* p = static_cast<std::byte*>(arena.allocate(kObjectBytes));
        if (p == nullptr) return Status(Code::kResourceExhausted, "full");
        for (uint32_t i = 0; i < kObjectBytes; ++i) {
          p[i] = static_cast<std::byte>(i * 7);
        }
        *payload_size = static_cast<uint32_t>(arena.used());
        *class_index = 9;
        return Status::ok();
      });
  bool checked = false;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view("x"),
                        [&](const Status& st, const InMessage& resp) {
                          ASSERT_TRUE(st.is_ok());
                          ASSERT_EQ(resp.header.flags, kFlagInPlaceObject);
                          EXPECT_EQ(resp.header.aux, 9);
                          ASSERT_GE(resp.header.payload_size, kObjectBytes);
                          for (uint32_t i = 0; i < kObjectBytes; ++i) {
                            ASSERT_EQ(resp.payload_addr[i],
                                      static_cast<std::byte>(i * 7));
                          }
                          checked = true;
                        })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_TRUE(checked);
  // Regression: every doubling of the block hint must be counted — both
  // here and in dpurpc_block_hint_retries_total (same counter feeds both).
  EXPECT_GT(f.server.block_hint_retries(), 0u);
}

TEST(Integration, OversizedInPlaceResponseFailsOnlyItsOwnCall) {
  // An in-place reply object that fits a maximum-size block's arena but
  // not the 64 KiB header field fails at commit. That request gets
  // kOutOfRange; the server's open message is closed, so the next call
  // on the same connection is answered normally.
  Fabric f;
  f.server.register_inplace_handler(
      kEcho, [](const RequestView& req, arena::Arena& arena,
                const arena::AddressTranslator&, uint32_t* payload_size,
                uint16_t* class_index) -> Status {
        const bool big = as_string_view(req.payload) == "big";
        const uint32_t bytes = big ? kMaxPayloadSize + 1 : 64;
        if (arena.allocate(bytes) == nullptr) {
          return Status(Code::kResourceExhausted, "full");
        }
        *payload_size = static_cast<uint32_t>(arena.used());
        *class_index = 3;
        return Status::ok();
      });
  Status big_status;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view("big"),
                        [&](const Status& st, const InMessage&) { big_status = st; })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  EXPECT_EQ(big_status.code(), Code::kOutOfRange) << big_status.to_string();

  Status small_status(Code::kInternal, "not answered");
  uint32_t small_size = 0;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view("small"),
                        [&](const Status& st, const InMessage& resp) {
                          small_status = st;
                          small_size = resp.header.payload_size;
                        })
                  .is_ok());
  ASSERT_TRUE(f.pump_until(2).is_ok());
  EXPECT_TRUE(small_status.is_ok()) << small_status.to_string();
  EXPECT_GE(small_size, 64u);
  EXPECT_EQ(f.server.requests_served(), 2u);
}

TEST(Integration, CreditsAndBuffersFullyReclaimedAtQuiescence) {
  ConnectionConfig small_client;
  small_client.credits = 8;
  small_client.sbuf_size = 256 * 1024;
  ConnectionConfig small_server;
  small_server.credits = 8;
  small_server.sbuf_size = 256 * 1024;
  Fabric f(small_client, small_server);
  register_echo(f.server);

  std::mt19937_64 rng(kDefaultSeed);
  uint64_t sent = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 40; ++i) {
      std::string payload = random_ascii(rng, 100);
      ++sent;
      ASSERT_TRUE(f.client.call(kEcho, as_bytes_view(payload), nullptr).is_ok());
    }
    ASSERT_TRUE(f.pump_until(sent).is_ok());
  }
  f.pump_until_quiescent();
  // Everything must be back: credits, send buffers, IDs.
  EXPECT_EQ(f.client_conn.credits_available(), small_client.credits);
  EXPECT_EQ(f.server_conn.credits_available(), small_server.credits);
  EXPECT_EQ(f.client_conn.allocator().used(), 0u);
  EXPECT_EQ(f.server_conn.allocator().used(), 0u);
  EXPECT_EQ(f.client_conn.sent_blocks_outstanding(), 0u);
  EXPECT_EQ(f.server_conn.sent_blocks_outstanding(), 0u);
  EXPECT_EQ(f.client.in_flight(), 0u);
}

uint64_t client_blocks_sent() {
  return metrics::default_registry()
      .counter_family("rdmarpc_blocks_sent_total", "")
      .counter({{"role", "client"}})
      .value();
}

TEST(Integration, BackToBackCallsSendNoPureAck) {
  // A client that calls again as soon as each response lands never sends
  // an ack on its own: every counter rides the next request block.
  Fabric f;
  register_echo(f.server);
  const uint64_t blocks_before = client_blocks_sent();
  const uint64_t ops_before = f.client_conn.tx_counters().ops.load();
  constexpr uint64_t kCalls = 200;
  for (uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(f.client.call(kEcho, as_bytes_view("x"), nullptr).is_ok());
    ASSERT_TRUE(f.pump_until(i + 1).is_ok());
  }
  const uint64_t blocks = client_blocks_sent() - blocks_before;
  EXPECT_EQ(blocks, kCalls);
  EXPECT_EQ(f.client_conn.tx_counters().ops.load() - ops_before, blocks);
}

TEST(Integration, IdleClientSendsOnePureAckAfterIdleAckDelay) {
  Fabric f;
  register_echo(f.server);
  ASSERT_TRUE(f.client.call(kEcho, as_bytes_view("x"), nullptr).is_ok());
  ASSERT_TRUE(f.pump_until(1).is_ok());
  const uint64_t response_ns = WallTimer::now();
  const uint64_t ops_before = f.client_conn.tx_counters().ops.load();
  // The response block is still unacked: the client holds the counter.
  EXPECT_EQ(f.server_conn.credits_available(), f.server_conn.config().credits - 1);
  EXPECT_EQ(f.client_conn.pending_acks(), 1u);

  // Keep pumping well past kIdleAckNs: exactly one pure ack goes out.
  while (WallTimer::now() - response_ns < 3 * kIdleAckNs) {
    ASSERT_TRUE(f.client.event_loop_once().is_ok());
    ASSERT_TRUE(f.server.event_loop_once().is_ok());
  }
  EXPECT_EQ(f.client_conn.tx_counters().ops.load() - ops_before, 1u);
  EXPECT_EQ(f.client_conn.pending_acks(), 0u);
  EXPECT_EQ(f.server_conn.credits_available(), f.server_conn.config().credits);
  EXPECT_EQ(f.server_conn.allocator().used(), 0u);
  EXPECT_EQ(f.server_conn.sent_blocks_outstanding(), 0u);
  EXPECT_EQ(f.client_conn.credits_available(), f.client_conn.config().credits);
  EXPECT_EQ(f.client_conn.allocator().used(), 0u);
}

TEST(Integration, SustainedLoadUnderTinyCreditWindow) {
  // Credits = 2: constant backpressure; the protocol must still complete
  // everything without RNR events (the credit system's whole point).
  ConnectionConfig cfg;
  cfg.credits = 2;
  cfg.sbuf_size = 64 * 1024;
  cfg.rbuf_size = 256 * 1024;
  Fabric f(cfg, cfg);
  register_echo(f.server);

  uint64_t sent = 0;
  std::mt19937_64 rng(kDefaultSeed);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      std::string p = random_ascii(rng, 500);
      // Backpressure can reject the enqueue; pump and retry.
      for (int attempt = 0;; ++attempt) {
        Status st = f.client.call(kEcho, as_bytes_view(p), nullptr);
        if (st.is_ok()) break;
        ASSERT_TRUE(st.code() == Code::kUnavailable ||
                    st.code() == Code::kResourceExhausted)
            << st.to_string();
        ASSERT_LT(attempt, 1000);
        ASSERT_TRUE(f.client.event_loop_once().is_ok());
        ASSERT_TRUE(f.server.event_loop_once().is_ok());
      }
      ++sent;
    }
    ASSERT_TRUE(f.pump_until(sent).is_ok());
  }
  EXPECT_EQ(f.client.responses_received(), sent);
  EXPECT_EQ(f.client_conn.tx_counters().rnr_events.load(), 0u);
  EXPECT_EQ(f.server_conn.tx_counters().rnr_events.load(), 0u);
}

TEST(Integration, ManyConnectionsIndependently) {
  // §III.B: multiple RDMA connections run concurrently, each independent.
  constexpr int kConns = 4;
  std::vector<std::unique_ptr<Fabric>> fabrics;
  for (int i = 0; i < kConns; ++i) {
    fabrics.push_back(std::make_unique<Fabric>());
    register_echo(fabrics.back()->server);
  }
  for (int i = 0; i < kConns; ++i) {
    for (int j = 0; j < 20; ++j) {
      std::string p = "conn" + std::to_string(i) + "-" + std::to_string(j);
      ASSERT_TRUE(fabrics[i]
                      ->client
                      .call(kEcho, as_bytes_view(p),
                            [p](const Status& st, const InMessage& resp) {
                              ASSERT_TRUE(st.is_ok());
                              EXPECT_EQ(as_string_view(resp.payload), p);
                            })
                      .is_ok());
    }
  }
  for (auto& f : fabrics) ASSERT_TRUE(f->pump_until(20).is_ok());
}

TEST(Integration, BandwidthAccountingSeesBlockOverhead) {
  // Fig. 8b footnote: headers and alignment are non-negligible for small
  // messages — bytes on the wire exceed payload bytes.
  Fabric f;
  register_echo(f.server);
  constexpr int kN = 100;
  constexpr size_t kPayload = 15;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        f.client.call(kEcho, as_bytes_view(std::string(kPayload, 'x')), nullptr)
            .is_ok());
  }
  ASSERT_TRUE(f.pump_until(kN).is_ok());
  uint64_t wire_bytes = f.client_conn.tx_counters().bytes.load();
  EXPECT_GT(wire_bytes, kN * kPayload);          // overhead exists
  EXPECT_LT(wire_bytes, kN * kPayload * 4);      // but is bounded
}

TEST(Integration, IdSyncSurvivesAutoFlushedBlocks) {
  // Regression test for the subtle §IV.D hazard: when a block fills and
  // the transport flushes it *inside* begin_message (not at the engine's
  // explicit flush), the ID discipline must still run at that true block
  // boundary — otherwise the server allocates IDs for the first block's
  // requests while the client hasn't yet, and every later response
  // dispatches to the wrong continuation.
  ConnectionConfig cfg;
  cfg.block_size = 2048;  // small blocks: many auto-flushes
  Fabric f(cfg, cfg);
  register_echo(f.server);
  std::mt19937_64 rng(kDefaultSeed);
  uint64_t sent = 0;
  for (int round = 0; round < 20; ++round) {
    // Bursts large enough that a single burst spans several blocks.
    for (int i = 0; i < 50; ++i) {
      std::string payload = "p" + std::to_string(sent) + "-" +
                            random_ascii(rng, 100 + rng() % 300);
      ++sent;
      for (int attempt = 0;; ++attempt) {
        Status st = f.client.call(
            kEcho, as_bytes_view(payload),
            [payload](const Status& rs, const InMessage& resp) {
              ASSERT_TRUE(rs.is_ok());
              // The response MUST be the echo of this exact request.
              EXPECT_EQ(as_string_view(resp.payload), payload);
            });
        if (st.is_ok()) break;
        ASSERT_LT(attempt, 1000);
        ASSERT_TRUE(f.client.event_loop_once().is_ok());
        ASSERT_TRUE(f.server.event_loop_once().is_ok());
      }
    }
    // Interleave partial pumping so responses and new requests mix.
    if (round % 3 == 0) {
      ASSERT_TRUE(f.client.event_loop_once().is_ok());
      ASSERT_TRUE(f.server.event_loop_once().is_ok());
    }
  }
  ASSERT_TRUE(f.pump_until(sent).is_ok());
  EXPECT_EQ(f.client.responses_received(), sent);
  // Many more blocks than engine-initiated flushes -> auto-flush exercised.
  EXPECT_GT(f.client_conn.tx_counters().ops.load(), 100u);
}

TEST(Integration, LatencyHistogramPopulated) {
  Fabric f;
  register_echo(f.server);
  // Looked up after the client registered it: same name -> same family.
  const metrics::Histogram& latency =
      metrics::default_registry()
          .histogram_family("rdmarpc_request_latency_seconds", "", {})
          .histogram({{"role", "client"}});
  metrics::HistogramSnapshot before = latency.snapshot();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.client.call(kEcho, as_bytes_view("x"), nullptr).is_ok());
  }
  ASSERT_TRUE(f.pump_until(20).is_ok());
  metrics::HistogramSnapshot delta = latency.snapshot().delta(before);
  EXPECT_EQ(delta.count, 20u);
  EXPECT_GT(delta.sum, 0.0);
}

double client_credits_gauge() {
  metrics::Snapshot snap = metrics::default_registry().scrape();
  const auto* s = snap.find("rdmarpc_credits_available", {{"role", "client"}});
  return s == nullptr ? 0.0 : s->value;
}

TEST(Integration, CreditsGaugeSumsLiveConnections) {
  // Every client connection writes the same {role="client"} child: the
  // gauge is the sum over live connections, not the last writer's count.
  const double base = client_credits_gauge();
  auto a = std::make_unique<Fabric>();
  ConnectionConfig small;
  small.credits = 8;
  Fabric b(small, small);
  register_echo(b.server);
  // Spend two of b's credits; the unpumped server never acks them.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(b.client.call(kEcho, as_bytes_view("x"), nullptr).is_ok());
    ASSERT_TRUE(b.client.event_loop_once().is_ok());
  }
  ASSERT_EQ(b.client_conn.credits_available(), 6u);
  EXPECT_EQ(client_credits_gauge() - base,
            a->client_conn.credits_available() + b.client_conn.credits_available());
  a.reset();
  EXPECT_EQ(client_credits_gauge() - base, b.client_conn.credits_available());
}

TEST(Integration, ReservedFlagBitIsProtocolFatal) {
  // Hostile bytes: a header flag bit outside kKnownFlags (bits 3-15 are
  // reserved) is not a request the server can interpret. Its event loop
  // fails with kDataLoss, and the message never reaches a handler.
  for (uint16_t bit = 3; bit < 16; ++bit) {
    alignas(1024) std::byte buf[1024];
    BlockWriter w(buf, sizeof(buf));
    ASSERT_TRUE(w.begin_message().is_ok());
    ASSERT_TRUE(w.commit_message(0, kEcho, static_cast<uint16_t>(1u << bit)).is_ok());
    w.finalize(0);
    auto r = BlockReader::parse(ByteSpan(buf, sizeof(buf)));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r->next().status().code(), Code::kDataLoss) << "bit " << bit;
  }

  Fabric f;
  int dispatched = 0;
  f.server.register_handler(kEcho, [&](const RequestView&, Bytes&) {
    ++dispatched;
    return Status::ok();
  });
  trace::TraceContext untraced;
  auto dst = f.client_conn.begin_message(4, untraced);
  ASSERT_TRUE(dst.is_ok());
  std::memcpy(*dst, "evil", 4);
  ASSERT_TRUE(f.client_conn.commit_message(4, kEcho, 1u << 3).is_ok());
  ASSERT_TRUE(f.client_conn.flush().is_ok());
  auto served = f.server.event_loop_once();
  ASSERT_FALSE(served.is_ok());
  EXPECT_EQ(served.status().code(), Code::kDataLoss);
  EXPECT_EQ(dispatched, 0);
  EXPECT_EQ(f.server.requests_served(), 0u);
}

// ---------------------------------------------------------------- tracing

// Turns tracing on for one test and restores the previous mode after.
class ScopedFullTracing {
 public:
  ScopedFullTracing() : saved_(trace::Tracer::instance().config()) {
    trace::TraceConfig full;
    full.mode = trace::Mode::kFull;
    trace::Tracer::instance().configure(full);
  }
  ~ScopedFullTracing() {
    trace::Tracer::instance().configure(saved_);
    std::vector<trace::SpanRecord> spans;
    trace::Tracer::instance().drain_into(spans);
  }

 private:
  trace::TraceConfig saved_;
};

// A traced message on the wire: the header counts the 24-byte WireTrace
// prefix and sets kFlagTraced; the reader peels the prefix, so the peer
// sees the sender's trace ids and exactly the payload bytes after it.
void expect_traced(const InMessage& m, const trace::TraceContext& want,
                   size_t payload_bytes) {
  EXPECT_NE(m.header.flags & kFlagTraced, 0) << m.header.flags;
  EXPECT_EQ(m.trace.trace_id, want.trace_id);
  EXPECT_EQ(m.trace.parent_span_id, want.parent_span_id);
  EXPECT_NE(m.trace.send_ns, 0u);  // stamped at flush
  EXPECT_EQ(m.header.payload_size, payload_bytes + kWireTraceSize);
  EXPECT_EQ(m.payload.size(), payload_bytes);
  EXPECT_EQ(m.payload.data(), m.payload_addr);
}

TEST(Tracing, EveryRequestWriterCarriesTheWirePrefix) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  ScopedFullTracing tracing;
  simverbs::ProtectionDomain client_pd("dpu"), server_pd("host");
  Connection client_conn(Role::kClient, &client_pd, {});
  Connection server_conn(Role::kServer, &server_pd, {});
  ASSERT_TRUE(Connection::connect(client_conn, server_conn).is_ok());
  RpcClient client(&client_conn);

  const trace::TraceContext copy_ctx{0x1001, 0x2001};
  const trace::TraceContext inplace_ctx{0x1002, 0x2002};
  const std::string copy_payload = "traced copy payload";
  constexpr uint64_t kObject = 0x0123456789abcdefull;

  ASSERT_TRUE(client.call(kEcho, as_bytes_view(copy_payload), nullptr, copy_ctx)
                  .is_ok());
  ASSERT_TRUE(client
                  .call_inplace(
                      kEcho, /*class_index=*/7, /*payload_hint=*/64,
                      [](arena::Arena& arena,
                         const arena::AddressTranslator&) -> StatusOr<uint32_t> {
                        auto* p = static_cast<std::byte*>(arena.allocate(8));
                        if (p == nullptr) return Status(Code::kResourceExhausted, "full");
                        store_le<uint64_t>(p, kObject);
                        return static_cast<uint32_t>(arena.used());
                      },
                      nullptr, inplace_ctx)
                  .is_ok());
  ASSERT_TRUE(client.event_loop_once().is_ok());

  std::vector<Connection::ReceivedBlock> blocks;
  ASSERT_TRUE(server_conn.poll_into(blocks).is_ok());
  std::vector<InMessage> msgs;
  for (const auto& rb : blocks) {
    BlockReader reader = server_conn.read_block(rb);
    while (!reader.done()) {
      auto m = reader.next();
      ASSERT_TRUE(m.is_ok()) << m.status().to_string();
      msgs.push_back(*m);
    }
  }
  ASSERT_EQ(msgs.size(), 2u);  // copy, in-place

  expect_traced(msgs[0], copy_ctx, copy_payload.size());
  EXPECT_EQ(msgs[0].header.flags, kFlagTraced);
  EXPECT_EQ(as_string_view(msgs[0].payload), copy_payload);

  expect_traced(msgs[1], inplace_ctx, 8);
  EXPECT_EQ(msgs[1].header.flags, kFlagInPlaceObject | kFlagTraced);
  EXPECT_EQ(msgs[1].header.aux, 7);
  EXPECT_TRUE(is_aligned(msgs[1].payload_addr, kPayloadAlign));
  EXPECT_EQ(load_le<uint64_t>(msgs[1].payload_addr), kObject);  // root here

}

TEST(Tracing, EveryResponseWriterEchoesTheWirePrefix) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  ScopedFullTracing tracing;
  Fabric f;
  register_echo(f.server);
  constexpr uint16_t kObjectReply = 3;
  constexpr uint64_t kObject = 0xfedcba9876543210ull;
  f.server.register_inplace_handler(
      kObjectReply, [](const RequestView&, arena::Arena& arena,
                       const arena::AddressTranslator&, uint32_t* payload_size,
                       uint16_t* class_index) -> Status {
        auto* p = static_cast<std::byte*>(arena.allocate(8));
        if (p == nullptr) return Status(Code::kResourceExhausted, "full");
        store_le<uint64_t>(p, kObject);
        *payload_size = static_cast<uint32_t>(arena.used());
        *class_index = 9;
        return Status::ok();
      });

  const trace::TraceContext copy_ctx{0x3001, 0x4001};
  const trace::TraceContext inplace_ctx{0x3002, 0x4002};
  const std::string payload = "echo me, traced";
  int checked = 0;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view(payload),
                        [&](const Status& st, const InMessage& resp) {
                          ASSERT_TRUE(st.is_ok());
                          expect_traced(resp, copy_ctx, payload.size());
                          EXPECT_EQ(resp.header.flags, kFlagTraced);
                          EXPECT_EQ(as_string_view(resp.payload), payload);
                          ++checked;
                        },
                        copy_ctx)
                  .is_ok());
  ASSERT_TRUE(f.client
                  .call(kObjectReply, as_bytes_view("x"),
                        [&](const Status& st, const InMessage& resp) {
                          ASSERT_TRUE(st.is_ok());
                          expect_traced(resp, inplace_ctx, 8);
                          EXPECT_EQ(resp.header.flags,
                                    kFlagInPlaceObject | kFlagTraced);
                          EXPECT_EQ(resp.header.aux, 9);
                          EXPECT_EQ(load_le<uint64_t>(resp.payload_addr), kObject);
                          ++checked;
                        },
                        inplace_ctx)
                  .is_ok());
  ASSERT_TRUE(f.pump_until(2).is_ok());
  EXPECT_EQ(checked, 2);
}

TEST(Integration, LostBlockStallsButDoesNotCorrupt) {
  // Fault injection: a silently dropped write models a broken link. The
  // protocol (built on a reliable connection) cannot recover it, but must
  // not mis-deliver anything else... the request simply never completes.
  Fabric f;
  register_echo(f.server);
  f.client_conn.queue_pair().faults().drop_next_sends.store(1);
  bool completed = false;
  ASSERT_TRUE(f.client
                  .call(kEcho, as_bytes_view("doomed"),
                        [&](const Status&, const InMessage&) { completed = true; })
                  .is_ok());
  EXPECT_FALSE(f.pump_until(1, /*max_iters=*/50).is_ok());
  EXPECT_FALSE(completed);
}

}  // namespace
}  // namespace dpurpc::rdmarpc

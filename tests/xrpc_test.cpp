// Tests for the xRPC transport: framing, server/channel behaviour,
// concurrent outstanding calls, and failure handling.
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"

namespace dpurpc::xrpc {
namespace {

std::unique_ptr<Server> echo_server() {
  auto server = Server::start(CallHandler([](CallContext ctx) {
    if (ctx.is_stream()) {
      // Streaming echo: accumulate chunks, answer with the concatenation.
      // Raw pointer on purpose — capturing the shared_ptr inside the
      // stream's own callbacks would be a self-cycle (leak); callbacks
      // only ever run while the server still owns the stream.
      ServerStream* stream = ctx.stream.get();
      auto acc = std::make_shared<Bytes>();
      auto respond = std::move(ctx.respond);
      const bool fail = ctx.method == "test.Echo/Fail";
      stream->on_chunk([acc, stream](Bytes chunk) {
        acc->insert(acc->end(), chunk.begin(), chunk.end());
        (void)stream->grant(static_cast<uint32_t>(chunk.size()));
      });
      stream->on_end([acc, respond, fail] {
        if (fail) {
          respond(Code::kInvalidArgument, {});
        } else {
          respond(Code::kOk, ByteSpan(*acc));
        }
      });
      (void)stream->grant(1u << 16);
      return;
    }
    if (ctx.method == "test.Echo/Echo") {
      ctx.respond(Code::kOk, ByteSpan(ctx.payload));
    } else if (ctx.method == "test.Echo/Fail") {
      ctx.respond(Code::kInvalidArgument, {});
    } else {
      ctx.respond(Code::kNotFound, {});
    }
  }));
  EXPECT_TRUE(server.is_ok()) << server.status().to_string();
  return std::move(*server);
}

TEST(Xrpc, SyncEchoRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok()) << chan.status().to_string();
  auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view("ping"));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), "ping");
}

TEST(Xrpc, EmptyPayload) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/Echo", {});
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp->empty());
}

TEST(Xrpc, LargePayload) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  std::string big = random_bytes(rng, 1 << 20);
  auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view(big));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), big);
}

TEST(Xrpc, ErrorStatusPropagates) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/Fail", as_bytes_view("x"));
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

TEST(Xrpc, UnknownMethodNotFound) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/NoSuch", {});
  EXPECT_EQ(resp.status().code(), Code::kNotFound);
}

TEST(Xrpc, ManyConcurrentOutstandingCalls) {
  // Multiplexing by call_id: issue a burst async, answers can interleave.
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  constexpr int kN = 200;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    std::string payload = "call-" + std::to_string(i);
    ASSERT_TRUE((*chan)
                    ->call_async("test.Echo/Echo", as_bytes_view(payload),
                                 [&, payload](Code c, Bytes p) {
                                   EXPECT_EQ(c, Code::kOk);
                                   EXPECT_EQ(as_string_view(ByteSpan(p)), payload);
                                   std::lock_guard lk(mu);
                                   ++done;
                                   cv.notify_all();
                                 })
                    .is_ok());
  }
  std::unique_lock lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10), [&] { return done == kN; }));
  EXPECT_EQ((*chan)->outstanding(), 0u);
}

TEST(Xrpc, MultipleClientsOneServer) {
  auto server = echo_server();
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto chan = Channel::connect(server->port());
      ASSERT_TRUE(chan.is_ok());
      for (int i = 0; i < 25; ++i) {
        std::string p = "c" + std::to_string(c) + "-" + std::to_string(i);
        auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view(p));
        ASSERT_TRUE(resp.is_ok());
        EXPECT_EQ(as_string_view(ByteSpan(*resp)), p);
        ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 25);
  EXPECT_EQ(server->requests_accepted(), static_cast<uint64_t>(kClients * 25));
}

TEST(Xrpc, ServerShutdownFailsInFlightCalls) {
  auto server = Server::start(
      CallHandler([](CallContext) { /* never responds */ }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  std::atomic<bool> failed{false};
  ASSERT_TRUE((*chan)
                  ->call_async("x/Y", {},
                               [&](Code c, Bytes) {
                                 EXPECT_NE(c, Code::kOk);
                                 failed = true;
                               })
                  .is_ok());
  (*server)->shutdown();
  (*chan)->close();  // channel close fails orphans
  EXPECT_TRUE(failed.load());
}

TEST(Xrpc, ConnectionLossFailsCallsWithoutClose) {
  // The server takes the call, keeps its responder and goes away. The
  // channel sees EOF: the call must fail on its own, not wait for close(),
  // and the dead channel must refuse new work.
  std::mutex mu;
  std::vector<Responder> held;  // outlives the server, like a proxy's
  std::atomic<int> taken{0};
  auto server = Server::start(CallHandler([&](CallContext ctx) {
    std::lock_guard<std::mutex> l(mu);
    held.push_back(std::move(ctx.respond));
    ++taken;
  }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  std::atomic<int> callbacks{0};
  std::atomic<Code> code{Code::kOk};
  ASSERT_TRUE((*chan)
                  ->call_async("x/Y", as_bytes_view("stashed"),
                               [&](Code c, Bytes) {
                                 code = c;
                                 ++callbacks;
                               })
                  .is_ok());
  for (int i = 0; i < 500 && taken.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(taken.load(), 1);
  (*server)->shutdown();

  for (int i = 0; i < 200 && callbacks.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(code.load(), Code::kUnavailable);
  EXPECT_EQ((*chan)->outstanding(), 0u);

  // Later calls and streams fail up front; their callbacks never run.
  std::atomic<bool> late_ran{false};
  EXPECT_EQ((*chan)
                ->call_async("x/Y", as_bytes_view("late"),
                             [&](Code, Bytes) { late_ran = true; })
                .code(),
            Code::kUnavailable);
  EXPECT_EQ((*chan)->open_stream("x/Stream").status().code(), Code::kUnavailable);
  (*chan)->close();
  EXPECT_FALSE(late_ran.load());
  EXPECT_EQ(callbacks.load(), 1);
}

TEST(Xrpc, ShutdownRacesInFlightTraffic) {
  // TSan regression shape for the server stop/join ordering audit: fire
  // async traffic from several channels and shut the server down in the
  // middle of it. Every callback must still run exactly once (with kOk
  // or kUnavailable), every connection thread must be joined (no leak,
  // no use-after-free of ConnState), and repeated shutdown() is a no-op.
  for (int round = 0; round < 10; ++round) {
    auto server = echo_server();
    constexpr int kChannels = 3;
    constexpr int kCallsPerChannel = 40;
    std::atomic<int> callbacks{0};
    std::vector<std::unique_ptr<Channel>> channels;
    for (int c = 0; c < kChannels; ++c) {
      auto ch = Channel::connect(server->port());
      ASSERT_TRUE(ch.is_ok());
      channels.push_back(std::move(*ch));
    }
    std::vector<std::thread> callers;
    for (auto& ch : channels) {
      callers.emplace_back([&callbacks, &ch] {
        for (int i = 0; i < kCallsPerChannel; ++i) {
          Bytes payload = to_bytes(std::string_view("ping"));
          Status st = ch->call_async("test.Echo/Echo", ByteSpan(payload),
                                     [&callbacks](Code, Bytes) {
                                       callbacks.fetch_add(
                                           1, std::memory_order_relaxed);
                                     });
          if (!st.is_ok()) {
            // Channel already torn down by the shutdown below: the call
            // was never registered, so no callback is owed.
            return;
          }
        }
      });
    }
    server->shutdown();   // races the callers above
    server->shutdown();   // idempotent
    for (auto& t : callers) t.join();
    // Closing the channels fails any still-pending callbacks.
    for (auto& ch : channels) ch->close();
    SUCCEED();
  }
}

TEST(Xrpc, ConnectToClosedPortFails) {
  // Grab a port, then close it so nothing listens there.
  uint16_t dead_port;
  {
    auto l = Listener::create();
    ASSERT_TRUE(l.is_ok());
    dead_port = l->port();
  }
  auto chan = Channel::connect(dead_port);
  EXPECT_FALSE(chan.is_ok());
}

TEST(Xrpc, AsyncCallbackRunsOffCallerThread) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> checked{false};
  std::mutex mu;
  std::condition_variable cv;
  ASSERT_TRUE((*chan)
                  ->call_async("test.Echo/Echo", as_bytes_view("t"),
                               [&](Code, Bytes) {
                                 EXPECT_NE(std::this_thread::get_id(), caller);
                                 // Flag and notify under the mutex: the
                                 // waiter can then only destroy `cv` after
                                 // notify_all() has returned (it must
                                 // reacquire `mu` first). Notifying outside
                                 // the lock raced with cv's destruction.
                                 std::lock_guard<std::mutex> l(mu);
                                 checked = true;
                                 cv.notify_all();
                               })
                  .is_ok());
  std::unique_lock lk(mu);
  cv.wait_for(lk, std::chrono::seconds(5), [&] { return checked.load(); });
  EXPECT_TRUE(checked.load());
}

// The paper's monitoring pull, over the real transport: every server
// answers kMetricsMethod itself with the process registry's exposition.
TEST(Xrpc, MetricsScrapeEndpoint) {
  metrics::Counter& counter =
      metrics::default_registry()
          .counter_family("xrpc_scrape_demo_total", "scrape test counter")
          .counter();
  counter.inc(3);
  metrics::Histogram& hist =
      metrics::default_registry()
          .histogram_family("xrpc_scrape_demo_seconds", "scrape test histogram",
                            {0.001, 0.01, 0.1})
          .histogram();
  hist.observe(0.005);
  auto server = Server::start(
      CallHandler([](CallContext ctx) { ctx.respond(Code::kNotFound, {}); }));
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok()) << chan.status().to_string();
  auto resp = (*chan)->call(std::string(kMetricsMethod), {});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  std::string text(as_string_view(ByteSpan(*resp)));
  EXPECT_NE(text.find("xrpc_scrape_demo_total " + std::to_string(counter.value())),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xrpc_scrape_demo_seconds_count " +
                      std::to_string(hist.total_count())),
            std::string::npos);
  EXPECT_NE(text.find("xrpc_scrape_demo_seconds_p95"), std::string::npos);
  // The built-in endpoint never reaches the dispatch (which would have
  // answered kNotFound).
}

// ------------------------------------------------------------ streaming

TEST(XrpcStream, EchoRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Echo");
  ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
  std::mt19937_64 rng(kDefaultSeed);
  std::string data = random_bytes(rng, 300 * 1024);
  // Odd chunk size so the last chunk is a partial one.
  constexpr size_t kChunk = 7001;
  for (size_t off = 0; off < data.size(); off += kChunk) {
    size_t n = std::min(kChunk, data.size() - off);
    ASSERT_TRUE((*stream)
                    ->write(ByteSpan(as_bytes_view(data).subspan(off, n)))
                    .is_ok());
  }
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), data);
}

TEST(XrpcStream, EmptyStreamRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Echo");
  ASSERT_TRUE(stream.is_ok());
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_TRUE(resp->empty());
}

TEST(XrpcStream, ErrorStatusOnFinish) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Fail");
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE((*stream)->write(as_bytes_view("x")).is_ok());
  auto resp = (*stream)->finish();
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

TEST(XrpcStream, CreditWindowStallsWriter) {
  // A receiver that grants slowly must stall the sender at the xRPC edge:
  // initial window = one chunk, each further grant delayed past the
  // client's next write() attempt.
  constexpr uint32_t kChunk = 8 * 1024;
  auto server = Server::start(CallHandler([](CallContext ctx) {
    ServerStream* stream = ctx.stream.get();
    auto respond = std::move(ctx.respond);
    auto total = std::make_shared<uint64_t>(0);
    stream->on_chunk([total, stream](Bytes chunk) {
      *total += chunk.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      (void)stream->grant(static_cast<uint32_t>(chunk.size()));
    });
    stream->on_end([total, respond] {
      Bytes out = to_bytes(std::to_string(*total));
      respond(Code::kOk, ByteSpan(out));
    });
    (void)stream->grant(kChunk);
  }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Slow/Sink");
  ASSERT_TRUE(stream.is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  std::string data = random_bytes(rng, kChunk);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*stream)->write(as_bytes_view(data)).is_ok());
  }
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), std::to_string(4 * kChunk));
  // Every write after the first had to wait for a delayed grant.
  EXPECT_GE((*stream)->credit_stalls(), 1u);
}

TEST(XrpcStream, AbortReachesServer) {
  std::atomic<bool> aborted{false};
  std::atomic<Code> abort_code{Code::kOk};
  auto server = Server::start(CallHandler([&](CallContext ctx) {
    ServerStream* stream = ctx.stream.get();
    stream->on_chunk([](Bytes) {});
    stream->on_end([] {});
    stream->on_abort([&](Code code) {
      abort_code = code;
      aborted = true;
    });
    (void)stream->grant(1u << 16);
    // Responder intentionally dropped: an aborted stream never answers.
  }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Abort/Me");
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE((*stream)->write(as_bytes_view("partial")).is_ok());
  (*stream)->abort(Code::kDataLoss);
  for (int i = 0; i < 500 && !aborted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(aborted.load());
  EXPECT_EQ(abort_code.load(), Code::kDataLoss);
  // finish() after abort reports the abort, not a hang.
  auto resp = (*stream)->finish(2000);
  EXPECT_FALSE(resp.is_ok());
}

// A kStreamCredit frame is client-bound; the server treats one as a
// protocol error. It must still run the connection's exit path: abort the
// live streams (so the proxy releases their budget hold) and shut the
// socket (so the client is not left waiting on a dead connection).
TEST(XrpcStream, ProtocolErrorAbortsStreamsAndClosesSocket) {
  std::atomic<bool> aborted{false};
  std::atomic<Code> abort_code{Code::kOk};
  // Held like the proxy holds a live stream's responder: it keeps the
  // connection state, and so the socket, alive past the reader's exit.
  Responder held;
  auto server = Server::start(CallHandler([&](CallContext ctx) {
    held = std::move(ctx.respond);
    ServerStream* stream = ctx.stream.get();
    stream->on_chunk([](Bytes) {});
    stream->on_end([] {});
    stream->on_abort([&](Code code) {
      abort_code = code;
      aborted = true;
    });
    (void)stream->grant(1u << 16);
  }));
  ASSERT_TRUE(server.is_ok());
  auto fd = dial((*server)->port());
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  constexpr uint32_t kCall = 7;
  ASSERT_TRUE(write_stream_open(*fd, kCall, "test.Raw/Stream").is_ok());
  ASSERT_TRUE(write_stream_chunk(*fd, kCall, as_bytes_view("partial")).is_ok());
  ASSERT_TRUE(write_stream_credit(*fd, kCall, 4096).is_ok());

  for (int i = 0; i < 500 && !aborted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(aborted.load());
  EXPECT_EQ(abort_code.load(), Code::kUnavailable);

  // The server's credit grant may arrive first; after it, a clean EOF.
  Status last = Status::ok();
  for (int frames = 0; frames < 4 && last.is_ok(); ++frames) {
    pollfd p{fd->get(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1) << "server left the socket open";
    auto frame = read_frame(*fd);
    if (frame.is_ok()) {
      EXPECT_EQ(frame->type, FrameType::kStreamCredit);
    } else {
      last = frame.status();
    }
  }
  EXPECT_EQ(last.code(), Code::kUnavailable) << last.to_string();
}

}  // namespace
}  // namespace dpurpc::xrpc

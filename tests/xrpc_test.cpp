// Tests for the xRPC transport: framing, server/channel behaviour,
// concurrent outstanding calls, and failure handling.
#include <dirent.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/endian.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"
#include "xrpc/write_batch.hpp"

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
  Bytes credit;
  append_stream_credit(credit, kCall, 4096);
  ASSERT_TRUE(write_all(*fd, credit.data(), credit.size()).is_ok());

  for (int i = 0; i < 500 && !aborted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(aborted.load());
  EXPECT_EQ(abort_code.load(), Code::kUnavailable);

  // The server's credit grant may arrive first; after it, a clean EOF.
  Status last = Status::ok();
  FrameReader reader(*fd);
  for (int frames = 0; frames < 4 && last.is_ok(); ++frames) {
    pollfd p{fd->get(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1) << "server left the socket open";
    auto frame = reader.next();
    if (frame.is_ok()) {
      EXPECT_EQ(frame->type, FrameType::kStreamCredit);
    } else {
      last = frame.status();
    }
  }
  EXPECT_EQ(last.code(), Code::kUnavailable) << last.to_string();
}


// Threads this process has (one /proc/self/task entry each).
size_t task_count() {
  size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    ::closedir(dir);
  }
  return n;
}

// Virtual memory size in KiB: an exited thread that nobody joined keeps
// its stack mapped, so it shows here even after it left /proc/self/task.
uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

// Connection churn: every connection's reader thread exits when its
// client closes, and the server joins it at a later accept instead of
// holding it (and its stack) until shutdown().
TEST(Xrpc, ConnectionChurnReapsReaderThreads) {
  auto server = echo_server();
  auto round_trip = [&](const char* body) {
    auto chan = Channel::connect(server->port());
    ASSERT_TRUE(chan.is_ok());
    ASSERT_TRUE((*chan)->call("test.Echo/Echo", as_bytes_view(body)).is_ok());
  };
  round_trip("warm-up");  // the first reader's stack is not churn
  const size_t tasks_before = task_count();
  const uint64_t vm_before = vm_size_kib();
  constexpr int kCycles = 200;
  for (int i = 0; i < kCycles; ++i) {
    auto fd = dial(server->port());
    ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
    // Half-close, then wait for the server's EOF: its reader has seen
    // ours and is on its way out, so one cycle's thread ends before the
    // next begins and only a leak can make them add up.
    ASSERT_EQ(::shutdown(fd->get(), SHUT_WR), 0);
    pollfd p{fd->get(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1) << "the server kept connection " << i << " open";
    char byte;
    ASSERT_EQ(::recv(fd->get(), &byte, 1, 0), 0);
  }
  round_trip("after");  // its accept reaps the readers that exited before it
  size_t tasks_after = task_count();
  for (int i = 0; i < 200 && tasks_after > tasks_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tasks_after = task_count();
  }
  EXPECT_LE(tasks_after, tasks_before);
  // 200 exited but unjoined readers would keep 200 stacks mapped (8 MiB
  // each by default): ~1.6 GiB.
  const uint64_t vm_after = vm_size_kib();
  EXPECT_LT(vm_after - std::min(vm_before, vm_after), 64u * 8192)
      << "exited reader threads were not joined";
}

// ------------------------------------------------------------ frame reader

// A connected AF_UNIX stream pair: the first end belongs to the code
// under test, the second to the test.
std::pair<Fd, Fd> socket_pair() {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0) << std::strerror(errno);
  return {Fd(sv[0]), Fd(sv[1])};
}

TEST(FrameReader, FrameSplitAtEveryByteBoundary) {
  const FrameTrace ft{11, 22, 33};
  Bytes wire;
  std::vector<size_t> frame_ends;
  append_response(wire, 1, Code::kOk, as_bytes_view("first payload"), &ft);
  frame_ends.push_back(wire.size());
  append_stream_credit(wire, 2, 4096);
  frame_ends.push_back(wire.size());
  append_response(wire, 3, Code::kNotFound, {});
  frame_ends.push_back(wire.size());

  for (size_t cut = 1; cut < wire.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    auto [ours, theirs] = socket_pair();
    FrameReader reader(ours);
    std::vector<AnyFrame> got;
    ASSERT_TRUE(write_all(theirs, wire.data(), cut).is_ok());
    // Only the frames wholly before the cut can be read without blocking;
    // the frame the cut splits stays buffered, half-read.
    for (size_t end : frame_ends) {
      if (end > cut) break;
      auto frame = reader.next();
      ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
      got.push_back(std::move(*frame));
    }
    ASSERT_TRUE(write_all(theirs, wire.data() + cut, wire.size() - cut).is_ok());
    while (got.size() < frame_ends.size()) {
      auto frame = reader.next();
      ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
      got.push_back(std::move(*frame));
    }
    ASSERT_EQ(got[0].type, FrameType::kResponse);
    EXPECT_EQ(got[0].response.call_id, 1u);
    EXPECT_EQ(got[0].response.status, Code::kOk);
    EXPECT_EQ(as_string_view(ByteSpan(got[0].response.payload)), "first payload");
    EXPECT_EQ(got[0].response.trace.trace_id, 11u);
    EXPECT_EQ(got[0].response.trace.span_id, 22u);
    EXPECT_EQ(got[0].response.trace.send_ns, 33u);
    ASSERT_EQ(got[1].type, FrameType::kStreamCredit);
    EXPECT_EQ(got[1].stream.call_id, 2u);
    EXPECT_EQ(got[1].stream.credit, 4096u);
    ASSERT_EQ(got[2].type, FrameType::kResponse);
    EXPECT_EQ(got[2].response.call_id, 3u);
    EXPECT_EQ(got[2].response.status, Code::kNotFound);
    EXPECT_TRUE(got[2].response.payload.empty());
  }
}

TEST(FrameReader, ManyFramesInOneRecv) {
  auto [ours, theirs] = socket_pair();
  constexpr uint32_t kFrames = 300;
  Bytes wire;
  for (uint32_t i = 0; i < kFrames; ++i) append_stream_credit(wire, i, i * 7);
  ASSERT_TRUE(write_all(theirs, wire.data(), wire.size()).is_ok());
  theirs.reset();
  FrameReader reader(ours);
  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = reader.next();
    ASSERT_TRUE(frame.is_ok()) << "frame " << i << ": " << frame.status().to_string();
    ASSERT_EQ(frame->type, FrameType::kStreamCredit);
    EXPECT_EQ(frame->stream.call_id, i);
    EXPECT_EQ(frame->stream.credit, i * 7);
  }
  auto eof = reader.next();
  ASSERT_FALSE(eof.is_ok());
  EXPECT_EQ(eof.status().code(), Code::kUnavailable);
}

TEST(FrameReader, LargeFrameGrowsTheBufferThenItShrinksBack) {
  auto [ours, theirs] = socket_pair();
  Bytes chunk(1u << 20);
  for (size_t i = 0; i < chunk.size(); ++i) chunk[i] = static_cast<std::byte>(i * 31);
  // The chunk is larger than the socket buffers: write it from a thread.
  std::thread writer([&, fd = &theirs] {
    EXPECT_TRUE(write_stream_chunk(*fd, 5, ByteSpan(chunk)).is_ok());
    EXPECT_TRUE(write_stream_end(*fd, 5).is_ok());
  });
  FrameReader reader(ours);
  EXPECT_EQ(reader.buffer_size(), FrameReader::kBufferBytes);
  auto big = reader.next();
  ASSERT_TRUE(big.is_ok()) << big.status().to_string();
  ASSERT_EQ(big->type, FrameType::kStreamChunk);
  EXPECT_EQ(big->stream.call_id, 5u);
  EXPECT_TRUE(big->stream.payload == chunk);
  EXPECT_EQ(reader.buffer_size(), FrameReader::kBufferBytes)
      << "the large frame's buffer outlived it";
  auto end = reader.next();
  ASSERT_TRUE(end.is_ok()) << end.status().to_string();
  EXPECT_EQ(end->type, FrameType::kStreamEnd);
  EXPECT_EQ(end->stream.call_id, 5u);
  writer.join();
}

TEST(FrameReader, LengthOutOfRangeIsDataLoss) {
  for (uint32_t body : {0u, 4u, kMaxFrameBody + 1, UINT32_MAX}) {
    SCOPED_TRACE("body length " + std::to_string(body));
    auto [ours, theirs] = socket_pair();
    uint8_t header[9] = {};
    store_le<uint32_t>(header, body);
    ASSERT_TRUE(write_all(theirs, header, sizeof(header)).is_ok());
    FrameReader reader(ours);
    auto frame = reader.next();
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), Code::kDataLoss);
    EXPECT_EQ(reader.buffer_size(), FrameReader::kBufferBytes);
  }
}

TEST(FrameReader, EofMidFrameIsUnavailable) {
  Bytes wire;
  append_response(wire, 9, Code::kOk, as_bytes_view("cut short"));
  for (size_t cut : {size_t{2}, size_t{4}, wire.size() - 1}) {
    SCOPED_TRACE("closed after " + std::to_string(cut) + " bytes");
    auto [ours, theirs] = socket_pair();
    ASSERT_TRUE(write_all(theirs, wire.data(), cut).is_ok());
    theirs.reset();
    FrameReader reader(ours);
    auto frame = reader.next();
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), Code::kUnavailable);
  }
}

// ------------------------------------------------------------- write batch

// A server connection over one end of a socket pair; the test reads the
// other end.
struct PairedConn {
  std::shared_ptr<ConnState> conn = std::make_shared<ConnState>();
  Fd peer;
};

PairedConn paired_conn() {
  PairedConn pc;
  auto [ours, theirs] = socket_pair();
  pc.conn->fd = std::move(ours);
  pc.peer = std::move(theirs);
  return pc;
}

bool readable(const Fd& fd) {
  pollfd p{fd.get(), POLLIN, 0};
  return ::poll(&p, 1, 0) == 1;
}

double scraped(std::string_view name) {
  metrics::Snapshot snap = metrics::default_registry().scrape();
  const metrics::Sample* sample = snap.find(name);
  return sample == nullptr ? 0 : sample->value;
}

TEST(WriteBatch, KeepsPerConnectionOrderAcrossRepliesAndGrants) {
  PairedConn a = paired_conn();
  PairedConn b = paired_conn();
  ServerStream stream_a(a.conn, 100);
  constexpr uint32_t kRounds = 8;
  const double frames_before = scraped("dpurpc_xrpc_frames_sent_total");
  const double writes_before = scraped("dpurpc_xrpc_socket_writes_total");
  {
    WriteBatch batch;
    EXPECT_EQ(WriteBatch::current(), &batch);
    for (uint32_t i = 0; i < kRounds; ++i) {
      const std::string body = "reply " + std::to_string(i);
      ASSERT_TRUE(send_response(a.conn, i, Code::kOk, as_bytes_view(body)).is_ok());
      ASSERT_TRUE(stream_a.grant(1000 + i).is_ok());
      ASSERT_TRUE(send_response(b.conn, 50 + i, Code::kAborted, {}).is_ok());
    }
    EXPECT_FALSE(readable(a.peer)) << "a batched frame left before the flush";
    EXPECT_FALSE(readable(b.peer)) << "a batched frame left before the flush";
    batch.flush();
    EXPECT_TRUE(readable(a.peer));
    EXPECT_TRUE(readable(b.peer));
  }
  EXPECT_EQ(WriteBatch::current(), nullptr);
  EXPECT_EQ(scraped("dpurpc_xrpc_frames_sent_total") - frames_before, 3.0 * kRounds);
  EXPECT_EQ(scraped("dpurpc_xrpc_socket_writes_total") - writes_before, 2.0)
      << "one write per connection per flush";

  FrameReader read_a(a.peer);
  FrameReader read_b(b.peer);
  for (uint32_t i = 0; i < kRounds; ++i) {
    auto reply = read_a.next();
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    ASSERT_EQ(reply->type, FrameType::kResponse);
    EXPECT_EQ(reply->response.call_id, i);
    EXPECT_EQ(as_string_view(ByteSpan(reply->response.payload)),
              "reply " + std::to_string(i));
    auto credit = read_a.next();
    ASSERT_TRUE(credit.is_ok()) << credit.status().to_string();
    ASSERT_EQ(credit->type, FrameType::kStreamCredit);
    EXPECT_EQ(credit->stream.call_id, 100u);
    EXPECT_EQ(credit->stream.credit, 1000 + i);
    auto other = read_b.next();
    ASSERT_TRUE(other.is_ok()) << other.status().to_string();
    EXPECT_EQ(other->response.call_id, 50 + i);
    EXPECT_EQ(other->response.status, Code::kAborted);
  }
  EXPECT_FALSE(readable(a.peer));
  EXPECT_FALSE(readable(b.peer));
}

TEST(WriteBatch, NestedBatchJoinsTheOuterOne) {
  PairedConn a = paired_conn();
  {
    WriteBatch outer;
    {
      WriteBatch inner;
      EXPECT_EQ(WriteBatch::current(), &outer);
      ASSERT_TRUE(send_response(a.conn, 1, Code::kOk, as_bytes_view("one")).is_ok());
    }
    EXPECT_FALSE(readable(a.peer)) << "closing the inner batch sent its frames";
    EXPECT_EQ(WriteBatch::current(), &outer);
    ASSERT_TRUE(send_response(a.conn, 2, Code::kOk, as_bytes_view("two")).is_ok());
    EXPECT_FALSE(readable(a.peer));
  }
  EXPECT_EQ(WriteBatch::current(), nullptr);
  FrameReader reader(a.peer);
  for (uint32_t id : {1u, 2u}) {
    auto frame = reader.next();
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    EXPECT_EQ(frame->response.call_id, id);
  }
}

TEST(WriteBatch, WithoutABatchTheWriteIsImmediate) {
  ASSERT_EQ(WriteBatch::current(), nullptr);
  PairedConn a = paired_conn();
  ServerStream stream(a.conn, 4);
  const double writes_before = scraped("dpurpc_xrpc_socket_writes_total");
  ASSERT_TRUE(send_response(a.conn, 3, Code::kOk, as_bytes_view("now")).is_ok());
  EXPECT_TRUE(readable(a.peer));
  ASSERT_TRUE(stream.grant(64).is_ok());
  EXPECT_EQ(scraped("dpurpc_xrpc_socket_writes_total") - writes_before, 2.0);
  FrameReader reader(a.peer);
  auto reply = reader.next();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply->response.call_id, 3u);
  EXPECT_EQ(as_string_view(ByteSpan(reply->response.payload)), "now");
  auto credit = reader.next();
  ASSERT_TRUE(credit.is_ok()) << credit.status().to_string();
  EXPECT_EQ(credit->stream.credit, 64u);
}

TEST(WriteBatch, FlushToADeadConnectionReturns) {
  PairedConn shut = paired_conn();
  shut.conn->fd.shutdown();
  PairedConn closed = paired_conn();
  closed.peer.reset();
  PairedConn live = paired_conn();
  {
    WriteBatch batch;
    ASSERT_TRUE(send_response(shut.conn, 1, Code::kOk, as_bytes_view("lost")).is_ok());
    ASSERT_TRUE(send_response(closed.conn, 2, Code::kOk, as_bytes_view("lost")).is_ok());
    ASSERT_TRUE(send_response(live.conn, 3, Code::kOk, as_bytes_view("kept")).is_ok());
    batch.flush();  // the dead connections fail quietly
    ASSERT_TRUE(send_response(shut.conn, 4, Code::kOk, {}).is_ok());
  }
  FrameReader reader(live.peer);
  auto frame = reader.next();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame->response.call_id, 3u);
  // Unbatched, the same write reports the dead peer.
  EXPECT_FALSE(send_response(shut.conn, 5, Code::kOk, {}).is_ok());
  EXPECT_FALSE(send_response(closed.conn, 6, Code::kOk, {}).is_ok());
}

}  // namespace
}  // namespace dpurpc::xrpc

// xRPC server: accepts TCP connections and dispatches unary calls.
//
// In the offloaded deployment this runs ON THE DPU (the proxy terminates
// gRPC-like traffic there, §III.A: "the DPU acts now as the xRPC server");
// in the traditional baseline it runs on the host. Responses may be sent
// asynchronously from any thread — the proxy answers from its RPC over
// RDMA event loop.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "trace/trace.hpp"
#include "xrpc/call_context.hpp"
#include "xrpc/frame.hpp"
#include "xrpc/stream.hpp"

namespace dpurpc::xrpc {

/// Method name every server answers itself with the process registry's
/// text exposition — the paper's monitoring-process scrape, served over
/// the real transport instead of in-process calls.
inline constexpr std::string_view kMetricsMethod = "dpurpc.Metrics/Scrape";

class Server {
 public:
  /// Completes one call; thread-safe, callable once per request.
  using Responder = xrpc::Responder;

  /// The unified surface: invoked on the connection's reader thread for
  /// every call — unary (ctx.payload, respond inline or stash the
  /// responder) or streaming (ctx.stream non-null; install its callbacks
  /// before returning). See call_context.hpp.
  using Handler = CallHandler;

  /// Listen on an OS-assigned loopback port and serve until shutdown().
  /// kMetricsMethod is answered before the handler ever sees the call.
  static StatusOr<std::unique_ptr<Server>> start(Handler handler);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const noexcept { return listener_.port(); }
  void shutdown();

  uint64_t requests_accepted() const noexcept {
    return relaxed::load(requests_accepted_);
  }

 private:
  Server(Listener listener, Handler handler);
  void accept_loop();
  void connection_loop(std::shared_ptr<ConnState> conn);

  /// A connection's reader thread and the flag it sets as it exits.
  struct ConnThread {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  /// Move the threads whose connections ended into `finished` (the
  /// caller joins them outside mu_) and drop expired conns_ entries.
  void take_finished(std::vector<ConnThread>& finished) DPURPC_REQUIRES(mu_);

  Listener listener_;
  Handler handler_;
  std::thread accept_thread_;
  lockdep::Mutex mu_{"xrpc.Server.mu"};
  // Shutdown protocol (stop/join ordering): shutdown() publishes
  // stopping_, closes the listener, then — under mu_ — shuts down every
  // fd in conns_ so blocked readers fail out. accept_loop() re-checks
  // stopping_ under the same mu_ before registering a new connection, so
  // a connection is either registered (and its fd shut down by
  // shutdown()'s sweep) or never spawned; no thread can be created after
  // the sweep and escape it. Only then are accept/conn threads joined.
  // Reaping: each accept also takes the threads of connections that have
  // ended out of conn_threads_ (under mu_) and joins them outside it, so
  // connection churn does not pile up exited threads until shutdown().
  // A thread taken out is one whose loop already returned, so shutdown()
  // never needs to see it.
  std::vector<ConnThread> conn_threads_ DPURPC_GUARDED_BY(mu_);
  std::vector<std::weak_ptr<ConnState>> conns_ DPURPC_GUARDED_BY(mu_);
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_accepted_{0};
};

}  // namespace dpurpc::xrpc

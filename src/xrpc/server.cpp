#include "xrpc/server.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/cpu_timer.hpp"
#include "metrics/metrics.hpp"

namespace dpurpc::xrpc {

StatusOr<std::unique_ptr<Server>> Server::start(Handler handler) {
  auto listener = Listener::create();
  if (!listener.is_ok()) return listener.status();
  return std::unique_ptr<Server>(new Server(std::move(*listener), std::move(handler)));
}

Server::Server(Listener listener, Handler handler)
    : listener_(std::move(listener)), handler_(std::move(handler)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.shutdown();
  {
    lockdep::ScopedLock lk(mu_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) conn->fd.shutdown();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // accept_thread_ is joined, so conn_threads_ can no longer grow; swap
  // it out under mu_ and join outside the lock (a connection thread may
  // itself need mu_-free progress to observe its dead fd and exit).
  std::vector<ConnThread> threads;
  {
    lockdep::ScopedLock lk(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) t.thread.join();
}

void Server::take_finished(std::vector<ConnThread>& finished) {
  auto split = std::stable_partition(conn_threads_.begin(), conn_threads_.end(),
                                     [](const ConnThread& t) { return !t.done->load(); });
  std::move(split, conn_threads_.end(), std::back_inserter(finished));
  conn_threads_.erase(split, conn_threads_.end());
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const auto& weak) { return weak.expired(); }),
               conns_.end());
}

void Server::accept_loop() {
  while (!relaxed::load(stopping_)) {
    auto client = listener_.accept();
    if (!client.is_ok()) break;  // listener shut down
    auto conn = std::make_shared<ConnState>();
    conn->fd = std::move(*client);
    std::vector<ConnThread> finished;
    {
      lockdep::ScopedLock lk(mu_);
      // Re-check under mu_: shutdown() sets stopping_ before it sweeps
      // conns_, so either we see it here (drop the connection), or the
      // sweep sees our registration (and shuts our fd down).
      if (relaxed::load(stopping_)) break;
      take_finished(finished);
      conns_.push_back(conn);
      auto done = std::make_unique<std::atomic<bool>>(false);
      std::atomic<bool>* flag = done.get();
      conn_threads_.push_back(ConnThread{std::thread([this, conn, flag] {
                                           connection_loop(conn);
                                           flag->store(true);
                                         }),
                                         std::move(done)});
    }
    for (auto& t : finished) t.thread.join();
  }
}

namespace {

/// Inbound span + propagated context for a request/stream-open frame.
trace::TraceContext note_inbound(const FrameTrace& ft, size_t wire_bytes) {
  trace::TraceContext tctx;
  if (trace::enabled() && ft.active()) {
    tctx = {ft.trace_id, ft.span_id};
    // TCP wire + this reader's dispatch, from the client's send stamp.
    trace::Tracer::instance().record(trace::Stage::kXrpcInbound, tctx,
                                     ft.send_ns, WallTimer::now(), wire_bytes);
  }
  return tctx;
}

/// The responder owns a reference to the connection so late async
/// responses still have a live socket. It echoes the trace context so
/// the client can attribute the response wire span. On a thread with an
/// open WriteBatch the frame joins the batch; its send stamp is taken
/// here, so the wait for the flush lands in the client's kXrpcOutbound.
Responder make_responder(std::shared_ptr<ConnState> conn, uint32_t call_id,
                         trace::TraceContext tctx) {
  return [conn = std::move(conn), call_id, tctx](Code status, ByteSpan payload) {
    if (tctx.active()) {
      FrameTrace ft{tctx.trace_id, tctx.parent_span_id, WallTimer::now()};
      (void)send_response(conn, call_id, status, payload, &ft);
    } else {
      (void)send_response(conn, call_id, status, payload);
    }
  };
}

}  // namespace

void Server::connection_loop(std::shared_ptr<ConnState> conn) {
  // call_id -> live inbound stream. Reader-thread-only: every stream
  // frame for this connection flows through this loop, in TCP order.
  std::map<uint32_t, std::shared_ptr<ServerStream>> streams;
  // The connection is done, however the loop below ends: shut the socket
  // so the peer reads EOF, and tell the owners of streams still in flight
  // so every downstream resource (pool jobs, budgets) drains.
  auto close_connection = [&] {
    conn->fd.shutdown();
    for (auto& [id, stream] : streams) stream->deliver_abort(Code::kUnavailable);
  };
  FrameReader reader(conn->fd);
  while (!relaxed::load(stopping_)) {
    auto frame = reader.next();
    if (!frame.is_ok()) break;  // closed or broken: drop the connection
    switch (frame->type) {
      case FrameType::kRequest: {
        relaxed::add(requests_accepted_, 1);
        uint32_t call_id = frame->request.call_id;
        trace::TraceContext tctx =
            note_inbound(frame->request.trace, frame->request.payload.size());
        Responder respond = make_responder(conn, call_id, tctx);
        if (frame->request.method == kMetricsMethod) {
          // Built-in scrape endpoint: answer inline, never reaches the
          // handler.
          std::string text = metrics::default_registry().expose_text();
          respond(Code::kOk,
                  ByteSpan(reinterpret_cast<const std::byte*>(text.data()),
                           text.size()));
          continue;
        }
        CallContext ctx;
        ctx.method = std::move(frame->request.method);
        ctx.payload = std::move(frame->request.payload);
        ctx.trace = tctx;
        ctx.respond = std::move(respond);
        handler_(std::move(ctx));
        break;
      }
      case FrameType::kStreamOpen: {
        relaxed::add(requests_accepted_, 1);
        uint32_t call_id = frame->stream.call_id;
        trace::TraceContext tctx =
            note_inbound(frame->stream.trace, frame->stream.method.size());
        auto stream = std::make_shared<ServerStream>(conn, call_id);
        streams[call_id] = stream;
        CallContext ctx;
        ctx.method = std::move(frame->stream.method);
        ctx.trace = tctx;
        ctx.respond = make_responder(conn, call_id, tctx);
        ctx.stream = std::move(stream);
        handler_(std::move(ctx));
        break;
      }
      case FrameType::kStreamChunk: {
        auto it = streams.find(frame->stream.call_id);
        if (it != streams.end()) {
          it->second->deliver_chunk(std::move(frame->stream.payload));
        }
        break;
      }
      case FrameType::kStreamEnd: {
        auto it = streams.find(frame->stream.call_id);
        if (it != streams.end()) {
          auto stream = std::move(it->second);
          streams.erase(it);
          stream->deliver_end();
        }
        break;
      }
      case FrameType::kStreamAbort: {
        auto it = streams.find(frame->stream.call_id);
        if (it != streams.end()) {
          auto stream = std::move(it->second);
          streams.erase(it);
          stream->deliver_abort(frame->stream.status);
        }
        break;
      }
      default:
        // kResponse / kStreamCredit at the server: protocol error
        close_connection();
        return;
    }
  }
  close_connection();
}

}  // namespace dpurpc::xrpc

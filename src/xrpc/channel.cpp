#include "xrpc/channel.hpp"

#include <chrono>

#include "common/cpu_timer.hpp"
#include "metrics/metrics.hpp"

namespace dpurpc::xrpc {

StatusOr<std::unique_ptr<Channel>> Channel::connect(uint16_t port) {
  auto fd = dial(port);
  if (!fd.is_ok()) return fd.status();
  return std::unique_ptr<Channel>(new Channel(std::move(*fd)));
}

Channel::Channel(Fd fd) : fd_(std::move(fd)) {
  reader_ = std::thread([this] { reader_loop(); });
}

Channel::~Channel() { close(); }

void Channel::close() {
  {
    lockdep::ScopedLock lk(mu_);
    if (closed_) return;
    closed_ = true;
  }
  fd_.shutdown();
  // The reader fails anything still outstanding on its way out.
  if (reader_.joinable()) reader_.join();
}

void Channel::fail_outstanding() {
  // Orphaned traces never get a root span; the collector ages them out
  // as orphans.
  std::map<uint32_t, PendingCall> orphans;
  std::map<uint32_t, std::shared_ptr<StreamState>> stream_orphans;
  {
    lockdep::ScopedLock lk(mu_);
    dead_ = true;
    orphans.swap(pending_);
    stream_orphans.swap(streams_);
  }
  for (auto& [id, call] : orphans) call.cb(Code::kUnavailable, {});
  for (auto& [id, st] : stream_orphans) {
    lockdep::ScopedLock lk(st->mu);
    st->finished = true;
    st->final_code = Code::kUnavailable;
    st->cv.notify_all();
  }
}

Status Channel::call_async(std::string_view method, ByteSpan payload, Callback done) {
  // Trace entry point: allocate (or head-sample away) the request's
  // context before any work happens, so the root span covers everything.
  trace::TraceContext tctx;
  uint64_t start_ns = 0;
  if (trace::enabled()) {
    tctx = trace::Tracer::instance().begin_trace();
    if (tctx.active()) start_ns = WallTimer::now();
  }
  uint32_t id;
  {
    lockdep::ScopedLock lk(mu_);
    if (dead_) return Status(Code::kUnavailable, "channel closed");
    id = next_call_id_++;
    pending_[id] = PendingCall{std::move(done), tctx, start_ns};
  }
  lockdep::ScopedLock wl(write_mu_);
  Status st;
  if (tctx.active()) {
    FrameTrace ft{tctx.trace_id, tctx.parent_span_id, WallTimer::now()};
    st = write_request(fd_, id, method, payload, &ft);
    if (st.is_ok()) {
      // Request build + socket write, up to the stamp the server's
      // inbound span starts at.
      trace::Tracer::instance().record(trace::Stage::kClientSerialize, tctx,
                                       start_ns, ft.send_ns, payload.size());
    }
  } else {
    st = write_request(fd_, id, method, payload);
  }
  if (!st.is_ok()) {
    lockdep::ScopedLock lk(mu_);
    // Already failed by the reader's exit: the callback carries the
    // outcome, so the call must not also report an error.
    if (pending_.erase(id) == 0) return Status::ok();
  }
  return st;
}

StatusOr<Bytes> Channel::call(std::string_view method, ByteSpan payload,
                              int timeout_ms) {
  struct Sync {
    lockdep::Mutex mu{"xrpc.Channel.call.sync"};
    lockdep::CondVar cv;
    bool done = false;
    Code code = Code::kOk;
    Bytes payload;
  };
  auto sync = std::make_shared<Sync>();
  DPURPC_RETURN_IF_ERROR(call_async(method, payload, [sync](Code c, Bytes p) {
    lockdep::ScopedLock lk(sync->mu);
    sync->code = c;
    sync->payload = std::move(p);
    sync->done = true;
    sync->cv.notify_all();
  }));
  lockdep::UniqueLock lk(sync->mu);
  if (!sync->cv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                         [&] { return sync->done; })) {
    return Status(Code::kUnavailable, "xrpc call timed out");
  }
  if (sync->code != Code::kOk) return Status(sync->code, "remote xrpc error");
  return std::move(sync->payload);
}

StatusOr<std::unique_ptr<ClientStream>> Channel::open_stream(
    std::string_view method) {
  // Trace entry point, exactly like call_async: the root span covers
  // open → final response.
  trace::TraceContext tctx;
  uint64_t start_ns = 0;
  if (trace::enabled()) {
    tctx = trace::Tracer::instance().begin_trace();
    if (tctx.active()) start_ns = WallTimer::now();
  }
  auto st = std::make_shared<StreamState>();
  st->trace = tctx;
  st->start_ns = start_ns;
  uint32_t id;
  {
    lockdep::ScopedLock lk(mu_);
    if (dead_) return Status(Code::kUnavailable, "channel closed");
    id = next_call_id_++;
    st->call_id = id;
    streams_[id] = st;
  }
  Status written;
  {
    lockdep::ScopedLock wl(write_mu_);
    if (tctx.active()) {
      FrameTrace ft{tctx.trace_id, tctx.parent_span_id, WallTimer::now()};
      written = write_stream_open(fd_, id, method, &ft);
      if (written.is_ok()) {
        trace::Tracer::instance().record(trace::Stage::kClientSerialize, tctx,
                                         start_ns, ft.send_ns, method.size());
      }
    } else {
      written = write_stream_open(fd_, id, method);
    }
  }
  if (!written.is_ok()) {
    lockdep::ScopedLock lk(mu_);
    streams_.erase(id);
    return written;
  }
  return std::unique_ptr<ClientStream>(new ClientStream(std::move(st), this));
}

size_t Channel::outstanding() const {
  lockdep::ScopedLock lk(mu_);
  return pending_.size();
}

void Channel::finish_stream(const std::shared_ptr<StreamState>& st,
                            ResponseFrame&& resp) {
  if (trace::enabled() && st->trace.active() && resp.trace.active()) {
    trace::Tracer::instance().record(trace::Stage::kXrpcOutbound, st->trace,
                                     resp.trace.send_ns, WallTimer::now(),
                                     resp.payload.size());
  }
  size_t resp_bytes = resp.payload.size();
  {
    lockdep::ScopedLock lk(st->mu);
    st->final_code = resp.status;
    st->final_payload = std::move(resp.payload);
    st->finished = true;
    st->cv.notify_all();
  }
  if (trace::enabled() && st->trace.active()) {
    // Root span: open → final response, the stream's end-to-end time.
    trace::Tracer::instance().record_root(st->trace, st->start_ns,
                                          WallTimer::now(), resp_bytes);
  }
}

void Channel::reader_loop() {
  FrameReader reader(fd_);
  while (true) {
    auto frame = reader.next();
    if (!frame.is_ok()) {
      // EOF, a broken socket, or close(): no response can arrive any more.
      fail_outstanding();
      return;
    }
    if (frame->type == FrameType::kStreamCredit) {
      std::shared_ptr<StreamState> st;
      {
        lockdep::ScopedLock lk(mu_);
        auto it = streams_.find(frame->stream.call_id);
        if (it != streams_.end()) st = it->second;
      }
      if (st != nullptr) {
        lockdep::ScopedLock lk(st->mu);
        st->window += frame->stream.credit;
        st->cv.notify_all();
      }
      continue;
    }
    if (frame->type != FrameType::kResponse) continue;
    PendingCall call;
    std::shared_ptr<StreamState> stream_final;
    {
      lockdep::ScopedLock lk(mu_);
      auto it = pending_.find(frame->response.call_id);
      if (it == pending_.end()) {
        // Not unary: maybe the final response of a streaming call.
        auto sit = streams_.find(frame->response.call_id);
        if (sit == streams_.end()) continue;  // late/duplicate: ignore
        stream_final = std::move(sit->second);
        streams_.erase(sit);
      } else {
        call = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (stream_final != nullptr) {
      finish_stream(stream_final, std::move(frame->response));
      continue;
    }
    if (trace::enabled() && call.trace.active() &&
        frame->response.trace.active()) {
      // Server wire + this reader's wakeup, from the server's send stamp.
      trace::Tracer::instance().record(trace::Stage::kXrpcOutbound, call.trace,
                                       frame->response.trace.send_ns,
                                       WallTimer::now(),
                                       frame->response.payload.size());
    }
    size_t resp_bytes = frame->response.payload.size();
    call.cb(frame->response.status, std::move(frame->response.payload));
    if (trace::enabled() && call.trace.active()) {
      // Root span: entry-point-observed end-to-end time, callback included.
      trace::Tracer::instance().record_root(call.trace, call.start_ns,
                                            WallTimer::now(), resp_bytes);
    }
  }
}

// --------------------------------------------------------- client stream

ClientStream::~ClientStream() {
  bool open;
  {
    lockdep::ScopedLock lk(state_->mu);
    open = !state_->finished && !state_->aborted;
  }
  // Abandoned mid-stream: abort so the server drops its state.
  if (open) abort(Code::kAborted);
}

Status ClientStream::write(ByteSpan chunk, int timeout_ms) {
  if (chunk.empty()) return Status::ok();
  {
    lockdep::UniqueLock lk(state_->mu);
    if (state_->window < chunk.size() && !state_->finished &&
        !state_->aborted) {
      // Backpressure engages here, at the xRPC edge: the receiver's
      // grants pace the sender before any bytes enter the datapath.
      ++state_->stalls;
      // Default-registry mirror: the flight recorder watches this to arm
      // a capture window when backpressure bites. We're about to block on
      // the cv anyway, so the one-time registration lock is immaterial.
      static metrics::Counter& stall_counter = metrics::default_counter(
          "dpurpc_xrpc_credit_stalls_total",
          "Client stream writes that blocked on the byte-credit window");
      stall_counter.inc();
      bool ok = state_->cv.wait_for(
          lk, std::chrono::milliseconds(timeout_ms), [&] {
            return state_->finished || state_->aborted ||
                   state_->window >= chunk.size();
          });
      if (!ok) return Status(Code::kUnavailable, "credit window never opened");
    }
    if (state_->finished || state_->aborted) {
      return Status(Code::kFailedPrecondition, "stream already closed");
    }
    state_->window -= chunk.size();
  }
  lockdep::ScopedLock wl(channel_->write_mu_);
  return write_stream_chunk(channel_->fd_, state_->call_id, chunk);
}

StatusOr<Bytes> ClientStream::finish(int timeout_ms) {
  {
    lockdep::ScopedLock lk(state_->mu);
    if (state_->aborted) {
      return Status(Code::kFailedPrecondition, "stream already aborted");
    }
  }
  {
    lockdep::ScopedLock wl(channel_->write_mu_);
    DPURPC_RETURN_IF_ERROR(write_stream_end(channel_->fd_, state_->call_id));
  }
  lockdep::UniqueLock lk(state_->mu);
  if (!state_->cv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                           [&] { return state_->finished; })) {
    return Status(Code::kUnavailable, "stream finish timed out");
  }
  if (state_->final_code != Code::kOk) {
    return Status(state_->final_code, "remote stream error");
  }
  return std::move(state_->final_payload);
}

void ClientStream::abort(Code code) {
  {
    lockdep::ScopedLock lk(state_->mu);
    if (state_->finished || state_->aborted) return;
    state_->aborted = true;
    state_->cv.notify_all();
  }
  {
    lockdep::ScopedLock wl(channel_->write_mu_);
    (void)write_stream_abort(channel_->fd_, state_->call_id, code);
  }
  lockdep::ScopedLock lk(channel_->mu_);
  channel_->streams_.erase(state_->call_id);
}

uint64_t ClientStream::credit_stalls() const {
  lockdep::ScopedLock lk(state_->mu);
  return state_->stalls;
}

}  // namespace dpurpc::xrpc

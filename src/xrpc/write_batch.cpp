#include "xrpc/write_batch.hpp"

#include "metrics/metrics.hpp"

namespace dpurpc::xrpc {

namespace {

thread_local WriteBatch* t_batch = nullptr;

metrics::Counter& frames_sent() {
  static metrics::Counter& c = metrics::default_counter(
      "dpurpc_xrpc_frames_sent_total",
      "Frames xRPC servers sent (responses and stream credit grants)");
  return c;
}

metrics::Counter& socket_writes() {
  static metrics::Counter& c = metrics::default_counter(
      "dpurpc_xrpc_socket_writes_total",
      "Socket writes that carried them: one per frame, or one per "
      "connection per WriteBatch flush");
  return c;
}

Status write_locked(ConnState& conn, const Bytes& bytes) {
  socket_writes().inc();
  lockdep::ScopedLock wl(conn.write_mu);
  return write_all(conn.fd, bytes.data(), bytes.size());
}

/// The one routing point for a server frame: `append` builds it into this
/// thread's batch buffer for `conn`, or into a frame written at once.
template <typename Append>
Status send_frame(const std::shared_ptr<ConnState>& conn, Bytes* batched,
                  Append&& append) {
  frames_sent().inc();
  if (batched != nullptr) {
    append(*batched);
    return Status::ok();
  }
  Bytes frame;
  append(frame);
  return write_locked(*conn, frame);
}

}  // namespace

Status send_response(const std::shared_ptr<ConnState>& conn, uint32_t call_id,
                     Code status, ByteSpan payload, const FrameTrace* trace) {
  Bytes* batched = t_batch != nullptr ? &t_batch->buffer_for(conn) : nullptr;
  return send_frame(conn, batched, [&](Bytes& out) {
    append_response(out, call_id, status, payload, trace);
  });
}

Status send_stream_credit(const std::shared_ptr<ConnState>& conn,
                          uint32_t call_id, uint32_t bytes) {
  Bytes* batched = t_batch != nullptr ? &t_batch->buffer_for(conn) : nullptr;
  return send_frame(conn, batched, [&](Bytes& out) {
    append_stream_credit(out, call_id, bytes);
  });
}

WriteBatch::WriteBatch() noexcept : owner_(t_batch != nullptr ? t_batch : this) {
  if (owner_ == this) t_batch = this;
}

WriteBatch::~WriteBatch() {
  if (owner_ != this) return;
  flush();
  t_batch = nullptr;
}

WriteBatch* WriteBatch::current() noexcept { return t_batch; }

Bytes& WriteBatch::buffer_for(const std::shared_ptr<ConnState>& conn) {
  for (size_t i = 0; i < used_; ++i) {
    if (pending_[i].conn == conn) return pending_[i].bytes;
  }
  if (used_ == pending_.size()) pending_.emplace_back();
  Pending& slot = pending_[used_++];
  slot.conn = conn;
  return slot.bytes;
}

void WriteBatch::flush() {
  WriteBatch& b = *owner_;
  for (size_t i = 0; i < b.used_; ++i) {
    Pending& slot = b.pending_[i];
    (void)write_locked(*slot.conn, slot.bytes);
    slot.bytes.clear();
    if (slot.bytes.capacity() > kRetainBytes) Bytes().swap(slot.bytes);
    slot.conn.reset();
  }
  b.used_ = 0;
}

}  // namespace dpurpc::xrpc

// Server-side frame writes: one connection's socket, and the per-thread
// cork that batches frames into one send() per connection (DESIGN.md
// §3.22). A thread that answers many calls in a burst — the DPU proxy
// lane, which completes every reply one RDMA poll brought back — opens a
// WriteBatch and flushes it at its own flush points; a thread with no
// open batch writes each frame at once.
#pragma once

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/status.hpp"
#include "xrpc/frame.hpp"

namespace dpurpc::xrpc {

/// One live TCP connection: the fd plus a write lock so concurrent
/// writers interleave whole frames (or whole batches of them).
struct ConnState {
  Fd fd;
  lockdep::Mutex write_mu{"xrpc.ConnState.write_mu"};
};

/// Send a response frame on `conn`: into this thread's open WriteBatch,
/// else at once under write_mu. Errors (a dead peer) are returned for an
/// immediate write only; a batched frame's write fails at flush, silently.
Status send_response(const std::shared_ptr<ConnState>& conn, uint32_t call_id,
                     Code status, ByteSpan payload,
                     const FrameTrace* trace = nullptr);
/// Send a stream-credit frame on `conn`, batched like send_response.
Status send_stream_credit(const std::shared_ptr<ConnState>& conn,
                          uint32_t call_id, uint32_t bytes);

/// RAII cork over this thread's server frame writes.
///
/// Contract:
/// * Frames leave in the order this thread produced them, per connection
///   (each connection has one buffer, appended in call order). Frames to
///   different connections are independent.
/// * A frame sits in the batch until the owner calls flush() or the
///   outermost batch closes. The owner must flush before anything that
///   can wait (a sleep, a blocking pop): an unflushed reply is a stalled
///   call.
/// * A batch opened while another is open on the thread joins it: its
///   frames and its flush() go to the outer batch, and closing it sends
///   nothing.
/// * flush() keeps each buffer's capacity (up to kRetainBytes), so a
///   thread that flushes in a loop stops allocating once its buffers
///   have grown to its bursts. It holds no connection past the flush.
class WriteBatch {
 public:
  /// Largest buffer a flush keeps for reuse; a larger one (a burst of
  /// large replies) is freed rather than pinned for the thread's life.
  static constexpr size_t kRetainBytes = 4 * FrameReader::kBufferBytes;

  WriteBatch() noexcept;
  ~WriteBatch();
  WriteBatch(const WriteBatch&) = delete;
  WriteBatch& operator=(const WriteBatch&) = delete;

  /// Send every connection's pending frames, one write_all each under
  /// its write_mu. A write to a dead connection fails quietly: its calls
  /// are lost with the connection, as an immediate write's would be.
  void flush();

  /// The batch open on this thread (the outermost), or nullptr.
  static WriteBatch* current() noexcept;

 private:
  struct Pending {
    std::shared_ptr<ConnState> conn;
    Bytes bytes;
  };
  friend Status send_response(const std::shared_ptr<ConnState>&, uint32_t,
                              Code, ByteSpan, const FrameTrace*);
  friend Status send_stream_credit(const std::shared_ptr<ConnState>&,
                                   uint32_t, uint32_t);
  /// `conn`'s buffer in this (outermost) batch.
  Bytes& buffer_for(const std::shared_ptr<ConnState>& conn);

  WriteBatch* owner_;  ///< this, or the outer batch this one joined
  /// Slots [0, used_) hold a connection; later slots keep spare buffers.
  std::vector<Pending> pending_;
  size_t used_ = 0;
};

}  // namespace dpurpc::xrpc

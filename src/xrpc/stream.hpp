// xRPC streaming call objects (DESIGN.md streaming section).
//
// A streaming call opens with kStreamOpen, ships its request body as
// kStreamChunk frames under a byte-credit window granted by the receiver
// (kStreamCredit), closes with kStreamEnd, and completes like a unary
// call: the server's final kResponse carries status + payload. The credit
// window is the xRPC edge of the end-to-end backpressure chain — a
// receiver that stops granting stalls the sender here, before any bytes
// enter the DPU pool or the RDMA credit system.
#pragma once

#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "trace/trace.hpp"
#include "xrpc/frame.hpp"
#include "xrpc/write_batch.hpp"

namespace dpurpc::xrpc {

class Channel;
class Server;

/// Server-side view of one inbound stream. The chunk/end/abort callbacks
/// run on the connection's reader thread; the handler must install them
/// before returning from dispatch — frames for this call cannot arrive
/// earlier (TCP ordering), so no synchronization is needed around the
/// setters. grant() is thread-safe and callable from any thread (the
/// proxy grants from its event loop as budget frees up).
class ServerStream {
 public:
  using ChunkFn = std::function<void(Bytes chunk)>;
  using EndFn = std::function<void()>;
  using AbortFn = std::function<void(Code code)>;

  ServerStream(std::shared_ptr<ConnState> conn, uint32_t call_id)
      : conn_(std::move(conn)), call_id_(call_id) {}

  void on_chunk(ChunkFn fn) { chunk_fn_ = std::move(fn); }
  void on_end(EndFn fn) { end_fn_ = std::move(fn); }
  /// Also invoked with kUnavailable if the connection dies mid-stream.
  void on_abort(AbortFn fn) { abort_fn_ = std::move(fn); }

  /// Extend the sender's credit window by `bytes`. Thread-safe; batched
  /// like a reply when the calling thread has a WriteBatch open.
  Status grant(uint32_t bytes);

  uint32_t call_id() const noexcept { return call_id_; }

 private:
  friend class Server;
  void deliver_chunk(Bytes chunk) {
    if (chunk_fn_) chunk_fn_(std::move(chunk));
  }
  void deliver_end() {
    if (end_fn_) end_fn_();
  }
  void deliver_abort(Code code) {
    if (abort_fn_) abort_fn_(code);
  }

  std::shared_ptr<ConnState> conn_;
  uint32_t call_id_;
  ChunkFn chunk_fn_;
  EndFn end_fn_;
  AbortFn abort_fn_;
};

/// State shared between a ClientStream and its channel's reader thread.
struct StreamState {
  lockdep::Mutex mu{"xrpc.ClientStream.mu"};
  lockdep::CondVar cv;
  uint64_t window DPURPC_GUARDED_BY(mu) = 0;  ///< granted minus sent bytes
  uint64_t stalls DPURPC_GUARDED_BY(mu) = 0;  ///< writes that had to wait
  bool finished DPURPC_GUARDED_BY(mu) = false;
  bool aborted DPURPC_GUARDED_BY(mu) = false;
  Code final_code DPURPC_GUARDED_BY(mu) = Code::kOk;
  Bytes final_payload DPURPC_GUARDED_BY(mu);
  uint32_t call_id = 0;
  trace::TraceContext trace;
  uint64_t start_ns = 0;
};

/// Client-side sending half of a streaming call; create with
/// Channel::open_stream(). Must not outlive its channel.
class ClientStream {
 public:
  ~ClientStream();
  ClientStream(const ClientStream&) = delete;
  ClientStream& operator=(const ClientStream&) = delete;

  /// Send one chunk, blocking while the credit window is smaller than it
  /// (backpressure — the receiver's grants pace the sender).
  Status write(ByteSpan chunk, int timeout_ms = 10000);

  /// Close the stream and wait for the server's final response.
  StatusOr<Bytes> finish(int timeout_ms = 30000);

  /// Abort mid-transfer; the server drops every trace of the stream.
  void abort(Code code = Code::kAborted);

  /// Times write() blocked waiting for credit.
  uint64_t credit_stalls() const;

 private:
  friend class Channel;
  ClientStream(std::shared_ptr<StreamState> state, Channel* channel)
      : state_(std::move(state)), channel_(channel) {}

  std::shared_ptr<StreamState> state_;
  Channel* channel_;
};

}  // namespace dpurpc::xrpc

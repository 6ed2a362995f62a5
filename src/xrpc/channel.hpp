// xRPC client channel: one TCP connection multiplexing unary calls.
//
// This is the paper's unmodified "xRPC client": when the server is
// offloaded, the only change the client sees is the address (the DPU's
// instead of the host's, §III.A).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "trace/trace.hpp"
#include "xrpc/frame.hpp"
#include "xrpc/stream.hpp"

namespace dpurpc::xrpc {

class Channel {
 public:
  using Callback = std::function<void(Code, Bytes payload)>;

  /// Connect to 127.0.0.1:port (the xRPC server — host or DPU).
  static StatusOr<std::unique_ptr<Channel>> connect(uint16_t port);

  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Fire a unary call; the callback runs on the channel's reader thread.
  /// Exactly one of two things happens: an error return, or the callback.
  /// Once the connection is gone (EOF, socket error, close()) every
  /// outstanding call and stream fails with kUnavailable and later calls
  /// return kUnavailable.
  /// The channel is the datapath's trace entry point: when tracing is on,
  /// each call asks the Tracer for a (possibly head-sampled) context,
  /// ships it in the frame header, and records the root span when the
  /// response callback returns.
  Status call_async(std::string_view method, ByteSpan payload, Callback done);

  /// Synchronous unary call (convenience for examples and tests).
  StatusOr<Bytes> call(std::string_view method, ByteSpan payload,
                       int timeout_ms = 5000);

  /// Open a streaming call (DESIGN.md streaming section): write chunks
  /// under the server-granted credit window, then finish() for the final
  /// response. The stream must not outlive the channel. Streaming calls
  /// are trace entry points exactly like call_async.
  StatusOr<std::unique_ptr<ClientStream>> open_stream(std::string_view method);

  size_t outstanding() const;
  void close();

 private:
  friend class ClientStream;
  explicit Channel(Fd fd);
  void reader_loop();
  /// Reader exit: mark the channel dead, then fail every pending call and
  /// open stream with kUnavailable.
  void fail_outstanding();
  /// Final kResponse routed to a stream (reader thread).
  void finish_stream(const std::shared_ptr<StreamState>& st,
                     ResponseFrame&& resp);

  Fd fd_;
  // Lock order: write_mu_ (frame writes) before mu_ (call bookkeeping) —
  // call_async()'s failure path unregisters the call while still holding
  // the write lock. Nothing nests them the other way.
  struct PendingCall {
    Callback cb;
    trace::TraceContext trace;
    uint64_t start_ns = 0;
  };

  lockdep::Mutex write_mu_{"xrpc.Channel.write_mu"};
  mutable lockdep::Mutex mu_{"xrpc.Channel.mu"};
  std::map<uint32_t, PendingCall> pending_ DPURPC_GUARDED_BY(mu_);
  /// Open streaming calls; entries leave on final response, abort, close.
  std::map<uint32_t, std::shared_ptr<StreamState>> streams_ DPURPC_GUARDED_BY(mu_);
  uint32_t next_call_id_ DPURPC_GUARDED_BY(mu_) = 1;
  std::thread reader_;
  bool closed_ DPURPC_GUARDED_BY(mu_) = false;  ///< close() ran
  bool dead_ DPURPC_GUARDED_BY(mu_) = false;    ///< the reader exited
};

}  // namespace dpurpc::xrpc

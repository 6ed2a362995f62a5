// RPC over RDMA server engine (the host side in the paper's deployment).
//
// Registers per-method handlers, executed either *foreground* — directly
// in the polling thread, best for lightweight low-latency procedures — or
// *background* on a thread pool for long-running RPCs (§III.D; the paper
// designs for background RPCs and leaves them future work — implemented
// here as the protocol extension it anticipates: responses already carry
// request IDs, so out-of-order completion needs only deferred block
// acknowledgment, in receive order). Mirrors the client's deterministic
// request-ID discipline (§IV.D) on block receipt: first release the IDs
// the block's piggybacked ack counter retires, then allocate IDs for its
// requests in message order.
//
// The offload payoff: a request flagged kFlagInPlaceObject carries a
// ready-built C++ object whose pointers are already valid here — the
// handler receives it with zero deserialization work.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/relaxed.hpp"
#include "metrics/metrics.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/id_pool.hpp"
#include "trace/trace.hpp"

namespace dpurpc::rdmarpc {

/// One incoming request as seen by a handler.
struct RequestView {
  uint16_t method_id = 0;
  uint16_t request_id = 0;
  /// Serialized payload (copy path) — or the raw object bytes (offload).
  ByteSpan payload;
  /// Offload path: receive-buffer address of the in-place object, valid
  /// until the response is sent; null on the copy path.
  const void* object = nullptr;
  /// Offload path: ADT class index of the object.
  uint16_t class_index = 0;
  /// Trace context carried by the request's WireTrace prefix (inactive
  /// when untraced). The response echoes it so the client can attribute
  /// the return wire span without per-ID state.
  trace::TraceContext trace;
};

class RpcServer {
 public:
  /// Produce the (serialized) response payload. Response serialization is
  /// not offloaded on this path (§III.A), matching the paper's baseline.
  using Handler = std::function<Status(const RequestView&, Bytes& response)>;

  /// Offloaded-response path (§III.A "can be implemented similarly"): the
  /// handler constructs the response *object* directly in the outgoing
  /// block arena, with pointers already in the peer's address space; the
  /// DPU serializes it for the xRPC client. On success the handler sets
  /// `*payload_size` (bytes of arena used) and `*class_index` (ADT class
  /// of the object, shipped in the header's aux field).
  using InPlaceHandler = std::function<Status(
      const RequestView&, arena::Arena& response_arena,
      const arena::AddressTranslator& xlate, uint32_t* payload_size,
      uint16_t* class_index)>;

  explicit RpcServer(Connection* conn);
  ~RpcServer();

  /// Register the callback for a method id (§III.D "register RPCs by
  /// providing a callback"). One method table serves all three kinds of
  /// handler: the last registration for an id wins, whatever its kind.
  void register_handler(uint16_t method_id, Handler handler);

  /// Register an offloaded-response callback (foreground execution).
  void register_inplace_handler(uint16_t method_id, InPlaceHandler handler);

  /// Spin up the background thread pool (call once, before serving).
  struct BackgroundOptions {
    int threads = 2;
    size_t queue_depth = 256;
  };
  Status enable_background(BackgroundOptions options);

  /// Register a handler executed on the background pool. The request's
  /// payload / in-place object stay valid for the handler's lifetime: the
  /// block is only acknowledged (and its buffer reclaimable) after every
  /// request in it has completed, in block receive order.
  Status register_background_handler(uint16_t method_id, Handler handler);

  /// One turn of the event loop: poll for request blocks, run handlers
  /// foreground, batch and flush responses. Returns requests served.
  StatusOr<uint32_t> event_loop_once();

  bool wait(int timeout_ms) { return conn_->wait(timeout_ms); }

  uint64_t requests_served() const noexcept { return requests_served_; }
  uint64_t background_served() const noexcept {
    return relaxed::load(background_served_);
  }
  Connection& connection() noexcept { return *conn_; }

  /// Times the write_response_inplace block-hint ladder re-ran the handler
  /// in a bigger block (this server's share of the process-wide
  /// dpurpc_block_hint_retries_total).
  uint64_t block_hint_retries() const noexcept { return hint_retries_count_; }

 private:
  /// Per received block: how many background requests are still running
  /// and whether the poller finished iterating its messages. The block is
  /// acknowledged only when both conditions hold, in receive order.
  struct BlockTracker {
    uint32_t outstanding = 0;
    bool iterated = false;
    bool is_pure_ack = false;
  };
  /// One entry of the method table: an in-place handler when `inplace` is
  /// set, else `handler`, run on the pool when `background`.
  struct Method {
    Handler handler;
    InPlaceHandler inplace;
    bool background = false;
  };
  struct BackgroundTask {
    const Handler* handler;
    RequestView request;
    std::shared_ptr<BlockTracker> tracker;
  };
  struct BackgroundResult {
    uint16_t request_id;
    Status status;
    Bytes payload;
    std::shared_ptr<BlockTracker> tracker;
    trace::TraceContext trace;
  };
  /// A traced response committed to the open block; its resp-flush-wait
  /// span ends at the block's flush stamp.
  struct OpenTraced {
    trace::TraceContext trace;
    uint64_t commit_ns;
  };

  Status process_request_block(const Connection::ReceivedBlock& rb);
  /// Null when no handler is registered for `method_id`.
  const Method* find_method(uint16_t method_id) const noexcept;
  /// Run `m` on the poller thread and answer the request. Serves the
  /// block path and background methods the pool cannot take. A null `m`
  /// answers kNotFound.
  Status dispatch(const RequestView& req, const Method* m, uint64_t recv_ns);
  Status write_response(uint16_t request_id, const Status& handler_status,
                        ByteSpan payload, trace::TraceContext tctx);
  Status write_response_inplace(const RequestView& req,
                                const InPlaceHandler& handler);
  /// The response writers' one way into the block: open a message with
  /// room for `hint` payload bytes, waiting out backpressure.
  StatusOr<std::byte*> open_response(uint32_t hint, trace::TraceContext& tctx);
  /// ...and their one way out: commit it and book the answered ID.
  Status commit_response(uint32_t payload_size, uint16_t request_id,
                         uint16_t flags, uint16_t aux,
                         const trace::TraceContext& tctx);
  Status pump_for_space();
  void note_hint_retry() noexcept {
    ++hint_retries_count_;
    hint_retries_.inc();
  }
  void advance_ack_order();
  Status drain_background_results();
  void background_worker();

  Connection* conn_;
  std::map<uint16_t, Method> methods_;
  RequestIdPool id_pool_;
  /// Request IDs answered in each flushed-but-unacked response block, FIFO.
  /// Retired vectors are recycled through `id_list_pool_` so the steady
  /// state allocates nothing.
  std::deque<std::vector<uint16_t>> response_block_ids_;
  std::vector<std::vector<uint16_t>> id_list_pool_;
  std::vector<uint16_t> open_block_ids_;  ///< ids answered in the open block
  std::vector<OpenTraced> open_block_traced_;  ///< traced responses awaiting flush
  std::deque<Connection::ReceivedBlock> backlog_;  ///< blocks awaiting processing
  std::vector<Connection::ReceivedBlock> poll_scratch_;
  uint64_t requests_served_ = 0;
  Bytes response_scratch_;
  metrics::Counter& hint_retries_;
  uint64_t hint_retries_count_ = 0;

  // Background execution (§III.D extension).
  std::deque<std::shared_ptr<BlockTracker>> ack_order_;  ///< receive order
  std::unique_ptr<BoundedQueue<BackgroundTask>> task_queue_;
  std::unique_ptr<BoundedQueue<BackgroundResult>> result_queue_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> background_served_{0};
};

}  // namespace dpurpc::rdmarpc

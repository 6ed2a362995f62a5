// RPC over RDMA client engine (the DPU side in the paper's deployment).
//
// Layers request/continuation semantics (§III.D) over the Connection
// transport: requests are enqueued into the open block (optionally built
// *in place*, which is how deserialization offloading works — the protobuf
// object is constructed straight into the block, in the receiver's address
// space), the event loop flushes and polls, and responses trigger
// continuations. Implements the client half of the deterministic
// request-ID discipline (§IV.D): at each flush, first release the IDs of
// responses processed since the previous flush (in processing order), then
// allocate IDs for the block's requests (in message order) — the server
// mirrors this exactly, so request IDs never travel with requests.
#pragma once

#include <functional>
#include <vector>

#include "metrics/metrics.hpp"
#include "rdmarpc/connection.hpp"
#include "rdmarpc/id_pool.hpp"
#include "trace/trace.hpp"

namespace dpurpc::rdmarpc {

class RpcClient {
 public:
  /// Called when the response arrives (foreground, inside the event loop).
  /// The payload borrows from the receive buffer: consume it here.
  using Continuation = std::function<void(const Status&, const InMessage&)>;

  /// In-place request builder: construct the payload in `arena` (pointers
  /// via the translator) and return the payload byte count.
  using InPlaceBuilder = std::function<StatusOr<uint32_t>(
      arena::Arena&, const arena::AddressTranslator&)>;

  explicit RpcClient(Connection* conn);

  /// Enqueue a copy-path request. kUnavailable = backpressure (no credit /
  /// send buffer full): run the event loop and retry. An active `tctx`
  /// makes the message traced (the block writer owns the WireTrace prefix)
  /// and records the block-build/flush-wait spans; the engine never
  /// *starts* traces — the caller owns sampling (xrpc channel or bench
  /// driver).
  Status call(uint16_t method_id, ByteSpan payload, Continuation done,
              trace::TraceContext tctx = trace::TraceContext());

  /// Enqueue an in-place request (the offload path). `payload_hint` sizes
  /// the block-space reservation; on arena exhaustion the builder is
  /// retried once in a fresh maximum-size block, and kOutOfRange means it
  /// did not fit there either (a per-call error). kUnavailable and
  /// kResourceExhausted are backpressure: drain the event loop and retry.
  Status call_inplace(uint16_t method_id, uint16_t class_index,
                      uint32_t payload_hint, const InPlaceBuilder& builder,
                      Continuation done,
                      trace::TraceContext tctx = trace::TraceContext());

  /// One turn of the event loop (§III.D: called continuously by the
  /// owner's thread): flush batched requests, poll for response blocks,
  /// run continuations, manage acks. Returns responses processed.
  StatusOr<uint32_t> event_loop_once();

  /// Block until something happens or `timeout_ms` passes.
  bool wait(int timeout_ms) { return conn_->wait(timeout_ms); }

  size_t in_flight() const noexcept { return in_flight_count_; }
  size_t enqueued_unflushed() const noexcept { return open_block_requests_.size(); }
  uint64_t responses_received() const noexcept { return responses_received_; }
  Connection& connection() noexcept { return *conn_; }

 private:
  /// The one admission check: kResourceExhausted when the ID pool cannot
  /// cover the open block's requests plus one more.
  Status admit() const;
  /// The one commit tail: record the block-build span and queue `done`
  /// for the ID assignment at flush.
  void enqueue(Continuation&& done, const trace::TraceContext& tctx,
               uint64_t t0, size_t payload_bytes);
  Status flush_open_block();
  Status process_response_block(const Connection::ReceivedBlock& rb);

  /// A request committed to the open block, awaiting flush. The trace
  /// context (inactive when untraced) times the flush wait; the response
  /// direction needs no client-side state — the server echoes the wire
  /// trace back on the response message.
  struct PendingRequest {
    Continuation done;
    trace::TraceContext trace;
    uint64_t commit_ns = 0;
  };

  Connection* conn_;
  RequestIdPool id_pool_;
  std::vector<PendingRequest> open_block_requests_;  ///< awaiting flush
  /// id -> continuation, directly indexed by the 16-bit request ID (the
  /// deterministic pool makes this a dense array — no per-request
  /// allocation in the datapath, which §VI.C.5 depends on).
  std::vector<Continuation> in_flight_;
  std::vector<bool> in_flight_valid_;
  size_t in_flight_count_ = 0;
  std::vector<uint16_t> ids_to_release_;  ///< freed at next flush
  std::vector<Connection::ReceivedBlock> poll_scratch_;
  uint64_t responses_received_ = 0;
  /// Flush-to-response latency histogram in the process registry (the
  /// paper instruments at the library level, §VI).
  metrics::Histogram& latency_hist_;
  std::vector<uint64_t> sent_at_ns_;
};

}  // namespace dpurpc::rdmarpc

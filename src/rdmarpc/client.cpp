#include "rdmarpc/client.hpp"

#include <algorithm>
#include <cassert>

#include "common/cpu_timer.hpp"

namespace dpurpc::rdmarpc {

RpcClient::RpcClient(Connection* conn)
    : conn_(conn),
      in_flight_(id_pool_.capacity()),
      in_flight_valid_(id_pool_.capacity(), false),
      latency_hist_(metrics::default_registry()
                        .histogram_family("rdmarpc_request_latency_seconds",
                                          "flush-to-response latency",
                                          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0})
                        .histogram({{"role", "client"}})),
      sent_at_ns_(id_pool_.capacity(), 0) {
  // The ID discipline (§IV.D) runs at every true block boundary —
  // including flushes the transport triggers itself when a block fills:
  // first release the IDs of responses processed since the previous flush
  // (the same IDs the peer will release when it reads this block's
  // piggybacked ack counter), then allocate IDs for this block's requests.
  conn_->set_flush_observer([this](uint64_t seq) {
    for (uint16_t id : ids_to_release_) id_pool_.release(id);
    ids_to_release_.clear();
    if (seq == UINT64_MAX) return;  // pure ack carries the counter only
    // Traced requests end their flush-wait span at the exact send_ns the
    // transport stamped into the block (contiguous with the wire span).
    uint64_t flush_ns = 0;
    if (trace::enabled()) {
      flush_ns = conn_->last_flush_ns();
      if (flush_ns == 0) flush_ns = WallTimer::now();
    }
    for (auto& pending : open_block_requests_) {
      auto id = id_pool_.allocate();
      // call()/call_inplace() reserve capacity up front, so this holds.
      assert(id.has_value() && "ID pool exhausted after capacity check");
      if (trace::enabled() && pending.trace.active()) {
        trace::Tracer::instance().record(trace::Stage::kFlushWait,
                                         pending.trace, pending.commit_ns,
                                         flush_ns);
      }
      in_flight_[*id] = std::move(pending.done);
      in_flight_valid_[*id] = true;
      ++in_flight_count_;
      sent_at_ns_[*id] = WallTimer::now();
    }
    open_block_requests_.clear();
  });
}

Status RpcClient::admit() const {
  // Every request queued in the open block takes an ID at flush time, so
  // the pool must cover them all plus this one.
  if (id_pool_.available() <= open_block_requests_.size()) {
    return Status(Code::kResourceExhausted, "request ID pool exhausted");
  }
  return Status::ok();
}

void RpcClient::enqueue(Continuation&& done, const trace::TraceContext& tctx,
                        uint64_t t0, size_t payload_bytes) {
  uint64_t commit_ns = 0;
  if (tctx.active()) {
    commit_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kBlockBuild, tctx, t0,
                                     commit_ns, payload_bytes);
  }
  open_block_requests_.push_back({std::move(done), tctx, commit_ns});
}

Status RpcClient::call(uint16_t method_id, ByteSpan payload, Continuation done,
                       trace::TraceContext tctx) {
  DPURPC_RETURN_IF_ERROR(admit());
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  const auto size = static_cast<uint32_t>(payload.size());
  auto dst = conn_->begin_message(size, tctx);
  if (!dst.is_ok()) return dst.status();
  if (size != 0) std::memcpy(*dst, payload.data(), size);
  DPURPC_RETURN_IF_ERROR(conn_->commit_message(size, method_id));
  enqueue(std::move(done), tctx, t0, size);
  return Status::ok();
}

Status RpcClient::call_inplace(uint16_t method_id, uint16_t class_index,
                               uint32_t payload_hint, const InPlaceBuilder& builder,
                               Continuation done, trace::TraceContext tctx) {
  DPURPC_RETURN_IF_ERROR(admit());
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  uint32_t hint = std::min(payload_hint, kMaxPayloadSize);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto dst = conn_->begin_message(hint, tctx);
    if (!dst.is_ok()) return dst.status();
    arena::Arena arena = conn_->payload_arena();
    auto size = builder(arena, conn_->translator());
    if (size.is_ok()) {
      Status committed =
          conn_->commit_message(*size, method_id, kFlagInPlaceObject, class_index);
      if (!committed.is_ok()) {
        // An object past the 64 KiB header limit (a maximum-size block's
        // arena can be a little larger): kOutOfRange, per call. Close the
        // message so the next call can open one.
        conn_->abort_message();
        return committed;
      }
      enqueue(std::move(done), tctx, t0, *size);
      return Status::ok();
    }
    conn_->abort_message();
    if (size.status().code() != Code::kResourceExhausted) return size.status();
    // Out of block space: retry once in a fresh, maximum-size block.
    hint = kMaxPayloadSize;
  }
  // Per-call, not backpressure: no amount of draining makes it fit.
  return Status(Code::kOutOfRange,
                "request payload does not fit in a maximum-size block");
}

Status RpcClient::flush_open_block() {
  if (open_block_requests_.empty()) {
    // Nothing outgoing: deliver accumulated acks with a resource-free
    // pure-ack immediate when the peer might be starving for reclamation —
    // once half the credit window piled up, or once we have been idle for
    // kIdleAckNs. Otherwise the counter rides the next request block, and
    // a back-to-back caller never wakes the peer for an ack alone.
    const uint32_t pending = conn_->pending_acks();
    bool force = pending > 0 &&
                 (pending >= conn_->config().credits / 2 ||
                  (in_flight_count_ == 0 &&
                   WallTimer::now() - last_response_ns_ >= kIdleAckNs));
    if (!force) return Status::ok();
    auto sent = conn_->send_pure_ack();
    return sent.is_ok() ? Status::ok() : sent.status();
  }
  auto sent = conn_->flush();
  return sent.is_ok() ? Status::ok() : sent.status();
}

Status RpcClient::process_response_block(const Connection::ReceivedBlock& rb) {
  BlockReader reader = conn_->read_block(rb);
  while (!reader.done()) {
    auto msg = reader.next();
    if (!msg.is_ok()) return msg.status();
    uint16_t id = msg->header.id_or_method;
    if (id >= in_flight_valid_.size() || !in_flight_valid_[id]) {
      return Status(Code::kDataLoss, "response for unknown request ID");
    }
    Status result = Status::ok();
    if ((msg->header.flags & kFlagErrorStatus) != 0) {
      result = Status(static_cast<Code>(msg->header.aux), "remote error");
    }
    if (trace::enabled() && msg->trace.trace_id != 0) {
      // The response wire carries the context back, so the outbound span
      // needs no per-ID client state: wire + poll wait, from the server's
      // flush stamp to this read.
      trace::TraceContext tctx{msg->trace.trace_id, msg->trace.parent_span_id};
      trace::Tracer::instance().record(trace::Stage::kRdmaOutbound, tctx,
                                       msg->trace.send_ns, WallTimer::now(),
                                       msg->payload.size());
    }
    latency_hist_.observe(static_cast<double>(WallTimer::now() - sent_at_ns_[id]) *
                          1e-9);
    Continuation done = std::move(in_flight_[id]);
    in_flight_valid_[id] = false;
    --in_flight_count_;
    ids_to_release_.push_back(id);  // released at the next flush, in order
    ++responses_received_;
    if (done) done(result, *msg);
  }
  conn_->note_peer_block_processed();
  last_response_ns_ = WallTimer::now();
  return Status::ok();
}

StatusOr<uint32_t> RpcClient::event_loop_once() {
  // Batching contract (§IV): the user queues requests, then the loop ships
  // them; partially-filled blocks are still sent to bound latency.
  Status flushed = flush_open_block();
  if (!flushed.is_ok() && flushed.code() != Code::kUnavailable) return flushed;

  poll_scratch_.clear();
  DPURPC_RETURN_IF_ERROR(conn_->poll_into(poll_scratch_));
  uint32_t before = static_cast<uint32_t>(responses_received_);
  for (const auto& rb : poll_scratch_) {
    if (rb.is_pure_ack()) continue;  // transport already retired our blocks
    DPURPC_RETURN_IF_ERROR(process_response_block(rb));
  }
  // Push out accumulated acks / retry a credit-starved flush.
  flushed = flush_open_block();
  if (!flushed.is_ok() && flushed.code() != Code::kUnavailable) return flushed;
  return static_cast<uint32_t>(responses_received_) - before;
}

}  // namespace dpurpc::rdmarpc

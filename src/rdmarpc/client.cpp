#include "rdmarpc/client.hpp"

#include <algorithm>
#include <cassert>

#include "common/cpu_timer.hpp"

namespace dpurpc::rdmarpc {

RpcClient::RpcClient(Connection* conn)
    : conn_(conn),
      in_flight_(id_pool_.capacity()),
      in_flight_valid_(id_pool_.capacity(), false) {
  if (conn_->config().registry != nullptr) {
    latency_hist_ = &conn_->config()
                         .registry
                         ->histogram_family(
                             "rdmarpc_request_latency_seconds",
                             "flush-to-response latency",
                             {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0})
                         .histogram({{"role", "client"}});
    sent_at_ns_.resize(id_pool_.capacity(), 0);
  }
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
      if (latency_hist_ != nullptr) sent_at_ns_[*id] = WallTimer::now();
    }
    open_block_requests_.clear();
  });
}

Status RpcClient::call(uint16_t method_id, ByteSpan payload, Continuation done,
                       trace::TraceContext tctx) {
  if (id_pool_.available() <= open_block_requests_.size()) {
    return Status(Code::kResourceExhausted, "request ID pool exhausted");
  }
  if (!trace::enabled() ||
      payload.size() + kWireTraceSize > kMaxPayloadSize) {
    // Near the 64 KiB header limit the prefix would push a previously
    // valid payload over it; drop the trace rather than fail the call.
    tctx = {};
  }
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  uint32_t extra = tctx.active() ? kWireTraceSize : 0;
  auto dst = conn_->begin_message(static_cast<uint32_t>(payload.size()) + extra);
  if (!dst.is_ok()) return dst.status();
  if (extra != 0) {
    WireTrace wt{tctx.trace_id, tctx.parent_span_id, 0};  // stamped at flush
    std::memcpy(*dst, &wt, sizeof(wt));
  }
  std::memcpy(*dst + extra, payload.data(), payload.size());
  DPURPC_RETURN_IF_ERROR(
      conn_->commit_message(static_cast<uint32_t>(payload.size()) + extra,
                            method_id, extra != 0 ? kFlagTraced : uint16_t{0}));
  uint64_t commit_ns = 0;
  if (tctx.active()) {
    commit_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kBlockBuild, tctx, t0,
                                     commit_ns, payload.size());
  }
  open_block_requests_.push_back({std::move(done), tctx, commit_ns});
  return Status::ok();
}

Status RpcClient::call_inplace(uint16_t method_id, uint16_t class_index,
                               uint32_t payload_hint, const InPlaceBuilder& builder,
                               Continuation done, trace::TraceContext tctx) {
  if (id_pool_.available() <= open_block_requests_.size()) {
    return Status(Code::kResourceExhausted, "request ID pool exhausted");
  }
  if (!trace::enabled()) tctx = {};
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  uint32_t extra = tctx.active() ? kWireTraceSize : 0;
  uint32_t hint = std::min(payload_hint + extra, kMaxPayloadSize);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto dst = conn_->begin_message(hint);
    if (!dst.is_ok()) return dst.status();
    arena::Arena arena = conn_->payload_arena();
    if (extra != 0) {
      // The prefix is the first allocation from the payload arena, so the
      // builder's arena.used() return covers it and the object root lands
      // right after it — exactly where the receiver's stripped
      // payload_addr points. kWireTraceSize keeps kPayloadAlign.
      void* prefix = arena.allocate(kWireTraceSize, kPayloadAlign);
      if (prefix == nullptr) {
        conn_->abort_message();
        hint = kMaxPayloadSize;
        continue;
      }
      WireTrace wt{tctx.trace_id, tctx.parent_span_id, 0};
      std::memcpy(prefix, &wt, sizeof(wt));
    }
    auto size = builder(arena, conn_->translator());
    if (size.is_ok()) {
      uint16_t flags = kFlagInPlaceObject;
      if (extra != 0) flags |= kFlagTraced;
      Status committed = conn_->commit_message(*size, method_id, flags, class_index);
      if (!committed.is_ok()) {
        // An object past the 64 KiB header limit (a maximum-size block's
        // arena can be a little larger): kOutOfRange, per call. Close the
        // message so the next call can open one.
        conn_->abort_message();
        return committed;
      }
      uint64_t commit_ns = 0;
      if (tctx.active()) {
        commit_ns = WallTimer::now();
        trace::Tracer::instance().record(trace::Stage::kBlockBuild, tctx, t0,
                                         commit_ns, *size);
      }
      open_block_requests_.push_back({std::move(done), tctx, commit_ns});
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

Status RpcClient::call_fragmented(uint16_t method_id, ByteSpan payload,
                                  Continuation done, trace::TraceContext tctx) {
  if (payload.size() + kWireTraceSize <= kMaxPayloadSize) {
    return call(method_id, payload, std::move(done), tctx);
  }
  if (payload.size() > UINT32_MAX) {
    return Status(Code::kOutOfRange, "fragmented payload exceeds 4 GiB");
  }
  if (id_pool_.available() <= open_block_requests_.size()) {
    return Status(Code::kResourceExhausted, "request ID pool exhausted");
  }
  if (!trace::enabled()) tctx = {};
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  const uint32_t stream_id = next_frag_stream_++;
  const uint32_t total = static_cast<uint32_t>(payload.size());
  // One chunk size for every fragment, conservatively leaving room for the
  // WireTrace prefix even though only the final fragment carries it.
  constexpr uint32_t kFragBytes =
      kMaxPayloadSize - kFragHeaderSize - kWireTraceSize;
  uint32_t off = 0;
  while (off < total) {
    const uint32_t frag_bytes = std::min(kFragBytes, total - off);
    const bool last = off + frag_bytes == total;
    const uint32_t extra = (last && tctx.active()) ? kWireTraceSize : 0;
    const uint32_t msg_bytes = extra + kFragHeaderSize + frag_bytes;
    std::byte* dst = nullptr;
    for (int attempt = 0;; ++attempt) {
      auto d = conn_->begin_message(msg_bytes);
      if (d.is_ok()) {
        dst = *d;
        break;
      }
      if (d.status().code() != Code::kUnavailable) return d.status();
      if (off == 0) return d.status();  // nothing committed: caller retries
      // Fragments are already on the wire, so backpressure cannot surface
      // to the caller — pump the event loop until the peer frees credit.
      // Continuations of earlier requests may run here (documented).
      if (attempt > 100000) {
        return Status(Code::kUnavailable,
                      "peer never freed space for remaining fragments");
      }
      auto pumped = event_loop_once();
      if (!pumped.is_ok()) return pumped.status();
      if (*pumped == 0) conn_->wait(1);
    }
    uint32_t woff = 0;
    if (extra != 0) {
      WireTrace wt{tctx.trace_id, tctx.parent_span_id, 0};  // stamped at flush
      std::memcpy(dst, &wt, sizeof(wt));
      woff += kWireTraceSize;
    }
    FragHeader fh;
    fh.stream_id = stream_id;
    fh.frag_offset = off;
    fh.total_bytes = total;
    fh.frag_flags = last ? kFragLast : uint16_t{0};
    fh.reserved = 0;
    std::memcpy(dst + woff, &fh, sizeof(fh));
    woff += kFragHeaderSize;
    std::memcpy(dst + woff, payload.data() + off, frag_bytes);
    uint16_t flags = kFlagFragment;
    if (extra != 0) flags |= kFlagTraced;
    DPURPC_RETURN_IF_ERROR(conn_->commit_message(msg_bytes, method_id, flags));
    off += frag_bytes;
    if (last) {
      uint64_t commit_ns = 0;
      if (tctx.active()) {
        commit_ns = WallTimer::now();
        trace::Tracer::instance().record(trace::Stage::kBlockBuild, tctx, t0,
                                         commit_ns, total);
      }
      open_block_requests_.push_back({std::move(done), tctx, commit_ns});
    }
  }
  return Status::ok();
}

Status RpcClient::flush_open_block() {
  if (open_block_requests_.empty()) {
    // Nothing outgoing: deliver accumulated acks with a resource-free
    // pure-ack immediate when the peer might be starving for reclamation —
    // immediately if we are idle, or once half the credit window piled up.
    bool force = conn_->pending_acks() > 0 &&
                 (in_flight_count_ == 0 ||
                  conn_->pending_acks() >= conn_->config().credits / 2);
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
    if (latency_hist_ != nullptr) {
      latency_hist_->observe(static_cast<double>(WallTimer::now() - sent_at_ns_[id]) *
                             1e-9);
    }
    Continuation done = std::move(in_flight_[id]);
    in_flight_valid_[id] = false;
    --in_flight_count_;
    ids_to_release_.push_back(id);  // released at the next flush, in order
    ++responses_received_;
    if (done) done(result, *msg);
  }
  conn_->note_peer_block_processed();
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

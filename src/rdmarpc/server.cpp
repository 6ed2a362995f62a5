#include "rdmarpc/server.hpp"

#include "common/cpu_timer.hpp"

namespace dpurpc::rdmarpc {

RpcServer::~RpcServer() {
  if (task_queue_) task_queue_->close();
  if (result_queue_) result_queue_->close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

Status RpcServer::enable_background(BackgroundOptions options) {
  if (task_queue_) return Status(Code::kFailedPrecondition, "background already enabled");
  if (options.threads < 1) return Status(Code::kInvalidArgument, "need >= 1 thread");
  task_queue_ = std::make_unique<BoundedQueue<BackgroundTask>>(options.queue_depth);
  result_queue_ = std::make_unique<BoundedQueue<BackgroundResult>>(options.queue_depth);
  for (int i = 0; i < options.threads; ++i) {
    workers_.emplace_back([this] { background_worker(); });
  }
  return Status::ok();
}

Status RpcServer::register_background_handler(uint16_t method_id, Handler handler) {
  if (!task_queue_) {
    return Status(Code::kFailedPrecondition, "call enable_background() first");
  }
  methods_[method_id] = Method{std::move(handler), {}, true};
  return Status::ok();
}

void RpcServer::background_worker() {
  while (auto task = task_queue_->pop()) {
    BackgroundResult result;
    result.request_id = task->request.request_id;
    result.tracker = std::move(task->tracker);
    result.trace = task->request.trace;
    uint64_t t0 = result.trace.active() ? WallTimer::now() : 0;
    result.status = (*task->handler)(task->request, result.payload);
    if (result.trace.active()) {
      // Recorded on the worker thread: the span lands in this thread's
      // ring and reassembles into the same tree by trace id.
      trace::Tracer::instance().record(trace::Stage::kHostDispatch,
                                       result.trace, t0, WallTimer::now());
    }
    relaxed::add(background_served_, 1);
    if (!result_queue_->push(std::move(result))) return;  // shutting down
    // Wake the poller if it is blocked on the completion channel.
    conn_->interrupt();
  }
}

RpcServer::RpcServer(Connection* conn)
    : conn_(conn),
      hint_retries_(metrics::default_registry()
                        .counter_family("dpurpc_block_hint_retries_total",
                                        "write_response_inplace block-hint ladder retries")
                        .counter({{"role", "server"}})) {
  // Every flushed response block contributes one FIFO entry of answered
  // request IDs; the entry is retired — and its IDs released — when the
  // client's piggybacked ack counter covers it. This mirrors the client's
  // release order exactly (§IV.D).
  conn_->set_flush_observer([this](uint64_t seq) {
    if (seq == UINT64_MAX) return;  // pure ack: no block, no ID-list entry
    if (trace::enabled() && !open_block_traced_.empty()) {
      uint64_t flush_ns = conn_->last_flush_ns();
      if (flush_ns == 0) flush_ns = WallTimer::now();
      for (const OpenTraced& ot : open_block_traced_) {
        trace::Tracer::instance().record(trace::Stage::kRespFlushWait,
                                         ot.trace, ot.commit_ns, flush_ns);
      }
      open_block_traced_.clear();
    }
    response_block_ids_.push_back(std::move(open_block_ids_));
    if (!id_list_pool_.empty()) {
      open_block_ids_ = std::move(id_list_pool_.back());
      id_list_pool_.pop_back();
    } else {
      open_block_ids_ = {};
    }
    open_block_ids_.clear();
  });
}

void RpcServer::register_handler(uint16_t method_id, Handler handler) {
  methods_[method_id] = Method{std::move(handler), {}, false};
}

void RpcServer::register_inplace_handler(uint16_t method_id, InPlaceHandler handler) {
  methods_[method_id] = Method{{}, std::move(handler), false};
}

const RpcServer::Method* RpcServer::find_method(uint16_t method_id) const noexcept {
  auto it = methods_.find(method_id);
  return it == methods_.end() ? nullptr : &it->second;
}

// Credit/buffer backpressure relief: wait for the client's next counter
// and queue any new request blocks.
Status RpcServer::pump_for_space() {
  conn_->wait(10);
  poll_scratch_.clear();
  DPURPC_RETURN_IF_ERROR(conn_->poll_into(poll_scratch_));
  for (const auto& rb : poll_scratch_) backlog_.push_back(rb);
  return Status::ok();
}

StatusOr<std::byte*> RpcServer::open_response(uint32_t hint,
                                              trace::TraceContext& tctx) {
  // Backpressure: out of credits means the client has not acknowledged
  // earlier response blocks yet; wait for its next block (which carries
  // the counter) and queue any new request blocks for later processing.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto dst = conn_->begin_message(hint, tctx);
    if (dst.is_ok() || (dst.status().code() != Code::kUnavailable &&
                        dst.status().code() != Code::kResourceExhausted)) {
      return dst;
    }
    DPURPC_RETURN_IF_ERROR(pump_for_space());
  }
  return Status(Code::kUnavailable, "client never acknowledged response blocks");
}

Status RpcServer::commit_response(uint32_t payload_size, uint16_t request_id,
                                  uint16_t flags, uint16_t aux,
                                  const trace::TraceContext& tctx) {
  DPURPC_RETURN_IF_ERROR(
      conn_->commit_message(payload_size, request_id, flags, aux));
  open_block_ids_.push_back(request_id);
  if (tctx.active()) open_block_traced_.push_back({tctx, WallTimer::now()});
  return Status::ok();
}

Status RpcServer::write_response_inplace(const RequestView& req,
                                         const InPlaceHandler& handler) {
  trace::TraceContext tctx = req.trace;
  uint32_t hint = 512;
  while (true) {
    auto dst = open_response(hint, tctx);
    if (!dst.is_ok()) return dst.status();
    arena::Arena arena = conn_->payload_arena();
    uint32_t payload_size = 0;
    uint16_t class_index = 0;
    Status result = handler(req, arena, conn_->translator(), &payload_size, &class_index);
    if (result.is_ok()) {
      result = commit_response(payload_size, req.request_id, kFlagInPlaceObject,
                               class_index, tctx);
      if (result.is_ok()) return result;
      // An object past the 64 KiB header limit (a maximum-size block's
      // arena can be a little larger): kOutOfRange for this request
      // only. Close the message and answer with the status.
      conn_->abort_message();
      return write_response(req.request_id, result, {}, tctx);
    }
    conn_->abort_message();
    if (result.code() != Code::kResourceExhausted || hint >= kMaxPayloadSize) {
      // Handler error: fall back to an error response.
      return write_response(req.request_id, result, {}, tctx);
    }
    // The handler's arena ran dry: retry in a bigger block. Doubling
    // (instead of jumping straight to kMaxPayloadSize) keeps oversize
    // single-message blocks right-sized — a 64 KiB block per response
    // would exhaust the send buffer under a burst of large replies.
    hint = std::min(std::max(hint * 2, 4096u), kMaxPayloadSize);
    note_hint_retry();
  }
}

Status RpcServer::write_response(uint16_t request_id, const Status& handler_status,
                                 ByteSpan payload, trace::TraceContext tctx) {
  uint16_t flags = 0;
  uint16_t aux = 0;
  if (!handler_status.is_ok()) {
    // Error responses keep the trace prefix: the trace must see failures.
    flags = kFlagErrorStatus;
    aux = static_cast<uint16_t>(handler_status.code());
    payload = {};
  }
  const auto size = static_cast<uint32_t>(payload.size());
  auto dst = open_response(size, tctx);
  if (!dst.is_ok()) return dst.status();
  if (size != 0) std::memcpy(*dst, payload.data(), size);
  return commit_response(size, request_id, flags, aux, tctx);
}

Status RpcServer::process_request_block(const Connection::ReceivedBlock& rb) {
  // Step 1 of the mirrored ID discipline: the piggybacked counter retires
  // that many response blocks' worth of IDs, in FIFO order. (Pure-ack
  // immediates carry the same counter without a block.)
  for (uint16_t i = 0; i < rb.preamble.ack_blocks; ++i) {
    if (response_block_ids_.empty()) {
      return Status(Code::kDataLoss, "ack counter exceeds outstanding blocks");
    }
    for (uint16_t id : response_block_ids_.front()) id_pool_.release(id);
    id_list_pool_.push_back(std::move(response_block_ids_.front()));
    response_block_ids_.pop_front();
  }
  if (rb.is_pure_ack()) return Status::ok();

  // Deferred acknowledgment bookkeeping: the block becomes acknowledgeable
  // once iterated AND all its background requests completed — and acks are
  // delivered strictly in receive order (the counter is a FIFO cursor).
  auto tracker = std::make_shared<BlockTracker>();
  ack_order_.push_back(tracker);

  // Step 2: allocate IDs for this block's requests, in message order —
  // the same IDs the client assigned at flush time, with zero wire bytes.
  BlockReader reader = conn_->read_block(rb);
  while (!reader.done()) {
    auto msg = reader.next();
    if (!msg.is_ok()) return msg.status();
    auto id = id_pool_.allocate();
    if (!id.has_value()) {
      return Status(Code::kDataLoss, "request ID pool desynchronized");
    }

    RequestView req;
    req.method_id = msg->header.id_or_method;
    req.request_id = *id;
    req.payload = msg->payload;
    if ((msg->header.flags & kFlagInPlaceObject) != 0) {
      req.object = msg->payload_addr;
      req.class_index = msg->header.aux;
    }
    uint64_t recv_ns = 0;
    if (trace::enabled() && msg->trace.trace_id != 0) {
      req.trace = {msg->trace.trace_id, msg->trace.parent_span_id};
      recv_ns = WallTimer::now();
      // Wire + host poll/backlog wait, from the client's flush stamp.
      trace::Tracer::instance().record(trace::Stage::kRdmaInbound, req.trace,
                                       msg->trace.send_ns, recv_ns,
                                       msg->payload.size());
    }

    const Method* m = find_method(req.method_id);
    if (m != nullptr && m->background) {
      // Background execution (§III.D): hand off to the pool; the request's
      // buffer stays valid because this block's ack is deferred.
      ++tracker->outstanding;
      if (task_queue_->try_push(BackgroundTask{&m->handler, req, tracker})) {
        continue;
      }
      // Pool saturated: degrade to foreground rather than deadlock.
      --tracker->outstanding;
    }
    DPURPC_RETURN_IF_ERROR(dispatch(req, m, recv_ns));
  }
  tracker->iterated = true;
  advance_ack_order();
  return Status::ok();
}

Status RpcServer::dispatch(const RequestView& req, const Method* m,
                           uint64_t recv_ns) {
  if (m != nullptr && m->inplace) {
    // Offloaded-response path: the handler builds the object in place.
    // Dispatch and serialize are one fused act here (the handler *is*
    // the serializer), recorded as host dispatch.
    DPURPC_RETURN_IF_ERROR(write_response_inplace(req, m->inplace));
    if (req.trace.active()) {
      trace::Tracer::instance().record(trace::Stage::kHostDispatch,
                                       req.trace, recv_ns, WallTimer::now());
    }
    ++requests_served_;
    return Status::ok();
  }
  response_scratch_.clear();
  Status result = m != nullptr ? m->handler(req, response_scratch_)  // §III.D
                               : Status(Code::kNotFound, "no handler for method");
  uint64_t handled_ns = 0;
  if (req.trace.active()) {
    handled_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kHostDispatch, req.trace,
                                     recv_ns, handled_ns);
  }
  DPURPC_RETURN_IF_ERROR(write_response(req.request_id, result,
                                        ByteSpan(response_scratch_), req.trace));
  if (req.trace.active()) {
    trace::Tracer::instance().record(trace::Stage::kHostSerialize, req.trace,
                                     handled_ns, WallTimer::now());
  }
  ++requests_served_;
  return Status::ok();
}

void RpcServer::advance_ack_order() {
  // Acknowledge completed blocks strictly in receive order; the ack rides
  // in the next flushed response block's preamble (the paper's implicit
  // server-side ack) or a pure-ack immediate.
  while (!ack_order_.empty() && ack_order_.front()->iterated &&
         ack_order_.front()->outstanding == 0) {
    conn_->note_peer_block_processed();
    ack_order_.pop_front();
  }
}

Status RpcServer::drain_background_results() {
  if (!result_queue_) return Status::ok();
  while (auto result = result_queue_->try_pop()) {
    DPURPC_RETURN_IF_ERROR(
        write_response(result->request_id, result->status,
                       ByteSpan(result->payload), result->trace));
    ++requests_served_;
    --result->tracker->outstanding;
  }
  advance_ack_order();
  return Status::ok();
}

StatusOr<uint32_t> RpcServer::event_loop_once() {
  poll_scratch_.clear();
  DPURPC_RETURN_IF_ERROR(conn_->poll_into(poll_scratch_));
  for (const auto& rb : poll_scratch_) backlog_.push_back(rb);

  uint64_t before = requests_served_;
  DPURPC_RETURN_IF_ERROR(drain_background_results());
  while (!backlog_.empty()) {
    Connection::ReceivedBlock rb = backlog_.front();
    backlog_.pop_front();
    DPURPC_RETURN_IF_ERROR(process_request_block(rb));
    // Respond per processed block: the response block's preamble carries
    // the ack that lets the client reclaim the request block (§IV.B), so
    // flushing here bounds the client's reclamation latency.
    auto sent = conn_->flush();
    if (!sent.is_ok() && sent.status().code() != Code::kUnavailable) {
      return sent.status();
    }
  }
  DPURPC_RETURN_IF_ERROR(drain_background_results());
  {
    auto sent = conn_->flush();
    if (!sent.is_ok() && sent.status().code() != Code::kUnavailable) {
      return sent.status();
    }
  }
  // No response block flowed (pure-ack-only turn, or credit starvation):
  // still deliver the counter so the client can reclaim.
  if (conn_->pending_acks() > 0) {
    auto sent = conn_->send_pure_ack();
    if (!sent.is_ok()) return sent.status();
  }
  return static_cast<uint32_t>(requests_served_ - before);
}

}  // namespace dpurpc::rdmarpc

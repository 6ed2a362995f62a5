#include "simverbs/simverbs.hpp"

#include <chrono>
#include <cstring>

#include "common/cpu_timer.hpp"
#include "trace/trace.hpp"

namespace dpurpc::simverbs {

// ------------------------------------------------------------- channel

bool CompletionChannel::wait(int timeout_ms) {
  lockdep::UniqueLock lk(mu_);
  bool ok = cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                         [&] { return events_ > consumed_; });
  if (ok) consumed_ = events_;
  return ok;
}

void CompletionChannel::interrupt() {
  lockdep::ScopedLock lk(mu_);
  ++events_;
  cv_.notify_all();
}

void CompletionChannel::notify() {
  lockdep::ScopedLock lk(mu_);
  ++events_;
  cv_.notify_all();
}

// ------------------------------------------------------------------ cq

std::vector<Completion> CompletionQueue::poll(size_t max) {
  std::vector<Completion> out;
  poll_into(out, max);
  return out;
}

void CompletionQueue::poll_into(std::vector<Completion>& out, size_t max) {
  lockdep::ScopedLock lk(mu_);
  size_t taken = 0;
  while (!items_.empty() && taken < max) {
    out.push_back(items_.front());
    items_.pop_front();
    ++taken;
  }
}

size_t CompletionQueue::depth() const {
  lockdep::ScopedLock lk(mu_);
  return items_.size();
}

void CompletionQueue::push(Completion c) {
  {
    lockdep::ScopedLock lk(mu_);
    if (items_.size() >= capacity_) {
      // Hardware would raise an async error and the connection would
      // collapse into retransmission; we record and drop.
      relaxed::add(overflows_, 1);
      return;
    }
    items_.push_back(c);
  }
  if (channel_ != nullptr) channel_->notify();
}

// ----------------------------------------------------------------- srq

void SharedReceiveQueue::post(RecvWr wr) {
  lockdep::ScopedLock lk(mu_);
  items_.push_back(wr);
}

size_t SharedReceiveQueue::depth() const {
  lockdep::ScopedLock lk(mu_);
  return items_.size();
}

bool SharedReceiveQueue::take(RecvWr* out) {
  lockdep::ScopedLock lk(mu_);
  if (items_.empty()) return false;
  *out = items_.front();
  items_.pop_front();
  return true;
}

// ------------------------------------------------------------------ pd

const MemoryRegion* ProtectionDomain::register_memory(void* addr, size_t length) {
  lockdep::ScopedLock lk(mu_);
  regions_.push_back(std::unique_ptr<MemoryRegion>(
      new MemoryRegion(static_cast<std::byte*>(addr), length, next_key_++)));
  return regions_.back().get();
}

const MemoryRegion* ProtectionDomain::find_by_rkey(uint32_t rkey) const {
  lockdep::ScopedLock lk(mu_);
  for (const auto& r : regions_) {
    if (r->rkey() == rkey) return r.get();
  }
  return nullptr;
}

// ------------------------------------------------------------------ qp

QueuePair::QueuePair(ProtectionDomain* pd, CompletionQueue* send_cq,
                     CompletionQueue* recv_cq, SharedReceiveQueue* srq)
    : pd_(pd), send_cq_(send_cq), recv_cq_(recv_cq), srq_(srq) {}

QueuePair::~QueuePair() {
  // Flush outstanding receives so pollers learn the QP died. Holding
  // mu_ across recv_cq_->push establishes QueuePair.mu ->
  // CompletionQueue.mu; lockdep holds this as the canonical order.
  lockdep::ScopedLock lk(mu_);
  for (const auto& wr : recv_queue_) {
    Completion c;
    c.wr_id = wr.wr_id;
    c.opcode = Opcode::kRecv;
    c.status = WcStatus::kFlushed;
    c.qp = this;
    recv_cq_->push(c);
  }
  recv_queue_.clear();
  if (peer_ != nullptr) peer_->peer_ = nullptr;
}

Status QueuePair::connect(QueuePair& a, QueuePair& b) {
  if (a.peer_ != nullptr || b.peer_ != nullptr) {
    return Status(Code::kFailedPrecondition, "queue pair already connected");
  }
  if (&a == &b) return Status(Code::kInvalidArgument, "cannot self-connect");
  a.peer_ = &b;
  b.peer_ = &a;
  return Status::ok();
}

void QueuePair::post_recv(RecvWr wr) {
  if (srq_ != nullptr) {
    srq_->post(wr);
    return;
  }
  lockdep::ScopedLock lk(mu_);
  recv_queue_.push_back(wr);
}

bool QueuePair::take_recv(RecvWr* out) {
  if (srq_ != nullptr) return srq_->take(out);
  lockdep::ScopedLock lk(mu_);
  if (recv_queue_.empty()) return false;
  *out = recv_queue_.front();
  recv_queue_.pop_front();
  return true;
}

size_t QueuePair::recv_queue_depth() const {
  if (srq_ != nullptr) return srq_->depth();
  lockdep::ScopedLock lk(mu_);
  return recv_queue_.size();
}

void QueuePair::deliver_completion(Completion c, bool to_recv_cq) {
  (to_recv_cq ? recv_cq_ : send_cq_)->push(c);
}

Status QueuePair::post_write_with_imm(const SendWr& wr) {
  // Block transfers are per-block, not per-request, so they trace as
  // global events on a side track rather than joining any span tree.
  uint64_t trace_t0 = trace::enabled() ? WallTimer::now() : 0;
  if (peer_ == nullptr) {
    return Status(Code::kFailedPrecondition, "queue pair not connected");
  }
  if (relaxed::load(faults_.drop_next_sends) > 0) {
    relaxed::sub(faults_.drop_next_sends, 1);
    return Status::ok();  // silently lost; tests use this to kill liveness
  }

  // Resolve the destination region in the *peer's* protection domain.
  const MemoryRegion* dst = peer_->pd_->find_by_rkey(wr.rkey);
  if (dst == nullptr) {
    return Status(Code::kInvalidArgument, "unknown rkey on remote side");
  }
  if (wr.remote_offset + wr.length > dst->length()) {
    Completion c;
    c.wr_id = wr.wr_id;
    c.opcode = Opcode::kWriteWithImm;
    c.status = WcStatus::kRemoteAccess;
    c.qp = this;
    deliver_completion(c, /*to_recv_cq=*/false);
    return Status(Code::kOutOfRange, "write beyond remote memory region");
  }

  // Two-sided: the immediate consumes a receive WR on the peer. Without
  // one, hardware enters receiver-not-ready retry; we surface it.
  RecvWr consumed;
  if (!peer_->take_recv(&consumed)) {
    relaxed::add(tx_.rnr_events, 1);
    return Status(Code::kUnavailable,
                  "receiver not ready: no receive work request posted");
  }

  // The DMA: bytes land in the peer's registered region, in order.
  std::memcpy(dst->addr() + wr.remote_offset, wr.local_addr, wr.length);
  relaxed::add(tx_.bytes, wr.length);
  relaxed::add(tx_.ops, 1);

  Completion rc;
  rc.wr_id = consumed.wr_id;
  rc.opcode = Opcode::kRecv;
  rc.byte_len = wr.length;
  rc.imm_data = wr.imm_data;
  rc.has_imm = true;
  rc.qp = peer_;
  peer_->deliver_completion(rc, /*to_recv_cq=*/true);

  Completion sc;
  sc.wr_id = wr.wr_id;
  sc.opcode = Opcode::kWriteWithImm;
  sc.byte_len = wr.length;
  sc.qp = this;
  deliver_completion(sc, /*to_recv_cq=*/false);
  if (trace_t0 != 0) {
    trace::Tracer::instance().record_global(trace::Stage::kSimverbsWrite,
                                            trace_t0, WallTimer::now(),
                                            wr.length);
  }
  return Status::ok();
}

Status QueuePair::post_send_imm(uint64_t wr_id, uint32_t imm_data) {
  if (peer_ == nullptr) {
    return Status(Code::kFailedPrecondition, "queue pair not connected");
  }
  RecvWr consumed;
  if (!peer_->take_recv(&consumed)) {
    relaxed::add(tx_.rnr_events, 1);
    return Status(Code::kUnavailable,
                  "receiver not ready: no receive work request posted");
  }
  relaxed::add(tx_.ops, 1);

  Completion rc;
  rc.wr_id = consumed.wr_id;
  rc.opcode = Opcode::kRecv;
  rc.imm_data = imm_data;
  rc.has_imm = true;
  rc.qp = peer_;
  peer_->deliver_completion(rc, /*to_recv_cq=*/true);

  Completion sc;
  sc.wr_id = wr_id;
  sc.opcode = Opcode::kSend;
  sc.qp = this;
  deliver_completion(sc, /*to_recv_cq=*/false);
  return Status::ok();
}

}  // namespace dpurpc::simverbs

#include "rdmarpc/connection.hpp"

#include <algorithm>
#include <cassert>

namespace dpurpc::rdmarpc {

namespace {
// Receive WRs posted beyond the credit count: completions for in-flight
// blocks can race with credit replenishment, so keep slack.
constexpr uint32_t kRecvSlack = 16;

metrics::Labels role_labels(Role role) {
  return {{"role", role == Role::kClient ? "client" : "server"}};
}

metrics::Counter& role_counter(const char* name, const char* help, Role role) {
  return metrics::default_registry().counter_family(name, help).counter(
      role_labels(role));
}
}  // namespace

Connection::Connection(Role role, simverbs::ProtectionDomain* pd, ConnectionConfig cfg)
    : role_(role),
      cfg_(cfg),
      pd_(pd),
      sbuf_(cfg.sbuf_size),
      rbuf_(cfg.rbuf_size),
      send_cq_(cfg.credits * 2 + kRecvSlack),
      recv_cq_(cfg.credits * 2 + kRecvSlack,
               cfg.shared_channel != nullptr ? cfg.shared_channel : &own_channel_),
      sbuf_alloc_(cfg.sbuf_size),
      credits_(cfg.credits),
      blocks_sent_(role_counter("rdmarpc_blocks_sent_total", "blocks transmitted", role)),
      messages_sent_(role_counter("rdmarpc_messages_sent_total",
                                  "messages transmitted", role)),
      blocks_received_(
          role_counter("rdmarpc_blocks_received_total", "blocks received", role)),
      messages_received_(role_counter("rdmarpc_messages_received_total",
                                      "messages received", role)),
      credits_gauge_(metrics::default_registry()
                         .gauge_family("rdmarpc_credits_available",
                                       "send credits available, summed over "
                                       "the role's live connections")
                         .gauge(role_labels(role))) {
  credits_gauge_.add(cfg.credits);
  sbuf_mr_ = pd_->register_memory(sbuf_.data(), sbuf_.size());
  rbuf_mr_ = pd_->register_memory(rbuf_.data(), rbuf_.size());
  qp_ = std::make_unique<simverbs::QueuePair>(pd_, &send_cq_, &recv_cq_);
}

Connection::~Connection() {
  credits_gauge_.sub(relaxed::load(credits_));
  channel().interrupt();
}

Status Connection::connect(Connection& a, Connection& b) {
  if (a.cfg_.sbuf_size > b.cfg_.rbuf_size || b.cfg_.sbuf_size > a.cfg_.rbuf_size) {
    return Status(Code::kInvalidArgument,
                  "send buffer larger than the peer's receive buffer");
  }
  DPURPC_RETURN_IF_ERROR(simverbs::QueuePair::connect(*a.qp_, *b.qp_));
  // Out-of-band setup: exchange rkeys and mirror bases.
  a.remote_rkey_ = b.rbuf_mr_->rkey();
  b.remote_rkey_ = a.rbuf_mr_->rkey();
  a.xlate_.delta = reinterpret_cast<intptr_t>(b.rbuf_.data()) -
                   reinterpret_cast<intptr_t>(a.sbuf_.data());
  b.xlate_.delta = reinterpret_cast<intptr_t>(a.rbuf_.data()) -
                   reinterpret_cast<intptr_t>(b.sbuf_.data());
  // Post enough receives for everything the peer's credits allow in
  // flight, plus slack — the credit system then makes RNR unreachable.
  for (uint32_t i = 0; i < b.cfg_.credits + kRecvSlack; ++i) a.qp_->post_recv({});
  for (uint32_t i = 0; i < a.cfg_.credits + kRecvSlack; ++i) b.qp_->post_recv({});
  return Status::ok();
}

StatusOr<std::byte*> Connection::begin_message(uint32_t payload_hint,
                                               trace::TraceContext& tctx) {
  if (payload_hint > kMaxPayloadSize) {
    return Status(Code::kOutOfRange, "payload exceeds protocol limit");
  }
  if (!trace::enabled() || payload_hint + kWireTraceSize > kMaxPayloadSize) {
    // Near the 64 KiB header limit the prefix would push a valid payload
    // over it: drop the trace rather than fail the message.
    tctx = {};
  }
  const uint32_t wire_hint = payload_hint + (tctx.active() ? kWireTraceSize : 0);
  if (writer_.has_value() && !writer_->can_fit(wire_hint)) {
    if (writer_->empty()) {
      // flush() has nothing to send for an empty writer, so it would leave
      // the undersized block in place and the hint would be ignored —
      // a message larger than the open block could then never be started
      // (the in-place response path retries with a bigger hint after the
      // handler's arena runs dry). Replace the block instead.
      sbuf_alloc_.free(open_block_offset_);
      writer_.reset();
    } else {
      auto flushed = flush();
      if (!flushed.is_ok()) return flushed.status();
    }
  }
  if (!writer_.has_value()) {
    // A message larger than the configured block size gets a block of its
    // own (§IV: "the block is composed of a single message").
    uint64_t need = kPreambleSize + message_slot_size(wire_hint);
    uint64_t block_bytes = std::max<uint64_t>(cfg_.block_size, need);
    auto offset = sbuf_alloc_.allocate(block_bytes);
    if (!offset.has_value()) {
      return Status(Code::kResourceExhausted,
                    "send buffer exhausted: peer is not acknowledging blocks");
    }
    open_block_offset_ = *offset;
    writer_.emplace(sbuf_.data() + *offset, align_up(block_bytes, kBlockAlign));
  }
  return writer_->begin_message(tctx);
}

Status Connection::commit_message(uint32_t payload_size, uint16_t id_or_method,
                                  uint16_t flags, uint16_t aux) {
  if (!writer_.has_value()) return Status(Code::kFailedPrecondition, "no open block");
  return writer_->commit_message(payload_size, id_or_method, flags, aux);
}

StatusOr<bool> Connection::flush() {
  if (!writer_.has_value() || writer_->empty()) return false;
  if (relaxed::load(credits_) == 0) {
    return Status(Code::kUnavailable, "no send credits: poll for acknowledgments");
  }
  uint64_t offset = open_block_offset_;
  uint16_t msg_count = writer_->message_count();
  uint64_t length =
      writer_->finalize(relaxed::load(pending_acks_));
  // Flush observers end wait-stage spans exactly at the instant stamped
  // into the block's WireTrace prefixes (zero when nothing was traced).
  last_flush_ns_ = writer_->trace_stamp_ns();
  const uint64_t seq = next_block_seq_;
  // The observer runs before the post: once the block is on the wire the
  // peer can answer it, and a traced reply can complete its trace at the
  // far end, so every span of the block must already be recorded.
  if (flush_observer_) flush_observer_(seq);

  // A send failure here is fatal by design: the credit system makes RNR
  // unreachable, so any error is an invariant violation engines abort on.
  // The observer's bookkeeping is therefore never rolled back.
  DPURPC_RETURN_IF_ERROR(send_block(offset, length));
  writer_.reset();
  relaxed::store(pending_acks_, 0);
  ++next_block_seq_;
  sent_blocks_.push_back({seq, offset, false});
  relaxed::sub(credits_, 1);
  credits_gauge_.sub(1);
  blocks_sent_.inc();
  messages_sent_.inc(msg_count);
  return true;
}

Status Connection::send_block(uint64_t offset, uint64_t length) {
  simverbs::SendWr wr;
  wr.wr_id = next_block_seq_;
  wr.local_addr = sbuf_.data() + offset;
  wr.length = static_cast<uint32_t>(length);
  wr.remote_offset = offset;  // the mirror invariant
  wr.rkey = remote_rkey_;
  wr.imm_data = bucket_of(offset);
  return qp_->post_write_with_imm(wr);
}

StatusOr<bool> Connection::send_pure_ack() {
  if (relaxed::load(pending_acks_) == 0) return false;
  uint32_t imm = kPureAckImmFlag | relaxed::load(pending_acks_);
  // Clear only after the send succeeds: losing the counter would leak the
  // peer's buffers even on a (theoretically) recoverable transport error.
  DPURPC_RETURN_IF_ERROR(qp_->post_send_imm(/*wr_id=*/0, imm));
  relaxed::store(pending_acks_, 0);
  if (flush_observer_) flush_observer_(UINT64_MAX);  // ID release, no alloc
  return true;
}

void Connection::handle_counter_acks(uint16_t n) {
  // Each counter unit retires the oldest not-yet-acked block; every block
  // is counted exactly once by the peer, in order, so FIFO marking is
  // exact.
  for (auto& sb : sent_blocks_) {
    if (n == 0) break;
    if (!sb.acked) {
      sb.acked = true;
      --n;
    }
  }
  release_acked_prefix();
}

void Connection::release_acked_prefix() {
  // Free in FIFO order only: RC ordering guarantees the peer consumed the
  // oldest blocks first, and deferred frees keep the allocator's free list
  // short. (Response-based acks can arrive for a later block first; its
  // range is then released as soon as the earlier ones are.)
  while (!sent_blocks_.empty() && sent_blocks_.front().acked) {
    sbuf_alloc_.free(sent_blocks_.front().offset);
    sent_blocks_.pop_front();
    relaxed::add(credits_, 1);
    credits_gauge_.add(1);
  }
}

Status Connection::poll_into(std::vector<ReceivedBlock>& out) {
  recv_scratch_.clear();
  recv_cq_.poll_into(recv_scratch_);
  for (const auto& c : recv_scratch_) {
    if (c.status == simverbs::WcStatus::kFlushed) continue;  // peer went away
    if (c.opcode != simverbs::Opcode::kRecv || !c.has_imm) continue;
    if ((c.imm_data & kPureAckImmFlag) != 0) {
      uint16_t count = static_cast<uint16_t>(c.imm_data & 0xFFFF);
      handle_counter_acks(count);
      qp_->post_recv({});
      Preamble marker{};
      marker.ack_blocks = count;
      out.push_back({marker, UINT64_MAX});
      continue;
    }
    uint64_t offset = offset_of_bucket(c.imm_data);
    if (offset >= rbuf_.size()) {
      return Status(Code::kDataLoss, "immediate bucket outside receive buffer");
    }
    auto reader = BlockReader::parse(
        ByteSpan(rbuf_.data() + offset, rbuf_.size() - offset));
    if (!reader.is_ok()) return reader.status();

    if (reader->preamble().ack_blocks > 0) {
      handle_counter_acks(reader->preamble().ack_blocks);
    }
    blocks_received_.inc();
    messages_received_.inc(reader->message_count());

    // Re-arm the receive the peer's write consumed.
    qp_->post_recv({});
    out.push_back({reader->preamble(), offset});
  }
  // Drain send completions (bookkeeping only; errors are surfaced).
  send_scratch_.clear();
  send_cq_.poll_into(send_scratch_);
  for (const auto& c : send_scratch_) {
    if (c.status != simverbs::WcStatus::kSuccess) {
      return Status(Code::kDataLoss, "send completion reported an error");
    }
  }
  return Status::ok();
}

}  // namespace dpurpc::rdmarpc

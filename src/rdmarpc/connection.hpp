// One RPC-over-RDMA connection endpoint: the block transport.
//
// Owns the mirrored buffer pair (§III.B): a local send buffer staged at
// the same offsets as the peer's receive buffer, managed by the external-
// bookkeeping offset allocator, shipped with write-with-immediate where the
// immediate carries the block bucket. Implements credit-based congestion
// control (§IV.C) and the implicit acknowledgments of §IV.B as a symmetric
// cursor counter: each side counts peer blocks it has fully processed and
// piggybacks the count in the preamble of its next block. For the server,
// that next block is the response block itself — the paper's "the server
// implicitly acknowledges the received blocks by simply sending responses";
// for the client it is the next request block. When no block is flowing, a
// resource-free *pure-ack* immediate carries the counter instead, closing
// the low-workload reclamation corner the paper leaves implicit.
//
// Request-ID discipline (§IV.D) lives in the engines; the transport only
// guarantees the in-order delivery and flush notifications they rely on.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/relaxed.hpp"
#include "common/status.hpp"
#include "metrics/metrics.hpp"
#include "rdmarpc/block.hpp"
#include "rdmarpc/offset_allocator.hpp"
#include "rdmarpc/protocol.hpp"
#include "simverbs/simverbs.hpp"
#include "trace/trace.hpp"

namespace dpurpc::rdmarpc {

/// Which end of the protocol this connection plays. The client (the DPU in
/// the paper's deployment) sends requests and piggybacks ack counters; the
/// server (the host) sends responses and consumes ack counters.
enum class Role : uint8_t { kClient, kServer };

struct ConnectionConfig {
  uint64_t sbuf_size = 3ull << 20;   ///< Table I: client buffers 3 MiB
  uint64_t rbuf_size = 16ull << 20;  ///< Table I: server buffers 16 MiB
  uint32_t credits = 256;            ///< Table I
  uint32_t block_size = 8192;        ///< Table I: 8 KiB optimal minimum
  /// Share one completion channel across connections so a single server
  /// poller can sleep on all of them (§III.C "a single poller can share
  /// multiple connections on the server side"). Null = private channel.
  /// LIFETIME: must outlive every Connection constructed with it — the
  /// connection (and its queue pair) notifies the channel from its
  /// destructor.
  simverbs::CompletionChannel* shared_channel = nullptr;
};

class Connection {
 public:
  Connection(Role role, simverbs::ProtectionDomain* pd, ConnectionConfig cfg);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Wire two endpoints: connects the queue pairs, exchanges rkeys and
  /// buffer base addresses (the out-of-band setup a real deployment does
  /// over TCP), and posts initial receives.
  static Status connect(Connection& a, Connection& b);

  // ---- sender side --------------------------------------------------

  /// Open space for a message with up to `payload_hint` payload bytes,
  /// flushing the current block first if it cannot fit. Returns the
  /// payload base pointer. kUnavailable means no credit — poll and retry.
  ///
  /// An active `tctx` makes the message traced: the block writer puts the
  /// WireTrace prefix in front of the payload, and the returned pointer and
  /// payload_arena() start just past it. The trace is dropped, never the
  /// message, when tracing is off or the prefix would push `payload_hint`
  /// past kMaxPayloadSize; `tctx` is then cleared, so callers record spans
  /// only for messages that carry their trace.
  StatusOr<std::byte*> begin_message(uint32_t payload_hint,
                                     trace::TraceContext& tctx);

  /// Arena over the open message's payload region (in-place building).
  arena::Arena payload_arena() noexcept { return writer_->payload_arena(); }

  /// Close the open message. `payload_size` excludes any trace prefix;
  /// the writer adds it and sets kFlagTraced.
  Status commit_message(uint32_t payload_size, uint16_t id_or_method,
                        uint16_t flags = 0, uint16_t aux = 0);
  void abort_message() noexcept { writer_->abort_message(); }

  /// Send the open block, piggybacking the pending ack counter in its
  /// preamble (§IV.B). No-op returning false when no messages are queued.
  /// kUnavailable when out of credits.
  StatusOr<bool> flush();

  /// Deliver the pending ack counter without a block: a bare immediate
  /// (top bit set, count in the low bits) that consumes no credit and no
  /// buffer space. This completes the paper's low-workload corner — a
  /// peer waiting on acknowledgments to reclaim memory must not itself
  /// require reclaimable resources to be acknowledged. No-op when no acks
  /// are pending.
  StatusOr<bool> send_pure_ack();

  /// Sequence number the next flushed block will carry (engines map
  /// requests to blocks with this before calling flush).
  uint64_t open_block_seq() const noexcept { return next_block_seq_; }

  /// Invoked with the block sequence number at every flush — including
  /// flushes begin_message() triggers internally when a block fills —
  /// after the block is finalized and before it is posted, so spans ended
  /// here exist before the peer can see the block. Engines hang the
  /// request-ID discipline here so it runs at the true block boundary,
  /// never out of step with the peer. A pure ack calls it with UINT64_MAX
  /// after its send.
  void set_flush_observer(std::function<void(uint64_t seq)> observer) {
    flush_observer_ = std::move(observer);
  }

  /// send_ns stamped into the just-flushed block's traced messages
  /// (BlockWriter::finalize); 0 if the last flush carried no traced
  /// message. Valid inside a flush observer — it is the boundary between
  /// the flush-wait span and the wire span of every traced message in
  /// that block.
  uint64_t last_flush_ns() const noexcept { return last_flush_ns_; }

  // ---- receiver side ------------------------------------------------

  /// A received, validated block. The buffer region stays valid until the
  /// peer reuses it, which the ack protocol forbids before this side has
  /// acknowledged — so engines may process blocks after poll(). A pure-ack
  /// immediate is surfaced as a marker entry (is_pure_ack()) whose
  /// preamble carries only the counter.
  struct ReceivedBlock {
    Preamble preamble;
    uint64_t offset;
    bool is_pure_ack() const noexcept { return offset == UINT64_MAX; }
  };

  /// Drain completed receives: validate each block, apply any piggybacked
  /// counter acks, re-post receives, and append the blocks in arrival
  /// order to `out` (caller-owned, reused across polls: no allocation in
  /// the steady state).
  Status poll_into(std::vector<ReceivedBlock>& out);

  /// Convenience wrapper allocating a fresh vector.
  StatusOr<std::vector<ReceivedBlock>> poll() {
    std::vector<ReceivedBlock> out;
    DPURPC_RETURN_IF_ERROR(poll_into(out));
    return out;
  }

  /// Iterate a received block's messages.
  BlockReader read_block(const ReceivedBlock& rb) const noexcept {
    auto r = BlockReader::parse(ByteSpan(rbuf_.data() + rb.offset,
                                         rbuf_.size() - rb.offset));
    return *r;  // poll() already validated it
  }

  /// Engines call this after fully processing a peer block; the count is
  /// piggybacked in the next outgoing preamble — for the server that next
  /// block is the response block itself, which is exactly the paper's
  /// "the server implicitly acknowledges by simply sending responses".
  void note_peer_block_processed() noexcept {
    uint16_t p = relaxed::load(pending_acks_);
    if (p < UINT16_MAX) {
      relaxed::store(pending_acks_, static_cast<uint16_t>(p + 1));
    }
  }

  /// Block on the completion channel (poll() analogue in the paper; busy
  /// polling wastes 100% CPU for ~10% gain, §III.C). False on timeout.
  bool wait(int timeout_ms) { return channel().wait(timeout_ms); }
  void interrupt() { channel().interrupt(); }
  simverbs::CompletionChannel& channel() noexcept {
    return cfg_.shared_channel != nullptr ? *cfg_.shared_channel : own_channel_;
  }

  // ---- introspection -------------------------------------------------
  // A Connection is owned by one engine thread; every mutating call is
  // owner-thread-only. The getters below are monitor-safe (DESIGN.md
  // §3.12): credits/acks are relaxed atomics that tests waiting for
  // quiescence and stats pollers read concurrently. The remaining
  // introspection (sent_blocks_outstanding(), allocator() free-list
  // walks, …) stays owner-thread-only.

  uint32_t credits_available() const noexcept {
    return relaxed::load(credits_);
  }
  uint32_t pending_acks() const noexcept {
    return relaxed::load(pending_acks_);
  }
  size_t sent_blocks_outstanding() const noexcept { return sent_blocks_.size(); }
  const OffsetAllocator& allocator() const noexcept { return sbuf_alloc_; }
  Role role() const noexcept { return role_; }
  const ConnectionConfig& config() const noexcept { return cfg_; }

  /// Pointer rebasing for in-place objects: delta = peer rbuf − local sbuf.
  /// Zero in the paper's mirrored deployment; constant nonzero here.
  arena::AddressTranslator translator() const noexcept { return xlate_; }

  /// Simulated PCIe counters for this endpoint's transmissions.
  const simverbs::LinkCounters& tx_counters() const noexcept { return qp_->tx_counters(); }

  simverbs::QueuePair& queue_pair() noexcept { return *qp_; }

 private:
  struct SentBlock {
    uint64_t seq;
    uint64_t offset;
    bool acked = false;
  };

  Status send_block(uint64_t offset, uint64_t length);
  void handle_counter_acks(uint16_t n);
  void release_acked_prefix();

  Role role_;
  ConnectionConfig cfg_;
  simverbs::ProtectionDomain* pd_;

  std::vector<std::byte> sbuf_;
  std::vector<std::byte> rbuf_;
  const simverbs::MemoryRegion* sbuf_mr_ = nullptr;
  const simverbs::MemoryRegion* rbuf_mr_ = nullptr;
  uint32_t remote_rkey_ = 0;
  arena::AddressTranslator xlate_{};

  simverbs::CompletionChannel own_channel_;
  simverbs::CompletionQueue send_cq_;
  simverbs::CompletionQueue recv_cq_;
  std::unique_ptr<simverbs::QueuePair> qp_;

  OffsetAllocator sbuf_alloc_;
  std::optional<BlockWriter> writer_;  // open block, lazily created
  uint64_t open_block_offset_ = 0;
  uint64_t next_block_seq_ = 0;
  std::deque<SentBlock> sent_blocks_;

  // Single writer (the owning engine thread); atomic only so monitor
  // threads can poll the introspection getters without a data race.
  std::atomic<uint32_t> credits_;
  ///< peer blocks processed, not yet piggybacked
  std::atomic<uint16_t> pending_acks_{0};
  std::function<void(uint64_t)> flush_observer_;
  uint64_t last_flush_ns_ = 0;  ///< owner-thread-only, see last_flush_ns()
  std::vector<simverbs::Completion> recv_scratch_;  ///< reused per poll
  std::vector<simverbs::Completion> send_scratch_;

  // Instrumentation (≈5% cost in the paper; negligible with counters).
  // Shared per role in the process registry; the credits gauge carries
  // this connection's share, added on change and removed on destruction.
  metrics::Counter& blocks_sent_;
  metrics::Counter& messages_sent_;
  metrics::Counter& blocks_received_;
  metrics::Counter& messages_received_;
  metrics::Gauge& credits_gauge_;
};

}  // namespace dpurpc::rdmarpc

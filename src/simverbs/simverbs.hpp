// simverbs: a from-scratch, in-process simulation of the libibverbs
// constructs the paper's protocol depends on.
//
// Substitutes the BlueField-3 host↔DPU RDMA path (no such hardware here;
// see DESIGN.md §1). What the protocol layer needs — and what this layer
// faithfully models — is:
//   * protection domains grouping registered (pinned) memory regions,
//   * reliable-connection queue pairs with strict in-order delivery
//     (the implicit-ACK and request-ID tricks depend on it),
//   * two-sided RDMA write-with-immediate: bytes land in the remote
//     memory region at a sender-chosen offset, a 4-byte immediate is
//     delivered, and a *receive work request* is consumed,
//   * completion queues (optionally shared across QPs, as the paper's
//     server side does) and blocking completion channels (poll()),
//   * receiver-not-ready failure when the receive queue is exhausted —
//     the catastrophe the credit system exists to prevent,
//   * per-direction byte/op accounting standing in for the PCIe counters
//     behind Fig. 8b.
//
// Delivery is synchronous inside post_send (the memcpy is the DMA), under
// a per-link lock; this preserves RC ordering exactly and keeps tests
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace dpurpc::simverbs {

class ProtectionDomain;
class QueuePair;
class CompletionQueue;
class CompletionChannel;

/// Registered ("pinned") memory. The rkey authorizes remote writes.
class MemoryRegion {
 public:
  std::byte* addr() const noexcept { return addr_; }
  size_t length() const noexcept { return length_; }
  uint32_t lkey() const noexcept { return key_; }
  uint32_t rkey() const noexcept { return key_; }

 private:
  friend class ProtectionDomain;
  MemoryRegion(std::byte* addr, size_t length, uint32_t key)
      : addr_(addr), length_(length), key_(key) {}
  std::byte* addr_;
  size_t length_;
  uint32_t key_;
};

/// Work-completion opcode subset.
enum class Opcode : uint8_t {
  kSend,
  kRecv,          ///< consumed by an incoming send or write-with-imm
  kWriteWithImm,  ///< sender-side completion of a write-with-immediate
};

/// Completion status (wc_status analogue).
enum class WcStatus : uint8_t {
  kSuccess,
  kRnrError,      ///< receiver had no posted receive
  kFlushed,       ///< QP destroyed with work outstanding
  kRemoteAccess,  ///< write outside the remote region
};

struct Completion {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  uint32_t byte_len = 0;
  uint32_t imm_data = 0;
  bool has_imm = false;
  QueuePair* qp = nullptr;  ///< which connection (shared-CQ demux)
};

/// Send-side work request.
struct SendWr {
  uint64_t wr_id = 0;
  const std::byte* local_addr = nullptr;
  uint32_t length = 0;
  /// Destination offset within the remote MR (write-with-immediate).
  uint64_t remote_offset = 0;
  uint32_t rkey = 0;
  uint32_t imm_data = 0;
};

/// Receive work request: for write-with-immediate the buffer is unused
/// (data lands in the registered region), but a WR must still be consumed.
struct RecvWr {
  uint64_t wr_id = 0;
};

/// Blocking wait primitive (completion channel + poll()). CQs attached to
/// a channel wake it whenever a completion arrives.
///
/// One futex word: `events_` counts notifications, and `sleepers_` counts
/// threads inside FUTEX_WAIT. A notify costs one atomic add, plus a
/// FUTEX_WAKE only when somebody sleeps, so a CQ push to a busy poller
/// takes no syscall and no lock. Events are sticky: a notify before wait()
/// makes that wait return at once, and any number of notifies between two
/// waits coalesce into one `true`.
class CompletionChannel {
 public:
  /// Wait until any attached CQ has completions (or notify() ran) or
  /// `timeout_ms` elapses; false on timeout. With `spin_ns` > 0 the
  /// caller first spins on the word for up to that long (inside the
  /// timeout) before it sleeps: a thread that expects an event within a
  /// few microseconds pays neither its own sleep nor the notifier's wake.
  bool wait(int timeout_ms, uint64_t spin_ns = 0);

  /// Record an event and wake every sleeper. CQs call it after each push;
  /// owners call it to kick a waiter (new work, shutdown).
  void notify();

 private:
  /// Consume the events seen since the last wait, if any.
  bool take_event() noexcept;

  // Both words are seq_cst on both sides: notify() adds to events_ then
  // reads sleepers_, a waiter adds to sleepers_ then reads events_ (the
  // Dekker handshake). One of the two always sees the other, so a notify
  // never lands between a waiter's check and its sleep unseen.
  std::atomic<uint32_t> events_{0};
  std::atomic<uint32_t> sleepers_{0};
  /// events_ as of the last wait() that returned true. Touched only by
  /// waiters; it orders nothing, so it is relaxed.
  std::atomic<uint32_t> consumed_{0};
};

/// Bounded completion queue. Overflow is recorded and the completion is
/// dropped — modeling the hardware behaviour whose avoidance motivates the
/// protocol's credit system.
class CompletionQueue {
 public:
  explicit CompletionQueue(size_t capacity, CompletionChannel* channel = nullptr)
      : capacity_(capacity), channel_(channel) {}

  /// Drain up to `max` completions.
  std::vector<Completion> poll(size_t max = SIZE_MAX);

  /// Drain into a caller-owned (reused) buffer; appends.
  void poll_into(std::vector<Completion>& out, size_t max = SIZE_MAX);

  size_t depth() const;
  uint64_t overflow_count() const noexcept {
    return relaxed::load(overflows_);
  }

 private:
  friend class QueuePair;
  void push(Completion c);

  const size_t capacity_;
  CompletionChannel* channel_;
  mutable lockdep::Mutex mu_{"simverbs.CompletionQueue.mu"};
  std::deque<Completion> items_ DPURPC_GUARDED_BY(mu_);
  std::atomic<uint64_t> overflows_{0};
};

/// Shared receive queue: one pool of receive WRs serving many QPs, the
/// "single received queue shared between connections" of the paper's
/// server-side poller (§III.C).
class SharedReceiveQueue {
 public:
  void post(RecvWr wr);
  size_t depth() const;

 private:
  friend class QueuePair;
  bool take(RecvWr* out);
  mutable lockdep::Mutex mu_{"simverbs.SharedReceiveQueue.mu"};
  std::deque<RecvWr> items_ DPURPC_GUARDED_BY(mu_);
};

/// Per-direction transfer accounting: the simulated PCIe counters.
struct LinkCounters {
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> rnr_events{0};
};

/// Fault injection for failure tests.
struct FaultInjection {
  std::atomic<uint32_t> drop_next_sends{0};  ///< swallow N sends silently
};

/// Groups MRs and issues keys; one per endpoint, like ibv_pd.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(std::string name) : name_(std::move(name)) {}

  /// Register caller-owned memory; the region handle is owned by the PD.
  const MemoryRegion* register_memory(void* addr, size_t length);

  /// Look up a region by rkey (delivery-side validation).
  const MemoryRegion* find_by_rkey(uint32_t rkey) const;

  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  mutable lockdep::Mutex mu_{"simverbs.ProtectionDomain.mu"};
  std::vector<std::unique_ptr<MemoryRegion>> regions_ DPURPC_GUARDED_BY(mu_);
  uint32_t next_key_ DPURPC_GUARDED_BY(mu_) = 1;
};

/// A reliable-connection queue pair. Create two and connect() them.
class QueuePair {
 public:
  /// `recv_cq`/`send_cq` may be shared with other QPs. `srq` may be null,
  /// in which case the QP has a private receive queue.
  QueuePair(ProtectionDomain* pd, CompletionQueue* send_cq, CompletionQueue* recv_cq,
            SharedReceiveQueue* srq = nullptr);
  ~QueuePair();

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Connect both directions (idempotent pairing of exactly two QPs).
  static Status connect(QueuePair& a, QueuePair& b);

  /// Post a receive WR to this QP's private queue (or its SRQ).
  void post_recv(RecvWr wr);

  /// RDMA write-with-immediate: copy [local_addr, +length) into the remote
  /// MR identified by rkey at remote_offset, consume one remote receive WR,
  /// deliver the immediate. Completes synchronously on both CQs.
  /// Returns UNAVAILABLE on RNR (no remote receive posted) — the protocol
  /// layer's credits make this unreachable in healthy operation.
  Status post_write_with_imm(const SendWr& wr);

  /// Two-sided send into the remote's receive flow; carries only the
  /// immediate (used by tests; the datapath uses write-with-immediate).
  Status post_send_imm(uint64_t wr_id, uint32_t imm_data);

  ProtectionDomain* pd() const noexcept { return pd_; }
  LinkCounters& tx_counters() noexcept { return tx_; }
  const LinkCounters& tx_counters() const noexcept { return tx_; }
  FaultInjection& faults() noexcept { return faults_; }

  size_t recv_queue_depth() const;

 private:
  bool take_recv(RecvWr* out);
  void deliver_completion(Completion c, bool to_recv_cq);

  ProtectionDomain* pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  SharedReceiveQueue* srq_;
  QueuePair* peer_ = nullptr;

  // Order: QueuePair.mu -> CompletionQueue.mu (the destructor flushes
  // receives into the CQ while holding mu_). The delivery path in
  // post_write_with_imm touches peer state only through locked peer
  // methods (take_recv, CQ push) with no lock of its own held.
  mutable lockdep::Mutex mu_{"simverbs.QueuePair.mu"};
  std::deque<RecvWr> recv_queue_ DPURPC_GUARDED_BY(mu_);

  LinkCounters tx_;  ///< bytes/ops this QP transmitted
  FaultInjection faults_;
};

}  // namespace dpurpc::simverbs

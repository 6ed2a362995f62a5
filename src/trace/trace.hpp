// End-to-end datapath tracing: per-request span trees (DESIGN.md §3.15).
//
// A TraceContext{trace_id, parent_span_id} is allocated at the RPC entry
// point (the xRPC channel, or a bench driving RpcClient directly) and
// propagated through every hop of Fig. 1 — the xRPC frame header, the
// rdmarpc per-message trace prefix (protocol.hpp kFlagTraced), and the
// CodecPool handoff descriptors (both directions) — so each stage records
// one fixed-size
// SpanRecord into its thread's lock-free SPSC ring. The TraceCollector
// (collector.hpp) drains the rings off the hot path.
//
// Overhead discipline, same as DPURPC_LOCKDEP:
//   - compile-time gate: -DDPURPC_TRACE=OFF defines DPURPC_TRACE_ENABLED=0
//     and trace::enabled() becomes constexpr false — every instrumentation
//     site is `if (trace::enabled()) {...}`, so the hot path compiles back
//     to the pre-tracing shape.
//   - run-time gate: one relaxed atomic load; mode kOff (the default)
//     makes begin_trace() return an inactive context and record() on an
//     inactive context is a no-op.
//   - hot path when ON: no locks, no allocation — a 64-byte record store
//     and a release-store cursor bump into a preallocated per-thread ring;
//     a full ring drops the newest record and counts the drop.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/hot_path.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "common/thread_annotations.hpp"

#ifndef DPURPC_TRACE_ENABLED
#define DPURPC_TRACE_ENABLED 1
#endif

namespace dpurpc::trace {

/// Datapath stages, one per span. Order mirrors a request's journey
/// through Fig. 1 (xRPC client → DPU proxy → RPC over RDMA → host).
enum class Stage : uint8_t {
  kRequest = 0,       ///< root span: entry-point-observed end-to-end time
  kClientSerialize,   ///< xrpc channel: request frame build + socket write
  kXrpcInbound,       ///< xrpc wire + server reader dispatch (client → DPU)
  kProxyDispatch,     ///< proxy: manifest lookup + lane enqueue
  kLaneQueueWait,     ///< waiting in the lane's bounded queue
  kDecodeRingWait,    ///< waiting in the decode pool's submit ring
  kWorkerDecode,      ///< decode worker: wire bytes → object tree
  kBlockBuild,        ///< block build: deserialize-in-place or memcpy+relocate
  kFlushWait,         ///< committed to the open block, waiting for flush
  kRdmaInbound,       ///< simverbs transfer + host poll wait (request dir)
  kHostDispatch,      ///< host handler execution
  kHostSerialize,     ///< host response serialize + block write
  kRespFlushWait,     ///< response committed, waiting for the response flush
  kRdmaOutbound,      ///< simverbs transfer + client poll wait (response dir)
  kEncodeRingWait,    ///< response copy-out + waiting in the encode submit ring
  kWorkerEncode,      ///< encode worker: object tree → wire bytes
  kComplete,          ///< proxy continuation: finished reply → xrpc responder
  kXrpcOutbound,      ///< xrpc wire (DPU → client)
  kSimverbsWrite,     ///< global (per-block, not per-trace) link transfer
  // Streaming stages (DESIGN.md streaming section). The per-trace chain
  // of a streamed call is: transfer (first chunk → end frame) then drain
  // (end frame → last chunk forwarded); per-chunk work is recorded as
  // global events so the stream trace still tiles its e2e root.
  kStreamTransfer,     ///< stream open/first chunk → end frame received
  kStreamDrainWait,    ///< end frame → last chunk result forwarded
  kWorkerDecodeChunk,  ///< global: chunk decode on a pool worker
  kStreamChunkForward, ///< global: decoded piece → host ack (one message)
  kStageCount
};

const char* stage_name(Stage s) noexcept;

/// The propagated identity: which request, and which span to parent new
/// spans under (always the root — stage spans form a flat tree, which is
/// all the reassembly and the Perfetto timeline need). trace_id 0 means
/// "not traced": every record() on such a context is a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool active() const noexcept { return trace_id != 0; }
};

/// One finished span. Exactly one cache line so a ring slot never splits
/// a record across lines and the SPSC handoff stays a single-line copy.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;  ///< CLOCK_MONOTONIC (WallTimer::now)
  uint64_t end_ns = 0;
  uint64_t arg = 0;       ///< stage-specific (payload bytes, block seq, …)
  uint32_t tid = 0;       ///< recording ring's index (Perfetto track id)
  uint8_t stage = 0;      ///< Stage
  uint8_t pad[11] = {};
};
static_assert(sizeof(SpanRecord) == 64, "one cache line per record");

/// Per-thread SPSC ring. The owning thread pushes; the collector — any
/// thread, serialized by the Tracer's registry lock — pops. Drop-newest on
/// full: tracing must never apply backpressure to the datapath.
class SpanRing {
 public:
  SpanRing(size_t capacity_pow2, uint32_t tid)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1), tid_(tid) {}

  uint32_t tid() const noexcept { return tid_; }

  /// Writer-thread only.
  DPURPC_HOT_PATH bool try_push(const SpanRecord& r) noexcept {
    uint64_t h = head_.load(
        std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): writer-side self cursor of the SPSC ring
    if (h - tail_.load(std::memory_order_acquire) > mask_) {
      relaxed::add(dropped_, 1);
      return false;
    }
    slots_[h & mask_] = r;
    // Release publishes the record body to the draining thread.
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side (hold the Tracer registry lock: one consumer at a time).
  size_t drain(std::vector<SpanRecord>& out) {
    uint64_t t = tail_.load(
        std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): consumer-side self cursor of the SPSC ring

    uint64_t h = head_.load(std::memory_order_acquire);
    for (uint64_t i = t; i != h; ++i) out.push_back(slots_[i & mask_]);
    tail_.store(h, std::memory_order_release);
    return static_cast<size_t>(h - t);
  }

  uint64_t dropped() const noexcept { return relaxed::load(dropped_); }

 private:
  std::vector<SpanRecord> slots_;
  const uint64_t mask_;
  const uint32_t tid_;
  alignas(64) std::atomic<uint64_t> head_{0};  ///< writer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< consumer cursor
  std::atomic<uint64_t> dropped_{0};
};

enum class Mode : uint8_t {
  kOff = 0,   ///< begin_trace() yields inactive contexts; zero recording
  kSampled,   ///< head sampling: every Nth begin_trace() starts a trace
  kFull,      ///< every request traced
};

struct TraceConfig {
  Mode mode = Mode::kOff;
  /// kSampled: one trace per this many begin_trace() calls.
  uint32_t head_sample_every = 64;
  /// Slots per thread ring (rounded up to a power of two). Applies to
  /// rings created after configure(); existing rings keep their size.
  size_t ring_capacity = 4096;
};

namespace detail {
/// The run-time gate, inline so enabled() is a single relaxed load with
/// no function call. Written only by Tracer::configure / the env check.
inline std::atomic<uint8_t> g_mode{0};
}  // namespace detail

#if DPURPC_TRACE_ENABLED
DPURPC_HOT_PATH inline bool enabled() noexcept {
  // dpulint: allow(relaxed-atomic): run-time gate — a stale read only
  // delays the mode flip by one request, nothing orders against it.
  return detail::g_mode.load(std::memory_order_relaxed) !=
         static_cast<uint8_t>(Mode::kOff);
}
#else
constexpr bool enabled() noexcept { return false; }
#endif

/// Process-wide tracer: owns the per-thread rings, the id counters and the
/// sampling decision. Leaked singleton, like metrics::default_registry().
class Tracer {
 public:
  static Tracer& instance();

  /// Reconfigure mode/sampling. Takes the registry lock; callers flip it
  /// at run boundaries, not per request. DPURPC_TRACE_FORCE=full|sampled
  /// (read once at process start) presets the mode for CI lanes; an
  /// explicit configure() still overrides it.
  void configure(const TraceConfig& config);
  TraceConfig config() const;

  /// Start (or head-sample away) a new trace. Inactive context when off
  /// or not sampled this time.
  TraceContext begin_trace();

  uint64_t next_span_id() noexcept { return relaxed::add(next_span_id_, 1); }

  /// Record one stage span under `ctx`'s root. No-op on inactive contexts.
  void record(Stage stage, const TraceContext& ctx, uint64_t start_ns,
              uint64_t end_ns, uint64_t arg = 0);

  /// Record the root span itself (span_id = ctx.parent_span_id, no parent).
  /// Called once, by whoever called begin_trace(), when the request ends.
  void record_root(const TraceContext& ctx, uint64_t start_ns, uint64_t end_ns,
                   uint64_t arg = 0);

  /// Record a global (trace-less) event, e.g. a simverbs block transfer.
  void record_global(Stage stage, uint64_t start_ns, uint64_t end_ns,
                     uint64_t arg = 0);

  // ---- collector interface -------------------------------------------
  /// Drain every ring (appending to `out`); one consumer at a time (the
  /// registry lock serializes). Returns records drained.
  size_t drain_into(std::vector<SpanRecord>& out);
  /// Total records dropped to full rings, over all rings, ever.
  uint64_t dropped_total() const;
  size_t ring_count() const;

 private:
  Tracer();
  SpanRing& ring();  ///< this thread's ring, created on first use

  mutable lockdep::Mutex mu_{"trace.Tracer.mu"};  // leaf lock (DESIGN §3.12)
  std::vector<std::unique_ptr<SpanRing>> rings_ DPURPC_GUARDED_BY(mu_);
  TraceConfig config_ DPURPC_GUARDED_BY(mu_);
  /// Mirror of config_.head_sample_every: begin_trace reads it lock-free
  /// so the submit path never waits behind a collector drain holding mu_.
  std::atomic<uint32_t> head_every_{64};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> head_counter_{0};
};

}  // namespace dpurpc::trace

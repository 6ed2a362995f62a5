// The codec pool: both codec directions sharded across the DPU core pool.
//
// The paper's device has sixteen ARM cores (Table I); this module puts
// them to work on codec jobs too large to run on a lane thread without
// stalling it: a pool of N codec workers (N = dpu::DeviceInfo::cores
// unless overridden), each with its own private scratch and its own
// stats, fed by per-lane SPSC handoff rings (common/handoff_ring.hpp) so
// a slow lane cannot stall its siblings. Idle workers steal from foreign
// lanes through the rings' gated side entrance.
//
// The pool is full-duplex: the same per-lane rings carry two descriptor
// kinds, and every worker executes both halves of the datapath codec —
//
//   * decode (request direction): wire bytes → object tree. A worker
//     does not know where the tree will end up, so it decodes into a
//     private 64-byte-aligned scratch slice with a ZERO-delta address
//     translator — every embedded pointer fully local to the slice. The
//     consumer memcpys the slice wherever it likes and runs
//     ArenaDeserializer::relocate() to rebase the tree: bit-for-bit
//     equivalent to having deserialized in place
//     (tests/codec_pool_test.cpp proves it against the serialize oracle).
//     kDecodeChunk is the same decode over one stream piece.
//
//   * encode (response direction): object tree → wire bytes. The
//     submitter hands over a fully-local copy of an object (the slice +
//     relocate trick run in reverse) and the worker runs the compiled
//     serialize plan — size walk and emit fused in one
//     ObjectSerializer::serialize call — into its per-worker serialize
//     scratch, whose capacity persists across jobs. The result carries
//     exactly-sized wire bytes. See DESIGN.md §3.16.
//
// Who submits what. DpuProxy hands the pool stream kDecodeChunk pieces
// only: a unary call's codec runs on its own lane, straight into the send
// block and straight from the receive block, because a handoff would cost
// two cross-thread wakeups for well under a microsecond of codec work and
// round-robin lane assignment already balances unary calls (DESIGN.md
// §3.14). kDecode jobs come from harnesses that drive the pool directly
// (bench/fig9_scaling, the perf benchmark's pool round trip). kEncode has
// no production caller left; only the serialize-parity tests run it.
//
// Simulation posture: workers are host threads standing in for DPU cores;
// each accounts its codec time scaled by the calibrated CostModel factor
// (Fig. 7), and bench/fig9_scaling sweeps the worker count against those
// modeled numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/bytes.hpp"
#include "common/handoff_ring.hpp"
#include "common/lockdep.hpp"
#include "common/status.hpp"
#include "dpu/dpu_model.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace dpurpc::dpu {

/// A 64-byte-aligned heap slice holding a fully-local object tree: a
/// worker decodes into one (request direction), a submitter copies an
/// object to serialize into one (response direction). Ownership
/// moves with the job/result through the handoff rings. The slice base is
/// a multiple of the 8-byte payload alignment every embedded allocation
/// uses (kPayloadAlign; class/field alignments never exceed it), so
/// memcpy'ing the slice to any 8-aligned destination — the block payload
/// base — keeps every interior object correctly aligned.
class ScratchSlice {
 public:
  ScratchSlice() = default;
  static ScratchSlice allocate(size_t bytes);

  std::byte* data() const noexcept { return data_.get(); }
  size_t capacity() const noexcept { return capacity_; }
  explicit operator bool() const noexcept { return data_ != nullptr; }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::byte, FreeDeleter> data_;
  size_t capacity_ = 0;
};

/// Which half of the codec a descriptor asks for.
enum class JobKind : uint8_t {
  kDecode,  ///< wire bytes → fully-local object tree (request direction)
  kEncode,  ///< fully-local object tree → wire bytes (response direction)
  /// One chunk of a streamed request: wire bytes at `wire_offset` hold
  /// whole repeated-message records (the proxy's boundary scan guarantees
  /// it), decoded like kDecode but with the input buffer echoed back in
  /// `CodecResult::wire` so the lane can forward the same bytes without a
  /// copy. Decode time lands on the kWorkerDecodeChunk global track.
  kDecodeChunk,
};

/// One codec request, handed from a lane poller to the pool. `cookie` is
/// opaque to the pool (the proxy keys its pending-piece map with it). An
/// active `trace` makes the worker record ring-wait and codec spans
/// (`submit_ns` marks the handoff instant the wait starts at).
///
/// Decode jobs carry `wire` (the request payload). Encode jobs carry
/// `object` — a fully-local tree (every interior pointer inside the
/// slice), its occupied byte count and the root's offset. The submitter
/// owns making the tree local (ArenaDeserializer::relocate with publish
/// delta == move delta), because the worker serializes it from a foreign
/// thread long after the receive buffer that delivered it was acked away.
struct CodecJob {
  JobKind kind = JobKind::kDecode;
  uint32_t class_index = 0;
  uint64_t cookie = 0;
  Bytes wire;                ///< decode input
  /// Decode starts at this byte of `wire` (kDecodeChunk: the proxy keeps
  /// a prefix hole at the front of each chunk buffer for the host-side
  /// stream header, so the same buffer forwards without a re-copy).
  uint32_t wire_offset = 0;
  ScratchSlice object;       ///< encode input: fully-local object tree
  uint32_t object_used = 0;  ///< encode: bytes of `object` occupied
  uint32_t obj_offset = 0;   ///< encode: root object's offset within the slice
  trace::TraceContext trace;
  uint64_t submit_ns = 0;
};

/// The finished job, either direction. Decode success: `slice` holds the
/// object tree, fully local (zero-delta) — the consumer memcpys
/// [data, data+used) wherever it likes and calls
/// ArenaDeserializer::relocate() on the copy. Encode success: `wire`
/// holds the finished proto3 bytes, exactly sized.
struct CodecResult {
  JobKind kind = JobKind::kDecode;
  uint64_t cookie = 0;
  Status status = Status::ok();
  ScratchSlice slice;
  uint32_t used = 0;        ///< decode: bytes of slice occupied by the tree
  uint32_t obj_offset = 0;  ///< decode: root object's offset within the slice
  /// Encode: serialized response bytes. kDecodeChunk: the job's input
  /// buffer echoed back (prefix hole intact) for zero-copy forwarding.
  Bytes wire;
  uint16_t worker = 0;      ///< which worker ran it (stats/tests)
};

class CodecPool {
 public:
  struct Options {
    /// 0 → size from DeviceInfo::current().cores (BlueField-3's 16 capped
    /// at the hardware threads, DPURPC_DPU_CORES overrides), clamped to
    /// the lane count — more workers than lanes would only contend on
    /// the per-lane rings.
    int workers = 0;
    /// Per-lane ring capacity (submit and completion alike). Callers must
    /// bound per-lane outstanding jobs — both kinds combined — by this so
    /// completion pushes can always eventually succeed (the proxy does).
    size_t ring_capacity = 256;
    /// Upper bound for one decoded tree; the worker first tries a small
    /// wire-size-derived slice and retries once at this cap on arena
    /// exhaustion. Matches rdmarpc::kMaxPayloadSize by default.
    size_t max_slice_bytes = 64 * 1024;
  };

  /// Monotonic per-worker tallies; readable concurrently at any time.
  struct WorkerStats {
    uint64_t jobs = 0;            ///< jobs finished, both kinds (success + failure)
    uint64_t encodes = 0;         ///< of which encode (serialize) jobs
    uint64_t steals = 0;          ///< jobs popped from a foreign lane
    uint64_t failures = 0;        ///< jobs that returned an error
    uint64_t bytes_decoded = 0;   ///< wire bytes consumed by decode jobs
    uint64_t bytes_encoded = 0;   ///< wire bytes produced by encode jobs
    uint64_t busy_ns = 0;         ///< host thread-CPU time spent in the codec
    /// busy_ns × the default CostModel's kMixedSmall factor (DPU-modeled;
    /// both directions share the class: serialize leans on the same
    /// varint/byte-copy kernels as decode).
    uint64_t scaled_busy_ns = 0;
  };

  /// `deserializer` and `serializer` must outlive the pool (`serializer`
  /// may be null for a decode-only pool: encode submissions are then
  /// refused). `on_complete(lane)` fires after a result lands in `lane`'s
  /// completion ring — from a worker thread, so it must be cheap and
  /// lock-light (the proxy uses Connection::interrupt to wake the lane
  /// poller).
  CodecPool(const adt::ArenaDeserializer* deserializer,
            const adt::ObjectSerializer* serializer, size_t lanes,
            Options options, std::function<void(size_t lane)> on_complete = {});
  /// All-defaults convenience (GCC can't default-arg a nested aggregate
  /// with member initializers inside its enclosing class).
  CodecPool(const adt::ArenaDeserializer* deserializer,
            const adt::ObjectSerializer* serializer, size_t lanes);
  ~CodecPool();

  CodecPool(const CodecPool&) = delete;
  CodecPool& operator=(const CodecPool&) = delete;

  void start();
  /// Stop and join the workers. Jobs still sitting in submit rings are
  /// dropped (their cookies never complete) — callers track pending
  /// cookies and fail them out after stop(), as DpuProxy does.
  void stop();

  /// Try-only: false when the lane ring is full (or the pool is stopping,
  /// or an encode job meets a serializer-less pool), in which case `job`
  /// is left intact so the caller can run it inline or retry after
  /// draining completions.
  bool submit(size_t lane, CodecJob& job);
  /// Try-only: false when `lane` has no finished result waiting.
  bool try_pop_result(size_t lane, CodecResult& out);
  size_t worker_count() const noexcept { return workers_.size(); }
  size_t lane_count() const noexcept { return lanes_.size(); }
  WorkerStats worker_stats(size_t w) const;
  /// Sum of jobs over all workers (== total submitted minus in-flight).
  uint64_t total_jobs() const noexcept;
  /// Jobs waiting in `lane`'s submit ring (approximate).
  size_t lane_queue_depth(size_t lane) const noexcept;

 private:
  struct LaneRings {
    explicit LaneRings(size_t cap) : submit(cap), complete(cap) {}
    HandoffRing<CodecJob> submit;
    HandoffRing<CodecResult> complete;
  };
  /// Stats are written by exactly one worker thread, read by anyone.
  struct Worker {
    std::thread thread;
    alignas(64) std::atomic<uint64_t> jobs{0};
    std::atomic<uint64_t> encodes{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> bytes_decoded{0};
    std::atomic<uint64_t> bytes_encoded{0};
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> scaled_busy_ns{0};
    metrics::Gauge* depth_gauge = nullptr;  ///< home-lane backlog
    /// Per-worker serialize scratch: the encode emit target. Capacity
    /// persists across jobs (clear() keeps it), so the steady-state
    /// encode path allocates only the exactly-sized result copy. Touched
    /// by the owning worker thread only.
    Bytes encode_scratch;
  };

  void worker_loop(size_t w);
  bool run_one(size_t w, size_t lane, bool stolen);
  CodecResult decode(size_t w, CodecJob&& job);
  CodecResult encode(size_t w, CodecJob&& job);
  bool any_pending() const noexcept;

  const adt::ArenaDeserializer* deserializer_;
  const adt::ObjectSerializer* serializer_;
  Options options_;
  std::function<void(size_t)> on_complete_;
  std::vector<std::unique_ptr<LaneRings>> lanes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  metrics::Counter* handoffs_ = nullptr;         ///< lane → pool decode submissions
  metrics::Counter* encode_handoffs_ = nullptr;  ///< lane → pool encode submissions
  metrics::Counter* steals_ = nullptr;           ///< cross-lane pops
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  // Worker parking. Never touched on the submit fast path unless a worker
  // is actually asleep (sleepers_ gate), and never held while running the
  // codec — the "no lock held entering deserialize" lockdep rule stays
  // satisfied by construction.
  std::atomic<int> sleepers_{0};
  lockdep::Mutex wake_mu_{"dpu.CodecPool.wake"};
  lockdep::CondVar wake_cv_;
};

}  // namespace dpurpc::dpu

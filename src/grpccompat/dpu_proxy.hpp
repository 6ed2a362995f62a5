// The DPU-side proxy: terminates xRPC and offloads the codec, both ways.
//
// This is the middle-man of Fig. 1. It runs the xRPC server (so xRPC
// clients only change the address they dial, §III.A), deserializes each
// request's protobuf payload into the RPC over RDMA send block — emitting
// pointers in the host's address space — and forwards it. The host's
// business logic replies either with serialized bytes (carried through
// unchanged) or with an in-place response *object* (kFlagInPlaceObject),
// which the proxy serializes on the DPU so the host pays zero codec cost
// in either direction.
//
// Threading (§III.C + lane sharding, DESIGN.md §3.14/§3.16): one poller
// thread (lane) per RDMA connection owns that connection's RpcClient and
// event loop; xRPC reader threads enqueue work round-robin across lanes.
// A lane has one way in (Lane::post), one sleep (lane_sleep: its
// connection's completion channel, in the poller loop and in the one
// backpressure routine) and one way out (stop() or a datapath failure).
// The sleep spins briefly first while the host holds one of the lane's
// calls, so the response finds the lane awake; the host thread never
// spins.
// A unary call's codec runs on its own lane, both ways: the request
// decodes straight into the RDMA send block (§V), and an in-place object
// reply serializes straight from the receive block before it is acked.
// Round-robin already balances unary work across lanes, so a handoff
// would only add a slice copy, two rings and two cross-thread wakeups.
// Stream pieces (record-aligned, each one RDMA message, pinned to their
// stream's lane) go to the CodecPool instead, so a piece's decode never
// holds the unary calls queued behind it on the lane.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/bounded_queue.hpp"
#include "common/relaxed.hpp"
#include "dpu/codec_pool.hpp"
#include "grpccompat/manifest.hpp"
#include "grpccompat/stream_wire.hpp"
#include "rdmarpc/client.hpp"
#include "trace/trace.hpp"
#include "xrpc/server.hpp"

namespace dpurpc::trace {
class ResourceSampler;
}

namespace dpurpc::grpccompat {

/// Datapath counters. Every unary request decodes on its lane and every
/// in-place object reply serializes there; the pool sees stream pieces
/// only.
struct DpuProxyStats {
  std::atomic<uint64_t> offloaded_requests{0};
  std::atomic<uint64_t> deserialize_failures{0};
  std::atomic<uint64_t> responses_forwarded{0};
  /// Stream pieces validate-decoded on the lane thread because the pool
  /// ring (or the per-lane outstanding budget) was full: overload spill.
  std::atomic<uint64_t> inline_decodes{0};
  /// In-place object responses serialized on the DPU.
  std::atomic<uint64_t> offloaded_responses{0};
  /// Always 0: replies serialize on the lane, so nothing spills.
  /// Kept because the perf benchmark reads it.
  std::atomic<uint64_t> inline_serializes{0};
  /// Streaming: chunk pieces decoded on the pool, payload bytes shipped
  /// through streams, and the high-water mark of bytes any single stream
  /// held inside the proxy (carry + pieces awaiting host ack) — the
  /// bounded-memory invariant fig11_shuffle asserts against the budget.
  std::atomic<uint64_t> stream_chunks{0};
  std::atomic<uint64_t> stream_bytes{0};
  std::atomic<uint64_t> stream_peak_bytes{0};
  /// Bytes currently held inside the proxy across all streams (carry +
  /// pieces awaiting host ack) — the live value whose per-stream peak is
  /// stream_peak_bytes. A resource-sampler probe tracks it over time.
  std::atomic<uint64_t> stream_held_bytes{0};
  /// Streams dropped before completion: client aborts, connection loss,
  /// malformed chunks, decode failures.
  std::atomic<uint64_t> stream_aborts{0};
};

/// Byte-credit window granted to each stream's client at open; the proxy
/// never holds more than this per stream — further credit is granted only
/// as the host acks forwarded pieces (the backpressure chain's middle
/// link: xRPC credit → this budget → RDMA block credits).
inline constexpr size_t kStreamBudget = 1u << 20;
static_assert(kStreamBudget <= UINT32_MAX, "one xRPC credit grant covers it");

class DpuProxy {
 public:
  /// Single-connection proxy (one poller lane).
  DpuProxy(rdmarpc::Connection* conn, const OffloadManifest* manifest,
           adt::CodecOptions options = {});

  /// Multi-connection proxy: one dedicated poller thread per connection
  /// (§III.C); incoming xRPC calls are distributed round-robin.
  /// `codec_workers` sizes the codec pool: 0 → dpu::DeviceInfo cores
  /// (DPURPC_DPU_CORES overrides), clamped to the lane count.
  DpuProxy(const std::vector<rdmarpc::Connection*>& conns,
           const OffloadManifest* manifest, adt::CodecOptions options = {},
           int codec_workers = 0);

  ~DpuProxy();

  /// Start the xRPC server, the codec pool, and the poller lanes.
  /// Returns the TCP port xRPC clients should dial (the "DPU's address").
  StatusOr<uint16_t> start();
  void stop();

  const DpuProxyStats& stats() const noexcept { return stats_; }
  size_t lane_count() const noexcept { return lanes_.size(); }
  /// Requests forwarded through lane `i` (load-balance introspection).
  /// Safe against racing monitor reads at any time: out-of-range lanes
  /// (including a size observed mid-shutdown) read as zero rather than
  /// throwing.
  uint64_t lane_requests(size_t i) const noexcept {
    return i < lanes_.size() ? relaxed::load(lanes_[i]->forwarded) : 0;
  }
  /// Stream pieces lane `i` currently has out with the pool (its share
  /// of the outstanding budget). Same monitor-read contract as
  /// lane_requests: racy, out-of-range reads as zero.
  uint64_t lane_outstanding(size_t i) const noexcept {
    return i < lanes_.size()
               ? static_cast<uint64_t>(relaxed::load(lanes_[i]->outstanding))
               : 0;
  }
  /// The codec pool (per-worker stats; see CodecPool::worker_stats).
  const dpu::CodecPool& codec_pool() const noexcept { return *pool_; }

  /// Register this proxy's occupancy probes (per-lane outstanding codec
  /// jobs, codec-ring depths, RDMA credit occupancy, per-worker busy
  /// fractions, stream-budget holds) on a resource sampler. Probes read
  /// atomics only and stay valid until the proxy is destroyed; the
  /// sampler must stop before that.
  void register_resource_probes(trace::ResourceSampler& sampler) const;

 private:
  /// One event on a lane's queue: a unary call, or one step of a
  /// streaming call's life cycle (the xRPC reader forwards stream frames
  /// here so all per-stream state stays poller-thread-only).
  struct PendingCall {
    enum class Kind : uint8_t {
      kCall,         ///< unary request (method/payload/respond)
      kStreamOpen,   ///< method/respond/stream/stream_id
      kStreamChunk,  ///< stream_id/payload
      kStreamEnd,    ///< stream_id
      kStreamAbort,  ///< stream_id/abort_code
    };
    Kind kind = Kind::kCall;
    const MethodEntry* method = nullptr;
    Bytes payload;
    xrpc::Server::Responder respond;
    std::shared_ptr<xrpc::ServerStream> stream;
    uint32_t stream_id = 0;
    Code abort_code = Code::kOk;
    /// Propagated request trace (inactive when the call is untraced) and
    /// the stamp it entered the lane queue — the lane-queue-wait span.
    trace::TraceContext trace;
    uint64_t enqueue_ns = 0;
  };
  /// One inbound streaming call, owned by its lane's poller thread.
  /// Lifecycle: created at kStreamOpen (grants the whole budget to the
  /// client), accumulates chunk bytes into `carry`, cuts whole-record
  /// pieces of at most kMaxStreamPiece bytes into kDecodeChunk jobs,
  /// reorders decoded pieces by sequence in `ready`, forwards them in
  /// order to the host as prefixed one-message RPCs, re-grants credit per
  /// host ack, and — once the
  /// end frame arrived and everything drained — sends the end marker
  /// whose response becomes the final xRPC response. Destroying the
  /// entry frees every held buffer; results still out with the pool are
  /// dropped when their cookies pop.
  struct ProxyStream {
    const MethodEntry* method = nullptr;
    std::shared_ptr<xrpc::ServerStream> stream;
    std::shared_ptr<xrpc::Server::Responder> respond;
    trace::TraceContext trace;
    uint64_t open_ns = 0;  ///< kStreamTransfer start (reader enqueue stamp)
    uint64_t end_ns = 0;   ///< end-frame arrival: transfer/drain boundary
    /// Bytes received but not yet cut at a record boundary.
    Bytes carry;
    /// Decoded pieces (prefix hole + raw bytes) awaiting in-order forward.
    std::map<uint32_t, Bytes> ready;
    uint32_t next_piece_seq = 0;    ///< assigned at kDecodeChunk submit
    uint32_t next_forward_seq = 0;  ///< next piece owed to the host
    /// Budget accounting: bytes inside the proxy (carry + cut pieces)
    /// until the host acks them; the client got exactly kStreamBudget of
    /// credit up front, so this never exceeds it.
    uint64_t held_bytes = 0;
    uint64_t total_bytes = 0;
    size_t decodes_in_pool = 0;
    size_t rpcs_in_flight = 0;
    bool ended = false;
    bool end_sent = false;
  };

  /// One connection + its dedicated poller (§III.C).
  struct Lane {
    Lane(rdmarpc::Connection* c, size_t i) : conn(c), client(c), index(i) {}
    /// The one way onto the lane: enqueue, then kick the poller out of its
    /// channel wait. Blocks while the queue is full. Once the queue is
    /// closed (stop(), or the lane died) the event's call is answered
    /// kUnavailable instead; stream frames for a dead lane are dropped
    /// (fail_pending already failed their stream).
    void post(PendingCall event) {
      if (queue.push(std::move(event))) {
        conn->interrupt();
        return;
      }
      // push() leaves the event intact when the queue is closed.
      // NOLINTNEXTLINE(bugprone-use-after-move)
      if (event.respond) event.respond(Code::kUnavailable, {});
    }
    rdmarpc::Connection* conn;
    rdmarpc::RpcClient client;
    size_t index;
    BoundedQueue<PendingCall> queue{1024};
    /// Set by fail_pending just before it closes `queue`: handle_call skips
    /// dead lanes without taking the queue's lock on every call.
    std::atomic<bool> dead{false};
    std::thread thread;
    std::atomic<uint64_t> forwarded{0};
    // Poller-thread-only state (submission and completion both happen on
    // the lane's poller; the pool only sees opaque cookies). `outstanding`
    // counts stream pieces out with the pool — the budget that keeps the
    // completion ring drainable. Atomic (single writer: the poller) only
    // so the resource sampler can watch it from outside the lane.
    uint64_t next_cookie = 0;
    std::atomic<size_t> outstanding{0};
    /// Live streams owned by this lane, keyed by proxy-wide stream id.
    std::unordered_map<uint32_t, std::unique_ptr<ProxyStream>> streams;
    /// kDecodeChunk cookie → (stream id, piece sequence). Kept separate
    /// from the stream entry so a result whose stream already died still
    /// retires its pool-budget slot (and its buffers free right here).
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> pending_chunks;
  };

  void poller_loop(Lane& lane);
  /// xRPC reader thread: route a CallContext to a lane (unary call or
  /// stream open + per-frame events).
  void handle_call(xrpc::CallContext ctx);
  /// Poller: one lane-queue event. Non-ok only on unrecoverable datapath
  /// failure (per-stream failures fail only that stream).
  Status dispatch_event(Lane& lane, PendingCall event);
  void open_stream(Lane& lane, PendingCall event);
  void stream_chunk(Lane& lane, PendingCall event);
  void stream_end(Lane& lane, PendingCall event);
  void stream_abort(Lane& lane, uint32_t stream_id);
  /// Cut whole-record pieces of at most kMaxStreamPiece bytes out of the
  /// stream's carry buffer and submit them to the pool as kDecodeChunk
  /// jobs (inline-validate spill when the ring/budget is full). Non-ok
  /// fails the stream, not the lane: kOutOfRange for a record larger than
  /// a piece, kInvalidArgument for a malformed one.
  Status scan_and_submit(Lane& lane, uint32_t stream_id);
  /// Completion of a kDecodeChunk job: stage the piece in `ready` and
  /// forward everything now in order.
  void chunk_decoded(Lane& lane, dpu::CodecResult result);
  /// Forward in-order ready pieces to the host, one RpcClient::call each;
  /// each host ack releases budget and re-grants client credit.
  void forward_ready(Lane& lane, uint32_t stream_id);
  /// Host acked one forwarded piece (RPC continuation, poller thread).
  void stream_chunk_acked(Lane& lane, uint32_t stream_id,
                          uint64_t payload_bytes, const Status& rpc_result);
  /// Everything drained after the end frame → send the end marker; its
  /// response completes the xRPC call.
  void maybe_finish_stream(Lane& lane, uint32_t stream_id);
  /// Fail the stream to the client and drop every held buffer.
  void fail_stream(Lane& lane, uint32_t stream_id, const Status& why);
  /// Retire a dying stream's held bytes from stats_.stream_held_bytes.
  /// Every path that erases a ProxyStream must pass through this, or the
  /// proxy-wide gauge leaks the stream's unacked bytes forever.
  void retire_stream_hold(ProxyStream& ps) noexcept;
  /// Decode a unary request straight into the send block on the lane
  /// thread (§V) and fire the RPC. A request that cannot fit a block fails
  /// only its own call. Returns non-ok when the proxy stops or on
  /// unrecoverable datapath failure (the call is answered either way).
  Status forward(Lane& lane, PendingCall call);
  /// The lane's one backpressure path. Runs `send` until it goes through
  /// or fails with something other than backpressure (kUnavailable or
  /// kResourceExhausted: no credit, no request ID, send buffer full), and
  /// returns that result. Between tries it pumps the event loop once and,
  /// when nothing moved, sleeps (lane_sleep). Returns kUnavailable once
  /// the proxy stops, or the event loop's failure.
  template <typename Send>
  Status send_with_backpressure(Lane& lane, Send&& send);
  /// The lane's one sleep: a timed wait (kLaneWaitMs) on the connection's
  /// channel, spinning first for up to kLaneSpinNs while calls are in
  /// flight to the host.
  void lane_sleep(Lane& lane);
  /// Shared RPC continuation tail: error → error reply; in-place object →
  /// serialize it on the lane, straight from the receive block; bytes →
  /// pass through.
  void complete_response(const std::shared_ptr<xrpc::Server::Responder>& respond,
                         const trace::TraceContext& tctx, const Status& result,
                         const rdmarpc::InMessage& resp);
  /// The lane's way out: close its queue, answer every queued call and
  /// stream open with kUnavailable, and fail every stream still open.
  void fail_pending(Lane& lane);

  const OffloadManifest* manifest_;
  adt::ArenaDeserializer deserializer_;
  adt::ObjectSerializer serializer_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<dpu::CodecPool> pool_;
  std::atomic<uint64_t> next_lane_{0};
  /// Stream ids are assigned on the xRPC reader thread (they key the
  /// per-frame events) from one proxy-wide counter, so they are unique
  /// across lanes and never zero.
  std::atomic<uint64_t> next_stream_id_{0};
  std::unique_ptr<xrpc::Server> xrpc_server_;
  std::atomic<bool> stopping_{false};
  DpuProxyStats stats_;
};

}  // namespace dpurpc::grpccompat

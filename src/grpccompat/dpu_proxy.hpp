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
// The codec itself is sharded off the lanes onto a full-duplex CodecPool
// sized from the DPU core count. Request direction: the poller hands the
// wire bytes to the pool through a per-lane ring, the worker decodes into
// a private fully-local scratch slice, and the poller memcpys the
// finished slice into the send block and relocates its pointers into host
// space. Response direction: when the host answers with an in-place
// object, the poller copies the object out of the receive block into a
// fully-local slice (the block is acked as soon as the continuation
// returns), hands it to the pool as an encode descriptor, and a worker
// runs the compiled serialize plan; the poller then only has to hand the
// finished wire bytes to the xRPC responder. A lane whose codec work is
// slow therefore queues against the pool, not against its siblings, and
// idle workers steal the backlog. When the pool is parked and the lane
// has nothing else to do, the lane runs a unary job itself (decode
// straight into the send block, serialize straight from the receive
// block) rather than pay two wakeups for it — see run_on_lane().
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

/// Where each codec job ran. Every unary request decodes exactly once:
/// on a pool worker, on the lane because the pool was parked
/// (lane_run_decodes), or on the lane as overload spill (inline_decodes).
/// In-place object replies split the same way.
struct DpuProxyStats {
  std::atomic<uint64_t> offloaded_requests{0};
  std::atomic<uint64_t> deserialize_failures{0};
  std::atomic<uint64_t> responses_forwarded{0};
  /// Requests decoded on the lane thread because the pool ring was full
  /// (overload spill; the pre-sharding behavior). Overload only: the
  /// parked-pool case counts in lane_run_decodes.
  std::atomic<uint64_t> inline_decodes{0};
  /// Requests decoded on the lane thread, straight into the send block,
  /// because every pool worker was parked and nothing else was waiting
  /// (the hand-off rule, DESIGN.md §3.14).
  std::atomic<uint64_t> lane_run_decodes{0};
  /// In-place object responses serialized by the codec pool.
  std::atomic<uint64_t> offloaded_responses{0};
  /// In-place object responses serialized on the lane thread because the
  /// pool ring (or the per-lane outstanding budget) was full. Overload
  /// only, like inline_decodes.
  std::atomic<uint64_t> inline_serializes{0};
  /// In-place object responses serialized on the lane thread, straight
  /// from the receive block, under the same hand-off rule as
  /// lane_run_decodes.
  std::atomic<uint64_t> lane_run_serializes{0};
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

/// Per-stream resource policy (set_stream_options, before start()).
struct StreamOptions {
  /// Byte-credit window granted to the client at open; the proxy never
  /// holds more than this per stream — further credit is granted only as
  /// the host acks forwarded chunks (the backpressure chain's middle
  /// link: xRPC credit → this budget → RDMA block credits).
  size_t per_stream_budget = 1u << 20;
  /// Decoded-piece size target: the boundary scan cuts the stream into
  /// whole-record pieces of roughly this many bytes per kDecodeChunk job.
  size_t piece_target = 160u << 10;
  /// Hard cap on one piece (a single wire record larger than this aborts
  /// the stream — it could never decode within the pool's slice cap).
  size_t max_decoded_chunk = 2u << 20;
};

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

  /// Override the per-stream resource policy. Call before start().
  void set_stream_options(const StreamOptions& options) {
    stream_options_ = options;
  }
  const StreamOptions& stream_options() const noexcept {
    return stream_options_;
  }

  const DpuProxyStats& stats() const noexcept { return stats_; }
  size_t lane_count() const noexcept { return lanes_.size(); }
  /// Requests forwarded through lane `i` (load-balance introspection).
  /// Safe against racing monitor reads at any time: out-of-range lanes
  /// (including a size observed mid-shutdown) read as zero rather than
  /// throwing.
  uint64_t lane_requests(size_t i) const noexcept {
    return i < lanes_.size() ? relaxed::load(lanes_[i]->forwarded) : 0;
  }
  /// Codec jobs lane `i` currently has out with the pool (its share of
  /// the outstanding budget). Same monitor-read contract as
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
  /// A call whose payload is out with the codec pool's decode direction;
  /// keyed by cookie.
  struct PendingDecode {
    const MethodEntry* method;
    xrpc::Server::Responder respond;
    trace::TraceContext trace;
  };
  /// A reply whose object is out with the codec pool's encode direction;
  /// keyed by cookie (the cookie space is shared with decodes but the
  /// maps are separate, so no collision is possible).
  struct PendingEncode {
    std::shared_ptr<xrpc::Server::Responder> respond;
    trace::TraceContext trace;
  };

  /// One inbound streaming call, owned by its lane's poller thread.
  /// Lifecycle: created at kStreamOpen (grants the whole budget to the
  /// client), accumulates chunk bytes into `carry`, cuts whole-record
  /// pieces into kDecodeChunk jobs, reorders decoded pieces by sequence
  /// in `ready`, forwards them in order to the host as prefixed
  /// (fragmented) RPCs, re-grants credit per host ack, and — once the
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
    /// until the host acks them; the client got exactly
    /// per_stream_budget of credit up front, so this never exceeds it.
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
    rdmarpc::Connection* conn;
    rdmarpc::RpcClient client;
    size_t index;
    BoundedQueue<PendingCall> queue{1024};
    std::thread thread;
    std::atomic<uint64_t> forwarded{0};
    // Poller-thread-only state (submission and completion both happen on
    // the lane's poller; the pool only sees opaque cookies). `outstanding`
    // counts both kinds together — the budget that keeps the shared
    // completion ring drainable. Atomic (single writer: the poller) only
    // so the resource sampler can watch it from outside the lane.
    uint64_t next_cookie = 0;
    std::atomic<size_t> outstanding{0};
    std::unordered_map<uint64_t, PendingDecode> pending;
    std::unordered_map<uint64_t, PendingEncode> pending_encodes;
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
  /// Cut whole-record pieces out of the stream's carry buffer and submit
  /// them to the pool as kDecodeChunk jobs (inline-validate spill when
  /// the ring/budget is full). Non-ok fails the stream, not the lane.
  Status scan_and_submit(Lane& lane, uint32_t stream_id);
  /// Completion of a kDecodeChunk job: stage the piece in `ready` and
  /// forward everything now in order.
  void chunk_decoded(Lane& lane, dpu::CodecResult result);
  /// Forward in-order ready pieces to the host (call_fragmented); each
  /// host ack releases budget and re-grants client credit.
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
  /// The hand-off rule: true when the lane should run a unary codec job
  /// itself — every pool worker is parked, this lane has no job out with
  /// the pool, and nothing waits in its queue. A handoff would then only
  /// pay a worker wakeup and a poller wakeup for well under a
  /// microsecond of codec work. Lock-free.
  bool run_on_lane(const Lane& lane) const noexcept;
  /// Hand a call's decode to the pool, or decode it on the lane (the
  /// hand-off rule, or a full ring). Returns non-ok only on unrecoverable
  /// datapath failure.
  Status submit_decode(Lane& lane, PendingCall call);
  /// Ship a pool-decoded slice: copy into the send block, relocate its
  /// pointers to host space, and fire the RPC.
  Status forward_decoded(Lane& lane, dpu::CodecResult result);
  /// Decode straight into the send block on the lane thread (§V): the
  /// lane-run path, and the overload spill.
  Status forward(Lane& lane, PendingCall call);
  /// Shared RPC continuation tail: error → error reply; in-place object →
  /// encode offload, or serialize on the lane (hand-off rule or spill);
  /// bytes → pass through.
  void complete_response(Lane& lane,
                         const std::shared_ptr<xrpc::Server::Responder>& respond,
                         const trace::TraceContext& tctx, const Status& result,
                         const rdmarpc::InMessage& resp);
  /// Copy an in-place response object out of the receive block into a
  /// fully-local slice and hand it to the pool as an encode job. False
  /// when the job could not be submitted (budget/ring full, copy failed):
  /// the caller serializes inline.
  bool submit_encode(Lane& lane,
                     const std::shared_ptr<xrpc::Server::Responder>& respond,
                     const trace::TraceContext& tctx,
                     const rdmarpc::InMessage& resp, uint64_t submit_ns);
  /// Deliver a pool-serialized reply to its xRPC responder.
  void finish_encoded(Lane& lane, dpu::CodecResult result);
  /// Fail every call still waiting on a pool job (shutdown/teardown).
  void fail_pending(Lane& lane);

  const OffloadManifest* manifest_;
  adt::ArenaDeserializer deserializer_;
  adt::ObjectSerializer serializer_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<dpu::CodecPool> pool_;
  StreamOptions stream_options_;
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

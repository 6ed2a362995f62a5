#include "grpccompat/dpu_proxy.hpp"

#include <algorithm>
#include <cstring>

#include "arena/arena.hpp"
#include "common/cpu_timer.hpp"
#include "common/hot_path.hpp"
#include "trace/resource_sampler.hpp"

namespace dpurpc::grpccompat {

namespace {
// Per-lane cap on stream pieces out with the pool. Half the pool ring so
// the completion ring (same capacity) can always absorb every outstanding
// result even across the ring's power-of-two rounding.
constexpr size_t kMaxOutstandingJobs = 128;
constexpr size_t kCodecRingCapacity = 256;
// Slice cap for the pool: stream pieces are at most kMaxStreamPiece
// bytes and can inflate ~8x on decode. Slices are sized from the wire
// first and only grow to the cap on arena exhaustion.
constexpr size_t kPoolSliceCap = 4u << 20;
// The lane's one sleep: its connection's completion channel, woken by
// Lane::post, codec completions, RDMA completions and stop(). The timeout
// is a measured wake-latency choice, not a lost-wakeup backstop (channel
// events are sticky): on a 4-vCPU VM an untimed wait moved perfbench
// small_unary's light p50 from 21.9 to 26.2 µs (worse in 8 of 8
// alternating pairs) and cost 5 % of capacity.
constexpr int kLaneWaitMs = 1;
// While the host holds one of the lane's calls, the lane spins this long
// on its channel before it sleeps, so the host's response finds it awake:
// the host thread pays no FUTEX_WAKE and the reply loses a wake. A small
// call's RDMA round trip is ~15–26 µs in the deployment on a 4-vCPU VM.
constexpr uint64_t kLaneSpinNs = 30'000;

/// One protobuf varint at the front of [p, p+n). Returns its byte
/// length; 0 when the buffer ends mid-varint (caller decides between
/// "need more bytes" and "malformed" from how much it already has).
size_t read_varint(const std::byte* p, size_t n, uint64_t* out) {
  uint64_t v = 0;
  size_t limit = std::min<size_t>(n, 10);
  for (size_t i = 0; i < limit; ++i) {
    uint8_t b = static_cast<uint8_t>(p[i]);
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *out = v;
      return i + 1;
    }
  }
  return 0;
}

constexpr size_t kMalformedRecord = SIZE_MAX;

/// Length of the complete top-level protobuf record at the front of
/// `data`: 0 = incomplete (need more bytes), kMalformedRecord = the
/// bytes can never parse. Repeated *message* fields are consecutive
/// such records, which is what makes the stream splittable here —
/// concatenation of record subsets is protobuf merge semantics.
size_t record_length(ByteSpan data) {
  uint64_t tag = 0;
  size_t tag_len = read_varint(data.data(), data.size(), &tag);
  if (tag_len == 0) return data.size() >= 10 ? kMalformedRecord : 0;
  if ((tag >> 3) == 0) return kMalformedRecord;  // field number 0
  switch (tag & 7u) {
    case 0: {  // varint
      uint64_t v = 0;
      size_t n = read_varint(data.data() + tag_len, data.size() - tag_len, &v);
      if (n == 0) {
        return data.size() - tag_len >= 10 ? kMalformedRecord : 0;
      }
      return tag_len + n;
    }
    case 1:  // fixed64
      return data.size() < tag_len + 8 ? 0 : tag_len + 8;
    case 2: {  // length-delimited
      uint64_t len = 0;
      size_t n = read_varint(data.data() + tag_len, data.size() - tag_len, &len);
      if (n == 0) {
        return data.size() - tag_len >= 10 ? kMalformedRecord : 0;
      }
      if (len > (1u << 31)) return kMalformedRecord;
      uint64_t total = tag_len + n + len;
      return total > data.size() ? 0 : static_cast<size_t>(total);
    }
    case 5:  // fixed32
      return data.size() < tag_len + 4 ? 0 : tag_len + 4;
    default:  // wire types 3/4 (groups): unsupported
      return kMalformedRecord;
  }
}

/// A stream record that cannot travel as one RDMA message fails its
/// stream, as an oversized unary request fails its call.
Status oversized_record() {
  return Status(Code::kOutOfRange, "stream record exceeds one RDMA message");
}

/// Monotone max on a relaxed stats cell (pollers race across lanes).
void note_peak(std::atomic<uint64_t>& cell, uint64_t value) {
  // dpulint: allow(relaxed-atomic): monitor-only monotone max — the cell is
  // a stats high-water mark read by tests/benches after quiescence; no data
  // is published through it, so relaxed CAS is the whole protocol.
  uint64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         // dpulint: allow(relaxed-atomic): same monitor-only max protocol.
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}
}  // namespace

DpuProxy::DpuProxy(rdmarpc::Connection* conn, const OffloadManifest* manifest,
                   adt::CodecOptions options)
    : DpuProxy(std::vector<rdmarpc::Connection*>{conn}, manifest, options) {}

DpuProxy::DpuProxy(const std::vector<rdmarpc::Connection*>& conns,
                   const OffloadManifest* manifest, adt::CodecOptions options,
                   int codec_workers)
    : manifest_(manifest),
      deserializer_(&manifest->adt(), options),
      serializer_(&manifest->adt(), options) {
  for (auto* conn : conns) {
    lanes_.push_back(std::make_unique<Lane>(conn, lanes_.size()));
  }
  dpu::CodecPool::Options pool_options;
  pool_options.workers = codec_workers;
  pool_options.ring_capacity = kCodecRingCapacity;
  pool_options.max_slice_bytes = kPoolSliceCap;
  // Decode-only: replies serialize on the lane (complete_response).
  pool_ = std::make_unique<dpu::CodecPool>(
      &deserializer_, /*serializer=*/nullptr, lanes_.size(), pool_options,
      // Completion wakeup: runs on the worker thread; interrupt() kicks
      // the lane poller out of conn->wait().
      [this](size_t lane) { lanes_[lane]->conn->interrupt(); });
}

DpuProxy::~DpuProxy() { stop(); }

StatusOr<uint16_t> DpuProxy::start() {
  auto server = xrpc::Server::start(
      xrpc::CallHandler([this](xrpc::CallContext ctx) { handle_call(std::move(ctx)); }));
  if (!server.is_ok()) return server.status();
  xrpc_server_ = std::move(*server);
  pool_->start();
  for (auto& lane : lanes_) {
    lane->thread = std::thread([this, lane = lane.get()] { poller_loop(*lane); });
  }
  return xrpc_server_->port();
}

void DpuProxy::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // Close the lanes before the xRPC server joins its reader threads: a
  // reader blocked in post() on a full lane queue is released, and a lane
  // in its backpressure routine wakes, sees stopping_ and answers
  // kUnavailable. Readers that post after this point drop their events.
  for (auto& lane : lanes_) {
    lane->queue.close();
    lane->conn->interrupt();
  }
  if (xrpc_server_) xrpc_server_->shutdown();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  // After the pollers: workers may be mid-job until here, and their
  // completion pushes bail out once the pool's stop flag is up. Results
  // still in the rings are freed with the pool; their calls were already
  // failed out by fail_pending on poller exit.
  pool_->stop();
}

void DpuProxy::handle_call(xrpc::CallContext ctx) {
  uint64_t t0 = ctx.trace.active() ? WallTimer::now() : 0;
  const MethodEntry* entry = manifest_->find_by_name(ctx.method);
  if (entry == nullptr) {
    // dpulint: allow(trace-pairing): unknown method — rejected before
    // any stage span exists, so there is no kComplete to record.
    ctx.respond(Code::kNotFound, {});
    return;
  }
  // Round-robin across live poller lanes (§III.C: dedicated poller per
  // connection); post() wakes the lane if it sleeps on its channel. A lane
  // whose datapath failed leaves the rotation; a post that races its
  // exit is answered by post() itself.
  Lane* lane = nullptr;
  for (size_t i = 0; i < lanes_.size() && lane == nullptr; ++i) {
    Lane* next = lanes_[relaxed::add(next_lane_, 1) % lanes_.size()].get();
    if (!relaxed::load(next->dead)) lane = next;
  }
  if (lane == nullptr) {
    // dpulint: allow(trace-pairing): no lane left — the call never
    // reached the datapath, so no kComplete span exists.
    ctx.respond(Code::kUnavailable, {});
    return;
  }
  uint64_t enqueue_ns = 0;
  if (ctx.trace.active()) {
    // Method lookup + lane selection, on the xRPC reader thread. It ends
    // where the lane-queue-wait span starts (enqueue_ns), so the queue
    // push is not counted twice. Recorded before the post: once the lane
    // has the call, the reply can reach the client and complete the trace
    // while this reader is still preempted here.
    enqueue_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kProxyDispatch, ctx.trace,
                                     t0, enqueue_ns);
  }
  if (ctx.is_stream()) {
    // A stream pins its lane: every event for it must reach the same
    // poller, in arrival order — which the per-lane FIFO queue gives us
    // for free (the open is pushed below, before this reader thread can
    // see any chunk frame for the call).
    const uint32_t sid =
        static_cast<uint32_t>(relaxed::add(next_stream_id_, 1)) + 1;
    const bool traced = ctx.trace.active();
    ctx.stream->on_chunk([lane, sid](Bytes chunk) {
      PendingCall ev;
      ev.kind = PendingCall::Kind::kStreamChunk;
      ev.stream_id = sid;
      ev.payload = std::move(chunk);
      lane->post(std::move(ev));
    });
    ctx.stream->on_end([lane, sid, traced] {
      PendingCall ev;
      ev.kind = PendingCall::Kind::kStreamEnd;
      ev.stream_id = sid;
      // End-frame arrival stamp: the kStreamTransfer/kStreamDrainWait
      // boundary.
      ev.enqueue_ns = traced ? WallTimer::now() : 0;
      lane->post(std::move(ev));
    });
    ctx.stream->on_abort([lane, sid](Code code) {
      PendingCall ev;
      ev.kind = PendingCall::Kind::kStreamAbort;
      ev.stream_id = sid;
      ev.abort_code = code;
      lane->post(std::move(ev));
    });
    PendingCall open;
    open.kind = PendingCall::Kind::kStreamOpen;
    open.method = entry;
    open.respond = std::move(ctx.respond);
    open.stream = std::move(ctx.stream);
    open.stream_id = sid;
    open.trace = ctx.trace;
    open.enqueue_ns = enqueue_ns;
    lane->post(std::move(open));
  } else {
    PendingCall call;
    call.method = entry;
    call.payload = std::move(ctx.payload);
    call.respond = std::move(ctx.respond);
    call.trace = ctx.trace;
    call.enqueue_ns = enqueue_ns;
    lane->post(std::move(call));
  }
}

Status DpuProxy::dispatch_event(Lane& lane, PendingCall event) {
  switch (event.kind) {
    case PendingCall::Kind::kCall:
      return forward(lane, std::move(event));
    case PendingCall::Kind::kStreamOpen:
      open_stream(lane, std::move(event));
      return Status::ok();
    case PendingCall::Kind::kStreamChunk:
      stream_chunk(lane, std::move(event));
      return Status::ok();
    case PendingCall::Kind::kStreamEnd:
      stream_end(lane, std::move(event));
      return Status::ok();
    case PendingCall::Kind::kStreamAbort:
      relaxed::add(stats_.stream_aborts, 1);
      stream_abort(lane, event.stream_id);
      return Status::ok();
  }
  return Status::ok();
}

void DpuProxy::open_stream(Lane& lane, PendingCall event) {
  auto ps = std::make_unique<ProxyStream>();
  ps->method = event.method;
  ps->stream = std::move(event.stream);
  ps->respond =
      std::make_shared<xrpc::Server::Responder>(std::move(event.respond));
  ps->trace = event.trace;
  ps->open_ns = event.enqueue_ns;
  xrpc::ServerStream* stream = ps->stream.get();
  lane.streams.emplace(event.stream_id, std::move(ps));
  // Open the credit window: the client may ship up to the whole budget
  // before the first host ack re-grants — the proxy-side bound on held
  // bytes falls straight out of this being the only unearned credit.
  (void)stream->grant(static_cast<uint32_t>(kStreamBudget));
}

void DpuProxy::stream_chunk(Lane& lane, PendingCall event) {
  auto it = lane.streams.find(event.stream_id);
  if (it == lane.streams.end()) return;  // failed/aborted: drop quietly
  ProxyStream& ps = *it->second;
  ps.held_bytes += event.payload.size();
  ps.total_bytes += event.payload.size();
  relaxed::add(stats_.stream_held_bytes, event.payload.size());
  note_peak(stats_.stream_peak_bytes, ps.held_bytes);
  ps.carry.insert(ps.carry.end(), event.payload.begin(), event.payload.end());
  event.payload = Bytes();
  Status st = scan_and_submit(lane, event.stream_id);
  if (!st.is_ok()) {
    fail_stream(lane, event.stream_id, st);
    return;
  }
  forward_ready(lane, event.stream_id);
}

void DpuProxy::stream_end(Lane& lane, PendingCall event) {
  auto it = lane.streams.find(event.stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  ps.ended = true;
  ps.end_ns = event.enqueue_ns;
  if (ps.trace.active()) {
    // Client-paced transfer: open event → end-frame arrival. Chunk wire
    // time, credit stalls, and pool decode overlap all live in here;
    // per-piece decode cost shows on the kWorkerDecodeChunk global track.
    trace::Tracer::instance().record(trace::Stage::kStreamTransfer, ps.trace,
                                     ps.open_ns, ps.end_ns, ps.total_bytes);
  }
  Status st = scan_and_submit(lane, event.stream_id);
  if (!st.is_ok()) {
    fail_stream(lane, event.stream_id, st);
    return;
  }
  forward_ready(lane, event.stream_id);
  maybe_finish_stream(lane, event.stream_id);
}

void DpuProxy::stream_abort(Lane& lane, uint32_t stream_id) {
  // Client aborted (or its connection died): no response owed. Dropping
  // the entry frees carry/ready; chunk jobs still out with the pool are
  // dropped when their cookies pop in chunk_decoded.
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  retire_stream_hold(*it->second);
  lane.streams.erase(it);
}

void DpuProxy::retire_stream_hold(ProxyStream& ps) noexcept {
  relaxed::sub(stats_.stream_held_bytes, ps.held_bytes);
  ps.held_bytes = 0;
}

DPURPC_HOT_PATH Status DpuProxy::scan_and_submit(Lane& lane, uint32_t stream_id) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return Status::ok();
  ProxyStream& ps = *it->second;
  // Hand [piece_start, end) to the pool as one kDecodeChunk job, with the
  // prefix hole up front — the same buffer goes pool → ready → host
  // without another copy.
  auto submit_piece = [&](size_t piece_start, size_t end) -> Status {
    const size_t piece_bytes = end - piece_start;
    // dpulint: allow(hot-path): the one designed allocation per piece —
    // the prefix-holed buffer that travels pool → ready → host without
    // another copy.
    Bytes buf(kStreamPrefixSize + piece_bytes);
    std::memcpy(buf.data() + kStreamPrefixSize, ps.carry.data() + piece_start,
                piece_bytes);
    const uint32_t seq = ps.next_piece_seq++;
    dpu::CodecJob job;
    job.kind = dpu::JobKind::kDecodeChunk;
    job.class_index = ps.method->input_class;
    job.cookie = ++lane.next_cookie;
    job.wire = std::move(buf);
    job.wire_offset = kStreamPrefixSize;
    if (relaxed::load(lane.outstanding) < kMaxOutstandingJobs &&
        pool_->submit(lane.index, job)) {
      lane.pending_chunks.emplace(job.cookie, std::make_pair(stream_id, seq));
      relaxed::add(lane.outstanding, 1);
      ++ps.decodes_in_pool;
      return Status::ok();
    }
    // Ring/budget full: validate-decode on the lane thread (overload
    // spill) and stage the piece as ready directly.
    relaxed::add(stats_.inline_decodes, 1);
    Bytes piece = std::move(job.wire);
    ByteSpan view(piece.data() + kStreamPrefixSize, piece_bytes);
    // dpulint: allow(hot-path): overload spill — ring/budget full, so the
    // lane thread validate-decodes inline (arena + deserializer allocate);
    // counted in inline_decodes, same posture as the pool's spill decode.
    arena::OwningArena scratch(piece_bytes * 8 + 1024);
    arena::AddressTranslator local{};
    // dpulint: allow(hot-path): same overload spill as above.
    auto obj = deserializer_.deserialize(ps.method->input_class, view, scratch,
                                         local);
    if (!obj.is_ok()) return obj.status();
    relaxed::add(stats_.stream_chunks, 1);
    ps.ready.emplace(seq, std::move(piece));
    return Status::ok();
  };
  size_t pos = 0;
  size_t piece_start = 0;
  // Close each piece at the last record boundary that keeps it within
  // kMaxStreamPiece, so it travels as exactly one RDMA message. Complete
  // records short of a full piece and a trailing partial record stay in
  // carry for the next chunk (or the end frame).
  while (pos < ps.carry.size()) {
    size_t rl = record_length(ByteSpan(ps.carry).subspan(pos));
    if (rl == kMalformedRecord) {
      return Status(Code::kInvalidArgument, "malformed stream chunk");
    }
    if (rl == 0) {
      // Incomplete record: once more than a piece of it is here, no
      // amount of further chunks makes it fit one message.
      if (ps.carry.size() - pos > kMaxStreamPiece) return oversized_record();
      break;
    }
    if (rl > kMaxStreamPiece) return oversized_record();
    if (pos + rl - piece_start > kMaxStreamPiece) {
      DPURPC_RETURN_IF_ERROR(submit_piece(piece_start, pos));
      piece_start = pos;
    }
    pos += rl;
  }
  if (ps.ended && pos == ps.carry.size() && pos > piece_start) {
    DPURPC_RETURN_IF_ERROR(submit_piece(piece_start, pos));
    piece_start = pos;
  }
  ps.carry.erase(ps.carry.begin(),
                 ps.carry.begin() + static_cast<ptrdiff_t>(piece_start));
  if (ps.ended && !ps.carry.empty()) {
    return Status(Code::kInvalidArgument, "stream ended mid-record");
  }
  return Status::ok();
}

void DpuProxy::chunk_decoded(Lane& lane, dpu::CodecResult result) {
  auto cit = lane.pending_chunks.find(result.cookie);
  if (cit == lane.pending_chunks.end()) return;
  auto [stream_id, seq] = cit->second;
  lane.pending_chunks.erase(cit);
  relaxed::sub(lane.outstanding, 1);
  auto sit = lane.streams.find(stream_id);
  if (sit == lane.streams.end()) return;  // stream died: buffers free here
  ProxyStream& ps = *sit->second;
  --ps.decodes_in_pool;
  if (!result.status.is_ok()) {
    relaxed::add(stats_.deserialize_failures, 1);
    fail_stream(lane, stream_id, result.status);
    return;
  }
  relaxed::add(stats_.stream_chunks, 1);
  // The decoded tree (result.slice) was the DPU's work product; what the
  // host needs is the validated wire piece, echoed back in result.wire
  // with its prefix hole intact. The slice frees right here.
  ps.ready.emplace(seq, std::move(result.wire));
  forward_ready(lane, stream_id);
  maybe_finish_stream(lane, stream_id);
}

template <typename Send>
Status DpuProxy::send_with_backpressure(Lane& lane, Send&& send) {
  for (;;) {
    Status st = send();
    if (st.code() != Code::kUnavailable && st.code() != Code::kResourceExhausted) {
      return st;
    }
    if (relaxed::load(stopping_)) {
      return Status(Code::kUnavailable, "proxy stopping");
    }
    auto pumped = lane.client.event_loop_once();
    // Replies the pump completed go now, not after the backpressure ends.
    xrpc::WriteBatch::current()->flush();
    if (!pumped.is_ok()) return pumped.status();
    if (*pumped == 0) lane_sleep(lane);
  }
}

void DpuProxy::lane_sleep(Lane& lane) {
  // No reply is held across a sleep.
  xrpc::WriteBatch::current()->flush();
  lane.conn->wait(kLaneWaitMs, lane.client.in_flight() > 0 ? kLaneSpinNs : 0);
}

void DpuProxy::forward_ready(Lane& lane, uint32_t stream_id) {
  // The backpressure routine pumps the event loop between tries, so
  // continuations (host acks, even failures that erase this very stream)
  // can run inside a send — always re-find the stream, never cache a
  // reference across one.
  for (;;) {
    auto sit = lane.streams.find(stream_id);
    if (sit == lane.streams.end()) return;
    ProxyStream& ps = *sit->second;
    auto rit = ps.ready.find(ps.next_forward_seq);
    if (rit == ps.ready.end()) return;
    Bytes piece = std::move(rit->second);
    ps.ready.erase(rit);
    const uint32_t seq = ps.next_forward_seq++;
    const uint64_t payload_bytes = piece.size() - kStreamPrefixSize;
    write_stream_prefix(piece.data(), StreamPrefix{stream_id, seq, 0, 0});
    // Counted before the send: acks of earlier pieces can run inside its
    // backpressure pump, and the end marker must not overtake this piece.
    ++ps.rpcs_in_flight;
    const uint16_t method_id = ps.method->method_id;
    const uint64_t fwd_t0 = trace::enabled() ? WallTimer::now() : 0;
    Status st = send_with_backpressure(lane, [&] {
      if (lane.streams.count(stream_id) == 0) {
        return Status(Code::kAborted, "stream failed while back-pressured");
      }
      // One piece, one message; pieces travel untraced (the stream's
      // trace rides its end marker).
      return lane.client.call(
          method_id, ByteSpan(piece),
          [this, lane = &lane, stream_id, payload_bytes, fwd_t0](
              const Status& rpc_result, const rdmarpc::InMessage&) {
            if (fwd_t0 != 0) {
              // Per-piece forward RPCs share one stream trace, so the span
              // goes on the global track (like kWorkerDecodeChunk) — a
              // per-trace span per piece would break the tiling invariant.
              trace::Tracer::instance().record_global(
                  trace::Stage::kStreamChunkForward, fwd_t0, WallTimer::now(),
                  payload_bytes);
            }
            stream_chunk_acked(*lane, stream_id, payload_bytes, rpc_result);
          });
    });
    if (!st.is_ok()) {
      fail_stream(lane, stream_id, st);  // no-op if the stream already died
      return;
    }
    relaxed::add(stats_.stream_bytes, payload_bytes);
    relaxed::add(lane.forwarded, 1);
  }
}

void DpuProxy::stream_chunk_acked(Lane& lane, uint32_t stream_id,
                                  uint64_t payload_bytes,
                                  const Status& rpc_result) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  --ps.rpcs_in_flight;
  if (!rpc_result.is_ok()) {
    fail_stream(lane, stream_id, rpc_result);
    return;
  }
  // The host consumed the piece: release its budget and hand the freed
  // window back to the client — the grant that keeps the sender moving.
  uint64_t released = std::min<uint64_t>(ps.held_bytes, payload_bytes);
  ps.held_bytes -= released;
  relaxed::sub(stats_.stream_held_bytes, released);
  (void)ps.stream->grant(static_cast<uint32_t>(
      std::min<uint64_t>(payload_bytes, UINT32_MAX)));
  maybe_finish_stream(lane, stream_id);
}

void DpuProxy::maybe_finish_stream(Lane& lane, uint32_t stream_id) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  if (!ps.ended || ps.end_sent || !ps.carry.empty() || !ps.ready.empty() ||
      ps.decodes_in_pool != 0 || ps.rpcs_in_flight != 0) {
    return;
  }
  ps.end_sent = true;
  if (ps.trace.active()) {
    // End frame → last piece acked by the host: the pool/RDMA drain tail
    // that keeps running after the client stopped sending.
    trace::Tracer::instance().record(trace::Stage::kStreamDrainWait, ps.trace,
                                     ps.end_ns, WallTimer::now(),
                                     ps.total_bytes);
  }
  // End marker: a bare prefix whose response is the stream's final xRPC
  // response. It rides the normal unary continuation tail, so offloaded
  // object responses and kComplete pairing come along unchanged.
  Bytes marker(kStreamPrefixSize);
  write_stream_prefix(marker.data(), StreamPrefix{stream_id, ps.next_piece_seq,
                                                  kStreamPrefixEnd, 0});
  auto respond = ps.respond;
  trace::TraceContext tctx = ps.trace;
  uint16_t method_id = ps.method->method_id;
  ++ps.rpcs_in_flight;  // keeps the entry pinned until the continuation
  Status st = send_with_backpressure(lane, [&] {
    if (lane.streams.count(stream_id) == 0) {
      return Status(Code::kAborted, "stream failed while back-pressured");
    }
    return lane.client.call(
        method_id, ByteSpan(marker),
        [this, lane = &lane, stream_id, respond, tctx](
            const Status& rpc_result, const rdmarpc::InMessage& resp) {
          auto sit = lane->streams.find(stream_id);
          if (sit != lane->streams.end()) {
            retire_stream_hold(*sit->second);
            lane->streams.erase(sit);
          }
          complete_response(*lane, respond, tctx, rpc_result, resp);
        },
        tctx);
  });
  if (!st.is_ok()) fail_stream(lane, stream_id, st);  // no-op if already dead
}

void DpuProxy::fail_stream(Lane& lane, uint32_t stream_id, const Status& why) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  auto respond = it->second->respond;
  retire_stream_hold(*it->second);
  lane.streams.erase(it);
  relaxed::add(stats_.stream_aborts, 1);
  // dpulint: allow(trace-pairing): failed stream — dropped before
  // completing a datapath traversal, so no kComplete span exists.
  (*respond)(why.code() == Code::kOk ? Code::kInternal : why.code(), {});
}

DPURPC_HOT_PATH void DpuProxy::complete_response(
    Lane& lane, const std::shared_ptr<xrpc::Server::Responder>& respond,
    const trace::TraceContext& tctx, const Status& result,
    const rdmarpc::InMessage& resp) {
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  relaxed::add(stats_.responses_forwarded, 1);
  // kComplete is recorded BEFORE the responder writes the reply socket:
  // the instant the client sees the response it records the root span and
  // the collector may finalize the tree, so every server-side span must
  // already be in its thread's ring by then. The write itself is covered
  // client-side by kXrpcOutbound (which starts at the responder's send
  // stamp).
  auto complete_span = [&] {
    if (tctx.active()) {
      trace::Tracer::instance().record(trace::Stage::kComplete, tctx, t0,
                                       WallTimer::now());
    }
  };
  if (!result.is_ok()) {
    complete_span();
    (*respond)(result.code(), {});
  } else if ((resp.header.flags & rdmarpc::kFlagInPlaceObject) != 0) {
    // Offloaded response: the host handed back an object, not bytes.
    // Serialize it here, straight from the receive block while it is
    // still valid (the serialize lands inside this reply's kComplete
    // span), into the lane's scratch: the responder copies it into the
    // write batch, so the scratch is free again when it returns.
    Bytes& wire = lane.reply_wire;
    wire.clear();
    // dpulint: allow(hot-path): the scratch grows only until it holds the
    // lane's largest reply; after that the serialize appends in place.
    Status st = serializer_.serialize(
        adt::ObjectRef(resp.header.aux, resp.payload_addr), wire);
    if (st.is_ok()) relaxed::add(stats_.offloaded_responses, 1);
    complete_span();
    (*respond)(st.is_ok() ? Code::kOk : st.code(), ByteSpan(wire));
  } else {
    complete_span();
    (*respond)(Code::kOk, resp.payload);
  }
}

Status DpuProxy::forward(Lane& lane, PendingCall call) {
  if (call.trace.active()) {
    // Time spent queued behind this lane's other calls.
    trace::Tracer::instance().record(trace::Stage::kLaneQueueWait, call.trace,
                                     call.enqueue_ns, WallTimer::now());
  }
  const MethodEntry* entry = call.method;
  // Size hint: the deserialized object is usually a small multiple of the
  // wire size (varints expand, headers/bitfields add a constant).
  auto hint = static_cast<uint32_t>(
      std::min<uint64_t>(rdmarpc::kMaxPayloadSize, call.payload.size() * 4 + 256));

  auto respond = std::make_shared<xrpc::Server::Responder>(std::move(call.respond));
  Bytes payload = std::move(call.payload);
  trace::TraceContext tctx = call.trace;

  // Set when the payload itself is bad, as opposed to the block being too
  // small (kResourceExhausted, which call_inplace retries).
  bool malformed = false;
  Status st = send_with_backpressure(lane, [&] {
    malformed = false;
    return lane.client.call_inplace(
        entry->method_id, static_cast<uint16_t>(entry->input_class), hint,
        // The offload itself: deserialize the protobuf payload straight
        // into the block arena, pointers already in host space (§V).
        [&](arena::Arena& arena, const arena::AddressTranslator& xlate)
            -> StatusOr<uint32_t> {
          auto obj = deserializer_.deserialize(entry->input_class, ByteSpan(payload),
                                               arena, xlate);
          if (!obj.is_ok()) {
            malformed = obj.status().code() != Code::kResourceExhausted;
            return obj.status();
          }
          return static_cast<uint32_t>(arena.used());
        },
        // Continuation: the copy-path response is already serialized by
        // the host; an offloaded response (kFlagInPlaceObject) arrives as
        // an in-place object serialized on this lane (§III.A extension).
        [this, lane = &lane, respond, tctx](const Status& rpc_result,
                                            const rdmarpc::InMessage& resp) {
          complete_response(*lane, respond, tctx, rpc_result, resp);
        },
        tctx);
  });
  if (st.is_ok()) {
    relaxed::add(stats_.offloaded_requests, 1);
    relaxed::add(lane.forwarded, 1);
    return Status::ok();
  }
  // Per-call reject: a malformed payload, or one whose decoded object
  // cannot fit even a maximum-size block. The datapath stays healthy.
  const bool rejected = malformed || st.code() == Code::kOutOfRange;
  if (rejected) relaxed::add(stats_.deserialize_failures, 1);
  // dpulint: allow(trace-pairing): the request never completed — a
  // per-call reject, the proxy stopping, or a datapath failure — so no
  // kComplete span exists.
  (*respond)(st.code(), {});
  return rejected ? Status::ok() : st;
}

void DpuProxy::fail_pending(Lane& lane) {
  // Readers now skip this lane, and a post that races the close is
  // answered kUnavailable instead of waiting on a lane that will never
  // drain its queue. Calls still queued get a definite status.
  relaxed::store(lane.dead, true);
  lane.queue.close();
  while (auto event = lane.queue.try_pop()) {
    // dpulint: allow(trace-pairing): shutdown path — queued calls never
    // reached the datapath, so no kComplete span exists.
    if (event->respond) event->respond(Code::kUnavailable, {});
  }
  // Discard any pieces the pool already finished (their buffers free with
  // the ring entries), then fail every stream still open on the lane.
  dpu::CodecResult result;
  while (pool_->try_pop_result(lane.index, result)) {
    lane.pending_chunks.erase(result.cookie);
  }
  for (auto& [sid, ps] : lane.streams) {
    retire_stream_hold(*ps);
    // dpulint: allow(trace-pairing): shutdown path — live streams are
    // failed wholesale; their traces are abandoned, not completed.
    (*ps->respond)(Code::kUnavailable, {});
  }
  lane.streams.clear();
  lane.pending_chunks.clear();
  relaxed::store(lane.outstanding, 0);
}

void DpuProxy::poller_loop(Lane& lane) {
  // §IV: "the user is responsible for queueing enough requests to fill a
  // block before calling the event loop update function" — drain whatever
  // is queued (unary calls decode straight into the send block, stream
  // pieces go to the codec pool), ship finished pieces, run one loop turn,
  // then sleep when nothing moved. A datapath failure ends only this lane.
  // Every reply the lane produces joins `replies`: each pump's completions
  // leave together, one send() per client connection, and the batch's
  // close sends whatever fail_pending answers on the way out.
  xrpc::WriteBatch replies;
  while (!relaxed::load(stopping_)) {
    bool did_work = false;
    Status st;
    while (st.is_ok() && relaxed::load(lane.outstanding) < kMaxOutstandingJobs) {
      auto event = lane.queue.try_pop();
      if (!event.has_value()) break;
      did_work = true;
      st = dispatch_event(lane, std::move(*event));
    }
    if (!st.is_ok()) break;
    dpu::CodecResult result;
    while (pool_->try_pop_result(lane.index, result)) {
      did_work = true;
      chunk_decoded(lane, std::move(result));
    }
    auto pumped = lane.client.event_loop_once();
    replies.flush();
    if (!pumped.is_ok()) break;
    if (*pumped > 0) did_work = true;
    // Blocking wait (poll()-style, §III.C) instead of busy-polling; the
    // lane's one sleep.
    if (!did_work) lane_sleep(lane);
  }
  fail_pending(lane);
}

void DpuProxy::register_resource_probes(trace::ResourceSampler& sampler) const {
  // Everything read here is an atomic the datapath already maintains —
  // probing costs the datapath nothing and the sampler thread never takes
  // a lock. Names become counter-track titles and probe= gauge labels.
  for (size_t i = 0; i < lanes_.size(); ++i) {
    std::string prefix = "lane" + std::to_string(i);
    sampler.add_probe(prefix + "_outstanding_jobs", [this, i] {
      return static_cast<double>(lane_outstanding(i));
    });
    sampler.add_probe(prefix + "_codec_ring_depth", [this, i] {
      return static_cast<double>(pool_->lane_queue_depth(i));
    });
    const rdmarpc::Connection* conn = lanes_[i]->conn;
    sampler.add_probe(prefix + "_rdma_credits", [conn] {
      return static_cast<double>(conn->credits_available());
    });
  }
  for (size_t w = 0; w < pool_->worker_count(); ++w) {
    // Busy fraction over the sampling interval: Δbusy_ns / Δwall_ns,
    // clamped to [0,1]. State lives in the closure (one per probe; the
    // sampler calls each probe from one thread).
    auto prev = std::make_shared<std::pair<uint64_t, uint64_t>>(
        pool_->worker_stats(w).busy_ns, WallTimer::now());
    sampler.add_probe("worker" + std::to_string(w) + "_busy_fraction",
                      [this, w, prev] {
                        uint64_t busy = pool_->worker_stats(w).busy_ns;
                        uint64_t now = WallTimer::now();
                        uint64_t dwall = now - prev->second;
                        double frac =
                            dwall == 0 ? 0.0
                                       : static_cast<double>(busy - prev->first) /
                                             static_cast<double>(dwall);
                        *prev = {busy, now};
                        return std::clamp(frac, 0.0, 1.0);
                      });
  }
  sampler.add_probe("stream_held_bytes", [this] {
    return static_cast<double>(relaxed::load(stats_.stream_held_bytes));
  });
}

}  // namespace dpurpc::grpccompat

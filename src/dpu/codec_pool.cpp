#include "dpu/codec_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/align.hpp"
#include "common/cpu_timer.hpp"
#include "common/hot_path.hpp"
#include "common/relaxed.hpp"

namespace dpurpc::dpu {

namespace {
/// Modeled DPU time for `ns` of host-measured codec work (WorkerStats::
/// scaled_busy_ns).
uint64_t modeled_dpu_ns(uint64_t ns) {
  return static_cast<uint64_t>(CostModel{}.scale_ns(
      Processor::kDpu, WorkloadClass::kMixedSmall, static_cast<double>(ns)));
}
}  // namespace

DeviceInfo DeviceInfo::current() noexcept {
  // A pool wider than the machine only timeshares: size from the real core
  // count, capped at the modeled device's (fig9's 16-worker sweep passes
  // explicit worker counts instead).
  int cores = DeviceSpec::bluefield3().cores;
  if (unsigned hw = std::thread::hardware_concurrency(); hw != 0) {
    cores = std::min(cores, static_cast<int>(hw));
  }
  if (const char* env = std::getenv("DPURPC_DPU_CORES")) {
    int v = std::atoi(env);
    if (v > 0 && v <= 1024) cores = v;
  }
  return {cores};
}

ScratchSlice ScratchSlice::allocate(size_t bytes) {
  // aligned_alloc demands size % alignment == 0.
  size_t rounded = align_up(std::max<size_t>(bytes, 64), 64);
  ScratchSlice s;
  // dpulint: allow(hot-path): the one designed allocation on the worker
  // path — per-job decode scratch, sized from the wire and capped.
  s.data_.reset(static_cast<std::byte*>(std::aligned_alloc(64, rounded)));
  s.capacity_ = s.data_ ? rounded : 0;
  return s;
}

CodecPool::CodecPool(const adt::ArenaDeserializer* deserializer,
                     const adt::ObjectSerializer* serializer, size_t lanes,
                     Options options, std::function<void(size_t)> on_complete)
    : deserializer_(deserializer),
      serializer_(serializer),
      options_(options),
      on_complete_(std::move(on_complete)) {
  int workers = options_.workers > 0 ? options_.workers : DeviceInfo::current().cores;
  workers = std::max(1, std::min<int>(workers, static_cast<int>(std::max<size_t>(lanes, 1))));
  lanes_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<LaneRings>(options_.ring_capacity));
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) workers_.push_back(std::make_unique<Worker>());
  handoffs_ = &metrics::default_counter(
      "dpurpc_decode_handoffs_total",
      "Decode jobs handed from poller lanes to the codec pool");
  encode_handoffs_ = &metrics::default_counter(
      "dpurpc_encode_handoffs_total",
      "Encode jobs handed from poller lanes to the codec pool");
  steals_ = &metrics::default_counter(
      "dpurpc_decode_steals_total",
      "Codec jobs an idle worker popped from a foreign lane's ring");
}

CodecPool::CodecPool(const adt::ArenaDeserializer* deserializer,
                     const adt::ObjectSerializer* serializer, size_t lanes)
    : CodecPool(deserializer, serializer, lanes, Options{}) {}

CodecPool::~CodecPool() { stop(); }

void CodecPool::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->depth_gauge = &metrics::default_gauge(
        "dpurpc_decode_worker_queue_depth",
        "Jobs waiting in a codec worker's home-lane submit rings",
        {{"worker", std::to_string(w)}});
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

void CodecPool::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  {
    lockdep::ScopedLock lk(wake_mu_);
    wake_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

DPURPC_HOT_PATH bool CodecPool::submit(size_t lane, CodecJob& job) {
  if (lane >= lanes_.size() || stopping_.load(std::memory_order_acquire)) return false;
  if (job.kind == JobKind::kEncode && serializer_ == nullptr) return false;
  const JobKind kind = job.kind;
  if (!lanes_[lane]->submit.try_push(std::move(job))) return false;
  // Orders the ring push before the sleepers_ load below. It pairs with
  // the fence in worker_loop's park: either that worker's re-check sees
  // this job, or this load sees its sleepers_ increment (no lost wakeup).
  // A release store followed by a load is not ordered without it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  (kind == JobKind::kEncode ? encode_handoffs_ : handoffs_)->inc();
  // Only pay for the wakeup when someone is (or is about to be) parked;
  // the steady-state submit path is the ring push, the fence and one load.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // dpulint: allow(hot-path): cold spill — wakeup lock taken only when a
    // worker is parked; the steady-state branch is the seq_cst load above.
    lockdep::ScopedLock lk(wake_mu_);
    wake_cv_.notify_all();
  }
  return true;
}

DPURPC_HOT_PATH bool CodecPool::try_pop_result(size_t lane, CodecResult& out) {
  if (lane >= lanes_.size()) return false;
  return lanes_[lane]->complete.try_pop(out);
}

CodecPool::WorkerStats CodecPool::worker_stats(size_t w) const {
  WorkerStats s;
  if (w >= workers_.size()) return s;
  const Worker& wk = *workers_[w];
  s.jobs = relaxed::load(wk.jobs);
  s.encodes = relaxed::load(wk.encodes);
  s.steals = relaxed::load(wk.steals);
  s.failures = relaxed::load(wk.failures);
  s.bytes_decoded = relaxed::load(wk.bytes_decoded);
  s.bytes_encoded = relaxed::load(wk.bytes_encoded);
  s.busy_ns = relaxed::load(wk.busy_ns);
  s.scaled_busy_ns = relaxed::load(wk.scaled_busy_ns);
  return s;
}

uint64_t CodecPool::total_jobs() const noexcept {
  uint64_t total = 0;
  for (const auto& w : workers_) total += relaxed::load(w->jobs);
  return total;
}

size_t CodecPool::lane_queue_depth(size_t lane) const noexcept {
  return lane < lanes_.size() ? lanes_[lane]->submit.approx_size() : 0;
}

bool CodecPool::any_pending() const noexcept {
  // Idle workers steal, so a job on any lane is this worker's business.
  for (const auto& lane : lanes_) {
    if (lane->submit.approx_size() > 0) return true;
  }
  return false;
}

DPURPC_HOT_PATH void CodecPool::worker_loop(size_t w) {
  Worker& me = *workers_[w];
  const size_t nworkers = workers_.size();
  int idle_rounds = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    bool did = false;
    // Home lanes first (lane i's home worker is i % N): in the steady
    // state each submit ring has exactly one consumer — SPSC fast path.
    size_t depth = 0;
    for (size_t lane = w; lane < lanes_.size(); lane += nworkers) {
      did |= run_one(w, lane, /*stolen=*/false);
      depth += lanes_[lane]->submit.approx_size();
    }
    if (me.depth_gauge != nullptr) me.depth_gauge->set(static_cast<double>(depth));
    // Nothing at home: steal from a sibling's backlog (gated pop; a miss
    // on the gate just means the home worker got there first).
    if (!did) {
      for (size_t lane = 0; lane < lanes_.size() && !did; ++lane) {
        if (lane % nworkers == w) continue;
        did = run_one(w, lane, /*stolen=*/true);
      }
    }
    if (did) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park. sleepers_ is raised, then a fence, then the under-lock
    // re-check; submit() fences between its push and its sleepers_ load.
    // So a submitter that pushed after our scan either makes the re-check
    // see its job or observes sleepers_ > 0 and lands its notify after
    // our wait began. The wait stays timed at 1 ms for the same measured
    // reason as the proxy lane's (DESIGN.md §3.14): on a 4-vCPU VM an
    // untimed sleep costs wake latency. A timed wakeup that finds
    // nothing stays in the park loop rather than spin another 64 idle
    // rounds.
    idle_rounds = 0;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    {
      // dpulint: allow(hot-path): cold spill — condvar parking after 64
      // idle rounds, off the submit path (DESIGN.md §3.14).
      lockdep::UniqueLock lk(wake_mu_);
      while (!any_pending() && !stopping_.load(std::memory_order_acquire)) {
        // dpulint: allow(hot-path): parked-worker wait; bounded by the 1ms
        // timeout.
        wake_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool CodecPool::run_one(size_t w, size_t lane, bool stolen) {
  LaneRings& rings = *lanes_[lane];
  CodecJob job;
  if (!rings.submit.try_pop(job)) return false;
  CodecResult result = job.kind == JobKind::kEncode ? encode(w, std::move(job))
                                                    : decode(w, std::move(job));
  if (stolen) {
    relaxed::add(workers_[w]->steals, 1);
    steals_->inc();
  }
  // The completion ring is sized like the submit ring and callers bound
  // per-lane outstanding jobs — both kinds combined — by that capacity,
  // so this push can only fail transiently (another worker holding the
  // gate): spin it in.
  while (!rings.complete.try_push(std::move(result))) {
    if (stopping_.load(std::memory_order_acquire)) return true;
    std::this_thread::yield();
  }
  if (on_complete_) on_complete_(lane);
  return true;
}

CodecResult CodecPool::decode(size_t w, CodecJob&& job) {
  Worker& me = *workers_[w];
  const bool chunk = job.kind == JobKind::kDecodeChunk;
  uint64_t t0_wall = 0;
  if (trace::enabled() && (chunk || job.trace.active())) {
    t0_wall = WallTimer::now();
    // Submit-to-pickup wait in the lane's handoff ring. Chunk jobs skip
    // the per-trace span: many chunks share one stream trace, and
    // per-chunk spans there would break the tiling invariant — their
    // decode time lands on the kWorkerDecodeChunk global track below.
    if (!chunk && job.trace.active()) {
      trace::Tracer::instance().record(trace::Stage::kDecodeRingWait,
                                       job.trace, job.submit_ns, t0_wall);
    }
  }
  const uint64_t t0 = ThreadCpuTimer::now();
  CodecResult result;
  result.kind = job.kind;
  result.cookie = job.cookie;
  result.worker = static_cast<uint16_t>(w);

  // Chunk jobs decode the bytes after the prefix hole; the hole itself
  // travels with the buffer so the lane can forward it un-copied.
  const size_t wire_off = std::min<size_t>(job.wire_offset, job.wire.size());
  const ByteSpan wire_view(job.wire.data() + wire_off,
                           job.wire.size() - wire_off);
  const size_t wire_bytes = wire_view.size();

  // First attempt sized from the wire (objects inflate: headers, varint
  // widening, string reps); one retry at the cap on arena exhaustion.
  size_t cap = std::min(options_.max_slice_bytes, wire_bytes * 8 + 1024);
  for (;;) {
    ScratchSlice slice = ScratchSlice::allocate(cap);
    if (!slice) {
      result.status = Status(Code::kResourceExhausted, "decode scratch allocation failed");
      relaxed::add(me.failures, 1);
      break;
    }
    arena::Arena scratch(slice.data(), slice.capacity());
    // Zero delta: the tree stays fully local to the slice, which is what
    // lets the consumer relocate it anywhere later.
    arena::AddressTranslator local{};
    // dpulint: allow(hot-path): plan-driven decode builds the tree inside
    // the preallocated slice arena; kResourceExhausted spills retry, they
    // never malloc.
    auto obj = deserializer_->deserialize(job.class_index, wire_view,
                                          scratch, local);
    if (obj.is_ok()) {
      result.slice = std::move(slice);
      result.used = static_cast<uint32_t>(scratch.used());
      result.obj_offset = static_cast<uint32_t>(
          static_cast<const std::byte*>(*obj) - result.slice.data());
      break;
    }
    if (obj.status().code() == Code::kResourceExhausted &&
        cap < options_.max_slice_bytes) {
      cap = options_.max_slice_bytes;
      continue;
    }
    result.status = obj.status();
    relaxed::add(me.failures, 1);
    break;
  }

  // Echo the input buffer back so a streaming lane forwards the same
  // bytes (prefix hole intact) without a copy.
  if (chunk) result.wire = std::move(job.wire);

  const uint64_t ns = ThreadCpuTimer::now() - t0;
  if (t0_wall != 0) {
    // Wall time on purpose (the CPU timer above feeds the cost model):
    // spans must live on the same monotonic axis as every other stage.
    if (chunk) {
      trace::Tracer::instance().record_global(trace::Stage::kWorkerDecodeChunk,
                                              t0_wall, WallTimer::now(),
                                              wire_bytes);
    } else {
      trace::Tracer::instance().record(trace::Stage::kWorkerDecode, job.trace,
                                       t0_wall, WallTimer::now(), wire_bytes);
    }
  }
  relaxed::add(me.jobs, 1);
  relaxed::add(me.bytes_decoded, wire_bytes);
  relaxed::add(me.busy_ns, ns);
  relaxed::add(me.scaled_busy_ns, modeled_dpu_ns(ns));
  return result;
}

CodecResult CodecPool::encode(size_t w, CodecJob&& job) {
  Worker& me = *workers_[w];
  uint64_t t0_wall = 0;
  if (trace::enabled() && job.trace.active()) {
    t0_wall = WallTimer::now();
    // Submit-to-pickup wait in the lane's handoff ring. The submit stamp
    // is taken before the poller copies the response object out of the
    // receive block, so this span also absorbs that copy+relocate — the
    // timeline keeps tiling with no gap after rdma_outbound.
    trace::Tracer::instance().record(trace::Stage::kEncodeRingWait, job.trace,
                                     job.submit_ns, t0_wall);
  }
  const uint64_t t0 = ThreadCpuTimer::now();
  CodecResult result;
  result.kind = JobKind::kEncode;
  result.cookie = job.cookie;
  result.worker = static_cast<uint16_t>(w);

  if (serializer_ == nullptr) {
    result.status = Status(Code::kFailedPrecondition, "pool has no serializer");
    relaxed::add(me.failures, 1);
  } else if (!job.object || job.obj_offset >= job.object.capacity()) {
    result.status = Status(Code::kInvalidArgument, "encode job carries no object");
    relaxed::add(me.failures, 1);
  } else {
    // Size walk + emit fused in one serialize() call (the compiled plan
    // caches body sizes from the size pass for the emit pass, DESIGN.md
    // §3.13), into the per-worker scratch whose capacity persists.
    Bytes& scratch = me.encode_scratch;
    scratch.clear();
    adt::ObjectRef ref(job.class_index, job.object.data() + job.obj_offset);
    // dpulint: allow(hot-path): plan-driven emit appends into the
    // per-worker scratch, whose capacity persists across jobs.
    Status st = serializer_->serialize(ref, scratch);
    if (st.is_ok()) {
      // Exactly-sized handoff copy: the consumer owns bytes it can keep
      // past this worker's next job; the scratch keeps its capacity.
      // dpulint: allow(hot-path): exactly-sized handoff copy — the
      // consumer owns these bytes past this worker's next job.
      result.wire.assign(scratch.begin(), scratch.end());
    } else {
      result.status = st;
      relaxed::add(me.failures, 1);
    }
  }

  const uint64_t ns = ThreadCpuTimer::now() - t0;
  if (t0_wall != 0) {
    trace::Tracer::instance().record(trace::Stage::kWorkerEncode, job.trace,
                                     t0_wall, WallTimer::now(),
                                     result.wire.size());
  }
  relaxed::add(me.jobs, 1);
  relaxed::add(me.encodes, 1);
  relaxed::add(me.bytes_encoded, result.wire.size());
  relaxed::add(me.busy_ns, ns);
  relaxed::add(me.scaled_busy_ns, modeled_dpu_ns(ns));
  return result;
}

}  // namespace dpurpc::dpu

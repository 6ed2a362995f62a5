#include "traffic.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>

#include "common/cpu_timer.hpp"
#include "loadgen/schedule.hpp"

namespace perfbench {

namespace {

/// Sleep until this close to an arrival, then spin. The arrival thread's
/// timer slack is cut to 1 ns (set_precise_sleep), so sleep_for overshoots
/// by tens of microseconds at most.
constexpr uint64_t kSpinBelowNs = 100'000;
constexpr uint64_t kTimeoutNs = 2'000'000'000;
constexpr uint64_t kDrainSlackNs = 250'000'000;
constexpr uint64_t kMaxOutstanding = 4096;
constexpr double kSliceS = 0.5;

// Per-request completion word: (completion ns << 2) | status, 0 = pending.
constexpr uint64_t kOk = 1, kError = 2, kWrong = 3;

void set_precise_sleep() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void wait_until(uint64_t t_ns) {
  for (;;) {
    uint64_t now = WallTimer::now();
    if (now >= t_ns) return;
    uint64_t left = t_ns - now;
    if (left > kSpinBelowNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinBelowNs));
    }
  }
}

/// Draws each arrival's Kind from the mix; deterministic per seed.
class KindDraw {
 public:
  KindDraw(const Mix& mix, uint64_t seed) : rng_(seed ^ 0x9e3779b97f4a7c15ull) {
    double total = 0;
    for (double w : mix) total += w;
    double acc = 0;
    for (size_t k = 0; k < kKinds; ++k) {
      acc += mix[k] / total;
      cum_[k] = acc;
    }
    cum_[kKinds - 1] = 1.0;
  }
  size_t operator()() {
    double u = std::generate_canonical<double, 53>(rng_);
    for (size_t k = 0; k < kKinds; ++k) {
      if (u < cum_[k]) return k;
    }
    return kKinds - 1;
  }
  uint64_t index() { return rng_(); }

 private:
  std::mt19937_64 rng_;
  std::array<double, kKinds> cum_{};
};

/// Shared by the arrival loop and every completion callback; held by
/// shared_ptr so a straggler reply after the phase ends touches live memory.
struct Flight {
  explicit Flight(size_t n) : done(new std::atomic<uint64_t>[n]) {
    for (size_t i = 0; i < n; ++i) done[i].store(0, std::memory_order_relaxed);
  }
  std::unique_ptr<std::atomic<uint64_t>[]> done;
  std::atomic<uint64_t> outstanding{0};
};

uint64_t verdict(Code c, const Bytes& got, const Bytes& want) {
  if (c != Code::kOk) return kError;
  return got == want ? kOk : kWrong;
}

template <typename Field>
double slice_median(const PhaseResult& r, double q, Field field) {
  std::vector<uint64_t> per_slice;
  for (const Slice& s : r.slices) {
    const std::vector<uint64_t>& v = s.*field;
    if (!v.empty()) per_slice.push_back(static_cast<uint64_t>(percentile(v, q)));
  }
  return percentile(per_slice, 0.5);
}

}  // namespace

double percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double slice_median_latency(const PhaseResult& r, double q) {
  return slice_median(r, q, &Slice::latency_ns);
}

double slice_median_lateness(const PhaseResult& r, double q) {
  return slice_median(r, q, &Slice::lateness_ns);
}

void PhaseResult::merge(PhaseResult&& o) {
  outcomes.add(o.outcomes);
  for (Slice& s : o.slices) slices.push_back(std::move(s));
  ok_calls += o.ok_calls;
  payload_bytes += o.payload_bytes;
  measure_s += o.measure_s;
}

Traffic::Traffic(uint16_t port, const Inputs& inputs, Mix mix)
    : port_(port), inputs_(inputs), mix_(mix) {
  set_precise_sleep();
}

Status Traffic::connect() {
  auto chan = xrpc::Channel::connect(port_);
  if (!chan.is_ok()) return chan.status();
  channel_ = std::move(*chan);
  return Status::ok();
}

Status Traffic::probe(Kind kind) {
  const auto k = static_cast<size_t>(kind);
  auto reply = channel_->call(kMethods[k], ByteSpan(inputs_.wire[k][0]));
  if (!reply.is_ok()) return reply.status();
  if (*reply != inputs_.expected[k][0]) {
    return Status(Code::kDataLoss, "probe reply differs from the expected reply");
  }
  return Status::ok();
}

PhaseResult Traffic::open_loop(const PhaseSpec& spec, const WindowHook& hook) {
  PhaseResult res;
  res.measure_s = spec.measure_s;
  xrpc::Channel& chan = *channel_;

  loadgen::ScheduleConfig sc;
  sc.rate_rps = spec.rate_rps;
  sc.seed = spec.seed;
  loadgen::ArrivalSchedule schedule(sc);
  KindDraw draw(mix_, spec.seed);

  const double total_s = spec.warm_s + spec.measure_s;
  const size_t cap = static_cast<size_t>(spec.rate_rps * total_s * 1.5) + 1024;
  auto flight = std::make_shared<Flight>(cap);
  std::vector<uint64_t> scheduled(cap, 0);
  std::vector<uint64_t> lateness(cap, 0);
  std::vector<uint8_t> kinds(cap, 0);
  std::vector<uint32_t> index(cap, 0);
  std::vector<uint8_t> launched(cap, 0);

  const uint64_t epoch = WallTimer::now() + 1'000'000;
  const uint64_t window_begin = epoch + static_cast<uint64_t>(spec.warm_s * 1e9);
  const uint64_t window_end = window_begin + static_cast<uint64_t>(spec.measure_s * 1e9);
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(std::lround(spec.measure_s / kSliceS)));
  res.slices.resize(slices);
  bool in_window = false;
  size_t n = 0;
  for (; n < cap; ++n) {
    uint64_t t = epoch + schedule.next_arrival_ns();
    if (t >= window_end) break;
    if (!in_window && t >= window_begin) {
      in_window = true;
      if (hook) hook(true);
    }
    wait_until(t);
    uint64_t fired = WallTimer::now();
    size_t k = draw();
    const auto& pool = inputs_.wire[k];
    auto idx = static_cast<uint32_t>(draw.index() % pool.size());
    scheduled[n] = t;
    lateness[n] = fired - t;
    kinds[n] = static_cast<uint8_t>(k);
    index[n] = idx;
    if (flight->outstanding.load(std::memory_order_relaxed) >= kMaxOutstanding) {
      continue;  // drop: the open-loop arrival happened, the system could not take it
    }
    flight->outstanding.fetch_add(1, std::memory_order_relaxed);
    const Bytes* want = &inputs_.expected[k][idx];
    Status st = chan.call_async(kMethods[k], ByteSpan(pool[idx]),
                                [flight, n, want](Code c, Bytes got) {
                                  uint64_t now = WallTimer::now();
                                  flight->done[n].store((now << 2) | verdict(c, got, *want),
                                                        std::memory_order_release);
                                  flight->outstanding.fetch_sub(1, std::memory_order_release);
                                });
    if (!st.is_ok()) {
      flight->outstanding.fetch_sub(1, std::memory_order_relaxed);
      flight->done[n].store((fired << 2) | kError, std::memory_order_release);
    }
    launched[n] = 1;
  }
  if (hook) {
    if (!in_window) hook(true);
    hook(false);
  }

  uint64_t deadline = WallTimer::now() + kTimeoutNs + kDrainSlackNs;
  while (flight->outstanding.load(std::memory_order_acquire) != 0 &&
         WallTimer::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  for (size_t i = 0; i < n; ++i) {
    ++res.outcomes.attempted;
    const bool measured = scheduled[i] >= window_begin;
    Slice* slice = nullptr;
    if (measured) {
      auto at = static_cast<size_t>(static_cast<double>(scheduled[i] - window_begin) /
                                    (spec.measure_s * 1e9) * static_cast<double>(slices));
      slice = &res.slices[std::min(at, slices - 1)];
      slice->lateness_ns.push_back(lateness[i]);
    }
    if (!launched[i]) {
      ++res.outcomes.drops;
      continue;
    }
    uint64_t word = flight->done[i].load(std::memory_order_acquire);
    uint64_t status = word & 3;
    uint64_t done_ns = word >> 2;
    if (word == 0 || done_ns - scheduled[i] > kTimeoutNs) {
      ++res.outcomes.timeouts;
    } else if (status == kError) {
      ++res.outcomes.errors;
    } else if (status == kWrong) {
      ++res.outcomes.wrong;
    } else if (measured) {
      slice->latency_ns.push_back(done_ns - scheduled[i]);
      ++res.ok_calls;
      res.payload_bytes += inputs_.wire[kinds[i]][index[i]].size() +
                           inputs_.expected[kinds[i]][index[i]].size();
    }
  }
  return res;
}

CapacityResult Traffic::closed_loop(size_t window, double warm_s, double measure_s,
                                    uint64_t seed, Outcomes& outcomes, const WindowHook& hook) {
  struct State {
    std::atomic<uint64_t> outstanding{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> ok_bytes{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> wrong{0};
  };
  auto state = std::make_shared<State>();
  xrpc::Channel& chan = *channel_;
  KindDraw draw(mix_, seed);

  constexpr double kRateSliceS = 0.25;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(std::lround(measure_s / kRateSliceS)));
  const auto slice_ns = static_cast<uint64_t>(measure_s / static_cast<double>(slices) * 1e9);
  const uint64_t window_begin = WallTimer::now() + static_cast<uint64_t>(warm_s * 1e9);
  const uint64_t end = window_begin + slices * slice_ns;
  CapacityResult res;
  res.measure_s = static_cast<double>(slices * slice_ns) * 1e-9;
  std::vector<double>& rates = res.rates;
  uint64_t next_edge = window_begin;
  uint64_t ok_at_edge = 0;
  uint64_t bytes_at_begin = 0;
  bool began = false;
  uint64_t now;
  while ((now = WallTimer::now()) < end) {
    if (now >= next_edge) {
      uint64_t ok = state->ok.load();
      if (next_edge > window_begin) {
        rates.push_back(static_cast<double>(ok - ok_at_edge) / (static_cast<double>(slice_ns) * 1e-9));
      } else {
        bytes_at_begin = state->ok_bytes.load();
        began = true;
        if (hook) hook(true);
      }
      ok_at_edge = ok;
      next_edge += slice_ns;
    }
    if (state->outstanding.load(std::memory_order_acquire) >= window) {
      std::this_thread::yield();
      continue;
    }
    size_t k = draw();
    const auto& pool = inputs_.wire[k];
    size_t idx = draw.index() % pool.size();
    const Bytes* want = &inputs_.expected[k][idx];
    const uint64_t bytes = pool[idx].size() + want->size();
    ++outcomes.attempted;
    state->outstanding.fetch_add(1);
    Status st = chan.call_async(kMethods[k], ByteSpan(pool[idx]),
                                [state, want, bytes](Code c, Bytes got) {
                                  uint64_t v = verdict(c, got, *want);
                                  if (v == kOk) state->ok_bytes.fetch_add(bytes);
                                  (v == kOk ? state->ok : v == kError ? state->errors
                                                                      : state->wrong)
                                      .fetch_add(1);
                                  state->outstanding.fetch_sub(1, std::memory_order_release);
                                });
    if (!st.is_ok()) {
      state->outstanding.fetch_sub(1);
      state->errors.fetch_add(1);
    }
  }
  rates.push_back(static_cast<double>(state->ok.load() - ok_at_edge) /
                  (static_cast<double>(slice_ns) * 1e-9));
  if (!began) bytes_at_begin = state->ok_bytes.load();
  res.payload_bytes = state->ok_bytes.load() - bytes_at_begin;
  if (hook) {
    if (!began) hook(true);
    hook(false);
  }
  uint64_t deadline = WallTimer::now() + kTimeoutNs;
  while (state->outstanding.load() != 0 && WallTimer::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  outcomes.errors += state->errors.load();
  outcomes.wrong += state->wrong.load();
  outcomes.timeouts += state->outstanding.load();
  return res;
}

BulkStream::BulkStream(uint16_t port, const Inputs& inputs, Bytes expected_ack)
    : inputs_(inputs), expected_ack_(std::move(expected_ack)) {
  thread_ = std::thread([this, port] { loop(port); });
}

BulkStream::~BulkStream() { stop(); }

void BulkStream::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

Outcomes BulkStream::outcomes() const {
  Outcomes o;
  o.attempted = finished_.load();
  o.errors = failed_.load();
  o.wrong = wrong_.load();
  return o;
}

void BulkStream::loop(uint16_t port) {
  auto chan = xrpc::Channel::connect(port);
  if (!chan.is_ok()) {
    finished_.fetch_add(1);
    failed_.fetch_add(1);
    return;
  }
  const Bytes& payload = inputs_.stream_payload;
  constexpr size_t kWrite = 32 * 1024;
  while (!stop_.load()) {
    auto stream = (*chan)->open_stream(kBulkMethod);
    if (!stream.is_ok()) {
      finished_.fetch_add(1);
      failed_.fetch_add(1);
      return;
    }
    bool ok = true;
    for (size_t off = 0; off < payload.size() && !stop_.load(); off += kWrite) {
      size_t n = std::min(kWrite, payload.size() - off);
      if (!(*stream)->write(ByteSpan(payload.data() + off, n)).is_ok()) {
        ok = false;
        break;
      }
      bytes_.fetch_add(n);
    }
    if (stop_.load() && ok) {
      // Cut short by stop(): not a finished stream, so not counted.
      stalls_.fetch_add((*stream)->credit_stalls());
      (*stream)->abort(Code::kAborted);
      return;
    }
    bool acked_right = false;
    if (ok) {
      auto ack = (*stream)->finish();
      ok = ack.is_ok();
      acked_right = ok && *ack == expected_ack_;
    }
    stalls_.fetch_add((*stream)->credit_stalls());
    finished_.fetch_add(1);
    if (!acked_right) {
      (ok ? wrong_ : failed_).fetch_add(1);
      return;
    }
  }
}

}  // namespace perfbench

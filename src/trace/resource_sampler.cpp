#include "trace/resource_sampler.hpp"

#include <chrono>

#include "common/cpu_timer.hpp"

namespace dpurpc::trace {

ResourceSampler::ResourceSampler(Options options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.period_ns == 0) options_.period_ns = 1;
}

ResourceSampler::~ResourceSampler() { stop(); }

size_t ResourceSampler::add_probe(std::string name, ProbeFn fn) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.gauge = &metrics::default_gauge("dpurpc_resource_occupancy",
                                    "Latest resource-occupancy sample, by probe",
                                    {{"probe", p.name}});
  // Preallocate here so sample_once never allocates, with or without the
  // background thread.
  p.ring.resize(options_.capacity);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

void ResourceSampler::start() {
  if (running_.load()) return;
  running_.store(true);
  thread_ = std::thread([this] { run(); });
}

void ResourceSampler::stop() {
  if (!running_.load() && !thread_.joinable()) return;
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

DPURPC_HOT_PATH void ResourceSampler::sample_once() {
  uint64_t t = WallTimer::now();
  for (Probe& p : probes_) {
    double v = p.fn ? p.fn() : 0.0;
    p.gauge->set(v);
    p.ring[p.written % p.ring.size()] = Point{t, v};
    ++p.written;
  }
  ++samples_taken_;
}

void ResourceSampler::run() {
  const auto period = std::chrono::nanoseconds(options_.period_ns);
  while (running_.load()) {
    sample_once();
    std::this_thread::sleep_for(period);
  }
}

std::vector<CounterSeries> ResourceSampler::series() const {
  std::vector<CounterSeries> out;
  out.reserve(probes_.size());
  for (const Probe& p : probes_) {
    CounterSeries cs;
    cs.name = p.name;
    size_t n = p.written < p.ring.size() ? static_cast<size_t>(p.written)
                                         : p.ring.size();
    cs.points.reserve(n);
    // Oldest-first ring unwind; when wrapped, the oldest live sample sits
    // at the current write cursor.
    size_t start = p.written < p.ring.size()
                       ? 0
                       : static_cast<size_t>(p.written % p.ring.size());
    for (size_t i = 0; i < n; ++i) {
      const Point& pt = p.ring[(start + i) % p.ring.size()];
      cs.points.emplace_back(pt.t_ns, pt.value);
    }
    out.push_back(std::move(cs));
  }
  return out;
}

}  // namespace dpurpc::trace

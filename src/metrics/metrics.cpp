#include "metrics/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/cpu_timer.hpp"

namespace dpurpc::metrics {

namespace {

// Bucket bound as an `le` label value: shortest text that parses back to
// exactly `bound`, so sub-microsecond bounds stay distinct (std::to_string
// prints %f, collapsing 100e-9 and 250e-9 both to "0.000000").
std::string format_bound(double bound) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), bound);
  return std::string(buf, ec == std::errc() ? end : buf);
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1),
      ex_ids_(bounds_.size() + 1),
      ex_values_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) noexcept {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::put_exemplar(double v, uint64_t trace_id) noexcept {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  size_t idx = static_cast<size_t>(it - bounds_.begin());
  // Value first, id second: a reader keying off a nonzero id sees a value
  // that is at worst one exemplar stale, never uninitialized.
  ex_values_[idx].store(v, std::memory_order_relaxed);
  ex_ids_[idx].store(trace_id, std::memory_order_relaxed);
}

Histogram::Exemplar Histogram::exemplar_at(size_t bucket) const noexcept {
  Exemplar e;
  if (bucket >= ex_ids_.size()) return e;
  e.trace_id = ex_ids_[bucket].load(std::memory_order_relaxed);
  e.value = ex_values_[bucket].load(std::memory_order_relaxed);
  return e;
}

uint64_t Histogram::bucket_count(size_t i) const noexcept {
  // Cumulative: observations <= bounds_[i].
  uint64_t total = 0;
  for (size_t j = 0; j <= i && j < buckets_.size(); ++j) {
    total += buckets_[j].load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

// The shared estimator behind Histogram::quantile and
// HistogramSnapshot::quantile: linear interpolation within the bucket
// holding the rank-⌈q·n⌉ observation. `bucket_at(i)` reads the i-th
// non-cumulative bucket (an atomic load for the live histogram, a plain
// read for a snapshot); allocation-free so the noexcept callers hold.
template <typename BucketAt>
double quantile_over(const std::vector<double>& bounds, size_t n_buckets,
                     uint64_t n, double q, BucketAt&& bucket_at) noexcept {
  if (n == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < n_buckets; ++i) {
    uint64_t b = bucket_at(i);
    cum += b;
    if (cum < rank) continue;
    if (i == bounds.size()) {
      // Overflow bucket has no upper bound; clamp to the largest finite
      // bound (what histogram_quantile does for +Inf).
      return bounds.back();
    }
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    double frac = static_cast<double>(rank - (cum - b)) / static_cast<double>(b);
    return lo + (hi - lo) * frac;
  }
  return bounds.back();  // unreachable unless counts tore mid-walk
}

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
  return quantile_over(bounds, buckets.size(), count, q,
                       [this](size_t i) { return buckets[i]; });
}

HistogramSnapshot HistogramSnapshot::delta(const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  if (bounds != earlier.bounds || buckets.size() != earlier.buckets.size() ||
      count < earlier.count) {
    return d;  // not two snapshots of the same histogram, in order
  }
  d.bounds = bounds;
  d.buckets.resize(buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    // Per-bucket counts can tear against a concurrent observe (bucket
    // bumped before count); clamp rather than wrap.
    d.buckets[i] = buckets[i] >= earlier.buckets[i] ? buckets[i] - earlier.buckets[i] : 0;
  }
  d.count = count - earlier.count;
  d.sum = sum - earlier.sum;
  return d;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.buckets.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double Histogram::quantile(double q) const noexcept {
  return quantile_over(bounds_, buckets_.size(),
                       count_.load(std::memory_order_relaxed), q,
                       [this](size_t i) {
                         return buckets_[i].load(std::memory_order_relaxed);
                       });
}

Family::Family(std::string name, std::string help, MetricKind kind,
               std::vector<double> histogram_bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      kind_(kind),
      histogram_bounds_(std::move(histogram_bounds)) {}

Family::Child& Family::child_at(const Labels& labels) {
  lockdep::ScopedLock lk(mu_);
  auto& slot = children_[labels];
  if (!slot) {
    slot = std::make_unique<Child>();
    switch (kind_) {
      case MetricKind::kCounter: slot->counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: slot->gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        slot->histogram = std::make_unique<Histogram>(histogram_bounds_);
        break;
    }
  }
  return *slot;
}

Counter& Family::counter(const Labels& labels) {
  assert(kind_ == MetricKind::kCounter);
  return *child_at(labels).counter;
}

Gauge& Family::gauge(const Labels& labels) {
  assert(kind_ == MetricKind::kGauge);
  return *child_at(labels).gauge;
}

Histogram& Family::histogram(const Labels& labels) {
  assert(kind_ == MetricKind::kHistogram);
  return *child_at(labels).histogram;
}

const Sample* Snapshot::find(std::string_view name, const Labels& labels) const {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

Family& Registry::family(std::string name, std::string help, MetricKind kind,
                         std::vector<double> bounds) {
  lockdep::ScopedLock lk(mu_);
  for (auto& f : families_) {
    if (f->name() == name) {
      assert(f->kind() == kind && "metric re-registered with a different kind");
      return *f;
    }
  }
  families_.push_back(
      std::make_unique<Family>(std::move(name), std::move(help), kind, std::move(bounds)));
  return *families_.back();
}

Family& Registry::counter_family(std::string name, std::string help) {
  return family(std::move(name), std::move(help), MetricKind::kCounter, {});
}

Family& Registry::gauge_family(std::string name, std::string help) {
  return family(std::move(name), std::move(help), MetricKind::kGauge, {});
}

Family& Registry::histogram_family(std::string name, std::string help,
                                   std::vector<double> bounds) {
  return family(std::move(name), std::move(help), MetricKind::kHistogram,
                std::move(bounds));
}

namespace {

// The derived-quantile suffixes every histogram exposes alongside its raw
// buckets; estimated via Histogram::quantile (see its interpolation note).
constexpr struct { const char* suffix; double q; } kQuantiles[] = {
    {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};

}  // namespace

Snapshot Registry::scrape() const {
  Snapshot snap;
  snap.mono_ns = WallTimer::now();
  // Lock order: Registry.mu -> Family.mu (via for_each). The reverse
  // never happens: no Family method reaches back into the registry, so
  // the order graph stays acyclic.
  lockdep::ScopedLock lk(mu_);
  for (const auto& f : families_) {
    f->for_each([&](const Labels& labels, const Family::Child& c) {
      switch (f->kind()) {
        case MetricKind::kCounter:
          snap.samples.push_back({f->name(), labels,
                                  static_cast<double>(c.counter->value())});
          break;
        case MetricKind::kGauge:
          snap.samples.push_back({f->name(), labels, c.gauge->value()});
          break;
        case MetricKind::kHistogram: {
          const auto& h = *c.histogram;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            Labels bl = labels;
            bl["le"] = format_bound(h.bounds()[i]);
            snap.samples.push_back({f->name() + "_bucket", std::move(bl),
                                    static_cast<double>(h.bucket_count(i))});
          }
          Labels inf = labels;
          inf["le"] = "+Inf";
          snap.samples.push_back({f->name() + "_bucket", std::move(inf),
                                  static_cast<double>(h.total_count())});
          snap.samples.push_back({f->name() + "_sum", labels, h.sum()});
          snap.samples.push_back({f->name() + "_count", labels,
                                  static_cast<double>(h.total_count())});
          for (const auto& [suffix, q] : kQuantiles) {
            snap.samples.push_back({f->name() + suffix, labels, h.quantile(q)});
          }
          break;
        }
      }
    });
  }
  return snap;
}

namespace {

void append_labels(std::ostringstream& out, const Labels& labels) {
  if (labels.empty()) return;
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    first = false;
    out << k << "=\"" << v << '"';
  }
  out << '}';
}

// OpenMetrics exemplar suffix for a bucket line: the trace id of the
// last flight-recorder capture that landed in the bucket, linking the
// scrape directly to a retained Perfetto trace. Silent when unset, so
// histograms without a recorder expose byte-identical text as before.
void append_exemplar(std::ostringstream& out, const Histogram& h, size_t bucket) {
  Histogram::Exemplar e = h.exemplar_at(bucket);
  if (e.trace_id == 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " # {trace_id=\"%016llx\"} %g",
                static_cast<unsigned long long>(e.trace_id), e.value);
  out << buf;
}

}  // namespace

std::string Registry::expose_text() const {
  std::ostringstream out;
  lockdep::ScopedLock lk(mu_);
  for (const auto& f : families_) {
    out << "# HELP " << f->name() << ' ' << f->help() << '\n';
    out << "# TYPE " << f->name() << ' '
        << (f->kind() == MetricKind::kCounter    ? "counter"
            : f->kind() == MetricKind::kGauge    ? "gauge"
                                                 : "histogram")
        << '\n';
    f->for_each([&](const Labels& labels, const Family::Child& c) {
      switch (f->kind()) {
        case MetricKind::kCounter:
          out << f->name();
          append_labels(out, labels);
          out << ' ' << c.counter->value() << '\n';
          break;
        case MetricKind::kGauge:
          out << f->name();
          append_labels(out, labels);
          out << ' ' << c.gauge->value() << '\n';
          break;
        case MetricKind::kHistogram: {
          const auto& h = *c.histogram;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            Labels bl = labels;
            bl["le"] = format_bound(h.bounds()[i]);
            out << f->name() << "_bucket";
            append_labels(out, bl);
            out << ' ' << h.bucket_count(i);
            append_exemplar(out, h, i);
            out << '\n';
          }
          Labels inf = labels;
          inf["le"] = "+Inf";
          out << f->name() << "_bucket";
          append_labels(out, inf);
          out << ' ' << h.total_count();
          append_exemplar(out, h, h.bounds().size());
          out << '\n';
          out << f->name() << "_sum";
          append_labels(out, labels);
          out << ' ' << h.sum() << '\n';
          out << f->name() << "_count";
          append_labels(out, labels);
          out << ' ' << h.total_count() << '\n';
          for (const auto& [suffix, q] : kQuantiles) {
            out << f->name() << suffix;
            append_labels(out, labels);
            out << ' ' << h.quantile(q) << '\n';
          }
          break;
        }
      }
    });
  }
  return out.str();
}

Registry& default_registry() {
  static Registry* r = new Registry();  // leaked intentionally: process lifetime
  return *r;
}

Counter& default_counter(std::string name, std::string help) {
  return default_registry().counter_family(std::move(name), std::move(help)).counter();
}

Gauge& default_gauge(std::string name, std::string help, const Labels& labels) {
  return default_registry().gauge_family(std::move(name), std::move(help)).gauge(labels);
}

}  // namespace dpurpc::metrics

// A Prometheus-style metrics library.
//
// The paper instruments the RPC over RDMA library directly with a
// Prometheus client (≈5% overhead) and scrapes it from a monitoring
// process. This module reproduces that pipeline: counters/gauges/histograms
// with labels, a registry, text exposition, and snapshot scraping from
// which the monitor computes the instant rate of increase.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"

namespace dpurpc::metrics {

/// Sorted label set; identity of a child within a family.
using Labels = std::map<std::string, std::string>;

/// Monotonically increasing counter. Relaxed atomics: per-sample precision
/// is irrelevant, only scrape-to-scrape deltas matter.
class Counter {
 public:
  void inc(uint64_t delta = 1) noexcept { v_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Gauge: a value that can go up and down (e.g. credits available).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  void sub(double d) noexcept { add(-d); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram's state. Sweep harnesses (fig12's
/// per-stage attribution) snapshot the cumulative histogram at each load
/// point and read sums and quantiles from the *delta*
/// between two snapshots — the Prometheus-rate analogue of per-interval
/// latency quantiles, without resetting the live histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;     ///< strictly increasing, as the source's
  std::vector<uint64_t> buckets;  ///< per-bucket (non-cumulative); bounds.size()+1
  uint64_t count = 0;
  double sum = 0;

  /// Same estimator as Histogram::quantile, over this snapshot's counts.
  double quantile(double q) const noexcept;
  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Observations made after `earlier` was taken: this minus earlier,
  /// bucket by bucket. Snapshots of different histograms (mismatched
  /// bounds) or out-of-order snapshots return an empty snapshot.
  HistogramSnapshot delta(const HistogramSnapshot& earlier) const;
};

/// Fixed-bucket histogram (cumulative, Prometheus semantics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Cumulative count for bucket i (counts observations <= bounds_[i]).
  uint64_t bucket_count(size_t i) const noexcept;
  uint64_t total_count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Estimate the q-quantile (q in [0,1]) by linear interpolation within
  /// the bucket holding the rank-⌈q·n⌉ observation (Prometheus
  /// histogram_quantile semantics: the first bucket interpolates from 0,
  /// the overflow bucket clamps to the highest finite bound). Returns 0
  /// on an empty histogram. Concurrent observe() calls can tear the
  /// per-bucket counts slightly — fine for monitoring.
  double quantile(double q) const noexcept;

  /// Copy the live counts into a HistogramSnapshot (relaxed reads; the
  /// usual scrape-precision caveats apply).
  HistogramSnapshot snapshot() const;

  /// OpenMetrics-style exemplar: the last outlier trace that landed in a
  /// bucket. trace_id == 0 means "no exemplar yet" (the tracer never
  /// issues id 0).
  struct Exemplar {
    uint64_t trace_id = 0;
    double value = 0;
  };

  /// Attach an exemplar to the bucket `v` falls in (same bucketing as
  /// observe; the overflow bucket is slot bounds().size()). Last writer
  /// wins; the id/value pair can tear under concurrent writers — fine for
  /// forensics pointers. Does NOT count as an observation.
  void put_exemplar(double v, uint64_t trace_id) noexcept;
  /// The exemplar on bucket i (i in [0, bounds().size()]), id 0 if none.
  Exemplar exemplar_at(size_t bucket) const noexcept;

 private:
  std::vector<double> bounds_;                       // strictly increasing
  std::vector<std::atomic<uint64_t>> buckets_;       // per-bucket (non-cumulative)
  std::vector<std::atomic<uint64_t>> ex_ids_;        // per-bucket exemplar ids
  std::vector<std::atomic<double>> ex_values_;       // ...and their values
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// A named family of metrics, each child distinguished by labels.
class Family {
 public:
  Family(std::string name, std::string help, MetricKind kind,
         std::vector<double> histogram_bounds = {});

  Counter& counter(const Labels& labels = {});
  Gauge& gauge(const Labels& labels = {});
  Histogram& histogram(const Labels& labels = {});

  const std::string& name() const noexcept { return name_; }
  const std::string& help() const noexcept { return help_; }
  MetricKind kind() const noexcept { return kind_; }

  /// Visit every child under the family lock. `fn` must not register
  /// metrics (Family/Registry lock order is Registry -> Family; see
  /// DESIGN.md §3.12).
  template <typename Fn>
  void for_each(Fn&& fn) const DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    for (const auto& [labels, child] : children_) fn(labels, *child);
  }

 private:
  struct Child {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Child& child_at(const Labels& labels) DPURPC_EXCLUDES(mu_);

  const std::string name_;
  const std::string help_;
  const MetricKind kind_;
  const std::vector<double> histogram_bounds_;
  mutable lockdep::Mutex mu_{"metrics.Family.mu"};
  // The map is guarded; the *pointees* are not — children are immutable
  // once published (their live state is all atomics) and never removed,
  // so references handed out by counter()/gauge()/histogram() stay valid
  // and lock-free for the registry's lifetime.
  std::map<Labels, std::unique_ptr<Child>> children_ DPURPC_GUARDED_BY(mu_);

  // Registry's scrape/expose visitors name the private Child type.
  friend class Registry;
};

/// One flattened sample inside a scrape snapshot.
struct Sample {
  std::string name;       ///< family name (plus _bucket/_sum/_count suffixes)
  Labels labels;
  double value = 0;
};

/// Point-in-time scrape of every metric in a registry.
struct Snapshot {
  /// CLOCK_MONOTONIC timestamp of the scrape (WallTimer::now). Not wall
  /// clock: only deltas between snapshots are meaningful.
  uint64_t mono_ns = 0;
  std::vector<Sample> samples;

  /// Value of a sample, or nullptr if absent.
  const Sample* find(std::string_view name, const Labels& labels = {}) const;
};

/// Owns metric families; thread-safe registration and scraping.
class Registry {
 public:
  Family& counter_family(std::string name, std::string help);
  Family& gauge_family(std::string name, std::string help);
  Family& histogram_family(std::string name, std::string help,
                           std::vector<double> bounds);

  /// Scrape all families into a snapshot (the monitoring-server pull).
  Snapshot scrape() const;

  /// Prometheus text exposition format (for /metrics-style dumps).
  std::string expose_text() const;

 private:
  Family& family(std::string name, std::string help, MetricKind kind,
                 std::vector<double> bounds) DPURPC_EXCLUDES(mu_);

  mutable lockdep::Mutex mu_{"metrics.Registry.mu"};
  // Families are append-only and never destroyed before the registry, so
  // the Family& results of *_family() outlive every caller.
  std::vector<std::unique_ptr<Family>> families_ DPURPC_GUARDED_BY(mu_);
};

/// Process-wide default registry.
Registry& default_registry();

/// Unlabeled counter in the default registry. Idempotent per name; hot
/// paths should cache the returned reference (registration takes a lock).
Counter& default_counter(std::string name, std::string help);

/// Gauge in the default registry, optionally labeled (the codec pool
/// registers one child per worker). Same idempotence/caching rules as
/// default_counter.
Gauge& default_gauge(std::string name, std::string help, const Labels& labels = {});

}  // namespace dpurpc::metrics

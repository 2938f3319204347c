// Process-global metrics registry: counters, gauges, log2-bucket histograms.
//
// Every engine publishes work counters here under stable, engine-prefixed
// names (the catalog is in README "Observability"): oracle solve/cache-hit
// counters, sweep region/queue stats, fraig refinement and solver-conflict
// histograms, rewrite gain/commit counters, service job-lifecycle and
// warm-cache and journal-fsync metrics. Two consumers:
//
//   * Prometheus-style text exposition (prometheus_text), written atomically
//     by the service daemon as <spool>/metrics.prom next to
//     service_stats.json, and as a final snapshot on --serve-once exit.
//   * The `obs` block in every BENCH_*.json (counter_snapshot through
//     benchjson::obs_json), gated for schema presence by
//     scripts/check_bench_regression.py.
//
// Hot-path cost: metric updates are relaxed atomic adds; call sites cache
// the Counter&/Histogram& in a function-local static so the name lookup
// (mutex + map) happens once per process. Registration never invalidates
// references — reset() zeroes values in place and entries are never erased.
//
// Determinism contract: metrics are observability output only. The engines'
// counter values are deterministic totals (the pool.* counters are not), but
// nothing in the repo may read a metric back to make a decision — netlists,
// decision traces, and gated BENCH stats must remain byte-identical with or
// without metrics consumers.
// Timing lives only in traces, histograms, and the exposition, never in
// gated outputs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smartly::obs {

class Counter {
public:
  void add(uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
public:
  void set(uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed log2 buckets: bucket i counts observations with value <= 2^i - 1
/// rendered cumulatively (Prometheus `le` convention), i in [0, kBuckets);
/// the last bucket is +Inf. 2^31 - 1 as the largest finite bound covers
/// conflict counts and microsecond latencies alike.
class Histogram {
public:
  static constexpr int kBuckets = 33; ///< le 0, 1, 3, 7, ..., 2^31-1, +Inf

  void observe(uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i (2^i - 1); the last bucket is +Inf.
  static uint64_t bucket_bound(int i) noexcept { return (uint64_t(1) << i) - 1; }
  /// Index of the bucket an observation lands in: the smallest i with
  /// v <= 2^i - 1, saturating at the +Inf bucket.
  static int bucket_index(uint64_t v) noexcept {
    for (int i = 0; i < kBuckets - 1; ++i)
      if (v <= bucket_bound(i))
        return i;
    return kBuckets - 1;
  }
  void reset() noexcept {
    for (auto& b : buckets_)
      b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Name-keyed registry. Lookup is mutex-protected; returned references are
/// stable for the process lifetime (entries are never erased).
class Registry {
public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted flat snapshot of every metric as (name, value) pairs: counters
  /// and gauges verbatim, histograms as <name>.count and <name>.sum. This
  /// is what the BENCH `obs` block embeds.
  std::vector<std::pair<std::string, uint64_t>> snapshot() const;

  /// Prometheus text exposition format. Metric names are prefixed
  /// `smartly_` with dots mapped to underscores; histograms render
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
  std::string prometheus_text() const;

  /// Zero every registered metric in place (references stay valid).
  void reset_all();

private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands for the call-site idiom: cache the reference in a
/// function-local static so the registry lookup happens once.
inline Counter& counter(const char* name) { return Registry::global().counter(name); }
inline Gauge& gauge(const char* name) { return Registry::global().gauge(name); }
inline Histogram& histogram(const char* name) {
  return Registry::global().histogram(name);
}

} // namespace smartly::obs

#pragma once
// te::obs -- structured observability with a zero-cost disabled mode.
//
// The paper's headline claims are throughput numbers, and the repo's other
// subsystems (scheduler, GPU simulator, SS-HOPM) each grew their own ad-hoc
// counters. te::obs replaces the per-bench printf plumbing with one
// registry-based metric model:
//
//   Counter   -- monotone int64, sharded per thread (safe from any thread)
//   Gauge     -- last-written double (atomic; "current value" semantics)
//   Histogram -- count/total/min/max plus log2 buckets of a double-valued
//                observation stream (iteration counts, chunk latencies,
//                span durations), sharded per thread. `Timer` is an alias:
//                the canonical unit for time-valued histograms is seconds.
//   Registry  -- thread-safe name -> metric table with stable references:
//                a Counter& fetched once stays valid for the registry's
//                lifetime, so hot paths resolve names once and then pay an
//                uncontended atomic op on their own thread's shard per event.
//
// Counters and histograms are written on the hot paths of every worker
// thread (one counter bump per ttsv call), so each keeps kShards
// cache-line-padded shards: a thread writes only the shard it was assigned
// round-robin on its first write, and readers merge all shards. Writers on
// different shards never touch a shared cache line; threads beyond kShards
// share shards, which costs contention but never loses an event.
//
// RAII trace spans (span.hpp) and JSON/CSV exporters (export.hpp) sit on
// top. Everything compiles to empty inline stubs when the build sets
// -DTE_OBS_DISABLED=1 (cmake -DTE_OBS=OFF): no storage, no atomics, no
// strings -- the disabled-mode micro-bench (bench_obs_overhead) exists to
// keep that claim honest.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#if defined(TE_OBS_DISABLED)
#define TE_OBS_ENABLED 0
/// Statement-level gate: expands to nothing in disabled builds.
#define TE_OBS_ONLY(expr) ((void)0)
#else
#define TE_OBS_ENABLED 1
#define TE_OBS_ONLY(expr) expr
#endif

namespace te::obs {

/// Number of log2 latency buckets kept per histogram. Bucket i counts
/// observations in [2^i, 2^(i+1)) microseconds-equivalent units (see
/// Histogram::bucket_index); the first and last buckets absorb underflow
/// and overflow.
inline constexpr int kHistogramBuckets = 28;

// ---------------------------------------------------------------------------
// Snapshot value types (shared by both build modes so exporters and tools
// compile identically with TE_OBS=OFF; the snapshot is then just empty).
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0;
};

struct HistogramSample {
  std::string name;
  std::int64_t count = 0;
  double total = 0;
  double min = 0;
  double max = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  }
  /// Estimated q-quantile (q in [0, 1]); see quantile_from_buckets.
  [[nodiscard]] double quantile(double q) const;
};

/// Estimate the q-quantile of a bucketed observation stream. Buckets follow
/// Histogram::bucket_index (bucket 0 = values below 1e-6, bucket i >= 1 =
/// [2^(i-1), 2^i) microseconds-equivalent); the estimate interpolates
/// linearly inside the bucket that crosses rank q * count and is clamped to
/// the exact recorded [min, max], so single-observation streams and the
/// extreme quantiles are exact. Returns 0 for an empty stream.
[[nodiscard]] double quantile_from_buckets(
    const std::array<std::int64_t, kHistogramBuckets>& buckets,
    std::int64_t count, double min, double max, double q);

inline double HistogramSample::quantile(double q) const {
  return quantile_from_buckets(buckets, count, min, max, q);
}

struct SpanSample {
  std::string path;   ///< dotted parent.child chain, e.g. "batch.run.chunk"
  int depth = 0;      ///< 0 = root span
  double start_seconds = 0;     ///< relative to the registry's epoch
  double duration_seconds = 0;
};

/// Point-in-time copy of a registry's contents, ordered by name (counters,
/// gauges, histograms) and by finish time (spans). This is what the
/// exporters consume.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }
};

#if TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Enabled implementations.
// ---------------------------------------------------------------------------

namespace detail {

/// Shards per counter/histogram. A power of two, so a thread's shard is its
/// round-robin ticket masked; 16 covers the worker pools this library runs
/// while keeping a counter at 1 KB.
inline constexpr std::uint32_t kShards = 16;
static_assert((kShards & (kShards - 1)) == 0, "kShards must be a power of 2");
inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::uint32_t kNoShard = ~std::uint32_t{0};

/// Round-robin ticket dispenser for shard assignment.
inline std::atomic<std::uint32_t> next_shard{0};
/// This thread's shard, assigned on its first metric write.
inline thread_local std::uint32_t thread_shard = kNoShard;

/// The calling thread's shard index in [0, kShards).
inline std::uint32_t shard_index() {
  std::uint32_t s = thread_shard;
  if (s == kNoShard) [[unlikely]] {
    s = next_shard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    thread_shard = s;
  }
  return s;
}

}  // namespace detail

/// Monotone event counter. Writes are relaxed atomic adds on the calling
/// thread's shard; value() sums the shards. Counters are statistics, not
/// synchronization.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::int64_t n) {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(detail::kCacheLine) Shard {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// Last-value gauge (queue depth, cache hit rate, occupancy fraction).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// Streaming histogram: count/total/min/max plus log2 buckets. record()
/// touches only the calling thread's shard (lock-free; the min/max CAS
/// loops only contend when threads share a shard). Readers merge the
/// shards. The count is the sum of the buckets, so the two always agree,
/// and the bucket increment is a release that the merge acquires, so every
/// counted event's min/max is in the merge; total may lead or trail the
/// count by in-flight events.
class Histogram {
 public:
  void record(double v);

  [[nodiscard]] std::int64_t count() const { return merged().count; }
  [[nodiscard]] double total() const { return merged().total; }
  [[nodiscard]] double min() const { return merged().min; }
  [[nodiscard]] double max() const { return merged().max; }
  [[nodiscard]] double mean() const { return merged().mean(); }
  [[nodiscard]] std::array<std::int64_t, kHistogramBuckets> buckets() const {
    return merged().buckets;
  }

  /// Estimated q-quantile of everything recorded so far (q in [0, 1]):
  /// p50 = quantile(0.5), p99 = quantile(0.99). Log2-bucket resolution --
  /// the estimate is exact at the recorded min/max and within one bucket
  /// (a factor of 2) elsewhere, which is the right grain for latency SLOs.
  [[nodiscard]] double quantile(double q) const {
    return merged().quantile(q);
  }

  /// Bucket for one observation: log2 of the value in microsecond-scale
  /// units (values below 1e-6 land in bucket 0; huge values clamp to the
  /// last bucket). Exposed for the tests.
  [[nodiscard]] static int bucket_index(double v);

 private:
  friend class Registry;

  /// Every shard merged into one sample (the empty stream reads zeros).
  [[nodiscard]] HistogramSample merged() const;

  struct alignas(detail::kCacheLine) Shard {
    std::atomic<double> total{0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// Time-valued histogram; canonical unit: seconds.
using Timer = Histogram;

/// Thread-safe named-metric table. Lookup is mutex-guarded (intended for
/// cold paths: resolve once, cache the reference); the returned references
/// stay valid for the registry's lifetime (deque-backed storage, entries
/// are never erased). Spans land in a bounded ring so a long-running
/// process cannot grow without bound.
class Registry {
 public:
  explicit Registry(std::size_t span_capacity = 1024);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);
  /// Alias of histogram(): a timer is a histogram of seconds.
  [[nodiscard]] Timer& timer(const std::string& name) {
    return histogram(name);
  }

  /// Record one finished trace span (called by obs::Span's destructor).
  void record_span(const std::string& path, int depth, double start_seconds,
                   double duration_seconds);

  /// Seconds since this registry was constructed (span timestamps base).
  [[nodiscard]] double now_seconds() const;

  /// Copy-out of every metric, ordered by name, with each counter and
  /// histogram merged across its shards. Concurrent writers may or may not
  /// be included.
  [[nodiscard]] Snapshot snapshot() const;

  /// Drop every metric and span (bench/test isolation; references returned
  /// earlier become dangling -- callers that cache references must not use
  /// reset() concurrently with recording).
  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide default registry used by the built-in instrumentation
/// (kernel dispatch, SS-HOPM, the batch scheduler, gpusim launches).
[[nodiscard]] Registry& global();

#else  // !TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Disabled stubs: identical API, no storage, no side effects. Everything is
// inline and trivially dead-code-eliminated.
// ---------------------------------------------------------------------------

class Counter {
 public:
  void inc() {}
  void add(std::int64_t) {}
  [[nodiscard]] std::int64_t value() const { return 0; }
};

class Gauge {
 public:
  void set(double) {}
  [[nodiscard]] double value() const { return 0; }
};

class Histogram {
 public:
  void record(double) {}
  [[nodiscard]] std::int64_t count() const { return 0; }
  [[nodiscard]] double total() const { return 0; }
  [[nodiscard]] double min() const { return 0; }
  [[nodiscard]] double max() const { return 0; }
  [[nodiscard]] double mean() const { return 0; }
  [[nodiscard]] std::array<std::int64_t, kHistogramBuckets> buckets() const {
    return {};
  }
  [[nodiscard]] double quantile(double) const { return 0; }
  [[nodiscard]] static int bucket_index(double) { return 0; }
};

using Timer = Histogram;

class Registry {
 public:
  explicit Registry(std::size_t = 0) {}
  [[nodiscard]] Counter& counter(const std::string&) { return counter_; }
  [[nodiscard]] Gauge& gauge(const std::string&) { return gauge_; }
  [[nodiscard]] Histogram& histogram(const std::string&) { return hist_; }
  [[nodiscard]] Timer& timer(const std::string&) { return hist_; }
  void record_span(const std::string&, int, double, double) {}
  [[nodiscard]] double now_seconds() const { return 0; }
  [[nodiscard]] Snapshot snapshot() const { return {}; }
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram hist_;
};

[[nodiscard]] inline Registry& global() {
  static Registry r;
  return r;
}

#endif  // TE_OBS_ENABLED

}  // namespace te::obs

#pragma once
// Shared plumbing of the repository benchmark: run configuration, the
// metric report, quantiles, in-memory trace spans, te::obs deltas and the
// ttsv kernel replay. Every workload (paper_batch, tract_phantom,
// serve_stream) builds on these; see perfbench/README.md.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "te/dwmri/dataset.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/symmetric_tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line configuration of one benchmark invocation.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured window of one pass
  bool trace = false;   ///< per-layer run (spans on) instead of end-to-end
  std::filesystem::path out_dir;  ///< scratch files, WALs, trace output
  int threads = 1;                ///< hardware threads of this host
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one invocation measured and whether its outputs were correct.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check: the run is not correct.
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Set-ups timed per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Run `setup` `reps` times and return the median wall time in seconds.
double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Put the end-to-end latency metrics of a request stream into `r`.
/// `all_ms` and `interactive_ms` are per-request latencies in ms.
void set_latency_metrics(Report& r, const std::vector<double>& all_ms,
                         const std::vector<double>& interactive_ms);

/// True fibers matched by a recovered local maximum within 10 degrees.
struct FiberScore {
  std::int64_t matched = 0;
  std::int64_t fibers = 0;

  [[nodiscard]] double fraction() const {
    return fibers > 0 ? static_cast<double>(matched) /
                            static_cast<double>(fibers)
                      : 0;
  }
  FiberScore& operator+=(const FiberScore& o) {
    matched += o.matched;
    fibers += o.fibers;
    return *this;
  }
};

/// Score the local maxima of each tensor's eigenpair list against the
/// matching voxel's true fibers (lists[i] belongs to truth[i]).
[[nodiscard]] FiberScore score_local_maxima(
    const std::vector<std::vector<te::sshopm::Eigenpair<float>>>& lists,
    std::span<const te::dwmri::Voxel<float>> truth);

// ---------------------------------------------------------------------------
// Trace spans, kept in memory and written out at the end of a traced run.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1 for a root span
  std::int64_t request = -1;  ///< request the span belongs to (-1: none)
  const char* name = "";      ///< "<layer>.<public function>" or "bench.*"
  double start = 0;           ///< seconds since the tracer's epoch
  double end = 0;
};

/// Span sink. Disabled tracers record nothing, so untraced runs pay one
/// branch per span site. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return seconds_between(epoch_, Clock::now());
  }
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  [[nodiscard]] std::int64_t next_id() { return ids_.fetch_add(1); }

  void record(const SpanRecord& s);

  /// Sum of the durations of spans called `name` that start in
  /// [from, to).
  [[nodiscard]] double total(const std::string& name, double from,
                             double to) const;
  /// Share of [from, to) covered by the union of stage spans (every span
  /// except the "request" roots).
  [[nodiscard]] double coverage(double from, double to) const;

  /// Write every span as one JSON array.
  void write_json(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::int64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  Span(Tracer& t, const char* name, std::int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  Span* parent_ = nullptr;
};

// ---------------------------------------------------------------------------
// te::obs deltas: the layer-boundary counts the library already exports.
// ---------------------------------------------------------------------------

struct ObsCounts {
  std::int64_t ttsv_calls = 0;  ///< ttsv0 + ttsv1 over every tier
  std::int64_t solves = 0;
  std::int64_t converged = 0;
  double iterations = 0;  ///< summed SS-HOPM iterations
  std::int64_t chunks = 0;
  std::int64_t wal_appends = 0;

  [[nodiscard]] static ObsCounts now();
  [[nodiscard]] ObsCounts operator-(const ObsCounts& o) const;
  ObsCounts& operator+=(const ObsCounts& o);
};

/// q-quantile of the te::obs histogram whose name ends in `suffix`
/// (0 when absent).
[[nodiscard]] double obs_histogram_quantile(const std::string& suffix,
                                            double q);

/// Put the sshopm.* and kernels.ttsv_calls metrics of an obs delta in `r`.
void set_solver_metrics(Report& r, const ObsCounts& d);

// ---------------------------------------------------------------------------
// Kernel replay: ttsv0/ttsv1 timed directly through BoundKernels.
// ---------------------------------------------------------------------------

/// Time alternating ttsv0/ttsv1 calls (the SS-HOPM inner loop) over every
/// (tensor, start) pair and put kernels.<tier>_m<m>n<n>.{ns,bytes,flops}
/// _per_call into `r`. Bytes are computed from array sizes, flops come from
/// kernels::flop_model (the Table II convention).
void report_kernel_replay(Report& r, te::kernels::Tier tier,
                          std::span<const te::SymmetricTensor<float>> tensors,
                          std::span<const std::vector<float>> starts);

/// Bitwise equality of two SS-HOPM results (lambda, iterate, status).
[[nodiscard]] bool same_bits(const te::sshopm::Result<float>& a,
                             const te::sshopm::Result<float>& b);

/// FNV-1a over the packed values of some tensors (input fingerprints for
/// the determinism self-test).
[[nodiscard]] std::uint64_t hash_tensors(
    std::span<const te::SymmetricTensor<float>> tensors);

/// Exact counts of one fixed unit of work; two runs with the same seed
/// must agree on all of them.
struct DeterminismCounts {
  std::int64_t solves = 0;
  double iterations_mean = 0;
  std::int64_t ttsv_calls = 0;
  std::int64_t tract_points = 0;
  double fiber_recovery = 0;
  std::uint64_t input_hash = 0;

  [[nodiscard]] bool same_counts(const DeterminismCounts& o) const {
    return solves == o.solves && iterations_mean == o.iterations_mean &&
           ttsv_calls == o.ttsv_calls && tract_points == o.tract_points &&
           fiber_recovery == o.fiber_recovery;
  }
};

/// Run `unit(seed)` twice and `unit(seed + 1)` once; fail `r` unless the
/// first two agree exactly and the third saw different inputs.
void determinism_self_test(
    Report& r, std::uint64_t seed,
    const std::function<DeterminismCounts(std::uint64_t)>& unit);

// Workloads.
[[nodiscard]] Report run_paper_batch(const RunConfig& cfg);
[[nodiscard]] Report run_tract_phantom(const RunConfig& cfg);
[[nodiscard]] Report run_serve_stream(const RunConfig& cfg);

}  // namespace perfbench

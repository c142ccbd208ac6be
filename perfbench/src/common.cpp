#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "te/kernels/flop_model.hpp"
#include "te/obs/obs.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

void set_latency_metrics(Report& r, const std::vector<double>& all_ms,
                         const std::vector<double>& interactive_ms) {
  r.set("req_p50_ms", quantile(all_ms, 0.50), "ms");
  r.set("req_p99_ms", quantile(all_ms, 0.99), "ms");
  r.set("interactive_p99_ms", quantile(interactive_ms, 0.99), "ms");
  std::printf("latency samples: %zu requests, %zu interactive\n",
              all_ms.size(), interactive_ms.size());
}

FiberScore score_local_maxima(
    const std::vector<std::vector<te::sshopm::Eigenpair<float>>>& lists,
    std::span<const te::dwmri::Voxel<float>> truth) {
  FiberScore total;
  for (std::size_t v = 0; v < lists.size(); ++v) {
    std::vector<std::vector<float>> peaks;
    for (const auto& pair : lists[v]) {
      if (pair.type == te::sshopm::SpectralType::kLocalMax) {
        peaks.push_back(pair.x);
      }
    }
    const auto score = te::dwmri::score_recovery(
        truth[v],
        std::span<const std::vector<float>>(peaks.data(), peaks.size()));
    total.matched += score.matched;
    total.fibers += score.true_fibers;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

void Tracer::record(const SpanRecord& s) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  spans_.push_back(s);
}

double Tracer::total(const std::string& name, double from, double to) const {
  std::lock_guard lock(mutex_);
  double sum = 0;
  for (const auto& s : spans_) {
    if (s.start >= from && s.start < to && name == s.name) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

double Tracer::coverage(double from, double to) const {
  std::vector<std::pair<double, double>> iv;
  {
    std::lock_guard lock(mutex_);
    for (const auto& s : spans_) {
      if (std::string_view(s.name) == "request") continue;  // not a stage
      const double a = std::max(s.start, from);
      const double b = std::min(s.end, to);
      if (b > a) iv.emplace_back(a, b);
    }
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double reach = from;
  for (const auto& [a, b] : iv) {
    const double lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return to > from ? covered / (to - from) : 0;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                  "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}%s\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request), s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  i + 1 < spans_.size() ? "," : "");
    os << line;
  }
  os << "]\n";
}

namespace {
thread_local Span* open_span = nullptr;
}  // namespace

Span::Span(Tracer& t, const char* name, std::int64_t request)
    : tracer_(&t) {
  if (!t.enabled()) return;
  parent_ = open_span;
  rec_.id = t.next_id();
  rec_.parent = parent_ != nullptr ? parent_->rec_.id : -1;
  rec_.request = request >= 0 || parent_ == nullptr ? request
                                                    : parent_->rec_.request;
  rec_.name = name;
  rec_.start = t.now();
  open_span = this;
}

Span::~Span() {
  if (!tracer_->enabled()) return;
  rec_.end = tracer_->now();
  tracer_->record(rec_);
  open_span = parent_;
}

// ---------------------------------------------------------------------------
// te::obs deltas.
// ---------------------------------------------------------------------------

ObsCounts ObsCounts::now() {
  ObsCounts c;
  const auto snap = te::obs::global().snapshot();
  for (const auto& s : snap.counters) {
    if (s.name.rfind("kernels.ttsv0.calls.", 0) == 0 ||
        s.name.rfind("kernels.ttsv1.calls.", 0) == 0 ||
        s.name.rfind("kernels.ttsv0_multi.calls.", 0) == 0 ||
        s.name.rfind("kernels.ttsv1_multi.calls.", 0) == 0) {
      c.ttsv_calls += s.value;
    } else if (s.name == "sshopm.solve.runs") {
      c.solves = s.value;
    } else if (s.name == "sshopm.solve.converged") {
      c.converged = s.value;
    } else if (s.name == "batch.scheduler.chunks_executed") {
      c.chunks = s.value;
    } else if (s.name == "io.checkpoint.chunks_appended") {
      c.wal_appends = s.value;
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "sshopm.solve.iterations") c.iterations = h.total;
  }
  return c;
}

ObsCounts ObsCounts::operator-(const ObsCounts& o) const {
  ObsCounts d;
  d.ttsv_calls = ttsv_calls - o.ttsv_calls;
  d.solves = solves - o.solves;
  d.converged = converged - o.converged;
  d.iterations = iterations - o.iterations;
  d.chunks = chunks - o.chunks;
  d.wal_appends = wal_appends - o.wal_appends;
  return d;
}

ObsCounts& ObsCounts::operator+=(const ObsCounts& o) {
  ttsv_calls += o.ttsv_calls;
  solves += o.solves;
  converged += o.converged;
  iterations += o.iterations;
  chunks += o.chunks;
  wal_appends += o.wal_appends;
  return *this;
}

double obs_histogram_quantile(const std::string& suffix, double q) {
  const auto snap = te::obs::global().snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name.size() >= suffix.size() &&
        h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      return h.quantile(q);
    }
  }
  return 0;
}

void set_solver_metrics(Report& r, const ObsCounts& d) {
  const double runs = static_cast<double>(d.solves);
  r.set("sshopm.solves", runs, "count");
  r.set("sshopm.iterations_mean", runs > 0 ? d.iterations / runs : 0,
        "iterations");
  r.set("sshopm.converged_frac",
        runs > 0 ? static_cast<double>(d.converged) / runs : 0, "fraction");
  r.set("kernels.ttsv_calls", static_cast<double>(d.ttsv_calls), "count");
}

// ---------------------------------------------------------------------------
// Kernel replay.
// ---------------------------------------------------------------------------

void report_kernel_replay(Report& r, te::kernels::Tier tier,
                          std::span<const te::SymmetricTensor<float>> tensors,
                          std::span<const std::vector<float>> starts) {
  constexpr double kMinSeconds = 0.3;
  using te::kernels::Tier;
  const int m = tensors.front().order();
  const int n = tensors.front().dim();
  const te::kernels::KernelTables<float> tables(m, n);
  std::vector<te::kernels::BoundKernels<float>> bound;
  bound.reserve(tensors.size());
  for (const auto& a : tensors) bound.emplace_back(a, tier, &tables);

  std::vector<float> y(static_cast<std::size_t>(n));
  double sink = 0;
  std::int64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (const auto& k : bound) {
      for (const auto& x : starts) {
        const std::span<const float> xs(x.data(), x.size());
        sink += static_cast<double>(k.ttsv0(xs));
        k.ttsv1(xs, std::span<float>(y.data(), y.size()));
        sink += static_cast<double>(y[0]);
      }
    }
    calls += 2 * static_cast<std::int64_t>(bound.size() * starts.size());
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < kMinSeconds);
  // Consume the results so the calls cannot be optimized away.
  if (!std::isfinite(sink)) std::printf("kernel replay: non-finite output\n");

  // Computed bytes: every array one call reads or writes, counted once.
  const double s = sizeof(float);
  const double u = static_cast<double>(tensors.front().num_unique());
  const double vec = n * s;
  double bytes0 = u * s + vec;        // values + x
  double bytes1 = u * s + vec + vec;  // values + x + y
  if (tier == Tier::kPrecomputed) {
    const double idx = u * m * sizeof(te::index_t);
    bytes0 += idx + u * s;  // class index table + coefficient table
    bytes1 += idx + static_cast<double>(tables.contributions().size()) *
                        sizeof(te::kernels::KernelTables<float>::Contribution);
  }
  const double flops =
      static_cast<double>(te::kernels::flops_symmetric_ttsv0(m, n).flops() +
                          te::kernels::flops_symmetric_ttsv1(m, n).flops());
  const std::string base = "kernels." +
                           std::string(te::kernels::tier_name(tier)) + "_m" +
                           std::to_string(m) + "n" + std::to_string(n);
  r.set(base + ".ns_per_call", elapsed * 1e9 / static_cast<double>(calls),
        "ns");
  r.set(base + ".bytes_per_call", (bytes0 + bytes1) / 2, "B");
  r.set(base + ".flops_per_call", flops / 2, "flop");
}

bool same_bits(const te::sshopm::Result<float>& a,
               const te::sshopm::Result<float>& b) {
  if (std::bit_cast<std::uint32_t>(a.lambda) !=
          std::bit_cast<std::uint32_t>(b.lambda) ||
      a.iterations != b.iterations || a.converged != b.converged ||
      a.failure != b.failure || a.x.size() != b.x.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.x[i]) !=
        std::bit_cast<std::uint32_t>(b.x[i])) {
      return false;
    }
  }
  return true;
}

std::uint64_t hash_tensors(
    std::span<const te::SymmetricTensor<float>> tensors) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& a : tensors) {
    for (const float v : a.values()) {
      h ^= std::bit_cast<std::uint32_t>(v);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void determinism_self_test(
    Report& r, std::uint64_t seed,
    const std::function<DeterminismCounts(std::uint64_t)>& unit) {
  const DeterminismCounts a = unit(seed);
  const DeterminismCounts b = unit(seed);
  const DeterminismCounts c = unit(seed + 1);
  if (!a.same_counts(b) || a.input_hash != b.input_hash) {
    r.fail("determinism: two runs with the same seed disagree");
  }
  if (a.input_hash == c.input_hash) {
    r.fail("determinism: a different seed produced identical inputs");
  }
  std::printf("determinism self-test: solves=%lld iterations_mean=%.6f "
              "ttsv_calls=%lld tract_points=%lld fiber_recovery=%.6f %s\n",
              static_cast<long long>(a.solves), a.iterations_mean,
              static_cast<long long>(a.ttsv_calls),
              static_cast<long long>(a.tract_points), a.fiber_recovery,
              a.same_counts(b) ? "(repeats exactly)" : "(MISMATCH)");
}

}  // namespace perfbench

#pragma once
// Shifted Symmetric Higher-Order Power Method (paper Fig. 1; Kolda & Mayo).
//
// Given a symmetric A in R^[m,n], a shift alpha and a unit start x_0,
// iterate
//     xhat <- +-(A x_k^{m-1} + alpha x_k)     (sign of alpha picks +-)
//     x_{k+1} <- xhat / ||xhat||
//     lambda_{k+1} <- A x_{k+1}^m
// until lambda converges. alpha >= 0 forces convexity of the underlying
// function and convergence to (constrained) local *maxima* of f(x) = A x^m;
// alpha < 0 forces concavity and local minima. The fixed points satisfy
// A x^{m-1} = lambda x, i.e. they are Z-eigenpairs (Definition 3).
//
// The iteration itself is one state machine, detail::Run: the start sweep
// (detail::sweep_runs, behind solve() and solve_starts()), solve_adaptive()
// and the simulated-GPU thread only call kernels and feed it, so every loop
// stops and classifies a run by the same rules. The shift-normalise update
// is one expression, detail::shift_norm / detail::scale_to_unit, written
// once over a value type: Run::update instantiates it for T and the sweep
// for kSweepLanes SIMD lanes, so both round alike. The sweep is
// tier-agnostic: it calls through a BoundKernels facade, so the same loop
// drives every host tier.

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/obs/obs.hpp"
#include "te/util/linalg.hpp"
#include "te/util/op_counter.hpp"
#include "te/util/simd.hpp"
#include "te/util/small_vector.hpp"

namespace te::sshopm {

/// Iteration controls. Defaults follow the paper's experiment: lambda-based
/// convergence, tolerance loose enough for single precision.
struct Options {
  double alpha = 0.0;      ///< shift (paper uses 0 for the DW-MRI set)
  int max_iterations = 200;
  double tolerance = 1e-7;  ///< |lambda_{k+1} - lambda_k| convergence bound
};

/// Why a run stopped without converging. Degenerate inputs (zero starts,
/// NaN/Inf tensor entries, alpha cancellation producing a zero iterate)
/// are *reported*, never thrown: solve() runs inside scheduler worker
/// threads where an escaping exception is fatal.
enum class FailureReason : std::uint8_t {
  kNone,               ///< run converged
  kMaxIterations,      ///< budget exhausted before |dlambda| <= tol
  kDegenerateIterate,  ///< iterate norm zero or non-finite; cannot normalize
  kNonFiniteLambda,    ///< Rayleigh quotient went NaN/Inf (poisoned data)
};

[[nodiscard]] constexpr std::string_view failure_reason_name(
    FailureReason f) {
  switch (f) {
    case FailureReason::kNone:
      return "none";
    case FailureReason::kMaxIterations:
      return "max-iterations";
    case FailureReason::kDegenerateIterate:
      return "degenerate-iterate";
    case FailureReason::kNonFiniteLambda:
      return "non-finite-lambda";
  }
  return "?";
}

/// Iterate entries a Result keeps inline; longer iterates spill to the
/// heap. Four covers the paper's DW-MRI and tractography tensors (n = 3)
/// and keeps Result<float> at 32 bytes.
inline constexpr std::size_t kInlineIterate = 4;

/// Outcome of one SS-HOPM run.
/// Members are ordered widest first so Result<float> packs into 32 bytes
/// (Result<double> into 56) with an iterate of up to kInlineIterate entries
/// inside it: a volume-scale batch holds one Result per (tensor, start),
/// and none of them owns a heap block. The per-iteration lambda sequence is
/// not kept here; solve() hands it out through its optional `lambda_trace`
/// argument.
template <Real T>
struct Result {
  /// final unit iterate (on kDegenerateIterate: the last pre-normalization
  /// iterate)
  SmallVector<T, kInlineIterate> x;
  T lambda = T(0);          ///< final Rayleigh quotient A x^m
  int iterations = 0;       ///< iterations actually performed
  /// kNone iff converged; otherwise why the run stopped.
  FailureReason failure = FailureReason::kNone;
  bool converged = false;   ///< lambda change fell below tolerance
};

namespace detail {
/// The one shift-normalise expression of SS-HOPM, over V = T (one iterate,
/// entries contiguous) or V = simd::Pack<T, W> (W iterates in SoA rows:
/// entry i of lane w at x[i * W + w]): x <- sign (y + alpha x), returning
/// ||x||. scale_to_unit() then multiplies x by 1/||x||. Run::update and the
/// start sweep's lanes both instantiate these, so every lane rounds -- FMA
/// contraction included -- exactly as a lone run does (DESIGN.md section
/// 11).
///
/// The squares are summed in order. In the leading blocks of four each
/// square is rounded before it is added; only the n mod 4 trailing ones may
/// contract into an FMA. That is what GCC's vectorizer makes of a plain
/// scalar loop (an in-order reduction of four-wide products, then a scalar
/// epilogue), and so what every run computed before the lanes existed;
/// spelled out, it no longer depends on how the scalar instantiation is
/// vectorized, and the lane instantiation rounds the same way.
template <class V, Real T>
[[nodiscard]] inline V shift_norm(T* x, const T* y, std::size_t n, V alpha,
                                  V sign) {
  constexpr std::size_t w = simd::kLanes<V>;
  for (std::size_t i = 0; i < n; ++i) {
    const V xi = simd::load<V>(x + i * w);
    simd::store(sign * (simd::load<V>(y + i * w) + alpha * xi), x + i * w);
  }
  V ss = simd::splat<V>(T(0));
  const std::size_t blocked = n - n % 4;
  for (std::size_t i = 0; i < blocked; ++i) {
    const V xi = simd::load<V>(x + i * w);
    ss += simd::rounded(xi * xi);
  }
  for (std::size_t i = blocked; i < n; ++i) {
    const V xi = simd::load<V>(x + i * w);
    ss += xi * xi;
  }
  using std::sqrt;
  return sqrt(ss);
}

/// x <- x * (1 / norm), the second half of the update (see shift_norm).
template <class V, Real T>
inline void scale_to_unit(T* x, std::size_t n, V norm) {
  constexpr std::size_t w = simd::kLanes<V>;
  const V inv = simd::splat<V>(T(1)) / norm;
  for (std::size_t i = 0; i < n; ++i) {
    simd::store(simd::load<V>(x + i * w) * inv, x + i * w);
  }
}

/// One SS-HOPM run (paper Fig. 1) as a state machine over its Result: the
/// callers run the kernels and feed the values in, and these steps alone
/// decide when the run stops and what lambda, x, iterations and failure
/// it reports, and append every accepted lambda to `lambda_trace` when
/// one is given. A run is live while it has neither converged nor
/// failed; each step returns whether it still is. r.lambda always holds the
/// last accepted Rayleigh quotient and r.x the iterate (on
/// kDegenerateIterate: the one that could not be normalized).
///
/// All run state lives in the Result (Run adds only the tolerance and the
/// trace sink), so a caller may rebuild a Run per step, as the start sweep
/// does per lane. The steps are inline and allocate nothing but the trace
/// and, for an iterate longer than kInlineIterate, start()'s heap copy of
/// it.
template <Real T>
class Run {
 public:
  Run(Result<T>& r, double tolerance, std::vector<T>* lambda_trace)
      : r_(r), tolerance_(tolerance), trace_(lambda_trace) {}

  [[nodiscard]] bool live() const {
    return !r_.converged && r_.failure == FailureReason::kNone;
  }

  /// Start from x0, clearing whatever the Result held: r.x becomes x0
  /// normalized. A zero or non-finite start is degenerate and keeps
  /// r.x = x0.
  bool start(std::span<const T> x0) {
    r_.lambda = T(0);
    r_.iterations = 0;
    r_.failure = FailureReason::kNone;
    r_.converged = false;
    r_.x.assign(x0.begin(), x0.end());
    return try_normalize(std::span<T>(r_.x.data(), r_.x.size())) != T(0) ||
           fail(FailureReason::kDegenerateIterate);
  }

  /// Accept lambda_0 = A x_0^m.
  bool accept_first(T lambda0) {
    if (trace_ != nullptr) trace_->push_back(lambda0);
    r_.lambda = lambda0;
    // |next - lambda| <= tol is always false for NaN; without this check a
    // poisoned run would silently burn the whole iteration budget.
    return std::isfinite(static_cast<double>(lambda0)) ||
           fail(FailureReason::kNonFiniteLambda);
  }

  /// One iteration's update, x <- +-(y + alpha x) normalized, given
  /// y = A x^{m-1}, on r.x (shift_norm, then scale_to_unit when stepped()
  /// accepts the norm).
  bool update(std::span<const T> y, T alpha, T sign,
              OpCounts* ops = nullptr) {
    const std::size_t n = r_.x.size();
    const T norm = shift_norm(r_.x.data(), y.data(), n, alpha, sign);
    if (!stepped(norm, n, ops)) return false;
    scale_to_unit(r_.x.data(), n, norm);
    return true;
  }

  /// Count one iteration whose shifted iterate xhat (n entries) has norm
  /// `norm`: a vanished (A x^{m-1} = -alpha x exactly, or the tensor zeroed
  /// the iterate) or overflowed xhat is degenerate, and the caller keeps
  /// xhat as the run's iterate. `ops`, when given, tallies the update's
  /// vector bookkeeping.
  bool stepped(T norm, std::size_t n, OpCounts* ops) {
    ++r_.iterations;
    if (!(norm > T(0)) || !std::isfinite(static_cast<double>(norm))) {
      return fail(FailureReason::kDegenerateIterate);
    }
    if (ops) {
      const auto len = static_cast<std::int64_t>(n);
      ops->fmul += 3 * len;  // shift fma + norm dot + scaling
      ops->fadd += 2 * len;
      ops->sfu += 1;
    }
    return true;
  }

  /// Accept lambda_{k+1} = A x_{k+1}^m: the run stops on a non-finite
  /// value or when |lambda_{k+1} - lambda_k| <= tolerance.
  bool accept(T next) {
    if (trace_ != nullptr) trace_->push_back(next);
    const T prev = r_.lambda;
    r_.lambda = next;
    if (!std::isfinite(static_cast<double>(next))) {
      return fail(FailureReason::kNonFiniteLambda);
    }
    if (std::abs(static_cast<double>(next - prev)) <= tolerance_) {
      r_.converged = true;
      return false;
    }
    return true;
  }

  /// The iteration budget ran out: a run still live reports
  /// kMaxIterations.
  void finish() {
    if (live()) fail(FailureReason::kMaxIterations);
  }

 private:
  bool fail(FailureReason why) {
    r_.failure = why;
    return false;
  }

  Result<T>& r_;
  double tolerance_;
  std::vector<T>* trace_;  ///< accepted lambdas, when the caller asked
};
}  // namespace detail

/// Residual ||A x^{m-1} - lambda x||_2 of a claimed eigenpair: the
/// self-validating acceptance check used throughout the tests, and the
/// per-run worst_residual of cluster_results. Allocation-free up to
/// kernels::kMaxBatchDim (extraction calls it once per run).
template <Real T>
[[nodiscard]] T eigen_residual(const kernels::BoundKernels<T>& k,
                               T lambda, std::span<const T> x) {
  T y_stack[kernels::kMaxBatchDim];
  std::vector<T> y_heap;
  if (x.size() > static_cast<std::size_t>(kernels::kMaxBatchDim)) {
    y_heap.resize(x.size());
  }
  const std::span<T> y =
      y_heap.empty() ? std::span<T>(y_stack, x.size()) : std::span<T>(y_heap);
  k.ttsv1(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] -= lambda * x[i];
  return nrm2(std::span<const T>(y));
}

#if TE_OBS_ENABLED
namespace detail {
/// Name-resolved-once handles into the global registry: the per-run cost
/// of instrumentation is a handful of relaxed atomic ops, never a string
/// or a map lookup.
struct SolveMetrics {
  obs::Counter& runs;
  obs::Counter& converged;
  obs::Counter& fail_max_iterations;
  obs::Counter& fail_degenerate;
  obs::Counter& fail_non_finite;
  obs::Counter& trace_non_monotone;
  obs::Histogram& iterations;    ///< unit: iterations, not seconds
  obs::Histogram& lambda_final;  ///< final Rayleigh quotient (finite runs)

  static SolveMetrics& get() {
    static SolveMetrics m{
        obs::global().counter("sshopm.solve.runs"),
        obs::global().counter("sshopm.solve.converged"),
        obs::global().counter("sshopm.solve.failures.max_iterations"),
        obs::global().counter("sshopm.solve.failures.degenerate_iterate"),
        obs::global().counter("sshopm.solve.failures.non_finite_lambda"),
        obs::global().counter("sshopm.solve.trace.non_monotone_steps"),
        obs::global().histogram("sshopm.solve.iterations"),
        obs::global().histogram("sshopm.solve.lambda_final"),
    };
    return m;
  }
};

/// One post-run accounting pass: outcome counters, the iteration and
/// final-lambda distributions, and (when the caller kept a trace) the
/// monotonicity summary Kolda & Mayo's convergence theory predicts.
template <Real T>
inline void record_solve(const Result<T>& r, const Options& opt,
                         const std::vector<T>* lambda_trace = nullptr) {
  SolveMetrics& m = SolveMetrics::get();
  m.runs.inc();
  switch (r.failure) {
    case FailureReason::kNone:
      m.converged.inc();
      break;
    case FailureReason::kMaxIterations:
      m.fail_max_iterations.inc();
      break;
    case FailureReason::kDegenerateIterate:
      m.fail_degenerate.inc();
      break;
    case FailureReason::kNonFiniteLambda:
      m.fail_non_finite.inc();
      break;
  }
  m.iterations.record(static_cast<double>(r.iterations));
  if (std::isfinite(static_cast<double>(r.lambda))) {
    m.lambda_final.record(static_cast<double>(r.lambda));
  }
  if (lambda_trace != nullptr && lambda_trace->size() >= 2) {
    const std::vector<T>& trace = *lambda_trace;
    std::int64_t bad = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      const double step = static_cast<double>(trace[i]) -
                          static_cast<double>(trace[i - 1]);
      // alpha >= 0 drives lambda up (maxima), alpha < 0 down (minima).
      if (opt.alpha >= 0 ? step < 0 : step > 0) ++bad;
    }
    if (bad > 0) m.trace_non_monotone.add(bad);
  }
}
}  // namespace detail
#endif  // TE_OBS_ENABLED

#if TE_OBS_ENABLED
namespace detail {
/// Start-sweep lane accounting, name-resolved once and published once per
/// sweep: lane-steps of live runs and of idle lanes riding along.
struct SweepMetrics {
  obs::Counter& steps;                   ///< lane kernel-call pairs
  obs::Counter& lane_iterations;         ///< lane-steps of live runs
  obs::Counter& lane_iterations_wasted;  ///< idle lanes riding along
  obs::Gauge& width;
  obs::Gauge& occupancy;  ///< live fraction of lane-steps, last sweep

  static SweepMetrics& get() {
    static SweepMetrics m{
        obs::global().counter("sshopm.multi.blocks"),
        obs::global().counter("sshopm.multi.lane_iterations"),
        obs::global().counter("sshopm.multi.lane_iterations_wasted"),
        obs::global().gauge("sshopm.multi.width"),
        obs::global().gauge("sshopm.multi.lane_occupancy"),
    };
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

namespace detail {
/// SS-HOPM runs the start sweep keeps in flight: one per SIMD lane of the
/// facade's lane route (the paper's thread-per-start, Section V-B, on CPU
/// lanes). A constant, not an option, because no result depends on it.
inline constexpr int kSweepLanes = kernels::kSweepLanes;

/// The start sweep: SS-HOPM from start_at(i) into slot_at(i) for every
/// i < count, kSweepLanes runs at a time. The live iterates sit in SoA rows
/// (entry i of lane w at [i * kSweepLanes + w]); each step is one lane
/// ttsv1, one lane-wide shift_norm/scale_to_unit, one lane ttsv0, and then
/// per-lane Run decisions. A run that stops is recorded, its iterate
/// written to its Result, and its lane takes the next start; each start is
/// checked, normalised and given lambda_0 by the scalar ttsv0 exactly as a
/// lone run is. Idle lanes at the tail ride along in the kernel calls but
/// are never read.
///
/// Every slot is bitwise what a lone run produces: the lane kernels are the
/// scalar kernels per lane, the update is the same expression as
/// Run::update, and every decision is Run's. Kernel calls count one per
/// live lane and OpCounts as the scalar calls would, tallied locally and
/// published once per sweep (on every exit path). `lambda_trace` is only
/// for a one-start sweep. A start of the wrong length throws when its turn
/// comes.
template <Real T, class StartAt, class SlotAt>
void sweep_runs(const kernels::BoundKernels<T>& k, std::size_t count,
                StartAt start_at, SlotAt slot_at, const Options& opt,
                OpCounts* ops, std::vector<T>* lambda_trace) {
  TE_ASSERT(lambda_trace == nullptr || count <= 1);
  TE_REQUIRE(opt.max_iterations >= 1, "max_iterations must be positive");
  using Lanes = simd::Pack<T, kSweepLanes>;
  constexpr auto kW = static_cast<std::size_t>(kSweepLanes);
  struct Tally {
    const kernels::BoundKernels<T>& k;
    std::int64_t ttsv0 = 0;
    std::int64_t ttsv1 = 0;
    std::int64_t steps = 0;
    ~Tally() {
      k.count_calls(ttsv0, ttsv1);
      TE_OBS_ONLY(if (steps > 0) {
        auto& m = SweepMetrics::get();
        const std::int64_t lane_steps = steps * kSweepLanes;
        m.steps.add(steps);
        m.lane_iterations.add(ttsv1);
        m.lane_iterations_wasted.add(lane_steps - ttsv1);
        m.width.set(kSweepLanes);
        m.occupancy.set(static_cast<double>(ttsv1) /
                        static_cast<double>(lane_steps));
      });
    }
  } tally{k};

  const auto n = static_cast<std::size_t>(k.tensor().dim());
  alignas(simd::kBatchAlignment) T stack[2 * kW * kernels::kMaxBatchDim];
  std::vector<T, simd::AlignedAllocator<T>> heap;
  T* xb = stack;
  if (n > static_cast<std::size_t>(kernels::kMaxBatchDim)) {
    heap.resize(2 * kW * n);
    xb = heap.data();
  }
  T* const yb = xb + kW * n;
  std::fill(xb, xb + 2 * kW * n, T(0));
  const Lanes alpha = simd::splat<Lanes>(static_cast<T>(opt.alpha));
  const Lanes sign = simd::splat<Lanes>(opt.alpha >= 0 ? T(1) : T(-1));

  std::size_t slot[kW] = {};  ///< the run each lane holds
  int iterations[kW] = {};    ///< that run's iterations so far
  unsigned live = 0;          ///< lanes holding a run
  const auto bit = [](std::size_t w) { return 1u << w; };
  const auto finish = [&](Result<T>& r) {
    Run<T>(r, opt.tolerance, lambda_trace).finish();
    TE_OBS_ONLY(record_solve(r, opt, lambda_trace));
  };
  // Stop lane w's run: its lane iterate becomes the Result's.
  const auto stop = [&](std::size_t w) {
    Result<T>& r = slot_at(slot[w]);
    for (std::size_t i = 0; i < n; ++i) r.x[i] = xb[i * kW + w];
    finish(r);
    live &= ~bit(w);
  };
  // Put the next start that survives lambda_0 on lane w.
  std::size_t next = 0;
  const auto launch = [&](std::size_t w) {
    while (next < count) {
      const std::size_t s = next++;
      const std::span<const T> x0 = start_at(s);
      TE_REQUIRE(x0.size() == n, "start vector length mismatch");
      Result<T>& r = slot_at(s);
      Run<T> run(r, opt.tolerance, lambda_trace);
      if (run.start(x0)) {
        const std::span<const T> x(r.x.data(), r.x.size());
        ++tally.ttsv0;
        if (run.accept_first(k.ttsv0_uncounted(x, ops))) {
          for (std::size_t i = 0; i < n; ++i) xb[i * kW + w] = x[i];
          slot[w] = s;
          iterations[w] = 0;
          live |= bit(w);
          return;
        }
      }
      finish(r);
    }
  };

  for (std::size_t w = 0; w < kW; ++w) launch(w);
  T lambda[kW] = {};
  while (live != 0) {
    ++tally.steps;
    tally.ttsv1 += std::popcount(live);
    k.ttsv1_lanes(xb, yb, live, ops);
    const Lanes norm = shift_norm(xb, yb, n, alpha, sign);
    unsigned freed = 0;
    for (std::size_t w = 0; w < kW; ++w) {
      if ((live & bit(w)) != 0 &&
          !Run<T>(slot_at(slot[w]), opt.tolerance, lambda_trace)
               .stepped(norm.lane(static_cast<int>(w)), n, ops)) {
        stop(w);  // keeps the pre-normalisation iterate
        freed |= bit(w);
      }
    }
    scale_to_unit(xb, n, norm);
    if (live != 0) {
      tally.ttsv0 += std::popcount(live);
      k.ttsv0_lanes(xb, lambda, live, ops);
    }
    for (std::size_t w = 0; w < kW; ++w) {
      if ((live & bit(w)) == 0) continue;
      const bool going =
          Run<T>(slot_at(slot[w]), opt.tolerance, lambda_trace)
              .accept(lambda[w]);
      if (!going || ++iterations[w] >= opt.max_iterations) {
        stop(w);
        freed |= bit(w);
      }
    }
    for (std::size_t w = 0; w < kW; ++w) {
      if ((freed & bit(w)) != 0) launch(w);
    }
  }
}
}  // namespace detail

/// One SS-HOPM run from a single start (paper Fig. 1): the one-start case
/// of the start sweep.
///
/// `x0` need not be normalized. Optional OpCounts tallies the floating-point
/// work actually performed (used for measured-GFLOPS reports). Optional
/// `lambda_trace` receives lambda_0, lambda_1, ...: Kolda & Mayo prove this
/// sequence is monotone when |alpha| dominates the curvature bound -- a
/// property the tests check directly.
///
/// Never throws on degenerate *values* (zero/NaN/Inf starts or tensor
/// entries): such runs come back with converged == false and
/// Result::failure saying why. TE_REQUIRE still rejects structural misuse
/// (wrong start length, non-positive iteration budget).
template <Real T>
[[nodiscard]] Result<T> solve(const kernels::BoundKernels<T>& k,
                              std::span<const T> x0, const Options& opt,
                              OpCounts* ops = nullptr,
                              std::vector<T>* lambda_trace = nullptr) {
  if (lambda_trace != nullptr) lambda_trace->clear();
  Result<T> r;
  detail::sweep_runs(
      k, 1, [x0](std::size_t) { return x0; },
      [&r](std::size_t) -> Result<T>& { return r; }, opt, ops, lambda_trace);
  return r;
}

/// A convexity-forcing shift in the style of Kolda & Mayo's beta(A) bound:
/// alpha = (m - 1) * ||A||_F. Since |A x^{m-2}|_2 <= ||A||_F on the unit
/// sphere, this dominates the curvature of f(x) = A x^m there, making the
/// shifted map monotone; it also dominates every Z-eigenvalue
/// (|lambda| = |A x^m| = |<A, x^(x m)>| <= ||A||_F).
template <Real T>
[[nodiscard]] double suggest_shift(const SymmetricTensor<T>& a) {
  return (a.order() - 1) * static_cast<double>(a.frobenius_norm());
}

}  // namespace te::sshopm

// Micro-bench proving the observability layer's cost contract:
//
//   * TE_OBS=ON  -- instrumentation per solve is a handful of relaxed
//     atomic increments (name resolution happens once per process);
//   * TE_OBS=OFF -- the stubs compile to nothing, the global registry
//     never materializes a metric, and a snapshot taken after thousands
//     of instrumented solves is empty. This binary *fails* (exit 1) if a
//     disabled build records anything, making "zero overhead when
//     disabled" a checked property, not a comment.
//
// Run both legs and compare the ns/solve lines:
//   cmake -B build -DTE_OBS=ON  && ./build/bench/bench_obs_overhead
//   cmake -B build-noobs -DTE_OBS=OFF && ./build-noobs/bench/bench_obs_overhead
//
// --threads N adds a scaling leg: the same instrumented solve loop on N
// threads at once (each with its own BoundKernels over one shared tensor,
// as in the paper's batch), reported as bench.obs.thread_scaling =
// aggregate solves/s at N threads / solves/s at 1 thread. Instrumentation
// that made the threads contend (a shared counter cache line) shows up as
// scaling far below N; scripts/ci.sh gates it through --metrics-json.
//
// Flags: --solves N (default 20000; per thread in the scaling leg)
// --repeats R (default 3; the scaling gauge is the median over R paired
// runs) --threads N (default 1 = no scaling leg) --metrics-json PATH.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace te;

/// Aggregate solves/s of `threads` threads each running `solves`
/// instrumented solves of `a` at once.
double solves_per_second(const SymmetricTensor<float>& a,
                         const sshopm::Options& opt, int threads,
                         long solves) {
  std::latch go(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      kernels::BoundKernels<float> k(a, kernels::Tier::kUnrolled);
      const float x0[3] = {0.26f, 0.74f, 0.62f};
      volatile float sink = sshopm::solve(k, {x0, 3}, opt).lambda;
      go.arrive_and_wait();
      for (long i = 0; i < solves; ++i) {
        sink = sink + sshopm::solve(k, {x0, 3}, opt).lambda;
      }
    });
  }
  go.arrive_and_wait();
  WallTimer timer;
  for (auto& w : workers) w.join();
  return static_cast<double>(threads) * static_cast<double>(solves) /
         timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const long solves = args.get_or("solves", 20000L);
  const long repeats = args.get_or("repeats", 3L);
  const long threads = args.get_or("threads", 1L);
  if (solves < 1 || repeats < 1 || threads < 1) {
    std::fprintf(stderr, "--solves, --repeats and --threads must be >= 1\n");
    return 2;
  }

  std::printf("obs mode: %s\n", TE_OBS_ENABLED ? "enabled" : "disabled");

  // The application shape, unrolled tier: the fastest solve in the repo,
  // i.e. the workload where fixed per-call instrumentation cost would be
  // most visible.
  const auto a = random_symmetric_tensor<float>(CounterRng(7), 43, 4, 3);
  kernels::BoundKernels<float> k(a, kernels::Tier::kUnrolled);
  const float x0[3] = {0.26f, 0.74f, 0.62f};
  sshopm::Options opt;
  opt.alpha = 1.0;
  opt.tolerance = 1e-6;

  // Warm-up: triggers the one-time metric-name resolution so the timed
  // loops below see only the steady-state cost.
  volatile float sink = sshopm::solve(k, {x0, 3}, opt).lambda;

  double best_ns = 0;
  for (long rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    for (long i = 0; i < solves; ++i) {
      sink = sink + sshopm::solve(k, {x0, 3}, opt).lambda;
    }
    const double ns = timer.seconds() * 1e9 / static_cast<double>(solves);
    if (rep == 0 || ns < best_ns) best_ns = ns;
    std::printf("repeat %ld: %.1f ns/solve\n", rep, ns);
  }
  std::printf("best: %.1f ns/solve over %ld solves x %ld repeats\n", best_ns,
              solves, repeats);

  if (threads > 1) {
    // Paired legs, median ratio: each repeat times 1 thread and then N
    // threads back to back, so clock-speed drift on a shared host cancels
    // within a pair instead of skewing a best-of-R over separate legs.
    std::vector<double> ratios;
    for (long rep = 0; rep < repeats; ++rep) {
      const double rate1 = solves_per_second(a, opt, 1, solves);
      const double rate_n =
          solves_per_second(a, opt, static_cast<int>(threads), solves);
      ratios.push_back(rate_n / rate1);
      std::printf("scaling repeat %ld: 1 thread %.0f solves/s, %ld threads "
                  "%.0f solves/s (%.2fx)\n",
                  rep, rate1, threads, rate_n, ratios.back());
    }
    std::sort(ratios.begin(), ratios.end());
    const double scaling = ratios[ratios.size() / 2];
    std::printf("thread scaling: %.2fx median at %ld threads (%u hardware "
                "threads)\n",
                scaling, threads, std::thread::hardware_concurrency());
    obs::global().gauge("bench.obs.thread_scaling").set(scaling);
  }

  const obs::Snapshot snap = obs::global().snapshot();
#if TE_OBS_ENABLED
  // Sanity in the enabled leg: the solves above must have been counted.
  if (snap.empty()) {
    std::fprintf(stderr,
                 "FAIL: obs enabled but no metrics were recorded\n");
    return 1;
  }
  std::printf("ok: enabled build recorded %zu counters, %zu histograms\n",
              snap.counters.size(), snap.histograms.size());
#else
  // The contract this bench exists to enforce.
  if (!snap.empty()) {
    std::fprintf(stderr,
                 "FAIL: TE_OBS=OFF build recorded metrics (overhead is "
                 "not zero)\n");
    return 1;
  }
  std::printf("ok: disabled build recorded nothing\n");
#endif
  return bench::maybe_write_metrics(args, "bench_obs_overhead") ? 0 : 1;
}

// Microbenchmarks of the computational kernels (google-benchmark):
// ttsv0 / ttsv1 across the three symmetric tiers and the dense matricized
// baseline, over a sweep of shapes. These are the per-call numbers behind
// Table III's tier gaps: the unrolled tier should beat the general tier by
// roughly the paper's ~8.5x on one core at (m=4, n=3).
//
// Extra flags (parsed before google-benchmark sees argv):
//   --metrics-json PATH   dump the te::obs registry as te-obs-v1 JSON
//   --metrics-csv PATH    ... and/or as CSV
//   --tables PATH         warm-start KernelTables from a packed TETC
//                         container (tetc_pack tables) instead of building
//   --require-warm-start  fail if any KernelTables were built from scratch
//                         (asserted via the kernels.tables.built counter;
//                         the CI persistence leg's disk-warm-start gate)
//   --multi               also register the multi-vector (SoA) kernel
//                         sweep: ttsv0+ttsv1 pairs across lane widths and
//                         tiers, items = lane-calls so per-lane throughput
//                         is directly comparable to the scalar numbers;
//                         runs the width autotuner per tier so the
//                         kernels.multi.autotune_width.* gauges land in
//                         the metrics dump
//   --jit                 run the runtime-codegen smoke: acquire JIT kernels
//                         for three registry-miss shapes (m=3 n=7, m=4 n=9,
//                         m=5 n=4), gate BITWISE parity against the general
//                         tier on exact-integer inputs (scalar and every
//                         admitted lane width; nonzero exit on mismatch),
//                         time the single-thread ttsv pair against the
//                         precomputed tier, and publish the
//                         kernels.jit.parity / kernels.jit.speedup.* /
//                         kernels.jit.compile_ms / kernels.jit.cache_hits
//                         gauges; also runs the multi-width autotuner on
//                         the jit tier so its refusal predicate (genuine
//                         per-lane fallback, not registry membership) is
//                         exercised. Skips cleanly (exit 0) when TE_JIT_CC
//                         is unset.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include <cstdlib>

#include "bench_common.hpp"
#include "te/io/container.hpp"
#include "te/jit/engine.hpp"
#include "te/kernels/autotune.hpp"
#include "te/kernels/dense.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/general.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/obs/obs.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

namespace {

using namespace te;

// Set once in main() before benchmarks run; when non-empty, fixtures try
// the packed container first and only fall back to an in-process build.
std::string g_tables_path;

kernels::KernelTables<float> make_tables(int m, int n) {
  if (!g_tables_path.empty()) {
    if (auto t = io::try_load_kernel_tables<float>(g_tables_path, m, n)) {
      return std::move(*t);
    }
  }
  return kernels::KernelTables<float>(m, n);
}

struct Fixture {
  SymmetricTensor<float> a;
  kernels::KernelTables<float> tables;
  std::vector<float> x;
  std::vector<float> y;

  explicit Fixture(int m, int n)
      : a(random_symmetric_tensor<float>(CounterRng(7),
                                         static_cast<std::uint64_t>(m * 32 + n),
                                         m, n)),
        tables(make_tables(m, n)),
        x(static_cast<std::size_t>(n)),
        y(static_cast<std::size_t>(n)) {
    CounterRng rng(9);
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] =
          static_cast<float>(rng.in(0, static_cast<std::uint64_t>(i), -1, 1));
    }
  }
};

void args_shapes(benchmark::internal::Benchmark* b) {
  for (const auto& [m, n] :
       {std::pair{3, 3}, {4, 3}, {4, 5}, {6, 3}, {6, 4}}) {
    b->Args({m, n});
  }
}

void BM_Ttsv0_General(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::ttsv0_general(f.a, {f.x.data(), f.x.size()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv0_General)->Apply(args_shapes);

void BM_Ttsv0_Precomputed(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::ttsv0_precomputed(f.a, f.tables, {f.x.data(), f.x.size()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv0_Precomputed)->Apply(args_shapes);

void BM_Ttsv0_Unrolled(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const auto* e = kernels::find_unrolled<float>(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  if (e == nullptr) {
    state.SkipWithError("shape not registered");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->ttsv0(f.a.values().data(), f.x.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv0_Unrolled)->Apply(args_shapes);

void BM_Ttsv1_General(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    kernels::ttsv1_general(f.a, {f.x.data(), f.x.size()},
                           {f.y.data(), f.y.size()});
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv1_General)->Apply(args_shapes);

void BM_Ttsv1_Precomputed(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    kernels::ttsv1_precomputed(f.a, f.tables, {f.x.data(), f.x.size()},
                               {f.y.data(), f.y.size()});
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv1_Precomputed)->Apply(args_shapes);

void BM_Ttsv1_Unrolled(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const auto* e = kernels::find_unrolled<float>(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  if (e == nullptr) {
    state.SkipWithError("shape not registered");
    return;
  }
  for (auto _ : state) {
    e->ttsv1(f.a.values().data(), f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv1_Unrolled)->Apply(args_shapes);

void BM_Ttsv0_DenseContract(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Fixture f(m, n);
  const auto d = to_dense(f.a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::ttsv0_dense_contract(d, {f.x.data(), f.x.size()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv0_DenseContract)->Apply(args_shapes);

void BM_Ttsv0_Dispatch(benchmark::State& state) {
  // Through the runtime-tier facade (what SS-HOPM actually calls): measures
  // dispatch overhead over the direct calls above, and populates the
  // kernels.ttsv0.calls.* observability counters the --metrics-json dump
  // reports.
  Fixture f(static_cast<int>(state.range(0)),
            static_cast<int>(state.range(1)));
  const auto tier = static_cast<kernels::Tier>(state.range(2));
  state.SetLabel(std::string(kernels::tier_name(tier)));
  kernels::BoundKernels<float> k(f.a, tier, &f.tables);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.ttsv0({f.x.data(), f.x.size()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ttsv0_Dispatch)
    ->Args({4, 3, static_cast<long>(kernels::Tier::kGeneral)})
    ->Args({4, 3, static_cast<long>(kernels::Tier::kPrecomputed)})
    ->Args({4, 3, static_cast<long>(kernels::Tier::kUnrolled)});

void BM_SshopmSolve_Unrolled43(benchmark::State& state) {
  // A full solve at the application shape: feeds the sshopm.solve.* metrics
  // (runs, iteration distribution, failure counters) end to end.
  Fixture f(4, 3);
  kernels::BoundKernels<float> k(f.a, kernels::Tier::kUnrolled);
  const float x0[3] = {0.26f, 0.74f, 0.62f};
  te::sshopm::Options opt;
  opt.alpha = 1.0;
  opt.tolerance = 1e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::sshopm::solve(k, {x0, 3}, opt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SshopmSolve_Unrolled43);

void BM_SshopmIteration_Unrolled43(benchmark::State& state) {
  // One full SS-HOPM iteration at the application shape: the unit of work
  // behind every Table III number.
  Fixture f(4, 3);
  const auto* e = kernels::find_unrolled<float>(4, 3);
  float x[3] = {0.26f, 0.74f, 0.62f};
  for (auto _ : state) {
    float y[3];
    e->ttsv1(f.a.values().data(), x, y);
    float n2 = 0;
    for (int i = 0; i < 3; ++i) {
      x[i] = y[i];
      n2 += x[i] * x[i];
    }
    const float inv = 1.0f / std::sqrt(n2);
    for (float& v : x) v *= inv;
    benchmark::DoNotOptimize(e->ttsv0(f.a.values().data(), x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SshopmIteration_Unrolled43);

// One ttsv0 + ttsv1 pair over a W-lane batch; items processed counts
// lane-calls, so per-item time is directly comparable with the scalar
// benchmarks above (a perfect multi kernel shows W-fold lower per-item
// cost on the class-walk-bound tiers).
void BM_TtsvPair_Multi(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int w = static_cast<int>(state.range(2));
  const auto tier = static_cast<kernels::Tier>(state.range(3));
  Fixture f(m, n);
  if (tier == kernels::Tier::kUnrolled &&
      kernels::find_unrolled<float>(m, n) == nullptr) {
    state.SkipWithError("shape not registered");
    return;
  }
  kernels::BoundKernels<float> k(f.a, tier, &f.tables, w);
  state.SetLabel(std::string(kernels::tier_name(tier)) + "/w" +
                 std::to_string(w) + (k.vectorized() ? "" : "/fallback"));
  kernels::VectorBatch<float> x(n, w);
  kernels::VectorBatch<float> y(n, w);
  CounterRng rng(11);
  for (int i = 0; i < n; ++i) {
    for (int lane = 0; lane < w; ++lane) {
      x.at(i, lane) = static_cast<float>(
          rng.in(1, static_cast<std::uint64_t>(i * w + lane), -1, 1));
    }
  }
  std::vector<float> out(static_cast<std::size_t>(w));
  for (auto _ : state) {
    k.ttsv0(x, {out.data(), out.size()});
    benchmark::DoNotOptimize(out.data());
    k.ttsv1(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * w);
}

void register_multi_benchmarks() {
  for (const auto& [m, n] : {std::pair{4, 3}, {4, 5}, {6, 3}}) {
    for (const auto tier :
         {kernels::Tier::kGeneral, kernels::Tier::kPrecomputed,
          kernels::Tier::kUnrolled}) {
      std::vector<int> widths = {1};
      for (const int w : kernels::multi_widths()) widths.push_back(w);
      for (const int w : widths) {
        benchmark::RegisterBenchmark("BM_TtsvPair_Multi", BM_TtsvPair_Multi)
            ->Args({m, n, w, static_cast<long>(tier)});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// --jit: runtime-codegen smoke over registry-miss shapes (parity gate +
// speedup gauges against the precomputed tier).
// ---------------------------------------------------------------------------

// Exact-integer tensor: every ttsv term and partial sum is an
// integer well inside double exactness, so the result is independent of
// summation order and the parity check can be BITWISE.
SymmetricTensor<double> integer_tensor(int m, int n) {
  CounterRng rng(4242);
  SymmetricTensor<double> a(m, n);
  auto vals = a.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<double>(static_cast<int>(rng.in(1, i, -4.0, 4.0)));
  }
  return a;
}

template <class F>
double min_time_ms(F&& f, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// None of these shapes is in the compile-time unrolled registry: the only
// way Tier::kJit can serve them is through the runtime code generator.
constexpr std::pair<int, int> kJitShapes[] = {{3, 7}, {4, 9}, {5, 4}};

int run_jit_smoke() {
  const char* cc = std::getenv(jit::kCompilerEnv);
  if (cc == nullptr || *cc == '\0') {
    std::cout << "jit smoke: " << jit::kCompilerEnv
              << " unset; skipping (runtime codegen needs a host compiler)\n";
    return 0;
  }

  auto& reg = te::obs::global();
  bool parity_ok = true;
  double min_speedup = 1e300;

  for (const auto& [m, n] : kJitShapes) {
    if (kernels::find_unrolled<double>(m, n) != nullptr) {
      std::cerr << "jit smoke: shape m=" << m << " n=" << n
                << " is in the compile-time registry; pick a miss shape\n";
      return 1;
    }
    const jit::AcquireReport rep = jit::acquire<double>(m, n);
    if (!rep.available) {
      std::cerr << "jit smoke: acquire failed at m=" << m << " n=" << n
                << ": " << rep.error << "\n";
      return 1;
    }

    // Exact-integer tensor and vectors: every partial product and sum is an
    // integer far inside double exactness, so the generated kernel's term
    // grouping is irrelevant and parity can be gated BITWISE.
    const auto a = integer_tensor(m, n);
    std::vector<double> x(static_cast<std::size_t>(n));
    CounterRng rng(9);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<double>(static_cast<int>(rng.in(2, i, -2.0, 3.0)));
    }
    const std::span<const double> xs{x.data(), x.size()};

    std::vector<double> y_ref(static_cast<std::size_t>(n));
    kernels::ttsv1_general(a, xs, {y_ref.data(), y_ref.size()});
    const double y0_ref = kernels::ttsv0_general(a, xs);

    kernels::BoundKernels<double> jitk(a, kernels::Tier::kJit);
    std::vector<double> y(static_cast<std::size_t>(n));
    jitk.ttsv1(xs, {y.data(), y.size()});
    bool ok = jitk.ttsv0(xs) == y0_ref;
    for (std::size_t i = 0; i < y.size(); ++i) ok = ok && y[i] == y_ref[i];

    // Every admitted lane width, each lane against a scalar general call.
    for (const int w : {2, 4, 8}) {
      kernels::BoundKernels<double> mk(a, kernels::Tier::kJit, nullptr, w);
      kernels::VectorBatch<double> xb(n, w);
      kernels::VectorBatch<double> yb(n, w);
      for (int i = 0; i < n; ++i) {
        for (int lane = 0; lane < w; ++lane) {
          xb.at(i, lane) = static_cast<double>(static_cast<int>(rng.in(
              3, static_cast<std::uint64_t>(i * w + lane), -2.0, 3.0)));
        }
      }
      std::vector<double> out(static_cast<std::size_t>(w));
      mk.ttsv0(xb, {out.data(), out.size()});
      mk.ttsv1(xb, yb);
      std::vector<double> lane_x(static_cast<std::size_t>(n));
      std::vector<double> lane_y(static_cast<std::size_t>(n));
      for (int lane = 0; lane < w; ++lane) {
        for (int i = 0; i < n; ++i) lane_x[static_cast<std::size_t>(i)] =
            xb.at(i, lane);
        const std::span<const double> lxs{lane_x.data(), lane_x.size()};
        kernels::ttsv1_general(a, lxs, {lane_y.data(), lane_y.size()});
        ok = ok && out[static_cast<std::size_t>(lane)] ==
                       kernels::ttsv0_general(a, lxs);
        for (int i = 0; i < n; ++i) {
          ok = ok && yb.at(i, lane) == lane_y[static_cast<std::size_t>(i)];
        }
      }
    }
    if (!ok) {
      parity_ok = false;
      std::cerr << "jit smoke: PARITY FAILURE at m=" << m << " n=" << n
                << "\n";
    }

    // Single-thread ttsv pair: jit vs the precomputed (table-walk) tier.
    // These shapes are sub-microsecond per pair, so time a batch.
    kernels::KernelTables<double> tables(m, n);
    kernels::BoundKernels<double> pre(a, kernels::Tier::kPrecomputed,
                                      &tables);
    constexpr int kInner = 20000;
    const auto time_pair = [&](kernels::BoundKernels<double>& k) {
      return min_time_ms(
          [&] {
            for (int it = 0; it < kInner; ++it) {
              benchmark::DoNotOptimize(k.ttsv0(xs));
              k.ttsv1(xs, {y.data(), y.size()});
              benchmark::DoNotOptimize(y.data());
            }
          },
          5);
    };
    const double t_pre = time_pair(pre);
    const double t_jit = time_pair(jitk);
    const double speedup = t_jit > 0.0 ? t_pre / t_jit : 0.0;
    min_speedup = std::min(min_speedup, speedup);
    reg.gauge("kernels.jit.speedup.m" + std::to_string(m) + "n" +
              std::to_string(n))
        .set(speedup);
    std::cout << "jit smoke m=" << m << " n=" << n << ": "
              << (rep.compiled > 0 ? "compiled" : "cache hit") << " in "
              << rep.compile_ms << " ms, precomputed "
              << t_pre * 1e6 / kInner << " ns/pair, jit "
              << t_jit * 1e6 / kInner << " ns/pair (" << speedup << "x"
              << (ok ? "" : ", PARITY FAIL") << ")\n";
  }

  // The autotuner must time the jit tier's admitted widths like any other
  // registered width (its refusal predicate is genuine per-lane fallback,
  // not compile-time registry membership). The tuner runs in float.
  const auto& [am, an] = kJitShapes[0];
  if (jit::acquire<float>(am, an).available) {
    const auto at =
        kernels::autotune_multi_width(am, an, kernels::Tier::kJit, 200);
    std::cout << "autotune jit m=" << am << " n=" << an << ": best width "
              << at.best_width << "\n";
  }

  reg.gauge("kernels.jit.parity").set(parity_ok ? 1.0 : 0.0);
  reg.gauge("kernels.jit.speedup.min").set(min_speedup);
  if (!parity_ok) {
    std::cerr << "bench_kernels: --jit parity gate failed\n";
    return 1;
  }
  if (min_speedup < 3.0) {
    std::cout << "jit smoke: note: min speedup " << min_speedup
              << "x below the 3x target on this host\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  te::CliArgs cli(argc, argv);
  g_tables_path = cli.get_or("tables", std::string());
  const bool multi = cli.has("multi");
  const bool jit_smoke = cli.has("jit");
  // Strip the local flags before google-benchmark validates argv.
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a == "--require-warm-start" || a == "--multi" || a == "--jit") {
      continue;
    }
    if (a.rfind("--metrics-json", 0) == 0 ||
        a.rfind("--metrics-csv", 0) == 0 || a.rfind("--tables", 0) == 0) {
      if (a.find('=') == std::string_view::npos && i + 1 < argc) ++i;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  if (multi) register_multi_benchmarks();
  int fargc = static_cast<int>(filtered.size());
  ::benchmark::Initialize(&fargc, filtered.data());
  if (::benchmark::ReportUnrecognizedArguments(fargc, filtered.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (multi) {
    // Record the per-tier autotuned widths so the metrics dump carries the
    // kernels.multi.autotune_width.* trajectory alongside the raw timings.
    for (const auto tier :
         {te::kernels::Tier::kGeneral, te::kernels::Tier::kPrecomputed,
          te::kernels::Tier::kUnrolled}) {
      const auto rep = te::kernels::autotune_multi_width(4, 5, tier, 200);
      std::cerr << "autotune " << te::kernels::tier_name(tier)
                << ": best width " << rep.best_width << "\n";
    }
  }
  const int jit_rc = jit_smoke ? run_jit_smoke() : 0;
  if (!te::bench::maybe_write_metrics(cli, "bench_kernels",
                                      {{"workload", "ttsv microbench"}})) {
    return 1;
  }
  if (cli.has("require-warm-start")) {
    const auto built =
        te::obs::global().counter("kernels.tables.built").value();
    const auto loaded =
        te::obs::global().counter("io.tables.loaded").value();
    std::cerr << "warm-start check: " << loaded << " table sets loaded from "
              << (g_tables_path.empty() ? "<none>" : g_tables_path) << ", "
              << built << " built from scratch\n";
    if (built > 0) {
      std::cerr << "bench_kernels: --require-warm-start violated\n";
      return 1;
    }
  }
  return jit_rc;
}

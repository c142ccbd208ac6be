// SS-HOPM solver study with full observability: the paper's Section V-A
// workload (synthetic DW-MRI voxels, shared random starts, alpha = 0 plus
// a shifted variant) run through the CPU backends per tier and the
// simulated C2050, reporting convergence outcomes next to throughput.
//
// This is the bench behind CI's BENCH_sshopm.json artifact: after the
// tables, --metrics-json dumps the whole te::obs registry -- solver outcome
// counters, iteration distributions, per-tier ttsv call counts, gpusim
// launch timings -- as a te-obs-v1 document that tools/obs_json_check
// schema-validates.
//
// Flags: --tensors N --starts V --alpha A --csv
//        --metrics-json PATH --metrics-csv PATH
//        --multi  run the start sweep (sshopm::solve_starts, kSweepLanes
//                 runs in SIMD lanes) per host tier against one solve()
//                 per start -- m=4 n=10 with 64 starts on general and
//                 precomputed, m=4 n=3 with 1024 starts on unrolled --
//                 exiting nonzero on any slot that is not bitwise equal
//                 and reporting the speedup table.
//        --adaptive  rerun the workload with the GEAP adaptive shift
//                 against the conservative suggest_shift baseline from
//                 identical starts, reporting the kMaxIterations
//                 failure-rate reduction (bench.sshopm.adaptive.* gauges);
//                 exits nonzero if the adaptive scheme fails more often.
//        --oracle  build the QRST all-eigenpairs spectrum of the golden
//                 Kofidis-Regalia fixture and differentially verify a
//                 fixed-shift SS-HOPM sweep against it (decomp.qrst.* and
//                 bench.sshopm.oracle.* metrics); exits nonzero on any
//                 unmatched converged pair.

#include <array>
#include <bit>
#include <cinttypes>
#include <cstring>
#include <optional>

#include "bench_common.hpp"
#include "te/batch/scheduler.hpp"
#include "te/decomp/oracle.hpp"
#include "te/sshopm/adaptive.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace te;
  using kernels::Tier;

  CliArgs args(argc, argv);
  const bool csv = args.has("csv");
  const int nt = static_cast<int>(args.get_or("tensors", 256L));
  const int nv = static_cast<int>(args.get_or("starts", 32L));
  const double alpha = args.get_or("alpha", 0.0);

  bench::banner("Paper Section V (solver view)",
                "SS-HOPM over " + std::to_string(nt) + " voxels x " +
                    std::to_string(nv) + " starts, alpha = " +
                    std::to_string(alpha) +
                    "; outcome accounting via te::obs");

  bench::PaperWorkload w;
  w.num_tensors = nt;
  w.num_starts = nv;
  w.alpha = alpha;
  const auto p = bench::make_paper_problem(w);

  TextTable t;
  t.set_header({"backend", "tier", "wall ms", "modeled ms", "GFLOPS",
                "conv%", "maxiter", "degen", "nonfin"});
  const auto add_row = [&](std::string backend, Tier tier,
                           const batch::BatchResult<float>& r) {
    std::int64_t conv = 0, maxit = 0, degen = 0, nonfin = 0;
    for (const auto& res : r.results) {
      switch (res.failure) {
        case sshopm::FailureReason::kNone:
          ++conv;
          break;
        case sshopm::FailureReason::kMaxIterations:
          ++maxit;
          break;
        case sshopm::FailureReason::kDegenerateIterate:
          ++degen;
          break;
        case sshopm::FailureReason::kNonFiniteLambda:
          ++nonfin;
          break;
      }
    }
    const auto total = static_cast<double>(r.results.size());
    char wall[32], modeled[32], gf[32], cv[32];
    std::snprintf(wall, sizeof wall, "%.2f", r.wall_seconds * 1e3);
    std::snprintf(modeled, sizeof modeled, "%.2f", r.modeled_seconds * 1e3);
    std::snprintf(gf, sizeof gf, "%.2f", r.gflops_modeled());
    std::snprintf(cv, sizeof cv, "%.1f",
                  100.0 * static_cast<double>(conv) / total);
    t.add_row({std::move(backend), std::string(kernels::tier_name(tier)),
               wall, modeled, gf, cv, std::to_string(maxit),
               std::to_string(degen), std::to_string(nonfin)});
  };

  for (const Tier tier :
       {Tier::kGeneral, Tier::kPrecomputed, Tier::kUnrolled}) {
    add_row("cpu-sequential", tier, batch::solve_cpu_sequential(p, tier));
  }
  for (const Tier tier : {Tier::kGeneral, Tier::kUnrolled}) {
    add_row("gpusim", tier, batch::solve_gpusim(p, tier));
  }
  bench::emit(t, csv);

  // A scheduler pass over the same problem so the batch.scheduler.* and
  // batch.pipeline.* metrics appear in the dump alongside the solver's.
  {
    batch::SchedulerOptions opt;
    opt.chunk_tensors = 32;
    batch::Scheduler<float> sched(batch::Backend::kGpuSim, opt);
    const auto id = sched.submit(p, Tier::kUnrolled);
    sched.run();
    const auto rep = sched.job_pipeline(id);
    std::printf(
        "scheduler (gpusim, chunk 32): %d chunks, serialized %.3f ms, "
        "overlapped %.3f ms, hidden %.3f ms\n",
        rep.chunks, rep.serialized_seconds * 1e3,
        rep.overlapped_seconds * 1e3, rep.hidden_seconds() * 1e3);
  }

  // Start sweep: kSweepLanes SS-HOPM runs stepped together in SIMD lanes,
  // so one index-class walk serves every live lane. The baseline is one
  // solve() per start; every slot must be bitwise equal to it. On general
  // and precomputed the acceptance workload (m=4, n=10, 64 starts) is where
  // the class walk dominates; the unrolled row runs the paper's DW-MRI
  // shape.
  if (args.has("multi")) {
    struct Case {
      Tier tier;
      int order;
      int dim;
      int starts;
    };
    const Case cases[] = {{Tier::kGeneral, 4, 10, 64},
                          {Tier::kPrecomputed, 4, 10, 64},
                          {Tier::kUnrolled, 4, 3, 1024}};
    sshopm::Options sopt;
    sopt.alpha = 1.0;
    sopt.tolerance = 1e-6;

    bench::banner("Start sweep (SIMD lanes)",
                  "kSweepLanes = " + std::to_string(kernels::kSweepLanes) +
                      " runs in flight vs one solve() per start "
                      "(bitwise parity-checked)");
    TextTable mt;
    mt.set_header({"tier", "shape", "starts", "solve ms", "sweep ms",
                   "speedup", "conv", "parity"});
    for (const Case& c : cases) {
      CounterRng rng(0xb57a);
      const auto a = random_symmetric_tensor<float>(rng, 0, c.order, c.dim);
      std::vector<std::vector<float>> starts;
      starts.reserve(static_cast<std::size_t>(c.starts));
      for (int v = 0; v < c.starts; ++v) {
        std::vector<float> x0(static_cast<std::size_t>(c.dim));
        for (int i = 0; i < c.dim; ++i) {
          x0[static_cast<std::size_t>(i)] = static_cast<float>(
              rng.in(1, static_cast<std::uint64_t>(v * c.dim + i), -1, 1));
        }
        starts.push_back(std::move(x0));
      }
      std::optional<kernels::KernelTables<float>> tables;
      if (kernels::uses_tables(c.tier)) tables.emplace(c.order, c.dim);
      const kernels::BoundKernels<float> k(a, c.tier,
                                           tables ? &*tables : nullptr);

      std::vector<sshopm::Result<float>> ref;
      WallTimer base_timer;
      for (const auto& x0 : starts) {
        ref.push_back(sshopm::solve(k, {x0.data(), x0.size()}, sopt));
      }
      const double base_s = base_timer.seconds();
      std::vector<sshopm::Result<float>> got(starts.size());
      WallTimer timer;
      sshopm::solve_starts(
          k, std::span<const std::vector<float>>(starts.data(), starts.size()),
          sopt, std::span<sshopm::Result<float>>(got));
      const double s = timer.seconds();

      std::int64_t conv = 0;
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        conv += got[i].converged ? 1 : 0;
        const bool same =
            std::bit_cast<std::uint32_t>(got[i].lambda) ==
                std::bit_cast<std::uint32_t>(ref[i].lambda) &&
            got[i].iterations == ref[i].iterations &&
            got[i].failure == ref[i].failure &&
            got[i].converged == ref[i].converged &&
            got[i].x.size() == ref[i].x.size() &&
            std::memcmp(got[i].x.data(), ref[i].x.data(),
                        got[i].x.size() * sizeof(float)) == 0;
        if (!same) ++mismatched;
      }
      const double speedup = s > 0 ? base_s / s : 0;
      char base_ms[32], sweep_ms[32], sp[32];
      std::snprintf(base_ms, sizeof base_ms, "%.2f", base_s * 1e3);
      std::snprintf(sweep_ms, sizeof sweep_ms, "%.2f", s * 1e3);
      std::snprintf(sp, sizeof sp, "%.2fx", speedup);
      const std::string tier_name(kernels::tier_name(c.tier));
      mt.add_row({tier_name,
                  "m" + std::to_string(c.order) + "n" + std::to_string(c.dim),
                  std::to_string(c.starts), base_ms, sweep_ms, sp,
                  std::to_string(conv), mismatched == 0 ? "ok" : "MISMATCH"});
      if (mismatched != 0) {
        std::fprintf(stderr,
                     "bench_sshopm: %zu of %zu sweep slots differ from "
                     "solve() (tier %s)\n",
                     mismatched, got.size(), tier_name.c_str());
        return 1;
      }
      TE_OBS_ONLY(obs::global()
                      .gauge("bench.sshopm.multi_speedup." + tier_name)
                      .set(speedup));
    }
    bench::emit(mt, csv);
  }

  // Adaptive-shift study: the same voxel workload solved twice from
  // identical starts -- once with the conservative fixed shift
  // (m-1)||A||_F that guarantees convexity globally, once with the GEAP
  // local-curvature shift. Under a tight iteration budget the fixed shift
  // burns its iterations crawling and times out (kMaxIterations); the
  // adaptive scheme must fail strictly less often, and the gap is the
  // failure-rate-reduction gauge CI archives.
  if (args.has("adaptive")) {
    const double atol = 1e-8;
    const int budget = 100;

    bench::banner("Adaptive vs fixed shift (GEAP study)",
                  "identical starts, tolerance 1e-8, budget " +
                      std::to_string(budget) +
                      " iterations; kMaxIterations accounting");

    std::int64_t fixed_conv = 0, fixed_maxit = 0;
    std::int64_t ad_conv = 0, ad_maxit = 0;
    long long fixed_iters = 0, ad_iters = 0;

    WallTimer fixed_timer;
    for (const auto& a : p.tensors) {
      kernels::BoundKernels<float> k(a, Tier::kGeneral);
      sshopm::Options fopt;
      fopt.alpha = sshopm::suggest_shift(a);
      fopt.tolerance = atol;
      fopt.max_iterations = budget;
      for (const auto& x0 : p.starts) {
        const auto r = sshopm::solve(k, {x0.data(), x0.size()}, fopt);
        fixed_conv += r.converged ? 1 : 0;
        fixed_maxit +=
            r.failure == sshopm::FailureReason::kMaxIterations ? 1 : 0;
        fixed_iters += r.iterations;
      }
    }
    const double fixed_s = fixed_timer.seconds();

    sshopm::AdaptiveOptions aopt;
    aopt.tolerance = atol;
    aopt.max_iterations = budget;
    WallTimer ad_timer;
    for (const auto& a : p.tensors) {
      for (const auto& x0 : p.starts) {
        const auto r =
            sshopm::solve_adaptive(a, {x0.data(), x0.size()}, aopt);
        ad_conv += r.converged ? 1 : 0;
        ad_maxit +=
            r.failure == sshopm::FailureReason::kMaxIterations ? 1 : 0;
        ad_iters += r.iterations;
      }
    }
    const double ad_s = ad_timer.seconds();

    const double runs = static_cast<double>(p.tensors.size()) *
                        static_cast<double>(p.starts.size());
    const double fixed_rate = static_cast<double>(fixed_maxit) / runs;
    const double ad_rate = static_cast<double>(ad_maxit) / runs;

    TextTable at;
    at.set_header(
        {"scheme", "conv", "maxiter", "fail%", "iters", "wall ms"});
    const auto scheme_row = [&](std::string name, std::int64_t conv,
                                std::int64_t maxit, double rate,
                                long long iters, double secs) {
      char pct[32], ms_buf[32];
      std::snprintf(pct, sizeof pct, "%.1f", 100.0 * rate);
      std::snprintf(ms_buf, sizeof ms_buf, "%.2f", secs * 1e3);
      at.add_row({std::move(name), std::to_string(conv),
                  std::to_string(maxit), pct, std::to_string(iters),
                  ms_buf});
    };
    scheme_row("fixed (suggest_shift)", fixed_conv, fixed_maxit, fixed_rate,
               fixed_iters, fixed_s);
    scheme_row("adaptive (GEAP)", ad_conv, ad_maxit, ad_rate, ad_iters,
               ad_s);
    bench::emit(at, csv);
    std::printf(
        "adaptive: kMaxIterations rate %.3f -> %.3f "
        "(reduction %.3f over %.0f runs)\n",
        fixed_rate, ad_rate, fixed_rate - ad_rate, runs);

#if TE_OBS_ENABLED
    auto& reg = obs::global();
    reg.gauge("bench.sshopm.adaptive.runs").set(runs);
    reg.gauge("bench.sshopm.adaptive.converged")
        .set(static_cast<double>(ad_conv));
    reg.gauge("bench.sshopm.adaptive.maxiter_failures")
        .set(static_cast<double>(ad_maxit));
    reg.gauge("bench.sshopm.adaptive.fixed_maxiter_failures")
        .set(static_cast<double>(fixed_maxit));
    reg.gauge("bench.sshopm.adaptive.failure_rate_reduction")
        .set(fixed_rate - ad_rate);
    reg.gauge("bench.sshopm.adaptive.iteration_ratio")
        .set(ad_iters > 0 ? static_cast<double>(fixed_iters) /
                                static_cast<double>(ad_iters)
                          : 0.0);
#endif  // TE_OBS_ENABLED

    if (ad_maxit > fixed_maxit) {
      std::fprintf(stderr,
                   "bench_sshopm: adaptive shift regressed kMaxIterations "
                   "failures (%" PRId64 " vs fixed %" PRId64 ")\n",
                   ad_maxit, fixed_maxit);
      return 1;
    }
  }

  // Differential oracle: QRST enumerates the complete Z-spectrum of the
  // golden Kofidis-Regalia fixture, then a fixed-shift SS-HOPM sweep is
  // verified pair-by-pair against it. Any converged iterate that matches
  // no QRST class fails the bench -- the same contract the oracle-labeled
  // ctest suite enforces, here wired into the archived metrics artifact
  // (decomp.qrst.* from the spectrum build, bench.sshopm.oracle.* from the
  // differential pass).
  if (args.has("oracle")) {
    bench::banner("QRST differential oracle",
                  "all-eigenpairs spectrum of the Kofidis-Regalia tensor; "
                  "fixed-shift sweep verified against it");

    const auto a = kofidis_regalia_example<double>();
    WallTimer build_timer;
    const decomp::Oracle<double> oracle(a);
    const double build_s = build_timer.seconds();
    const auto& spec = oracle.spectrum();

    TextTable ot;
    ot.set_header({"lambda", "mult", "residual"});
    for (const auto& pr : spec.pairs) {
      char lam[32], res[32];
      std::snprintf(lam, sizeof lam, "%.10f", pr.lambda);
      std::snprintf(res, sizeof res, "%.2e", pr.residual);
      ot.add_row({lam, std::to_string(pr.multiplicity), res});
    }
    bench::emit(ot, csv);
    std::printf("qrst: %zu pairs in %d sweeps (%.2f ms)%s\n",
                spec.pairs.size(), spec.sweeps, build_s * 1e3,
                spec.has_zero_class ? ", zero class" : "");

    kernels::BoundKernels<double> k(a, Tier::kGeneral);
    sshopm::Options sopt;
    sopt.alpha = 1.0;
    sopt.tolerance = 1e-10;
    sopt.max_iterations = 1000;
    std::vector<sshopm::Result<double>> sweep;
    for (const auto& x0 : fibonacci_sphere<double>(16)) {
      sweep.push_back(sshopm::solve(k, {x0.data(), x0.size()}, sopt));
    }
    const auto rep = decomp::verify_results(oracle, sweep);
    std::printf("oracle: %d checked, %d matched, %d mismatched, %d skipped\n",
                rep.checked, rep.matched, rep.mismatched, rep.skipped);

#if TE_OBS_ENABLED
    auto& reg = obs::global();
    reg.gauge("bench.sshopm.oracle.checked")
        .set(static_cast<double>(rep.checked));
    reg.gauge("bench.sshopm.oracle.matched")
        .set(static_cast<double>(rep.matched));
    reg.gauge("bench.sshopm.oracle.mismatched")
        .set(static_cast<double>(rep.mismatched));
#endif  // TE_OBS_ENABLED

    if (!rep.clean()) {
      std::fprintf(stderr,
                   "bench_sshopm: differential oracle rejected the "
                   "fixed-shift sweep\n");
      return 1;
    }
  }

  return bench::maybe_write_metrics(args, "bench_sshopm",
                                    {{"tensors", std::to_string(nt)},
                                     {"starts", std::to_string(nv)},
                                     {"alpha", std::to_string(alpha)}})
             ? 0
             : 1;
}

// Extension benches (A6-A7): the features the paper leaves as remarks or
// future work, measured. (The blocked tier of Sec. V-D is a device tier;
// bench_occupancy measures it next to unrolled in the A2 study.)
//
//   A6 adaptive shift -- "choice of shift" open problem (Sec. II):
//      iteration counts and wall time, conservative fixed shift vs
//      adaptive local-curvature shift.
//   A7 multi-GPU      -- "this approach generalizes to a system with
//      multiple GPUs" (Sec. V-B): modeled scaling over 1..8 devices.
//
// Flags: --csv.

#include "bench_common.hpp"
#include "te/sshopm/adaptive.hpp"

int main(int argc, char** argv) {
  using namespace te;
  using kernels::Tier;

  CliArgs args(argc, argv);
  const bool csv = args.has("csv");

  // ----- A6: adaptive shift -----
  bench::banner("Ablation A6 (Sec. II open problem)",
                "Conservative fixed shift vs adaptive local-curvature "
                "shift: iterations to convergence");
  {
    TextTable t;
    t.set_header({"m,n", "fixed alpha", "fixed iters", "adaptive iters",
                  "adaptive max alpha", "same lambda"});
    CounterRng rng(2);
    for (const auto& [m, n] : {std::pair{3, 3}, {4, 3}, {4, 5}, {6, 3}}) {
      auto a = random_symmetric_tensor<double>(
          rng, static_cast<std::uint64_t>(m * 100 + n), m, n);
      auto x0 = random_sphere_vector<double>(rng, 9, n);

      sshopm::Options fixed;
      fixed.alpha = sshopm::suggest_shift(a);
      fixed.tolerance = 1e-10;
      fixed.max_iterations = 200000;
      kernels::BoundKernels<double> k(a, Tier::kGeneral);
      const auto rf = sshopm::solve(k, {x0.data(), x0.size()}, fixed);

      sshopm::AdaptiveOptions ad;
      ad.tolerance = 1e-10;
      const auto ra = sshopm::solve_adaptive(a, {x0.data(), x0.size()}, ad);

      t.add_row({std::to_string(m) + "," + std::to_string(n),
                 fmt_fixed(fixed.alpha, 2), std::to_string(rf.iterations),
                 std::to_string(ra.iterations), fmt_fixed(ra.max_alpha, 2),
                 std::abs(rf.lambda - ra.lambda) < 1e-5 ? "yes" : "no*"});
    }
    bench::emit(t, csv);
    std::cout << "(*different eigenpair: both are valid -- different shifts\n"
                 " can route the same start to different basins)\n\n";
  }

  // ----- A7: multi-GPU scaling -----
  bench::banner("Extension A7 (Sec. V-B remark)",
                "Multi-GPU scaling of the 1024-tensor workload "
                "(modeled C2050s)");
  {
    bench::PaperWorkload w;
    const auto p = bench::make_paper_problem(w);
    TextTable t;
    t.set_header({"devices", "time ms", "speedup", "GFLOPS total"});
    double base = 0;
    for (int d : {1, 2, 4, 8}) {
      const auto r = batch::solve_gpusim_multi(p, Tier::kUnrolled, d);
      if (d == 1) base = r.modeled_seconds;
      t.add_row({std::to_string(d), fmt_fixed(r.modeled_seconds * 1e3, 3),
                 fmt_fixed(base / r.modeled_seconds, 2),
                 fmt_fixed(static_cast<double>(r.useful_flops) /
                               r.modeled_seconds / 1e9,
                           1)});
    }
    bench::emit(t, csv);
    std::cout << "Shape check: near-linear until the per-device grid drops\n"
              << "below full occupancy (1024 blocks / d devices vs 112\n"
              << "resident blocks per device).\n";
  }
  return 0;
}

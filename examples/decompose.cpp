// Symmetric tensor decomposition demo: greedy rank-1 deflation built on
// SS-HOPM -- the "best rank-1 approximation" lineage of the paper's
// references (Kofidis & Regalia; De Lathauwer et al.).
//
//   $ ./decompose [--order 4] [--dim 3] [--rank 3] [--seed 5]
//
// Three parts:
//   1. exact recovery on an orthogonally decomposable (odeco) tensor,
//   2. greedy residual curve on a random symmetric tensor,
//   3. decomposing a two-fiber DW-MRI voxel tensor: the leading rank-1
//      terms' directions are the fiber directions -- decomposition and
//      eigenanalysis answer the same application question from two angles
//      (Schultz & Seidel's "tensor decomposition approach" vs the paper's
//      eigenvector approach).

#include <iostream>

#include "te/decomp/greedy_cp.hpp"
#include "te/dwmri/fiber_model.hpp"
#include "te/util/cli.hpp"
#include "te/util/table.hpp"

int main(int argc, char** argv) {
  using namespace te;

  CliArgs args(argc, argv);
  const int order = static_cast<int>(args.get_or("order", 4L));
  const int dim = static_cast<int>(args.get_or("dim", 3L));
  const int rank = static_cast<int>(args.get_or("rank", 3L));
  const auto seed = static_cast<std::uint64_t>(args.get_or("seed", 5L));

  // ---- 1. odeco recovery ----
  std::cout << "1) odeco tensor: sum of " << std::min(rank, dim)
            << " orthogonal rank-1 terms, weights 4, 2, 1...\n";
  {
    std::vector<std::vector<double>> dirs;
    std::vector<double> weights;
    for (int r = 0; r < std::min(rank, dim); ++r) {
      std::vector<double> e(static_cast<std::size_t>(dim), 0.0);
      e[static_cast<std::size_t>(r)] = 1.0;
      dirs.push_back(e);
      weights.push_back(4.0 / (1 << r));
    }
    const auto a = rank_r_tensor<double>({weights.data(), weights.size()},
                                         {dirs.data(), dirs.size()}, order);
    decomp::CpOptions opt;
    opt.max_rank = std::min(rank, dim);
    opt.rank_one.seed = seed;
    const auto cp = greedy_symmetric_cp(a, opt);

    TextTable t;
    t.set_header({"term", "weight", "direction", "residual after"});
    for (int r = 0; r < cp.rank(); ++r) {
      std::string d = "(";
      for (int i = 0; i < dim; ++i) {
        d += fmt_fixed(cp.terms[static_cast<std::size_t>(r)]
                           .x[static_cast<std::size_t>(i)],
                       3) +
             (i + 1 < dim ? ", " : ")");
      }
      t.add_row({std::to_string(r),
                 fmt_fixed(cp.terms[static_cast<std::size_t>(r)].weight, 4),
                 d,
                 fmt_auto(cp.residual_history[static_cast<std::size_t>(r) + 1])});
    }
    t.print(std::cout);
    std::cout << "(weights recovered in magnitude order; residual ~ 0: the\n"
                 " classical exact-recovery property of odeco tensors)\n\n";
  }

  // ---- 2. random tensor residual curve ----
  std::cout << "2) random symmetric tensor, greedy residual curve:\n";
  {
    CounterRng rng(seed);
    const auto a = random_symmetric_tensor<double>(rng, 0, order, dim);
    decomp::CpOptions opt;
    opt.max_rank = rank + 2;
    opt.rank_one.seed = seed + 1;
    const auto cp = greedy_symmetric_cp(a, opt);
    TextTable t;
    t.set_header({"terms", "relative residual"});
    for (std::size_t r = 0; r < cp.residual_history.size(); ++r) {
      t.add_row({std::to_string(r), fmt_auto(cp.residual_history[r])});
    }
    t.print(std::cout);
    std::cout << "(monotone decrease; greedy deflation is a heuristic, not\n"
                 " the globally optimal CP)\n\n";
  }

  // ---- 3. fiber voxel ----
  std::cout << "3) two-fiber DW-MRI voxel: rank-1 directions vs true "
               "fibers:\n";
  {
    dwmri::DiffusionParams params;
    dwmri::Fiber f1, f2;
    f1.direction = {1, 0, 0};
    f1.weight = 0.6;
    f2.direction = {0, 0.6, 0.8};
    f2.weight = 0.4;
    const auto a = dwmri::make_voxel_tensor<double>({f1, f2}, params);
    decomp::CpOptions opt;
    opt.max_rank = 3;
    opt.rank_one.seed = seed + 2;
    const auto cp = greedy_symmetric_cp(a, opt);

    TextTable t;
    t.set_header({"term", "weight", "direction", "closest fiber (deg)"});
    for (int r = 0; r < cp.rank(); ++r) {
      const auto& x = cp.terms[static_cast<std::size_t>(r)].x;
      std::array<double, 3> xd = {x[0], x[1], x[2]};
      double best = 180;
      for (const auto& f : {f1, f2}) {
        double dp = 0;
        for (int i = 0; i < 3; ++i) {
          dp += f.direction[static_cast<std::size_t>(i)] *
                xd[static_cast<std::size_t>(i)];
        }
        best = std::min(best, std::acos(std::min(1.0, std::abs(dp))) * 180 /
                                  3.14159265358979);
      }
      // Appended in place: GCC 12 reports a false -Wrestrict on the
      // inlined concatenation of chained std::string temporaries.
      std::string direction = "(";
      for (int i = 0; i < 3; ++i) {
        if (i > 0) direction += ", ";
        direction += fmt_fixed(xd[static_cast<std::size_t>(i)], 3);
      }
      direction += ")";
      t.add_row({std::to_string(r),
                 fmt_fixed(cp.terms[static_cast<std::size_t>(r)].weight, 4),
                 direction, fmt_fixed(best, 2)});
    }
    t.print(std::cout);
    std::cout << "(the two dominant terms align with the two fibers; the\n"
                 " third mops up the isotropic background)\n";
  }
  return 0;
}

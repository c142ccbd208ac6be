// Ablation A1 (paper Section III-B.5): the storage/compute trade of
// precomputing index arrays and multinomial coefficients. For a sweep of
// shapes, measures batched SS-HOPM throughput in the three tiers and
// reports the extra table storage, reproducing the paper's claim that the
// precomputed tier removes nearly all integer work for a ~(m+2)x storage
// factor, and that full unrolling removes the table loads too.
// Flags: --tensors N --starts V --csv.

#include "bench_common.hpp"
#include "te/kernels/precomputed.hpp"

int main(int argc, char** argv) {
  using namespace te;
  using kernels::Tier;

  CliArgs args(argc, argv);
  const bool csv = args.has("csv");
  const int nt = static_cast<int>(args.get_or("tensors", 256L));
  const int nv = static_cast<int>(args.get_or("starts", 32L));

  bench::banner("Ablation A1 (Sec. III-B.5)",
                "On-the-fly vs precomputed vs unrolled, " +
                    std::to_string(nt) + " tensors x " + std::to_string(nv) +
                    " starts per shape");

  TextTable t;
  t.set_header({"m,n", "general ms", "precomp ms", "unrolled ms",
                "precomp speedup", "unroll speedup", "tensor B",
                "tables B", "storage factor"});

  for (const auto& [m, n] :
       {std::pair{3, 3}, {4, 3}, {4, 4}, {4, 5}, {6, 3}, {6, 4}}) {
    auto p = batch::BatchProblem<float>::random(
        static_cast<std::uint64_t>(m * 1000 + n), nt, nv, m, n);
    // A mild positive shift keeps every shape convergent.
    sshopm::Options opt;
    opt.alpha = sshopm::suggest_shift(p.tensors.front());
    opt.tolerance = 1e-5;
    opt.max_iterations = 100;
    p.options = opt;

    const auto rg = batch::solve_cpu_sequential(p, Tier::kGeneral);
    const auto rp = batch::solve_cpu_sequential(p, Tier::kPrecomputed);
    const auto ru = batch::solve_cpu_sequential(p, Tier::kUnrolled);

    const kernels::KernelTables<float> tables(m, n);
    const auto tensor_bytes =
        static_cast<double>(p.tensors.front().num_unique()) * sizeof(float);

    t.add_row({std::to_string(m) + "," + std::to_string(n),
               fmt_fixed(rg.wall_seconds * 1e3, 1),
               fmt_fixed(rp.wall_seconds * 1e3, 1),
               fmt_fixed(ru.wall_seconds * 1e3, 1),
               fmt_fixed(rg.wall_seconds / rp.wall_seconds, 2),
               fmt_fixed(rg.wall_seconds / ru.wall_seconds, 2),
               fmt_fixed(tensor_bytes, 0),
               std::to_string(tables.table_bytes()),
               fmt_fixed(static_cast<double>(tables.table_bytes()) /
                             tensor_bytes,
                         1)});
  }
  bench::emit(t, csv);

  std::cout << "Shape check: precomputed sits between general and unrolled;\n"
            << "its table storage is a small multiple (~m+2 elements/class)\n"
            << "of the tensor itself and is shared across all tensors.\n";
  return 0;
}

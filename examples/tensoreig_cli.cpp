// tensoreig_cli: end-user command-line driver for the batched eigensolver.
//
//   $ ./tensoreig_cli --input voxels.tesymb [--backend gpu|cpu|cpu-parallel]
//                     [--tier general|precomputed|blocked|unrolled|
//                             jit|auto]
//                     [--starts 128] [--alpha 0] [--threads 4]
//                     [--chunk 32] [--checkpoint run.tetc [--resume]]
//                     [--spill-dir DIR] [--refine] [--max-peaks 4]
//                     [--save-results out.tetc] [--output pairs.txt]
//
// Reads a tensor batch -- either the legacy TESYMB01 flat binary or a
// TETC-v1 container (sniffed by magic) -- and solves every tensor through
// the streaming batch::Scheduler with the selected backend and kernel tier.
// With --checkpoint, every completed chunk is appended to a write-ahead
// TETC log; a killed run restarted with --resume replays the log and
// recomputes only the missing chunks, with a result stream bitwise equal to
// an uninterrupted run. Post-processing extracts distinct eigenpairs per
// tensor (optionally Newton-refined) into a text report: one line per
// (tensor, eigenpair) with lambda, the eigenvector, spectral type, basin
// count and residual.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "te/batch/scheduler.hpp"
#include "te/io/batch_codec.hpp"
#include "te/jit/engine.hpp"
#include "te/io/container.hpp"
#include "te/kernels/autotune.hpp"
#include "te/tensor/io_binary.hpp"
#include "te/util/cli.hpp"
#include "te/util/sphere.hpp"
#include "te/util/table.hpp"

namespace {

te::kernels::Tier parse_tier(const std::string& s) {
  const auto tier = te::kernels::tier_from_name(s);
  TE_REQUIRE(tier.has_value(), "unknown tier '" << s << "'");
  return *tier;
}

te::batch::Backend parse_backend(const std::string& s) {
  using te::batch::Backend;
  if (s == "gpu") return Backend::kGpuSim;
  if (s == "cpu") return Backend::kCpuSequential;
  if (s == "cpu-parallel") return Backend::kCpuParallel;
  TE_REQUIRE(false, "unknown backend '" << s << "'");
  return Backend::kGpuSim;
}

/// Load a batch from either format, sniffing the leading magic bytes. A
/// TETC container may carry the tensors as a plain tensor-batch section or
/// as a DW-MRI dataset section (make_dataset --out voxels.tetc); either
/// works here.
std::vector<te::SymmetricTensor<float>> load_batch(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TE_REQUIRE(in.good(), "cannot open " << path);
  char magic[8] = {};
  in.read(magic, 8);
  TE_REQUIRE(in.gcount() == 8, "file too short to identify: " << path);
  if (std::memcmp(magic, te::io::kFileMagic.data(), 8) == 0) {
    te::io::StreamReader reader(path);
    while (auto s = reader.next()) {
      const auto type = static_cast<te::io::SectionType>(s->info.type);
      if (type == te::io::SectionType::kTensorBatch) {
        return te::io::read_tensor_batch<float>(*s, path);
      }
      if (type == te::io::SectionType::kDataset) {
        return te::io::read_dataset<float>(*s, path).tensors();
      }
    }
    TE_REQUIRE(false,
               "no tensor-batch or dataset section in " << path);
    return {};
  }
  in.clear();
  in.seekg(0);
  return te::read_tensor_batch_binary<float>(in);
}

int run(int argc, char** argv) {
  using namespace te;

  CliArgs args(argc, argv);
  const auto input = args.get("input");
  if (!input) {
    std::cerr
        << "usage: tensoreig_cli --input batch.{tesymb|tetc} [options]\n"
           "  --backend gpu|cpu|cpu-parallel   execution backend (gpu)\n"
           "  --tier T       kernel tier (unrolled): general, precomputed,\n"
           "                 blocked (gpu only), unrolled, jit or auto;\n"
           "                 'jit' compiles a shape-specialized kernel via\n"
           "                 $TE_JIT_CC and falls back to precomputed when\n"
           "                 unavailable; 'auto' times the host tiers on cpu\n"
           "                 and picks unrolled, else blocked, on gpu\n"
           "  --starts N     starting vectors per tensor (128)\n"
           "  --alpha A      SS-HOPM shift; 'auto' = (m-1)||A||_F (0)\n"
           "  --threads P    cpu-parallel worker count (4)\n"
           "  --chunk C      tensors per scheduler chunk (32)\n"
           "  --checkpoint F append completed chunks to a TETC WAL\n"
           "  --resume       replay an existing checkpoint (else start fresh)\n"
           "  --spill-dir D  warm-start precomputed tables from D\n"
           "  --refine       Newton-polish each distinct eigenpair\n"
           "  --max-peaks K  keep at most K pairs per tensor (all)\n"
           "  --seed S       starting-vector seed (1)\n"
           "  --save-results F  also write the raw results as a TETC container\n"
           "  --output FILE  report path (stdout)\n";
    return 2;
  }

  batch::BatchProblem<float> p;
  p.tensors = load_batch(*input);
  TE_REQUIRE(!p.tensors.empty(), "empty batch");
  p.order = p.tensors.front().order();
  p.dim = p.tensors.front().dim();

  const int nstarts = static_cast<int>(args.get_or("starts", 128L));
  const auto seed = static_cast<std::uint64_t>(args.get_or("seed", 1L));
  CounterRng rng(seed);
  p.starts = random_sphere_batch<float>(rng, 0, nstarts, p.dim);

  const std::string alpha_str = args.get_or("alpha", std::string("0"));
  p.options.alpha = alpha_str == "auto"
                        ? sshopm::suggest_shift(p.tensors.front())
                        : std::strtod(alpha_str.c_str(), nullptr);
  p.options.tolerance = 1e-6;
  p.options.max_iterations = 200;

  const std::string backend_str = args.get_or("backend", std::string("gpu"));
  const batch::Backend backend = parse_backend(backend_str);

  kernels::Tier tier;
  const std::string tier_str = args.get_or("tier", std::string("unrolled"));
  if (tier_str == "auto" && backend == batch::Backend::kGpuSim) {
    // Autotune times host kernels; on the GPU pick the device tier instead:
    // unrolled where the shape is registered, blocked beyond it.
    tier = kernels::find_unrolled<float>(p.order, p.dim) != nullptr
               ? kernels::Tier::kUnrolled
               : kernels::Tier::kBlocked;
    std::cerr << "auto picked device tier '" << kernels::tier_name(tier)
              << "'\n";
  } else if (tier_str == "auto") {
    const auto report = kernels::autotune_tier(p.order, p.dim);
    tier = report.best;
    std::cerr << "autotune picked tier '" << kernels::tier_name(tier)
              << "' (" << fmt_fixed(report.best_us(), 2)
              << " us per iteration-pair)\n";
  } else if (tier_str == "jit") {
    // Compile-or-cache-load with graceful degradation: an unset $TE_JIT_CC,
    // a failed compile or a failed admission proof all mean precomputed.
    tier = jit::acquire_tier<float>(p.order, p.dim);
    if (tier != kernels::Tier::kJit) {
      std::cerr << "jit tier unavailable for this shape; using '"
                << kernels::tier_name(tier) << "'\n";
    }
  } else {
    tier = parse_tier(tier_str);
  }

  batch::SchedulerOptions sopt;
  sopt.chunk_tensors = static_cast<int>(args.get_or("chunk", 32L));
  sopt.cpu_threads = static_cast<int>(args.get_or("threads", 4L));
  sopt.table_spill_dir = args.get_or("spill-dir", std::string());
  if (auto ckpt = args.get("checkpoint")) {
    sopt.checkpoint_path = *ckpt;
    if (!args.has("resume")) {
      // Fresh run requested: an old log for a different problem would be
      // rejected by the fingerprint check, so clear it up front.
      std::filesystem::remove(*ckpt);
    }
  } else {
    TE_REQUIRE(!args.has("resume"), "--resume requires --checkpoint FILE");
  }

  std::cerr << "solving " << p.num_tensors() << " tensors (order " << p.order
            << ", dim " << p.dim << ") x " << nstarts << " starts, tier "
            << kernels::tier_name(tier) << ", backend " << backend_str
            << ", alpha " << p.options.alpha << "\n";

  batch::Scheduler<float> sched(backend, sopt);
  const batch::JobId job = sched.submit(std::move(p), tier);
  if (const int restored = sched.restored_chunks(job); restored > 0) {
    std::cerr << "resumed " << restored << " chunk"
              << (restored == 1 ? "" : "s") << " from " << sopt.checkpoint_path
              << "; " << sched.pending_chunks() << " remaining\n";
  }
  sched.run();
  const batch::BatchResult<float>& result = sched.result(job);
  const batch::BatchProblem<float>& prob = sched.problem(job);

  if (backend == batch::Backend::kGpuSim) {
    std::cerr << "modeled GPU time "
              << fmt_fixed(result.modeled_seconds * 1e3, 3) << " ms (+"
              << fmt_fixed(result.transfer_seconds * 1e3, 3)
              << " ms PCIe), occupancy " << result.gpu.occupancy.warps_per_sm
              << " warps/SM\n";
  } else {
    std::cerr << backend_str << " time "
              << fmt_fixed(result.wall_seconds * 1e3, 1) << " ms\n";
  }

  if (auto save = args.get("save-results")) {
    io::save_batch_result(*save, result);
    std::cerr << "saved results container to " << *save << "\n";
  }

  sshopm::MultiStartOptions mopt;
  mopt.inner = prob.options;
  mopt.refine_newton = args.has("refine");
  const auto lists = batch::extract_eigenpairs(prob, result, mopt);

  const long max_peaks = args.get_or("max-peaks", 1000L);
  std::ofstream file;
  std::ostream* os = &std::cout;
  if (auto out_path = args.get("output")) {
    file.open(*out_path);
    if (!file) {
      std::cerr << "cannot write " << *out_path << "\n";
      return 1;
    }
    os = &file;
  }

  *os << "# tensor lambda type basins residual x...\n";
  for (std::size_t t = 0; t < lists.size(); ++t) {
    long emitted = 0;
    for (const auto& pair : lists[t]) {
      if (emitted++ >= max_peaks) break;
      *os << t << ' ' << pair.lambda << ' '
          << sshopm::spectral_type_name(pair.type) << ' ' << pair.basin_count
          << ' ' << pair.worst_residual;
      for (float v : pair.x) *os << ' ' << v;
      *os << '\n';
    }
  }
  std::cerr << "wrote eigenpairs for " << lists.size() << " tensors\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad user input (an unknown or misplaced tier, an unreadable file) is
  // reported as one line and exit code 2, the usage-error code, not as an
  // uncaught exception.
  try {
    return run(argc, argv);
  } catch (const te::InvalidArgument& e) {
    std::cerr << "tensoreig_cli: " << e.message() << "\n";
    return 2;
  }
}

// Mutational fuzz driver for TETC section payloads (ctest label `fuzz`;
// scripts/ci.sh runs it in the plain pass and under ASan/UBSan).
//
// io_corruption_test proves the framing catches every flipped or cut byte.
// This driver goes past the framing: it mutates the PAYLOAD of a real
// section of every type -- tensor batch, kernel tables, batch result,
// dataset, checkpoint manifest, chunk result -- and re-frames it with valid
// CRCs through Writer::add_section, so every mutant reaches the object
// decoders. A fixed seed and a fixed iteration budget (a few seconds in a
// Release build) keep runs reproducible. Each iteration applies one to four
// byte flips, inserts, deletes or count rewrites (a 4- or 8-byte field
// overwritten with a boundary value such as 2^31 - 1, 2^40 or 2^62), writes
// the container, and checks
//   * the matching load_* (load_checkpoint for the two log types) returns
//     or throws only the te::InvalidArgument family -- never bad_alloc,
//     length_error or anything else;
//   * try_load_kernel_tables never throws, and tables it does accept run
//     through ttsv1_precomputed without leaving their arrays (the sanitized
//     run catches any stray access).
// A failing iteration prints its seed type, iteration and payload size.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "te/dwmri/dataset.hpp"
#include "te/io/batch_codec.hpp"
#include "te/io/checkpoint.hpp"
#include "te/io/container.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

namespace te::io {
namespace {

constexpr std::uint64_t kSeed = 0x7e7c'f022'2011'0001ULL;
constexpr int kIterations = 24'000;

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("te_tetc_fuzz_") + name))
      .string();
}

struct TmpFile {
  explicit TmpFile(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TmpFile() { std::filesystem::remove(path); }
  std::string path;
};

/// One section of every type, written by the real codecs and read back.
std::vector<SectionData> seed_sections(const std::string& path) {
  CounterRng rng(7);
  std::vector<SymmetricTensor<float>> tensors;
  for (int i = 0; i < 3; ++i) {
    tensors.push_back(random_symmetric_tensor<float>(
        rng, static_cast<std::uint64_t>(i), 4, 3));
  }
  dwmri::DatasetOptions dopt;
  dopt.num_voxels = 3;
  batch::BatchResult<float> result;
  result.num_tensors = 2;
  result.num_starts = 2;
  for (int i = 0; i < 4; ++i) {
    sshopm::Result<float> r;
    r.lambda = 0.5f * static_cast<float>(i);
    r.iterations = 10 + i;
    r.converged = i % 2 == 0;
    r.failure = r.converged ? sshopm::FailureReason::kNone
                            : sshopm::FailureReason::kMaxIterations;
    r.x = {0.6f, 0.8f, 0.0f};
    result.results.push_back(r);
  }
  CheckpointJob job;
  job.fingerprint = 0x1234u;
  job.order = 4;
  job.dim = 3;
  job.num_tensors = 2;
  job.num_starts = 2;
  job.chunk_tensors = 1;
  CheckpointChunk<float> chunk;
  chunk.begin = 0;
  chunk.end = 1;
  chunk.results.assign(result.results.begin(), result.results.begin() + 2);

  {
    Writer w(path);
    add_tensor_batch_section(
        w, std::span<const SymmetricTensor<float>>(tensors));
    add_kernel_tables_section(w, kernels::KernelTables<float>(4, 3));
    add_batch_result_section(w, result);
    add_dataset_section(w, dwmri::make_dataset<float>(3, dopt));
    add_checkpoint_job_section(w, job);
    add_checkpoint_chunk_section(w, chunk);
    w.flush();
  }
  std::vector<SectionData> out;
  StreamReader r(path);
  while (auto s = r.next()) out.push_back(std::move(*s));
  return out;
}

class Mutator {
 public:
  Mutator() : rng_(kSeed) {}

  void mutate(std::vector<std::byte>& p) {
    for (std::size_t round = 0, n = 1 + below(4); round < n; ++round) {
      switch (below(4)) {
        case 0:  // bit flip
          if (!p.empty()) {
            p[below(p.size())] ^= static_cast<std::byte>(1u << below(8));
          }
          break;
        case 1:  // insert a random byte
          p.insert(p.begin() + static_cast<std::ptrdiff_t>(below(p.size() + 1)),
                   static_cast<std::byte>(rng_()));
          break;
        case 2: {  // delete a short range
          if (p.empty()) break;
          const std::size_t at = below(p.size());
          const std::size_t len = std::min<std::size_t>(1 + below(16),
                                                        p.size() - at);
          p.erase(p.begin() + static_cast<std::ptrdiff_t>(at),
                  p.begin() + static_cast<std::ptrdiff_t>(at + len));
          break;
        }
        default:  // count rewrite: a boundary value over a 4/8-byte field
          rewrite_count(p);
          break;
      }
    }
  }

 private:
  void rewrite_count(std::vector<std::byte>& p) {
    static constexpr std::array<std::uint64_t, 12> kValues = {
        0,
        1,
        2,
        0x7FFF'FFFFull,
        0x8000'0000ull,
        0xFFFF'FFFFull,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 40,
        std::uint64_t{1} << 61,
        std::uint64_t{1} << 62,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0},
    };
    const std::size_t width = below(2) == 0 ? 4 : 8;
    if (p.size() < width) return;
    // Header counts sit at 4-byte-aligned offsets in the first 48 bytes;
    // favor those, but reach anywhere (record fields, table entries).
    const std::size_t last = p.size() - width;
    const std::size_t at =
        below(4) != 0 ? std::min(4 * below(12), last) : below(last + 1);
    std::uint64_t v = kValues[below(kValues.size())];
    if (below(4) == 0) v += below(3);  // just past a boundary
    std::memcpy(p.data() + at, &v, width);  // little-endian low bytes
  }

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  std::mt19937_64 rng_;
};

/// Runs the reader matching the section type; true if it accepted the file.
/// Anything but the te::InvalidArgument family propagates.
bool load_matching(SectionType type, const std::string& path) {
  try {
    switch (type) {
      case SectionType::kTensorBatch:
        (void)load_tensors<float>(path);
        break;
      case SectionType::kKernelTables:
        (void)read_kernel_tables<float>(find_section(path, type), path);
        break;
      case SectionType::kBatchResult:
        (void)load_batch_result<float>(path);
        break;
      case SectionType::kDataset:
        (void)load_dataset<float>(path);
        break;
      case SectionType::kCheckpointManifest:
      case SectionType::kChunkResult:
        (void)load_checkpoint<float>(path);
        break;
    }
    return true;
  } catch (const InvalidArgument&) {
    return false;
  }
}

/// try_load_kernel_tables must never throw; tables it returns must be safe
/// to run the precomputed kernels on.
void check_try_load(const std::string& path) {
  const auto tab = try_load_kernel_tables<float>(path, 4, 3);
  if (!tab) return;
  const SymmetricTensor<float> a(4, 3);
  const std::vector<float> x = {0.6f, 0.8f, 0.0f};
  std::vector<float> y(3);
  kernels::ttsv1_precomputed(a, *tab, std::span<const float>(x),
                             std::span<float>(y));
  (void)kernels::ttsv0_precomputed(a, *tab, std::span<const float>(x));
}

TEST(TetcFuzz, MutatedPayloadsOnlyRaiseInvalidArgument) {
  TmpFile seeds("seeds.tetc");
  TmpFile f("mutant.tetc");
  const auto corpus = seed_sections(seeds.path);
  ASSERT_EQ(corpus.size(), 6u);
  Mutator mutator;
  std::map<std::uint32_t, std::array<int, 2>> outcomes;  // [rejected, accepted]
  for (int i = 0; i < kIterations; ++i) {
    // Round-robin over the section types, so each gets an equal share.
    const SectionData& seed = corpus[static_cast<std::size_t>(i) % corpus.size()];
    auto payload = seed.payload;
    mutator.mutate(payload);
    {
      Writer w(f.path);
      w.add_section(static_cast<SectionType>(seed.info.type), seed.info.version,
                    payload);
      w.flush();
    }
    const auto type = static_cast<SectionType>(seed.info.type);
    try {
      ++outcomes[seed.info.type][load_matching(type, f.path) ? 1 : 0];
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << ", " << section_type_name(seed.info.type)
             << " payload of " << payload.size() << " bytes: loader threw "
             << typeid(e).name() << ": " << e.what();
    }
    try {
      check_try_load(f.path);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << ", " << section_type_name(seed.info.type)
             << " payload of " << payload.size()
             << " bytes: try_load_kernel_tables threw " << typeid(e).name()
             << ": " << e.what();
    }
  }
  // Every type must see both outcomes, or the mutator has stopped reaching
  // the decoders (all rejected) or stopped hurting them (all accepted).
  ASSERT_EQ(outcomes.size(), corpus.size());
  for (const auto& [type, counts] : outcomes) {
    EXPECT_GT(counts[0], 0) << section_type_name(type) << ": none rejected";
    EXPECT_GT(counts[1], 0) << section_type_name(type) << ": none accepted";
  }
}

}  // namespace
}  // namespace te::io

// te::io corruption suite: every malformed byte must yield a precise
// IoError (with container + offset context) -- never garbage data, an
// abort, or undefined behavior. The CI sanitizer legs run this binary under
// ASan/UBSan, so any out-of-bounds decode trips there.
//
// Strategy: build one small valid container, then exhaustively (a) flip
// every single byte and (b) truncate at every prefix length, writing each
// image to disk and re-walking it with StreamReader, the one container
// reader. Separately, craft sections whose FRAMING is valid but whose
// payloads lie (counts, sizes, ranges): the object decoders must reject
// those with bounds errors too, before allocating from a lying count.
// tetc_fuzz_test.cpp mutates every section type at random on top of this.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>

#include "te/io/batch_codec.hpp"
#include "te/io/checkpoint.hpp"
#include "te/io/container.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

namespace te::io {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("te_io_corrupt_") + name))
      .string();
}

struct TmpFile {
  explicit TmpFile(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TmpFile() { std::filesystem::remove(path); }
  std::string path;
};

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

/// A small but representative container: two sections, real payloads.
std::vector<std::byte> make_valid_image(const std::string& path) {
  CounterRng rng(1);
  std::vector<SymmetricTensor<float>> tensors;
  for (int i = 0; i < 2; ++i) {
    tensors.push_back(random_symmetric_tensor<float>(
        rng, static_cast<std::uint64_t>(i), 3, 3));
  }
  Writer w(path);
  add_tensor_batch_section(
      w, std::span<const SymmetricTensor<float>>(tensors));
  PayloadBuilder b;
  b.put_u64(0x0123456789ABCDEFull);
  w.add_section(SectionType::kChunkResult, 1, b.bytes());
  w.flush();
  return slurp(path);
}

void spit(const std::string& path, std::span<const std::byte> image) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

/// Writes `image` to `path` and walks every section with StreamReader;
/// returns the section count.
int walk(const std::string& path, std::span<const std::byte> image,
         bool tolerate_torn_tail = false) {
  spit(path, image);
  StreamReader reader(path, tolerate_torn_tail);
  int n = 0;
  while (reader.next()) ++n;
  return n;
}

TEST(IoCorruption, ValidImageWalksCleanly) {
  TmpFile f("valid.tetc");
  const auto image = make_valid_image(f.path);
  EXPECT_EQ(walk(f.path, image), 2);
  EXPECT_EQ(walk(f.path, image, /*tolerate_torn_tail=*/true), 2);
}

TEST(IoCorruption, EveryFlippedByteIsDetected) {
  TmpFile f("flip.tetc");
  const auto image = make_valid_image(f.path);
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto mutated = image;
    mutated[i] ^= std::byte{0x01};
    EXPECT_THROW((void)walk(f.path, mutated), InvalidArgument)
        << "flip at byte " << i << " went undetected";
    // Tolerant mode: a flip in the file header is still an error; any
    // other flip ends the log before the damaged section.
    if (i < kFileHeaderBytes) {
      EXPECT_THROW((void)walk(f.path, mutated, true), InvalidArgument)
          << "header flip at byte " << i;
    } else {
      EXPECT_LT(walk(f.path, mutated, true), 2) << "flip at byte " << i;
    }
  }
}

TEST(IoCorruption, EveryTruncationIsSafe) {
  TmpFile f("trunc.tetc");
  const auto image = make_valid_image(f.path);
  const int full = walk(f.path, image);
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::span<const std::byte> prefix(image.data(), len);
    // Strict mode: throws a precise error or cleanly yields fewer
    // sections (when the cut lands exactly on a section boundary).
    try {
      EXPECT_LT(walk(f.path, prefix), full) << "length " << len;
    } catch (const InvalidArgument&) {
      // expected for mid-section cuts
    }
    // Tolerant (write-ahead-log) mode must never throw past construction:
    // a torn tail is simply the end of the log.
    if (len >= kFileHeaderBytes) {
      EXPECT_LT(walk(f.path, prefix, /*tolerate_torn_tail=*/true), full)
          << "length " << len;
    } else {
      EXPECT_THROW((void)walk(f.path, prefix, true), InvalidArgument)
          << "length " << len;
    }
  }
}

TEST(IoCorruption, WrongMagicAndShortFilesAreRejected) {
  TmpFile f("magic.tetc");
  auto image = make_valid_image(f.path);
  image[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)walk(f.path, image), InvalidArgument);
  // Tolerant mode still requires a valid FILE header -- tolerance only
  // applies to the section tail.
  EXPECT_THROW((void)walk(f.path, image, true), InvalidArgument);
  // Zero-length and sub-header files.
  EXPECT_THROW((void)walk(f.path, {}), InvalidArgument);
  EXPECT_THROW(
      (void)walk(f.path, std::span<const std::byte>(image.data(), 7)),
      InvalidArgument);

  std::ofstream(f.path, std::ios::binary) << "TESYMB01 legacy, not TETC";
  EXPECT_THROW(StreamReader{f.path}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Valid framing, lying payloads: decoder bounds checks.

/// Writes a fresh container holding one section with intact CRCs around
/// the given payload.
void write_section(const std::string& path, SectionType type,
                   std::uint32_t version, std::span<const std::byte> payload) {
  Writer w(path);
  w.add_section(type, version, payload);
  w.flush();
}

/// write_section, then the strict-read section back.
SectionData reframe(const std::string& path, SectionType type,
                    std::uint32_t version, const PayloadBuilder& b) {
  write_section(path, type, version, b.bytes());
  return find_section(path, type);
}

/// The payload of the first `type` section in `path`, with the
/// little-endian integer at byte `at` overwritten by `value`: a count
/// rewrite that keeps the framing valid once re-framed.
template <typename V>
std::vector<std::byte> rewritten_payload(const std::string& path,
                                         SectionType type, std::size_t at,
                                         V value) {
  auto payload = find_section(path, type).payload;
  std::memcpy(payload.data() + at, &value, sizeof(value));
  return payload;
}

TEST(IoCorruption, TensorBatchCountLiesAreBoundsErrors) {
  TmpFile f("lies.tetc");
  // Declares 1000 tensors of a (3, 3) shape but carries no values at all.
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(3);
  b.put_i32(3);
  b.put_u64(1000);
  b.put_u64(static_cast<std::uint64_t>(comb::num_unique_entries(3, 3)));
  b.align();
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, TensorBatchImplausibleShapeIsRejected) {
  TmpFile f("shape.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(-4);  // negative order
  b.put_i32(3);
  b.put_u64(1);
  b.put_u64(15);
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, TensorBatchValuesPerTensorMismatchIsRejected) {
  TmpFile f("vpt.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(3);
  b.put_i32(3);
  b.put_u64(1);
  b.put_u64(7);  // (3, 3) has 10 unique entries, not 7
  b.align();
  for (int i = 0; i < 7; ++i) b.put_scalar(1.0f);
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, ChunkResultRangeAndSizeLiesAreRejected) {
  TmpFile f("chunk.tetc");
  {
    // begin > end.
    PayloadBuilder b;
    b.put_u32(dtype_code<float>());
    b.put_u32(0);   // job
    b.put_i32(5);   // begin
    b.put_i32(2);   // end < begin
    b.put_u64(0);
    const auto s = reframe(f.path, SectionType::kChunkResult,
                           kChunkResultVersion, b);
    EXPECT_THROW((void)read_checkpoint_chunk<float>(s, f.path), IoError);
  }
  {
    // Result record with an absurd eigenvector length.
    PayloadBuilder b;
    b.put_u32(dtype_code<float>());
    b.put_u32(0);
    b.put_i32(0);
    b.put_i32(1);
    b.put_u64(1);       // one record follows...
    b.put_scalar(1.0f);  // lambda
    b.put_i32(3);        // iterations
    b.put_u32(1);        // converged
    b.put_u32(0);        // failure
    b.put_u64(1u << 30);  // x_size: absurd
    b.put_u64(0);        // trace_size
    const auto s = reframe(f.path, SectionType::kChunkResult,
                           kChunkResultVersion, b);
    EXPECT_THROW((void)read_checkpoint_chunk<float>(s, f.path), IoError);
  }
}

TEST(IoCorruption, DatasetFiberCountLiesAreRejected) {
  TmpFile f("fibers.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(4);
  b.put_i32(3);
  b.put_u64(1);                   // one voxel
  b.put_u64(1u << 20);            // ...claiming a million fibers
  const auto s = reframe(f.path, SectionType::kDataset, kDatasetVersion, b);
  EXPECT_THROW((void)read_dataset<float>(s, f.path), IoError);
}

TEST(IoCorruption, KernelTablesAbiMismatchIsRejected) {
  TmpFile f("abi.tetc");
  const kernels::KernelTables<float> tab(3, 3);
  save_kernel_tables(f.path, tab);
  // Reading float tables as double is a dtype error, not a misread.
  EXPECT_THROW((void)read_kernel_tables<double>(
                   find_section(f.path, SectionType::kKernelTables), f.path),
               IoError);
}

TEST(IoCorruption, FutureSectionVersionIsAPreciseError) {
  TmpFile f("ver.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion + 41, b);
  try {
    (void)read_tensor_batch<float>(s, f.path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

// Counts that would size an allocation far past the payload: each must be
// an IoError before any reserve or vector is sized from it (a bad_alloc or
// length_error escaping here is the bug these cases pin).

TEST(IoCorruption, HugeTensorCountIsABoundsError) {
  TmpFile f("huge_tensors.tetc");
  const std::vector<SymmetricTensor<float>> tensors(2,
                                                    SymmetricTensor<float>(3, 3));
  save_tensors<float>(f.path,
                      std::span<const SymmetricTensor<float>>(tensors));
  // Payload: u32 dtype | i32 order | i32 dim | u64 num_tensors @ 12.
  write_section(f.path, SectionType::kTensorBatch, kTensorBatchVersion,
                rewritten_payload(f.path, SectionType::kTensorBatch, 12,
                                  std::uint64_t{1} << 40));
  EXPECT_THROW((void)load_tensors<float>(f.path), IoError);
}

TEST(IoCorruption, HugeVoxelCountIsABoundsError) {
  TmpFile f("huge_voxels.tetc");
  dwmri::DatasetOptions opt;
  opt.num_voxels = 2;
  save_dataset(f.path, dwmri::make_dataset<float>(5, opt));
  // Payload: u32 dtype | i32 order | i32 dim | u64 num_voxels @ 12.
  write_section(f.path, SectionType::kDataset, kDatasetVersion,
                rewritten_payload(f.path, SectionType::kDataset, 12,
                                  std::uint64_t{1} << 40));
  EXPECT_THROW((void)load_dataset<float>(f.path), IoError);
}

TEST(IoCorruption, HugeBatchResultCountIsABoundsError) {
  TmpFile f("huge_results.tetc");
  batch::BatchResult<float> r;
  r.num_tensors = 1;
  r.num_starts = 1;
  r.results.resize(1);
  r.results[0].x = {1.0f, 0.0f, 0.0f};
  save_batch_result(f.path, r);
  // Payload: u32 dtype | i32 num_tensors @ 4 | i32 num_starts @ 8 |
  // u64 num_results @ 12; the three agree, so only the fit check stops it.
  const std::int32_t side = std::numeric_limits<std::int32_t>::max();
  auto payload =
      rewritten_payload(f.path, SectionType::kBatchResult, 4, side);
  std::memcpy(payload.data() + 8, &side, sizeof(side));
  const std::uint64_t product =
      static_cast<std::uint64_t>(side) * static_cast<std::uint64_t>(side);
  std::memcpy(payload.data() + 12, &product, sizeof(product));
  write_section(f.path, SectionType::kBatchResult, kBatchResultVersion,
                payload);
  EXPECT_THROW((void)load_batch_result<float>(f.path), IoError);
}

TEST(IoCorruption, HugeChunkRecordCountIsABoundsError) {
  TmpFile f("huge_chunk.tetc");
  CheckpointChunk<float> chunk;
  chunk.begin = 0;
  chunk.end = 1;
  chunk.results.resize(1);
  {
    Writer w(f.path);
    add_checkpoint_chunk_section(w, chunk);
    w.flush();
  }
  // Payload: u32 dtype | u32 job | i32 begin | i32 end | u64 count @ 16.
  write_section(f.path, SectionType::kChunkResult, kChunkResultVersion,
                rewritten_payload(f.path, SectionType::kChunkResult, 16,
                                  std::uint64_t{1} << 40));
  EXPECT_THROW((void)load_checkpoint<float>(f.path), IoError);
}

TEST(IoCorruption, WrappingContribCountIsABoundsErrorAndNeverEscapesTryLoad) {
  TmpFile f("huge_contribs.tetc");
  save_kernel_tables(f.path, kernels::KernelTables<float>(3, 3));
  // Payload: u32 dtype | i32 order | i32 dim | u64 num_classes |
  // u64 num_contribs @ 20. 2^62 records of 24 bytes wrap a u64 byte count
  // to zero, so only a division-based check rejects it.
  write_section(f.path, SectionType::kKernelTables, kKernelTablesVersion,
                rewritten_payload(f.path, SectionType::kKernelTables, 20,
                                  std::uint64_t{1} << 62));
  EXPECT_THROW((void)read_kernel_tables<float>(
                   find_section(f.path, SectionType::kKernelTables), f.path),
               IoError);
  std::optional<kernels::KernelTables<float>> tab;
  EXPECT_NO_THROW(tab = try_load_kernel_tables<float>(f.path, 3, 3));
  EXPECT_FALSE(tab.has_value());
}

TEST(IoCorruption, CheckpointReplayIgnoresCorruptTailButKeepsPrefix) {
  TmpFile f("replay.tetc");
  CheckpointJob job;
  job.order = 4;
  job.dim = 3;
  job.num_tensors = 2;
  job.num_starts = 1;
  job.chunk_tensors = 1;
  {
    Writer w(f.path);
    add_checkpoint_job_section(w, job);
    w.flush();
  }
  const auto intact = std::filesystem::file_size(f.path);
  {
    Writer w(f.path, OpenMode::kAppend);
    add_checkpoint_job_section(w, job);
    w.flush();
  }
  // Corrupt (not truncate) the second section: flip a byte of its payload.
  {
    auto image = slurp(f.path);
    // The second section starts at the 64-aligned boundary >= intact; its
    // payload begins one section header later.
    const std::uint64_t payload = align_up(intact) + kSectionHeaderBytes;
    ASSERT_LT(payload + 4, image.size());
    image[payload + 4] ^= std::byte{0x5A};
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  const auto replay = load_checkpoint<float>(f.path);
  ASSERT_TRUE(replay.present);
  EXPECT_EQ(replay.jobs.size(), 1u);  // prefix survives, tail dropped
  EXPECT_LE(replay.valid_end, intact);
}

}  // namespace
}  // namespace te::io

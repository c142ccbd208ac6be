// te::io round-trip tests: every object codec must survive write -> read
// (StreamReader, the one container reader) bitwise.
// Framing behaviors (alignment, append mode, unknown-section skip, torn
// tails) are covered here too; byte-level corruption is io_corruption_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "te/dwmri/dataset.hpp"
#include "te/io/batch_codec.hpp"
#include "te/io/checkpoint.hpp"
#include "te/io/container.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "te/util/sphere.hpp"

namespace te::io {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("te_io_test_") + name))
      .string();
}

/// RAII temp file: removed on scope exit so tests don't leak state.
struct TmpFile {
  explicit TmpFile(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TmpFile() { std::filesystem::remove(path); }
  std::string path;
};

template <Real T>
std::vector<SymmetricTensor<T>> random_batch(std::uint64_t seed, int count,
                                             int order, int dim) {
  std::vector<SymmetricTensor<T>> out;
  CounterRng rng(seed);
  for (int i = 0; i < count; ++i) {
    out.push_back(random_symmetric_tensor<T>(
        rng, static_cast<std::uint64_t>(i), order, dim));
  }
  return out;
}

template <Real T>
void expect_results_bitwise(const std::vector<sshopm::Result<T>>& a,
                            const std::vector<sshopm::Result<T>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lambda, b[i].lambda) << "slot " << i;
    EXPECT_EQ(a[i].x, b[i].x) << "slot " << i;
    EXPECT_EQ(a[i].iterations, b[i].iterations) << "slot " << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << "slot " << i;
    EXPECT_EQ(a[i].failure, b[i].failure) << "slot " << i;
  }
}

/// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the independent
/// reference the table-driven crc32_update is checked against.
std::uint32_t crc32_bitwise(std::span<const std::byte> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> pseudo_random_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::byte> out(n);
  std::uint32_t s = seed;
  for (auto& b : out) {
    s = s * 1664525u + 1013904223u;
    b = static_cast<std::byte>(s >> 24);
  }
  return out;
}

template <typename V>
void put_le(std::vector<std::byte>& out, std::size_t at, V v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}

/// The container a Writer must produce for one section, assembled by hand
/// from the layout in format.hpp: file header, zero pad, section header,
/// zero pad, payload.
std::vector<std::byte> reference_container(SectionType type,
                                           std::uint32_t version,
                                           std::span<const std::byte> payload) {
  std::vector<std::byte> out(kFileHeaderBytes);
  std::memcpy(out.data(), kFileMagic.data(), kFileMagic.size());
  put_le(out, 8, kEndianTag);
  put_le(out, 12, crc32({out.data(), 12}));
  const std::size_t h = static_cast<std::size_t>(align_up(out.size()));
  out.resize(h + kSectionHeaderBytes);
  std::memcpy(out.data() + h, kSectionMagic.data(), kSectionMagic.size());
  put_le(out, h + 4, static_cast<std::uint32_t>(type));
  put_le(out, h + 8, version);
  put_le(out, h + 16, static_cast<std::uint64_t>(payload.size()));
  put_le(out, h + 24, crc32(payload));
  put_le(out, h + 28, crc32({out.data() + h, 28}));
  out.resize(static_cast<std::size_t>(align_up(out.size())));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

// ---------------------------------------------------------------------------
// CRC-32.

TEST(IoCrc, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(check.data(), check.size()))),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(IoCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..257 cover the empty input, pure tails (< 8 bytes), and
  // several 8-byte strides plus every tail length; offsets 0..7 cover
  // every start alignment of the 8-byte loads.
  const auto data = pseudo_random_bytes(8 + 257, 19);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const auto s = std::span<const std::byte>(data).subspan(off, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "offset " << off << " length "
                                            << len;
    }
  }
}

TEST(IoCrc, ChainedUpdatesOverAnySplitEqualOneShot) {
  // What the two-pass section writer relies on: folding a payload chunk by
  // chunk gives the checksum of the whole.
  const auto data = pseudo_random_bytes(1000, 23);
  const std::span<const std::byte> all(data);
  const std::uint32_t whole = crc32(all);
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    std::uint32_t crc = 0;
    std::size_t at = 0;
    std::uint32_t s = seed;
    while (at < all.size()) {
      s = s * 1664525u + 1013904223u;
      const std::size_t piece = std::min<std::size_t>(s % 97, all.size() - at);
      crc = crc32_update(crc, all.subspan(at, piece));  // pieces may be empty
      at += piece;
    }
    EXPECT_EQ(crc, whole) << "split pattern " << seed;
  }
}

// ---------------------------------------------------------------------------
// Framing.

TEST(IoFraming, EmptyContainerIsJustTheHeader) {
  TmpFile f("empty.tetc");
  {
    Writer w(f.path);
    w.flush();
    EXPECT_EQ(w.size(), kFileHeaderBytes);
    EXPECT_EQ(w.sections_added(), 0);
  }
  StreamReader r(f.path);
  EXPECT_EQ(r.file_bytes(), kFileHeaderBytes);
  EXPECT_FALSE(r.next().has_value());
}

TEST(IoFraming, SectionsAreAlignedAndTyped) {
  TmpFile f("framing.tetc");
  PayloadBuilder b;
  b.put_u32(0xDEADBEEFu);
  {
    Writer w(f.path);
    w.add_section(SectionType::kTensorBatch, 7, b.bytes());
    w.add_section(SectionType::kKernelTables, 1, {});  // empty payload is ok
    w.flush();
    EXPECT_EQ(w.sections_added(), 2);
  }
  StreamReader r(f.path);
  const auto s1 = r.next();
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->info.type, static_cast<std::uint32_t>(
                               SectionType::kTensorBatch));
  EXPECT_EQ(s1->info.version, 7u);
  EXPECT_EQ(s1->info.header_offset % kAlign, 0u);
  EXPECT_EQ(s1->info.payload_bytes, 4u);
  const auto s2 = r.next();
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->info.header_offset % kAlign, 0u);
  EXPECT_EQ(s2->info.payload_bytes, 0u);
  EXPECT_FALSE(r.next().has_value());
}

TEST(IoFraming, AppendModeExtendsAnExistingContainer) {
  TmpFile f("append.tetc");
  PayloadBuilder b;
  b.put_u64(42);
  {
    Writer w(f.path);
    w.add_section(SectionType::kChunkResult, 1, b.bytes());
    w.flush();
  }
  {
    Writer w(f.path, OpenMode::kAppend);
    w.add_section(SectionType::kChunkResult, 1, b.bytes());
    w.flush();
    EXPECT_EQ(w.sections_added(), 1);  // only the new one
  }
  StreamReader r(f.path);
  int n = 0;
  while (r.next()) ++n;
  EXPECT_EQ(n, 2);
}

TEST(IoFraming, AppendToMissingFileCreatesAFreshContainer) {
  TmpFile f("append_fresh.tetc");
  {
    Writer w(f.path, OpenMode::kAppend);
    w.flush();
  }
  StreamReader r(f.path);  // header must validate
  EXPECT_FALSE(r.next().has_value());
}

TEST(IoFraming, UnknownSectionTypesAreSkippedByFindSection) {
  TmpFile f("unknown.tetc");
  const auto tensors = random_batch<float>(5, 2, 3, 3);
  {
    Writer w(f.path);
    PayloadBuilder junk;
    junk.put_u32(123);
    w.add_section(static_cast<SectionType>(999), 1, junk.bytes());
    add_tensor_batch_section(
        w, std::span<const SymmetricTensor<float>>(tensors));
    w.flush();
  }
  // find_section walks past the foreign section (forward compatibility).
  const auto loaded = load_tensors<float>(f.path);
  ASSERT_EQ(loaded.size(), tensors.size());
  EXPECT_EQ(loaded[0], tensors[0]);
  // ...while a missing type is a precise error.
  EXPECT_THROW((void)find_section(f.path, SectionType::kDataset), IoError);
}

TEST(IoFraming, FutureVersionOfAKnownSectionIsRejected) {
  TmpFile f("future.tetc");
  const auto tensors = random_batch<double>(6, 1, 3, 3);
  {
    Writer w(f.path);
    add_tensor_batch_section(
        w, std::span<const SymmetricTensor<double>>(tensors));
    w.flush();
  }
  // Re-wrap the valid payload under a future version number.
  TmpFile g("future2.tetc");
  {
    StreamReader r(f.path);
    const auto s = r.next();
    ASSERT_TRUE(s.has_value());
    Writer w(g.path);
    w.add_section(SectionType::kTensorBatch, kTensorBatchVersion + 1,
                  s->payload);
    w.flush();
  }
  EXPECT_THROW((void)load_tensors<double>(g.path), IoError);
}

TEST(IoFraming, IoErrorCarriesContainerAndOffsetContext) {
  TmpFile f("ctx.tetc");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "not a container at all";
  }
  try {
    StreamReader r(f.path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(f.path), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
  // IoError is part of the library-wide exception family.
  EXPECT_THROW(StreamReader{tmp_path("does_not_exist.tetc")},
               InvalidArgument);
}

TEST(IoFraming, TornTailToleranceEndsIterationInsteadOfThrowing) {
  TmpFile f("torn.tetc");
  PayloadBuilder b;
  b.put_u64(7);
  {
    Writer w(f.path);
    w.add_section(SectionType::kChunkResult, 1, b.bytes());
    w.add_section(SectionType::kChunkResult, 1, b.bytes());
    w.flush();
  }
  // Chop the second section in half: a writer died mid-append.
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 20);
  {
    StreamReader strict(f.path);
    EXPECT_TRUE(strict.next().has_value());
    EXPECT_THROW((void)strict.next(), IoError);
  }
  {
    StreamReader tolerant(f.path, /*tolerate_torn_tail=*/true);
    EXPECT_TRUE(tolerant.next().has_value());
    EXPECT_FALSE(tolerant.next().has_value());  // torn tail = end of log
  }
}

// ---------------------------------------------------------------------------
// Tensor batches.

TEST(IoTensorBatch, RoundTripsBitwiseOnBothReadPaths) {
  for (const auto& [order, dim] :
       {std::pair{3, 3}, {4, 3}, {3, 6}, {6, 3}}) {
    TmpFile f("tensors.tetc");
    const auto tensors = random_batch<float>(
        static_cast<std::uint64_t>(order * 10 + dim), 5, order, dim);
    save_tensors<float>(f.path,
                        std::span<const SymmetricTensor<float>>(tensors));

    const auto streamed = load_tensors<float>(f.path);
    ASSERT_EQ(streamed.size(), tensors.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      EXPECT_EQ(streamed[i], tensors[i]) << "streamed " << i;
    }
  }
}

TEST(IoTensorBatch, DoubleBatchRoundTripsAndDtypeIsChecked) {
  TmpFile f("tensors_f64.tetc");
  const auto tensors = random_batch<double>(9, 3, 4, 3);
  save_tensors<double>(f.path,
                       std::span<const SymmetricTensor<double>>(tensors));
  const auto back = load_tensors<double>(f.path);
  ASSERT_EQ(back.size(), tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(back[i], tensors[i]);
  }
  // Reading with the wrong scalar type is a precise error, not garbage.
  EXPECT_THROW((void)load_tensors<float>(f.path), IoError);
}

// ---------------------------------------------------------------------------
// Kernel tables.

TEST(IoKernelTables, RoundTripsBitwiseOnBothReadPaths) {
  for (const auto& [order, dim] : {std::pair{3, 3}, {4, 3}, {4, 5}}) {
    TmpFile f("tables.tetc");
    const kernels::KernelTables<float> built(order, dim);
    save_kernel_tables(f.path, built);

    const auto streamed = read_kernel_tables<float>(
        find_section(f.path, SectionType::kKernelTables), f.path);
    EXPECT_EQ(streamed.order(), built.order());
    EXPECT_EQ(streamed.dim(), built.dim());
    EXPECT_EQ(streamed.num_classes(), built.num_classes());
    EXPECT_TRUE(std::ranges::equal(streamed.index_table(),
                                   built.index_table()));
    EXPECT_TRUE(std::ranges::equal(streamed.coeff0_table(),
                                   built.coeff0_table()));
    ASSERT_EQ(streamed.contributions().size(), built.contributions().size());

    // The loaded tables must produce bitwise-identical kernel results.
    CounterRng rng(3);
    std::vector<float> x(static_cast<std::size_t>(dim));
    for (int i = 0; i < dim; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<float>(
          rng.in(0, static_cast<std::uint64_t>(i), -1, 1));
    }
    const auto a = random_batch<float>(
        static_cast<std::uint64_t>(order + dim), 1, order, dim)[0];
    const std::span<const float> xs(x.data(), x.size());
    EXPECT_EQ(kernels::ttsv0_precomputed(a, streamed, xs),
              kernels::ttsv0_precomputed(a, built, xs));
    std::vector<float> y_ref(x.size());
    std::vector<float> y(x.size());
    kernels::ttsv1_precomputed(a, built, xs, std::span<float>(y_ref));
    kernels::ttsv1_precomputed(a, streamed, xs, std::span<float>(y));
    EXPECT_EQ(y, y_ref);
  }
}

TEST(IoKernelTables, TryLoadFiltersByShapeAndSurvivesMissingFiles) {
  TmpFile f("tables_multi.tetc");
  {
    Writer w(f.path);
    add_kernel_tables_section(w, kernels::KernelTables<float>(3, 3));
    add_kernel_tables_section(w, kernels::KernelTables<float>(4, 3));
    w.flush();
  }
  // Finds the matching shape even when it is not the first section...
  const auto hit = try_load_kernel_tables<float>(f.path, 4, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->order(), 4);
  EXPECT_EQ(hit->dim(), 3);
  // ...returns nullopt (never throws) for absent shapes and absent files.
  EXPECT_FALSE(try_load_kernel_tables<float>(f.path, 6, 3).has_value());
  EXPECT_FALSE(try_load_kernel_tables<double>(f.path, 4, 3).has_value());
  EXPECT_FALSE(
      try_load_kernel_tables<float>(tmp_path("nope.tetc"), 4, 3).has_value());
}

// ---------------------------------------------------------------------------
// Batch results.

TEST(IoBatchResult, RoundTripsBitwiseOnBothReadPaths) {
  // A real solve, so the records carry genuine failure codes.
  auto p = batch::BatchProblem<double>::random(21, 4, 3, 4, 3);
  p.options.alpha = 1.0;
  const auto result =
      batch::solve_cpu_sequential(p, kernels::Tier::kPrecomputed);

  TmpFile f("result.tetc");
  save_batch_result(f.path, result);

  const auto streamed = load_batch_result<double>(f.path);
  EXPECT_EQ(streamed.num_tensors, result.num_tensors);
  EXPECT_EQ(streamed.num_starts, result.num_starts);
  EXPECT_EQ(streamed.useful_flops, result.useful_flops);
  EXPECT_EQ(streamed.wall_seconds, result.wall_seconds);
  EXPECT_EQ(streamed.modeled_seconds, result.modeled_seconds);
  EXPECT_EQ(streamed.transfer_seconds, result.transfer_seconds);
  expect_results_bitwise(result.results, streamed.results);
}

/// Dyadic value in [-1, 1) from the seeded counter stream: exact in any
/// float type and under any compiler flags, so the golden bytes below do
/// not depend on FMA contraction or -march.
template <Real T>
T dyadic(const CounterRng& rng, std::uint64_t stream, std::uint64_t i) {
  const auto q = static_cast<std::int32_t>(rng.at(stream, i) >> 44);  // 20 bits
  return static_cast<T>(q - (1 << 19)) / static_cast<T>(1 << 19);
}

TEST(IoBatchResult, FileBytesMatchGoldenHash) {
  // A fixed seeded 6-tensor x 5-start (3, 3) float result with every
  // failure class, written with pinned timing fields. The CRC-32 and size
  // were taken from the file this test wrote before Result dropped its
  // lambda trace; the record still carries a zero trace count, so the
  // bytes must not move.
  const CounterRng rng(2011);
  batch::BatchResult<float> r;
  r.num_tensors = 6;
  r.num_starts = 5;
  r.wall_seconds = 0.5;
  r.modeled_seconds = 0.25;
  r.transfer_seconds = 0.125;
  r.useful_flops = 987654321;
  for (int i = 0; i < r.num_tensors * r.num_starts; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    sshopm::Result<float> res;
    res.lambda = 4 * dyadic<float>(rng, 1, u);
    res.iterations = static_cast<int>(rng.at(2, u) % 200);
    res.failure = static_cast<sshopm::FailureReason>(i % 4);
    res.converged = res.failure == sshopm::FailureReason::kNone;
    res.x.resize(3);
    for (std::size_t k = 0; k < res.x.size(); ++k) {
      res.x[k] = dyadic<float>(rng, 3, u * 3 + k);
    }
    r.results.push_back(std::move(res));
  }
  TmpFile f("golden_result.tetc");
  save_batch_result(f.path, r);
  const auto bytes = read_file(f.path);
  EXPECT_EQ(bytes.size(), 1500u);
  EXPECT_EQ(crc32(bytes), 0x7094ceedu);
  expect_results_bitwise(r.results, load_batch_result<float>(f.path).results);
}

TEST(IoBatchResult, OlderRecordWithTraceLoadsAndDropsIt) {
  // Files written while Result kept its lambda trace carry the trace
  // scalars after the iterate. The reader skips them: the record loads,
  // and so does the record after it.
  PayloadBuilder b;
  b.put_u32(dtype_code<double>());
  b.put_i32(1);  // num_tensors
  b.put_i32(2);  // num_starts
  b.put_u64(2);
  b.put_f64(0.5);
  b.put_f64(0.5);
  b.put_f64(0);
  b.put_i64(42);
  const std::vector<double> x0 = {0.6, 0.8};
  const std::vector<double> trace = {1.0, 1.5, 1.75};
  b.put_scalar(1.75);
  b.put_i32(2);
  b.put_u32(1);
  b.put_u32(0);
  b.put_u64(x0.size());
  b.put_u64(trace.size());
  b.put_array(std::span<const double>(x0));
  b.put_array(std::span<const double>(trace));
  sshopm::Result<double> second;
  second.lambda = -0.25;
  second.iterations = 200;
  second.failure = sshopm::FailureReason::kMaxIterations;
  second.x = {0.0, -1.0};
  put_result_record(b, second);

  TmpFile f("traced_result.tetc");
  {
    Writer w(f.path);
    w.add_section(SectionType::kBatchResult, kBatchResultVersion, b.bytes());
    w.flush();
  }
  const auto back = load_batch_result<double>(f.path);
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[0].lambda, 1.75);
  EXPECT_EQ(back.results[0].iterations, 2);
  EXPECT_TRUE(back.results[0].converged);
  EXPECT_EQ(back.results[0].x, x0);
  expect_results_bitwise(std::vector<sshopm::Result<double>>{second},
                         std::vector<sshopm::Result<double>>{back.results[1]});
}

// ---------------------------------------------------------------------------
// Streamed sections (Writer's two-pass, bounded-memory path).

TEST(IoStreamedSection, SpanPayloadsAtChunkBoundariesMatchTheSpec) {
  TmpFile f("chunk_edges.tetc");
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kSectionChunkBytes - 1,
        kSectionChunkBytes, kSectionChunkBytes + 1,
        2 * kSectionChunkBytes + 7}) {
    const auto payload = pseudo_random_bytes(n, static_cast<std::uint32_t>(n));
    {
      Writer w(f.path);
      w.add_section(SectionType::kChunkResult, 1, payload);
      w.flush();
      EXPECT_EQ(w.size(), reference_container(SectionType::kChunkResult, 1,
                                              payload)
                              .size());
    }
    EXPECT_EQ(read_file(f.path),
              reference_container(SectionType::kChunkResult, 1, payload))
        << "payload of " << n << " bytes";
  }
}

TEST(IoStreamedSection, BatchResultLargerThanOneChunkIsByteIdentical) {
  // Mixed iterate lengths, so records straddle chunk boundaries at every
  // alignment.
  batch::BatchResult<double> r;
  r.num_tensors = 64;
  r.num_starts = 40;
  r.wall_seconds = 1.25;
  r.modeled_seconds = 0.5;
  r.transfer_seconds = 0.125;
  r.useful_flops = 123456789;
  CounterRng rng(77);
  for (int i = 0; i < r.num_tensors * r.num_starts; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    sshopm::Result<double> res;
    res.lambda = rng.in(1, u, -5.0, 5.0);
    res.iterations = i % 200;
    res.converged = i % 3 != 0;
    res.failure = res.converged ? sshopm::FailureReason::kNone
                                : sshopm::FailureReason::kMaxIterations;
    res.x.resize(static_cast<std::size_t>(1 + i % 6));
    for (std::size_t k = 0; k < res.x.size(); ++k) {
      res.x[k] = rng.in(2, u * 8 + k, -1.0, 1.0);
    }
    r.results.push_back(std::move(res));
  }

  // Reference: the same payload built whole in memory.
  PayloadBuilder b;
  b.put_u32(dtype_code<double>());
  b.put_i32(r.num_tensors);
  b.put_i32(r.num_starts);
  b.put_u64(r.results.size());
  b.put_f64(r.wall_seconds);
  b.put_f64(r.modeled_seconds);
  b.put_f64(r.transfer_seconds);
  b.put_i64(r.useful_flops);
  for (const auto& res : r.results) put_result_record(b, res);
  ASSERT_GT(b.size(), 2 * kSectionChunkBytes);
  ASSERT_NE(b.size() % kSectionChunkBytes, 0u);

  TmpFile f("streamed_result.tetc");
  save_batch_result(f.path, r);
  EXPECT_EQ(read_file(f.path),
            reference_container(SectionType::kBatchResult,
                                kBatchResultVersion, b.bytes()));

  const auto back = load_batch_result<double>(f.path);
  EXPECT_EQ(back.num_tensors, r.num_tensors);
  EXPECT_EQ(back.num_starts, r.num_starts);
  EXPECT_EQ(back.useful_flops, r.useful_flops);
  EXPECT_EQ(back.wall_seconds, r.wall_seconds);
  expect_results_bitwise(r.results, back.results);
}

TEST(IoStreamedSection, EmitterThatChangesBetweenPassesThrows) {
  TmpFile f("nondeterministic.tetc");
  // Same length, different bytes: caught by the pass-2 CRC.
  {
    Writer w(f.path);
    int calls = 0;
    EXPECT_THROW(w.add_streamed_section(SectionType::kChunkResult, 1,
                                        [&calls](PayloadBuilder& b) {
                                          b.put_u32(calls++ == 0 ? 1u : 2u);
                                        }),
                 IoError);
  }
  // The section on disk fails its payload CRC: the tolerant reader stops
  // before it, exactly as at a torn append.
  EXPECT_FALSE(
      StreamReader(f.path, /*tolerate_torn_tail=*/true).next().has_value());
  // Different length: caught by the pass-2 byte count.
  {
    Writer w(f.path);
    int calls = 0;
    EXPECT_THROW(w.add_streamed_section(SectionType::kChunkResult, 1,
                                        [&calls](PayloadBuilder& b) {
                                          b.put_u32(7);
                                          if (calls++ > 0) b.put_u32(7);
                                        }),
                 IoError);
  }
}

// ---------------------------------------------------------------------------
// Datasets.

TEST(IoDataset, RoundTripsTensorsAndGroundTruthFibers) {
  dwmri::DatasetOptions opt;
  opt.num_voxels = 12;
  const auto ds = dwmri::make_dataset<float>(2011, opt);

  TmpFile f("dataset.tetc");
  save_dataset(f.path, ds);
  const auto back = load_dataset<float>(f.path);

  ASSERT_EQ(back.voxels.size(), ds.voxels.size());
  for (std::size_t v = 0; v < ds.voxels.size(); ++v) {
    EXPECT_EQ(back.voxels[v].tensor, ds.voxels[v].tensor) << "voxel " << v;
    ASSERT_EQ(back.voxels[v].fibers.size(), ds.voxels[v].fibers.size());
    for (std::size_t k = 0; k < ds.voxels[v].fibers.size(); ++k) {
      const auto& a = ds.voxels[v].fibers[k];
      const auto& b = back.voxels[v].fibers[k];
      EXPECT_EQ(a.weight, b.weight);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(a.direction[static_cast<std::size_t>(i)],
                  b.direction[static_cast<std::size_t>(i)]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint codec (the scheduler-level resume test is checkpoint_test.cpp).

TEST(IoCheckpoint, FingerprintPinsEveryInputBit) {
  auto p = batch::BatchProblem<float>::random(31, 3, 2, 4, 3);
  const auto base = problem_fingerprint<float>(
      p.order, p.dim, 1, p.options,
      std::span<const SymmetricTensor<float>>(p.tensors),
      std::span<const std::vector<float>>(p.starts));

  auto tweaked = p;
  tweaked.tensors[1].value(0) += 1e-7f;
  EXPECT_NE(base, problem_fingerprint<float>(
                      p.order, p.dim, 1, p.options,
                      std::span<const SymmetricTensor<float>>(tweaked.tensors),
                      std::span<const std::vector<float>>(p.starts)));

  auto topt = p.options;
  topt.tolerance *= 2;
  EXPECT_NE(base, problem_fingerprint<float>(
                      p.order, p.dim, 1, topt,
                      std::span<const SymmetricTensor<float>>(p.tensors),
                      std::span<const std::vector<float>>(p.starts)));

  EXPECT_NE(base, problem_fingerprint<float>(
                      p.order, p.dim, 2, p.options,
                      std::span<const SymmetricTensor<float>>(p.tensors),
                      std::span<const std::vector<float>>(p.starts)));
}

TEST(IoCheckpoint, LogRoundTripsJobsAndChunksAndTruncatesTornTails) {
  TmpFile f("wal.tetc");
  CheckpointJob job;
  job.job = 0;
  job.fingerprint = 0xABCD1234u;
  job.order = 4;
  job.dim = 3;
  job.num_tensors = 4;
  job.num_starts = 2;
  job.tier = 3;
  job.chunk_tensors = 2;

  CheckpointChunk<float> chunk;
  chunk.job = 0;
  chunk.begin = 0;
  chunk.end = 2;
  for (int i = 0; i < 4; ++i) {
    sshopm::Result<float> r;
    r.lambda = static_cast<float>(i) * 0.25f;
    r.x = {0.6f, 0.8f, 0.0f};
    r.iterations = i + 1;
    r.converged = (i % 2) == 0;
    chunk.results.push_back(std::move(r));
  }
  {
    Writer w(f.path);
    add_checkpoint_job_section(w, job);
    add_checkpoint_chunk_section(w, chunk);
    w.flush();
  }
  const auto intact_end = std::filesystem::file_size(f.path);
  // Torn tail: a half-written third section.
  {
    Writer w(f.path, OpenMode::kAppend);
    add_checkpoint_chunk_section(w, chunk);
    w.flush();
  }
  std::filesystem::resize_file(f.path, intact_end + 40);

  const auto replay = load_checkpoint<float>(f.path);
  ASSERT_TRUE(replay.present);
  ASSERT_EQ(replay.jobs.size(), 1u);
  EXPECT_EQ(replay.jobs[0].fingerprint, job.fingerprint);
  EXPECT_EQ(replay.jobs[0].chunk_tensors, job.chunk_tensors);
  ASSERT_EQ(replay.chunks.size(), 1u);  // torn third section ignored
  EXPECT_EQ(replay.chunks[0].begin, 0);
  EXPECT_EQ(replay.chunks[0].end, 2);
  expect_results_bitwise(chunk.results, replay.chunks[0].results);

  // Truncation puts the file back to its intact prefix, ready to append.
  truncate_torn_tail(f.path, replay.valid_end);
  EXPECT_EQ(std::filesystem::file_size(f.path), intact_end);
  StreamReader strict(f.path);  // now strictly valid again
  int n = 0;
  while (strict.next()) ++n;
  EXPECT_EQ(n, 2);

  const auto missing = load_checkpoint<float>(tmp_path("no_wal.tetc"));
  EXPECT_FALSE(missing.present);
}

}  // namespace
}  // namespace te::io

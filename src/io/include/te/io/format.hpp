#pragma once
// te::io -- the TETC-v1 container format (persistence layer).
//
// The precomputed tier's speedup comes from building index/multinomial
// tables once per shape and amortizing them across every same-shape tensor
// (paper Sections III-B.5, V-C) -- but until now those tables, the
// compressed tensors themselves (Table I storage) and batch results lived
// only in process memory, so every CLI/bench/scheduler run paid full
// rebuild cost and a killed batch lost all completed work. TETC-v1 is the
// storage layer: one container file holds any mix of typed sections, each
// independently CRC-guarded, 64-byte aligned, and skippable by readers that
// do not know its type (forward compatibility). The library reads every
// section through one path, StreamReader (reader.hpp), which copies the
// payload and decodes it into owned objects.
//
// File layout (all integers little-endian; big-endian hosts are rejected
// by the endianness tag):
//
//   file header (16 bytes)
//     0   8   magic "TETCv1\0\n"
//     8   4   endianness tag 0x01020304
//     12  4   CRC32 of bytes [0, 12)
//   then zero or more sections, each starting at a 64-byte boundary:
//     0   4   section magic "TSEC"
//     4   4   section type (SectionType)
//     8   4   section version (codec-specific; readers reject newer)
//     12  4   reserved (zero)
//     16  8   payload bytes (u64)
//     24  4   CRC32 of the payload
//     28  4   CRC32 of bytes [0, 28) of this header
//   then zero padding to the next 64-byte boundary, then the payload. The
//   next section (if any) starts at the following 64-byte boundary; the
//   file ends exactly at the last payload byte, with no trailing pad, so
//   every byte on disk is covered by a CRC or a validated zero check.
//
// Corruption detection is total: magic and endian tags are checked, both
// CRCs are verified, and padding bytes must read back zero -- flipping any
// byte of a well-formed file is detected (the corruption suite flips every
// byte and asserts a precise IoError). Unknown section *types* are skipped;
// known types with a newer *version* are rejected by their codec with a
// precise error. Inside a CRC-valid payload, every decoded count is checked
// against the bytes left (PayloadCursor::require_fits) before anything is
// allocated from it, so a lying count is an IoError too.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "te/util/assert.hpp"
#include "te/util/types.hpp"

namespace te::io {

/// Thrown on any malformed, truncated or corrupt container content. Derives
/// from te::InvalidArgument so io failures ride the same error-reporting
/// path as the library's TE_REQUIRE precondition checks (BatchResult::at
/// and friends): callers catch one family, and nothing ever abort()s.
class IoError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

namespace detail {

[[noreturn]] inline void throw_io_error(const char* expr, const char* file,
                                        int line, const std::string& container,
                                        std::uint64_t offset,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "container check failed: (" << expr << ") at " << file << ':' << line
     << " -- " << msg << " [container '" << container << "', byte offset "
     << offset << ']';
  throw IoError(os.str());
}

}  // namespace detail
}  // namespace te::io

/// TE_REQUIRE analog for container parsing: throws te::io::IoError carrying
/// the container name and the byte offset where the check failed.
#define TE_IO_REQUIRE(cond, container, offset, msg)                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::te::io::detail::throw_io_error(                                   \
          #cond, __FILE__, __LINE__, (container),                         \
          static_cast<std::uint64_t>(offset),                             \
          (std::ostringstream{} << msg).str());                           \
    }                                                                     \
  } while (0)

namespace te::io {

inline constexpr std::array<char, 8> kFileMagic = {'T', 'E', 'T', 'C',
                                                   'v', '1', '\0', '\n'};
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::array<char, 4> kSectionMagic = {'T', 'S', 'E', 'C'};
inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kSectionHeaderBytes = 32;
/// Alignment of section headers and payloads within the file, and of large
/// arrays within a payload: every array starts on a cache line and at a
/// file offset that satisfies any scalar alignment requirement.
inline constexpr std::size_t kAlign = 64;

[[nodiscard]] constexpr std::uint64_t align_up(std::uint64_t off) {
  return (off + (kAlign - 1)) & ~static_cast<std::uint64_t>(kAlign - 1);
}

/// Section types. Values are part of the on-disk format; never renumber.
enum class SectionType : std::uint32_t {
  kTensorBatch = 1,         ///< packed same-shape SymmetricTensor batch
  kKernelTables = 2,        ///< one KernelTables set (index/coeff/contrib)
  kBatchResult = 3,         ///< per-(tensor, start) SS-HOPM results
  kDataset = 4,             ///< DW-MRI voxels: fibers + tensors
  kCheckpointManifest = 5,  ///< scheduler job fingerprints (WAL head)
  kChunkResult = 6,         ///< one completed scheduler chunk (WAL record)
};

[[nodiscard]] constexpr std::string_view section_type_name(std::uint32_t t) {
  switch (static_cast<SectionType>(t)) {
    case SectionType::kTensorBatch:
      return "tensor-batch";
    case SectionType::kKernelTables:
      return "kernel-tables";
    case SectionType::kBatchResult:
      return "batch-result";
    case SectionType::kDataset:
      return "dataset";
    case SectionType::kCheckpointManifest:
      return "checkpoint-manifest";
    case SectionType::kChunkResult:
      return "chunk-result";
  }
  return "unknown";
}

/// Scalar type codes stored in payload headers.
template <Real T>
[[nodiscard]] constexpr std::uint32_t dtype_code() {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8, "unsupported scalar");
  return sizeof(T) == 4 ? 1u : 2u;
}

[[nodiscard]] constexpr std::string_view dtype_name(std::uint32_t code) {
  return code == 1 ? "float32" : code == 2 ? "float64" : "unknown";
}

/// CRC32 (IEEE, polynomial 0xEDB88320), incremental form. Start from
/// crc = 0 and feed chunks in order; the final value is the checksum.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         std::span<const std::byte> data);

[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32_update(0, data);
}

// ---------------------------------------------------------------------------
// Payload construction / parsing helpers.
// ---------------------------------------------------------------------------

/// Little-endian append-only byte buffer for building section payloads.
/// Scalars are staged through std::memcpy, so padding bytes never leak
/// indeterminate memory into the file (CRCs stay deterministic).
///
/// Two modes. The default builder keeps the whole payload (bytes()). A
/// streaming builder keeps at most `chunk` bytes: each time the buffer
/// fills it is handed to `drain` and cleared, and finish() drains the tail,
/// so a payload of any size passes through bounded memory in order. size()
/// counts every byte put in either mode, so align() pads identically.
class PayloadBuilder {
 public:
  using Drain = std::function<void(std::span<const std::byte>)>;

  PayloadBuilder() = default;
  PayloadBuilder(std::size_t chunk, Drain drain)
      : chunk_(chunk), drain_(std::move(drain)) {
    TE_REQUIRE(chunk_ > 0 && drain_, "a streaming builder needs a chunk "
                                     "size and a drain");
  }

  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_i32(std::int32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }
  template <Real T>
  void put_scalar(T v) {
    put_raw(&v, sizeof(v));
  }
  void put_bytes(std::span<const std::byte> b) {
    if (b.empty()) return;  // memcpy must not see a null buffer
    if (b.size() <= buf_.size() - used_) {  // fast path: fits the buffer
      std::memcpy(buf_.data() + used_, b.data(), b.size());
      used_ += b.size();
      return;
    }
    while (!b.empty()) {
      if (used_ == buf_.size()) make_room(b.size());
      const std::size_t n = std::min(b.size(), buf_.size() - used_);
      std::memcpy(buf_.data() + used_, b.data(), n);
      used_ += n;
      b = b.subspan(n);
    }
  }
  template <typename T>
  void put_array(std::span<const T> a) {
    put_bytes(std::as_bytes(a));
  }
  /// Zero-pad to the next kAlign boundary (array starts).
  void align() {
    static constexpr std::array<std::byte, kAlign> kZeros{};
    put_bytes(std::span<const std::byte>(kZeros).first(
        static_cast<std::size_t>(align_up(size()) - size())));
  }
  /// Streaming mode: hand the buffered tail to the drain (no-op otherwise).
  void finish() {
    if (drain_ && used_ > 0) drain_buffer();
  }
  [[nodiscard]] std::uint64_t size() const { return drained_ + used_; }
  /// The whole payload (default mode); the not-yet-drained tail when
  /// streaming.
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {buf_.data(), used_};
  }

 private:
  void put_raw(const void* p, std::size_t n) {
    put_bytes({static_cast<const std::byte*>(p), n});
  }
  /// The buffer is full: grow it geometrically up to the chunk bound, or,
  /// at the bound, drain it.
  void make_room(std::size_t want) {
    if (buf_.size() < chunk_) {
      buf_.resize(std::min(
          chunk_, std::max({2 * buf_.size(), used_ + want, std::size_t{256}})));
    } else {
      drain_buffer();
    }
  }
  void drain_buffer() {
    drain_(bytes());
    drained_ += used_;
    used_ = 0;
  }

  std::size_t chunk_ = std::numeric_limits<std::size_t>::max();
  Drain drain_;
  std::uint64_t drained_ = 0;
  std::vector<std::byte> buf_;  ///< storage; bytes [0, used_) are payload
  std::size_t used_ = 0;
};

/// Bounds-checked little-endian cursor over one section payload. Every
/// overrun throws IoError with the *file* offset of the failure (the
/// payload's absolute position plus the cursor), so corruption reports
/// point at real bytes.
class PayloadCursor {
 public:
  PayloadCursor(std::span<const std::byte> payload, std::string container,
                std::uint64_t payload_file_offset)
      : payload_(payload),
        container_(std::move(container)),
        base_(payload_file_offset) {}

  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::int32_t i32() { return get<std::int32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return get<std::int64_t>(); }
  [[nodiscard]] double f64() { return get<double>(); }
  template <Real T>
  [[nodiscard]] T scalar() {
    return get<T>();
  }

  [[nodiscard]] std::span<const std::byte> bytes(std::uint64_t n) {
    TE_IO_REQUIRE(n <= remaining(), container_, offset(),
                  "payload truncated: need " << n << " bytes, have "
                                             << remaining());
    const auto out = payload_.subspan(static_cast<std::size_t>(pos_),
                                      static_cast<std::size_t>(n));
    pos_ += n;
    return out;
  }

  /// Bytes taken by `n` elements of `each` bytes, after checking that they
  /// fit in the rest of the payload. The check divides instead of
  /// multiplying, so a lying count cannot wrap it; decoders call this
  /// before sizing any allocation from a count read out of the file (with
  /// `each` the smallest encoding of one element for variable-size
  /// records).
  std::uint64_t require_fits(std::uint64_t n, std::uint64_t each) const {
    TE_IO_REQUIRE(each == 0 || n <= remaining() / each, container_, offset(),
                  "count " << n << " of " << each
                           << "-byte elements overruns payload: "
                           << remaining() << " bytes left");
    return n * each;
  }

  /// Copy of the next `n` elements of a trivially copyable type (scalars,
  /// index entries, table records), fit-checked before the vector is sized.
  template <typename U>
  [[nodiscard]] std::vector<U> copy_array(std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<U>);
    const auto raw = bytes(require_fits(n, sizeof(U)));
    std::vector<U> out(static_cast<std::size_t>(n));
    if (!out.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Seek to an absolute in-payload offset (explicit array-offset tables).
  void seek(std::uint64_t in_payload) {
    TE_IO_REQUIRE(in_payload <= payload_.size(), container_, base_ + in_payload,
                  "array offset " << in_payload << " past payload end "
                                  << payload_.size());
    pos_ = in_payload;
  }

  [[nodiscard]] std::uint64_t pos() const { return pos_; }
  [[nodiscard]] std::uint64_t remaining() const {
    return payload_.size() - pos_;
  }
  /// Absolute file offset of the cursor (for error messages).
  [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }
  [[nodiscard]] const std::string& container() const { return container_; }

 private:
  template <typename T>
  [[nodiscard]] T get() {
    TE_IO_REQUIRE(sizeof(T) <= remaining(), container_, offset(),
                  "payload truncated: need " << sizeof(T) << " bytes, have "
                                             << remaining());
    T v;
    std::memcpy(&v, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> payload_;
  std::string container_;
  std::uint64_t base_;
  std::uint64_t pos_ = 0;
};

/// Reject the (hypothetical) big-endian host before it writes or
/// misinterprets a container: TETC-v1 is a little-endian format.
inline void require_little_endian(const std::string& container) {
  TE_IO_REQUIRE(std::endian::native == std::endian::little, container, 0,
                "TETC containers require a little-endian host");
}

}  // namespace te::io

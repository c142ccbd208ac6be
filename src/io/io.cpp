// TETC-v1 container implementation: CRC32, Writer, StreamReader. See
// format.hpp for the layout contract.

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "te/io/format.hpp"
#include "te/io/reader.hpp"
#include "te/io/writer.hpp"
#include "te/obs/obs.hpp"

namespace te::io {

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8.
// ---------------------------------------------------------------------------

namespace {

/// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table, and
/// t[k][b] is the CRC of byte b followed by k zero bytes, so one step folds
/// eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load of four bytes (a plain load on the hosts TETC runs
/// on; spelled bytewise so it never depends on alignment).
inline std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if TE_OBS_ENABLED
/// Process-wide io traffic counters (bench/CI observability: the warm-start
/// gate asserts on these, and tetc tools report them).
struct IoMetrics {
  obs::Counter& bytes_written;
  obs::Counter& bytes_read;
  obs::Counter& sections_written;
  obs::Counter& sections_read;

  static IoMetrics& get() {
    static IoMetrics m{
        obs::global().counter("io.bytes_written"),
        obs::global().counter("io.bytes_read"),
        obs::global().counter("io.sections_written"),
        obs::global().counter("io.sections_read"),
    };
    return m;
  }
};
#endif  // TE_OBS_ENABLED

/// Serialized file header (16 bytes).
std::array<std::byte, kFileHeaderBytes> make_file_header() {
  std::array<std::byte, kFileHeaderBytes> h{};
  std::memcpy(h.data(), kFileMagic.data(), kFileMagic.size());
  const std::uint32_t endian = kEndianTag;
  std::memcpy(h.data() + 8, &endian, 4);
  const std::uint32_t crc = crc32({h.data(), 12});
  std::memcpy(h.data() + 12, &crc, 4);
  return h;
}

/// Validate a file header image; throws IoError (strict) on any mismatch.
void check_file_header(std::span<const std::byte> h,
                       const std::string& container) {
  TE_IO_REQUIRE(h.size() >= kFileHeaderBytes, container, h.size(),
                "truncated file header: " << h.size() << " of "
                                          << kFileHeaderBytes << " bytes");
  TE_IO_REQUIRE(
      std::memcmp(h.data(), kFileMagic.data(), kFileMagic.size()) == 0,
      container, 0, "bad magic: not a TETC-v1 container");
  std::uint32_t endian = 0;
  std::memcpy(&endian, h.data() + 8, 4);
  TE_IO_REQUIRE(endian == kEndianTag, container, 8,
                "endianness tag mismatch (file written on an incompatible "
                "host?)");
  std::uint32_t stored = 0;
  std::memcpy(&stored, h.data() + 12, 4);
  const std::uint32_t computed = crc32(h.first(12));
  TE_IO_REQUIRE(stored == computed, container, 12,
                "file header CRC mismatch: stored " << stored << ", computed "
                                                    << computed);
}

/// Serialized section header (32 bytes).
std::array<std::byte, kSectionHeaderBytes> make_section_header(
    SectionType type, std::uint32_t version, std::uint64_t payload_bytes,
    std::uint32_t payload_crc) {
  std::array<std::byte, kSectionHeaderBytes> h{};
  std::memcpy(h.data(), kSectionMagic.data(), kSectionMagic.size());
  const std::uint32_t type32 = static_cast<std::uint32_t>(type);
  std::memcpy(h.data() + 4, &type32, 4);
  std::memcpy(h.data() + 8, &version, 4);
  // bytes [12, 16): reserved, zero.
  std::memcpy(h.data() + 16, &payload_bytes, 8);
  std::memcpy(h.data() + 24, &payload_crc, 4);
  const std::uint32_t header_crc = crc32({h.data(), 28});
  std::memcpy(h.data() + 28, &header_crc, 4);
  return h;
}

/// Decode + validate a section header image at `header_offset`.
SectionInfo check_section_header(std::span<const std::byte> h,
                                 std::uint64_t header_offset,
                                 const std::string& container) {
  TE_IO_REQUIRE(
      std::memcmp(h.data(), kSectionMagic.data(), kSectionMagic.size()) == 0,
      container, header_offset, "bad section magic");
  std::uint32_t stored = 0;
  std::memcpy(&stored, h.data() + 28, 4);
  const std::uint32_t computed = crc32(h.first(28));
  TE_IO_REQUIRE(stored == computed, container, header_offset + 28,
                "section header CRC mismatch: stored "
                    << stored << ", computed " << computed);
  std::uint32_t reserved = 0;
  std::memcpy(&reserved, h.data() + 12, 4);
  TE_IO_REQUIRE(reserved == 0, container, header_offset + 12,
                "nonzero reserved field in section header");
  SectionInfo info;
  std::memcpy(&info.type, h.data() + 4, 4);
  std::memcpy(&info.version, h.data() + 8, 4);
  std::memcpy(&info.payload_bytes, h.data() + 16, 8);
  info.header_offset = header_offset;
  info.payload_offset = align_up(header_offset + kSectionHeaderBytes);
  return info;
}

std::uint32_t stored_payload_crc(std::span<const std::byte> h) {
  std::uint32_t crc = 0;
  std::memcpy(&crc, h.data() + 24, 4);
  return crc;
}

void check_padding(std::span<const std::byte> pad, std::uint64_t offset,
                   const std::string& container) {
  for (std::size_t i = 0; i < pad.size(); ++i) {
    TE_IO_REQUIRE(pad[i] == std::byte{0}, container, offset + i,
                  "nonzero padding byte");
  }
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::byte> data) {
  const auto& t = kCrcTables;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Writer::Writer(std::string path, OpenMode mode) : path_(std::move(path)) {
  require_little_endian(path_);
  bool fresh = mode == OpenMode::kTruncate;
  if (mode == OpenMode::kAppend) {
    std::ifstream existing(path_, std::ios::binary | std::ios::ate);
    if (existing) {
      size_ = static_cast<std::uint64_t>(existing.tellg());
      existing.seekg(0);
      std::array<std::byte, kFileHeaderBytes> h{};
      existing.read(reinterpret_cast<char*>(h.data()),
                    static_cast<std::streamsize>(h.size()));
      TE_IO_REQUIRE(existing.gcount() ==
                        static_cast<std::streamsize>(kFileHeaderBytes),
                    path_, size_, "cannot append: file shorter than a header");
      check_file_header(h, path_);
    } else {
      fresh = true;  // append-or-create: the WAL's first run.
    }
  }
  os_.open(path_, fresh ? (std::ios::binary | std::ios::trunc)
                        : (std::ios::binary | std::ios::app));
  TE_IO_REQUIRE(os_.good(), path_, 0, "cannot open container for writing");
  if (fresh) {
    size_ = 0;
    const auto h = make_file_header();
    write_raw({h.data(), h.size()});
  }
}

void Writer::write_raw(std::span<const std::byte> bytes) {
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  TE_IO_REQUIRE(os_.good(), path_, size_, "write failed");
  size_ += bytes.size();
  TE_OBS_ONLY(IoMetrics::get().bytes_written.add(
      static_cast<std::int64_t>(bytes.size())));
}

void Writer::pad_to(std::uint64_t target) {
  TE_ASSERT(target >= size_);
  static constexpr std::array<std::byte, kAlign> kZeros{};
  while (size_ < target) {
    const std::uint64_t n = std::min<std::uint64_t>(target - size_, kAlign);
    write_raw({kZeros.data(), static_cast<std::size_t>(n)});
  }
}

void Writer::add_streamed_section(SectionType type, std::uint32_t version,
                                  const PayloadEmitter& emit) {
  // Pass 1: size and CRC; no more than one chunk of payload is ever held.
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  {
    PayloadBuilder sizer(kSectionChunkBytes,
                         [&](std::span<const std::byte> chunk) {
                           payload_bytes += chunk.size();
                           payload_crc = crc32_update(payload_crc, chunk);
                         });
    emit(sizer);
    sizer.finish();
  }
  pad_to(align_up(size_));
  const auto header =
      make_section_header(type, version, payload_bytes, payload_crc);
  write_raw({header.data(), header.size()});
  pad_to(align_up(size_));

  // Pass 2: the same bytes again, straight to the file.
  const std::uint64_t payload_offset = size_;
  std::uint32_t written_crc = 0;
  PayloadBuilder out(kSectionChunkBytes, [&](std::span<const std::byte> chunk) {
    write_raw(chunk);
    written_crc = crc32_update(written_crc, chunk);
  });
  emit(out);
  out.finish();
  TE_IO_REQUIRE(size_ - payload_offset == payload_bytes &&
                    written_crc == payload_crc,
                path_, payload_offset,
                "section payload emitter is not deterministic: pass 1 gave "
                    << payload_bytes << " bytes (CRC " << payload_crc
                    << "), pass 2 wrote " << (size_ - payload_offset)
                    << " bytes (CRC " << written_crc << ")");
  // No trailing pad: the container ends exactly at the last payload byte,
  // so every byte of the file is covered by a CRC or a validated zero-pad
  // check and any flip or truncation is detectable. The next add_section
  // (including append mode on reopen) pads up to the boundary itself.
  ++sections_added_;
  TE_OBS_ONLY(IoMetrics::get().sections_written.inc());
}

void Writer::flush() {
  os_.flush();
  TE_IO_REQUIRE(os_.good(), path_, size_, "flush failed");
}

// ---------------------------------------------------------------------------
// StreamReader.
// ---------------------------------------------------------------------------

StreamReader::StreamReader(std::string path, bool tolerate_torn_tail)
    : path_(std::move(path)), tolerant_(tolerate_torn_tail) {
  is_.open(path_, std::ios::binary | std::ios::ate);
  TE_IO_REQUIRE(is_.good(), path_, 0, "cannot open container for reading");
  file_bytes_ = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0);
  std::array<std::byte, kFileHeaderBytes> h{};
  is_.read(reinterpret_cast<char*>(h.data()),
           static_cast<std::streamsize>(h.size()));
  check_file_header({h.data(), static_cast<std::size_t>(is_.gcount())}, path_);
  pos_ = kFileHeaderBytes;
}

std::optional<SectionData> StreamReader::next() {
  if (stopped_) return std::nullopt;
  try {
    const std::uint64_t header_off = align_up(pos_);
    if (header_off >= file_bytes_) {
      // A well-formed container ends exactly at the last payload byte; any
      // leftover tail (too short to even hold the next section header) is
      // corruption, not slack.
      TE_IO_REQUIRE(pos_ == file_bytes_, path_, pos_,
                    "trailing bytes after final section: "
                        << (file_bytes_ - pos_) << " bytes");
      return std::nullopt;
    }
    // Read inter-section padding + header in one go.
    std::vector<std::byte> pad(static_cast<std::size_t>(header_off - pos_));
    is_.seekg(static_cast<std::streamoff>(pos_));
    if (!pad.empty()) {
      is_.read(reinterpret_cast<char*>(pad.data()),
               static_cast<std::streamsize>(pad.size()));
      TE_IO_REQUIRE(is_.gcount() == static_cast<std::streamsize>(pad.size()),
                    path_, pos_, "truncated inter-section padding");
      check_padding(pad, pos_, path_);
    }
    std::array<std::byte, kSectionHeaderBytes> h{};
    is_.read(reinterpret_cast<char*>(h.data()),
             static_cast<std::streamsize>(h.size()));
    TE_IO_REQUIRE(
        is_.gcount() == static_cast<std::streamsize>(kSectionHeaderBytes),
        path_, header_off,
        "truncated section header: " << is_.gcount() << " of "
                                     << kSectionHeaderBytes << " bytes");
    const auto info = check_section_header(h, header_off, path_);
    // Pre-payload padding.
    std::vector<std::byte> pre(static_cast<std::size_t>(
        info.payload_offset - (header_off + kSectionHeaderBytes)));
    if (!pre.empty()) {
      is_.read(reinterpret_cast<char*>(pre.data()),
               static_cast<std::streamsize>(pre.size()));
      TE_IO_REQUIRE(is_.gcount() == static_cast<std::streamsize>(pre.size()),
                    path_, header_off + kSectionHeaderBytes,
                    "truncated pre-payload padding");
      check_padding(pre, header_off + kSectionHeaderBytes, path_);
    }
    // Checked before the payload buffer is sized: a CRC-valid header may
    // still declare more bytes than the file holds. (The padding reads
    // above put payload_offset within the file.)
    TE_IO_REQUIRE(info.payload_bytes <= file_bytes_ - info.payload_offset,
                  path_, info.payload_offset,
                  "truncated payload: section wants "
                      << info.payload_bytes << " bytes, file has only "
                      << (file_bytes_ - info.payload_offset) << " left");
    SectionData out;
    out.info = info;
    out.payload.resize(static_cast<std::size_t>(info.payload_bytes));
    if (!out.payload.empty()) {
      is_.read(reinterpret_cast<char*>(out.payload.data()),
               static_cast<std::streamsize>(out.payload.size()));
      TE_IO_REQUIRE(
          is_.gcount() == static_cast<std::streamsize>(out.payload.size()),
          path_, info.payload_offset,
          "truncated payload: section wants "
              << info.payload_bytes << " bytes, got " << is_.gcount());
    }
    const std::uint32_t stored = stored_payload_crc(h);
    const std::uint32_t computed = crc32(out.payload);
    TE_IO_REQUIRE(stored == computed, path_, info.payload_offset,
                  "payload CRC mismatch: stored " << stored << ", computed "
                                                  << computed);
    pos_ = info.payload_offset + info.payload_bytes;
    TE_OBS_ONLY({
      IoMetrics::get().sections_read.inc();
      IoMetrics::get().bytes_read.add(static_cast<std::int64_t>(
          kSectionHeaderBytes + out.payload.size()));
    });
    return out;
  } catch (const IoError&) {
    if (tolerant_) {
      stopped_ = true;
      return std::nullopt;
    }
    throw;
  }
}

// ---------------------------------------------------------------------------
// Lookup helper.
// ---------------------------------------------------------------------------

SectionData find_section(const std::string& path, SectionType type) {
  StreamReader reader(path);
  std::uint64_t end = 0;
  while (auto s = reader.next()) {
    end = s->info.payload_offset + s->info.payload_bytes;
    if (s->info.type == static_cast<std::uint32_t>(type)) return std::move(*s);
  }
  TE_IO_REQUIRE(false, path, end,
                "no '" << section_type_name(static_cast<std::uint32_t>(type))
                       << "' section in container");
  return {};  // unreachable
}

}  // namespace te::io

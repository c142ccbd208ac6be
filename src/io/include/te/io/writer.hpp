#pragma once
// Streaming TETC-v1 writer: open (truncate or append), add checksummed
// sections, flush. Appending is the write-ahead-log mode the scheduler's
// checkpointing uses -- each completed chunk becomes one flushed section,
// so a killed process leaves at most one torn section at the tail (which
// the tolerant reader treats as end-of-log).

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>

#include "te/io/format.hpp"

namespace te::io {

/// Scratch bound of Writer::add_streamed_section: a payload passes through
/// memory at most this many bytes at a time, whatever its size.
inline constexpr std::size_t kSectionChunkBytes = std::size_t{64} * 1024;

enum class OpenMode {
  kTruncate,  ///< start a fresh container (file header written immediately)
  kAppend,    ///< append sections to an existing container (header is
              ///< validated first); creates a fresh container if the file
              ///< does not exist yet
};

class Writer {
 public:
  explicit Writer(std::string path, OpenMode mode = OpenMode::kTruncate);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Produces one section payload into the builder it is handed. Must be
  /// deterministic: add_streamed_section runs it twice.
  using PayloadEmitter = std::function<void(PayloadBuilder&)>;

  /// Append one section: header + CRCs + alignment padding + payload, in
  /// bounded memory. Pass 1 runs `emit` through a kSectionChunkBytes
  /// scratch buffer folding the payload's size and CRC; the header is
  /// written; pass 2 runs `emit` again and writes each chunk as it fills.
  /// Writes stay append-only (header, then payload). Throws IoError if
  /// pass 2 yields different bytes (the section on disk then fails its
  /// CRC, like any torn write).
  void add_streamed_section(SectionType type, std::uint32_t version,
                            const PayloadEmitter& emit);

  /// Append a section whose payload is already in memory.
  void add_section(SectionType type, std::uint32_t version,
                   std::span<const std::byte> payload) {
    add_streamed_section(
        type, version, [payload](PayloadBuilder& b) { b.put_bytes(payload); });
  }

  /// Push buffered bytes to the OS (checkpoint durability point).
  void flush();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Total container size written so far (bytes).
  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// Sections appended through this writer (excludes pre-existing ones).
  [[nodiscard]] int sections_added() const { return sections_added_; }

 private:
  void pad_to(std::uint64_t target);
  void write_raw(std::span<const std::byte> bytes);

  std::string path_;
  std::ofstream os_;
  std::uint64_t size_ = 0;
  int sections_added_ = 0;
};

}  // namespace te::io

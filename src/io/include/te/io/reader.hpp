#pragma once
// TETC-v1 reader.
//
// StreamReader is the one read path: sequential ifstream reads, each
// section's payload copied into an owned buffer that the object codecs
// (container.hpp, batch_codec.hpp, checkpoint.hpp) decode into owned
// objects. The load_* helpers, the checkpoint replay, the table spill tier
// and the tools all go through it, so it is the one parser of untrusted
// container bytes (tests/tetc_fuzz_test.cpp drives it with mutated files).
//
// Strict mode (the default) throws IoError, with the file offset, on any
// malformed byte: bad magic, bad CRC, nonzero padding, truncation.
// Torn-tail mode (`tolerate_torn_tail`) is the write-ahead-log semantic:
// the first malformed or incomplete section terminates iteration cleanly
// instead of throwing, so a log whose writer died mid-append replays every
// fully-flushed record and ignores the torn tail.

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "te/io/format.hpp"

namespace te::io {

/// One decoded section header (offsets are absolute file positions).
struct SectionInfo {
  std::uint32_t type = 0;
  std::uint32_t version = 0;
  std::uint64_t header_offset = 0;
  std::uint64_t payload_offset = 0;
  std::uint64_t payload_bytes = 0;
};

/// One section: header fields plus the payload copied out of the file.
struct SectionData {
  SectionInfo info;
  std::vector<std::byte> payload;
};

/// Sequential reader over an on-disk container.
class StreamReader {
 public:
  explicit StreamReader(std::string path, bool tolerate_torn_tail = false);

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Next section (payload copied), or nullopt at end-of-file / torn tail.
  [[nodiscard]] std::optional<SectionData> next();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Size of the container file when it was opened.
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

 private:
  std::string path_;
  std::ifstream is_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t pos_ = 0;
  bool tolerant_;
  bool stopped_ = false;
};

/// First section of the given type read from disk. Unknown sections are
/// skipped (forward compatibility); a missing section is a precise IoError
/// naming the type.
[[nodiscard]] SectionData find_section(const std::string& path,
                                       SectionType type);

}  // namespace te::io
